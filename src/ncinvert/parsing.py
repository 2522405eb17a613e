"""Expression grammar for maps, and the printer that round-trips with it.

The language is deliberately small: integer and rational literals, declared
variable names, ``+ - * ^`` and parentheses.  ``*`` is noncommutative
(x*y and y*x are different terms) and juxtaposition is NOT multiplication:
``x y`` is a syntax error, ``x*y`` is required.  ``^`` is repeated
self-multiplication of its base, so (a*b)^2 = a*b*a*b.

A map file is one component expression per line (or semicolon-separated),
optionally preceded by a header ``vars: x, y`` naming the variables in
order; without a header the names are z1..zn.  Components must have the
shape z_i + (terms of degree >= 2): identity linear part, no constant.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass

from .freealg import FormalMap, NCSeries


class ParseError(ValueError):
    """Syntax error with position info."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{line}:{col}: {message}"
        super().__init__(message)


class MapFormError(ValueError):
    """A parsed map violates the z - H shape contract."""


#: the deepest parenthesis nesting the parser descends into; each level
#: costs a handful of Python frames, so this keeps far from the stack limit
MAX_NESTING = 100

#: the widest numerator or denominator a parsed coefficient may reach: an
#: integer literal wider than this is refused, and over characteristic 0 so
#: is a power b^k that is not zero at the truncation (k * o(b) <= D) when k
#: times the widest coefficient of the base passes it, and a product when
#: the widest coefficients of its two operands together do
MAX_COEFF_BITS = 1 << 16

_TOKEN = re.compile(r"(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*^()/])|(?P<bad>\S)")


@dataclass
class Token:
    kind: str
    text: str
    line: int
    col: int


def tokenize(text: str, first_line: int = 1):
    tokens = []
    for lineno, line in enumerate(text.splitlines() or [""], start=first_line):
        for m in _TOKEN.finditer(line):
            kind = m.lastgroup
            col = m.start() + 1
            if kind == "bad":
                raise ParseError(f"unexpected character {m.group()!r}", lineno, col)
            tokens.append(Token(kind, m.group(), lineno, col))
    tokens.append(Token("end", "", first_line + max(0, text.count("\n")), len(text) + 1))
    return tokens


class _Parser:
    def __init__(self, tokens, variables, ring, degree):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.variables = {name: i for i, name in enumerate(variables)}
        self.ring = ring
        self.arity = len(variables)
        self.degree = degree

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    # expr := term (('+'|'-') term)*
    def expr(self) -> NCSeries:
        out = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.take().text
            rhs = self.term()
            out = out + rhs if op == "+" else out - rhs
        return out

    def coeff_bits(self, series):
        """The widest numerator or denominator of the series over
        characteristic 0; 0 over GF(p), where residues do not grow."""
        if self.ring.characteristic != 0:
            return 0
        return series.coeff_bits()

    def literal(self, tok) -> int:
        """The value of an integer literal, refused when it is longer than
        Python converts or wider than MAX_COEFF_BITS."""
        limit = sys.get_int_max_str_digits()
        if limit and len(tok.text) > limit:
            self.error(f"integer literal longer than {limit} digits", tok)
        value = int(tok.text)
        if value.bit_length() > MAX_COEFF_BITS:
            self.error(f"integer literal wider than {MAX_COEFF_BITS} bits", tok)
        return value

    # term := factor ('*' factor)*
    def term(self) -> NCSeries:
        out = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text == "*":
                self.take()
                rhs = self.factor()
                if self.coeff_bits(out) + self.coeff_bits(rhs) > MAX_COEFF_BITS:
                    self.error(f"product would exceed {MAX_COEFF_BITS} coefficient bits", tok)
                out = out * rhs
            elif tok.kind in ("name", "int") or (tok.kind == "op" and tok.text == "("):
                self.error(
                    "juxtaposition is not multiplication; write '*' explicitly", tok
                )
            else:
                return out

    # factor := ('-'|'+')* power
    def factor(self) -> NCSeries:
        sign = 1
        while self.peek().kind == "op" and self.peek().text in "+-":
            if self.take().text == "-":
                sign = -sign
        out = self.power()
        return out if sign == 1 else -out

    # power := atom ('^' int)*
    def power(self) -> NCSeries:
        out = self.atom()
        while self.peek().kind == "op" and self.peek().text == "^":
            self.take()
            tok = self.peek()
            if tok.kind != "int":
                self.error("exponent must be a literal non-negative integer", tok)
            self.take()
            k = self.literal(tok)
            # b^k is zero at once when k * o(b) passes D, so its
            # coefficients only grow while k * o(b) <= D
            order = out.order()
            if k * order <= self.degree and k * self.coeff_bits(out) > MAX_COEFF_BITS:
                base = "with a constant term" if order == 0 else f"of order {order}"
                self.error(
                    f"power {k} of a base {base} would exceed {MAX_COEFF_BITS} coefficient bits",
                    tok,
                )
            out = self.raised(out, k)
        return out

    def raised(self, base, k) -> NCSeries:
        """base ** k.  Over GF(p), let q be the least power of p above D.
        The constant term c of base is central, so base^q = c^q + (base -
        c)^q, which is c: c^p = c, and (base - c)^q has order >= q > D.
        Hence base^k = c^(k // q) * base^(k mod q), and a huge k costs no
        more than one below q."""
        p = self.ring.characteristic
        if p == 0:
            return base ** k
        q = p
        while q <= self.degree:
            q *= p
        return (base ** (k % q)).scale(pow(base.coefficient(()), k // q, p))

    # atom := int ('/' int)? | name | '(' expr ')'
    def atom(self) -> NCSeries:
        tok = self.take()
        if tok.kind == "int":
            num = self.literal(tok)
            if self.peek().kind == "op" and self.peek().text == "/":
                self.take()
                dtok = self.take()
                if dtok.kind != "int":
                    self.error("denominator must be an integer literal", dtok)
                den = self.literal(dtok)
                if den == 0:
                    self.error("zero denominator", dtok)
                c = self.ring.div_by_int(self.ring.from_int(num), den)
            else:
                c = self.ring.from_int(num)
            return NCSeries.constant(self.ring, self.arity, self.degree, c)
        if tok.kind == "name":
            idx = self.variables.get(tok.text)
            if idx is None:
                self.error(f"unknown variable {tok.text!r}", tok)
            return NCSeries.variable(self.ring, self.arity, self.degree, idx)
        if tok.kind == "op" and tok.text == "(":
            if self.depth == MAX_NESTING:
                self.error(f"parentheses nested deeper than {MAX_NESTING} levels", tok)
            self.depth += 1
            out = self.expr()
            self.depth -= 1
            closing = self.take()
            if not (closing.kind == "op" and closing.text == ")"):
                self.error("expected ')'", closing)
            return out
        if tok.kind == "end":
            self.error("unexpected end of expression", tok)
        self.error(f"unexpected {tok.text!r}", tok)


def parse_expression(text, variables, ring, degree, first_line=1) -> NCSeries:
    """Parse a single expression into a series over the given ring."""
    parser = _Parser(tokenize(text, first_line), variables, ring, degree)
    out = parser.expr()
    tail = parser.peek()
    if tail.kind != "end":
        parser.error(f"trailing input starting at {tail.text!r}", tail)
    return out


@dataclass
class ParsedMap:
    """A parsed map plus the variable names used to print it back."""

    f_map: FormalMap
    variables: list


def split_map_source(text):
    """Split a map file into (variables or None, the line number of the
    ``vars:`` header or None, [(line_no, component_text)])."""
    variables = header_line = None
    pieces = []
    lines = text.splitlines()
    start = 0
    for i, line in enumerate(lines):
        stripped = line.strip()
        if not stripped:
            start = i + 1
            continue
        if stripped.startswith("vars:"):
            variables = [v.strip() for v in stripped[len("vars:"):].split(",") if v.strip()]
            if not variables:
                raise ParseError("empty vars: header", i + 1, 1)
            header_line = start = i + 1
        break
    for i in range(start, len(lines)):
        for chunk in lines[i].split(";"):
            if chunk.strip():
                pieces.append((i + 1, chunk))
    return variables, header_line, pieces


def _check_names(names, line):
    """ParseError on the first repeated variable name, then on the first
    name the tokenizer cannot read back as one name token."""
    col = None if line is None else 1
    seen = set()
    for name in names:
        if name in seen:
            raise ParseError(f"variable {name!r} is declared twice", line, col)
        seen.add(name)
    for name in names:
        m = _TOKEN.fullmatch(name)
        if m is None or m.lastgroup != "name":
            raise ParseError(f"{name!r} is not a variable name", line, col)


def parse_map(text, ring, degree, variables=None) -> ParsedMap:
    """Parse a map file into a validated z - H map.

    ``variables`` overrides any ``vars:`` header; with neither, components
    are named z1..zn in order.
    """
    header_vars, header_line, pieces = split_map_source(text)
    if not pieces:
        raise ParseError("no map components found", 1, 1)
    names, line = (
        (list(variables), None) if variables is not None else (header_vars, header_line)
    )
    if names is None:
        names = [f"z{i + 1}" for i in range(len(pieces))]
    else:
        _check_names(names, line)
    if len(names) != len(pieces):
        raise MapFormError(
            f"{len(pieces)} components but {len(names)} variables ({', '.join(names)})"
        )
    comps = [
        parse_expression(chunk, names, ring, degree, first_line=line_no)
        for line_no, chunk in pieces
    ]
    try:
        _check_unitriangular(comps, ring)
    except ValueError as exc:
        raise MapFormError(f"not a z - H map: {exc}") from exc
    return ParsedMap(f_map=FormalMap(comps), variables=names)


def _check_unitriangular(comps, ring):
    """Reject a constant term, then the first faulty letter z_j of
    component i: a stray z_j with j != i, or a z_i coefficient that is
    missing or not 1."""
    for i, comp in enumerate(comps):
        if not ring.is_zero(comp.coefficient(())):
            raise ValueError(f"component {i + 1} has a constant term")
        for j in range(len(comps)):
            c = comp.coefficient((j,))
            if j != i and not ring.is_zero(c):
                raise ValueError(f"component {i + 1} has a stray linear term in z{j + 1}")
            if j == i and ring.is_zero(c):
                raise ValueError(f"component {i + 1} is missing its z{i + 1} term")
            if j == i and not ring.is_one(c):
                raise ValueError(f"component {i + 1}: coefficient of z{i + 1} must be 1")


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------


def _word_text(word, variables):
    if not word:
        return ""
    runs = []
    for letter in word:
        if runs and runs[-1][0] == letter:
            runs[-1][1] += 1
        else:
            runs.append([letter, 1])
    return "*".join(
        variables[l] if k == 1 else f"{variables[l]}^{k}" for l, k in runs
    )


def format_series(series: NCSeries, variables) -> str:
    """Render a series so that parse_expression reads it back exactly."""
    if series.is_zero():
        return "0"
    ring = series.ring
    parts = []
    for word, c in series.terms():
        cs = ring.to_string(c)
        negative = cs.startswith("-")
        if negative:
            cs = cs[1:]
        letters = _word_text(word, variables)
        if not letters:
            body = cs
        elif cs == "1":
            body = letters
        else:
            body = f"{cs}*{letters}"
        parts.append(("-" if negative else "+", body))
    sign, body = parts[0]
    out = body if sign == "+" else "-" + body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def format_map(f_map: FormalMap, variables) -> str:
    """Render a map as a map file with a vars: header; round-trips through
    parse_map for any map with the z + (order >= 2) shape."""
    lines = [f"vars: {', '.join(variables)}"]
    lines.extend(format_series(c, variables) for c in f_map.components)
    return "\n".join(lines) + "\n"
