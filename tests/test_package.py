"""The package's public surface: ``__all__`` against ``__init__.py``."""

import ast
from pathlib import Path

import ncinvert


def test_all_names_resolve_and_every_public_import_is_listed():
    for name in ncinvert.__all__:
        assert hasattr(ncinvert, name), name
    tree = ast.parse(Path(ncinvert.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }
    assert imported == set(ncinvert.__all__)
    assert len(ncinvert.__all__) == len(set(ncinvert.__all__))
