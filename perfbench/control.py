"""The control: a frozen reference copy of ncinvert, run in a process of its own.

The host this benchmark runs on is shared, and its speed drifts by up to
1.4x over tens of seconds, so a job's wall time alone does not repeat from
run to run.  ``reference_src/ncinvert`` is a copy of the package as it was
when the benchmark was defined.  ``Control`` starts it in a second process
and runs each job there right before or after the program runs the same job,
one process at a time, so both see the same host.  The timing metrics of
``run.py`` are the program's figures relative to the control's.

The control process is also a correctness check: the program's output for
every job must equal the reference copy's output byte for byte.

    python3 perfbench/control.py

serves JSON requests, one a line, on standard input:
``{"job": <job>}`` answers ``{"millis": ..., "text": ..., "why": ...}``;
``{"setup": [<workload>, <spec>, <seed>, <workdir>]}`` imports the
reference copy afresh, generates the workload's inputs in ``workdir`` and
answers ``{"seconds": ...}``.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import benchjobs

HERE = Path(__file__).resolve().parent
REFERENCE_SRC = HERE / "reference_src"


class ControlError(Exception):
    pass


class Control:
    """The control process, started on entry and stopped on exit."""

    def __init__(self):
        self.proc = None

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self):
        if self.proc is None:
            return
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.proc = None

    def _ask(self, request):
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise ControlError(f"the control process ended (exit code {self.proc.wait()})")
        return json.loads(line)

    def run(self, job):
        """(millis, text, why) of ``job`` run by the reference copy."""
        reply = self._ask({"job": job})
        return reply["millis"], reply["text"], reply["why"]

    def setup(self, name, spec, seed, workdir):
        """Seconds the reference copy takes to import and generate inputs."""
        request = [name, benchjobs.spec_to_json(spec), seed, str(workdir)]
        return self._ask({"setup": request})["seconds"]


def serve(requests, replies):
    mods = benchjobs.import_package(REFERENCE_SRC)
    for line in requests:
        request = json.loads(line)
        if "job" in request:
            millis, text, why = benchjobs.run_job(request["job"], mods)
            reply = {"millis": millis, "text": text, "why": why}
        else:
            name, spec, seed, workdir = request["setup"]
            for stale in Path(workdir).iterdir():
                stale.unlink()
            start = time.perf_counter()
            mods = benchjobs.import_package(REFERENCE_SRC)
            benchjobs.build_pool(name, benchjobs.spec_from_json(spec), seed, mods, workdir)
            reply = {"seconds": time.perf_counter() - start}
        replies.write(json.dumps(reply) + "\n")
        replies.flush()


if __name__ == "__main__":
    serve(sys.stdin, sys.stdout)
