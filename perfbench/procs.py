"""One child process per call, spawned by a small launcher (``spawn.py``).

The benchmark itself holds the expected payloads in memory, so it does not
spawn the calls: a child's peak resident set size would start from the
benchmark's own.  ``Launcher`` keeps one launcher process for a whole run,
sends it one argument list at a time, and reads the child's output files
after each call.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
STDERR_KEEP = 4000


@dataclass(frozen=True)
class ChildResult:
    code: int | None  # None: killed at the time limit
    wall_s: float
    maxrss_kb: int
    stdout_sha256: str
    stdout_bytes: int
    stderr: str  # the last STDERR_KEEP characters
    pid: int


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_argv(call_argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "cobweb.cli", *call_argv]


class Launcher:
    """A launcher process for a run; use as a context manager."""

    def __init__(self, workdir: str, env: dict, time_limit_s: float):
        self.workdir = workdir
        self.process = subprocess.Popen(
            [sys.executable, "-I", "-S", os.path.join(HERE, "spawn.py"), workdir, str(time_limit_s)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
        )

    def run(self, argv: list[str]) -> ChildResult:
        """Run ``argv`` (argv[0] a full path) to completion or to the time limit."""
        self.process.stdin.write(json.dumps(argv) + "\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process exited")
        report = json.loads(line)
        digest = hashlib.sha256()
        size = 0
        with open(os.path.join(self.workdir, "child.stdout"), "rb") as handle:
            while chunk := handle.read(1 << 20):
                digest.update(chunk)
                size += len(chunk)
        with open(os.path.join(self.workdir, "child.stderr"), encoding="utf-8", errors="replace") as handle:
            stderr = handle.read()[-STDERR_KEEP:]
        return ChildResult(
            report["code"], report["wall_s"], report["maxrss_kb"], digest.hexdigest(), size,
            stderr, report["pid"],
        )

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.process.stdin.close()
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()
