"""Launcher: spawns one child per request and reports how it went.

Started by ``procs.Launcher`` as ``python -I -S spawn.py WORKDIR LIMIT``.  It
reads one JSON argument list per line on standard input, runs it with
standard output and error redirected to ``WORKDIR/child.stdout`` and
``WORKDIR/child.stderr``, and writes one JSON line ``{"code", "wall_s",
"maxrss_kb", "pid"}`` back; ``code`` is null for a child killed at the time limit.

On Linux a child's peak resident set size starts from the resident size of
the process that spawned it, so this process imports as little as it can:
it stays below the size of a bare interpreter, and the children's figures
are their own.
"""

import json
import os
import select
import signal
import sys
import time


def run_child(argv, time_limit_s, workdir, env):
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, os.path.join(workdir, "child.stdout"), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, os.path.join(workdir, "child.stderr"), flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        poller = select.poll()
        poller.register(pidfd, select.POLLIN)
        timed_out = not poller.poll(time_limit_s * 1000)
        if timed_out:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    finally:
        os.close(pidfd)
    wall = time.perf_counter() - start
    code = None if timed_out else os.waitstatus_to_exitcode(status)
    return {"code": code, "wall_s": wall, "maxrss_kb": usage.ru_maxrss, "pid": pid}


def main():
    workdir, time_limit_s = sys.argv[1], float(sys.argv[2])
    env = dict(os.environ)
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run_child(json.loads(line), time_limit_s, workdir, env)) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
