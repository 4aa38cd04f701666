"""What compiling each ``cobweb`` module costs a call that loads it.

Run from anywhere in the repository:

    python3 tools/compile_cost.py [--src DIR] [--calls FILE] [-- ARGV...]
    python3 tools/compile_cost.py --workload NAME [--seed N] [--src DIR]

A process that may not write bytecode (``PYTHONDONTWRITEBYTECODE=1``, or a
checkout without ``__pycache__``) compiles every module it imports from
source.  For each ``*.py`` of the package directory (``src/cobweb`` of this
tree, or ``--src``) the script prints the source bytes, the AST nodes
(``ast.walk`` over ``ast.parse``), the median time of ``REPEAT`` runs of
``compile()`` in this process, and the rise in peak RSS of the module's
first ``compile()`` in a fresh interpreter (``-I``), read with
``resource.getrusage`` before and after (the median over ``CHILDREN``
children).  A call's peak RSS is at least that of its largest compile.
Every child runs through one launcher for the whole run, the benchmark's own
``perfbench/procs.Launcher`` (environment: ``pairs.src_env``), started from
a temporary directory (``-c`` puts the working directory first on
``sys.path``); it prints its result as the last line of standard error, of
which the launcher keeps the last 4000 characters.

For a call, given as arguments after ``--`` or as one JSON array of
arguments per nonblank line of FILE, it runs ``cobweb.cli.main`` in a fresh
interpreter on that package (stopped after ``TIME_LIMIT_S`` seconds, by
which every call has loaded its modules) and prints the ``cobweb`` modules
the call loaded, their source bytes and AST nodes in all, and the largest
compile peak among them.  ``--workload`` takes the calls of one pass of a
benchmark workload at ``--seed`` (``perfbench/workloads.generate``, whose
``file:`` sequences go to a temporary directory), prints one line per call
and then the median and the maximum of the bytes and nodes per call; it
skips the compile peaks, which need many children.  Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

from pairs import ROOT, src_env

sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402  (perfbench/ is not a package)
from procs import Launcher  # noqa: E402

# Seconds after which a call is stopped: it has loaded its modules long
# before, and the packing workload holds searches that do not finish.
TIME_LIMIT_S = 10.0
# The compiles timed per module, and the fresh interpreters per compile peak.
REPEAT = 20
CHILDREN = 5

# The peak-RSS rise, in KB, of one compile of the file given as argv[1].
COMPILE_PEAK = """
import resource, sys
with open(sys.argv[1], encoding="utf-8") as handle:
    source = handle.read()
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
compile(source, sys.argv[1], "exec")
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before, file=sys.stderr)
"""

# Runs the call given as argv[1] (a JSON array) with standard output
# discarded, for at most argv[2] seconds, then prints the loaded cobweb
# modules as the last line of standard error.
LOADED = """
import json, os, signal, sys

class Stop(BaseException):
    pass

def stop(signum, frame):
    raise Stop()

sys.stdout = open(os.devnull, "w")
signal.signal(signal.SIGALRM, stop)
signal.setitimer(signal.ITIMER_REAL, float(sys.argv[2]))
from cobweb.cli import main
try:
    main(json.loads(sys.argv[1]))
except (SystemExit, Stop):
    pass
signal.setitimer(signal.ITIMER_REAL, 0)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "cobweb")),
      file=sys.stderr)
"""


def compile_peak_kb(launcher: Launcher, path: Path) -> int:
    """Median peak-RSS rise of a first compile of ``path`` over fresh children."""
    argv = [sys.executable, "-I", "-c", COMPILE_PEAK, str(path)]
    return int(statistics.median(int(launcher.run(argv).stderr) for _ in range(CHILDREN)))


def compile_ms(source: str, path: Path) -> float:
    """Median wall milliseconds of ``compile()`` on the source, in process."""
    times = []
    for _ in range(REPEAT):
        start = time.perf_counter()
        compile(source, str(path), "exec")
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def ast_nodes(source: str) -> int:
    """The nodes of the module's syntax tree: what its compile walks."""
    return sum(1 for _ in ast.walk(ast.parse(source)))


def loaded_modules(launcher: Launcher, argv: list[str]) -> list[str]:
    """The ``cobweb`` modules that the call loads, in a fresh interpreter."""
    result = launcher.run([sys.executable, "-c", LOADED, json.dumps(argv), str(TIME_LIMIT_S)])
    return json.loads(result.stderr.splitlines()[-1])


def module_file(name: str) -> str:
    """The file of a ``cobweb`` module, relative to the package directory."""
    return "__init__.py" if name == "cobweb" else name.split(".", 1)[1] + ".py"


def call_costs(launcher: Launcher, src: Path, argv: list[str]) -> tuple[list[str], int, int]:
    """The ``cobweb`` modules the call loads, with their source bytes and
    AST nodes in all."""
    names = loaded_modules(launcher, argv)
    sources = [(src / module_file(name)).read_text(encoding="utf-8") for name in names]
    return names, sum(len(text.encode()) for text in sources), sum(map(ast_nodes, sources))


def report_workload(launcher: Launcher, src: Path, name: str, seed: int, workdir: str) -> None:
    """One line per call of the workload's pass, then the median and the
    maximum of the bytes and AST nodes a call compiles."""
    costs = [(call["argv"], *call_costs(launcher, src, call["argv"]))
             for call in workloads.generate(name, seed, workdir)]
    print(f"{'nodes':>6}{'bytes':>8}  modules beyond cobweb, cobweb.cli; call")
    for argv, names, size, nodes in costs:
        extra = [m.split(".", 1)[1] for m in names if m not in ("cobweb", "cobweb.cli")]
        print(f"{nodes:>6}{size:>8}  {','.join(extra)}; {' '.join(argv)}")
    for label, column in (("nodes", 3), ("bytes", 2)):
        values = [cost[column] for cost in costs]
        print(f"{name} seed {seed}: {label} per call, median {statistics.median(values):g},"
              f" max {max(values)}, over {len(values)} calls")


def report_modules(launcher: Launcher, src: Path, call_list: list[list[str]]) -> None:
    """One line per module of the package, then what each call loads and compiles."""
    peaks = {}
    print(f"{'module':<16}{'bytes':>8}{'nodes':>8}{'compile ms':>12}{'peak KB':>9}")
    for path in sorted(src.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        peaks[path.name] = compile_peak_kb(launcher, path)
        print(f"{path.name:<16}{len(source.encode()):>8}{ast_nodes(source):>8}"
              f"{compile_ms(source, path):>12.2f}{peaks[path.name]:>9}")
    for argv in call_list:
        names, size, nodes = call_costs(launcher, src, argv)
        largest = max(names, key=lambda name: peaks[module_file(name)])
        print(f"\n{json.dumps(argv)}\n  loads {', '.join(names)}\n"
              f"  compiles {size} bytes, {nodes} AST nodes\n"
              f"  largest compile peak {peaks[module_file(largest)]} KB ({largest})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src" / "cobweb",
                        help="the package directory (default: src/cobweb of this tree)")
    parser.add_argument("--calls", help="file of JSON argv arrays, one call a line")
    parser.add_argument("--workload", help="the calls of one pass of this benchmark workload")
    parser.add_argument("--seed", type=int, default=1, help="the workload's seed (default 1)")
    parser.add_argument("argv", nargs=argparse.REMAINDER,
                        help="one call's arguments, after --")
    args = parser.parse_args()
    call_list = []
    if args.calls:
        call_list += [json.loads(line) for line in
                      Path(args.calls).read_text(encoding="utf-8").splitlines() if line.strip()]
    call = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    if call:
        call_list.append(call)
    src = args.src.resolve()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)  # -c puts the working directory first on a child's sys.path
        with Launcher(scratch, src_env(src.parent), TIME_LIMIT_S + 60) as launcher:
            if args.workload:
                report_workload(launcher, src, args.workload, args.seed, scratch)
            else:
                report_modules(launcher, src, call_list)
    return 0


if __name__ == "__main__":
    sys.exit(main())
