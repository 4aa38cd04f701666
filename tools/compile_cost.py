"""What compiling each ``cobweb`` module costs a call that loads it.

Run from anywhere in the repository:

    python3 tools/compile_cost.py [--src DIR] [--calls FILE] [-- ARGV...]

A process that may not write bytecode (``PYTHONDONTWRITEBYTECODE=1``, or a
checkout without ``__pycache__``) compiles every module it imports from
source.  For each ``*.py`` of the package directory (``src/cobweb`` of this
tree, or ``--src``) the script prints the source bytes, the median time of
``compile()`` in this process, and the rise in peak RSS of the module's first
``compile()`` in a fresh interpreter (``-I``), read with
``resource.getrusage`` before and after (the median over ``--children``
children).  A call's peak RSS is at least that of its largest compile.

For a call, given as arguments after ``--`` or as one JSON array of
arguments per nonblank line of FILE, it runs ``cobweb.cli.main`` in a fresh
interpreter on that package, prints the ``cobweb`` modules the call loaded
and the largest compile peak among them.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# The peak-RSS rise, in KB, of one compile of the file given as argv[1].
COMPILE_PEAK = """
import resource, sys
with open(sys.argv[1], encoding="utf-8") as handle:
    source = handle.read()
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
compile(source, sys.argv[1], "exec")
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""

# A bare interpreter that runs the command in argv[1:] and waits for it.  A
# child's ``ru_maxrss`` starts at the peak RSS of the process that forked it,
# which for this script would hide the rise; a bare interpreter's is below
# the measuring child's own start-up peak.
LAUNCH = "import os, sys; os.waitpid(os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ), 0)"

# Runs the call given as argv[1] (a JSON array) with standard output
# discarded, then prints the loaded cobweb modules as the last line of
# standard error.
LOADED = """
import json, os, sys
sys.stdout = open(os.devnull, "w")
from cobweb.cli import main
try:
    main(json.loads(sys.argv[1]))
except SystemExit:
    pass
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "cobweb")),
      file=sys.stderr)
"""


def compile_peak_kb(path: Path, children: int) -> int:
    """Median peak-RSS rise of a first compile of ``path`` over fresh children."""
    rises = [
        int(subprocess.run([sys.executable, "-I", "-S", "-c", LAUNCH,
                            sys.executable, "-I", "-c", COMPILE_PEAK, str(path)],
                           check=True, capture_output=True, text=True).stdout)
        for _ in range(children)
    ]
    return int(statistics.median(rises))


def compile_ms(source: str, path: Path, repeat: int) -> float:
    """Median wall milliseconds of ``compile()`` on the source, in process."""
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        compile(source, str(path), "exec")
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def loaded_modules(src: Path, argv: list[str]) -> list[str]:
    """The ``cobweb`` modules that the call loads, in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(src.parent), PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run([sys.executable, "-c", LOADED, json.dumps(argv)],
                            env=env, capture_output=True, text=True, timeout=600)
    return json.loads(result.stderr.splitlines()[-1])


def module_file(name: str) -> str:
    """The file of a ``cobweb`` module, relative to the package directory."""
    return "__init__.py" if name == "cobweb" else name.split(".", 1)[1] + ".py"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src" / "cobweb",
                        help="the package directory (default: src/cobweb of this tree)")
    parser.add_argument("--repeat", type=int, default=20, help="compiles timed per module")
    parser.add_argument("--children", type=int, default=5,
                        help="fresh interpreters per compile peak")
    parser.add_argument("--calls", help="file of JSON argv arrays, one call a line")
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

    peaks = {}
    print(f"{'module':<16}{'bytes':>8}{'compile ms':>12}{'peak KB':>9}")
    for path in sorted(args.src.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        peaks[path.name] = compile_peak_kb(path, args.children)
        print(f"{path.name:<16}{len(source.encode()):>8}"
              f"{compile_ms(source, path, args.repeat):>12.2f}{peaks[path.name]:>9}")
    for argv in call_list:
        names = loaded_modules(args.src, argv)
        largest = max(names, key=lambda name: peaks[module_file(name)])
        print(f"\n{json.dumps(argv)}\n  loads {', '.join(names)}\n"
              f"  largest compile peak {peaks[module_file(largest)]} KB ({largest})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
