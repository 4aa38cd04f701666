"""The import surface: a CLI call loads only the modules it runs, and the
package resolves its public names lazily from the module that defines them."""

import ast
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

import cobweb

SRC = str(Path(cobweb.__file__).resolve().parents[1])


def load_by_path(name: str, relative: str) -> types.ModuleType:
    """The repository's file at ``relative``, executed as a module named
    ``name`` that no import can find."""
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).resolve().parents[1] / relative
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Runs the code given as argv[1], then reports as the last line of standard
# error the loaded cobweb modules and the standard-library modules that the
# code itself loaded (measured against the modules present before it ran, so
# whatever a site hook imports at start-up does not count).  The probe
# imports ``json`` for its report only after taking that measure.
PROBE = """
import sys
before = set(sys.modules)
try:
    exec(sys.argv[1])
finally:
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "cobweb")
    stdlib = sorted(
        m for m in set(sys.modules) - before
        if m.split(".")[0] in sys.stdlib_module_names
    )
    import json
    print(json.dumps([loaded, stdlib]), file=sys.stderr)
"""

# Standard-library modules that cost start-up time and that no call path
# needs: ``dataclasses`` alone pulls in ``inspect``, ``ast``, ``dis`` and
# ``tokenize``.
SLOW_IMPORTS = {"dataclasses", "inspect"}
# Rational arithmetic, checked module by module: ``fractions`` loads only
# where a value is fractional, and ``decimal`` (which imports ``numbers``)
# only there or where rows are printed through ``Decimal``.  An integral
# call loads none of them.
FRACTIONS = {"fractions", "decimal", "numbers"}  # fractions imports decimal
DECIMAL = {"decimal", "numbers"}
NONE: set[str] = set()
# The argument parser and the translation machinery its messages load: only
# help and usage errors need them, so a valid call loads none of the three.
ARGPARSE = {"argparse", "gettext", "locale"}
# The JSON codec: payload text is written by ``fseq._json_text``, so only a
# file: spec's terms, or a payload string that needs an escape, load it.
JSON = {"json"}

BASE = {"cobweb", "cobweb.cli"}
CORE = {"cobweb", "cobweb.fseq", "cobweb.fnomial"}
COEFFICIENTS = BASE | CORE
# a command's own code is in a private module that only its calls load, and
# a finite sequence's in one that only a custom: or file: spec loads
FINITE = {"cobweb._finite"}
SCANS = COEFFICIENTS | {"cobweb._scans"}
SERIES = COEFFICIENTS | {"cobweb.series"}
# the brute-force routes load only with --oracle
ORACLE = SERIES | {"cobweb._brute"}
# a poset is its level sizes, so no poset call needs the coefficient module
POSET = BASE | {"cobweb.fseq", "cobweb.poset"}
EXPORTS = POSET | {"cobweb._exports"}
# the dense exports are priced by the helper they share; the enumerate walk
# is priced by its own count
DENSE = {"cobweb._dense"}
CHAINS = ["poset", "chains", "--spec", "natural", "--levels", "4", "--from-level", "1",
          "--to-level", "3", "--mode"]
CHAIN_COUNTS = POSET | {"cobweb._chains"}
PACK = ["poset", "pack", "--spec", "natural", "--root-level", "1", "--m", "2"]
# a pack call loads the search, which reads the terms and makes its refusals
PACKING = POSET | {"cobweb._packing"}

# id -> (argv, exit code, cobweb modules loaded, FRACTIONS and JSON modules
# loaded); as valid calls, none of them loads an ARGPARSE module.  A call
# runs in a directory that holds TERMS_FILE.
TERMS_FILE = "terms.json"
CLI_CALLS = {
    # the scans see integral values only, so neither loads a rational module
    "seq check": (["seq", "check", "--spec", "fibonacci", "--upto", "10"], 0, SCANS, NONE),
    "seq check gcd-morphic": (
        ["seq", "check", "--spec", "fibonacci", "--upto", "10", "--gcd-morphic"], 0,
        BASE | {"cobweb.fseq", "cobweb._scans"}, NONE),
    "seq check violation": (["seq", "check", "--spec", "custom:2,3", "--upto", "2"], 1,
                            SCANS | FINITE, FRACTIONS),
    "fnomial": (["fnomial", "--spec", "fibonacci", "--n", "5", "--k", "2"], 0,
                COEFFICIENTS, NONE),
    "fnomial fractional": (["fnomial", "--spec", "custom:2,3", "--n", "2", "--k", "1"], 0,
                           COEFFICIENTS | FINITE, FRACTIONS),
    # only reading a file: spec's terms loads json
    "fnomial file": (["fnomial", "--spec", f"file:{TERMS_FILE}", "--n", "4", "--k", "2"], 0,
                     COEFFICIENTS | FINITE, JSON),
    "fnomial triangle": (["fnomial", "triangle", "--spec", "fibonacci", "--rows", "5"], 0,
                         COEFFICIENTS | {"cobweb._triangle"}, DECIMAL),
    "poset build": (["poset", "build", "--spec", "fibonacci", "--levels", "4"], 0,
                    EXPORTS, NONE),
    "poset dot": (["poset", "dot", "--spec", "natural", "--levels", "3"], 0, EXPORTS | DENSE,
                  NONE),
    "poset pack": (PACK, 1, PACKING, NONE),
    # the quotient 3/2 is the one fraction a packing builds
    "poset pack fractional": (
        ["poset", "pack", "--spec", "custom:2,3", "--root-level", "1", "--m", "1"], 1,
        PACKING | FINITE, FRACTIONS),
    # refused by the copy cap before any quotient is formed
    "poset pack cap-refused": (PACK + ["--cap", "1"], 2, PACKING, NONE),
    "poset chains": (CHAINS + ["product"], 0, CHAIN_COUNTS, NONE),
    # the matrix walk steps through one row with no incidence table
    "poset chains matrix": (CHAINS + ["matrix"], 0, CHAIN_COUNTS, NONE),
    "poset chains enumerate": (CHAINS + ["enumerate"], 0, CHAIN_COUNTS, NONE),
    "poset zeta": (["poset", "zeta", "--spec", "fibonacci", "--levels", "4", "--format", "csv"],
                   0, POSET | DENSE | {"cobweb.incidence"}, NONE),
    "poset mobius": (["poset", "mobius", "--spec", "fibonacci", "--levels", "4"], 0,
                     POSET | DENSE | {"cobweb.incidence"}, NONE),
    "poset dim2": (["poset", "dim2", "--spec", "natural", "--levels", "3"], 0,
                   EXPORTS | DENSE, NONE),
    "series qbell": (["series", "qbell", "--q", "2", "--n", "3"], 0, SERIES, NONE),
    "series qbell oracle": (["series", "qbell", "--q", "2", "--n", "3", "--oracle"], 0,
                            ORACLE, NONE),
    # series coefficients are fractions
    "series expf": (["series", "expf", "--spec", "fibonacci", "--order", "5"], 0,
                    SERIES, FRACTIONS),
    "series enumerator": (["series", "enumerator", "--spec", "natural", "--order", "5"], 0,
                          SERIES, FRACTIONS),
    "series bell": (["series", "bell", "--spec", "natural", "--n", "5"], 0, SERIES, NONE),
    # the partition route sums integers where B_n is integral
    "series bell oracle": (["series", "bell", "--spec", "natural", "--n", "5", "--oracle"], 0,
                           ORACLE, NONE),
    # B_3 = 10/3 over fibonacci
    "series bell fractional": (["series", "bell", "--spec", "fibonacci", "--n", "3"], 0,
                               SERIES, FRACTIONS),
    "prefab compose": (["prefab", "compose", "--op", "odot", "--a", "0,2", "--b", "0,3",
                        "--spec", "fibonacci"], 0, COEFFICIENTS | {"cobweb.prefab"}, NONE),
    # the laws act on layer bounds alone: no coefficient, no rational
    "prefab laws": (["prefab", "laws", "--spec", "fibonacci", "--samples", "50", "--seed", "1"],
                    0, BASE | {"cobweb.fseq", "cobweb.prefab", "cobweb._laws"}, NONE),
}


def probe(code: str) -> tuple[int, set[str], set[str]]:
    """Exit code, loaded cobweb modules, and the ``SLOW_IMPORTS``,
    ``FRACTIONS``, ``ARGPARSE`` and ``JSON`` modules the code loaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-c", PROBE, code],
        env=env, capture_output=True, text=True, timeout=60,
    )
    loaded, stdlib = json.loads(result.stderr.splitlines()[-1])
    reported = SLOW_IMPORTS | FRACTIONS | ARGPARSE | JSON
    return result.returncode, set(loaded), reported & set(stdlib)


def test_importing_the_cli_loads_no_computing_module():
    # nor json: a payload's text is written by fseq, which a call loads
    assert probe("import cobweb.cli") == (0, BASE, set())


@pytest.mark.parametrize("argv, code, modules, stdlib", CLI_CALLS.values(), ids=CLI_CALLS)
def test_cli_call_loads_only_its_modules(argv, code, modules, stdlib, tmp_path, monkeypatch):
    (tmp_path / TERMS_FILE).write_text("[1, 1, 2, 3, 5]", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    call = f"from cobweb.cli import main; sys.exit(main({argv!r}))"
    assert probe(call) == (code, modules, stdlib)


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    (["poset", "pack", "--spec", "natural"], 2),  # missing required options
], ids=["help", "usage error"])
def test_help_and_usage_errors_load_argparse(argv, code):
    call = f"from cobweb.cli import main; sys.exit(main({argv!r}))"
    assert probe(call) == (code, BASE | {"cobweb._parser"}, ARGPARSE)


@pytest.mark.parametrize("a, b, rational", [(6, 3, NONE), (3, 2, FRACTIONS)],
                         ids=["integral", "fractional"])
def test_exact_quotient_loads_rationals_only_on_a_remainder(a, b, rational):
    call = f"from cobweb.fseq import exact_quotient; exact_quotient({a}, {b})"
    assert probe(call) == (0, {"cobweb", "cobweb.fseq"}, rational)


def test_package_attribute_loads_only_its_owner():
    assert probe("import cobweb; cobweb.q_bell") == (0, CORE | {"cobweb.series"}, NONE)
    assert probe("import cobweb; cobweb.q_bell(2, 5)") == (0, CORE | {"cobweb.series"}, NONE)
    # a module stays an attribute of the package, loaded on first access
    assert probe("import cobweb; cobweb.poset.Vertex") == (
        0, {"cobweb", "cobweb.fseq", "cobweb.poset"}, set())


def test_every_public_name_resolves_to_its_definition():
    for name in cobweb.__all__:
        value = getattr(cobweb, name)
        owner = importlib.import_module(value.__module__)
        assert owner.__name__.startswith("cobweb."), name
        assert getattr(owner, name) is value, name


def test_dir_and_star_import_cover_all_public_names():
    assert set(cobweb.__all__) <= set(dir(cobweb))
    namespace: dict = {}
    exec("from cobweb import *", namespace)
    for name in cobweb.__all__:
        assert namespace[name] is getattr(cobweb, name), name


def test_unknown_attribute_is_named_in_the_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cobweb.no_such_name
    # names that moved to tests/oracles.py, were folded into another route
    # or were deleted
    for name in ("enumerate_copies", "f_nomial_from_factorials", "f_nomial_triangle",
                 "maximal_chain_matrix", "count_maximal_chains_matrix", "weight",
                 "count_invertible_matrices", "gl_order", "enumerator_coeff_by_partitions",
                 "count_chains", "covering_matrix", "admissibility_scan", "copies_count",
                 "verify_c2", "C2Record", "q_stirling", "chain_count_matrix",
                 "build_poset", "Dim2Realizer"):
        assert not hasattr(cobweb, name), name


def test_oracles_import_no_private_package_name():
    # the second routes stay independent of the package's internals
    tree = ast.parse(Path(__file__).with_name("oracles.py").read_text(encoding="utf-8"))
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cobweb"
        for alias in node.names
    ]
    assert imported
    assert [pair for pair in imported if pair[1].startswith("_")] == []


def test_src_builds_vertex_records_only_in_cobweb_poset():
    # a poset is its level sizes: no src module but poset names Vertex, and
    # no code outside CobwebPoset's own methods asks it for a list of vertex
    # records
    builders = {"level", "vertices", "hasse_edges"}
    found = []
    for path in sorted(Path(SRC, "cobweb").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        own = {
            id(node)
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) and cls.name == "CobwebPoset"
            for node in ast.walk(cls)
        }
        found += [
            f"{path.name}:{node.lineno} {name}("
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and id(node) not in own
            and (name := getattr(node.func, "attr", getattr(node.func, "id", None))) in builders
        ]
        if path.name != "poset.py":
            found += [
                f"{path.name}:{getattr(node, 'lineno', '')} Vertex"
                for node in ast.walk(tree)
                if "Vertex" in (getattr(node, "id", None), getattr(node, "attr", None),
                                getattr(node, "name", None))
            ]
    assert found == []


def test_oracles_load_without_a_module_entry():
    # the benchmark's checker executes tests/oracles.py this way
    oracles = load_by_path("standalone_oracles", "tests/oracles.py")
    P = oracles.build_poset(cobweb.parse_sequence("natural"), 3)
    copies = oracles.enumerate_copies(P, cobweb.Vertex(1, 1), 2)
    assert (len(copies), oracles.brute_max_packing(copies)) == (6, 2)


# One call per command and the AST nodes it may compile, summed over the
# cobweb modules it loads: the figure when the ceiling was set, plus 5%.
# Where bytecode is not cached, every call compiles each module it loads
# from source, so these sums price a call's start-up (about 2.5 us a node on
# a 2-vCPU x86 VM).
COMPILE_BUDGET = {
    "seq check": ("seq check --spec fibonacci --upto 10", 4788),
    "fnomial": ("fnomial --spec fibonacci --n 5 --k 2", 3837),
    "fnomial triangle": ("fnomial triangle --spec fibonacci --rows 5", 4198),
    "poset build": ("poset build --spec natural --levels 4", 4209),
    "poset dot": ("poset dot --spec natural --levels 3", 4426),
    "poset chains": (
        "poset chains --spec natural --levels 4 --from-level 1 --to-level 3 --mode enumerate",
        4252),
    "poset pack": ("poset pack --spec natural --root-level 1 --m 2", 5131),
    "poset zeta": ("poset zeta --spec natural --levels 3", 4484),
    "poset mobius": ("poset mobius --spec natural --levels 3 --format csv", 4484),
    "poset dim2": ("poset dim2 --spec natural --levels 3", 4426),
    "prefab compose": ("prefab compose --op odot --a 0,2 --b 0,3 --spec fibonacci", 4656),
    "prefab laws": ("prefab laws --spec natural --samples 50 --seed 1", 5332),
    "series qbell": ("series qbell --q 2 --n 3", 5156),
    "series qbell oracle": ("series qbell --q 2 --n 3 --oracle", 5926),
    "series expf": ("series expf --spec natural --order 5", 5156),
}


def ast_nodes(module: str) -> int:
    """The nodes of a cobweb module's syntax tree: what compiling it walks."""
    path = Path(SRC, *module.split(".")[:2])
    path = path / "__init__.py" if module == "cobweb" else path.with_suffix(".py")
    return sum(1 for _ in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))


@pytest.mark.parametrize("argv, ceiling", COMPILE_BUDGET.values(), ids=COMPILE_BUDGET)
def test_a_call_compiles_no_more_than_its_budget(argv, ceiling):
    code, loaded, _ = probe(f"from cobweb.cli import main; sys.exit(main({argv.split()!r}))")
    nodes = sum(map(ast_nodes, loaded))
    assert code in (0, 1)
    assert nodes <= ceiling, (
        f"`cobweb {argv}` compiles {nodes} AST nodes in {sorted(loaded)}, past its budget "
        f"of {ceiling}: a module this call loads has grown.  Move what only some calls run "
        "into a private module that they alone load (README, Start-up), or raise the "
        "budget and say why in CHANGES.md")


# Runs one cli.main call per argv line of argv[2] with the benchmark's tracer
# installed (perfbench/ is argv[1]), then prints the exit codes, the
# tracer's counters and the packs, solved packs and refusal time that
# ``inproc.layer_totals`` finds.
TRACED = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import inproc, tracing
from cobweb import cli
tracer = tracing.Tracer()
tracing.install(tracer)
codes = []
for line in sys.argv[2].splitlines():
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(cli.main(line.split()))
totals = inproc.layer_totals(tracer)
print(json.dumps([codes, dict(tracer.counters),
                  [totals[key] for key in ("packs", "packs_solved", "refusal_ns")]]))
"""
TRACED_CALLS = [
    "seq check --spec fibonacci --upto 12",
    "fnomial --spec fibonacci --n 9 --k 4",
    "fnomial triangle --spec natural --rows 6 --format csv",
    "poset build --spec natural --levels 4",
    "poset dot --spec natural --levels 3",
    "poset chains --spec natural --levels 4 --from-level 0 --to-level 4 --mode enumerate",
    "poset pack --spec natural --root-level 1 --m 2",
    "poset pack --spec even --root-level 1 --m 2 --cap 10",
    "poset zeta --spec fibonacci --levels 4",
    "poset mobius --spec natural --levels 3 --format csv",
    "poset dim2 --spec natural --levels 3",
    "prefab compose --op odot --a 0,2 --b 0,3 --spec fibonacci",
    "prefab laws --spec natural --samples 40 --seed 3",
    "series expf --spec natural --order 6",
    "series enumerator --spec fibonacci --order 5",
    "series bell --spec natural --n 6 --oracle",
    "series qbell --q 2 --n 3 --oracle",
]


def test_the_benchmark_tracer_counts_one_call_of_every_command():
    # a public function whose body moved to a private module keeps an entry
    # in its layer module: re-exported from the private module, its layer
    # would be unknown to ``layer_totals`` (a KeyError), and a body that
    # handlers call directly would leave its hook counting nothing
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    perfbench = str(Path(__file__).resolve().parents[1] / "perfbench")
    result = subprocess.run(
        [sys.executable, "-c", TRACED, perfbench, "\n".join(TRACED_CALLS)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    codes, counters, (packs, packs_solved, refusal_ns) = json.loads(result.stdout)
    # natural's 2-packing is not tight, and even's copies pass the cap of 10
    assert codes == [0] * 6 + [1, 2] + [0] * 9
    assert counters == {
        "fseq.pairs_scanned": 169, "fnomial.coefficients": 2, "incidence.entries": 113,
        "poset.chains_walked": 24, "prefab.samples": 40, "series.coefficients": 13,
    }
    # the cap refuses inside the search's span, where the tracer times refusals
    assert (packs, packs_solved) == (2, 1) and refusal_ns > 0


def test_the_benchmark_tracer_finds_every_method_it_wraps():
    # perfbench/tracing.py replaces these methods in their class's own dict;
    # a name that left the dict, or moved to a base class, fails its install
    tracing = load_by_path("bench_tracing", "perfbench/tracing.py")
    missing = [
        f"{module}.{cls}.{method}"
        for table in (tracing.SERIALIZER_METHODS, tracing.LAYER_METHODS)
        for (module, cls), methods in table.items()
        for method in methods
        if method not in vars(getattr(importlib.import_module(f"cobweb.{module}"), cls))
    ]
    assert missing == []


def test_every_public_function_of_a_layer_module_is_defined_in_a_layer():
    # perfbench/tracing.install wraps each public function bound in these
    # module namespaces under the layer named by the module that defines it;
    # a function defined in a private module (say ``_dense``) and bound here
    # under a public name would be booked to a layer that no traced run
    # reports, however rarely a call enters it
    tracing = load_by_path("bench_tracing", "perfbench/tracing.py")
    misplaced = [
        f"cobweb.{module}.{name} is defined in {fn.__module__}"
        for module in tracing.MODULES + ("cli",)
        for name, fn in vars(importlib.import_module(f"cobweb.{module}")).items()
        if not name.startswith("_") and isinstance(fn, types.FunctionType)
        and fn.__module__.startswith("cobweb.")
        and fn.__module__.split(".", 1)[1] not in tracing.LAYERS
    ]
    assert misplaced == [], (
        f"{misplaced}: the benchmark's tracer would book these calls to a layer that "
        "perfbench/inproc.layer_totals does not list, and the traced run would fail with "
        "a KeyError there.  Define the function in its layer module, or bind it under a "
        "private name")


def test_every_private_module_level_name_in_src_is_used():
    # a private helper, class or constant that no code in src/ names again
    # (outside its own definition) is dead: a change that leaves one behind
    # fails here
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(SRC, "cobweb").glob("*.py"))]
    definitions = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.append((node.name, node))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                definitions += [(t.id, node) for t in targets if isinstance(t, ast.Name)]
    private = [(name, node) for name, node in definitions
               if name.startswith("_") and not name.startswith("__")]
    assert len(private) > 40

    def references(node):
        """Each name that code under ``node`` reads: a name, an attribute, an
        imported name or the function of a "module:function" handler string
        of ``cli.COMMANDS``."""
        for child in ast.walk(node):
            if isinstance(child, ast.Name) and not isinstance(child.ctx, ast.Store):
                yield child.id
            elif isinstance(child, ast.Attribute):
                yield child.attr
            elif isinstance(child, ast.alias):
                yield child.name
            elif isinstance(child, ast.Constant) and isinstance(child.value, str):
                if handler := re.fullmatch(r"_?[a-z]+:(\w+)", child.value):
                    yield handler[1]

    everywhere = Counter(name for tree in trees for name in references(tree))
    unused = [name for name, node in private
              if everywhere[name] == Counter(references(node))[name]]
    assert unused == []


# Functions and methods under src/cobweb that no ``cli.main`` call enters,
# each with its reason; every other one must be entered by a call of
# ``test_every_function_in_src_is_entered_by_a_command``.
UNREACHED = {
    "cli.run": "the process entry; the subprocess tests run it",
    "__init__.__getattr__": "the package's lazy names, read by library callers",
    "__init__.__dir__": "the package's lazy names, read by library callers",
    "fseq.__getattr__": "the scan reports, read from _scans by library callers",
    "poset.__getattr__": "the packing record, read from _packing by library callers",
    "prefab.__getattr__": "the law checker's records, read from _laws by library callers",
    "series.__getattr__": "the subspace listing, read from _brute by library callers",
    "fseq._Frozen.__init_subclass__": "runs when a record class is defined, at import",
    "fseq._Frozen.__hash__": "record hashing, for library callers",
    "fseq._Frozen.__setattr__": "refuses an assignment to a record field",
    "fseq._Frozen.__delattr__": "refuses a deletion of a record field",
    "fseq._Frozen.__repr__": "a record's repr, for library callers",
    "fseq.FSequence.__repr__": "a record's repr, for library callers",
    "poset.CobwebPoset.__repr__": "a record's repr, for library callers",
    "poset.Vertex.__str__": "a vertex record's label; the oracles' DOT text and dim2 labels use it",
}


def test_every_function_in_src_is_entered_by_a_command(tmp_path):
    # the reach counterpart of the private-name check above: a function or
    # method that no call of README's examples or of the generated calls
    # enters, and that UNREACHED does not name, is dead, so a change that
    # leaves one behind fails here
    import contextlib
    import io
    import random

    from cobweb import cli
    from test_cli import _generated_call
    from test_readme import cli_examples

    defined = {}  # (file, first line) -> "module.Class.function"

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = f"{prefix}{child.name}"
                if isinstance(child, ast.FunctionDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    defined[(str(path), first)] = name
                visit(child, path, f"{name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(Path(SRC, "cobweb").glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, f"{path.stem}.")
    tracing = load_by_path("bench_tracing", "perfbench/tracing.py")
    # the methods the benchmark's tracer wraps, named by the module that
    # defines their class, and the two its matrix hook reads
    bound = {
        f"{getattr(importlib.import_module(f'cobweb.{module}'), cls).__module__[7:]}"
        f".{cls}.{method}"
        for table in (tracing.SERIALIZER_METHODS, tracing.LAYER_METHODS)
        for (module, cls), methods in table.items()
        for method in methods
    } | {"incidence.IncidenceMatrix.dim", "poset.CobwebPoset.vertex_count"}
    exempt = set(UNREACHED) | bound
    assert exempt <= set(defined.values())

    rng = random.Random(1)
    calls = [argv for argv, _, _ in cli_examples()]
    calls += [_generated_call(rng, str(tmp_path / "missing.txt")) for _ in range(300)]
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for argv in calls:
            sys.setprofile(profile)
            try:
                cli.main(argv)
            except SystemExit:
                pass
            finally:
                sys.setprofile(None)
            sink.seek(0)
            sink.truncate()
    reached = {
        defined.get((str(Path(code.co_filename).resolve()), code.co_firstlineno))
        for code in entered
    }
    assert sorted(set(defined.values()) - reached - exempt) == []


def test_no_package_module_but_cli_imports_the_cli():
    # a handler that imported the front end would compile it a second time,
    # beside the ``__main__`` copy that ``python -m cobweb.cli`` runs
    found = []
    for path in sorted(Path(SRC, "cobweb").glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                package = "cobweb" if node.level else ""
                module = ".".join(filter(None, (package, node.module)))
                names = [module, *(f"{module}.{alias.name}" for alias in node.names)]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names if name == "cobweb.cli"]
    assert found == []


def test_every_command_handler_lives_in_the_module_its_row_names():
    # cli.py holds the table and the writer; each handler is compiled only by
    # the calls that load the module its row names
    from cobweb import cli

    for (group, name), (_help, handler, _options) in cli.COMMANDS.items():
        if handler is not None:
            module_name, function = handler.split(":")
            module = importlib.import_module(f"cobweb.{module_name}")
            assert getattr(module, function).__module__ == module.__name__ != "cobweb.cli", (
                group, name)
