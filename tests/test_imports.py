"""The import surface: a CLI call loads only the modules it runs, and the
package resolves its public names lazily from the module that defines them."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import cobweb

SRC = str(Path(cobweb.__file__).resolve().parents[1])

# Runs the code given as argv[1], then reports as the last line of standard
# error the loaded cobweb modules and the standard-library modules that the
# code itself loaded (measured against the modules present before it ran, so
# whatever a site hook imports at start-up does not count).
PROBE = """
import json, sys
before = set(sys.modules)
try:
    exec(sys.argv[1])
finally:
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "cobweb")
    stdlib = sorted(
        m for m in set(sys.modules) - before
        if m.split(".")[0] in sys.stdlib_module_names
    )
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

BASE = {"cobweb", "cobweb.cli"}
CORE = {"cobweb", "cobweb.fseq", "cobweb.fnomial"}
COEFFICIENTS = BASE | CORE
SERIES = COEFFICIENTS | {"cobweb.series"}
# a poset is its level sizes, so no poset call needs the coefficient module
POSET = BASE | {"cobweb.fseq", "cobweb.poset"}
CHAINS = ["poset", "chains", "--spec", "natural", "--levels", "4", "--from-level", "1",
          "--to-level", "3", "--mode"]
PACK = ["poset", "pack", "--spec", "natural", "--root-level", "1", "--m", "2"]
# a pack call checks the copy shape and cap with the search's own helpers
PACKING = POSET | {"cobweb._packing"}

# id -> (argv, exit code, cobweb modules loaded, FRACTIONS modules loaded); as
# valid calls, none of them loads an ARGPARSE module
CLI_CALLS = {
    # the scans see integral values only, so neither loads a rational module
    "seq check": (["seq", "check", "--spec", "fibonacci", "--upto", "10"], 0,
                  COEFFICIENTS, NONE),
    "seq check gcd-morphic": (
        ["seq", "check", "--spec", "fibonacci", "--upto", "10", "--gcd-morphic"], 0,
        BASE | {"cobweb.fseq"}, NONE),
    "seq check violation": (["seq", "check", "--spec", "custom:2,3", "--upto", "2"], 1,
                            COEFFICIENTS, FRACTIONS),
    "fnomial": (["fnomial", "--spec", "fibonacci", "--n", "5", "--k", "2"], 0,
                COEFFICIENTS, NONE),
    "fnomial fractional": (["fnomial", "--spec", "custom:2,3", "--n", "2", "--k", "1"], 0,
                           COEFFICIENTS, FRACTIONS),
    "fnomial triangle": (["fnomial", "triangle", "--spec", "fibonacci", "--rows", "5"], 0,
                         COEFFICIENTS, DECIMAL),
    "poset build": (["poset", "build", "--spec", "fibonacci", "--levels", "4"], 0,
                    POSET, NONE),
    "poset dot": (["poset", "dot", "--spec", "natural", "--levels", "3"], 0, POSET, NONE),
    "poset pack": (PACK, 1, PACKING, NONE),
    # the quotient 3/2 is the one fraction a packing builds
    "poset pack fractional": (
        ["poset", "pack", "--spec", "custom:2,3", "--root-level", "1", "--m", "1"], 1,
        PACKING, FRACTIONS),
    # refused by the copy cap before any quotient is formed
    "poset pack cap-refused": (PACK + ["--cap", "1"], 2, PACKING, NONE),
    "poset chains": (CHAINS + ["product"], 0, POSET, NONE),
    # the matrix walk steps through one row with no incidence table
    "poset chains matrix": (CHAINS + ["matrix"], 0, POSET, NONE),
    "poset chains enumerate": (CHAINS + ["enumerate"], 0, POSET, NONE),
    "poset zeta": (["poset", "zeta", "--spec", "fibonacci", "--levels", "4", "--format", "csv"],
                   0, POSET | {"cobweb.incidence"}, NONE),
    "poset mobius": (["poset", "mobius", "--spec", "fibonacci", "--levels", "4"], 0,
                     POSET | {"cobweb.incidence"}, NONE),
    "poset dim2": (["poset", "dim2", "--spec", "natural", "--levels", "3"], 0, POSET, NONE),
    "series qbell": (["series", "qbell", "--q", "2", "--n", "3"], 0, SERIES, NONE),
    # series coefficients are fractions
    "series expf": (["series", "expf", "--spec", "fibonacci", "--order", "5"], 0,
                    SERIES, FRACTIONS),
    "series enumerator": (["series", "enumerator", "--spec", "natural", "--order", "5"], 0,
                          SERIES, FRACTIONS),
    "series bell": (["series", "bell", "--spec", "natural", "--n", "5"], 0, SERIES, NONE),
    # the partition route sums integers where B_n is integral
    "series bell oracle": (["series", "bell", "--spec", "natural", "--n", "5", "--oracle"], 0,
                           SERIES, NONE),
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
    ``FRACTIONS`` and ``ARGPARSE`` modules the code loaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-c", PROBE, code],
        env=env, capture_output=True, text=True, timeout=60,
    )
    loaded, stdlib = json.loads(result.stderr.splitlines()[-1])
    return result.returncode, set(loaded), (SLOW_IMPORTS | FRACTIONS | ARGPARSE) & set(stdlib)


def test_importing_the_cli_loads_no_computing_module():
    assert probe("import cobweb.cli") == (0, BASE, set())


@pytest.mark.parametrize("argv, code, modules, rational", CLI_CALLS.values(), ids=CLI_CALLS)
def test_cli_call_loads_only_its_modules(argv, code, modules, rational):
    call = f"from cobweb.cli import main; sys.exit(main({argv!r}))"
    assert probe(call) == (code, modules, rational)


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    (["poset", "pack", "--spec", "natural"], 2),  # missing required options
], ids=["help", "usage error"])
def test_help_and_usage_errors_load_argparse(argv, code):
    call = f"from cobweb.cli import main; sys.exit(main({argv!r}))"
    assert probe(call) == (code, BASE, ARGPARSE)


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
    # names that moved to tests/oracles.py or were folded into another route
    for name in ("enumerate_copies", "f_nomial_from_factorials", "f_nomial_triangle",
                 "maximal_chain_matrix", "count_maximal_chains_matrix", "weight",
                 "count_invertible_matrices", "gl_order", "enumerator_coeff_by_partitions",
                 "count_chains", "covering_matrix"):
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
    spec = importlib.util.spec_from_file_location(
        "standalone_oracles", Path(__file__).with_name("oracles.py")
    )
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    P = cobweb.build_poset(cobweb.parse_sequence("natural"), 3)
    copies = oracles.enumerate_copies(P, cobweb.Vertex(1, 1), 2)
    assert (len(copies), oracles.brute_max_packing(copies)) == (6, 2)


def test_the_benchmark_tracer_finds_every_method_it_wraps():
    # perfbench/tracing.py replaces these methods in their class's own dict;
    # a name that left the dict, or moved to a base class, fails its install
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module}.{cls}.{method}"
        for table in (tracing.SERIALIZER_METHODS, tracing.LAYER_METHODS)
        for (module, cls), methods in table.items()
        for method in methods
        if method not in vars(getattr(importlib.import_module(f"cobweb.{module}"), cls))
    ]
    assert missing == []


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
        """Each name that code under ``node`` reads: a name, an attribute or
        an imported name."""
        for child in ast.walk(node):
            if isinstance(child, ast.Name) and not isinstance(child.ctx, ast.Store):
                yield child.id
            elif isinstance(child, ast.Attribute):
                yield child.attr
            elif isinstance(child, ast.alias):
                yield child.name

    everywhere = Counter(name for tree in trees for name in references(tree))
    unused = [name for name, node in private
              if everywhere[name] == Counter(references(node))[name]]
    assert unused == []


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


def test_every_command_handler_lives_in_its_groups_module():
    # cli.py holds the table, the parser and the writer; each handler is
    # compiled only by the calls of its group, in the module it drives
    from cobweb import cli

    for (group, name), (_help, handler, _options) in cli.COMMANDS.items():
        if handler is not None:
            module = importlib.import_module(f"cobweb.{cli.MODULES[group]}")
            assert handler(module).__module__ == module.__name__ != "cobweb.cli", (group, name)
