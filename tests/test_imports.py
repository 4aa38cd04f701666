"""The import surface: a CLI call loads only the modules it runs, and the
package resolves its public names lazily from the module that defines them."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cobweb

SRC = str(Path(cobweb.__file__).resolve().parents[1])

# Runs the code given as argv[1], then reports the loaded cobweb modules as
# the last line of standard error.
PROBE = """
import json, sys
try:
    exec(sys.argv[1])
finally:
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "cobweb")
    print(json.dumps(loaded), file=sys.stderr)
"""

BASE = {"cobweb", "cobweb.cli"}
CORE = {"cobweb", "cobweb.fseq", "cobweb.fnomial"}
COEFFICIENTS = BASE | CORE

CLI_CALLS = [
    (["seq", "check", "--spec", "fibonacci", "--upto", "10"], 0, COEFFICIENTS),
    (["fnomial", "--spec", "fibonacci", "--n", "5", "--k", "2"], 0, COEFFICIENTS),
    (["poset", "pack", "--spec", "natural", "--root-level", "1", "--m", "2"], 1,
     COEFFICIENTS | {"cobweb.poset"}),
    (["poset", "chains", "--spec", "natural", "--levels", "4", "--from-level", "1",
      "--to-level", "3", "--mode", "product"], 0, COEFFICIENTS | {"cobweb.poset"}),
    (["poset", "mobius", "--spec", "fibonacci", "--levels", "4"], 0,
     COEFFICIENTS | {"cobweb.poset", "cobweb.incidence"}),
    (["series", "qbell", "--q", "2", "--n", "3"], 0, COEFFICIENTS | {"cobweb.series"}),
    (["prefab", "laws", "--spec", "fibonacci", "--samples", "50", "--seed", "1"], 0,
     COEFFICIENTS | {"cobweb.prefab"}),
]


def probe(code: str) -> tuple[int, set[str]]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-c", PROBE, code],
        env=env, capture_output=True, text=True, timeout=60,
    )
    return result.returncode, set(json.loads(result.stderr.splitlines()[-1]))


def test_importing_the_cli_loads_no_computing_module():
    assert probe("import cobweb.cli") == (0, BASE)


@pytest.mark.parametrize(
    "argv, code, modules",
    CLI_CALLS,
    ids=[" ".join(w for w in c[0][:2] if not w.startswith("-")) for c in CLI_CALLS],
)
def test_cli_call_loads_only_its_modules(argv, code, modules):
    call = f"from cobweb.cli import main; sys.exit(main({argv!r}))"
    assert probe(call) == (code, modules)


def test_package_attribute_loads_only_its_owner():
    assert probe("import cobweb; cobweb.q_bell") == (0, CORE | {"cobweb.series"})
    # a module stays an attribute of the package, loaded on first access
    assert probe("import cobweb; cobweb.poset.Vertex") == (0, CORE | {"cobweb.poset"})


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
    assert not hasattr(cobweb, "enumerate_copies")


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
