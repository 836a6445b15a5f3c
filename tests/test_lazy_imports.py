"""A cold CLI process imports only the modules its subcommand runs, and the
package's lazy attributes keep the public surface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import severi
from severi import cli
from severi import states as st
from severi import surfaces as sf

ROOT = Path(__file__).parent.parent
FIXTURES = Path(__file__).parent / "fixtures"

# Runs cli.main in a fresh interpreter and prints the modules loaded.
PROBE = """
import contextlib, io, json, sys
from severi import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""


def run_probe(code: str, *args: str) -> tuple[int, set[str]]:
    """The probe's exit code and every module it reports."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    exit_code, modules = json.loads(proc.stdout)
    return exit_code, set(modules)


def loaded_modules(code: str, *args: str) -> tuple[int, set[str]]:
    """The probe's exit code and the severi modules it reports, unprefixed."""
    exit_code, modules = run_probe(code, *args)
    return exit_code, {m.removeprefix("severi.") for m in modules if m.startswith("severi.")}


# Each subcommand's arguments and the severi modules it loads.  Every
# subcommand loads the leaf module base; the genus bound and the monodromy
# factorization load nothing of the other half of the package.
SUBCOMMANDS = {
    "terms": (
        ("terms", "--state", str(FIXTURES / "state_two_groups.json")),
        {"cli", "base", "degeneration", "states", "profiles"},
    ),
    "terms-simple": (
        ("terms", "--state", str(FIXTURES / "state_simple.json")),
        {"cli", "base", "degeneration", "states", "profiles"},
    ),
    "forest": (
        ("forest", "--root", str(FIXTURES / "state_simple.json"), "--floor", "0"),
        {"cli", "base", "degeneration", "states", "profiles"},
    ),
    "dim": (("dim", "--d", "3", "--g", "2", "--b", "3"), {"cli", "base", "surfaces"}),
    "gamma": (
        ("gamma", "--model", "elliptic_times_p1", "--D", "0,1", "--tau", "4,2",
         "--b", "0", "--g", "3"),
        {"cli", "base", "surfaces"},
    ),
    "genusbound": (
        ("genusbound", "--graph", str(FIXTURES / "graph_chain.json"), "--g", "3"),
        {"cli", "base", "dual_graph"},
    ),
    "lattice-counts": (("lattice", "counts", "--d", "6"), {"cli", "base", "lattices"}),
    "lattice-snf": (("lattice", "snf", "--rows", "2,0;0,4"), {"cli", "base", "lattices"}),
    "mono-factor": (
        ("mono", "factor", "--tuple", str(FIXTURES / "tuple_d3.json")),
        {"cli", "base", "lattices", "monodromy"},
    ),
    "hurwitz-orbits": (
        ("hurwitz", "orbits", "--d", "4", "--g", "2"),
        {"cli", "base", "hurwitz", "lattices", "monodromy", "profiles", "words"},
    ),
}


@pytest.mark.parametrize("name", list(SUBCOMMANDS))
def test_subcommand_loads_only_its_modules(name):
    args, expected = SUBCOMMANDS[name]
    assert loaded_modules(PROBE, *args) == (0, expected)


# The records these subcommands build are named tuples, so none of them
# loads dataclasses, which imports inspect and through it ast, dis and
# tokenize.
@pytest.mark.parametrize(
    "name", ["dim", "gamma", "genusbound", "lattice-counts", "lattice-snf", "mono-factor"]
)
def test_light_subcommand_loads_no_dataclasses(name):
    exit_code, modules = run_probe(PROBE, *SUBCOMMANDS[name][0])
    assert exit_code == 0
    assert not modules & {"dataclasses", "inspect"}


def test_base_imports_no_other_module():
    probe = 'import json, sys, severi.base\nprint(json.dumps([0, [m for m in sys.modules if m.startswith("severi.")]]))'
    assert loaded_modules(probe) == (0, {"base"})


def test_import_severi_loads_no_submodule():
    probe = 'import json, sys, severi\nprint(json.dumps([0, [m for m in sys.modules if m.startswith("severi.")]]))'
    assert loaded_modules(probe) == (0, set())


def test_every_public_name_resolves():
    for name in severi.__all__:
        assert getattr(severi, name).__name__ == name
    namespace = {}
    exec("from severi import *", namespace)
    assert set(severi.__all__) <= set(namespace)
    assert isinstance(severi.__version__, str)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        severi.no_such_name
    assert not hasattr(severi, "no_such_name")


def subcommand(name: str):
    (sub,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
    return sub.choices[name]


def option(parser, flag: str):
    (action,) = [a for a in parser._actions if flag in a.option_strings]
    return action


@pytest.mark.parametrize("name", ["terms", "forest"])
def test_key_mode_choices_are_the_state_constants(name):
    action = option(subcommand(name), "--key-mode")
    assert tuple(action.choices) == (st.DEGREE, st.SYMBOLIC)
    assert action.default == st.DEGREE


def test_gamma_model_choices_are_unchanged():
    action = option(subcommand("gamma"), "--model")
    assert list(action.choices) == [
        "blowup_p2", "blowup_quadric", "elliptic_times_p1", "p2", "quadric",
    ]
    for name in action.choices:
        assert isinstance(cli._MODELS[name](sf), sf.SurfaceModel)
