"""A cold CLI process imports only the modules its subcommand runs, and the
package's lazy attributes keep the public surface."""

import functools
import json
import sys

import pytest

import severi
from bench import cli_jobs as cj
from severi import cli
from severi import states as st
from severi import surfaces as sf
from tests.cold import run

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
    proc = run("-c", code, *args)
    assert proc.returncode == 0, proc.stderr
    exit_code, modules = json.loads(proc.stdout)
    return exit_code, set(modules)


def loaded_modules(code: str, *args: str) -> tuple[int, set[str]]:
    """The probe's exit code and the severi modules it reports, unprefixed."""
    exit_code, modules = run_probe(code, *args)
    return exit_code, {m.removeprefix("severi.") for m in modules if m.startswith("severi.")}


# The severi modules each probe loads, named as in bench.cli_jobs, whose
# INVOCATIONS give the arguments.  Every subcommand loads the leaf module
# base; the genus bound and the monodromy factorization load nothing of the
# other half of the package.
SUBCOMMANDS = {
    "terms-simple": {"cli", "base", "degeneration", "states", "profiles"},
    "terms-two-groups": {"cli", "base", "degeneration", "states", "profiles"},
    "forest": {"cli", "base", "degeneration", "states", "profiles"},
    "dim": {"cli", "base", "surfaces"},
    "gamma": {"cli", "base", "surfaces"},
    "genusbound": {"cli", "base", "dual_graph"},
    "lattice-counts": {"cli", "base", "lattices"},
    "mono-factor": {"cli", "base", "lattices", "monodromy"},
    "hurwitz-orbits": {"cli", "base", "hurwitz", "lattices", "monodromy", "profiles", "words"},
    "lattice-snf": {"cli", "base", "lattices"},
}
# every acceptance invocation is probed, and one more, its arguments here
PROBES = [*cj.INVOCATIONS, "lattice-snf"]
LATTICE_SNF = ("lattice", "snf", "--rows", "2,0;0,4")


@functools.cache
def subcommand_modules(name: str) -> frozenset[str]:
    """Every module the subcommand's probe reports: one process per
    subcommand serves each test below."""
    argv = LATTICE_SNF if name == "lattice-snf" else cj.argv(name)
    exit_code, modules = run_probe(PROBE, *argv)
    assert exit_code == 0
    return frozenset(modules)


@pytest.mark.parametrize("name", PROBES)
def test_subcommand_loads_only_its_modules(name):
    loaded = {m.removeprefix("severi.") for m in subcommand_modules(name) if m.startswith("severi.")}
    assert loaded == SUBCOMMANDS[name]


@pytest.mark.parametrize("name", PROBES)
def test_subcommand_loads_only_the_standard_library(name):
    # the probe runs under -S, which skips the site module, whose .pth files
    # may load third-party code: what is left is the probe, the package and
    # the standard library
    others = {
        m for m in subcommand_modules(name)
        if m != "__main__" and m.split(".")[0] not in ("severi", *sys.stdlib_module_names)
    }
    assert others == set()


# The records these subcommands build are named tuples, so none of them
# loads dataclasses, which imports inspect and through it ast, dis and
# tokenize.
@pytest.mark.parametrize(
    "name", ["dim", "gamma", "genusbound", "lattice-counts", "lattice-snf", "mono-factor"]
)
def test_light_subcommand_loads_no_dataclasses(name):
    assert not subcommand_modules(name) & {"dataclasses", "inspect"}


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
