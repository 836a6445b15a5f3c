"""The demos print the same output: each demo's stdout, by sha256 digest,
from a cold ``python -S -W error`` process, so a demo that needs a package
outside the standard library, or raises a warning, fails too.

A change that alters what a demo prints must re-record its digest here and
say why in CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest

from tests.cold import run

DEMOS = Path(__file__).parent.parent / "demos"

STDOUT_SHA256 = {
    "01_profiles_and_dimension_formulas.py": "8fa43a8640d5f5efa96488864b76afbc0485db23da815f722bb0c16097ecb9e8",
    "02_degeneration_forest.py": "2732b948c21da8d6a86a31b83dffacb6d5de91e3b7362209bce3fe8004ac3609",
    "03_central_fiber_genus_bound.py": "d8f30162a2867af3e1e23c2f6a5ba4ed1488d4ae1b8643cd61f5e48f8a6cc25e",
    "04_isogeny_lattices.py": "f2602a71a8bf221eaea4c5d5eecdbf1d913d98a454f3e41612186e625a74a49c",
    "05_monodromy_and_orbits.py": "f2aa0db7f2f74e2ceb3d78a1cb780980f47696895b1a8670d3af48551f1d1886",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_stdout(name):
    proc = run(str(DEMOS / name), text=False)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[name]
