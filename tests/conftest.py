import random

import pytest

from severi.profiles import Profile
from severi.states import SeveriState, symbol


def random_partition(rng: random.Random, mass: int, min_parts: int = 1) -> Profile:
    k = rng.randint(min_parts, mass)
    cuts = sorted(rng.sample(range(1, mass), k - 1)) if k > 1 else []
    parts = []
    prev = 0
    for c in cuts + [mass]:
        parts.append(c - prev)
        prev = c
    return Profile(tuple(parts))


def random_normalized_state(rng: random.Random) -> SeveriState:
    """A valid normalized state with d <= 6, N <= 6, |g| <= 6, <= 3 groups."""
    d = rng.randint(1, 6)
    N = rng.randint(0, 6)
    g = rng.randint(-6, 6)
    ell = rng.randint(0, min(3, d // 2))
    masses = []
    remaining = d
    for j in range(ell):
        hi = remaining - 2 * (ell - j - 1)
        mass = rng.randint(2, hi)
        masses.append(mass)
        remaining -= mass
    alpha = []
    i = 1
    while remaining > 0:
        order = rng.randint(1, remaining)
        alpha.append((order, f"p{i}"))
        i += 1
        remaining -= order
    betas = tuple(
        (random_partition(rng, mass, min_parts=2), symbol(f"L{j+1}", mass))
        for j, mass in enumerate(masses)
    )
    return SeveriState(d=d, N=N, g=g, alpha=tuple(alpha), betas=betas)


@pytest.fixture
def rng():
    return random.Random(20240 + 817)

