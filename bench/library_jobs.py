"""The in-process workloads: scan, orbits and forest.

Each ``*_jobs(seed)`` function is the workload's set-up: importing this
module imports the program, and the function fills the permutation tables
the jobs use, generates the inputs, loads the golden digests and returns
the job list.
"""

from __future__ import annotations

import random

from severi import degeneration as dg
from severi import hurwitz as hw
from severi import monodromy as mo
from severi import states as st
from severi.profiles import Profile

from . import oracle
from .harness import Job, call, digest, load_golden

# (d, b): 58,752 + 19,200 = 77,952 tuples, about 3 s a pass.  The (5, 4)
# acceptance case takes about 100 s, too long to repeat in every run.
SCAN_CASES = ((4, 4), (5, 2))
# (d, g) -> orbit count: 1,440 + 960 + 19,200 = 21,600 tuples.  The counts
# are the components of the space of covers, one per realizable lattice.
ORBIT_CASES = {(4, 2): 4, (3, 3): 1, (5, 2): 1}
CORPUS_SIZE = 200
SUCCESSORS = "degeneration.successors_general"


def scan_ok(d: int, b: int, report) -> bool:
    return (
        report.ok
        and report.kernel_checked == report.tuples
        and report.tuples == oracle.transitive_tuples(d, b)
        and set(report.census) == set(hw.expected_lattices(d))
    )


def orbits_ok(d: int, g: int, report) -> bool:
    return (
        len(report.tuples) == oracle.transitive_tuples(d, hw.branch_points(g))
        and report.orbit_count == ORBIT_CASES[(d, g)]
        and set(report.lattice_of_orbit) == set(report.census)
        and all(n == 1 for n in report.lattice_of_orbit.values())
    )


def corpus_ok(results) -> bool:
    """Invariants of the seeded corpus, which has no golden: every child is
    valid and one dimension lower, and no term is emitted twice."""
    for s, terms in results:
        dim = st.dimension(s)
        keys = set()
        for t in terms:
            if not st.is_valid(t.child) or st.dimension(t.child) != dim - 1:
                return False
            keys.add((t.kind, t.m, t.tau.entries, st.key_tuple(t.child)))
        if len(keys) != len(terms):
            return False
    return True


def scan_jobs(seed: int) -> list[Job]:
    for d, b in SCAN_CASES:
        mo.perm_table(d)
        oracle.transitive_tuples(d, b)
    return [
        Job(
            name=f"scan-{d}-{b}",
            run=lambda span, d=d, b=b: call(
                span, "hurwitz.scan_monodromy", hw.scan_monodromy, d, b
            ),
            check=lambda r, d=d, b=b: scan_ok(d, b, r),
            params=(d, b),
        )
        for d, b in SCAN_CASES
    ]


def orbits_of(span, d: int, g: int):
    """What ``severi hurwitz orbits`` computes."""
    tuples = call(span, "hurwitz.enumerate_tuples", hw.enumerate_tuples, d, g)
    return call(span, "hurwitz.orbits", hw.orbits, tuples)


def orbit_jobs(seed: int) -> list[Job]:
    for d, g in ORBIT_CASES:
        mo.perm_table(d)
        oracle.transitive_tuples(d, hw.branch_points(g))
    return [
        Job(
            name=f"orbits-{d}-{g}",
            run=lambda span, d=d, g=g: orbits_of(span, d, g),
            check=lambda r, d=d, g=g: orbits_ok(d, g, r),
        )
        for d, g in ORBIT_CASES
    ]


def one_group(d: int, N: int, g: int, size: int, alpha=()) -> st.SeveriState:
    """A state with one transverse moving group 1^size of class L."""
    betas = ((Profile.ones(size), st.symbol("L", size)),)
    return st.SeveriState(d=d, N=N, g=g, alpha=tuple(alpha), betas=betas)


# F1: many cheap degree keys plus normalize (1,913 nodes, 22,782 edges).
F1 = one_group(6, 4, 6, 6)
# F2: the symbolic key's relabel minimisation (4,177 nodes, 11,578 edges).
F2 = one_group(5, 3, 4, 5)
# W: ten simple fixed points, so the 2^|alpha| subset walk (934 terms).
W = one_group(12, 3, 3, 2, alpha=[(1, f"p{i}") for i in range(1, 11)])


def random_partition(rng: random.Random, mass: int, min_parts: int) -> Profile:
    k = rng.randint(min_parts, mass)
    cuts = sorted(rng.sample(range(1, mass), k - 1)) + [mass]
    return Profile(tuple(b - a for a, b in zip([0] + cuts, cuts)))


def random_state(rng: random.Random) -> st.SeveriState:
    """A valid normalized state with d <= 9, 0 <= N <= 6, |g| <= 6 and at
    most three moving groups."""
    d = rng.randint(1, 9)
    N = rng.randint(0, 6)
    g = rng.randint(-6, 6)
    ell = rng.randint(0, min(3, d // 2))
    remaining = d
    betas = []
    for j in range(ell):
        mass = rng.randint(2, remaining - 2 * (ell - j - 1))
        remaining -= mass
        betas.append((random_partition(rng, mass, 2), st.symbol(f"L{j + 1}", mass)))
    alpha = []
    while remaining > 0:
        order = rng.randint(1, remaining)
        alpha.append((order, f"p{len(alpha) + 1}"))
        remaining -= order
    return st.SeveriState(d=d, N=N, g=g, alpha=tuple(alpha), betas=tuple(betas))


def forest_jobs(seed: int) -> list[Job]:
    golden = load_golden()
    rng = random.Random(seed)
    corpus = tuple(random_state(rng) for _ in range(CORPUS_SIZE))
    jobs = [
        Job(
            name=f"forest-{tag}",
            run=lambda span, root=root, mode=mode: call(
                span, "degeneration.build_forest", dg.build_forest, [root], key_mode=mode
            ),
            check=lambda f, tag=tag: digest(f.to_json()) == golden[f"forest-{tag}"],
            params=(tag, root, mode),
        )
        for tag, root, mode in (("f1", F1, st.DEGREE), ("f2", F2, st.SYMBOLIC))
    ]
    jobs.append(
        Job(
            name="successors-w",
            run=lambda span: call(span, SUCCESSORS, dg.successors_general, W),
            check=lambda ts: digest([t.to_json() for t in ts]) == golden["successors-w"],
        )
    )
    jobs.append(
        Job(
            name="successors-corpus",
            run=lambda span: [
                (s, call(span, SUCCESSORS, dg.successors_general, s)) for s in corpus
            ],
            check=corpus_ok,
            params=corpus,
        )
    )
    return jobs
