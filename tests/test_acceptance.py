"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The exhaustive
monodromy scans (criteria 5-7) share one streaming pass per (d, b) via a
module-scoped fixture; together they stay inside the five-minute budget.
"""

import hashlib
import json
import math
import random
import time
from pathlib import Path

import pytest

from severi import degeneration as dg
from severi import hurwitz as hw
from severi import lattices as lt
from severi import surfaces as sf
from severi.states import dimension
from tests.cold import run_cli
from tests.conftest import random_normalized_state
from tests.test_lattices import sigma_oracle

FIXTURES = Path(__file__).parent / "fixtures"

SCAN_CASES = [(2, 2), (2, 4), (3, 2), (3, 4), (4, 2), (4, 4), (5, 2), (5, 4)]


def _report(n: int, desc: str) -> None:
    print(f"ACCEPTANCE {n:02d} PASS: {desc}")


@pytest.fixture(scope="module")
def scan_reports():
    """One exhaustive streaming scan per (d, b) with d <= 5, b <= 4.

    Products of an odd number of transpositions are odd permutations and
    can never equal a commutator, so only even b occurs.
    """
    t0 = time.time()
    reports = {case: hw.scan_monodromy(*case) for case in SCAN_CASES}
    reports["elapsed"] = time.time() - t0
    return reports


def test_criterion_01_dimension_drop():
    rng = random.Random(424242)
    t0 = time.time()
    states = 0
    terms = 0
    while states < 500:
        s = random_normalized_state(rng)
        parent = dimension(s)
        for term in dg.successors_general(s):
            assert dimension(term.child) == parent - 1
            terms += 1
        states += 1
    elapsed = time.time() - t0
    assert elapsed < 10.0, f"dimension-drop suite took {elapsed:.1f}s"
    _report(1, f"dimension drops by exactly 1 on {terms} terms from {states} states ({elapsed:.1f}s)")


def test_criterion_02_worked_gamma_values():
    product = sf.elliptic_times_p1()
    bl_quadric = sf.blow_up(sf.quadric())
    bl_plane = sf.blow_up(sf.projective_plane())
    for d in range(1, 11):
        for N in range(1, 11):
            for g in range(1, 11):
                assert sf.gamma(product.divisor(e=1), product.divisor(f=d, e=N), 0) == d
                assert (
                    sf.gamma(
                        bl_quadric.divisor(f2=4),
                        bl_quadric.divisor(f1=N, f2=1, e=-1),
                        2 * N + g + 1,
                    )
                    == g + 2
                )
                assert (
                    sf.gamma(
                        bl_plane.divisor(h=6),
                        bl_plane.divisor(h=N, e=-1),
                        3 * N + g + 2,
                    )
                    == g + 1
                )
    _report(2, "gamma reproduces d, g+2 and g+1 on the three models for all 1<=N,d,g<=10")


def test_criterion_03_lattice_counts():
    for e in range(1, 201):
        assert len(lt.sublattices(e)) == sigma_oracle(e)
    for d in range(2, 101):
        brute = sum(sigma_oracle(e) for e in range(1, d) if d % e == 0)
        assert lt.hurwitz_component_count(d) == brute
    _report(3, "sublattice counts equal sigma(e) for e<=200; component counts match for d<=100")


def test_criterion_04_constructive_lemma():
    t0 = time.time()

    def brute_force_exists(ltilde, D):
        for lhat in lt.sublattices(D):
            if not lt.is_full(lt.lattice_sum(lhat, ltilde)):
                continue
            for v in lhat.residues():
                if v == (0, 0):
                    continue
                if lt.is_full(lt.hnf(list(lhat.rows()) + [v])):
                    return True
        return False

    checked = 0
    for index in range(1, 37):
        for ltilde in lt.sublattices(index):
            m = lt.m_invariant(ltilde)
            if m > 6:
                continue
            for D in range(2, 7):
                result = lt.construct_hat(ltilde, D)
                feasible = math.gcd(D, m) == 1
                assert (result is not None) == feasible
                assert brute_force_exists(ltilde, D) == feasible
                if result is not None:
                    lhat, v = result
                    assert lhat.index == D
                    assert lt.is_full(lt.lattice_sum(lhat, ltilde))
                    assert lt.is_full(lt.hnf(list(lhat.rows()) + [v]))
                checked += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"constructive lemma suite took {elapsed:.1f}s"
    _report(4, f"construct_hat feasibility matches gcd(D,m)=1 and brute force on {checked} cases ({elapsed:.1f}s)")


def test_criterion_05_full_monodromy_equivalence(scan_reports):
    total = 0
    for case in SCAN_CASES:
        rep = scan_reports[case]
        assert rep.equivalence_failures == 0, f"equivalence fails at {case}"
        total += rep.tuples
    assert scan_reports["elapsed"] < 300.0
    _report(
        5,
        f"primitive iff full monodromy on all {total} tuples with d<=5, b<=4 "
        f"({scan_reports['elapsed']:.0f}s for the shared scans)",
    )


def test_criterion_06_kernel_order(scan_reports):
    total = 0
    for case in SCAN_CASES:
        rep = scan_reports[case]
        assert rep.kernel_failures == 0, f"kernel order fails at {case}"
        assert rep.kernel_checked == rep.tuples
        total += rep.kernel_checked
    _report(6, f"|G| = (dtilde!)^e * |quotient| on all {total} tuples with d<=5, b<=4")


def test_criterion_07_block_pair_transitivity(scan_reports):
    total = 0
    for case in SCAN_CASES:
        rep = scan_reports[case]
        assert rep.blockpair_failures == 0, f"block pairs fail at {case}"
        total += rep.tuples
    _report(7, f"block-pair transitivity holds on all {total} tuples with d<=5, b<=4")


def test_criterion_08_orbit_calibration():
    t0 = time.time()
    expected = {(2, 2): 1, (2, 3): 1, (3, 2): 1, (4, 2): 4}
    for (d, g), count in expected.items():
        tuples = hw.enumerate_tuples(d, g)
        report = hw.orbits(tuples)
        assert report.orbit_count == count, f"orbits({d},{g}) = {report.orbit_count} != {count}"
        realized = set(report.census)
        assert realized == set(hw.expected_lattices(d)), f"census mismatch at ({d},{g})"
        # one orbit per realized lattice
        assert all(n == 1 for n in report.lattice_of_orbit.values())
    elapsed = time.time() - t0
    assert elapsed < 600.0
    _report(8, f"orbit counts 1,1,1,4 and census lattices match for the calibration grid ({elapsed:.1f}s)")


def test_criterion_09_genus_oracle():
    from severi.dual_graph import arithmetic_genus, compute_T, genus_bound_check, violations
    from tests.test_dual_graph import nodal_genus_oracle, random_fiber

    rng = random.Random(777)
    produced = 0
    while produced < 1000:
        gr = random_fiber(rng)
        if violations(gr):
            continue
        produced += 1
        g = arithmetic_genus(gr)
        assert g == nodal_genus_oracle(gr)
        rep = genus_bound_check(gr, g)
        assert rep.holds
        if rep.equality:
            # brute-force condition checks, written out directly
            assert all(ge == 1 for ge, _ in gr.e_parts)
            for i, gz in enumerate(gr.z_parts):
                assert gz == 0 and gr.degree(f"Z{i}") == 2
            # every connected piece of the contracted locus meets X once
            # and the dominating curve once
            z_nodes = {f"Z{i}" for i in range(len(gr.z_parts))}
            assignment = {z: z for z in z_nodes}
            for a, b in gr.edges:
                if a in z_nodes and b in z_nodes:
                    rep_a = assignment[a]
                    for k, v in assignment.items():
                        if v == rep_a:
                            assignment[k] = assignment[b]
            for comp_rep in set(assignment.values()):
                comp = {z for z, v in assignment.items() if v == comp_rep}
                x_hits = sum(
                    1 for a, b in gr.edges
                    if (a == "X" and b in comp) or (b == "X" and a in comp)
                )
                e_hits = sum(
                    1 for a, b in gr.edges
                    if (a.startswith("E") and b in comp) or (b.startswith("E") and a in comp)
                )
                assert x_hits == 1 and e_hits == 1
            assert all(ok for _, ok in rep.conditions)
        else:
            assert gr.x_genus + compute_T(gr) < g
    _report(9, "arithmetic genus matches the nodal-curve oracle on 1000 graphs; equality diagnostics agree")


def test_criterion_10_cli_determinism():
    # the benchmark's goldens, read and never written; its inputs are
    # byte-identical copies of these fixtures
    golden = json.loads((Path(__file__).parent.parent / "bench" / "golden.json").read_text())
    invocations = {
        "terms-simple": ("terms", "--state", str(FIXTURES / "state_simple.json")),
        "terms-two-groups": ("terms", "--state", str(FIXTURES / "state_two_groups.json")),
        "forest": ("forest", "--root", str(FIXTURES / "state_simple.json"), "--floor", "0"),
        "dim": ("dim", "--d", "3", "--g", "2", "--b", "3"),
        "gamma": ("gamma", "--model", "elliptic_times_p1", "--D", "0,1", "--tau", "4,2", "--b", "0", "--g", "3"),
        "genusbound": ("genusbound", "--graph", str(FIXTURES / "graph_chain.json"), "--g", "3"),
        "lattice-counts": ("lattice", "counts", "--d", "6"),
        "mono-factor": ("mono", "factor", "--tuple", str(FIXTURES / "tuple_d3.json")),
        "hurwitz-orbits": ("hurwitz", "orbits", "--d", "4", "--g", "2"),
    }
    for name, args in invocations.items():
        first, second = (run_cli(*args, text=False).stdout for _ in range(2))
        assert first == second, f"non-deterministic output for {args}"
        assert hashlib.sha256(first).hexdigest() == golden["digests"][f"cli-{name}"], name
        json.loads(first)
    _report(10, f"{len(invocations)} CLI invocations print their pinned bytes, twice each")


def test_optional_kernel_order_d6():
    for case in [(6, 2), (6, 4)]:
        rep = hw.scan_monodromy(*case)
        assert rep.kernel_failures == 0 and rep.equivalence_failures == 0
        _report(6, f"d=6 scan {case}: {rep.tuples} tuples, kernel order exact")
    report = hw.orbits(list(hw.iter_tuples(6, 2)))
    assert len(report.tuples) == 259_200
    assert report.orbit_count == 8 == lt.hurwitz_component_count(6)
    assert all(n == 1 for n in report.lattice_of_orbit.values())
    assert {lat.index for lat in report.census} == {1, 2, 3}
    _report(8, f"d=6 orbits (6, 2): {len(report.tuples)} tuples, 8 orbits")
