import dataclasses
import hashlib
import itertools
import json
import math
import random
from collections import deque

import pytest

from severi import degeneration as dg
from severi.base import BudgetExceeded
from severi.profiles import Profile, partition_count, partitions
from severi.states import (
    DEGREE,
    SYMBOLIC,
    InvalidState,
    LineBundle,
    SeveriState,
    canonical_key,
    dimension,
    is_normalized,
    key_tuple,
    normalize,
    point,
    shape_key,
    state_to_json,
    symbol,
)
from tests.conftest import random_normalized_state


def simple_state(d, N, g, a, b):
    return SeveriState(
        d=d,
        N=N,
        g=g,
        alpha=tuple((1, f"p{i+1}") for i in range(a)),
        betas=((Profile.ones(b), symbol("L", b)),),
    )


def shapes(terms):
    return sorted(set((t.kind, t.m, t.tau.entries) for t in terms))


def test_simple_d2_single_type_one_term():
    terms = dg.successors_simple(simple_state(2, 2, 2, 0, 2))
    assert shapes(terms) == [("I", 0, ())]
    child = terms[0].child
    assert child.alpha_profile() == Profile.ones(1)
    assert child.betas[0][0] == Profile.ones(1)


def test_simple_d3_single_type_one_term():
    # m(tau) would need to exceed what the class equation allows
    terms = dg.successors_simple(simple_state(3, 2, 2, 0, 3))
    assert shapes(terms) == [("I", 0, ())]


def test_simple_type_two_terms_when_fixed_points_present():
    # with two fixed points to release, tau = (2) appears for every m
    terms = dg.successors_simple(simple_state(4, 2, 3, 2, 2))
    got = shapes(terms)
    for m in (1, 2):
        assert ("IIa", m, (2,)) in got
        assert ("IIb", m, (2,)) in got
    assert all(dimension(t.child) == dimension(simple_state(4, 2, 3, 2, 2)) - 1 for t in terms)


def test_simple_type_one_requires_two_moving_points():
    terms = dg.successors_simple(simple_state(2, 3, 2, 1, 1))
    assert all(t.kind != "I" for t in terms)


def test_simple_requires_genus_at_least_two():
    with pytest.raises(InvalidState):
        dg.successors_simple(simple_state(2, 2, 1, 0, 2))


@pytest.mark.parametrize(
    "state,message",
    [
        (
            SeveriState(d=4, N=2, g=2, betas=((Profile.ones(2), symbol("L", 2)),) * 2),
            "simple enumerator needs exactly one moving group",
        ),
        (
            SeveriState(d=4, N=2, g=2, alpha=((2, "p1"),), betas=((Profile.ones(2), symbol("L", 2)),)),
            "simple enumerator needs transverse contact only",
        ),
    ],
    ids=["two-groups", "tangency"],
)
def test_simple_refuses_states_outside_its_statement(state, message):
    with pytest.raises(InvalidState) as refused:
        dg.successors_simple(state)
    assert str(refused.value) == message


def test_simple_type_one_updates_bundle():
    terms = dg.successors_simple(simple_state(2, 2, 2, 0, 2))
    (term,) = terms
    bundle = term.child.betas[0][1]
    assert bundle.degree == 1
    names = bundle.point_names()
    assert len(names) == 1  # the new fixed point was subtracted


def test_no_tau_equal_one_ever():
    for state in [simple_state(4, 3, 3, 2, 2), simple_state(5, 2, 2, 3, 2)]:
        for t in dg.successors_simple(state):
            assert t.tau.entries != (1,)
        nstate, _ = normalize(state)
        for t in dg.successors_general(nstate):
            assert t.tau.entries != (1,)


def test_general_requires_normalized():
    s = SeveriState(d=3, N=1, g=1, alpha=(), betas=((Profile.of(3), symbol("L", 3)),))
    with pytest.raises(InvalidState):
        dg.successors_general(s)


def test_general_type_one_distinct_children():
    s = SeveriState(
        d=5,
        N=3,
        g=1,
        alpha=(),
        betas=(
            (Profile.of(2, 1), symbol("L1", 3)),
            (Profile.ones(2), symbol("L2", 2)),
        ),
    )
    t1 = [t for t in dg.successors_general(s) if t.kind == "I"]
    assert len(t1) == 3
    assert sorted(t.dropped for t in t1) == [((0, 1),), ((0, 2),), ((1, 1),)]
    for t in t1:
        (j, n), = t.dropped
        # the new fixed point enters with the removed tangency order
        assert max(order for order, _ in t.child.alpha) >= 1
        assert t.child.betas[j][1].degree == s.betas[j][1].degree - n


# -- an independent oracle ---------------------------------------------------
# The two statements of the module docstring, enumerated the slow way: every
# moving point, every subset of the fixed points and every m on its own,
# with no row lists, no walk over kept fixed points and no deduplication.


def oracle_terms(s, mode, simple=False):
    """The set of (kind, m, tau, child key) of the hyperplane section of
    ``s``; with ``simple``, under the transverse-case statement."""
    new = next(f"x{i}" for i in itertools.count() if f"x{i}" not in s.point_labels())
    out = set()
    # type I: a moving point of order n of a group that keeps another becomes
    # a fixed point of order n; n times its class leaves the group's bundle
    for j, (beta, bundle) in enumerate(s.betas):
        for i, n in enumerate(beta.entries):
            if beta.size < 2:
                continue
            rest = Profile(beta.entries[:i] + beta.entries[i + 1 :])
            betas = s.betas[:j] + ((rest, bundle - n * point(new)),) + s.betas[j + 1 :]
            child = SeveriState(s.d, s.N, s.g, s.alpha + ((n, new),), betas)
            out.add(("I", 0, (), key_tuple(child, mode)))
    # type II: each group is kept or loses one point, any fixed points are
    # released, and the depleted groups merge under a tau partitioning the
    # orders that left
    escapes = [[None] + list(range(beta.size)) for beta, _ in s.betas]
    for m in range(1, s.N + 1):
        for escaped in itertools.product(*escapes):
            kept = [j for j, i in enumerate(escaped) if i is None]
            intact = tuple(s.betas[j] for j in kept)
            rest, bundle, mass = [], point(new) - point(new), 0
            for (beta, group_bundle), i in zip(s.betas, escaped):
                if i is not None:
                    rest += beta.entries[:i] + beta.entries[i + 1 :]
                    bundle = bundle + group_bundle
                    mass += beta.entries[i]
            for r in range(len(s.alpha) + 1):
                for released in itertools.combinations(range(len(s.alpha)), r):
                    alpha = tuple(p for k, p in enumerate(s.alpha) if k not in released)
                    total = mass + sum(s.alpha[k][0] for k in released)
                    merged = bundle
                    for k in released:
                        merged = merged + s.alpha[k][0] * point(s.alpha[k][1])
                    for tau in partitions(total):
                        if tau.entries == (1,) or tau.size < (1 if simple else 2):
                            continue
                        group = (Profile(tuple(rest)) + tau, merged)
                        child = SeveriState(s.d, s.N - m, s.g - tau.size, alpha, intact + (group,))
                        kind = ("IIb" if kept else "IIa") if simple else "II"
                        out.add((kind, m, tau.entries, key_tuple(child, mode)))
    return out


def term_keys(terms, mode):
    return {(t.kind, t.m, t.tau.entries, key_tuple(t.child, mode)) for t in terms}


@pytest.mark.parametrize("mode", [DEGREE, SYMBOLIC])
def test_general_matches_oracle(mode, rng):
    for _ in range(40):
        s = random_normalized_state(rng)
        assert term_keys(dg.successors_general(s, mode), mode) == oracle_terms(s, mode)


@pytest.mark.parametrize("mode", [DEGREE, SYMBOLIC])
def test_simple_matches_oracle(mode):
    """IIa and IIb labels and the size-one tau terms included; on the grid's
    normalized states the general statement matches its own oracle too."""
    small_tau = general = 0
    for s in transverse_states(5):
        expected = oracle_terms(s, mode, simple=True)
        assert term_keys(dg.successors_simple(s, mode), mode) == expected
        small_tau += sum(len(tau) == 1 for _, _, tau, _ in expected)
        if is_normalized(s):
            assert term_keys(dg.successors_general(s, mode), mode) == oracle_terms(s, mode)
            general += 1
    assert small_tau and general


def test_dimension_drop_on_random_corpus(rng):
    for _ in range(60):
        s = random_normalized_state(rng)
        parent_dim = dimension(s)
        for t in dg.successors_general(s):
            assert dimension(t.child) == parent_dim - 1


def test_dimension_check_fires_on_every_row(monkeypatch):
    # the walk reads each listed row's child dimension once; a first good row
    # must not vouch for the next one.  The bad row's tau has one part more
    # than its child's merged group gained, so at every m its child's genus
    # g - |tau| is one too low and the dimension drops by two.
    parent = SeveriState(
        d=4, N=3, g=2, alpha=((1, "p1"),), betas=((Profile.ones(3), symbol("L", 3)),)
    )
    child = SeveriState(
        d=4, N=2, g=0, betas=((Profile.ones(4), symbol("L", 3) + point("p1")),)
    )
    good, bad = (
        (dg.KIND_II, child, 1, tau, (), ((0, 1),)) for tau in (Profile.ones(2), Profile.ones(3))
    )

    def terms(candidates):
        # the parent's terms, its type II rows listed from ``candidates``
        monkeypatch.setattr(dg, "_type_one_terms", lambda s: [])
        monkeypatch.setattr(dg, "_type_two_terms", lambda s, every_subset, simple: candidates)
        return [term for _, term in dg._terms(parent, dg._Walk(DEGREE).rows(parent))]

    assert [t.m for t in terms([good])] == [1, 2, 3]
    assert all(dimension(t.child) == dimension(parent) - 1 for t in terms([good]))
    for candidates in ([good, bad], [bad, good], [bad]):
        with pytest.raises(AssertionError, match="dimension drop != 1"):
            terms(candidates)


def test_class_bookkeeping(rng):
    for _ in range(40):
        s = random_normalized_state(rng)
        for t in dg.successors_general(s):
            assert t.child.d == s.d
            if t.kind == "I":
                assert t.child.N == s.N
            else:
                assert t.child.N == s.N - t.m
                kept_degrees = sum(s.betas[j][1].degree for j in t.kept)
                new_bundle = t.child.betas[-1][1]
                alpha_kept = sum(o for o, _ in t.child.alpha)
                assert new_bundle.degree == s.d - alpha_kept - kept_degrees


def test_forest_chain_shape():
    root = simple_state(2, 2, 2, 0, 2)
    forest = dg.build_forest([root], floor=0)
    assert not forest.truncated
    assert len(forest.roots) == 1
    dims = sorted(dimension(s) for s in forest.nodes.values())
    assert dims[0] == 0 and dims[-1] == 4
    for e in forest.edges:
        assert dimension(forest.nodes[e.child]) == dimension(forest.nodes[e.parent]) - 1
    # ignoring the split-off multiplicity, the shapes form a chain
    shapes_by_dim = {}
    for s in forest.nodes.values():
        shape = (s.d, s.g, s.alpha_profile().entries, tuple(sorted(b.entries for b, _ in s.betas)))
        shapes_by_dim.setdefault(dimension(s), set()).add(shape)
    assert all(len(v) == 1 for v in shapes_by_dim.values())


def test_forest_retains_negative_genus():
    root = simple_state(2, 2, 1, 0, 2)
    forest = dg.build_forest([root], floor=-6)
    assert min(s.g for s in forest.nodes.values()) < 0


def test_forest_empty_roots():
    forest = dg.build_forest([], floor=0)
    assert forest.nodes == {} and forest.edges == [] and forest.roots == ()


def test_forest_idempotent_and_acyclic():
    root = simple_state(3, 2, 2, 1, 2)
    f1 = dg.build_forest([root], floor=0)
    f2 = dg.build_forest([root], floor=0)
    assert f1.to_json() == f2.to_json()
    # dimension strictly drops along edges, so cycles are impossible; check anyway
    children = {}
    for e in f1.edges:
        children.setdefault(e.parent, set()).add(e.child)
    seen = set()

    def dfs(k, stack):
        assert k not in stack
        if k in seen:
            return
        seen.add(k)
        for c in children.get(k, ()):
            dfs(c, stack | {k})

    for r in f1.roots:
        dfs(r, frozenset())


def test_forest_node_budget():
    root = simple_state(6, 6, 6, 0, 6)
    forest = dg.build_forest([root], floor=0, max_nodes=5)
    assert forest.truncated
    assert len(forest.nodes) <= 5


def test_forest_roots_count_toward_budget():
    roots = [simple_state(3, N, 2, 1, 2) for N in (1, 2, 3)]
    forest = dg.build_forest(roots, floor=0, max_nodes=1)
    assert forest.truncated
    assert len(forest.nodes) == 1 and forest.edges == []
    assert forest.roots == tuple(forest.nodes)
    forest = dg.build_forest(roots, floor=0, max_nodes=2)
    assert forest.truncated and len(forest.nodes) == 2 and len(forest.roots) == 2
    # a root already in the forest costs nothing
    forest = dg.build_forest(roots[:1] * 3, floor=0, max_nodes=1)
    assert len(forest.roots) == 1 and forest.expanded == 1


@pytest.mark.parametrize("max_nodes", [0, -1])
def test_forest_budget_below_one_is_refused(max_nodes):
    with pytest.raises(ValueError, match="max_nodes must be >= 1"):
        dg.build_forest([simple_state(3, 2, 2, 1, 2)], max_nodes=max_nodes)


@pytest.mark.parametrize("mode", [DEGREE, SYMBOLIC])
def test_partition_budget_refuses_only_what_the_term_budget_refuses(mode, rng, monkeypatch):
    """One type II choice of mass m gives p(m) - 1 rows of distinct tau, so
    the early refusal when p(m) - 1 > MAX_TERMS leaves the refused inputs
    those whose term count passes MAX_TERMS, and lists no refused mass."""
    budget = 20  # p(8) - 1 = 21 refuses every mass from 8 on
    states = [
        SeveriState(d=m, N=N, g=0, alpha=((m, "p1"),), betas=())
        for m in range(2, 13) for N in (1, 2, 3)
    ]
    states += [random_normalized_state(rng) for _ in range(60)]
    counts = [len(dg.successors_general(s, mode)) for s in states]
    listed = []
    monkeypatch.setattr(dg, "partitions", lambda m: listed.append(m) or partitions(m))
    monkeypatch.setattr(dg, "MAX_TERMS", budget)
    refused = 0
    for s, count in zip(states, counts):
        try:
            dg.successors_general(s, mode)
        except BudgetExceeded:
            assert count > budget, s
            refused += 1
        else:
            assert count <= budget, s
    assert refused and listed
    assert all(partition_count(m, budget + 1) - 1 <= budget for m in listed)


def test_negative_N_walks_no_type_two_choice():
    # 22 fixed points: the symbolic type II walk over them is refused, but at
    # N < 0 there is no type II term, so neither enumerator nor forest walks it
    points = tuple((1, f"p{i}") for i in range(1, 23))
    s = SeveriState(d=24, N=-1, g=3, alpha=points, betas=((Profile.ones(2), symbol("L", 2)),))
    for mode in (DEGREE, SYMBOLIC):
        terms = dg.successors_general(s, mode)
        assert terms and {t.kind for t in terms} == {dg.KIND_I}
        forest = dg.build_forest([s], max_nodes=5, key_mode=mode)
        assert {e.term.kind for e in forest.edges} == {dg.KIND_I}


def points_and_one_pair(n):
    """n fixed points of order one and one moving group 1^2."""
    alpha = tuple((1, f"p{i}") for i in range(1, n + 1))
    return SeveriState(n + 2, 3, 3, alpha, ((Profile.ones(2), symbol("L", 2)),))


def test_type_two_choice_budget_boundary():
    """Ten points give 2 x 2^10 choices in symbolic mode, the most
    MAX_TYPE_TWO_CHOICES admits, so they are walked; eleven are refused
    before any choice is listed.  Degree mode visits 2 x 11 and 2 x 12."""
    assert dg.MAX_TYPE_TWO_CHOICES == 2 * 2**10
    assert len(dg.successors_general(points_and_one_pair(10), key_mode=SYMBOLIC)) == 934
    with pytest.raises(BudgetExceeded, match=r"^type II walk: 4096 choices > 2048$"):
        dg.successors_general(points_and_one_pair(11), key_mode=SYMBOLIC)
    assert len(dg.successors_general(points_and_one_pair(11), key_mode=DEGREE)) == 1327


def test_normalization_factor_lands_on_edge():
    # a IIb child with singleton tau group gets normalized on insertion
    root = simple_state(4, 2, 3, 2, 2)
    forest = dg.build_forest([root], floor=0, max_nodes=3000)
    assert any(e.factor == 4 for e in forest.edges)  # tau=(2) singleton: 2^2


def test_limit_stable_map():
    root = simple_state(4, 2, 3, 2, 2)
    terms = {(t.kind, t.m, t.tau.entries): t for t in dg.successors_simple(root)}
    t = terms[("IIa", 1, (2,))]
    shape = dg.limit_stable_map(t)
    assert shape.nodes == 1
    assert shape.cover_degree_partitions == ((1,),)
    t = terms[("IIa", 2, (1, 1))]
    shape = dg.limit_stable_map(t)
    assert shape.nodes == 2
    assert shape.cover_degree_partitions == ((2,), (1, 1))
    t = terms[("IIa", 2, (2,))]
    shape = dg.limit_stable_map(t)
    assert shape.cover_degree_partitions == ((2,),)
    type_one = next(t for t in dg.successors_simple(root) if t.kind == "I")
    with pytest.raises(ValueError):
        dg.limit_stable_map(type_one)


def test_limit_stable_map_over_budget(monkeypatch):
    # three order-one points and a group 1^2 at N = 200 give a type II term
    # at m = 100, whose p(100) = 190,569,292 partitions are refused before
    # the first is listed
    s = SeveriState(
        d=5, N=200, g=3, alpha=((1, "p1"), (1, "p2"), (1, "p3")),
        betas=((Profile.ones(2), symbol("L", 2)),),
    )
    terms = dg.successors_general(s)
    assert len(terms) == 2001
    term = next(t for t in terms if t.m == 100)
    monkeypatch.setattr(dg, "partitions", lambda m: pytest.fail(f"listed p({m})"))
    with pytest.raises(BudgetExceeded, match=r"p\(100\) > 100000"):
        dg.limit_stable_map(term)


def test_dot_output_is_deterministic():
    root = simple_state(2, 2, 2, 0, 2)
    f = dg.build_forest([root], floor=0)
    assert dg.forest_to_dot(f) == dg.forest_to_dot(f)
    assert dg.forest_to_dot(f).startswith("digraph")


# -- the degree-mode walk over fixed-point sub-multisets ---------------------

SEVEN_SIMPLE = simple_state(9, 2, 2, 7, 2)
MIXED_ORDERS = SeveriState(
    d=9,
    N=2,
    g=1,
    alpha=((2, "p1"), (2, "p2"), (1, "p3"), (1, "p4"), (1, "p5")),
    betas=((Profile.ones(2), symbol("L", 2)),),
)


def walk_states(rng):
    return [SEVEN_SIMPLE, MIXED_ORDERS] + [random_normalized_state(rng) for _ in range(60)]


def degree_keys(terms):
    return [(t.kind, t.m, t.tau.entries, key_tuple(t.child, DEGREE)) for t in terms]


def test_degree_walk_matches_symbolic_walk(rng):
    """Symbolic mode walks every subset of the fixed points and keeps more
    terms, so its degree keys are the reference for the degree-mode walk."""
    for s in walk_states(rng):
        degree = degree_keys(dg.successors_general(s, DEGREE))
        symbolic = degree_keys(dg.successors_general(s, SYMBOLIC))
        assert len(set(degree)) == len(degree)
        assert set(degree) == set(symbolic)


def test_degree_walk_keeps_run_prefixes(rng):
    """Every type II child keeps the first points of each run of equal
    orders in the parent's stored alpha."""
    for s in walk_states(rng):
        runs = {}
        for order, lbl in s.alpha:
            runs.setdefault(order, []).append(lbl)
        for t in dg.successors_general(s, DEGREE):
            if t.kind == "I":
                continue
            kept = {lbl for _, lbl in t.child.alpha}
            for labels in runs.values():
                flags = [lbl in kept for lbl in labels]
                assert flags == sorted(flags, reverse=True)


# -- forest keys -------------------------------------------------------------


@pytest.mark.parametrize("mode", [DEGREE, SYMBOLIC])
def test_forest_keys_are_canonical_keys(mode, rng):
    roots = [simple_state(6, 4, 6, 0, 6), simple_state(5, 3, 4, 0, 5)]
    roots += [random_normalized_state(rng) for _ in range(6)]
    normalized = {True: 0, False: 0}
    for root in roots:
        forest = dg.build_forest([root], max_nodes=300, key_mode=mode)
        for key, node in forest.nodes.items():
            assert key == canonical_key(node, mode)
        for e in forest.edges:
            nchild = normalize(e.term.child)[0]
            assert e.child == canonical_key(nchild, mode)
            normalized[nchild != e.term.child] += 1
    # both the reused and the recomputed child keys are exercised
    assert normalized[True] > 0 and normalized[False] > 0


def reference_forest(roots, mode, max_nodes, floor=0):
    """``build_forest`` from the public enumerator, normalize and key: every
    node enumerated and every child keyed on its own."""
    forest, queue = dg.Forest(), deque()

    def insert(state):
        key = canonical_key(state, mode)
        if key not in forest.nodes:
            if len(forest.nodes) >= max_nodes:
                forest.truncated = True
                return None
            forest.nodes[key] = state
            queue.append(key)
        return key

    for root in roots:
        key = insert(normalize(root)[0])
        if key is None:
            break
        if key not in forest.roots:
            forest.roots += (key,)
    while queue and not forest.truncated:
        key = queue.popleft()
        if dimension(forest.nodes[key]) <= floor:
            continue
        for term in dg.successors_general(forest.nodes[key], mode):
            child, factor = normalize(term.child)
            ckey = insert(child)
            if ckey is None:
                break
            forest.edges.append(dg.ForestEdge(key, ckey, term, factor))
    return forest


def at_numbers(s, *Ns):
    """``s`` at each of the given N, its shape and genus unchanged."""
    return [dataclasses.replace(s, N=N) for N in Ns]


@pytest.mark.parametrize("mode", [DEGREE, SYMBOLIC])
def test_forest_matches_reference(mode, rng):
    states = [random_normalized_state(rng) for _ in range(8)]
    cases = [([s], 150) for s in states]
    # one shape with a smaller N, then a larger one, and with a larger N,
    # then a smaller one: the shape's rows are listed once for both
    cases += [(at_numbers(s, 1, 3), 150) for s in states[:3]]
    cases += [(at_numbers(s, 3, 0, 1), 150) for s in states[3:6]]
    cases += [(at_numbers(simple_state(4, 0, 2, 1, 3), 1, 2, 0), 400)]
    cases += [([simple_state(3, 2, 2, 1, 2), simple_state(4, 1, 3, 1, 3)], 5)]
    for roots, max_nodes in cases:
        forest = dg.build_forest(roots, max_nodes=max_nodes, key_mode=mode)
        ref = reference_forest(roots, mode, max_nodes)
        assert forest.to_json() == ref.to_json()
        assert dg.forest_to_dot(forest) == dg.forest_to_dot(ref)


@pytest.mark.parametrize("mode", [DEGREE, SYMBOLIC])
def test_forest_lists_each_shape_once_in_any_N_order(mode):
    # the roots share one shape and dimension, and a floor one below that
    # expands only the roots
    s = simple_state(4, 0, 3, 1, 3)
    floor = dimension(s) - 1
    for Ns in ((1, 3), (3, 1), (2, 0, 1), (0, 1, 2)):
        roots = at_numbers(s, *Ns)
        forest = dg.build_forest(roots, floor=floor, key_mode=mode)
        assert (forest.expanded, forest.enumerated) == (len(Ns), 1)
        ref = reference_forest(roots, mode, 10_000, floor)
        assert forest.to_json() == ref.to_json()


@pytest.mark.parametrize(
    "mode,size,N,g,counts",
    [(DEGREE, 6, 4, 6, (1797, 712, 5095)), (SYMBOLIC, 5, 3, 4, (3672, 2351, 7494))],
    ids=["F1", "F2"],
)
def test_forest_enumerates_each_shape_once(mode, size, N, g, counts):
    forest = dg.build_forest([simple_state(size, N, g, 0, size)], key_mode=mode)
    assert (forest.expanded, forest.enumerated, forest.keyed) == counts
    expanded = [s for s in forest.nodes.values() if dimension(s) > 0]
    assert forest.expanded == len(expanded)
    assert forest.enumerated == len({(s.d, s.alpha, s.betas) for s in expanded})
    # the nodes and the edges' children are keyed, and so are the children
    # that deduplication dropped
    children = [e.term.child for e in forest.edges]
    kept = {(s.d, s.alpha, s.betas) for s in [*forest.nodes.values(), *children]}
    assert len(kept) < forest.keyed
    # the counters stay out of the output
    assert set(forest.to_json()) == {"nodes", "edges", "roots", "truncated"}
    blank = dataclasses.replace(forest, expanded=0, dead_ends=0, enumerated=0, keyed=0)
    assert blank.to_json() == forest.to_json()
    assert dg.forest_to_dot(blank) == dg.forest_to_dot(forest)


@pytest.mark.parametrize("mode", [DEGREE, SYMBOLIC])
def test_key_is_state_numbers_plus_shape_key(mode, rng):
    states = [random_normalized_state(rng) for _ in range(40)]
    states += [t.child for s in states[:20] for t in dg.successors_general(s, mode)]
    for s in states:
        key = key_tuple(s, mode)
        assert key == (s.d, s.N, s.g) + shape_key(s.alpha, s.betas, mode)
        if mode == DEGREE:
            # the degree key spelled out from the state
            groups = tuple(sorted((beta.entries, bundle.degree) for beta, bundle in s.betas))
            assert key == (s.d, s.N, s.g, s.alpha_profile().entries, groups)
        # N and g enter the key only through its first entries
        other = dataclasses.replace(s, N=s.N + 3, g=s.g - 2)
        assert key_tuple(other, mode)[3:] == key[3:]
        assert key_tuple(other, mode)[:3] == (s.d, s.N + 3, s.g - 2)


@pytest.mark.parametrize("mode", [DEGREE, SYMBOLIC])
def test_dedup_validates_every_child_shape(mode, monkeypatch):
    parent = simple_state(3, 2, 2, 1, 2)
    # the parent's one type I candidate has a valid child, which drops
    # dimension by one; the same alpha and betas with d = 4 break the class
    # equation
    (candidate,) = dg._type_one_terms(parent)
    good = candidate[1]
    bad = dataclasses.replace(good, d=4)
    assert dimension(good) == dimension(parent) - 1
    terms = [candidate[:1] + (child,) + candidate[2:] for child in (good, bad)]

    def rows(candidates):
        # the walk's rows of the parent at N = 0, its type I rows only,
        # listed from ``candidates``
        monkeypatch.setattr(dg, "_type_one_terms", lambda s: candidates)
        return dg._Walk(mode).rows(dataclasses.replace(parent, N=0))

    with pytest.raises(InvalidState, match="class equation fails"):
        rows(terms[1:])
    # a cache keyed without d would pass the bad child as the good one
    with pytest.raises(InvalidState, match="class equation fails"):
        rows(terms)
    assert len(rows(terms[:1])) == 1


# -- byte-for-byte pins ------------------------------------------------------
# sha256 digests of the simple enumerator's term JSON and of symbolic key
# strings.  A change to the terms, their order, the term kept per key or a
# key string changes a digest; re-record it only for an intended change.


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def transverse_states(max_d):
    """Fixed points 1^a and one group 1^b of class L, or of class L' - p1
    when p1 is a fixed point, for d <= max_d, N <= 3 and 2 <= g <= 4."""
    for d in range(1, max_d + 1):
        for N in range(4):
            for g in range(2, 5):
                for a in range(d):
                    s = simple_state(d, N, g, a, d - a)
                    yield s
                    if a:
                        incident = (Profile.ones(d - a), symbol("L'", d - a + 1) - point("p1"))
                        yield SeveriState(d=d, N=N, g=g, alpha=s.alpha, betas=(incident,))


def shifted(terms, N, g):
    """The terms with m <= N, each child moved to (N - m, g - |tau|)."""
    return tuple(
        dataclasses.replace(t, child=dataclasses.replace(t.child, N=N - t.m, g=g - t.tau.size))
        for t in terms
        if t.m <= N
    )


@pytest.mark.parametrize("mode", [DEGREE, SYMBOLIC])
def test_terms_shift_with_N_and_g(mode, rng):
    """The terms of a state at (N', g') are those at (N, g) with m <= N',
    moved by the shift, for every N' <= N."""
    for s in [random_normalized_state(rng) for _ in range(40)]:
        terms = dg.successors_general(s, mode)
        for N in range(s.N + 1):
            other = dataclasses.replace(s, N=N, g=rng.randint(-6, 6))
            assert dg.successors_general(other, mode) == shifted(terms, N, other.g)
    for s in transverse_states(6):
        if s.N == 3 and s.g == 2:
            terms = dg.successors_simple(s, mode)
            for N in range(4):
                for g in range(2, 5):
                    other = dataclasses.replace(s, N=N, g=g)
                    assert dg.successors_simple(other, mode) == shifted(terms, N, g)


@pytest.mark.parametrize(
    "mode,max_d,count,sha",
    [
        (DEGREE, 8, 23052, "44c2348e172dd9813ec3f38bfdf88e7203d265fc4bcc7c17612c9d4265bceac3"),
        # d <= 6 reaches the relabeling cap; d <= 8 would add about 20 s of
        # relabeling, and test_symbolic_keys_pinned goes past the cap
        (SYMBOLIC, 6, 8400, "0b004d9ab471c2b2051f4c87ffbe0c475adc61a8ac5cac5e1c1cb94f87982210"),
    ],
    ids=[DEGREE, SYMBOLIC],
)
def test_simple_terms_pinned(mode, max_d, count, sha):
    out = [[t.to_json() for t in dg.successors_simple(s, mode)] for s in transverse_states(max_d)]
    assert sum(map(len, out)) == count
    assert digest(out) == sha


def symbolic_key_states():
    """Nodes of a capped symbolic forest from one group 1^5, the children of
    its first nodes, and ties of order-one points named in bundles on both
    sides of the relabeling cap."""
    forest = dg.build_forest([simple_state(5, 3, 4, 0, 5)], max_nodes=1000, key_mode=SYMBOLIC)
    states = list(forest.nodes.values())
    for s in states[:150]:
        states.extend(t.child for t in dg.successors_general(s))
    for n in range(1, 9):
        alpha = tuple((1, f"p{i}") for i in range(1, n + 1)) + ((2, "q1"), (2, "q2"))
        L = symbol("L", 3) + point(f"p{n}") - point("p1") + point("z9")
        M = symbol("M", 2) + 2 * point("q2") - point("p2") - point("q1")
        betas = ((Profile.ones(4), L), (Profile.of(2, 1), M))
        states.append(SeveriState(d=n + 11, N=2, g=1, alpha=alpha, betas=betas))
    return states


# fixed points of orders 2, 1, 1 and one group 1^2 with N = 3: type II
# children for m = 1, 2, 3, and a degree walk over prefixes of a run
DEGREE_FOREST_ROOT = SeveriState(
    d=6,
    N=3,
    g=2,
    alpha=((2, "p1"), (1, "p2"), (1, "p3")),
    betas=((Profile.ones(2), symbol("L", 2)),),
)


def test_degree_forest_pinned():
    forest = dg.build_forest([DEGREE_FOREST_ROOT], floor=0, key_mode=DEGREE)
    assert not forest.truncated
    assert (len(forest.nodes), len(forest.edges)) == (923, 7716)
    assert digest(forest.to_json()) == (
        "7706272fc607e8969639c48008075dd68e9647b661ba472f06b7134f64cf6292"
    )


# fixed points of orders 2 and 1 and one group 1^2 whose class names the
# order-one point, so the symbolic key reads a label; N = 2
SYMBOLIC_FOREST_ROOT = SeveriState(
    d=5,
    N=2,
    g=2,
    alpha=((2, "p1"), (1, "p2")),
    betas=((Profile.ones(2), symbol("L", 3) - point("p2")),),
)


def test_symbolic_forest_pinned():
    forest = dg.build_forest([SYMBOLIC_FOREST_ROOT], floor=0, key_mode=SYMBOLIC)
    assert not forest.truncated
    assert (len(forest.nodes), len(forest.edges)) == (831, 1697)
    assert digest(forest.to_json()) == (
        "924ba84299ab50825a38e172d840a43035a0681fd09e51a87d3250db535c6c0a"
    )


def test_symbolic_keys_pinned():
    keys = [canonical_key(s, SYMBOLIC) for s in symbolic_key_states()]
    assert len(keys) == 1841
    assert digest(keys) == "bda8c1e8b71899f92171f9dd8fd4410aa3ca2c6cb07c049bb24c64dd7a563d05"


def unshared_forest_json(forest):
    """``Forest.to_json`` spelled out per node and per edge, sharing nothing."""
    return {
        "nodes": {k: state_to_json(v) for k, v in sorted(forest.nodes.items())},
        "edges": [
            {"parent": e.parent, "factor": e.factor, **e.term.to_json()}
            for e in forest.edges
        ],
        "roots": sorted(forest.roots),
        "truncated": forest.truncated,
    }


@pytest.mark.parametrize(
    "root,mode",
    [(DEGREE_FOREST_ROOT, DEGREE), (SYMBOLIC_FOREST_ROOT, SYMBOLIC)],
    ids=[DEGREE, SYMBOLIC],
)
def test_forest_json_shares_equal_parts(root, mode):
    forest = dg.build_forest([root], floor=0, key_mode=mode)
    data = forest.to_json()
    assert data == unshared_forest_json(forest)
    # the root's type II terms run over its rows once for m = 1 and again
    # for m = 2, so the two runs pair up row by row
    (key,) = forest.roots
    edges = [(e.term, js) for e, js in zip(forest.edges, data["edges"]) if e.parent == key]
    runs = [[(t, js) for t, js in edges if t.m == m] for m in (1, 2)]
    assert runs[0] and len(runs[0]) == len(runs[1])
    for (t1, js1), (t2, js2) in zip(*runs):
        assert (t1.kind, t1.tau, t1.kept, t1.dropped) == (t2.kind, t2.tau, t2.kept, t2.dropped)
        assert t1.child.betas is t2.child.betas
        assert js1["child"]["betas"] is js2["child"]["betas"]
        assert js1["tau"] is js2["tau"] and js1["coefficient"] != js2["coefficient"]


# -- the symbolic key against the code it replaced ---------------------------


def reference_symbolic_part(alpha, betas):
    """The symbolic shape part as first written: every relabeling renames
    and sorts each group's whole expression, the alpha part is always
    sorted, and the groups are always sorted before the Q-names are given."""
    names = [f"P{i + 1}" for i in range(len(alpha))]
    alpha_part = tuple(
        sorted(zip((order for order, _ in alpha), names), key=lambda t: (-t[0], t[1]))
    )
    runs = [tuple(run) for _, run in itertools.groupby(alpha, key=lambda ent: ent[0])]
    if math.prod(math.factorial(len(run)) for run in runs) > 720:
        mappings = [{lbl: name for (_, lbl), name in zip(alpha, names)}]
    else:
        named = {n for _, bundle in betas for n in bundle.point_names()}
        placements, start = [], 0
        for run in runs:
            labels = [lbl for _, lbl in run if lbl in named]
            run_names = names[start : start + len(run)]
            placements.append(
                [tuple(zip(labels, p)) for p in itertools.permutations(run_names, len(labels))]
            )
            start += len(run)
        mappings = (
            dict(itertools.chain.from_iterable(combo))
            for combo in itertools.product(*placements)
        )
    return alpha_part, min(reference_group_forms(betas, mapping) for mapping in mappings)


def reference_group_forms(betas, mapping):
    def group_form(beta, bundle, names):
        expr = tuple(
            (k, names.get(n, n) if k == "pt" else n, d, c) for k, n, d, c in bundle.terms
        )
        return (beta.entries, bundle.degree, tuple(sorted(expr)))

    rough = sorted(
        (group_form(beta, bundle, mapping), idx) for idx, (beta, bundle) in enumerate(betas)
    )
    names = dict(mapping)
    q = 1
    for _, idx in rough:
        for n in betas[idx][1].point_names():
            if n not in names:
                names[n] = f"Q{q}"
                q += 1
    return tuple(sorted(group_form(beta, bundle, names) for beta, bundle in betas))


# ten order-one points, past the relabeling cap; in the alpha part P10
# sorts before P2
TEN_POINTS = simple_state(12, 3, 3, 10, 2)
# orders 3, 2, 2 and a run of nine order-one points, some named in the bundle
MIXED_TWELVE = SeveriState(
    d=18,
    N=1,
    g=2,
    alpha=((3, "a"), (2, "b"), (2, "c")) + tuple((1, f"p{i}") for i in range(1, 10)),
    betas=((Profile.ones(2), symbol("L", 1) + point("p9") + point("c") - point("b")),),
)
# past the 32 P-names kept as a constant the key names the points per call
THIRTY_THREE = SeveriState(
    d=35,
    N=1,
    g=3,
    alpha=tuple((1, f"p{i}") for i in range(1, 34)),
    betas=((Profile.ones(2), symbol("L", 1) + point("p33") + point("q") - point("p2")),),
)
# two groups stored in the reverse of their order under the alpha names
# alone; the Q-names follow that order, so x1 is Q1, y1 Q2 and z1 Q3
Q_ORDER = SeveriState(
    d=5,
    N=1,
    g=1,
    alpha=((1, "p1"),),
    betas=(
        (Profile.ones(2), symbol("M", 3) - point("z1")),
        (Profile.ones(2), symbol("L", 1) + point("y1") + point("p1") - point("x1")),
    ),
)


def test_symbolic_key_matches_reference(rng):
    corpus = [random_normalized_state(rng) for _ in range(60)]
    states = corpus + [t.child for s in corpus for t in dg.successors_general(s, SYMBOLIC)]
    states += symbolic_key_states()
    swapped = dataclasses.replace(Q_ORDER, betas=Q_ORDER.betas[::-1])
    states += [TEN_POINTS, MIXED_TWELVE, Q_ORDER, swapped, THIRTY_THREE]
    # past ten points the symbolic walk is over budget, so these children
    # come from the degree-mode walk
    states += [t.child for s in (TEN_POINTS, MIXED_TWELVE) for t in dg.successors_general(s)]
    states += [t.child for t in dg.successors_general(Q_ORDER, SYMBOLIC)]
    for s in states:
        assert shape_key(s.alpha, s.betas, SYMBOLIC) == reference_symbolic_part(s.alpha, s.betas)
    alpha_part, _ = shape_key(TEN_POINTS.alpha, TEN_POINTS.betas, SYMBOLIC)
    assert [name for _, name in alpha_part] == ["P1", "P10"] + [f"P{i}" for i in range(2, 10)]
    alpha_part, _ = shape_key(THIRTY_THREE.alpha, THIRTY_THREE.betas, SYMBOLIC)
    assert sorted(name for _, name in alpha_part) == sorted(f"P{i}" for i in range(1, 34))
    key = shape_key(Q_ORDER.alpha, Q_ORDER.betas, SYMBOLIC)
    assert key == shape_key(swapped.alpha, swapped.betas, SYMBOLIC)
    _, (l_form, m_form) = key
    assert [name for _, name, _, _ in l_form[2]] == ["P1", "Q1", "Q2", "L"]
    assert m_form[2] == (("pt", "Q3", 1, -1), ("sym", "M", 3, 1))


# -- structural oracles over the benchmark's forests -------------------------

F1_ROOT = simple_state(6, 4, 6, 0, 6)
F2_ROOT = simple_state(5, 3, 4, 0, 5)


def test_one_term_per_emitted_term(monkeypatch):
    # the walk lists candidates as plain tuples and builds a Term for a
    # row's first candidate only, which its listing parent emits
    built = 0
    init = dg.Term.__init__

    def counting(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(dg.Term, "__init__", counting)
    terms = dg.successors_general(TEN_POINTS, SYMBOLIC)
    assert built == len(terms) == 934
    built = 0
    forest = dg.build_forest([F1_ROOT], key_mode=DEGREE)
    assert not forest.truncated
    assert built == len(forest.edges) == 22_782


@pytest.fixture(scope="module")
def f2_symbolic():
    """F2's symbolic forest and the ``(alpha, betas)`` of every shape its
    build keyed, recorded by wrapping the walk's ``shape_key``."""
    keyed = []

    def recording(alpha, betas, mode=DEGREE):
        keyed.append((alpha, betas))
        return shape_key(alpha, betas, mode)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dg, "shape_key", recording)
        forest = dg.build_forest([F2_ROOT], key_mode=SYMBOLIC)
    return forest, keyed


@pytest.fixture(scope="module")
def bench_forests(f2_symbolic):
    return {
        ("F1", DEGREE): dg.build_forest([F1_ROOT], key_mode=DEGREE),
        ("F2", DEGREE): dg.build_forest([F2_ROOT], key_mode=DEGREE),
        ("F2", SYMBOLIC): f2_symbolic[0],
    }


def test_symbolic_key_matches_reference_on_every_f2_shape(f2_symbolic):
    forest, keyed = f2_symbolic
    assert len(keyed) == forest.keyed == 7_494
    for alpha, betas in keyed:
        assert shape_key(alpha, betas, SYMBOLIC) == reference_symbolic_part(alpha, betas)


def relabeled(s, rng):
    """``s`` with its points renamed by a random permutation of its labels
    and its groups shuffled: the same state, so the same canonical key."""
    labels = s.point_labels()
    rename = dict(zip(labels, rng.sample(labels, len(labels))))
    betas = [
        (beta, LineBundle(tuple(
            (kind, rename[name] if kind == "pt" else name, deg, coeff)
            for kind, name, deg, coeff in bundle.terms
        )))
        for beta, bundle in s.betas
    ]
    rng.shuffle(betas)
    alpha = tuple((order, rename[lbl]) for order, lbl in s.alpha)
    return SeveriState(s.d, s.N, s.g, alpha, tuple(betas))


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 8: the symbolic key orders the groups and names the "
    "points by their stored labels, so a relabeling can change it",
)
def test_symbolic_key_is_invariant_under_relabeling_on_f2_nodes(f2_symbolic):
    """Item 8a's relabeling oracle on a seeded sample of F2 nodes with at
    most seven point labels, three relabelings each."""
    rng = random.Random("item 8a relabelings")
    nodes = [s for s in f2_symbolic[0].nodes.values() if len(s.point_labels()) <= 7]
    changed = [
        (s, r)
        for s in rng.sample(nodes, 300)
        for r in (relabeled(s, rng) for _ in range(3))
        if canonical_key(r, SYMBOLIC) != canonical_key(s, SYMBOLIC)
    ]
    assert not changed, f"{len(changed)} of 900 relabelings changed the key"


def labelled_edges(forest, key_of):
    """The edges as ``(parent, child, kind, m, tau, factor)``, their nodes
    named by ``key_of`` of the node states."""
    name = {k: key_of(s) for k, s in forest.nodes.items()}
    return {
        (name[e.parent], name[e.child], e.term.kind, e.term.m, e.term.tau.entries, e.factor)
        for e in forest.edges
    }


def test_symbolic_forest_maps_onto_the_degree_forest(bench_forests):
    # forgetting labels maps F2's symbolic forest onto its degree forest:
    # node for node and labelled edge for labelled edge, both ways
    degree, symbolic = bench_forests["F2", DEGREE], bench_forests["F2", SYMBOLIC]
    assert not degree.truncated and not symbolic.truncated
    assert (len(degree.nodes), len(symbolic.nodes)) == (465, 4177)
    # canonical_key defaults to degree mode
    assert {canonical_key(s) for s in symbolic.nodes.values()} == set(degree.nodes)
    assert {canonical_key(symbolic.nodes[r]) for r in symbolic.roots} == set(degree.roots)
    assert labelled_edges(symbolic, canonical_key) == labelled_edges(degree, canonical_key)


def test_symbolic_forests_map_onto_degree_forests_on_a_corpus():
    # the same map on seeded roots; a root whose forest passes the cap in
    # either mode is skipped, and the skip count is pinned
    rng = random.Random(7)
    skipped, finer = 0, 0
    for _ in range(24):
        root = random_normalized_state(rng)
        degree = dg.build_forest([root], max_nodes=3000, key_mode=DEGREE)
        symbolic = dg.build_forest([root], max_nodes=3000, key_mode=SYMBOLIC)
        if degree.truncated or symbolic.truncated:
            skipped += 1
            continue
        finer += len(symbolic.nodes) > len(degree.nodes)
        assert {canonical_key(s) for s in symbolic.nodes.values()} == set(degree.nodes)
        assert {canonical_key(symbolic.nodes[r]) for r in symbolic.roots} == set(degree.roots)
        assert labelled_edges(symbolic, canonical_key) == labelled_edges(degree, canonical_key)
    assert (skipped, finer) == (3, 9)


def dead_end(s):
    """No general term: no moving group for type I, and no type II row,
    because N = 0 lists none and at d = 1 the one fixed point releases mass
    one, while the general statement needs |tau| >= 2."""
    return s.ell == 0 and (s.N == 0 or s.d == 1)


@pytest.mark.parametrize(
    "forest,mode,counts",
    [("F1", DEGREE, (86, 1797)), ("F2", SYMBOLIC, (34, 3672))],
    ids=["F1", "F2"],
)
def test_dead_end_census(bench_forests, forest, mode, counts):
    # every node of positive dimension is expanded (floor 0), so it has an
    # outgoing edge exactly when it has a term
    forest = bench_forests[forest, mode]
    assert not forest.truncated
    parents = {e.parent for e in forest.edges}
    positive = {k: s for k, s in forest.nodes.items() if dimension(s) > 0}
    dead = {k for k in positive if k not in parents}
    assert dead == {k for k, s in positive.items() if dead_end(s)}
    assert (len(dead), len(positive)) == counts
    assert forest.dead_ends == len(dead)
    assert all(dg.successors_general(positive[k], mode) == () for k in dead)
