import copy
import dataclasses
import pickle
import re

import pytest

from severi.degeneration import Term, successors_general
from severi.monodromy import HurwitzTuple
from severi.profiles import Profile
from severi.states import (
    DEGREE,
    PT,
    SYM,
    SYMBOLIC,
    InvalidState,
    LineBundle,
    SeveriState,
    _at_numbers,
    canonical_key,
    check_valid,
    dimension,
    is_normalized,
    is_valid,
    normalize,
    point,
    state_from_json,
    state_to_json,
    symbol,
    violations,
)
from tests.conftest import random_normalized_state


def mk(d, N, g, alpha=(), betas=()):
    return SeveriState(d=d, N=N, g=g, alpha=tuple(alpha), betas=tuple(betas))


def test_line_bundle_degree_and_arithmetic():
    L = symbol("L", 3)
    p = point("p")
    assert L.degree == 3 and p.degree == 1
    assert (L - p).degree == 2
    assert (L + 2 * p).degree == 5
    assert (L - p) + p == L
    assert (p - p).terms == ()


def weighted_degree(bundle):
    return sum(deg * coeff for _, _, deg, coeff in bundle.terms)


def test_line_bundle_degree_is_read_at_construction():
    L, M, p, q = symbol("L", 3), symbol("M", 2), point("p"), point("q")
    empty = LineBundle()
    assert empty + L == L == L + empty
    assert empty + L is L and L + empty is L
    cancelled = L - L
    assert cancelled.terms == () and cancelled.degree == 0
    sums = (L + p, L - p, 3 * (L - 2 * q) + M, -2 * (M + p), 0 * L, cancelled, (L + p) - (p + L))
    for bundle in sums:
        assert bundle.degree == weighted_degree(bundle)
    # replace runs the constructor again: the terms merge and the degree follows
    merged = dataclasses.replace(L, terms=L.terms + ((PT, "p", 1, 1), (PT, "p", 1, -3)))
    assert merged.terms == ((PT, "p", 1, -2), (SYM, "L", 3, 1))
    assert merged.degree == 1 == weighted_degree(merged)
    # the degree is no constructor argument, and equality, hashing and the
    # repr read the terms alone
    degree = {f.name: f for f in dataclasses.fields(LineBundle)}["degree"]
    assert (degree.init, degree.compare, degree.repr) == (False, False, False)
    assert "degree" not in repr(L) and hash(L) == hash(LineBundle(L.terms))


def test_value_records_have_slots_and_round_trip():
    bundle = symbol("L", 4) - point("p1") - point("q")
    s = mk(4, 2, 2, alpha=[(2, "p1")], betas=[(Profile.ones(2), bundle)])
    term = successors_general(s)[0]
    records = (Profile.of(2, 1, 1), bundle, s, term)
    assert [type(r) for r in records] == [Profile, LineBundle, SeveriState, Term]
    for record in records:
        assert not hasattr(record, "__dict__")
        copies = [pickle.loads(pickle.dumps(record, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in copies + [copy.deepcopy(record), copy.copy(record)]:
            assert type(twin) is type(record) and twin == record
            assert hash(twin) == hash(record) and repr(twin) == repr(record)
    # pickling and copying keep the degree, which no constructor call sets
    child_bundle = term.child.betas[0][1]
    for remake in (lambda r: pickle.loads(pickle.dumps(r)), copy.deepcopy):
        assert remake(bundle).degree == bundle.degree == 2
        assert remake(term).child.betas[0][1].degree == child_bundle.degree == 1


def test_alpha_is_stored_as_a_sorted_tuple():
    ordered = ((3, "p2"), (1, "p1"), (1, "p3"))
    for alpha in (((1, "p3"), (3, "p2"), (1, "p1")), [(1, "p1"), (1, "p3"), (3, "p2")], ordered):
        s = SeveriState(d=5, N=0, g=0, alpha=alpha)
        assert type(s.alpha) is tuple and s.alpha == ordered
    one = SeveriState(d=3, N=0, g=0, alpha=[(3, "p1")])
    assert type(one.alpha) is tuple and one.alpha == ((3, "p1"),)
    # replace runs the constructor again, so a new alpha is sorted too
    moved = dataclasses.replace(one, d=4, alpha=[(1, "p2"), (3, "p1")])
    assert moved.alpha == ((3, "p1"), (1, "p2"))


def test_state_at_other_numbers_is_the_replaced_state(rng):
    for _ in range(40):
        s = random_normalized_state(rng)
        N, g = rng.randint(-3, 6), rng.randint(-6, 6)
        shifted = _at_numbers(s, N, g)
        assert shifted == dataclasses.replace(s, N=N, g=g)
        assert hash(shifted) == hash(dataclasses.replace(s, N=N, g=g))
        assert repr(shifted) == repr(dataclasses.replace(s, N=N, g=g))
        assert shifted.alpha is s.alpha and shifted.betas is s.betas


def test_line_bundle_json_degree_consistency():
    L = symbol("L", 3) - point("p")
    s = mk(3, 2, 2, betas=[(Profile.ones(2), L)])
    data = state_to_json(s)
    assert data["betas"][0]["L"]["degree"] == 2
    assert state_from_json(data) == s
    data["betas"][0]["L"]["degree"] = 5
    with pytest.raises(ValueError, match="stated degree 5 != expression degree 2"):
        state_from_json(data)


def test_validate_ok():
    s = mk(3, 2, 2, alpha=[(1, "p1")], betas=[(Profile.ones(2), symbol("L1", 2))])
    assert is_valid(s)
    assert violations(s) == ()


def test_validate_multiplicity_violation():
    s = mk(3, 2, 2, alpha=[(1, "p1")], betas=[(Profile.ones(3), symbol("L1", 3))])
    bad = violations(s)
    assert any("class equation" in v for v in bad)


def test_validate_degree_violation():
    s = mk(3, 2, 2, alpha=[(1, "p1")], betas=[(Profile.ones(2), symbol("L1", 3))])
    bad = violations(s)
    assert any("deg L" in v for v in bad)


def test_validate_duplicate_labels():
    s = mk(2, 1, 0, alpha=[(1, "p"), (1, "p")])
    assert any("distinct" in v for v in violations(s))


@pytest.mark.parametrize(
    "make,error,message",
    [
        (lambda: check_valid(mk(0, 1, 0)), InvalidState, "fiber degree d=0 must be >= 1"),
        (lambda: LineBundle(((PT, "p", 2, 1),)), ValueError, "points have degree 1"),
        (lambda: canonical_key(mk(1, 0, 0), "exact"), ValueError, "unknown key mode 'exact'"),
    ],
    ids=["fiber-degree", "point-degree", "key-mode"],
)
def test_refusals_name_their_reason(make, error, message):
    with pytest.raises(error) as refused:
        make()
    assert str(refused.value) == message


def test_dimension_formula():
    s = mk(3, 2, 2, betas=[(Profile.ones(3), symbol("L", 3))])
    assert dimension(s) == 6  # matches d + g - 2 + b for one transverse group
    s2 = mk(2, 2, 2, betas=[(Profile.ones(2), symbol("L", 2))])
    assert dimension(s2) == 4
    with pytest.raises(InvalidState):
        dimension(mk(3, 1, 1, betas=[(Profile.ones(1), symbol("L", 2))]))


def test_dimension_two_groups_drops_by_group_count():
    one = mk(4, 1, 0, betas=[(Profile.ones(4), symbol("L", 4))])
    two = mk(
        4, 1, 0,
        betas=[(Profile.ones(2), symbol("L1", 2)), (Profile.ones(2), symbol("L2", 2))],
    )
    assert dimension(two) == dimension(one) - 1


def test_dimension_invariant_under_group_permutation():
    b1 = (Profile.of(2, 1), symbol("L1", 3))
    b2 = (Profile.ones(2), symbol("L2", 2))
    assert dimension(mk(5, 1, 1, betas=[b1, b2])) == dimension(mk(5, 1, 1, betas=[b2, b1]))


def test_agreement_with_transverse_dimension_formula(rng):
    from severi.surfaces import dim_V_ab

    for _ in range(50):
        d = rng.randint(1, 6)
        b = rng.randint(1, d)
        g = rng.randint(-4, 6)
        alpha = tuple((1, f"p{i}") for i in range(d - b))
        s = mk(d, 1, g, alpha=alpha, betas=[(Profile.ones(b), symbol("L", b))])
        assert dimension(s) == dim_V_ab(d, g, b)


def test_normalize_singletons():
    s = mk(3, 1, 1, betas=[(Profile.of(3), symbol("L", 3))])
    n, factor = normalize(s)
    assert factor == 9
    assert n.ell == 0
    assert n.alpha_profile() == Profile.of(3)
    assert dimension(n) == dimension(s)

    s2 = mk(5, 1, 1, betas=[(Profile.of(2), symbol("L1", 2)), (Profile.of(3), symbol("L2", 3))])
    n2, factor2 = normalize(s2)
    assert factor2 == 36
    assert is_normalized(n2)

    s3 = mk(2, 1, 1, betas=[(Profile.ones(2), symbol("L", 2))])
    assert normalize(s3) == (s3, 1)


def test_normalize_preserves_invariants(rng):
    from tests.conftest import random_partition

    for _ in range(100):
        d = rng.randint(1, 6)
        mass = rng.randint(1, d)
        rest = d - mass
        alpha = tuple((1, f"p{i}") for i in range(rest))
        s = mk(d, rng.randint(0, 4), rng.randint(-4, 6), alpha=alpha,
               betas=[(random_partition(rng, mass), symbol("L", mass))])
        n, factor = normalize(s)
        assert (n.d, n.N, n.g) == (s.d, s.N, s.g)
        assert dimension(n) == dimension(s)
        assert is_normalized(n)
        assert factor >= 1


def test_canonical_key_group_reordering():
    b1 = (Profile.of(2, 1), symbol("L1", 3))
    b2 = (Profile.ones(2), symbol("L2", 2))
    s12 = mk(5, 1, 1, betas=[b1, b2])
    s21 = mk(5, 1, 1, betas=[b2, b1])
    assert canonical_key(s12) == canonical_key(s21)
    assert canonical_key(s12, SYMBOLIC) == canonical_key(s21, SYMBOLIC)


def test_canonical_key_separates_genus():
    s1 = mk(2, 1, 1, betas=[(Profile.ones(2), symbol("L", 2))])
    s2 = mk(2, 1, 2, betas=[(Profile.ones(2), symbol("L", 2))])
    assert canonical_key(s1) != canonical_key(s2)


def test_canonical_key_modes_on_expressions():
    base = symbol("L", 2)
    s_sym = mk(3, 1, 1, alpha=[(1, "p1")], betas=[(Profile.ones(2), base)])
    s_expr = mk(
        3, 1, 1, alpha=[(1, "p1")],
        betas=[(Profile.ones(2), symbol("M", 3) - point("p1"))],
    )
    # same degrees everywhere: degree mode identifies, symbolic separates
    assert canonical_key(s_sym, DEGREE) == canonical_key(s_expr, DEGREE)
    assert canonical_key(s_sym, SYMBOLIC) != canonical_key(s_expr, SYMBOLIC)


def _relabeling_witness(x, y):
    # two groups 1^2 sharing the point p2; x is the fixed point and y a
    # point named only in the second bundle.  Swapping p1 and p5 gives a
    # relabeling of one state, and both labelings are nodes of the symbolic
    # forest of (d, N, g) = (5, 3, 4) with one group 1^5.
    g1 = (Profile((1, 1)), LineBundle((("pt", "p2", 1, -1), ("pt", "r2", 1, 3))))
    g2 = (Profile((1, 1)), LineBundle((("pt", "p2", 1, 1), ("pt", y, 1, 1))))
    return SeveriState(5, 0, -3, ((1, x),), (g1, g2))


RELABELED = (_relabeling_witness("p1", "p5"), _relabeling_witness("p5", "p1"))


def test_relabeled_witness_shares_its_degree_key():
    a, b = RELABELED
    assert is_valid(a) and is_valid(b)
    assert canonical_key(a, DEGREE) == canonical_key(b, DEGREE)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 8: the symbolic key names the points outside alpha "
    "by their stored labels, so a relabeling can change it",
)
def test_relabeled_witness_shares_its_symbolic_key():
    a, b = RELABELED
    assert canonical_key(a, SYMBOLIC) == canonical_key(b, SYMBOLIC)


def test_canonical_key_point_relabeling():
    s1 = mk(
        4, 1, 1,
        alpha=[(1, "u"), (1, "v")],
        betas=[(Profile.ones(2), symbol("L", 4) - point("u") - point("v"))],
    )
    s2 = mk(
        4, 1, 1,
        alpha=[(1, "x"), (1, "y")],
        betas=[(Profile.ones(2), symbol("L", 4) - point("y") - point("x"))],
    )
    assert canonical_key(s1, SYMBOLIC) == canonical_key(s2, SYMBOLIC)
    assert canonical_key(s1, DEGREE) == canonical_key(s2, DEGREE)


def test_json_roundtrip(rng):
    for _ in range(50):
        s = random_normalized_state(rng)
        assert state_from_json(state_to_json(s)) == s


GOOD_GROUP = {"profile": [1, 1], "L": {"expr": [{"kind": "sym", "name": "L", "deg": 2, "coeff": 1}]}}


@pytest.mark.parametrize(
    "document,field",
    [
        ([1, 2], "state"),
        ("state", "state"),
        ({"d": [1], "N": 1, "g": 1}, "state.d"),
        ({"d": 2, "N": 1}, "'g'"),
        ({"d": 2, "N": 1, "g": True}, "state.g"),
        ({"d": 2, "N": 1, "g": 0, "alpha": {}}, "state.alpha"),
        ({"d": 2, "N": 1, "g": 0, "alpha": [[1, "p"]]}, "alpha[0]"),
        ({"d": 2, "N": 1, "g": 0, "alpha": [{"mult": 2, "point": 1}]}, "alpha[0].point"),
        ({"d": 2, "N": 1, "g": 0, "betas": [{"profile": 2, "L": {}}]}, "betas[0].profile"),
        ({"d": 2, "N": 1, "g": 0, "betas": [{"profile": ["1"], "L": {}}]}, "betas[0].profile"),
        ({"d": 2, "N": 1, "g": 0, "betas": [{"profile": [2], "L": []}]}, "betas[0].L"),
        ({"d": 2, "N": 1, "g": 0, "betas": [{"profile": [2], "L": {"expr": [3]}}]}, "L.expr[0]"),
        ({"d": 2, "N": 1, "g": 0, "betas": [dict(GOOD_GROUP, L={"expr": [], "degree": "0"})]}, "L.degree"),
    ],
)
def test_state_from_json_rejects_malformed_documents(document, field):
    with pytest.raises(InvalidState, match=re.escape(field)):
        state_from_json(document)


def one_group_with(profile=(1, 1), **L):
    """A one-group state document whose group has ``profile`` and the bundle
    of GOOD_GROUP with the members ``L`` replaced."""
    group = {"profile": list(profile), "L": dict(GOOD_GROUP["L"], **L)}
    return {"d": 2, "N": 1, "g": 0, "betas": [group]}


@pytest.mark.parametrize(
    "parse,document,message",
    [
        (
            state_from_json,
            one_group_with(profile=(0, 2)),
            "state.betas[0].profile: tangency orders must be positive: (0, 2)",
        ),
        (
            state_from_json,
            one_group_with(expr=[{"kind": "x", "name": "L", "deg": 2, "coeff": 1}]),
            "state.betas[0].L.expr: unknown term kind 'x'",
        ),
        (
            state_from_json,
            one_group_with(expr=[{"kind": "pt", "name": "p", "deg": 2, "coeff": 1}]),
            "state.betas[0].L.expr: points have degree 1",
        ),
        (
            state_from_json,
            one_group_with(degree=5),
            "state.betas[0].L.degree: stated degree 5 != expression degree 2",
        ),
        (HurwitzTuple.from_json, {"d": 3, "A": [[1, 5]]}, "tuple.A: bad cycle [1, 5] for degree 3"),
    ],
    ids=["profile", "term-kind", "point-degree", "stated-degree", "cycle"],
)
def test_document_value_faults_name_their_path(parse, document, message):
    # each message leads with the field's path; a cycle keeps the document's
    # 1-based sheets
    with pytest.raises(InvalidState, match=f"^{re.escape(message)}$"):
        parse(document)
