import re

import pytest

from severi.profiles import Profile
from severi.states import (
    DEGREE,
    SYMBOLIC,
    InvalidState,
    LineBundle,
    SeveriState,
    canonical_key,
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


def test_line_bundle_json_degree_consistency():
    L = symbol("L", 3) - point("p")
    data = L.to_json()
    assert data["degree"] == 2
    assert LineBundle.from_json(data) == L
    data["degree"] = 5
    with pytest.raises(ValueError):
        LineBundle.from_json(data)


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
    from tests.conftest import random_normalized_state

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
