import random

import pytest

from severi import surfaces as sf


@pytest.fixture
def exp1():
    return sf.elliptic_times_p1()


def test_product_pairing_table(exp1):
    f = exp1.divisor(f=1)
    e = exp1.divisor(e=1)
    assert sf.intersect(f, f) == 0
    assert sf.intersect(e, e) == 0
    assert sf.intersect(f, e) == 1
    assert exp1.canonical == (0, -2)


def test_intersection_examples(exp1):
    d, N = 5, 3
    tau = exp1.divisor(f=d, e=N)
    assert sf.intersect(tau, exp1.divisor(e=1)) == d
    assert sf.intersect(tau, exp1.divisor(f=d, e=N - 2)) == 2 * d * N - 2 * d


def test_model_mismatch_rejected(exp1):
    other = sf.quadric()
    with pytest.raises(ValueError):
        sf.intersect(exp1.divisor(f=1), other.divisor(f1=1))


def test_divisor_refuses_unknown_labels(exp1):
    with pytest.raises(ValueError) as refused:
        exp1.divisor(f=1, x=2, a=1)
    assert str(refused.value) == "unknown basis labels ['a', 'x']"


def test_gamma_on_product(exp1):
    for d in range(1, 11):
        for N in range(1, 11):
            D = exp1.divisor(e=1)
            tau = exp1.divisor(f=d, e=N)
            assert sf.gamma(D, tau, 0) == d


def test_gamma_on_blown_up_quadric():
    model = sf.blow_up(sf.quadric())
    for N in range(1, 11):
        for g in range(1, 11):
            D = model.divisor(f2=4)
            tau = model.divisor(f1=N, f2=1, e=-1)
            assert sf.gamma(D, tau, 2 * N + g + 1) == g + 2


def test_gamma_on_blown_up_plane():
    model = sf.blow_up(sf.projective_plane())
    for N in range(1, 11):
        for g in range(1, 11):
            D = model.divisor(h=6)
            tau = model.divisor(h=N, e=-1)
            assert sf.gamma(D, tau, 3 * N + g + 2) == g + 1


def test_gamma_requires_nonnegative_b(exp1):
    with pytest.raises(ValueError):
        sf.gamma(exp1.divisor(e=1), exp1.divisor(f=1), -1)


def test_gamma_linearity_in_b_and_D(exp1, subtests=None):
    rng = random.Random(3)
    for _ in range(100):
        D = exp1.divisor(f=rng.randint(-3, 3), e=rng.randint(-3, 3))
        D2 = exp1.divisor(f=rng.randint(-3, 3), e=rng.randint(-3, 3))
        tau = exp1.divisor(f=rng.randint(0, 5), e=rng.randint(0, 5))
        b = rng.randint(0, 5)
        assert sf.gamma(D + D2, tau, b) == sf.gamma(D, tau, b) - sf.intersect(D2, tau)
        assert sf.gamma(D, tau, b + 1) == sf.gamma(D, tau, b) + 1


def test_dim_bound():
    for g in range(0, 8):
        for d in range(1, 8):
            assert sf.dim_bound(g, d) == d + g - 1
    assert sf.dim_bound(0, 1) == 0
    for g in range(0, 6):
        assert sf.dim_bound(g, g + 2) == 2 * g + 1
    assert sf.dim_bound(5, 0) is None
    assert sf.dim_bound(5, -2) is None


def test_adjunction_genus():
    # degree-one covers of the base: class f + Ne has arithmetic genus N
    assert all(sf.adjunction_genus(1, N) == N for N in range(0, 8))
    assert sf.adjunction_genus(2, 2) == 3
    # the fiber class e itself is a genus-one curve
    assert sf.adjunction_genus(0, 1) == 1
    # the vertical ruling f is rational
    assert sf.adjunction_genus(1, 0) == 0


def test_adjunction_consistency(exp1):
    for d in range(1, 21):
        for N in range(1, 21):
            lhs = 2 * sf.adjunction_genus(d, N) - 2
            rhs = sf.intersect(
                exp1.divisor(f=d, e=N), exp1.divisor(f=d, e=N - 2)
            )
            assert lhs == rhs


def test_expected_dim_and_exception():
    r = sf.severi_expected_dim(3, 5, 2)
    assert r.expected == 7 and not r.exceptional and r.actual == 7
    r = sf.severi_expected_dim(0, 1, 1)
    assert r.expected == 0 and r.exceptional and r.actual == 1
    r = sf.severi_expected_dim(1, 1, 1)
    assert r.expected == 2 and not r.exceptional


def test_dim_V_ab():
    assert sf.dim_V_ab(3, 2, 3) == 6
    assert sf.dim_V_ab(2, 2, 2) == 4
    assert sf.dim_V_ab(1, -5, 0) == -6


@pytest.mark.parametrize("d,g,b", [(-1, 0, 0), (0, -5, -3), (0, 2, 1), (3, 2, -1)])
def test_dim_V_ab_rejects_impossible_input(d, g, b):
    with pytest.raises(ValueError, match="needs d >= 1 and b >= 0"):
        sf.dim_V_ab(d, g, b)


def test_fixed_vs_moving_class_discrepancy():
    for d in range(1, 8):
        for g in range(-3, 8):
            assert sf.dim_V_ab(d, g, d) == sf.severi_expected_dim(d, 1, g).expected - 1


def test_branch_count():
    for g in range(1, 9):
        assert sf.branch_count(4, g, 1) == 2 * g - 2
    assert sf.branch_count(2, 2, 1) == 2
    assert sf.branch_count(2, 3, 0) == 8
    with pytest.raises(ValueError):
        sf.branch_count(3, 0, 1)


def test_prim_fiber_dim():
    assert sf.prim_fiber_dim(3, 2) == 4
    for g in range(1, 6):
        assert sf.prim_fiber_dim(2 * g - 1, g) == 2 * g
    assert sf.prim_fiber_dim(1, 0) == 4
    with pytest.raises(ValueError):
        sf.prim_fiber_dim(2, 2)


def test_blow_up_mechanics():
    model = sf.blow_up(sf.quadric(), "e")
    e = model.divisor(e=1)
    assert sf.intersect(e, e) == -1
    assert sf.intersect(e, model.divisor(f1=1)) == 0
    assert model.canonical == (-2, -2, 1)
    with pytest.raises(ValueError):
        sf.blow_up(model, "e")
