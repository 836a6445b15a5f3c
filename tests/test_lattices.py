import math
import random

import pytest

from severi import base, hurwitz, monodromy, states
from severi.lattices import (
    IDENTITY,
    MAX_LATTICE_INDEX,
    BudgetExceeded,
    Lattice2,
    construct_hat,
    global_component_pairs,
    hnf,
    hurwitz_component_count,
    is_full,
    lattice_sum,
    m_invariant,
    primitive_vector,
    snf,
    sublattices,
)


def sigma_oracle(n: int) -> int:
    """Independent divisor-sum: multiply geometric series per prime power."""
    total = 1
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            pk = 1
            acc = 1
            while m % p == 0:
                m //= p
                pk *= p
                acc += pk
            total *= acc
        p += 1
    if m > 1:
        total *= 1 + m
    return total


def test_hnf_examples():
    assert hnf([(2, 0), (0, 2)]) == Lattice2(2, 0, 2)
    assert hnf([(1, 1), (0, 2), (2, 0)]) == Lattice2(1, 1, 2)
    with pytest.raises(ValueError):
        hnf([(1, 0)])
    with pytest.raises(ValueError):
        hnf([(2, 4)])
    # reading stops once the rows span Z^2
    def rows():
        yield (1, 0)
        yield (0, 1)
        raise AssertionError("read a row after the lattice was full")

    assert hnf(rows()) == IDENTITY
    assert hnf([(3, 1), (2, 1), (5, 7)]) == IDENTITY


def test_hnf_idempotent_and_order_independent():
    rng = random.Random(5)
    for _ in range(300):
        rows = [
            (rng.randint(-6, 6), rng.randint(-6, 6))
            for _ in range(rng.randint(2, 5))
        ]
        try:
            lat = hnf(rows)
        except ValueError:
            continue
        assert hnf(lat.rows()) == lat
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert hnf(shuffled) == lat
        assert all(lat.contains(r) for r in rows)


def test_snf_examples():
    assert snf(Lattice2(2, 0, 4)) == (2, 4)
    assert snf(Lattice2(1, 1, 2)) == (1, 2)
    assert snf(Lattice2(6, 0, 6)) == (6, 6)
    assert snf(Lattice2(2, 0, 2)) == (2, 2)
    assert snf(Lattice2(1, 0, 6)) == (1, 6)
    assert snf(Lattice2(2, 2, 4)) == (2, 4)


def test_snf_divisibility_and_m(rng):
    for _ in range(300):
        lat = Lattice2(rng.randint(1, 9), 0, 1)
        # random valid HNF triple
        a, c = rng.randint(1, 8), rng.randint(1, 8)
        lat = Lattice2(a, rng.randrange(c), c)
        d1, d2 = snf(lat)
        assert d1 * d2 == lat.index
        assert d2 % d1 == 0
        assert d1 == m_invariant(lat)


def test_sublattice_counts_match_sigma():
    for e in range(1, 201):
        assert len(sublattices(e)) == sigma_oracle(e)
    assert len(set(sublattices(12))) == sigma_oracle(12)


def test_m_invariant_examples():
    assert m_invariant(Lattice2(2, 0, 2)) == 2
    assert m_invariant(Lattice2(1, 1, 2)) == 1
    assert m_invariant(Lattice2(2, 2, 4)) == 2


def test_m_invariant_is_largest_scaling(rng):
    for _ in range(200):
        a, c = rng.randint(1, 6), rng.randint(1, 6)
        lat = Lattice2(a, rng.randrange(c), c)
        m = m_invariant(lat)
        assert all(x % m == 0 for row in lat.rows() for x in row)
        assert math.gcd(lat.a // m, math.gcd(lat.b // m, lat.c // m)) == 1


def test_lattice_sum_and_fullness():
    assert is_full(lattice_sum(Lattice2(2, 0, 1), Lattice2(1, 0, 2)))
    lat = Lattice2(3, 1, 2)
    assert lattice_sum(lat, lat) == lat
    assert not is_full(lattice_sum(Lattice2(2, 0, 2), Lattice2(2, 2, 4)))


# primes whose trial division takes about 10^9 steps
BIG_PRIMES = (10**18 + 3, 2**61 - 1)


def test_primitive_vector_contract(rng):
    P = BIG_PRIMES[0]
    cases = [
        Lattice2(1, 1, 2), Lattice2(2, 0, 2), Lattice2(3, 0, 1), Lattice2(15, 3, 7),
        Lattice2(2 * P, 2, 3), Lattice2(6 * P, 2 * P, 2 * P + 1),
    ]
    for _ in range(200):
        a, c = rng.randint(1, 9), rng.randint(1, 9)
        cases.append(Lattice2(a, rng.randrange(c), c))
    for _ in range(200):
        a = rng.choice((1, 2, 6, 30, 210)) * rng.choice(BIG_PRIMES)
        c = rng.randint(1, 40) * rng.choice((1,) + BIG_PRIMES)
        cases.append(Lattice2(a, rng.randrange(c), c))
    for lat in cases:
        a, b, m = primitive_vector(lat)
        assert m == m_invariant(lat)
        assert math.gcd(a, b) == 1
        assert lat.contains((a * m, b * m))
        # the least shift: b = b0 + k*c for the least k >= 0 with gcd(a, b) = 1
        b0, c = lat.b // m, lat.c // m
        k, r = divmod(b - b0, c)
        assert a == lat.a // m and r == 0 and k >= 0
        assert all(math.gcd(a, b0 + j * c) != 1 for j in range(k))


def test_construct_hat_examples():
    lhat, v = construct_hat(Lattice2(1, 0, 2), 2)
    assert lhat == Lattice2(2, 0, 1) and v == (1, 0)
    assert construct_hat(Lattice2(2, 0, 2), 2) is None
    result = construct_hat(Lattice2(2, 0, 2), 3)
    assert result is not None
    with pytest.raises(ValueError):
        construct_hat(Lattice2(1, 0, 2), 1)


def _span_with_vector(lat: Lattice2, v) -> bool:
    if v == (0, 0):
        return is_full(lat)
    return is_full(hnf(list(lat.rows()) + [v]))


def test_construct_hat_conditions_verified():
    for index in range(1, 13):
        for lt in sublattices(index):
            for D in range(2, 7):
                result = construct_hat(lt, D)
                feasible = math.gcd(D, m_invariant(lt)) == 1
                assert (result is not None) == feasible
                if result:
                    lhat, v = result
                    assert lhat.index == D                      # (0')
                    assert is_full(lattice_sum(lhat, lt))       # (1')
                    assert _span_with_vector(lhat, v)           # (2')


def test_hurwitz_component_count():
    assert hurwitz_component_count(2) == 1
    assert hurwitz_component_count(4) == 4
    assert hurwitz_component_count(6) == 8
    with pytest.raises(ValueError):
        hurwitz_component_count(1)


def test_component_count_against_bruteforce():
    for d in range(2, 101):
        expected = sum(sigma_oracle(e) for e in range(1, d) if d % e == 0)
        assert hurwitz_component_count(d) == expected


def test_global_component_pairs():
    assert global_component_pairs(4) == ((1, 1), (2, 1), (4, 1), (4, 2))
    assert global_component_pairs(1) == ((1, 1),)
    assert len(global_component_pairs(12)) == 8
    assert global_component_pairs(4, proper_only=True) == ((1, 1), (2, 1))
    for d in range(1, 40):
        for dt, m in global_component_pairs(d):
            assert d % dt == 0 and dt % (m * m) == 0


def test_enumerators_over_budget():
    over = MAX_LATTICE_INDEX + 1
    for enumerate_ in (sublattices, hurwitz_component_count, global_component_pairs):
        with pytest.raises(BudgetExceeded, match=f"{over} > {MAX_LATTICE_INDEX}$"):
            enumerate_(over)
    assert len(global_component_pairs(MAX_LATTICE_INDEX)) == 144


def test_one_budget_exception_class():
    assert monodromy.BudgetExceeded is hurwitz.BudgetExceeded is BudgetExceeded
    assert BudgetExceeded is base.BudgetExceeded
    assert states.InvalidState is base.InvalidState


def test_residues_and_reduce(rng):
    for _ in range(100):
        a, c = rng.randint(1, 5), rng.randint(1, 5)
        lat = Lattice2(a, rng.randrange(c), c)
        res = lat.residues()
        assert len(res) == lat.index
        for _ in range(10):
            v = (rng.randint(-20, 20), rng.randint(-20, 20))
            r = lat.reduce(v)
            assert r in res
            assert lat.contains((v[0] - r[0], v[1] - r[1]))


def test_contains_matches_the_integer_span_of_the_rows():
    """Membership against the lattice points i*(a, b) + j*(0, c) of a box,
    on both sides: x not a multiple of a, and x a multiple with y off."""
    lat = Lattice2(2, 1, 3)
    assert not lat.contains((1, 0)) and not lat.contains((2, 0))
    assert lat.contains((2, 1)) and lat.contains((-2, 2))
    for lat in (IDENTITY, lat, Lattice2(3, 2, 4), Lattice2(1, 0, 5)):
        (a, b), (_, c) = lat.rows()
        span = {(i * a, i * b + j * c) for i in range(-20, 21) for j in range(-40, 41)}
        for v in ((x, y) for x in range(-6, 7) for y in range(-6, 7)):
            assert lat.contains(v) == (v in span), (lat, v)
