import math
import random

import pytest

from severi.lattices import IDENTITY, Lattice2
from severi.monodromy import (
    MAX_TUPLE_D,
    BudgetExceeded,
    HurwitzTuple,
    commutator,
    compose,
    cycles_of,
    factorize,
    group_closure,
    identity,
    inverse,
    invariant_lattice,
    is_full_monodromy,
    is_primitive,
    is_transposition,
    is_valid,
    kernel_order_check,
    pair_orbits_match_classes,
    perm_from_cycles,
    sheet_lattice,
    then,
    transposition,
    transitive_on_block_pairs,
    violations,
)

T12 = (1, 0)
ID2 = (0, 1)


def random_valid_tuple(rng: random.Random, d: int, b: int) -> HurwitzTuple | None:
    A = tuple(rng.sample(range(d), d))
    B = tuple(rng.sample(range(d), d))
    ts = [transposition(d, *rng.sample(range(d), 2)) for _ in range(b - 1)]
    prod = identity(d)
    for x in ts:
        prod = compose(prod, x)
    last = then(inverse(prod), commutator(A, B))
    if not is_transposition(last):
        return None
    t = HurwitzTuple(d, A, B, tuple(ts) + (last,))
    return t if is_valid(t) else None


def sample_tuples(seed: int, count: int, ds=(2, 3, 4, 5), bs=(2, 4)):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        t = random_valid_tuple(rng, rng.choice(ds), rng.choice(bs))
        if t is not None:
            out.append(t)
    return out


def test_composition_convention():
    # compose(p, q) applies p first
    p = (1, 0, 2)
    q = (0, 2, 1)
    assert compose(p, q)[0] == q[p[0]]


def test_convention_self_test():
    for t in sample_tuples(1, 100):
        prod = identity(t.d)
        for x in t.T:
            prod = compose(prod, x)
        assert then(commutator(t.A, t.B), inverse(prod)) == identity(t.d)


def test_validity_examples():
    assert is_valid(HurwitzTuple(2, ID2, ID2, (T12, T12)))
    bad = violations(HurwitzTuple(2, ID2, ID2, (T12,)))
    assert bad == ("[A,B] != T1...Tb",)
    assert is_valid(HurwitzTuple(3, (1, 2, 0), (0, 1, 2), ((1, 0, 2), (1, 0, 2))))
    # non-transposition branch entry
    t = HurwitzTuple(3, (0, 1, 2), (0, 1, 2), ((1, 2, 0), (2, 0, 1)))
    assert any("transposition" in v for v in violations(t))
    # intransitive
    t = HurwitzTuple(3, (0, 1, 2), (0, 1, 2), ((1, 0, 2), (1, 0, 2)))
    assert any("transitively" in v for v in violations(t))
    assert sheet_lattice(t.d, t.generators())[2] is None


def test_group_closure():
    assert len(group_closure([transposition(2, 0, 1)])) == 2
    gens = [transposition(4, 0, 1), transposition(4, 1, 2), transposition(4, 2, 3)]
    assert len(group_closure(gens)) == 24
    assert len(group_closure([(1, 0, 3, 2)])) == 2
    with pytest.raises(BudgetExceeded):
        group_closure([identity(9)])


@pytest.mark.parametrize(
    "make,message",
    [
        (lambda: transposition(3, 1, 1), "transposition needs two distinct sheets"),
        (lambda: group_closure([]), "need at least one generator"),
        (lambda: group_closure([(0, 1), (0, 1, 2)]), "generators must share a degree"),
    ],
    ids=["transposition", "no-generators", "mixed-degrees"],
)
def test_malformed_permutations_are_refused(make, message):
    with pytest.raises(ValueError) as refused:
        make()
    assert str(refused.value) == message


def test_invariant_lattice_examples():
    assert invariant_lattice(HurwitzTuple(1, (0,), (0,), ())) == IDENTITY
    assert invariant_lattice(HurwitzTuple(2, ID2, ID2, (T12, T12))) == IDENTITY
    assert invariant_lattice(HurwitzTuple(2, T12, ID2, (T12, T12))) == IDENTITY
    # unramified degree-2 tuple: index-2 lattice
    assert invariant_lattice(HurwitzTuple(2, T12, ID2, ())) == Lattice2(2, 0, 1)


def test_invariant_lattice_base_sheet_independence():
    """Relabeling sheets by the swap (0 base) makes ``base`` the tree's base
    sheet; the Schreier vectors from there span the same lattice."""
    for t in sample_tuples(2, 60):
        lat = invariant_lattice(t)
        assert sheet_lattice(t.d, t.generators())[2] == factorize(t).lattice == lat
        for base in range(1, t.d):
            swap = transposition(t.d, 0, base)

            def relabel(p):
                return then(swap, p, swap)

            moved = HurwitzTuple(t.d, relabel(t.A), relabel(t.B), tuple(map(relabel, t.T)))
            assert sheet_lattice(moved.d, moved.generators())[2] == lat


def test_lattice_index_divides_degree():
    for t in sample_tuples(3, 120):
        assert t.d % invariant_lattice(t).index == 0


def test_primitive_iff_full_on_samples():
    for t in sample_tuples(4, 150):
        assert is_primitive(t) == is_full_monodromy(t)


def imprimitive_witness():
    """First imprimitive valid tuple of the (4, 2) enumeration."""
    from severi.hurwitz import iter_tuples

    for t in iter_tuples(4, 2):
        if not is_primitive(t):
            return t
    raise AssertionError("no imprimitive witness found")


def test_factorize_primitive_single_block():
    t = HurwitzTuple(2, ID2, ID2, (T12, T12))
    fac = factorize(t)
    assert fac.e == 1 and fac.dtilde == 2
    assert fac.blocks == ((0, 1),)


def test_factorize_imprimitive_witness():
    t = imprimitive_witness()
    fac = factorize(t)
    assert fac.lattice.index == 2
    assert fac.e == 2 and fac.dtilde == 2
    assert sorted(len(b) for b in fac.blocks) == [2, 2]
    # branch letters preserve blocks; the quotient translations are the
    # deck data of the intermediate cover
    assert len(group_closure([fac.a_bar, fac.b_bar])) == 2


def test_kernel_order_primitive():
    t = HurwitzTuple(3, (1, 2, 0), (0, 1, 2), ((1, 0, 2), (1, 0, 2)))
    rep = kernel_order_check(t)
    assert rep.applicable and rep.ok
    assert rep.expected == math.factorial(3)


def test_kernel_order_imprimitive_witness():
    t = imprimitive_witness()
    rep = kernel_order_check(t)
    assert rep.applicable and rep.ok
    assert rep.e == 2 and rep.dtilde == 2
    assert rep.expected == (2 ** 2) * rep.quotient_order == rep.actual


def test_kernel_order_unramified_inapplicable():
    rep = kernel_order_check(HurwitzTuple(2, T12, ID2, ()))
    assert not rep.applicable and rep.ok


def test_block_pair_transitivity():
    t = HurwitzTuple(3, (1, 2, 0), (0, 1, 2), ((1, 0, 2), (1, 0, 2)))
    assert transitive_on_block_pairs(t)
    assert transitive_on_block_pairs(imprimitive_witness())
    for t in sample_tuples(5, 60):
        assert transitive_on_block_pairs(t)


def test_pair_kernel_answers_for_the_lattice_it_is_given():
    """Too coarse a lattice puts pairs of two orbits in one class; too fine
    a one splits the one orbit of S_3 over two classes."""
    t = imprimitive_witness()
    letters, w, _ = sheet_lattice(t.d, t.generators())
    assert pair_orbits_match_classes(t.d, letters, invariant_lattice(t), w)
    assert not pair_orbits_match_classes(t.d, letters, IDENTITY, w)
    t = HurwitzTuple(3, (1, 2, 0), (0, 1, 2), ((1, 0, 2), (1, 0, 2)))
    letters, w, _ = sheet_lattice(t.d, t.generators())
    assert pair_orbits_match_classes(3, letters, IDENTITY, w)
    assert not pair_orbits_match_classes(3, letters, Lattice2(2, 0, 1), w)


def test_cycles_roundtrip(rng):
    for _ in range(100):
        d = rng.randint(1, 7)
        p = tuple(rng.sample(range(d), d))
        assert perm_from_cycles(d, cycles_of(p)) == p


def test_tuple_json_roundtrip():
    t = HurwitzTuple(4, (1, 0, 3, 2), (2, 3, 0, 1), (transposition(4, 0, 2), transposition(4, 0, 2)))
    if is_valid(t):
        assert HurwitzTuple.from_json(t.to_json()) == t
    t2 = HurwitzTuple(2, ID2, ID2, (T12, T12))
    assert HurwitzTuple.from_json(t2.to_json()) == t2


def test_tuple_json_sheet_count_budget():
    assert HurwitzTuple.from_json({"d": MAX_TUPLE_D}).A == identity(MAX_TUPLE_D)
    with pytest.raises(BudgetExceeded):
        HurwitzTuple.from_json({"d": MAX_TUPLE_D + 1, "A": [[1, 2]]})


def lattice_by_word_search(t: HurwitzTuple, max_len: int = 8):
    """Independent oracle: breadth-first search over group words, collecting
    abelianized words that stabilize sheet 0, no Schreier machinery."""
    from severi.lattices import hnf

    letters = [(t.A, (1, 0)), (t.B, (0, 1))] + [(x, (0, 0)) for x in t.T]
    letters += [(inverse(p), (-v[0], -v[1])) for p, v in letters]
    frontier = {(0, 0, 0)}  # (sheet, x, y)
    seen = set(frontier)
    vectors = []
    for _ in range(max_len):
        nxt = set()
        for sheet, x, y in frontier:
            for p, (vx, vy) in letters:
                state = (p[sheet], x + vx, y + vy)
                if state in seen:
                    continue
                seen.add(state)
                nxt.add(state)
                if state[0] == 0 and (state[1], state[2]) != (0, 0):
                    vectors.append((state[1], state[2]))
        frontier = nxt
    return hnf(vectors)


def test_invariant_lattice_matches_word_search_oracle():
    cases = [
        HurwitzTuple(2, ID2, ID2, (T12, T12)),
        HurwitzTuple(2, T12, ID2, (T12, T12)),
        HurwitzTuple(2, T12, ID2, ()),
        HurwitzTuple(3, (1, 2, 0), (0, 1, 2), ((1, 0, 2), (1, 0, 2))),
        imprimitive_witness(),
    ]
    cases += sample_tuples(6, 25, ds=(3, 4), bs=(2,))
    for t in cases:
        assert lattice_by_word_search(t) == invariant_lattice(t)


@pytest.mark.parametrize("d,b", [(4, 4), (5, 2)])
def test_group_answers_match_sympy(d, b):
    """An independent oracle: sympy's permutation groups give the order,
    transitivity and primitivity of a seeded sample of enumerated tuples.
    A simply branched cover is primitive exactly when it factors through
    no isogeny, so the group's primitivity is the library's."""
    sympy = pytest.importorskip("sympy.combinatorics")
    from severi.hurwitz import iter_tuples

    for t in random.Random(f"sympy {d} {b}").sample(list(iter_tuples(d, b)), 150):
        group = sympy.PermutationGroup([sympy.Permutation(list(p)) for p in t.generators()])
        order = group.order()
        assert order == len(group_closure(t.generators())) == kernel_order_check(t).actual, t
        assert group.is_transitive() == is_valid(t), t
        assert (order == math.factorial(d)) == is_full_monodromy(t), t
        assert group.is_primitive() == is_primitive(t), t


@pytest.mark.parametrize("d,b", [(4, 0), (6, 0), (3, 2), (4, 2), (3, 4)])
def test_quotient_group_has_the_lattice_index_as_order(d, b):
    """The lemma kernel_order_check relies on instead of closing the
    quotient group: the translations a_bar, b_bar generate a group of
    order e, the index of the invariant lattice."""
    from severi.hurwitz import iter_tuples

    for t in iter_tuples(d, b):
        fac = factorize(t)
        assert len(group_closure([fac.a_bar, fac.b_bar])) == fac.e == fac.lattice.index, t
        if t.T:
            assert kernel_order_check(t).quotient_order == fac.e, t
