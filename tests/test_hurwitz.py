import hashlib
import itertools
import json
import random
import re
import sys
from array import array
from collections import Counter
from dataclasses import fields

import pytest

from severi import words as wd
from severi.base import InvalidState
from severi.hurwitz import (
    MAX_B,
    MAX_ENUM_TUPLES,
    MOVES,
    PUSH_A,
    PUSH_B,
    HandleMove,
    MoveSet,
    ScanReport,
    _PackedMoves,
    _branch_words,
    _orbits,
    _pair_classes,
    admissible,
    braid_move,
    branch_points,
    conjugate_tuple,
    enumerate_tuples,
    expected_lattices,
    iter_tuples,
    move_graph_dot,
    orbits,
    scan_monodromy,
    tuple_count,
)
from severi.lattices import IDENTITY, hurwitz_component_count
from severi.monodromy import (
    MAX_TABLE_D,
    BudgetExceeded,
    HurwitzTuple,
    commutator,
    compose,
    group_closure,
    identity,
    invariant_lattice,
    inverse,
    is_full_monodromy,
    is_valid,
    kernel_order_check,
    perm_table,
    then,
    transposition,
)
from tests.test_monodromy import lattice_by_word_search, sample_tuples

T12 = (1, 0)
ID2 = (0, 1)


def test_branch_points():
    assert branch_points(2) == 2
    assert branch_points(3) == 4
    with pytest.raises(ValueError):
        branch_points(1)


def test_enumerate_small_counts():
    # degree 2: commutators vanish, both branch letters are forced
    ts = enumerate_tuples(2, 2)
    assert len(ts) == 4
    assert all(t.T == (T12, T12) for t in ts)
    ts = enumerate_tuples(2, 3)
    assert len(ts) == 4
    assert all(t.T == (T12,) * 4 for t in ts)


def brute_force_tuples(d, b):
    """Every valid tuple, by filtering all of S_d x S_d x transpositions^b,
    in lexicographic order of (A, B, T_1..T_b) as permutation tuples."""
    transp = sorted(
        transposition(d, i, j) for i in range(d) for j in range(i + 1, d)
    )
    out = []
    for A in itertools.permutations(range(d)):
        for B in itertools.permutations(range(d)):
            target = commutator(A, B)
            for ts in itertools.product(transp, repeat=b):
                prod = identity(d)
                for x in ts:
                    prod = compose(prod, x)
                if prod != target:
                    continue
                t = HurwitzTuple(d, A, B, ts)
                if is_valid(t):
                    out.append(t)
    return out


def test_enumeration_matches_bruteforce_oracle():
    """Same tuples in the same order, not only the same count."""
    for d, b in [(2, 2), (2, 4), (3, 2), (3, 3), (3, 4), (4, 2)]:
        assert list(iter_tuples(d, b)) == brute_force_tuples(d, b), (d, b)


# sha256 of json.dumps([t.to_json() for t in enumerate_tuples(d, g)]),
# recorded from the enumeration that tested every word for transitivity
ENUM_SHA256 = {
    (5, 2): (19_200, "486c0d32906c840e43f8c6f91e0ceb737f986162782de95def293cf5c090e894"),
    (4, 3): (58_752, "10c6b1ce6f4d9e0434bf8a5f80533dddf77d5d0f8f9d1cd6fe20f54b04b8dc3d"),
}


@pytest.mark.parametrize("d,g", sorted(ENUM_SHA256))
def test_enumeration_is_pinned(d, g):
    """Past the brute-force oracle: the same tuples in the same order."""
    ts = enumerate_tuples(d, g)
    digest = hashlib.sha256(json.dumps([t.to_json() for t in ts]).encode()).hexdigest()
    assert (len(ts), digest) == ENUM_SHA256[d, g]


# sha256 of the little-endian 16-bit perm_table(6) indices of A, B, T1, T2 of
# every tuple of iter_tuples(6, 2), in order; recorded from the enumeration
# that joined the cycle partitions of A and B as pairs of partition tuples
ENUM_6_2_SHA256 = (259_200, "f4ad752744bcca91c5108e63f3bef9cc192064538ebeb490a7520f86c6f29db7")


def test_degree_six_enumeration_is_pinned():
    """The join of orbit partitions over all 203 partitions of six sheets:
    the same tuples in the same order, digested as table indices."""
    index = perm_table(6)[1]
    digits = array("H")
    n = 0
    for t in iter_tuples(6, 2):
        digits.extend(map(index.__getitem__, t.generators()))
        n += 1
    if sys.byteorder == "big":
        digits.byteswap()
    assert (n, hashlib.sha256(digits.tobytes()).hexdigest()) == ENUM_6_2_SHA256


def set_partitions(d):
    """Every set partition of d sheets, each sheet labelled by the least
    sheet of its block, as _orbits labels them."""
    out = [()]
    for s in range(d):
        out = [p + (x,) for p in out for x in sorted(set(p)) + [s]]
    return out


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_orbit_join_commutes(d):
    """iter_tuples joins the cycle partitions of A and B once per unordered
    pair of partition ids: in least-sheet labels, a partition is its own
    orbits, and the join of two does not depend on which one it starts
    from."""
    parts = set_partitions(d)
    assert len(parts) == [1, 2, 5, 15, 52][d - 1]
    for p in parts:
        assert _orbits(d, [p]) == p
    for p, q in itertools.product(parts, repeat=2):
        assert _orbits(d, [p], q) == _orbits(d, [q], p)


@pytest.mark.parametrize("d,b", [(2, 2), (3, 2), (4, 2), (5, 2), (3, 4)])
def test_enumerated_tuples_are_hurwitz_tuples(d, b):
    """iter_tuples builds its tuples without calling the constructor; each
    is still a HurwitzTuple of degree d with b branch letters."""
    for t in iter_tuples(d, b):
        u = HurwitzTuple(*t)
        assert type(t) is HurwitzTuple and t == u and hash(t) == hash(u)
        assert t.d == d and t.b == b


def test_enumeration_guard():
    # the refusals by degree, by branch count and by tuple count build no
    # table; the first two are the scan's, so (6, 6) is refused by its
    # branch count before its tuple count is taken
    perm_table.cache_clear()
    refused = [
        (5, 4, r"N\(5, 6\) = 243765360 > 3000000"),
        (6, 3, r"N\(6, 4\) = 83481120 > 3000000"),
        (4, 5, r"N\(4, 8\) = 80633856 > 3000000"),
        (6, 4, r"b=6 > 4"),
        (2, 52, r"b=102 > 100"),
        (7, 2, r"d=7 > 6"),
    ]
    for d, g, message in refused:
        with pytest.raises(BudgetExceeded, match=rf"^enumeration guard: {message}$"):
            enumerate_tuples(d, g)
        assert perm_table.cache_info().currsize == 0, (d, g)
    # everything admitted before the count budget stays admitted but (5, 6)
    assert tuple_count(5, 4) <= MAX_ENUM_TUPLES < tuple_count(5, 6)
    # at d = 2 the count stays at 4 up to the branch bound
    assert [len(enumerate_tuples(2, g)) for g in (5, 51)] == [4, 4]


def test_iter_tuples_checks_the_domain_then_the_budget():
    # the stream refuses with the messages enumerate_tuples gives, before
    # building any table
    perm_table.cache_clear()
    refused = [
        (5, 6, r"N\(5, 6\) = 243765360 > 3000000"),
        (6, 5, r"b=5 > 4"),
        (7, 101, r"d=7 > 6"),
    ]
    for d, b, message in refused:
        with pytest.raises(BudgetExceeded, match=rf"^enumeration guard: {message}$"):
            list(iter_tuples(d, b))
        assert perm_table.cache_info().currsize == 0, (d, b)
    # the domain comes first, in the stream and in the count it reads
    for d, b in [(3, -1), (0, 8), (2, -1), (7, -1)]:
        for walk in (tuple_count, lambda d, b: list(iter_tuples(d, b))):
            with pytest.raises(ValueError, match=r"^need d >= 1, b >= 0$"):
                walk(d, b)
    # where no tuple exists (b odd, or one sheet and b > 0) the stream is
    # empty, again before any table: (4, 99) would build 6^99 branch words
    for d, b in [(2, 7), (4, 99), (1, 2), (1, 100)]:
        assert tuple_count(d, b) == 0 and list(iter_tuples(d, b)) == []
        assert perm_table.cache_info().currsize == 0, (d, b)


def test_perm_table_starts_at_the_identity():
    # the packed moves, the tuple stream and the scan start their products
    # at index 0
    for d in range(1, MAX_TABLE_D + 1):
        assert perm_table(d)[0][0] == identity(d)


@pytest.mark.parametrize("d", range(1, MAX_TABLE_D + 1))
def test_perm_table_is_the_cayley_table(d):
    """Every entry of the composed table against a hashed product, read
    "x then y"; at d = 6 that is 518,400 entries."""
    perms, index, mul, inv, transps = perm_table(d)
    assert perms == sorted(itertools.permutations(range(d)))
    assert index == {p: i for i, p in enumerate(perms)}
    for x, p in enumerate(perms):
        assert mul[x] == [index[compose(p, q)] for q in perms], (d, p)
        assert mul[x][inv[x]] == 0 and perms[inv[x]] == inverse(p), (d, p)
    expected = {index[transposition(d, i, j)] for i, j in itertools.combinations(range(d), 2)}
    assert len(transps) == d * (d - 1) // 2 and set(transps) == expected


def test_perm_table_refuses_degrees_below_one():
    # refused before anything is built or cached
    perm_table.cache_clear()
    for d in (0, -2):
        with pytest.raises(ValueError, match=r"^need d >= 1$"):
            perm_table(d)
        assert perm_table.cache_info().currsize == 0, d


def test_orbits_refuse_a_degree_past_the_dense_tables():
    # the dense-table budget is the one gate of a degree-7 tuple passed to
    # orbits(), and it refuses before any table is built or cached
    t12 = transposition(7, 0, 1)
    t = HurwitzTuple(7, (1, 2, 3, 4, 5, 6, 0), identity(7), (t12, t12))
    assert is_valid(t)
    before = perm_table.cache_info().currsize
    with pytest.raises(BudgetExceeded, match=rf"^dense tables are limited to d <= {MAX_TABLE_D}$"):
        orbits([t])
    assert perm_table.cache_info().currsize == before


def test_hurwitz_tuple_is_an_immutable_value():
    t = HurwitzTuple(3, (1, 2, 0), (0, 1, 2), ((1, 0, 2), (1, 0, 2)))
    with pytest.raises(AttributeError):
        t.A = (0, 1, 2)
    twin = HurwitzTuple(3, tuple([1, 2, 0]), tuple([0, 1, 2]), tuple(t.T))
    assert twin == t and hash(twin) == hash(t) and len({t, twin}) == 1
    assert HurwitzTuple.from_json(t.to_json()) == t
    assert HurwitzTuple(2, ID2, ID2).T == () and HurwitzTuple(2, ID2, ID2).b == 0


@pytest.mark.parametrize("d,b", [(2, 2), (3, 2), (4, 2), (3, 4), (2, 6)])
def test_tuple_count_is_the_table_count(d, b):
    """Frobenius's count against every (A, B) and every branch word, counted
    on the multiplication table, transitive or not."""
    perms, index, mul, inv, transps = perm_table(d)
    words = Counter({index[identity(d)]: 1})
    for _ in range(b):
        grown = Counter()
        for p, n in words.items():
            for t in transps:
                grown[mul[p][t]] += n
        words = grown
    count = sum(
        words[mul[mul[mul[a][c]][inv[a]]][inv[c]]] for a in range(len(perms)) for c in range(len(perms))
    )
    assert tuple_count(d, b) == count


def test_everything_enumerated_is_valid():
    for t in iter_tuples(3, 4):
        assert is_valid(t)


def test_braid_move():
    t12, t23 = transposition(3, 0, 1), transposition(3, 1, 2)
    t = HurwitzTuple(3, (1, 2, 0), (0, 1, 2), (t12, t23))
    # this particular pair multiplies to the commutator of A=(123), B=id? recheck:
    if is_valid(t):
        moved = braid_move(t, 0)
        assert moved.T == (then(t12, t23, inverse(t12)), t12)
    # conjugation computation: (12),(23) -> (13),(12)
    conj = then(t12, t23, inverse(t12))
    assert conj == transposition(3, 0, 2)


def braid_move_inverse(t, i):
    """(T_i, T_i+1) -> (T_i+1, T_i+1^-1 T_i T_i+1), the inverse braid move."""
    T = list(t.T)
    T[i], T[i + 1] = T[i + 1], then(inverse(T[i + 1]), T[i], T[i + 1])
    return HurwitzTuple(t.d, t.A, t.B, tuple(T))


def test_braid_move_fixed_point_and_inverse():
    t = HurwitzTuple(2, ID2, ID2, (T12, T12))
    assert braid_move(t, 0) == t  # equal entries are a fixed point
    for s in sample_tuples(31, 40, ds=(3, 4), bs=(2, 4)):
        for i in range(s.b - 1):
            assert braid_move_inverse(braid_move(s, i), i) == s
            assert braid_move(braid_move_inverse(s, i), i) == s
            assert is_valid(braid_move(s, i))


@pytest.mark.parametrize("i", [-1, 1])
def test_braid_move_index_out_of_range(i):
    t = HurwitzTuple(2, ID2, ID2, (T12, T12))
    with pytest.raises(ValueError, match=f"braid index {i} out of range for b=2"):
        braid_move(t, i)


def test_handle_moves_need_a_branch_letter():
    t = HurwitzTuple(2, T12, ID2, ())
    for mv in (PUSH_A, PUSH_B):
        with pytest.raises(ValueError, match="handle moves need at least one branch letter"):
            mv.apply(t)


def test_moves_preserve_validity_and_lattice():
    for t in sample_tuples(32, 60):
        lat = invariant_lattice(t)
        for i in range(t.b - 1):
            t2 = braid_move(t, i)
            assert is_valid(t2) and invariant_lattice(t2) == lat
        for g in [transposition(t.d, 0, 1)] if t.d >= 2 else []:
            t2 = conjugate_tuple(t, g)
            assert is_valid(t2) and invariant_lattice(t2) == lat
        for mv in (PUSH_A, PUSH_B):
            t2 = mv.apply(t)
            assert is_valid(t2) and invariant_lattice(t2) == lat
            # branch entries stay transpositions, conjugate to what they were
            assert all(sorted(x) == list(range(t.d)) for x in t2.T)


def test_handle_moves_pass_symbolic_admission():
    assert admissible(PUSH_A)
    assert admissible(PUSH_B)


def test_admission_rejects_target_twist():
    twist = HandleMove(
        name="twist",
        a_word=wd.w("a", "b"),
        b_word=wd.w("b"),
        t_word=wd.w("t"),
    )
    # the twist does preserve the relation, so it passes the symbolic check...
    assert admissible(twist)
    # ...but it moves the invariant lattice, so it must not be shipped
    witness = HurwitzTuple(2, T12, ID2, ())
    # build a d=4 imprimitive simply branched witness instead
    from severi.hurwitz import iter_tuples
    from severi.monodromy import is_primitive

    imp = next(t for t in iter_tuples(4, 2) if not is_primitive(t))
    assert invariant_lattice(twist.apply(imp)) != invariant_lattice(imp)


def test_admission_rejects_relation_breaker():
    broken = HandleMove(
        name="broken",
        a_word=wd.w("t", "a"),
        b_word=wd.w("b"),
        t_word=wd.w("t"),
    )
    assert not admissible(broken)
    with pytest.raises(ValueError):
        MoveSet(handles=(broken,))


def test_handle_moves_are_bijections_on_enumerated_sets():
    for (d, g) in [(2, 2), (3, 2), (4, 2)]:
        ts = enumerate_tuples(d, g)
        index = set(ts)
        for mv in (PUSH_A, PUSH_B):
            images = {mv.apply(t) for t in ts}
            assert images == index


def test_handle_moves_commute_with_conjugation_up_to_relabeling():
    for t in sample_tuples(33, 30, ds=(3, 4), bs=(2,)):
        g = transposition(t.d, 0, 1)
        for mv in (PUSH_A, PUSH_B):
            left = mv.apply(conjugate_tuple(t, g))
            right = conjugate_tuple(mv.apply(t), g)
            assert left == right


def test_handle_move_changes_handle_entries_at_d2():
    t = HurwitzTuple(2, ID2, ID2, (T12, T12))
    moved = {PUSH_A.apply(t).A, PUSH_B.apply(t).B}
    assert T12 in moved


def test_orbit_counts_small():
    assert orbits(enumerate_tuples(2, 2)).orbit_count == 1
    assert orbits(enumerate_tuples(3, 2)).orbit_count == 1


def move_images(t):
    """The reference list of (name, image) for every move on t, built from
    the object-level moves: the braid moves s1.., the relabelings c1.. by
    adjacent transpositions, then the handle moves of MOVES by name."""
    out = [(f"s{k + 1}", braid_move(t, k)) for k in range(t.b - 1)]
    for k in range(t.d - 1):
        out.append((f"c{k + 1}", conjugate_tuple(t, transposition(t.d, k, k + 1))))
    if t.b:
        out += [(mv.name, mv.apply(t)) for mv in MOVES.handles]
    return out


def move_closure(t, keep=lambda name: True):
    """Every tuple that the moves of move_images whose names pass keep reach
    from t."""
    seen = {t}
    frontier = [t]
    while frontier:
        frontier = [
            t2 for s in frontier for name, t2 in move_images(s) if keep(name) and t2 not in seen
        ]
        seen.update(frontier)
    return sorted(seen, key=lambda s: (s.A, s.B, s.T))


# the transpositions (1 2) and (2 3) of three sheets
S12, S23 = transposition(3, 0, 1), transposition(3, 1, 2)


@pytest.mark.parametrize(
    "T,message",
    [
        # T1 T2 is the identity, not the 3-cycle [A, B]
        ((S12, S12), r"^\[A,B\] != T1\.\.\.Tb$"),
        # T1 T2 = [A, B], but neither letter is a transposition
        (
            (commutator(S12, S23), identity(3)),
            r"^T1 is not a transposition; T2 is not a transposition$",
        ),
    ],
    ids=["relation", "letters"],
)
def test_orbits_rejects_an_invalid_tuple(T, message):
    # the moves keep both defects (T1..Tb [A, B]^-1 up to conjugation, and
    # the conjugacy classes of the letters), so the closure of the broken
    # tuple is one move-closed set of invalid tuples after the valid ones
    broken = HurwitzTuple(3, S12, S23, T)
    with pytest.raises(ValueError, match=message):
        orbits(enumerate_tuples(3, 2) + move_closure(broken))


def decode(key, d, width):
    """The tuple whose perm_table(d) indices are the base-d! digits of key."""
    perms = perm_table(d)[0]
    n = len(perms)
    e = [perms[key // n**i % n] for i in range(width)]
    return HurwitzTuple(d, e[0], e[1], tuple(e[2:]))


@pytest.mark.parametrize("d,g", [(4, 2), (3, 3)])
def test_packed_moves_match_move_images(d, g):
    """Each packed image, read back as the mixed-radix digits in base d! of
    A, B, T_1..T_b, is the tuple move_images gives for the same move: the
    packed images are the braid and handle moves in its order, and the
    packed conjugates by the adjacent transpositions are its relabelings
    c1.., in order."""
    perms, index, *_ = perm_table(d)
    n, width = len(perms), 2 * g
    ts = enumerate_tuples(d, g)
    moves = _PackedMoves(ts)
    for j, t in enumerate(ts):
        entries = [index[p] for p in t.generators()]
        key = sum(x * n**i for i, x in enumerate(entries))
        assert moves.find([key]) == [j]
        decoded = [decode(image, d, width) for image in moves.images(key)]
        assert decoded == [t2 for name, t2 in move_images(t) if name[0] != "c"]
        decoded = [decode(image, d, width) for image in moves.conjugates(key, moves.adjacent)]
        assert decoded == [t2 for name, t2 in move_images(t) if name[0] == "c"]


@pytest.mark.parametrize("d,g", [(3, 2), (4, 2)])
def test_conjugates_are_the_relabeling_closure(d, g):
    """The conjugates of a tuple by all of S_d are its closure under the
    relabeling moves c1.. of move_images, the packed conjugates are those
    conjugates in perm_table order, and the classes of _PackedMoves are
    those closures."""
    perms, index, *_ = perm_table(d)
    ts = enumerate_tuples(d, g)
    moves = _PackedMoves(ts)
    closure_of: dict = {}
    for t in ts:
        if t not in closure_of:
            closure = set(move_closure(t, lambda name: name[0] == "c"))
            closure_of.update(dict.fromkeys(closure, closure))
        conjugates = [conjugate_tuple(t, p) for p in perms]
        assert set(conjugates) == closure_of[t]
        key = sum(index[p] * len(perms) ** i for i, p in enumerate(t.generators()))
        assert [decode(c, d, 2 * g) for c in moves.conjugates(key, range(len(perms)))] == conjugates
    # the constructor's classes are these closures, each named by its least
    # input index
    classes: dict = {}
    for j, c in enumerate(moves.class_of):
        classes.setdefault(c, []).append(j)
    for c, members in classes.items():
        assert c == members[0] and {ts[j] for j in members} == closure_of[ts[c]]


def test_adjacent_conjugates_read_the_relabeling_rows():
    """At (5, 2), the conjugates of each class's tuple by the adjacent
    transpositions, which move_graph_dot draws, are those entries of its
    conjugates by all of S_d, whether the weighted rows are read from the
    memo that the class split filled or built by the adjacent call."""
    moves = _PackedMoves(enumerate_tuples(5, 2))
    every = range(moves.radix)
    keys = [key for _, key, _ in moves.reps]
    for key in keys:
        assert all((x, w) in moves.rows for x, w in zip(moves.unpack(key), moves.weights))
    for key in keys:
        full = moves.conjugates(key, every)
        assert moves.conjugates(key, moves.adjacent) == [full[g] for g in moves.adjacent]
    for key in keys:
        moves.rows.clear()
        adjacent = moves.conjugates(key, moves.adjacent)
        full = moves.conjugates(key, every)
        assert adjacent == [full[g] for g in moves.adjacent]


def test_orbits_rejects_a_set_the_moves_leave():
    ts = enumerate_tuples(3, 2)
    # one relabeling class is closed under conjugation, so only the braid
    # and handle images in the union loop leave it
    relabelings = itertools.permutations(range(3))
    one_class = list(dict.fromkeys(conjugate_tuple(ts[0], g) for g in relabelings))
    assert len(one_class) == 6
    for tuples in (ts[:10], one_class):
        with pytest.raises(AssertionError, match="a move left the enumerated tuple set"):
            orbits(tuples)


def test_orbits_reject_any_set_missing_one_tuple():
    ts = enumerate_tuples(3, 2)
    for i in range(len(ts)):
        with pytest.raises(AssertionError, match="a move left the enumerated tuple set"):
            orbits(ts[:i] + ts[i + 1 :])


def malformed_orbit_inputs(name):
    """(tuples, the exact ValueError message orbits() raises on them)."""
    ts = enumerate_tuples(3, 2)
    one_degree = r"^orbits need tuples of one degree and one branch count$"
    return {
        "empty": ([], r"^no tuples to partition$"),
        "degree": (ts + enumerate_tuples(4, 2)[:1], one_degree),
        "branch-count": (ts + enumerate_tuples(3, 3)[:1], one_degree),
        # (1 1 3) is no permutation, so it is not in the table
        "entry-not-in-table": (
            ts + [HurwitzTuple(3, S12, S23, ((0, 0, 2), S12))],
            r"^T1 is not a permutation of 3 sheets$",
        ),
        # a degree-3 tuple that claims four sheets, in place of the tuple
        # it copies: every entry is in the degree-3 table
        "degree-field": (
            ts[1:] + [HurwitzTuple(4, ts[0].A, ts[0].B, ts[0].T)],
            r"^A is not a permutation of 4 sheets$",
        ),
        # no branch points and trivial A and B: the sheets stay apart
        "intransitive": (
            [HurwitzTuple(3, identity(3), identity(3), ())],
            r"^sheets are not transitively permuted$",
        ),
    }[name]


MALFORMED = ["empty", "degree", "branch-count", "entry-not-in-table", "degree-field", "intransitive"]


@pytest.mark.parametrize("name", MALFORMED)
def test_orbits_rejects_malformed_input(name):
    """orbits() is the one gate of a tuple set: move_graph_dot draws only
    the report of a set that passed it."""
    tuples, message = malformed_orbit_inputs(name)
    with pytest.raises(ValueError, match=message):
        orbits(tuples)


def test_invalid_tuples_raise_invalid_state():
    """A tuple's validity faults raise InvalidState, read alone or in a
    set: as a set entry outside the transpositions and as a class whose
    sheets are not transitively permuted."""
    broken = HurwitzTuple(2, T12, ID2, (ID2, T12))
    message = r"^T1 is not a transposition; \[A,B\] != T1\.\.\.Tb$"
    with pytest.raises(InvalidState, match=message):
        invariant_lattice(broken)
    with pytest.raises(InvalidState, match=message):
        orbits(enumerate_tuples(2, 2) + [broken])
    tuples, message = malformed_orbit_inputs("intransitive")
    with pytest.raises(InvalidState, match=message):
        orbits(tuples)


@pytest.mark.parametrize(
    "d,g,classes,images,unions",
    [(3, 2, 16, 48, 15), (4, 2, 72, 216, 68), (5, 2, 160, 480, 159)],
)
def test_orbit_counters(d, g, classes, images, unions):
    """Each class takes b - 1 braid and two handle images; every union
    joins two trees, so the classes less the unions are the orbits."""
    rep = orbits(enumerate_tuples(d, g))
    assert (rep.classes, rep.images, rep.unions) == (classes, images, unions)
    assert rep.classes - rep.unions == rep.orbit_count
    assert not {"classes", "images", "unions"} & set(rep.to_json())


def test_orbits_check_a_reused_branch_word_against_its_own_commutator():
    # (S12, S12) is the word of the valid ts[0], checked first; with A = S12,
    # B = S23 the commutator is a 3-cycle, not the word's product
    ts = enumerate_tuples(3, 2)
    broken = HurwitzTuple(3, S12, S23, ts[0].T)
    assert ts[0].T == (S12, S12) and ts[0].T in {t.T for t in ts}
    with pytest.raises(InvalidState, match=r"^\[A,B\] != T1\.\.\.Tb$"):
        orbits(ts + [broken])


def test_orbits_accept_a_branch_word_given_as_a_list():
    # a tuple whose word is a list, outside the first tuple of its class,
    # is packed like its tuple-valued copy
    ts = enumerate_tuples(3, 2)
    rep = orbits(ts)
    j = next(i for i, c in enumerate(rep._moves.class_of) if c != i)
    listed = ts[:j] + [HurwitzTuple(3, ts[j].A, ts[j].B, list(ts[j].T))] + ts[j + 1 :]
    rep2 = orbits(listed)
    assert (rep2.orbit_of, rep2.to_json()) == (rep.orbit_of, rep.to_json())
    assert rep2._moves.pos == rep._moves.pos


def test_orbits_refuse_a_longer_word_of_the_same_product():
    # ts[0]'s word and its product, lengthened by a letter and its inverse:
    # a valid tuple of b = 4, refused as a branch count of its own
    ts = enumerate_tuples(3, 2)
    longer = HurwitzTuple(3, ts[0].A, ts[0].B, ts[0].T + (S23, S23))
    assert is_valid(longer)
    message = r"^orbits need tuples of one degree and one branch count$"
    with pytest.raises(ValueError, match=message):
        orbits(ts + [longer])


def test_orbits_reject_a_repeated_tuple():
    ts = enumerate_tuples(3, 2)
    with pytest.raises(ValueError, match=r"^tuple 96 repeats tuple 5$"):
        orbits(ts + [ts[5]])
    with pytest.raises(ValueError, match=r"^tuple 96 repeats tuple 0$"):
        orbits(ts + ts)


@pytest.mark.parametrize("d,g", [(4, 2), (3, 3)])
def test_orbit_of_is_the_least_index_of_the_orbit(d, g):
    """orbit_of names each orbit by its least input index, and shuffling
    the input permutes the tuples but not the partition."""
    ts = enumerate_tuples(d, g)
    shuffled = list(ts)
    random.Random(8).shuffle(shuffled)
    partitions = []
    for tuples in (ts, shuffled):
        members: dict = {}
        for i, o in enumerate(orbits(tuples).orbit_of):
            members.setdefault(o, []).append(i)
        assert all(o == min(m) for o, m in members.items())
        partitions.append({frozenset(tuples[i] for i in m) for m in members.values()})
    assert partitions[0] == partitions[1]
    assert len(partitions[0]) == hurwitz_component_count(d)


def test_orbits_refine_census():
    ts = enumerate_tuples(4, 2)
    rep = orbits(ts)
    census = Counter(invariant_lattice(t) for t in ts)
    assert sum(census.values()) == len(ts)
    # orbits never split across lattices (checked inside orbits); counts agree
    assert sum(rep.lattice_of_orbit.values()) == rep.orbit_count
    assert set(rep.lattice_of_orbit) == set(census)


def test_expected_lattices():
    lats = expected_lattices(4)
    assert len(lats) == 4
    assert all(l.index in (1, 2) for l in lats)
    assert [l.index for l in expected_lattices(2)] == [1]


def test_move_graph_dot():
    ts = enumerate_tuples(2, 2)
    dot = move_graph_dot(orbits(ts))
    assert dot.startswith("graph moves")
    assert dot == move_graph_dot(orbits(ts))


# sha256 of move_graph_dot(orbits(list(iter_tuples(d, b)))), recorded when the edges
# came from the object-level moves; b = 0 has no braids before the relabelings
DOT_SHA256 = {
    (3, 0): "9a6d0a2ae472d7ee7a2f5d1121208ef1375f1099ef4927e0b9acb635d6d72aa8",
    (4, 0): "9fc2f4fd3232e6198c4ebc5df7777979ea8edfe6b0ea2db81a0afbc6e3d76711",
    (3, 2): "3954f8cdf7a45bf8d5a24fdcab378a7e04aadf0bff14ad623514369ebabee1d3",
    (4, 2): "e84227b413ce1b9f120212f9b56c57a8f049f356ed032e0cf31028b932f83bc1",
    (3, 4): "af1e8bfd832e3bc1c42a651c146cb8fe154da96cd5b3fed603d4a65b073d1b48",
    (5, 2): "55cfaba5424c9ba5f65c90939e6d126b8c96eb456d5daf15a4a10f8e523aa04e",
}


@pytest.mark.parametrize("d,b", sorted(DOT_SHA256))
def test_move_graph_dot_bytes_are_pinned(d, b):
    dot = move_graph_dot(orbits(list(iter_tuples(d, b))))
    assert hashlib.sha256(dot.encode()).hexdigest() == DOT_SHA256[d, b]


@pytest.mark.parametrize("d,g", [(4, 2), (3, 3)])
def test_move_graph_components_are_the_orbits(d, g):
    ts = enumerate_tuples(d, g)
    parent = list(range(len(ts)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    rep = orbits(ts)
    edges = re.findall(r"^  n(\d+) -- n(\d+) ", move_graph_dot(rep), re.M)
    assert edges
    for i, j in edges:
        parent[find(int(i))] = find(int(j))
    by_root: dict = {}
    for i in range(len(ts)):
        by_root.setdefault(find(i), set()).add(i)
    by_orbit: dict = {}
    for i, o in enumerate(rep.orbit_of):
        by_orbit.setdefault(o, set()).add(i)
    assert sorted(map(sorted, by_root.values())) == sorted(map(sorted, by_orbit.values()))


@pytest.mark.parametrize("d,g,count", [(3, 2, 1), (4, 2, 4), (5, 2, 1)])
def test_move_graph_component_count_matches_networkx(d, g, count):
    """An independent oracle for union-find and the DOT writer: networkx
    counts the components of the graph the DOT text draws."""
    nx = pytest.importorskip("networkx")
    rep = orbits(enumerate_tuples(d, g))
    graph = nx.Graph()
    graph.add_nodes_from(range(len(rep.tuples)))
    edges = re.findall(r"^  n(\d+) -- n(\d+) ", move_graph_dot(rep), re.M)
    graph.add_edges_from((int(i), int(j)) for i, j in edges)
    assert nx.number_connected_components(graph) == rep.orbit_count == count


def test_scan_small():
    rep = scan_monodromy(3, 2)
    assert rep.ok
    assert rep.tuples == 96
    assert rep.primitive == rep.full == 96
    rep = scan_monodromy(4, 2)
    assert rep.ok
    assert rep.tuples == 1440 and rep.primitive == 1152
    assert sum(rep.census.values()) == 1440


def test_moves_preserve_lattice_on_every_imprimitive_tuple():
    """The strongest contract witnesses: every imprimitive tuple at d = 4."""
    checked = 0
    for (d, b) in [(4, 2), (4, 4)]:
        for t in iter_tuples(d, b):
            lat = invariant_lattice(t)
            if lat.index == 1:
                continue
            checked += 1
            for mv in (PUSH_A, PUSH_B):
                t2 = mv.apply(t)
                assert is_valid(t2)
                assert invariant_lattice(t2) == lat
    assert checked == 288 + 1152


def test_orbit_counts_beyond_calibration():
    """The component counts the moves are calibrated against also hold at
    neighbouring (d, g); one orbit per realized lattice throughout, as
    many as the paper's component count."""
    for (d, g, expect) in [(3, 3, 1), (5, 2, 1), (4, 3, 4), (3, 4, 1), (3, 5, 1)]:
        rep = orbits(list(iter_tuples(d, 2 * g - 2)))
        assert rep.orbit_count == expect == hurwitz_component_count(d)
        assert all(n == 1 for n in rep.lattice_of_orbit.values())


def residues_by_search(t, lat):
    """r(s): the one residue of Z^2 / lat at which a breadth-first search
    over [d] x Z^2/lat from (0, (0, 0)) reaches each sheet s."""
    letters = [(t.A, (1, 0)), (t.B, (0, 1))] + [(x, (0, 0)) for x in t.T]
    seen = {(0, (0, 0))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for s, (x, y) in frontier:
            for p, (dx, dy) in letters:
                state = (p[s], lat.reduce((x + dx, y + dy)))
                if state not in seen:
                    seen.add(state)
                    nxt.append(state)
        frontier = nxt
    r = {}
    for s, res in seen:
        assert r.setdefault(s, res) == res, "a sheet is reached at two residues"
    assert len(r) == t.d
    return r


def block_pairs_by_group(t, lat) -> bool:
    """Whether the orbits of the whole monodromy group on ordered pairs of
    distinct sheets biject with the classes of r(y) - r(x) modulo lat."""
    group = group_closure(t.generators())
    r = residues_by_search(t, lat)
    pairs = [(x, y) for x in range(t.d) for y in range(t.d) if x != y]
    links = set()
    for x, y in pairs:
        orbit = frozenset((g[x], g[y]) for g in group)
        links.add((orbit, lat.reduce((r[y][0] - r[x][0], r[y][1] - r[x][1]))))
    orbits_, classes = {o for o, _ in links}, {c for _, c in links}
    return len(links) == len(orbits_) == len(classes)


def reference_scan(d, b):
    """The scan's tallies, one tuple at a time, without the scan's Schreier
    and block-pair kernels: the lattice from a word search and the
    block-pair verdict from the whole group's pair orbits."""
    rep = ScanReport(d=d, b=b)
    for t in iter_tuples(d, b):
        rep.tuples += 1
        lat = lattice_by_word_search(t)
        rep.census[lat] = rep.census.get(lat, 0) + 1
        primitive = lat == IDENTITY
        full = is_full_monodromy(t)
        rep.primitive += primitive
        rep.full += full
        rep.equivalence_failures += primitive != full
        kernel = kernel_order_check(t)
        if kernel.applicable:
            rep.kernel_checked += 1
            rep.kernel_failures += not kernel.ok
        rep.blockpair_failures += not block_pairs_by_group(t, lat)
    return rep


@pytest.mark.parametrize("d,b", [(2, 0), (3, 0), (3, 2), (3, 4), (4, 2)])
def test_scan_matches_per_tuple_reference(d, b):
    rep = scan_monodromy(d, b)
    ref = reference_scan(d, b)
    for f in fields(ScanReport):
        if f.name not in ("sets", "groups", "closure_keys"):
            assert getattr(rep, f.name) == getattr(ref, f.name), f.name
    assert 0 < rep.groups <= rep.tuples


def test_scan_checks_each_group_once():
    # A runs over one representative per conjugacy class, B over one per
    # orbit of the centralizer of A, and the letter sets, transitive or
    # not, over one per orbit of C(A) ∩ C(B); each set walked is checked
    # once.  With every letter set of each pair the same scans have 1,061
    # and 265 groups, with B over all of S_d too 3,114 and 1,255, and with
    # A over all of S_d too 16,032 and 16,320
    for d, b, groups, sets, closure_keys in [(4, 4, 713, 777, 137), (5, 2, 136, 294, 92)]:
        rep = scan_monodromy(d, b)
        assert (rep.groups, rep.sets, rep.closure_keys) == (groups, sets, closure_keys)
        assert not {"sets", "groups", "closure_keys"} & set(rep.to_json())


@pytest.mark.parametrize("d,b", [(d, b) for d in range(1, 6) for b in range(7)] + [(6, 2), (6, 4)])
def test_pair_class_counts_add_up_to_every_tuple(d, b):
    # Frobenius's count of all tuples, transitive or not, weighs every class
    # the walk yields: one tuple per letter set, or C(A) in place of
    # C(A) ∩ C(B) in the set orbits, would miss it
    assert sum(n for *_, n in _pair_classes(d, b)) == tuple_count(d, b)


def report_digest(rep) -> str:
    return hashlib.sha256(json.dumps(rep.to_json(), sort_keys=True).encode()).hexdigest()


# sha256 of json.dumps(scan_monodromy(d, b).to_json(), sort_keys=True),
# recorded from the scan that walked every B in S_d; (5, 6), the largest
# branch-word table the scan admits, from the scan that walked B modulo
# C(A) and every letter set of each pair
SCAN_SHA256 = {
    (1, 0): "3b1ea750b23d24e0cfe9c9f3204e54994df5863c6fe6f17ef759c09c843f71c5",
    (2, 0): "96870e0f69c23fceffe045d540c2a29029e735ca6e78adf8481eb9ff2ae705e0",
    (3, 0): "2957644afc428bfbd6d162fb00bd3b0971b85a16f1954a92e092371c68b113e7",
    (4, 0): "c3452df38a29ec98ad9c7e1f565a3597c1f20092e8279320fecfadbd97250fd8",
    (2, 2): "ecb2325cdd984acf2f421b294091a739dbfae762878350bbbf692903b9497ad2",
    (3, 2): "0080a2cad42f1a55933bfe587207516a54ae910fa0bfa0b49c42c591575a4dc1",
    (2, 6): "d66d228866ffdd98988d640c9f55d16c1a04f083ba502c09477ef2d963b133be",
    (3, 3): "9663f9dd911f8d5ee5fa9a7670056bbe9fa484360b729d89e5816e783c2aaee7",
    (3, 4): "4aa7445eb35bab78eb910a52761e0ce1b5807588ed9e38379089181913929f12",
    (4, 2): "3cd84e717263e7776ff85743d65917fffc88df0a9b84b404e9f677321ca941d2",
    (4, 4): "14e6e003425107b9ed878dbbc583b8f52381722a7109b7b5dd5bb6df191b6569",
    (5, 2): "f9e4c2e318370d4d4f6bd625b8405bb56a4578575765df5437868d2b28b6b070",
    (5, 4): "df2327f540d9cb8bea56f8ac94f196932a4e68424872560eb3dce11097f73e9e",
    (6, 2): "1e29d79069e62b6b64c7e4e702e0a090bfa17fd948a85f701efbbc9a53a6fb3f",
    (5, 6): "4b722a55381aee032b49e6782c60f36a6781fdf6e7e935acb7684bb7306f6c91",
}


@pytest.mark.parametrize("d,b", sorted(SCAN_SHA256))
def test_scan_report_is_pinned(d, b):
    assert report_digest(scan_monodromy(d, b)) == SCAN_SHA256[d, b]


def test_scan_degree_six():
    rep = scan_monodromy(6, 2)
    assert rep.ok
    # the Frobenius count of transitive (6, 2) tuples (bench/oracle.py)
    assert rep.tuples == 259_200
    assert set(rep.census) == set(expected_lattices(6))


def test_scan_degree_six_four_branch_points():
    rep = scan_monodromy(6, 4)
    assert rep.ok and rep.kernel_failures == 0
    # the Frobenius count of transitive (6, 4) tuples (bench/oracle.py)
    assert rep.tuples == 65_197_440
    assert set(rep.census) == set(expected_lattices(6))
    assert report_digest(rep) == (
        "c6be0c4dee4b90a05ed4ed257c42dbe91cd7b505fbaa7be960521e4ea67a503c"
    )


def test_scan_boundaries():
    # the domain check comes first, so a negative b is a domain error at any d
    for d, b in [(0, 2), (3, -1), (7, -1), (0, 200)]:
        with pytest.raises(ValueError):
            scan_monodromy(d, b)
    assert set(MAX_B) == set(range(1, MAX_TABLE_D + 1))
    assert scan_monodromy(2, MAX_B[2]).tuples == 4
    for d, b in [(3, 1), (4, 3)]:
        rep = scan_monodromy(d, b)
        assert rep.tuples == rep.groups == 0 and rep.ok


def test_scan_refusals_build_no_table():
    perm_table.cache_clear()
    refused = [
        (7, 2, "d=7 > 6"),
        (2, 102, "b=102 > 100"),
        (4, 2_000, "b=2000 > 100"),
        (4, 20_000, "b=20000 > 100"),
        (5, 7, "b=7 > 6"),
        (6, 5, "b=5 > 4"),
        (6, 12, "b=12 > 4"),
    ]
    for d, b, message in refused:
        with pytest.raises(BudgetExceeded, match=rf"^scan guard: {message}$"):
            scan_monodromy(d, b)
        assert perm_table.cache_info().currsize == 0, (d, b)


def test_scan_budget_on_branch_words():
    # each degree's bound on b is the last b whose branch-word table, grown
    # one letter at a time, stays within 40,000 (product, letter set) keys.
    # Appending t t for a letter t of a word keeps its key, so from b = 1 the
    # keys at b + 2 include those at b, and the keys at b + 1 depend only on
    # those at b: once two key sets b apart by 2 are equal, they repeat
    pins = {4: {6: 516, 8: 516}, 5: {6: 32_018, 7: 42_520}, 6: {4: 15_405, 5: 111_420}}
    for d in range(1, MAX_TABLE_D + 1):
        _, _, mul, _, transps = perm_table(d)
        last = 8 if d <= 4 else MAX_B[d] + 1
        keys = [set(_branch_words(mul, transps, b)) for b in range(last + 1)]
        sizes = [len(k) for k in keys]
        assert all(keys[b] <= keys[b + 2] for b in range(1, last - 1))
        assert {b: sizes[b] for b in pins.get(d, ())} == pins.get(d, {})
        if d <= 4:
            # the table saturates at 516 keys, so only the bound of 100
            # stops a long scan
            assert keys[6] == keys[8] and max(sizes) <= 516 and MAX_B[d] == 100
        else:
            assert max(sizes[:-1]) <= 40_000 < sizes[-1]
