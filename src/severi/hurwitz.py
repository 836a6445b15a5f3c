"""Enumeration of cover monodromy tuples and their orbits under branch-point
moves.

For a genus-one target, a genus-g degree-d simply branched cover has
b = 2g - 2 branch points and is encoded by a tuple (A, B, T_1..T_b); see
:mod:`.monodromy`.  Moving the branch points around the target acts on
tuples; orbits of that action are the connected components of the space of
covers.  The move set used here:

* braid moves exchanging adjacent branch letters,
* global conjugation (sheet relabeling),
* two handle moves pushing the last branch point around the two handle
  loops of the target.

:data:`MOVES` is the one admitted move set.  The orbit closure applies it to
one checked tuple set, packed as ``perm_table`` indices
(:class:`_PackedMoves`), which its report keeps for :func:`move_graph_dot`;
the tests check the packed moves against the object-level ones.  The orbit
closure groups the tuples into classes under simultaneous conjugation and
applies only the braid and handle moves, to one tuple per class.  This is
exact: the relabeling moves are conjugations, so each class is closed under
them, and the braid and handle moves commute with conjugation, so the images
of a class are the classes of the images of any one of its tuples.

The exhaustive scan checks one (A, B) pair per orbit of S_d on pairs, and
one letter set per orbit of the pair's stabilizer, each weighted by the
size of its orbit; :func:`_pair_classes` walks them and says why.

The handle-move formulas are data, not doctrine: each is admitted only
after a symbolic check that it preserves the surface relation and sends
the last branch letter to a conjugate of itself, and the shipped pair is
validated by the orbit-count calibration in the test suite.  Twists of the
target itself are deliberately absent; they would change the invariant
lattice, which every admitted move must preserve.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass, field

from . import words as wd
from .base import BudgetExceeded, root
from .lattices import IDENTITY, Lattice2, sublattices
from .monodromy import (
    MAX_TABLE_D,
    HurwitzTuple,
    check_valid,
    compose,
    cycles_of,
    identity,
    inverse,
    pair_orbits_match_classes,
    perm_table,
    sheet_lattice,
    then,
    transposition,
)
from .profiles import partitions

# Budgets, checked before any table is built.  Both table walks, the stream
# and the exhaustive scan, refuse d > ``MAX_TABLE_D`` and b > ``MAX_B[d]``: the
# last b whose scan branch-word table stays within 40,000 (product, letter set)
# keys: 32,018 at (d, b) = (5, 6) and 15,405 at (6, 4), against 42,520 at (5, 7)
# and 111,420 at (6, 5); at d <= 4 it stops at 516 keys, and the (4, 100) scan
# takes 0.3 s of CPU.  The stream also refuses more tuples than MAX_ENUM_TUPLES.
MAX_ENUM_TUPLES = 3_000_000
MAX_B = {1: 100, 2: 100, 3: 100, 4: 100, 5: 6, 6: 4}


def _guard(d: int, b: int, walk: str) -> None:
    """The domain check, then the table bounds, for the named walk."""
    if d < 1 or b < 0:
        raise ValueError("need d >= 1, b >= 0")
    if d > MAX_TABLE_D:
        raise BudgetExceeded(f"{walk} guard: d={d} > {MAX_TABLE_D}")
    if b > MAX_B[d]:
        raise BudgetExceeded(f"{walk} guard: b={b} > {MAX_B[d]}")


def branch_points(g: int) -> int:
    if g < 2:
        raise ValueError("simply branched covers of a genus-one target need g >= 2")
    return 2 * g - 2


# -- enumeration ---------------------------------------------------------------


def iter_tuples(d: int, b: int):
    """All valid tuples of degree d with b branch letters, streamed.

    After the domain check, past ``MAX_TABLE_D``, ``MAX_B[d]`` (as the scan)
    or ``MAX_ENUM_TUPLES`` by :func:`tuple_count` it raises BudgetExceeded,
    and where that count is 0 (b odd, or d = 1 and b > 0) it yields nothing,
    all before any table is built.  For each (A, B), in lexicographic order,
    the branch words of product [A, B] are read from a table of all
    C(d, 2)^b words, built once per call in the order of
    ``itertools.product`` (of table indices).

    Branch letters only add edges to the sheet graph, so a word gives a
    transitive tuple exactly when its transpositions join all the orbits of
    <A, B>, and every word does when <A, B> is transitive.  The orbits
    depend only on the cycle partitions of A and B, so they are joined once
    per pair of partition ids, and the words of each (orbits, product) are
    filtered once, for every (A, B) that shares them.
    """
    _guard(d, b, "enumeration")
    if (count := tuple_count(d, b)) > MAX_ENUM_TUPLES:
        raise BudgetExceeded(f"enumeration guard: N({d}, {b}) = {count} > {MAX_ENUM_TUPLES}")
    if not count:
        return
    perms, index, mul, inv, transps = perm_table(d)
    step = lambda p, t: mul[p][t]
    words: dict = {}  # product -> its words T_1..T_b, as permutations
    letters = itertools.product([perms[t] for t in transps], repeat=b)
    for w, word in zip(itertools.product(transps, repeat=b), letters):
        words.setdefault(functools.reduce(step, w, 0), []).append(word)
    parts = [_orbits(d, [p]) for p in perms]  # the cycle partition of each permutation
    ids: dict = {}  # cycle partition -> its id, the first permutation index with it
    pid = [ids.setdefault(c, i) for i, c in enumerate(parts)]
    orbits_of: dict = {}  # (partition id of A, that of B) -> orbits of <A, B>
    branches: dict = {}  # (orbits of <A, B>, [A, B]) -> branch tuples
    for a_i, a in enumerate(perms):
        row, a_inv, a_id = mul[a_i], inv[a_i], pid[a_i]
        for b_i, bb in enumerate(perms):
            target = mul[mul[row[b_i]][a_inv]][inv[b_i]]
            if target not in words:
                continue
            key = a_id, pid[b_i]
            orbs = orbits_of[key] = orbits_of.get(key) or _orbits(d, [parts[key[1]]], parts[a_id])
            if (orbs, target) not in branches:
                branches[orbs, target] = [
                    t for t in words[target] if not any(orbs) or not any(_orbits(d, t, orbs))
                ]
            for branch in branches[orbs, target]:
                yield HurwitzTuple(d, a, bb, branch)


def _orbits(d: int, gens, start=None) -> tuple[int, ...]:
    """The orbits of the permutations ``gens`` on d sheets, joined to the
    orbits ``start`` if given: the least sheet of each sheet's orbit, by
    union-find, so the group is transitive exactly when every entry is 0."""
    parent = list(start or range(d))
    for p in gens:
        for s in range(d):
            if p[s] != s:
                r, t = sorted((root(parent, s), root(parent, p[s])))
                parent[t] = r
    return tuple(root(parent, s) for s in range(d))


def tuple_count(d: int, b: int) -> int:
    """The tuples (A, B, T_1..T_b) of d sheets with [A, B] = T_1..T_b,
    transitive or not: d! * sum over partitions lam of d of c(lam)^b, by
    Frobenius, the content sum c(lam) being a transposition's central character."""
    if d < 1 or b < 0:
        raise ValueError("need d >= 1, b >= 0")
    contents = (sum(n * (n - 1) // 2 - i * n for i, n in enumerate(lam)) for lam in partitions(d))
    return math.factorial(d) * sum(c**b for c in contents)


def enumerate_tuples(d: int, g: int) -> list[HurwitzTuple]:
    """All valid tuples for degree d, source genus g (so b = 2g - 2), under
    the domain checks and budgets of :func:`iter_tuples`."""
    return list(iter_tuples(d, branch_points(g)))


# -- moves ----------------------------------------------------------------------


def braid_move(t: HurwitzTuple, i: int) -> HurwitzTuple:
    """Exchange branch points i, i+1: (T_i, T_i+1) -> (T_i T_i+1 T_i^-1, T_i)."""
    if not (0 <= i < t.b - 1):
        raise ValueError(f"braid index {i} out of range for b={t.b}")
    T = list(t.T)
    T[i], T[i + 1] = then(T[i], T[i + 1], inverse(T[i])), T[i]
    return HurwitzTuple(t.d, t.A, t.B, tuple(T))


def conjugate_tuple(t: HurwitzTuple, g) -> HurwitzTuple:
    """Relabel sheets by g: every entry x becomes g^-1 x g."""
    gi = inverse(g)
    c = lambda p: then(gi, p, g)
    return HurwitzTuple(t.d, c(t.A), c(t.B), tuple(c(x) for x in t.T))


@dataclass(frozen=True)
class HandleMove:
    """A move given by word formulas in a (= A), b (= B) and t (= last T).

    All other branch letters are untouched.  Formulas are evaluated with
    the library's left-to-right composition.
    """

    name: str
    a_word: wd.Word
    b_word: wd.Word
    t_word: wd.Word

    def apply(self, t: HurwitzTuple) -> HurwitzTuple:
        if t.b < 1:
            raise ValueError("handle moves need at least one branch letter")
        values = {"a": t.A, "b": t.B, "t": t.T[-1]}
        a, b, t2 = (
            wd.evaluate(word, values, compose, identity(t.d), inverse)
            for word in (self.a_word, self.b_word, self.t_word)
        )
        return HurwitzTuple(t.d, a, b, t.T[:-1] + (t2,))


def admissible(mv: HandleMove) -> bool:
    """Symbolic admission check: the formulas must preserve the surface
    relation [a,b] = tau_1 ... tau_{b-1} t identically and send t to a
    conjugate of t."""
    forced = wd.mul(
        wd.w("t"),
        wd.inv(wd.commutator(wd.w("a"), wd.w("b"))),
        wd.commutator(mv.a_word, mv.b_word),
    )
    return forced == mv.t_word and wd.conjugate_of(mv.t_word, "t")


# The two point-pushing moves: push the last branch point around the two
# handle loops.  Derived by searching relator-preserving substitutions and
# pinned down by the lattice-preservation contract and the orbit-count
# calibration; see tests.
PUSH_A = HandleMove(
    name="push_a",
    a_word=wd.w(("b", -1), "t", "b", "a"),
    b_word=wd.w("b"),
    t_word=wd.w(
        "t", "b", "a", ("b", -1), ("a", -1), ("b", -1),
        "t",
        "b", "a", "b", ("a", -1), ("b", -1), ("t", -1),
    ),
)

PUSH_B = HandleMove(
    name="push_b",
    a_word=wd.w("a"),
    b_word=wd.w("t", "b"),
    t_word=wd.w(
        "t", "b", "a", ("b", -1),
        "t",
        "b", ("a", -1), ("b", -1), ("t", -1),
    ),
)


@dataclass(frozen=True)
class MoveSet:
    handles: tuple[HandleMove, ...] = (PUSH_A, PUSH_B)

    def __post_init__(self) -> None:
        for mv in self.handles:
            if not admissible(mv):
                raise ValueError(f"handle move {mv.name!r} fails the admission check")


# The one move set; building it runs the admission check.
MOVES = MoveSet()


def default_moves() -> MoveSet:
    return MOVES


class _PackedMoves:
    """One checked tuple set, packed, split into relabeling classes, and the
    moves of :data:`MOVES` on its packed tuples.

    A tuple (A, B, T_1..T_b) of degree d is packed as one int: the
    ``perm_table(d)`` indices of its entries are the digits of a mixed-radix
    number in base d!, A the lowest.  Every move is a few table lookups on
    those indices; the handle words go through :func:`.words.evaluate` over
    the multiplication table, whose identity is index 0.

    The constructor, run once per :func:`orbits` call on a nonempty set, is
    the one gate of a tuple set.  It checks the first tuple's degree d <=
    ``MAX_TABLE_D`` and branch count, no repeat, every T a transposition and
    T_1..T_b = [A, B], else a ValueError: A and B by a table lookup each,
    the letters once per distinct branch word, whose product each tuple
    compares with [A, B].  In input order, the first tuple not yet placed
    opens a relabeling class of all its conjugates by S_d, named by its
    input index (``class_of``); its invariant lattice, computed once per
    class, must exist, that is, the sheets must be transitively permuted.
    ``reps`` holds (name, packed key, lattice) per class, ``census`` the
    tuples per lattice and ``pos`` {packed key: input index}, which
    :meth:`find` reads.
    """

    def __init__(self, tuples: list):
        d, b = tuples[0].d, tuples[0].b
        perms, index, mul, inv, transps = perm_table(d)
        self.d, self.perms, self.mul, self.inv, self.radix = d, perms, mul, inv, len(perms)
        self.adjacent = [index[transposition(d, k, k + 1)] for k in range(d - 1)]
        self.width, self.weights = b + 2, [self.radix**i for i in range(b + 2)]
        transps, radix, weights = frozenset(transps), self.radix, self.weights[2:]
        words: dict = {}  # valid branch word -> (packed digits, product)

        def pack(word):  # words[word], kept when first seen, or None if invalid
            digits = prod = 0
            for x, w in zip(map(index.get, word), weights):
                if x not in transps:
                    return None
                digits, prod = digits + x * w, mul[prod][x]
            return words.setdefault(tuple(word), (digits, prod))

        self.pos = pos = {}
        for i, t in enumerate(tuples):
            a, bb = index.get(t.A), index.get(t.B)
            ok = t.d == d and len(t.T) == b and a is not None and bb is not None
            if ok:
                try:
                    packed = words[t.T]
                except (KeyError, TypeError):  # a new or invalid word, or a list
                    packed = pack(t.T)
                ok = packed is not None and packed[1] == mul[mul[mul[a][bb]][inv[a]]][inv[bb]]
            if not ok:
                check_valid(t)
                raise ValueError("orbits need tuples of one degree and one branch count")
            j = pos.setdefault(a + bb * radix + packed[0], i)
            if j != i:
                raise ValueError(f"tuple {i} repeats tuple {j}")
        self.class_of = class_of = [None] * len(tuples)
        self.reps, self.census = [], Counter()
        for i, key in enumerate(pos):
            if class_of[i] is not None:
                continue
            lat = sheet_lattice(d, tuples[i].generators())[2]
            if lat is None:
                check_valid(tuples[i])
            members = set(self.find(self.conjugates(key, range(radix))))
            for j in members:
                class_of[j] = i
            self.census[lat] += len(members)
            self.reps.append((i, key, lat))

    def find(self, keys) -> list[int]:
        """The input index of each packed tuple of ``keys``, in order; a key
        outside the set raises AssertionError, since no move may leave it."""
        try:
            return list(map(self.pos.__getitem__, keys))
        except KeyError:
            raise AssertionError("a move left the enumerated tuple set") from None

    def unpack(self, key: int) -> list[int]:
        return [key // w % self.radix for w in self.weights]

    def conjugates(self, key: int, gs) -> list[int]:
        """The packed conjugate of the tuple ``key`` by each table index g
        of ``gs``, in order: every entry x becomes g^-1 x g.  All of
        ``range(radix)`` gives its relabeling class, and :attr:`adjacent`
        the relabeling moves c1.., c{d-1} by (1 2), (2 3), ..."""
        mul = self.mul
        rows = [mul[self.inv[g]] for g in gs]
        out = [0] * len(rows)
        for x, wk in zip(self.unpack(key), self.weights):
            out = [o + mul[row[x]][g] * wk for g, o, row in zip(gs, out, rows)]
        return out

    def images(self, key: int) -> list[int]:
        """The packed image of the tuple ``key`` under each braid move
        s1.., s{b-1}, then each handle move of :data:`MOVES`, in order."""
        e = self.unpack(key)
        mul, inv, w = self.mul, self.inv, self.weights
        compose = lambda x, y: mul[x][y]
        out = []
        for k in range(2, self.width - 1):
            x, y = e[k], e[k + 1]
            out.append(key + (mul[mul[x][y]][inv[x]] - x) * w[k] + (x - y) * w[k + 1])
        if self.width > 2:
            a, b, t = e[0], e[1], e[-1]
            values = {"a": a, "b": b, "t": t}
            for mv in MOVES.handles:
                a2, b2, t2 = (
                    wd.evaluate(word, values, compose, 0, inv.__getitem__)
                    for word in (mv.a_word, mv.b_word, mv.t_word)
                )
                out.append(key + (a2 - a) * w[0] + (b2 - b) * w[1] + (t2 - t) * w[-1])
        return out


# -- orbits ---------------------------------------------------------------------


def _per_lattice(counts: dict, name: str) -> list:
    """The JSON list of ``counts``, a count per lattice, in lattice order."""
    return [{"lattice": lat.to_json(), name: n} for lat, n in sorted(counts.items())]


@dataclass
class OrbitReport:
    """The orbit partition of a tuple set under the moves.

    ``orbit_of[i]`` is the least input index in the orbit of tuple i, so
    it does not depend on the order in which the moves are applied.
    ``classes`` counts the relabeling classes the orbits are made of,
    ``images`` the packed move images looked up, and ``unions`` the images
    that joined two union-find trees; none is in :meth:`to_json`, nor is
    ``_moves``, the set :func:`move_graph_dot` draws, in ``repr`` or ``==``.
    """

    d: int
    b: int
    tuples: tuple[HurwitzTuple, ...]
    orbit_of: tuple[int, ...]
    orbit_count: int
    lattice_of_orbit: dict = field(default_factory=dict)
    census: dict = field(default_factory=dict)
    classes: int = 0
    images: int = 0
    unions: int = 0
    _moves: _PackedMoves | None = field(default=None, repr=False, compare=False)

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "b": self.b,
            "tuple_count": len(self.tuples),
            "orbit_count": self.orbit_count,
            "census": _per_lattice(self.census, "tuples"),
            "orbits_per_lattice": _per_lattice(self.lattice_of_orbit, "orbits"),
        }


def orbits(tuples) -> OrbitReport:
    """Union-find closure of the move action on relabeling classes; reports
    the orbit count and, per orbit, the common invariant lattice.

    The tuples pass the one gate, :class:`_PackedMoves`, which the report
    keeps: it refuses a mixed, repeated, invalid or intransitive set, packs the
    tuples and splits them into relabeling classes with one invariant lattice
    each.  Only the braid and handle moves are applied, to each class's first
    tuple, and the classes of the images are joined; the module docstring says
    why this gives the orbits of the whole move set.  Every image must be in
    the set, and every orbit must have one lattice.
    """
    tuples = list(tuples)
    if not tuples:
        raise ValueError("no tuples to partition")
    moves = _PackedMoves(tuples)
    reps, class_of = moves.reps, moves.class_of

    # union-find on the class names: each root is its tree's least index
    parent = {i: i for i, _, _ in reps}
    images = unions = 0
    for i, key, _ in reps:
        for j in moves.find(moves.images(key)):
            r, s = sorted((root(parent, i), root(parent, class_of[j])))
            parent[s] = r
            images += 1
            unions += r != s

    lattice_of_root: dict = {}
    for i, _, lat in reps:
        # pointed at its root, a name maps to its orbit's least input index
        parent[i] = r = root(parent, i)
        if lattice_of_root.setdefault(r, lat) != lat:
            raise AssertionError("an orbit mixes two invariant lattices")
    return OrbitReport(
        d=moves.d,
        b=moves.width - 2,
        tuples=tuple(tuples),
        orbit_of=tuple(map(parent.__getitem__, class_of)),
        orbit_count=len(lattice_of_root),
        lattice_of_orbit=Counter(lattice_of_root.values()),
        census=moves.census,
        classes=len(reps),
        images=images,
        unions=unions,
        _moves=moves,
    )


def expected_lattices(d: int) -> tuple[Lattice2, ...]:
    """Lattices realizable by simply branched tuples: index divides d but is
    not d (the primitive part must have degree at least two)."""
    return tuple(sorted(lat for e in range(1, d) if d % e == 0 for lat in sublattices(e)))


def move_graph_dot(report: OrbitReport) -> str:
    """DOT rendering of the move graph on the tuples of ``report``, read off
    the set that :func:`orbits` checked and kept, so it refuses nothing.
    Per tuple, the edges are the packed braid moves s1.., the relabeling
    moves c1.. by adjacent transpositions, then the handle moves by name;
    the node labels join one cycle string per ``perm_table`` entry."""
    moves, d, b = report._moves, report.d, report.b
    names = [f"s{k + 1}" for k in range(b - 1)] + [f"c{k + 1}" for k in range(d - 1)]
    names += [mv.name for mv in MOVES.handles] if b else []
    c = lambda p: "".join("(" + " ".join(map(str, x)) + ")" for x in cycles_of(p)) or "id"
    cycles = list(map(c, moves.perms))
    lines = ["graph moves {"]
    for key, i in moves.pos.items():
        a, bb, *branch = map(cycles.__getitem__, moves.unpack(key))
        lines.append(f'  n{i} [label="A={a} B={bb} T={"|".join(branch)}"];')
    seen = set()
    for key, i in moves.pos.items():
        images = moves.images(key)
        images[max(b - 1, 0) : max(b - 1, 0)] = moves.conjugates(key, moves.adjacent)
        for name, j in zip(names, moves.find(images)):
            edge = (min(i, j), max(i, j), name)
            if i != j and edge not in seen:
                seen.add(edge)
                lines.append(f'  n{edge[0]} -- n{edge[1]} [label="{name}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- exhaustive verification scans ----------------------------------------------


@dataclass
class ScanReport:
    d: int
    b: int
    tuples: int = 0
    # sets: the (A, B, set of T) classes walked, transitive or not; groups:
    # the transitive ones, whose group was checked; closure_keys: the
    # distinct generator sets whose group was closed; none is in to_json
    sets: int = 0
    groups: int = 0
    closure_keys: int = 0
    primitive: int = 0
    full: int = 0
    equivalence_failures: int = 0
    kernel_checked: int = 0
    kernel_failures: int = 0
    blockpair_failures: int = 0
    census: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not (
            self.equivalence_failures or self.kernel_failures or self.blockpair_failures
        )

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "b": self.b,
            "tuples": self.tuples,
            "primitive": self.primitive,
            "full_monodromy": self.full,
            "equivalence_failures": self.equivalence_failures,
            "kernel_checked": self.kernel_checked,
            "kernel_failures": self.kernel_failures,
            "blockpair_failures": self.blockpair_failures,
            "census": _per_lattice(self.census, "tuples"),
            "ok": self.ok,
        }


def scan_monodromy(d: int, b: int) -> ScanReport:
    """Verify, for every valid (d, b) tuple:

    * primitivity (full invariant lattice) iff full monodromy (|G| = d!),
    * |G| = (dtilde!)^e * |quotient| for the canonical factorization,
    * monodromy orbits on ordered pairs of distinct sheets biject with
      translation orbits on pairs of blocks.

    Every check depends on a tuple only through A, B and the *set* of its
    branch letters.  Transitivity and the invariant lattice are read off
    the sheet graph, which has the same edges whatever the order and
    multiplicity of the branch letters; the group is generated by the set;
    and the block-pair verdict compares orbits with the classes of
    w(y) - w(x) modulo the lattice, which another spanning tree shifts by
    lattice vectors only.  So each transitive (A, B, set) class that
    :func:`_pair_classes` yields is checked once, and every tally adds the
    class's tuple count.

    Fullness is decided on subgroups first.  For each letter t of the set,
    in order, the group <A, B, t> is closed, and the first one of order d!
    settles it: a group that contains a subgroup of order d! is S_d.  Only
    when no such subgroup is full is the group of the whole set closed, so
    the order the kernel check reads is d! or the true |G|.  No theorem on
    primitive groups is used, so "primitive iff full" stays a real check.
    Each closure is cached by its sorted generator indices for the call;
    ``closure_keys`` counts the distinct ones.

    The kernel-order check is a claim about ramified tuples, so it is
    tallied only for b >= 1.  Counts failures instead of raising, so a red
    run is inspectable; it refuses first, by the guard :func:`iter_tuples` shares.
    """
    _guard(d, b, "scan")
    perms, _, mul, _, _ = perm_table(d)
    dfact = math.factorial(d)
    half = dfact // 2

    @functools.cache
    def closure_order(key) -> int:
        seen = bytearray(dfact)
        seen[0] = 1
        frontier = [0]
        order = 1
        while frontier:
            nxt = []
            for p in frontier:
                row = mul[p]
                for g in key:
                    q = row[g]
                    if not seen[q]:
                        seen[q] = 1
                        nxt.append(q)
            order += len(nxt)
            if order > half:
                order = dfact  # a proper subgroup has order at most d!/2
                break
            frontier = nxt
        return order

    # When |G| = d! the group is literally all of S_d, whose transitivity on
    # ordered pairs of distinct sheets is checked here once (the pair check
    # with a single block); the per-group pair check then only runs on
    # groups with smaller monodromy.
    sd_letters = [(transposition(d, i, i + 1), (0, 0)) for i in range(d - 1)]
    sd_pair_transitive = pair_orbits_match_classes(d, sd_letters, IDENTITY, [(0, 0)] * d)

    report = ScanReport(d=d, b=b)
    for a_i, b_i, used, branch, n in _pair_classes(d, b):
        report.sets += 1
        letters, w, lat = sheet_lattice(d, [perms[a_i], perms[b_i], *branch])
        if lat is None:
            continue
        report.groups += 1
        report.tuples += n
        report.census[lat] = report.census.get(lat, 0) + n
        primitive = lat == IDENTITY
        # a group with a subgroup of order d! is S_d; the whole set is
        # closed only when no {A, B, t} is full
        order = dfact
        if not any(closure_order(tuple(sorted({a_i, b_i, t}))) == dfact for t in used):
            order = closure_order(tuple(sorted({a_i, b_i, *used})))
        full = order == dfact
        if primitive:
            report.primitive += n
        if full:
            report.full += n
        if primitive != full:
            report.equivalence_failures += n

        # kernel order under the canonical factorization, a claim about
        # ramified tuples only; the quotient group has order e, as
        # monodromy.kernel_order_check states, and each block holds d / e
        # sheets of a transitive tuple, so e divides d
        e = lat.index
        if b:
            report.kernel_checked += n
            if math.factorial(d // e) ** e * e != order:
                report.kernel_failures += n

        if full and primitive:
            if not sd_pair_transitive:
                report.blockpair_failures += n
        elif not pair_orbits_match_classes(d, letters, lat, w):
            report.blockpair_failures += n
    report.closure_keys = closure_order.cache_info().currsize
    return report


def _pair_classes(d: int, b: int):
    """Yield (A, B, used, branch, n): one class of the tuples of d sheets
    with b branch letters, transitive or not, and n, its number of tuples,
    so the n add up to :func:`tuple_count`.  A and B are ``perm_table(d)``
    indices; the letter set is given by its sorted indices ``used`` and its
    permutations ``branch``, built once per set.

    Every check of :func:`scan_monodromy` is invariant under simultaneous
    conjugation of all entries, which relabels the sheets, and the table
    of branch words does not depend on A.  Conjugating by g maps the
    tuples with first entry A one to one onto those with first entry
    g^-1 A g, word counts included.  So A runs over one representative per
    conjugacy class (cycle type) only, and each count is multiplied by the
    size of that class; the tallies are exactly those of the loop over all
    of S_d.

    B is reduced the same way.  The centralizer C(A) = {c : c^-1 A c = A}
    is read off the multiplication table, and conjugating by c in C(A)
    fixes A and maps the branch words of [A, B] one to one onto those of
    [A, c^-1 B c], letter sets and word counts included, changing no
    check.  So B runs over the least-index member of each C(A)-orbit only,
    and each count is also multiplied by the size of that orbit.  The
    (A, B) pairs visited are then one per orbit of S_d on pairs.

    The letter sets of a pair are reduced once more.  Conjugating by c in
    the stabilizer C(A) ∩ C(B) of the pair fixes A, B and [A, B], and maps
    the branch words of one letter set one to one onto those of the
    conjugate set, again changing no check.  So of each orbit of letter
    sets under the stabilizer only the first set in table order is
    yielded, and its count is also multiplied by the orbit's size
    (orbit-stabilizer: the stabilizer's order over that of the set's own
    stabilizer in it).
    """
    perms, _, mul, inv, transps = perm_table(d)
    sets_of_product: dict = {}
    for (p, used), n in _branch_words(mul, transps, b).items():
        sets_of_product.setdefault(p, []).append((used, [perms[x] for x in used], n))

    classes: dict = {}
    for i, p in enumerate(perms):
        classes.setdefault(tuple(sorted(map(len, cycles_of(p)))), []).append(i)

    for members in classes.values():
        a_i = members[0]
        row_a = mul[a_i]
        # the centralizer C(A) as (c^-1, c) pairs; B runs over the least
        # index of each C(A)-orbit, which is the first one not yet covered
        centralizer = [(inv[c], c) for c in range(len(perms)) if row_a[c] == mul[c][a_i]]
        covered = bytearray(len(perms))
        for b_i in range(len(perms)):
            if covered[b_i]:
                continue
            orbit = {mul[mul[ci][b_i]][c] for ci, c in centralizer}
            for x in orbit:
                covered[x] = 1
            target = mul[mul[row_a[b_i]][inv[a_i]]][inv[b_i]]
            # the stabilizer of the pair, C(A) ∩ C(B), as (c^-1, c) pairs;
            # each letter set is yielded only if no conjugate came first
            stabilizer = [(ci, c) for ci, c in centralizer if mul[c][b_i] == mul[b_i][c]]
            conjugated: set = set()
            for used, branch, words in sets_of_product.get(target, ()):
                size = 1
                if len(stabilizer) > 1:
                    if used in conjugated:
                        continue
                    images = {
                        tuple(sorted(mul[mul[ci][x]][c] for x in used)) for ci, c in stabilizer
                    }
                    conjugated |= images
                    size = len(images)
                yield a_i, b_i, used, branch, words * len(members) * len(orbit) * size


def _branch_words(mul, transps, b: int) -> dict:
    """Count the ordered words T_1..T_b of transpositions by (product, sorted
    tuple of the distinct letters used).

    Grown one letter at a time, so the table never holds more than
    d! * (number of letter sets) keys, however many words there are.
    """
    counts = {(0, ()): 1}
    for _ in range(b):
        grown: dict = {}
        for (p, used), n in counts.items():
            row = mul[p]
            for t in transps:
                key = (row[t], used if t in used else tuple(sorted(used + (t,))))
                grown[key] = grown.get(key, 0) + n
        counts = grown
    return counts
