"""Permutation models of simply branched covers of a genus-one curve.

A cover of degree d with b branch points is encoded by a tuple
(A, B, T_1..T_b) of permutations of the sheets: A and B are the monodromies
of the two handle loops, the T_i are the branch monodromies, each a
transposition, subject to

    [A, B] = T_1 T_2 ... T_b      and      <A, B, T_*> transitive.

Composition convention, fixed once and used everywhere: ``compose(p, q)``
applies p first, then q; juxtaposition in a product reads left to right;
the commutator is [A, B] = A B A^-1 B^-1 in that reading.

The image of the cover's fundamental group inside Z^2 (the fundamental
group of the target) is computed by abelianizing Schreier generators of the
stabilizer of sheet 0, with A mapping to (1,0), B to (0,1) and every T to
(0,0).  The cover is primitive exactly when that lattice is all of Z^2,
and, for simply branched covers, exactly when the monodromy group is the
full symmetric group.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

from .base import BudgetExceeded, InvalidState, expect, field_of, root
from .lattices import IDENTITY, Lattice2, hnf

# The largest group order a closure may reach: |S_8|.
MAX_CLOSURE_ORDER = 40_320

# The largest sheet count a tuple document may name.
MAX_TUPLE_D = 10_000

# The largest degree d whose S_d has a dense table, :func:`perm_table`.
MAX_TABLE_D = 6


# -- permutations on {0..d-1}, word form -------------------------------------


def identity(d: int) -> tuple[int, ...]:
    return tuple(range(d))


def compose(p, q) -> tuple[int, ...]:
    """Apply p, then q."""
    return tuple(q[x] for x in p)


def then(*perms) -> tuple[int, ...]:
    acc = perms[0]
    for p in perms[1:]:
        acc = compose(acc, p)
    return acc


def inverse(p) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def transposition(d: int, i: int, j: int) -> tuple[int, ...]:
    if not (0 <= i < d and 0 <= j < d and i != j):
        raise ValueError("transposition needs two distinct sheets")
    out = list(range(d))
    out[i], out[j] = out[j], out[i]
    return tuple(out)


def is_transposition(p) -> bool:
    moved = [i for i, x in enumerate(p) if x != i]
    return len(moved) == 2 and p[moved[0]] == moved[1]


def commutator(a, b) -> tuple[int, ...]:
    return then(a, b, inverse(a), inverse(b))


def cycles_of(p) -> list[list[int]]:
    """Nontrivial cycles, 1-based, for the JSON form."""
    seen = [False] * len(p)
    out = []
    for i in range(len(p)):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(j + 1)
            j = p[j]
        out.append(cyc)
    return out


def perm_from_cycles(d: int, cycles) -> tuple[int, ...]:
    out = list(range(d))
    for cyc in cycles:
        cyc = [int(x) - 1 for x in cyc]
        if any(not 0 <= x < d for x in cyc) or len(set(cyc)) != len(cyc):
            raise ValueError(f"bad cycle {cyc} for degree {d}")
        for k in range(len(cyc)):
            out[cyc[k]] = cyc[(k + 1) % len(cyc)]
    return tuple(out)


# -- Hurwitz tuples -----------------------------------------------------------


class HurwitzTuple(NamedTuple):
    d: int
    A: tuple[int, ...]
    B: tuple[int, ...]
    T: tuple[tuple[int, ...], ...] = ()

    @property
    def b(self) -> int:
        return len(self.T)

    def generators(self) -> tuple[tuple[int, ...], ...]:
        return (self.A, self.B) + self.T

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "A": cycles_of(self.A),
            "B": cycles_of(self.B),
            "T": [cycles_of(t) for t in self.T],
        }

    @staticmethod
    def from_json(data) -> "HurwitzTuple":
        """Parse a tuple in the shape of ``docs/tuple.schema.json``.

        A document of the wrong shape, or with ``d`` below 1, raises
        :class:`~.base.InvalidState` naming the field; ``d`` above
        ``MAX_TUPLE_D`` raises :class:`BudgetExceeded` before any
        permutation is built.  An omitted A, B or T means the identity or
        no branch letters."""
        expect(data, "object", "tuple")
        d = field_of(data, "d", "integer", "tuple")
        if d < 1:
            raise InvalidState(f"tuple.d must be at least 1, got {d}")
        if d > MAX_TUPLE_D:
            raise BudgetExceeded(f"tuple.d={d} > {MAX_TUPLE_D}")
        A = _perm_from_json(d, data.get("A", []), "tuple.A")
        B = _perm_from_json(d, data.get("B", []), "tuple.B")
        T = field_of(data, "T", "array", "tuple", default=[])
        return HurwitzTuple(
            d, A, B, tuple(_perm_from_json(d, c, f"tuple.T[{i}]") for i, c in enumerate(T))
        )


def _perm_from_json(d: int, cycles, where: str) -> tuple[int, ...]:
    expect(cycles, "array", where)
    for i, cyc in enumerate(cycles):
        expect(cyc, "array", f"{where}[{i}]")
        for x in cyc:
            expect(x, "integer", f"{where}[{i}]")
    return perm_from_cycles(d, cycles)


def violations(t: HurwitzTuple) -> tuple[str, ...]:
    out: list[str] = []
    for name, p in (("A", t.A), ("B", t.B)) + tuple(
        (f"T{i+1}", ti) for i, ti in enumerate(t.T)
    ):
        if len(p) != t.d or sorted(p) != list(range(t.d)):
            out.append(f"{name} is not a permutation of {t.d} sheets")
            return tuple(out)
    for i, ti in enumerate(t.T):
        if not is_transposition(ti):
            out.append(f"T{i+1} is not a transposition")
    prod = identity(t.d)
    for ti in t.T:
        prod = compose(prod, ti)
    if commutator(t.A, t.B) != prod:
        out.append("[A,B] != T1...Tb")
    if t.d < 1 or sheet_lattice(t.d, t.generators())[2] is None:
        out.append("sheets are not transitively permuted")
    return tuple(out)


def is_valid(t: HurwitzTuple) -> bool:
    return not violations(t)


def check_valid(t: HurwitzTuple) -> None:
    bad = violations(t)
    if bad:
        raise ValueError("; ".join(bad))


# -- group closure ------------------------------------------------------------


def group_closure(gens) -> frozenset:
    """The subgroup generated, by breadth-first closure; guarded by d! <=
    :data:`MAX_CLOSURE_ORDER`."""
    gens = [tuple(g) for g in gens]
    if not gens:
        raise ValueError("need at least one generator")
    d = len(gens[0])
    if any(len(g) != d for g in gens):
        raise ValueError("generators must share a degree")
    if math.factorial(d) > MAX_CLOSURE_ORDER:
        raise BudgetExceeded(
            f"group closure needs {math.factorial(d)} > budget {MAX_CLOSURE_ORDER}"
        )
    seen = {identity(d)}
    frontier = [identity(d)]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = compose(p, g)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return frozenset(seen)


# -- the invariant lattice ----------------------------------------------------


def sheet_lattice(d: int, gens):
    """The sheet letters of the tuple generators ``gens`` (A, B, then the
    branch letters), the words w of a spanning tree and the invariant
    lattice, which is None when the letters do not act transitively.

    A letter pairs a generator with its image in Z^2: (1, 0) for A, (0, 1)
    for B, (0, 0) for a branch letter.  The breadth-first tree of the sheet
    graph from sheet 0 sums the images along the path to each sheet s into
    ``w[s]`` (None where s is not reached).  The nonzero abelianized
    Schreier generators w(s) + v - w(p(s)) of the stabilizer of sheet 0
    span the lattice; ``hnf`` reads them lazily, up to spanning Z^2."""
    letters = [(gens[0], (1, 0)), (gens[1], (0, 1))] + [(p, (0, 0)) for p in gens[2:]]
    w: list[tuple[int, int] | None] = [None] * d
    w[0] = (0, 0)
    order = [0]
    for s in order:
        x, y = w[s]
        for p, (dx, dy) in letters:
            s2 = p[s]
            if w[s2] is None:
                w[s2] = (x + dx, y + dy)
                order.append(s2)
    if len(order) < d:
        return letters, w, None

    def rows(letters, w, order):  # arguments, not cells, keep the loops above fast
        for s in order:
            x, y = w[s]
            for p, (dx, dy) in letters:
                x2, y2 = w[p[s]]
                if x + dx != x2 or y + dy != y2:
                    yield x + dx - x2, y + dy - y2

    return letters, w, hnf(rows(letters, w, order))


def invariant_lattice(t: HurwitzTuple) -> Lattice2:
    """Image of the cover's fundamental group in Z^2, in Hermite form."""
    check_valid(t)
    return sheet_lattice(t.d, t.generators())[2]


def is_primitive(t: HurwitzTuple) -> bool:
    return invariant_lattice(t) == IDENTITY


def is_full_monodromy(t: HurwitzTuple) -> bool:
    check_valid(t)
    return len(group_closure(t.generators())) == math.factorial(t.d)


# -- canonical factorization --------------------------------------------------


@dataclass(frozen=True)
class Factorization:
    lattice: Lattice2
    block_of: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]
    a_bar: tuple[int, ...]
    b_bar: tuple[int, ...]

    @property
    def e(self) -> int:
        """Degree of the intermediate unramified cover."""
        return len(self.blocks)

    @property
    def dtilde(self) -> int:
        """Degree of the primitive part."""
        return len(self.block_of) // len(self.blocks)

    def to_json(self) -> dict:
        return {
            "lattice": self.lattice.to_json(),
            "blocks": [list(b) for b in self.blocks],
            "e": self.e,
            "dtilde": self.dtilde,
            "quotient_A": cycles_of(self.a_bar),
            "quotient_B": cycles_of(self.b_bar),
        }


def factorize(t: HurwitzTuple) -> Factorization:
    """Factor the cover through the maximal intermediate unramified cover.

    Sheets fall into blocks indexed by Z^2 modulo the invariant lattice;
    A and B act on blocks as translations by (1,0) and (0,1), the branch
    letters act trivially."""
    check_valid(t)
    _, w, lat = sheet_lattice(t.d, t.generators())
    residues = lat.residues()
    res_index = {r: i for i, r in enumerate(residues)}
    block_of = tuple(res_index[lat.reduce(ws)] for ws in w)
    blocks = tuple(
        tuple(s for s in range(t.d) if block_of[s] == i) for i in range(len(residues))
    )
    if any(len(b) * len(blocks) != t.d for b in blocks):
        raise AssertionError("blocks of unequal size; lattice index must divide d")
    a_bar = tuple(res_index[lat.reduce((r[0] + 1, r[1]))] for r in residues)
    b_bar = tuple(res_index[lat.reduce((r[0], r[1] + 1))] for r in residues)
    for ti in t.T:
        for s in range(t.d):
            if block_of[ti[s]] != block_of[s]:
                raise AssertionError("branch letters must preserve blocks")
    for s in range(t.d):
        if block_of[t.A[s]] != a_bar[block_of[s]] or block_of[t.B[s]] != b_bar[block_of[s]]:
            raise AssertionError("handle letters must act on blocks as translations")
    return Factorization(
        lattice=lat, block_of=block_of, blocks=blocks, a_bar=a_bar, b_bar=b_bar
    )


@dataclass(frozen=True)
class KernelReport:
    applicable: bool
    e: int = 0
    dtilde: int = 0
    quotient_order: int = 0
    expected: int = 0
    actual: int = 0
    ok: bool = False

    def to_json(self) -> dict:
        return asdict(self)


def kernel_order_check(t: HurwitzTuple) -> KernelReport:
    """Verify |G| = (dtilde!)^e * |Gbar| for the canonical factorization.

    Inapplicable for unramified tuples (no branch letters): the statement
    is about simply branched covers."""
    check_valid(t)
    if not t.T:
        return KernelReport(applicable=False)
    fac = factorize(t)
    quotient = group_closure([fac.a_bar, fac.b_bar])
    expected = math.factorial(fac.dtilde) ** fac.e * len(quotient)
    if expected > MAX_CLOSURE_ORDER:
        raise BudgetExceeded(f"expected order {expected} > budget {MAX_CLOSURE_ORDER}")
    actual = len(group_closure(t.generators()))
    return KernelReport(
        applicable=True,
        e=fac.e,
        dtilde=fac.dtilde,
        quotient_order=len(quotient),
        expected=expected,
        actual=actual,
        ok=expected == actual,
    )


def transitive_on_block_pairs(t: HurwitzTuple) -> bool:
    """Orbit check behind irreducibility of fiber-product preimages.

    The monodromy group orbits on ordered pairs of distinct sheets must
    biject with the translation orbits on ordered pairs of blocks, i.e. two
    sheet pairs lie in one orbit exactly when their block pairs differ by a
    common translation."""
    check_valid(t)
    letters, w, lat = sheet_lattice(t.d, t.generators())
    return pair_orbits_match_classes(t.d, letters, lat, w)


def pair_orbits_match_classes(d: int, letters, lat: Lattice2, w) -> bool:
    """Whether the orbits of the letters on ordered pairs (x, y) of distinct
    sheets are exactly the classes of w(y) - w(x) modulo ``lat``.

    ``letters`` are (permutation, vector) pairs; only the permutations act.
    """
    pairs = [(x, y) for x in range(d) for y in range(d) if x != y]
    index = {p: i for i, p in enumerate(pairs)}
    parent = list(range(len(pairs)))
    for g, _ in letters:
        for i, (x, y) in enumerate(pairs):
            parent[root(parent, i)] = root(parent, index[g[x], g[y]])
    orbit_of_class: dict = {}
    for i, (x, y) in enumerate(pairs):
        rep = root(parent, i)
        cls = lat.reduce((w[y][0] - w[x][0], w[y][1] - w[x][1]))
        if orbit_of_class.setdefault(cls, rep) != rep:
            return False
    # the map class -> orbit is onto and well defined; a bijection exactly
    # when it is injective as well
    reps = list(orbit_of_class.values())
    return len(set(reps)) == len(reps)


# -- dense tables for small degrees ------------------------------------------


@functools.lru_cache(maxsize=None)
def perm_table(d: int):
    """Dense multiplication table for S_d, for the exhaustive scans."""
    if d > MAX_TABLE_D:
        raise BudgetExceeded(f"dense tables are limited to d <= {MAX_TABLE_D}")
    perms = list(itertools.permutations(range(d)))
    index = {p: i for i, p in enumerate(perms)}
    mul = [[index[compose(p, q)] for q in perms] for p in perms]
    inv = [index[inverse(p)] for p in perms]
    transpositions = [i for i, p in enumerate(perms) if is_transposition(p)]
    return perms, index, mul, inv, transpositions
