"""Finite-index sublattices of Z^2 as unramified covers of a genus-one curve.

A degree-n unramified cover corresponds to an index-n sublattice; Hermite
normal form makes the correspondence unique, Smith normal form classifies
the cokernel.  The constructive lemma builds, for a given sublattice and a
given target index D, a complementary sublattice together with a vector
witnessing a marked pair of points, feasible exactly when D is coprime to
the largest m with the given lattice inside m*Z^2.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .base import BudgetExceeded


# The largest sublattice index, and the largest degree, the enumerators
# below accept: sublattices(100_000) builds 246,078 lattices.
MAX_LATTICE_INDEX = 100_000


class _Lattice2(NamedTuple):
    a: int
    b: int
    c: int


class Lattice2(_Lattice2):
    """Sublattice of Z^2 with basis rows (a, b), (0, c); a, c >= 1, 0 <= b < c.

    A named tuple: it equals, orders and hashes as the plain ``(a, b, c)``."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _make and _replace run the checks

    def __new__(cls, a: int, b: int, c: int) -> "Lattice2":
        if a < 1 or c < 1:
            raise ValueError("Hermite form needs a, c >= 1")
        if not (0 <= b < c):
            raise ValueError("Hermite form needs 0 <= b < c")
        return super().__new__(cls, a, b, c)

    @property
    def index(self) -> int:
        return self.a * self.c

    def rows(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.a, self.b), (0, self.c))

    def contains(self, v) -> bool:
        return self.reduce(v) == (0, 0)

    def residues(self) -> tuple[tuple[int, int], ...]:
        """Canonical coset representatives of Z^2 modulo the lattice."""
        return tuple((i, j) for i in range(self.a) for j in range(self.c))

    def reduce(self, v) -> tuple[int, int]:
        x, y = v
        s = x // self.a
        x, y = x - s * self.a, y - s * self.b
        return x, y % self.c

    def to_json(self) -> list[list[int]]:
        return [[self.a, self.b], [0, self.c]]


IDENTITY = Lattice2(1, 0, 1)


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, r, s) with r*a + s*b = g = gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def hnf(rows) -> Lattice2:
    """Hermite normal form of the lattice spanned by the given integer rows.

    ``rows`` may be any iterable; reading stops as soon as the rows read
    span all of Z^2."""
    g, uy, c = 0, 0, 0
    for x, y in rows:
        x, y = int(x), int(y)
        if x == 0:
            c = math.gcd(c, y)
        elif g == 0:
            g, uy = (x, y) if x > 0 else (-x, -y)
        else:
            gg, r, s = _ext_gcd(g, x)
            c = math.gcd(c, (g * y - x * uy) // gg)
            uy = r * uy + s * y
            g = gg
        if g == 1 and c == 1:
            return IDENTITY
    if g == 0 or c == 0:
        raise ValueError("rows do not span a finite-index sublattice of Z^2")
    return Lattice2(g, uy % c, c)


def snf(L: Lattice2) -> tuple[int, int]:
    """Smith normal form (d1, d2) with d1 | d2: d1 is the gcd of the entries
    and d1*d2 the index."""
    d1 = math.gcd(L.a, math.gcd(L.b, L.c))
    return d1, L.index // d1


def m_invariant(L: Lattice2) -> int:
    """Largest m with L contained in m*Z^2; the cover is reduced iff m = 1."""
    return snf(L)[0]


def sublattices(e: int) -> tuple[Lattice2, ...]:
    """All index-e sublattices in Hermite form; there are sigma(e) of them."""
    if e < 1:
        raise ValueError("index must be >= 1")
    if e > MAX_LATTICE_INDEX:
        raise BudgetExceeded(f"sublattice index {e} > {MAX_LATTICE_INDEX}")
    out = []
    for a in range(1, e + 1):
        if e % a:
            continue
        c = e // a
        out.extend(Lattice2(a, b, c) for b in range(c))
    return tuple(out)


def lattice_sum(L1: Lattice2, L2: Lattice2) -> Lattice2:
    return hnf(L1.rows() + L2.rows())


def is_full(L: Lattice2) -> bool:
    return L.index == 1


def primitive_vector(L: Lattice2) -> tuple[int, int, int]:
    """(a, b, m) with (a*m, b*m) in L, gcd(a, b) = 1 and m the m-invariant.

    Divide out m, take the Hermite basis (a, b0), (0, c) and return the
    least shift b = b0 + k*c, k >= 0, with gcd(a, b) = 1.  No factoring is
    needed: gcd(a, b0, c) = 1, so a prime of a that divides c never divides
    b0 + k*c, and each other prime of a rules out one residue of k.
    """
    m = m_invariant(L)
    a, b, c = L.a // m, L.b // m, L.c // m
    while math.gcd(a, b) != 1:
        b += c
    assert math.gcd(a, b) == 1
    assert L.contains((a * m, b * m))
    return a, b, m


def construct_hat(Ltilde: Lattice2, D: int):
    """Complementary sublattice of index D and witness vector, or None.

    Returns (Lhat, v) with index(Lhat) = D, Lhat + Ltilde = Z^2 and
    Lhat + Z*v = Z^2; such a pair exists iff gcd(D, m) = 1 for m the
    m-invariant of Ltilde.
    """
    if D < 2:
        raise ValueError("target index D must be >= 2")
    m = m_invariant(Ltilde)
    if math.gcd(D, m) != 1:
        return None
    a, b, _ = primitive_vector(Ltilde)
    g, r, s = _ext_gcd(a, b)
    assert g == 1
    # a*b' - a'*b = 1 with (a', b') = (-s, r)
    lhat = hnf([(-s, r), (D * a, D * b)])
    return lhat, (a, b)


def _check_degree(d: int) -> None:
    if d > MAX_LATTICE_INDEX:
        raise BudgetExceeded(f"degree d={d} > {MAX_LATTICE_INDEX}")


def hurwitz_component_count(d: int) -> int:
    """Sum of sigma(e) over proper divisors e of d: the number of components
    of the space of degree-d simply branched covers of a fixed genus-one curve."""
    if d < 2:
        raise ValueError("needs degree d >= 2")
    _check_degree(d)
    return sum(
        len(sublattices(e)) for e in range(1, d) if d % e == 0
    )


def global_component_pairs(d: int, proper_only: bool = False) -> tuple[tuple[int, int], ...]:
    """All pairs (dtilde, m) with m^2 | dtilde | d.

    These index the components of the space of covers with moving target:
    dtilde the degree of the maximal intermediate cover, m the largest
    multiplication map it factors through.  ``proper_only`` drops the
    dtilde = d pairs, which have no simply branched representatives.
    """
    if d < 1:
        raise ValueError("needs d >= 1")
    _check_degree(d)
    out = []
    for dt in range(1, d + 1):
        if d % dt:
            continue
        if proper_only and dt == d:
            continue
        m = 1
        while m * m <= dt:
            if dt % (m * m) == 0:
                out.append((dt, m))
            m += 1
    return tuple(sorted(out))
