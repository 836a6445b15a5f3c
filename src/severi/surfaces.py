"""Divisor-class intersection tables and the numeric dimension formulas.

The built-in models are the ones the dimension arguments run on: the
product of a genus-one curve with the projective line (basis f, e with
f.e = 1 and squares zero, canonical class -2e), the smooth quadric, the
projective plane, and one-point blow-ups of any model.  Models, classes
and dimensions are named tuples, each equal to the plain tuple of its fields.
"""

from __future__ import annotations

from typing import NamedTuple


class _SurfaceModel(NamedTuple):
    name: str
    basis: tuple[str, ...]
    pairing: tuple[tuple[int, ...], ...]
    canonical: tuple[int, ...]


class SurfaceModel(_SurfaceModel):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _make and _replace run the checks

    def __new__(cls, name, basis, pairing, canonical) -> "SurfaceModel":
        n = len(basis)
        if len(pairing) != n or any(len(row) != n for row in pairing):
            raise ValueError("pairing matrix shape must match the basis")
        for i in range(n):
            for j in range(n):
                if pairing[i][j] != pairing[j][i]:
                    raise ValueError("pairing matrix must be symmetric")
        if len(canonical) != n:
            raise ValueError("canonical class length must match the basis")
        return super().__new__(cls, name, basis, pairing, canonical)

    def divisor(self, **coeffs: int) -> "DivisorClass":
        unknown = set(coeffs) - set(self.basis)
        if unknown:
            raise ValueError(f"unknown basis labels {sorted(unknown)}")
        return DivisorClass(self, tuple(coeffs.get(lbl, 0) for lbl in self.basis))

    def from_vector(self, vec) -> "DivisorClass":
        return DivisorClass(self, tuple(int(x) for x in vec))

    def canonical_class(self) -> "DivisorClass":
        return DivisorClass(self, self.canonical)


class _DivisorClass(NamedTuple):
    model: SurfaceModel
    coeffs: tuple[int, ...]


class DivisorClass(_DivisorClass):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _make and _replace run the checks

    def __new__(cls, model: SurfaceModel, coeffs: tuple[int, ...]) -> "DivisorClass":
        if len(coeffs) != len(model.basis):
            raise ValueError("coefficient vector length must match the basis")
        return super().__new__(cls, model, coeffs)

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        _same_model(self, other)
        return DivisorClass(self.model, tuple(x + y for x, y in zip(self.coeffs, other.coeffs)))


def _same_model(a: DivisorClass, b: DivisorClass) -> None:
    if a.model != b.model:
        raise ValueError("divisor classes live on different surface models")


def intersect(a: DivisorClass, b: DivisorClass) -> int:
    """Intersection number a.b computed from the model's pairing table."""
    _same_model(a, b)
    m = a.model.pairing
    return sum(
        a.coeffs[i] * m[i][j] * b.coeffs[j]
        for i in range(len(a.coeffs))
        for j in range(len(b.coeffs))
    )


def elliptic_times_p1() -> SurfaceModel:
    """Product of a genus-one curve with P^1; f, e are the two fiber classes."""
    return SurfaceModel(
        name="elliptic_times_p1",
        basis=("f", "e"),
        pairing=((0, 1), (1, 0)),
        canonical=(0, -2),
    )


def quadric() -> SurfaceModel:
    """P^1 x P^1 with its two rulings."""
    return SurfaceModel(
        name="quadric",
        basis=("f1", "f2"),
        pairing=((0, 1), (1, 0)),
        canonical=(-2, -2),
    )


def projective_plane() -> SurfaceModel:
    return SurfaceModel(
        name="projective_plane", basis=("h",), pairing=((1,),), canonical=(-3,)
    )


def blow_up(model: SurfaceModel, label: str = "e") -> SurfaceModel:
    """Blow up one point: new class with self-intersection -1, orthogonal to
    the pulled-back classes; the canonical class gains the exceptional class."""
    if label in model.basis:
        raise ValueError(f"label {label!r} already used")
    n = len(model.basis)
    pairing = tuple(tuple(row) + (0,) for row in model.pairing) + (
        tuple([0] * n) + (-1,),
    )
    return SurfaceModel(
        name=f"blowup({model.name})",
        basis=model.basis + (label,),
        pairing=pairing,
        canonical=model.canonical + (1,),
    )


def gamma(D: DivisorClass, tau: DivisorClass, b: int) -> int:
    """The bound parameter -(K + D).tau + b of the deformation estimate."""
    if b < 0:
        raise ValueError("b must be >= 0")
    K = D.model.canonical_class()
    return -intersect(K + D, tau) + b


def dim_bound(g: int, gamma_value: int) -> int | None:
    """Upper bound g - 1 + gamma for the locus of genus-g curves.

    Returns None when gamma < 1, where the estimate does not apply.
    """
    if gamma_value < 1:
        return None
    return g - 1 + gamma_value


def adjunction_genus(d: int, N: int) -> int:
    """Arithmetic genus N*d - d + 1 of the class d*f + N*e on E x P^1."""
    return N * d - d + 1


class ExpectedDim(NamedTuple):
    expected: int
    actual: int
    exceptional: bool


def severi_expected_dim(d: int, N: int, g: int) -> ExpectedDim:
    """Expected dimension 2d + g - 1 of the genus-g Severi variety in class
    d*f + N*e, flagging the single exceptional case d=0, N=g=1 (the pencil of
    fibers, actual dimension one)."""
    expected = 2 * d + g - 1
    exceptional = d == 0 and N == 1 and g == 1
    return ExpectedDim(expected=expected, actual=1 if exceptional else expected, exceptional=exceptional)


def dim_V_ab(d: int, g: int, b: int) -> int:
    """Dimension d + g - 2 + b of the variety with a fixed and b moving
    transverse contact points on the distinguished fiber.  Needs d >= 1 and
    b >= 0; g may be negative, as in a state."""
    if d < 1 or b < 0:
        raise ValueError(f"needs d >= 1 and b >= 0, got d={d}, b={b}")
    return d + g - 2 + b


def branch_count(d: int, g: int, g_target: int) -> int:
    """Number of branch points 2g - 2 - d(2*g_target - 2) of a simply
    branched degree-d cover from genus g to genus g_target."""
    b = 2 * g - 2 - d * (2 * g_target - 2)
    if b < 0:
        raise ValueError(f"no simply branched cover: branch count {b} < 0")
    return b


def prim_fiber_dim(d: int, g: int) -> int:
    """Fiber dimension 2(d - g + 1) of the map from embedded curves of class
    d*f + N*e to the space of covers, valid in the non-special range d >= 2g-1."""
    if d < 2 * g - 1:
        raise ValueError(f"formula needs d >= 2g-1, got d={d}, g={g}")
    return 2 * (d - g + 1)
