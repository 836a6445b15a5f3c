"""The plain value records are named tuples.  Each keeps the repr, equality,
hash, immutability and validation messages it had as a frozen dataclass.
The one intended change: a record now equals the plain tuple of its fields,
and iterates over them."""

import pytest

from severi import dual_graph as dgr
from severi import lattices as lt
from severi import monodromy as mo
from severi import surfaces as sf
from severi.degeneration import ForestEdge, build_forest, successors_general
from severi.states import SeveriState

QUADRIC_REPR = (
    "SurfaceModel(name='quadric', basis=('f1', 'f2'), pairing=((0, 1), (1, 0)), "
    "canonical=(-2, -2))"
)
FIBER = dgr.CentralFiber(
    x_genus=1, e_parts=((1, 1),), z_parts=(0,), edges=(("X", "Z0"), ("Z0", "E0"))
)
TUPLE = mo.HurwitzTuple(3, (1, 2, 0), (0, 1, 2), ((0, 2, 1), (0, 2, 1)))

# One instance of each record and the repr it had as a dataclass.
RECORDS = {
    "Lattice2": (lt.Lattice2(1, 0, 1), "Lattice2(a=1, b=0, c=1)"),
    "SurfaceModel": (sf.quadric(), QUADRIC_REPR),
    "DivisorClass": (
        sf.quadric().divisor(f1=2),
        f"DivisorClass(model={QUADRIC_REPR}, coeffs=(2, 0))",
    ),
    "ExpectedDim": (
        sf.severi_expected_dim(0, 1, 1),
        "ExpectedDim(expected=0, actual=1, exceptional=True)",
    ),
    "CentralFiber": (
        FIBER,
        "CentralFiber(x_genus=1, e_parts=((1, 1),), z_parts=(0,), "
        "edges=(('X', 'Z0'), ('Z0', 'E0')))",
    ),
    "GenusBoundReport": (
        dgr.genus_bound_check(FIBER, 2),
        "GenusBoundReport(p_a_x=1, T=1, g=2, holds=True, equality=True, "
        "conditions=(('cover_components_all_genus_one', True), "
        "('z_rational_with_two_nodes', True), ('chains_join_once_each', True)))",
    ),
    "Factorization": (
        mo.factorize(TUPLE),
        "Factorization(lattice=Lattice2(a=1, b=0, c=1), block_of=(0, 0, 0), "
        "blocks=((0, 1, 2),), a_bar=(0,), b_bar=(0,))",
    ),
    "KernelReport": (
        mo.kernel_order_check(TUPLE),
        "KernelReport(applicable=True, e=1, dtilde=3, quotient_order=1, "
        "expected=6, actual=6, ok=True)",
    ),
}


@pytest.mark.parametrize("name", list(RECORDS))
def test_record_is_an_immutable_value(name):
    record, text = RECORDS[name]
    assert type(record).__name__ == name
    assert repr(record) == text
    twin = type(record)(*record)
    assert twin == record and twin is not record
    assert hash(twin) == hash(record) and len({record, twin}) == 1
    assert type(record)(**record._asdict()) == record
    for copy in (type(record)._make(record), record._replace()):
        assert type(copy) is type(record) and copy == record
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], 0)
    with pytest.raises(AttributeError):
        record.extra = 0


@pytest.mark.parametrize("name", list(RECORDS))
def test_record_equals_the_plain_tuple_of_its_fields(name):
    # the intended change from the dataclasses
    record, _ = RECORDS[name]
    fields = tuple(getattr(record, f) for f in record._fields)
    assert tuple(record) == fields
    assert record == fields and hash(record) == hash(fields)


def test_lattices_keep_their_order_and_index():
    expected = [
        (1, 0, 6), (1, 1, 6), (1, 2, 6), (1, 3, 6), (1, 4, 6), (1, 5, 6),
        (2, 0, 3), (2, 1, 3), (2, 2, 3), (3, 0, 2), (3, 1, 2), (6, 0, 1),
    ]
    assert sorted(reversed(lt.sublattices(6))) == expected
    assert list(lt.sublattices(6)) == expected
    assert lt.Lattice2(2, 1, 3) < lt.Lattice2(2, 2, 3) < lt.Lattice2(3, 0, 2)
    # index is the lattice index, not tuple.index
    assert isinstance(vars(lt.Lattice2)["index"], property)
    assert lt.Lattice2(2, 1, 3).index == 6
    assert lt.Lattice2(a=2, b=1, c=3) == lt.Lattice2(2, 1, 3)


def test_report_json_keeps_its_key_order():
    assert list(mo.kernel_order_check(TUPLE).to_json()) == [
        "applicable", "e", "dtilde", "quotient_order", "expected", "actual", "ok",
    ]
    assert type(mo.kernel_order_check(TUPLE).to_json()) is dict
    assert mo.KernelReport(applicable=False).to_json() == {
        "applicable": False, "e": 0, "dtilde": 0, "quotient_order": 0,
        "expected": 0, "actual": 0, "ok": True,
    }
    assert list(mo.factorize(TUPLE).to_json()) == [
        "lattice", "blocks", "e", "dtilde", "quotient_A", "quotient_B",
    ]


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: lt.Lattice2(0, 0, 1), "Hermite form needs a, c >= 1"),
        (lambda: lt.Lattice2(1, 0, 0), "Hermite form needs a, c >= 1"),
        (lambda: lt.Lattice2(1, 1, 1), "Hermite form needs 0 <= b < c"),
        (lambda: lt.Lattice2(a=1, b=-1, c=2), "Hermite form needs 0 <= b < c"),
        (
            lambda: sf.SurfaceModel("x", ("a", "b"), ((0, 1), (2, 0)), (0, 0)),
            "pairing matrix must be symmetric",
        ),
        (
            lambda: sf.SurfaceModel("x", ("a", "b"), ((0, 1), (1, 0, 0)), (0, 0)),
            "pairing matrix shape must match the basis",
        ),
        (
            lambda: sf.SurfaceModel("x", ("a", "b"), ((0, 1), (1, 0)), (0,)),
            "canonical class length must match the basis",
        ),
        (
            lambda: sf.DivisorClass(sf.quadric(), (1, 2, 3)),
            "coefficient vector length must match the basis",
        ),
        (
            lambda: sf.quadric().from_vector([1]),
            "coefficient vector length must match the basis",
        ),
        # namedtuple's own _make, which _replace calls, would skip __new__
        (lambda: lt.Lattice2(1, 0, 1)._replace(b=5), "Hermite form needs 0 <= b < c"),
        (lambda: lt.Lattice2._make((0, 0, 0)), "Hermite form needs a, c >= 1"),
        (
            lambda: sf.quadric()._replace(canonical=(1, 2, 3)),
            "canonical class length must match the basis",
        ),
        (
            lambda: sf.SurfaceModel._make(("x", ("a", "b"), ((0, 1), (2, 0)), (0, 0))),
            "pairing matrix must be symmetric",
        ),
        (
            lambda: sf.quadric().divisor(f1=1)._replace(coeffs=(1,)),
            "coefficient vector length must match the basis",
        ),
        (
            lambda: sf.DivisorClass._make((sf.quadric(), (1, 2, 3))),
            "coefficient vector length must match the basis",
        ),
    ],
    ids=[
        "a-zero", "c-zero", "b-too-large", "b-negative", "asymmetric",
        "pairing-shape", "canonical-length", "coefficient-length", "from-vector",
        "lattice-replace", "lattice-make", "model-replace", "model-make",
        "class-replace", "class-make",
    ],
)
def test_validation_keeps_its_message(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def test_forest_edge_is_a_value():
    root = SeveriState(d=2, N=2, g=1, alpha=((1, "p1"), (1, "p2")), betas=())
    term = successors_general(root)[0]
    edge = ForestEdge("a", "b", term, 1)
    assert edge == ForestEdge(parent="a", child="b", term=term, factor=1)
    assert repr(edge) == f"ForestEdge(parent='a', child='b', term={term!r}, factor=1)"
    with pytest.raises(AttributeError):
        edge.factor = 2
    forest = build_forest([root])
    assert forest.edges and all(type(e) is ForestEdge for e in forest.edges)
