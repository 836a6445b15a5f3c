"""What every layer shares: the two exception classes, the shape checks of
the JSON readers, their one reader of arrays of objects and their one
wrapper of value faults, a union-find root and the names of the two
canonical-key modes.  It imports no other part of the library, so that the
hyperplane-section half (:mod:`.states`, :mod:`.dual_graph`) and the
Hurwitz half (:mod:`.lattices`, :mod:`.monodromy`) and the CLI can each
name an exception or read a field without loading the other half, and the
CLI's parser can offer the key modes without loading :mod:`.states`."""

DEGREE = "degree"
SYMBOLIC = "symbolic"


class InvalidState(ValueError):
    """A document or state violating one of its structural invariants."""


class BudgetExceeded(RuntimeError):
    """A computation would pass one of the library's resource budgets."""


_JSON_TYPES = {
    dict: "object",
    list: "array",
    str: "string",
    int: "integer",
    float: "number",
    bool: "boolean",
    type(None): "null",
}
_REQUIRED = object()


def expect(value, kind: str, where: str) -> None:
    """Raise :class:`InvalidState` unless ``value`` is a JSON ``kind``."""
    got = _JSON_TYPES.get(type(value), type(value).__name__)
    if got != kind:
        raise InvalidState(f"{where} must be a JSON {kind}, got {got}")


def field_of(obj: dict, name: str, kind: str, where: str, default=_REQUIRED):
    """The member ``name`` of ``obj``, checked to be a JSON ``kind``; a
    missing member gives ``default`` if one is passed and raises otherwise."""
    if name not in obj:
        if default is _REQUIRED:
            raise InvalidState(f"{where} is missing the field {name!r}")
        return default
    expect(obj[name], kind, f"{where}.{name}")
    return obj[name]


def expect_members(obj: dict, where: str, *names: str) -> None:
    """Raise :class:`InvalidState` if ``obj`` has a member outside ``names``,
    which its schema forbids (``additionalProperties: false``)."""
    for name in obj:
        if name not in names:
            raise InvalidState(f"{where} has an unknown member {name!r}")


def rows_of(obj: dict, name: str, where: str, *fields: tuple[str, str]):
    """Yield the items of the optional array ``name`` of ``obj`` (a missing
    one reads as empty) as rows: each item must be an object, and its row is
    the tuple of its ``(member, kind)`` fields read by :func:`field_of` at
    the path ``{where}.{name}[i]``, which may have no other member.  Items
    are read as they are asked for, so a caller that checks each row before
    the next meets the faults of the items in their order."""
    for i, item in enumerate(field_of(obj, name, "array", where, default=[])):
        at = f"{where}.{name}[{i}]"
        expect(item, "object", at)
        expect_members(item, at, *(member for member, _ in fields))
        yield tuple(field_of(item, member, kind, at) for member, kind in fields)


def parsed(where: str, make, *args):
    """``make(*args)``, a ValueError raised as InvalidState at ``where``."""
    try:
        return make(*args)
    except ValueError as exc:
        raise InvalidState(f"{where}: {exc}") from None


def root(parent, x):
    """Union-find root of x in the forest ``parent`` (a list or a dict that
    maps every node to its parent), halving the path."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x
