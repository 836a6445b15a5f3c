import json
from pathlib import Path

import pytest

from severi.base import InvalidState
from severi.dual_graph import CentralFiber
from severi.monodromy import HurwitzTuple
from severi.states import state_from_json

jsonschema = pytest.importorskip("jsonschema")

DOCS = Path(__file__).parent.parent / "docs"
FIXTURES = Path(__file__).parent / "fixtures"


def load(name):
    return json.loads((DOCS / name).read_text())


FIXTURE_SCHEMAS = [
    ("state.schema.json", "state_simple.json"),
    ("state.schema.json", "state_two_groups.json"),
    ("state.schema.json", "state_many_points.json"),
    ("central_fiber.schema.json", "graph_chain.json"),
    ("tuple.schema.json", "tuple_d3.json"),
]
# each schema's parser and the path its messages give the document itself
PARSERS = {
    "state.schema.json": (state_from_json, "state"),
    "central_fiber.schema.json": (CentralFiber.from_json, "graph"),
    "tuple.schema.json": (HurwitzTuple.from_json, "tuple"),
}


@pytest.mark.parametrize("schema,fixture", FIXTURE_SCHEMAS)
def test_fixtures_validate(schema, fixture):
    jsonschema.validate(json.loads((FIXTURES / fixture).read_text()), load(schema))


def objects(node, where):
    """Every object of a JSON document, with the path a parser's message
    gives it."""
    if isinstance(node, dict):
        yield node, where
        for name, value in node.items():
            yield from objects(value, f"{where}.{name}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from objects(value, f"{where}[{i}]")


@pytest.mark.parametrize("schema,fixture", FIXTURE_SCHEMAS)
def test_unknown_members_are_refused(schema, fixture):
    """A member no schema lists, such as a misspelt optional one, is refused
    by the schema and by the parser, wherever it sits."""
    document = json.loads((FIXTURES / fixture).read_text())
    validator = jsonschema.Draft202012Validator(load(schema))
    parse, root = PARSERS[schema]
    parse(document)
    for obj, where in list(objects(document, root)):
        obj["t"] = 1
        assert not validator.is_valid(document), where
        with pytest.raises(InvalidState) as refused:
            parse(document)
        assert str(refused.value) == f"{where} has an unknown member 't'"
        del obj["t"]


def test_generated_states_validate(rng):
    from severi.states import state_to_json
    from tests.conftest import random_normalized_state

    schema = load("state.schema.json")
    for _ in range(25):
        jsonschema.validate(state_to_json(random_normalized_state(rng)), schema)


def test_generated_tuples_validate():
    from severi.hurwitz import enumerate_tuples

    schema = load("tuple.schema.json")
    for t in enumerate_tuples(3, 2):
        jsonschema.validate(t.to_json(), schema)


@pytest.mark.parametrize(
    "schema,document,parse",
    [
        ("tuple.schema.json", {"d": 3}, HurwitzTuple.from_json),
        ("state.schema.json", {"d": 3, "N": 1, "g": 2}, state_from_json),
        (
            "state.schema.json",
            {"d": 3, "N": 1, "g": 2, "betas": [{"profile": [1, 1, 1], "L": {}}]},
            state_from_json,
        ),
        ("central_fiber.schema.json", {"x_genus": 1}, CentralFiber.from_json),
    ],
)
def test_minimal_documents_validate_and_parse(schema, document, parse):
    """Every field the schema leaves optional is one the parser defaults."""
    jsonschema.validate(document, load(schema))
    parse(document)
