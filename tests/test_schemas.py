import json
from pathlib import Path

import pytest

from severi.dual_graph import CentralFiber
from severi.monodromy import HurwitzTuple
from severi.states import state_from_json

jsonschema = pytest.importorskip("jsonschema")

DOCS = Path(__file__).parent.parent / "docs"
FIXTURES = Path(__file__).parent / "fixtures"


def load(name):
    return json.loads((DOCS / name).read_text())


@pytest.mark.parametrize(
    "schema,fixture",
    [
        ("state.schema.json", "state_simple.json"),
        ("state.schema.json", "state_two_groups.json"),
        ("central_fiber.schema.json", "graph_chain.json"),
        ("tuple.schema.json", "tuple_d3.json"),
    ],
)
def test_fixtures_validate(schema, fixture):
    jsonschema.validate(json.loads((FIXTURES / fixture).read_text()), load(schema))


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
