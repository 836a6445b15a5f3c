"""Seeded mutations of the CLI's input documents, run in process through
``cli.main``.  Each mutation replaces one node of a fixture with a value of
another shape or size, or deletes it.  Whatever the document, the exit code
is 0-3, no exception escapes, and a failure prints at most one stderr line.
"""

import copy
import json
import random
from pathlib import Path

import pytest

from severi import cli

FIXTURES = Path(__file__).parent / "fixtures"

# the fixture and the arguments that precede its path
COMMANDS = [
    ("state_simple.json", ["terms", "--state"]),
    ("state_two_groups.json", ["terms", "--state"]),
    ("state_simple.json", ["terms", "--simple", "--state"]),
    ("state_two_groups.json", ["terms", "--key-mode", "symbolic", "--state"]),
    ("state_two_groups.json", ["forest", "--max-nodes", "50", "--root"]),
    ("graph_chain.json", ["genusbound", "--g", "3", "--graph"]),
    ("tuple_d3.json", ["mono", "check", "--tuple"]),
    ("tuple_d3.json", ["mono", "lattice", "--tuple"]),
    ("tuple_d3.json", ["mono", "factor", "--tuple"]),
]

DELETE = object()
VALUES = [None, -1, 0, 10**12, "x", [], {}, 1.5, True, [[]], [[1, 1]], [[0, 1]], DELETE]
PER_COMMAND = 23


def paths(doc, path=()):
    """The path of every node of a JSON document, the root first."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from paths(value, path + (key,))


def mutated(doc, path, value) -> str:
    """The text of ``doc`` with the node at ``path`` replaced by ``value`` or
    deleted; deleting the root leaves an empty file."""
    if not path:
        return "" if value is DELETE else json.dumps(value)
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return json.dumps(doc)


@pytest.mark.parametrize(
    "fixture,args", COMMANDS, ids=[" ".join(args[:-1]) + " " + f for f, args in COMMANDS]
)
def test_mutated_documents_exit_cleanly(fixture, args, tmp_path, capsys):
    doc = json.loads((FIXTURES / fixture).read_text())
    rng = random.Random(f"{fixture} {args}")
    target = tmp_path / "input.json"
    for _ in range(PER_COMMAND):
        path = rng.choice(list(paths(doc)))
        value = rng.choice(VALUES)
        target.write_text(mutated(doc, path, value))
        where = f"{path} -> {'deleted' if value is DELETE else value!r}"
        code = cli.main([*args, str(target)])
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), where
        if code:
            assert len(err.splitlines()) <= 1, where
