"""Mutations of the CLI's inputs, run in process through ``cli.main``.

A seeded mutation of an input document replaces one node of a fixture with
a value of another shape or size, or deletes it.  A mutation of a
flag-driven subcommand replaces one flag value with each of a fixed set of
values.  Whatever the input, the exit code is 0-3 and no exception escapes;
a failure prints at most one stderr line, and a domain or budget error
exactly one.  A document nested deeper than the JSON parser recurses is
written as raw text, which ``json.dumps`` cannot write.
"""

import copy
import itertools
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


@pytest.mark.parametrize(
    "args", sorted({tuple(args) for _, args in COMMANDS}), ids=lambda args: " ".join(args[:-1])
)
def test_deeply_nested_documents_are_one_error_line(args, tmp_path, capsys):
    target = tmp_path / "input.json"
    target.write_text("[" * 200_000)
    assert cli.main([*args, str(target)]) == 1
    assert capsys.readouterr().err == f"error: {target}: JSON nested too deeply\n"


# the flag-driven subcommands, each with admitted flag values
FLAG_COMMANDS = [
    ["dim", "--d", "3", "--g", "2", "--b", "3"],
    ["gamma", "--model", "elliptic_times_p1", "--D", "0,1", "--tau", "4,2", "--b", "0", "--g", "3"],
    ["lattice", "snf", "--rows", "2,0;0,4"],
    ["lattice", "sublattices", "--e", "6"],
    ["lattice", "hat", "--rows", "2,0;0,4", "--D", "3"],
    ["lattice", "counts", "--d", "6"],
    ["mono", "scan", "--d", "4", "--b", "2"],
    ["hurwitz", "orbits", "--d", "4", "--g", "2"],
]

# 6 is left out as a degree: hurwitz orbits admits (6, 2), which takes seconds
FLAG_VALUES = [
    "-1", "0", "1", "2", "7", str(10**12), str(-(10**12)),
    "x", "", "1.5", "3,", "1,2,3", ";", "0,0", "1,0;0,0",
    # a Hermite entry whose prime factor 10**18 + 3 takes trial division 10^9 steps
    "2000000000000000006,2;0,3",
]


def exit_code(argv) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse's usage error
        return exc.code


def subcommand(argv) -> str:
    return " ".join(itertools.takewhile(lambda a: not a.startswith("--"), argv))


@pytest.mark.parametrize("argv", FLAG_COMMANDS, ids=map(subcommand, FLAG_COMMANDS))
def test_mutated_flags_exit_cleanly(argv, capsys):
    assert exit_code(argv) == 0
    capsys.readouterr()
    for i in [i + 1 for i, a in enumerate(argv) if a.startswith("--")]:
        for value in FLAG_VALUES:
            mutant = argv[:i] + [value] + argv[i + 1 :]
            code = exit_code(mutant)
            err = capsys.readouterr().err
            assert code in (0, 1, 2, 3), mutant
            if code in (1, 3):
                assert len(err.splitlines()) == 1, mutant
