"""The cli workload: each acceptance invocation as a cold process.

This module does not import the program, so the workload's set-up time
holds no import that its jobs do not also pay in their own processes.
"""

from __future__ import annotations

import hashlib

from .harness import BENCH, Job, call, load_golden, python

INPUTS = BENCH / "inputs"

# The nine invocations of acceptance criterion 10, named by subcommand.
INVOCATIONS = {
    "terms-simple": ("terms", "--state", "state_simple.json"),
    "terms-two-groups": ("terms", "--state", "state_two_groups.json"),
    "forest": ("forest", "--root", "state_simple.json", "--floor", "0"),
    "dim": ("dim", "--d", "3", "--g", "2", "--b", "3"),
    "gamma": (
        "gamma", "--model", "elliptic_times_p1", "--D", "0,1", "--tau", "4,2",
        "--b", "0", "--g", "3",
    ),
    "genusbound": ("genusbound", "--graph", "graph_chain.json", "--g", "3"),
    "lattice-counts": ("lattice", "counts", "--d", "6"),
    "mono-factor": ("mono", "factor", "--tuple", "tuple_d3.json"),
    "hurwitz-orbits": ("hurwitz", "orbits", "--d", "4", "--g", "2"),
}


def argv(name: str) -> list[str]:
    """The subcommand's arguments, with input files resolved in ``inputs/``."""
    return [str(INPUTS / a) if a.endswith(".json") else a for a in INVOCATIONS[name]]


def stdout_ok(name: str, returncode: int, stdout: bytes, golden: dict) -> bool:
    return returncode == 0 and hashlib.sha256(stdout).hexdigest() == golden[f"cli-{name}"]


def cli_jobs(seed: int) -> list[Job]:
    golden = load_golden()
    return [
        Job(
            name=f"cli-{name}",
            run=lambda span, name=name: call(
                span, "cli.invoke", python, "-m", "severi.cli", *argv(name)
            ),
            check=lambda proc, name=name: stdout_ok(name, proc.returncode, proc.stdout, golden),
        )
        for name in INVOCATIONS
    ]
