"""The traced run: per-layer numbers from spans around calls into the program.

Each ``*_layers`` function runs one workload's job list once with tracing
on, then replays from the benchmark's own files the layers below the job's
calls, each inside a span.  Spans sit only around calls into the program's
public functions; nothing inside the program is instrumented.  Every
traced run measures every layer, so it reports every per-layer metric
whichever workload it was started for.
"""

from __future__ import annotations

import io
import statistics
from contextlib import redirect_stdout

from severi import cli
from severi import degeneration as dg
from severi import hurwitz as hw
from severi import monodromy as mo
from severi import states as st

from . import cli_jobs as cj
from . import library_jobs as lj
from .harness import Loop, Tracer, load_golden, python

STARTUP_SAMPLES = 5
INPROC_SAMPLES = 3


def perm_table_layer(tr: Tracer) -> dict:
    """Cold permutation tables for the scan degrees."""
    mo.perm_table.cache_clear()
    with tr.span("monodromy.perm_table"):
        for d, _ in lj.SCAN_CASES:
            mo.perm_table(d)
    return {"monodromy.perm_table_s": tr.seconds("monodromy.perm_table")}


def scan_layers(tr: Tracer, loop: Loop, rng, seed: int) -> dict:
    jobs = lj.scan_jobs(seed)
    reports = [o.output for o in loop.run_pass(jobs, rng, tr) if o.ok]
    for job in jobs:
        with tr.span("hurwitz.iter_tuples", job.name) as counts:
            counts["tuples"] = sum(1 for _ in hw.iter_tuples(*job.params))
    enum_s = tr.seconds("hurwitz.iter_tuples")
    return {
        "hurwitz.enum_s": enum_s,
        "hurwitz.enum_tuples": tr.count("hurwitz.iter_tuples", "tuples"),
        "hurwitz.scan_check_s": tr.seconds("hurwitz.scan_monodromy") - enum_s,
        "hurwitz.scan_primitive": sum(r.primitive for r in reports),
        "hurwitz.scan_full": sum(r.full for r in reports),
    }


def move_images(reports, moves: hw.MoveSet) -> int:
    """Every move image the orbit closure visits, made with the public moves."""
    images = 0
    for rep in reports:
        conj = [mo.transposition(rep.d, i, i + 1) for i in range(rep.d - 1)]
        for t in rep.tuples:
            for k in range(t.b - 1):
                hw.braid_move(t, k)
            for g in conj:
                hw.conjugate_tuple(t, g)
            for mv in moves.handles:
                mv.apply(t)
            images += t.b - 1 + len(conj) + len(moves.handles)
    return images


def orbit_layers(tr: Tracer, loop: Loop, rng, seed: int) -> dict:
    reports = [o.output for o in loop.run_pass(lj.orbit_jobs(seed), rng, tr) if o.ok]
    with tr.span("hurwitz.moves") as counts:
        counts["images"] = images = move_images(reports, hw.default_moves())
    tuples = sum(len(rep.tuples) for rep in reports)
    with tr.span("monodromy.invariant_lattice") as counts:
        for rep in reports:
            for t in rep.tuples:
                mo.invariant_lattice(t)
        counts["tuples"] = tuples
    orbit_count = sum(rep.orbit_count for rep in reports)
    moves_s = tr.seconds("hurwitz.moves")
    lattice_s = tr.seconds("monodromy.invariant_lattice")
    return {
        "hurwitz.moves_s": moves_s,
        "hurwitz.move_images": images,
        "monodromy.invariant_lattice_s": lattice_s,
        "hurwitz.orbits_self_s": tr.seconds("hurwitz.orbits") - moves_s - lattice_s,
        "hurwitz.orbit_count": orbit_count,
        "hurwitz.merge_ratio": (tuples - orbit_count) / images if images else 0.0,
    }


def forest_layers(tr: Tracer, loop: Loop, rng, seed: int) -> dict:
    jobs = lj.forest_jobs(seed)
    out = {o.name: o.output for o in loop.run_pass(jobs, rng, tr) if o.ok}
    metrics: dict = {}
    children = {st.DEGREE: [], st.SYMBOLIC: []}
    new_nodes = edges = 0
    for job in (j for j in jobs if j.name.startswith("forest-")):
        tag, _, mode = job.params
        forest = out.get(job.name)
        if forest is None:
            continue
        expanded = [s for s in forest.nodes.values() if st.dimension(s) > 0]
        with tr.span(lj.SUCCESSORS, job.name) as counts:
            replay = [dg.successors_general(s, mode) for s in expanded]
            counts["terms"] = sum(len(ts) for ts in replay)
        children[mode].extend(t.child for ts in replay for t in ts)
        metrics[f"degeneration.build_forest_s.{tag}"] = tr.seconds(
            "degeneration.build_forest", job.name
        )
        metrics[f"degeneration.forest_nodes.{tag}"] = len(forest.nodes)
        metrics[f"degeneration.forest_edges.{tag}"] = len(forest.edges)
        new_nodes += len(forest.nodes) - len(forest.roots)
        edges += len(forest.edges)
    direct = list(out.get("successors-w", ()))
    direct += [t for _, ts in out.get("successors-corpus", ()) for t in ts]
    children[st.DEGREE].extend(t.child for t in direct)
    with tr.span("states.normalize") as counts:
        normal = {mode: [st.normalize(c)[0] for c in cs] for mode, cs in children.items()}
        counts["states"] = sum(len(cs) for cs in children.values())
    for mode, states in normal.items():
        with tr.span(f"states.canonical_key.{mode}") as counts:
            counts["keys"] = len({st.canonical_key(s, mode) for s in states})
        metrics[f"states.canonical_key_{mode}_s"] = tr.seconds(f"states.canonical_key.{mode}")
    metrics.update(
        {
            "degeneration.successors_general_s": tr.seconds(lj.SUCCESSORS),
            "degeneration.terms": tr.count(lj.SUCCESSORS, "terms") + len(direct),
            "degeneration.new_node_ratio": new_nodes / edges if edges else 0.0,
            "states.normalize_s": tr.seconds("states.normalize"),
        }
    )
    return metrics


def cli_layers(tr: Tracer, loop: Loop, rng, seed: int) -> dict:
    loop.run_pass(cj.cli_jobs(seed), rng, tr)
    for _ in range(STARTUP_SAMPLES):
        for layer, code in (("cli.python_startup", "pass"), ("cli.import", "import severi.cli")):
            with tr.span(layer):
                proc = python("-c", code)
            loop.attempted += 1
            loop.failed += proc.returncode != 0
    startup = statistics.median(tr.durations("cli.python_startup"))
    metrics = {
        "cli.python_startup_ms": startup * 1000,
        "cli.import_ms": (statistics.median(tr.durations("cli.import")) - startup) * 1000,
    }
    golden = load_golden()
    for name in cj.INVOCATIONS:
        for _ in range(INPROC_SAMPLES):
            buf = io.StringIO()
            with tr.span("cli.main", f"cli-{name}"), redirect_stdout(buf):
                rc = cli.main(cj.argv(name))
            loop.attempted += 1
            loop.failed += not cj.stdout_ok(name, rc, buf.getvalue().encode(), golden)
        metrics[f"cli.inproc_ms.{name}"] = (
            statistics.median(tr.durations("cli.main", f"cli-{name}")) * 1000
        )
    return metrics


LAYERS = {
    "scan": scan_layers,
    "orbits": orbit_layers,
    "forest": forest_layers,
    "cli": cli_layers,
}


def sweep(tr: Tracer, rng, seed: int, first: str) -> tuple[dict, dict, Loop]:
    """Trace every workload once, ``first`` first.  Returns the per-layer
    metrics, the traced time of each workload's job list, and the loop
    that counted the jobs and gates."""
    loop = Loop()
    metrics = perm_table_layer(tr)
    walls = {}
    for name in sorted(LAYERS, key=lambda n: n != first):
        since = len(tr.spans)
        with tr.span(f"workload.{name}"):
            metrics.update(LAYERS[name](tr, loop, rng, seed))
        walls[name] = tr.seconds("job", since=since)
    return metrics, walls, loop
