"""Tests of the benchmark itself: the count oracle, the output gates (a
corrupted output must count as an error), one smoke pass of each workload
at its smallest job, and the refusal to run without the program."""

import dataclasses
import gc
import itertools
import json
import random
import shutil
import subprocess
import sys

import pytest

from bench import cli_jobs as cj
from bench import library_jobs as lj
from bench import oracle
from bench.harness import (
    BENCH,
    ROOT,
    Job,
    Loop,
    SpeedProbe,
    Tracer,
    no_span,
    ref_kernel,
    run_job,
)
from bench.run import declared_units, end_to_end

# Totals of the acceptance scan cases, plus the gated degree-6 cases.
SCAN_TOTALS = {
    (2, 2): 4,
    (2, 4): 4,
    (3, 2): 96,
    (3, 4): 960,
    (4, 2): 1_440,
    (4, 4): 58_752,
    (5, 2): 19_200,
    (5, 4): 2_196_480,
    (6, 2): 259_200,
    (6, 4): 65_197_440,
}


def brute_force(d: int, b: int) -> tuple[int, int]:
    """(all, transitive) tuples with [A,B] = T_1...T_b, by enumeration."""
    perms = list(itertools.permutations(range(d)))
    transpositions = [p for p in perms if sum(p[i] != i for i in range(d)) == 2]

    def mul(p, q):  # p first, then q
        return tuple(q[x] for x in p)

    def inv(p):
        out = [0] * d
        for i, x in enumerate(p):
            out[x] = i
        return tuple(out)

    def transitive(gens):
        seen, todo = {0}, [0]
        while todo:
            x = todo.pop()
            for g in gens:
                if g[x] not in seen:
                    seen.add(g[x])
                    todo.append(g[x])
        return len(seen) == d

    products = {}
    for ts in itertools.product(transpositions, repeat=b):
        acc = tuple(range(d))
        for t in ts:
            acc = mul(acc, t)
        products.setdefault(acc, []).append(ts)
    total = trans = 0
    for a in perms:
        for bb in perms:
            comm = mul(mul(mul(a, bb), inv(a)), inv(bb))
            for ts in products.get(comm, ()):
                total += 1
                trans += transitive((a, bb) + ts)
    return total, trans


def test_oracle_reproduces_scan_totals():
    for (d, b), n in SCAN_TOTALS.items():
        assert oracle.transitive_tuples(d, b) == n


@pytest.mark.parametrize("d,b", [(1, 0), (2, 2), (3, 0), (3, 2), (3, 4), (4, 2)])
def test_oracle_matches_brute_force(d, b):
    assert (oracle.all_tuples(d, b), oracle.transitive_tuples(d, b)) == brute_force(d, b)


def smallest(jobs, name):
    (job,) = [j for j in jobs if j.name == name]
    return job


def test_scan_smoke_and_gate():
    job = smallest(lj.scan_jobs(0), "scan-5-2")
    loop = Loop()
    with SpeedProbe() as speed:
        tr = Tracer("t", speed)
        (res,) = loop.run_pass([job], random.Random(0), tr)
    assert res.ok and loop.failed == 0
    assert tr.seconds("hurwitz.scan_monodromy") <= tr.seconds("job")
    rep = res.output
    census = dict(rep.census)
    census.pop(next(iter(census)))
    for bad in (
        dataclasses.replace(rep, tuples=rep.tuples + 1, kernel_checked=rep.tuples + 1),
        dataclasses.replace(rep, kernel_checked=rep.tuples - 1),
        dataclasses.replace(rep, kernel_failures=1),
        dataclasses.replace(rep, census=census),
    ):
        assert not job.check(bad)


def test_orbits_smoke_and_gate():
    job = smallest(lj.orbit_jobs(0), "orbits-3-3")
    res = run_job(job)
    assert res.ok
    rep = res.output
    lattices = {lat: 2 for lat in rep.lattice_of_orbit}
    assert not job.check(dataclasses.replace(rep, orbit_count=2))
    assert not job.check(dataclasses.replace(rep, lattice_of_orbit=lattices))
    assert not job.check(dataclasses.replace(rep, tuples=rep.tuples[1:]))


def test_forest_smoke_and_invariant_gate():
    job = smallest(lj.forest_jobs(3), "successors-corpus")
    res = run_job(job)
    assert res.ok
    results = res.output
    s, terms = next((s, ts) for s, ts in results if ts)
    i = results.index((s, terms))
    doubled = results[:i] + [(s, terms + terms[:1])] + results[i + 1 :]
    assert not job.check(doubled)
    flat = dataclasses.replace(terms[0], child=s)
    assert not job.check(results[:i] + [(s, (flat,) + terms[1:])] + results[i + 1 :])


def test_corpus_is_seeded():
    corpus = lambda seed: smallest(lj.forest_jobs(seed), "successors-corpus").params
    assert corpus(5) == corpus(5)
    assert corpus(5) != corpus(6)
    assert len(corpus(5)) == lj.CORPUS_SIZE


def test_forest_golden_gate():
    job = smallest(lj.forest_jobs(0), "successors-w")
    res = run_job(job)
    assert res.ok and len(res.output) == 934
    assert not job.check(res.output[:-1])


def test_cli_smoke_and_golden_gate():
    job = smallest(cj.cli_jobs(0), "cli-dim")
    res = run_job(job)
    assert res.ok
    proc = res.output
    altered = proc.stdout.replace(b"3", b"4")
    assert altered != proc.stdout
    assert not job.check(subprocess.CompletedProcess(proc.args, 0, altered, b""))
    assert not job.check(subprocess.CompletedProcess(proc.args, 1, proc.stdout, b""))


def test_failures_count_as_errors():
    def boom(span):
        raise ValueError("boom")

    loop = Loop()
    jobs = [
        Job("raises", boom, lambda out: True),
        Job("wrong", lambda span: 1, lambda out: out == 2),
        Job("right", lambda span: 2, lambda out: out == 2),
    ]
    outcomes = loop.run_pass(jobs, random.Random(0))
    assert (loop.attempted, loop.failed) == (3, 2)
    assert all(res.output is None for res in outcomes)


def test_spans_are_rescaled_and_self_time_subtracts_children():
    with SpeedProbe() as speed:
        tr = Tracer("t", speed)
        with tr.span("outer", "job"):
            ref_kernel(100_000)
            with tr.span("inner") as counts:
                counts["n"] = 3
                ref_kernel(200_000)
    (outer, inner) = tr.spans
    assert inner["parent"] == outer["id"] and inner["job"] == "job"
    assert inner["ref_iterations"] > 0 and outer["cpu"] > inner["cpu"] > 0
    assert tr.count("inner", "n") == 3
    assert 0 < tr.self_seconds("outer") < tr.seconds("outer")
    assert tr.self_seconds("outer") == pytest.approx(tr.seconds("outer") - tr.seconds("inner"))
    assert speed.rescale(2.0) == pytest.approx(2 * speed.rescale(1.0))
    with no_span("x") as counts:
        assert counts == {}


def test_end_to_end_metrics_are_the_declared_ones():
    loop = Loop(job_rescaled={"a": [0.5, 0.4, 0.9], "b": [1.5, 0.6, 0.7], "c": [2.0]})
    metrics = end_to_end(loop, [0.1, 0.2, 0.3], 20.0)
    assert set(metrics) == set(declared_units("end_to_end"))
    assert metrics["norm_wall_s"] == pytest.approx(0.5 + 0.7 + 2.0) and metrics["setup_s"] == 0.2
    assert metrics["norm_latency_p50_ms"] == pytest.approx(700)
    assert metrics["norm_latency_p90_ms"] == pytest.approx(1000 * (0.7 + 0.8 * 1.3))


def test_reference_kernel_starts_no_collection():
    """The probe's loop makes no object the collector tracks, so it never
    pays for a collection of the program's heap."""
    gc.disable()
    try:
        before = gc.get_count()[0]
        ref_kernel(10_000)
        assert gc.get_count()[0] - before <= 1  # its one dict
    finally:
        gc.enable()


def test_untraced_job_is_rescaled():
    res = run_job(Job("spin", lambda span: ref_kernel(200_000), lambda out: out > 0))
    assert res.ok and res.rescaled > 0


def test_every_layer_metric_is_mapped_to_what_it_should_move():
    mapping = json.loads((BENCH / "metrics.json").read_text())["per_layer_moves"]
    assert set(mapping) == set(declared_units("per_layer"))
    e2e = set(declared_units("end_to_end"))
    assert all(set(m["moves"]) <= e2e for m in mapping.values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns("results", "__pycache__")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=ignore)
    cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *cmd[1:], "--workload", "scan", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
