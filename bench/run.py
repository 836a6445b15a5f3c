"""The benchmark: one workload, closed loop, every output checked.

    python3 bench/run.py --workload scan --seed 1 --seconds 15 --trace 0

With ``--trace 0`` it prints the end-to-end metrics of the workload; with
``--trace 1`` it runs one untraced pass of the workload and then a traced
sweep over every workload's layers, and prints the per-layer metrics.
Every time it reports is CPU time rescaled to a nominal CPU speed measured
beside the work (``harness.SpeedProbe``), because the host's speed changes
by more than the bounds from one moment to the next.  The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a record of the run (machine,
commit, seed, load average) is also written under ``bench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT)]

from bench.harness import (  # noqa: E402
    BENCH,
    CHILD_TIMEOUT_S,
    Loop,
    SpeedProbe,
    Tracer,
    child_env,
    pin_to_one_cpu,
)

# workload -> (module, set-up function returning the job list, minimum passes)
WORKLOADS = {
    "scan": ("bench.library_jobs", "scan_jobs", 3),
    "orbits": ("bench.library_jobs", "orbit_jobs", 3),
    "forest": ("bench.library_jobs", "forest_jobs", 2),
    # 12 passes of 9 invocations: at least 100 latency samples, so that the
    # 90th percentile has ten samples above it.
    "cli": ("bench.cli_jobs", "cli_jobs", 12),
}
SETUP_SAMPLES = 9
# A set-up child: import the workload's module, build its inputs, say ready
# with the CPU seconds it has used since it started.
SETUP_CODE = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; "
    "from bench.run import prepare; prepare(sys.argv[3], int(sys.argv[4])); "
    "print('ready', time.process_time(), flush=True)"
)


def prepare(workload: str, seed: int):
    module, fn, _ = WORKLOADS[workload]
    return getattr(importlib.import_module(module), fn)(seed)


def time_setup(workload: str, seed: int) -> tuple[float, float]:
    """From starting a fresh interpreter until the workload is ready: the
    wall seconds, and the child's CPU seconds rescaled by a SpeedProbe."""
    args = [sys.executable, "-c", SETUP_CODE, str(SRC), str(ROOT), workload, str(seed)]
    with SpeedProbe() as speed:
        t0 = time.perf_counter()
        with subprocess.Popen(args, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE) as proc:
            words = proc.stdout.readline().split()
            seconds = time.perf_counter() - t0
            proc.stdout.read()
            rc = proc.wait(timeout=CHILD_TIMEOUT_S)
    if rc != 0 or len(words) != 2 or words[0] != b"ready":
        raise RuntimeError(f"set-up of {workload} failed with exit code {rc}")
    return seconds, speed.rescale(float(words[1]))


def measure(jobs, seconds: float, min_passes: int, rng) -> Loop:
    """Closed loop: passes over the job list until ``seconds`` are used up
    (checks included), and at least ``min_passes`` passes."""
    loop = Loop()
    t0 = time.perf_counter()
    took = []
    while True:
        p0 = time.perf_counter()
        loop.run_pass(jobs, rng)
        took.append(time.perf_counter() - p0)
        elapsed = time.perf_counter() - t0
        if len(took) >= min_passes and elapsed + statistics.median(took) > seconds:
            return loop


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def typical(samples: dict) -> list[float]:
    """Each job's median over the passes."""
    return [statistics.median(xs) for xs in samples.values()]


def end_to_end(loop: Loop, setups: list, rss_mb: float) -> dict:
    """The times are rescaled CPU seconds (see ``harness.SpeedProbe``).
    Each job is taken at its median over the passes, so a slow moment in one
    call is filtered among that job's samples.  The latency percentiles run
    over the job mix: pooled samples would put the 90th percentile on the
    edge between job sizes (one cli invocation in nine is the slow one),
    where it jumps from run to run."""
    jobs = typical(loop.job_rescaled)
    deciles = statistics.quantiles(jobs, n=10, method="inclusive")
    return {
        "setup_s": statistics.median(setups),
        "norm_wall_s": sum(jobs),
        "norm_latency_p50_ms": deciles[4] * 1000,
        "norm_latency_p90_ms": deciles[8] * 1000,
        "peak_rss_mb": rss_mb,
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "severi").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def program_present() -> bool:
    """The program must be this checkout's ``src/severi``, not another copy."""
    if not (SRC / "severi" / "__init__.py").is_file():
        return False
    import severi

    return Path(severi.__file__).resolve().parent == (SRC / "severi").resolve()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not program_present():
        print(f"error: no program under {SRC / 'severi'}", file=sys.stderr)
        return 2
    pin_to_one_cpu()

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": git_commit(),
        "source_sha256": source_sha256(),
        "loadavg_start": os.getloadavg(),
    }
    setup_walls, setups = zip(*(time_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES)))
    jobs = prepare(args.workload, args.seed)
    rng = random.Random(args.seed)
    spans = None
    if args.trace == 0:
        loop = measure(jobs, args.seconds, WORKLOADS[args.workload][2], rng)
        metrics = end_to_end(loop, setups, peak_rss_mb(args.workload))
    else:
        from bench import layers

        # The untraced pass runs just before the traced pass of the same
        # workload, so the overhead compares passes made close in time.
        untraced = Loop()
        untraced.run_pass(jobs, rng)
        with SpeedProbe() as speed:
            tracer = Tracer(run_id=f"{args.workload}-seed{args.seed}", probe=speed)
            metrics, walls, loop = layers.sweep(tracer, rng, args.seed, first=args.workload)
        untraced_s = sum(typical(untraced.job_rescaled))
        metrics["trace.wall_s"] = walls[args.workload]
        metrics["trace.overhead_s"] = walls[args.workload] - untraced_s
        loop.attempted += untraced.attempted
        loop.failed += untraced.failed
        spans = {"summary": tracer.summary(), "spans": tracer.spans}
    units = declared_units("per_layer" if args.trace else "end_to_end")
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        loop.failed += 1
    record["loadavg_end"] = os.getloadavg()
    record["samples"] = {
        "setup_s": setups,
        "setup_wall_s": setup_walls,
        "pass_s": loop.pass_seconds,
        "job_s": loop.job_samples,
        "job_rescaled_s": loop.job_rescaled,
    }
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items() if k in metrics},
    }
    report(record, result, loop)
    write_results(record, result, spans)
    print(json.dumps(result, sort_keys=True))
    return 0


def declared_units(kind: str) -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def report(record: dict, result: dict, loop: Loop) -> None:
    print(
        f"{record['workload']} seed={record['seed']} trace={record['trace']} "
        f"passes={len(loop.pass_seconds)} jobs={loop.attempted} "
        f"nproc={record['nproc']} python={record['python']} "
        f"commit={record['commit']} loadavg={record['loadavg_start'][0]:.2f}"
        f"->{record['loadavg_end'][0]:.2f}"
    )
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:14.4f} {m['unit']}")
    rate = loop.failed / loop.attempted
    print(f"  {'error_rate':40s} {rate:14.4f} ({loop.failed}/{loop.attempted} jobs)")
    if record["trace"] == 0:
        wall = sum(typical(loop.job_samples))
        setup = statistics.median(record["samples"]["setup_wall_s"])
        print(f"  {'wall_s (not rescaled)':40s} {wall:14.4f} s")
        print(f"  {'setup_wall_s (not rescaled)':40s} {setup:14.4f} s")
        print(
            f"  samples: {len(loop.job_samples)} jobs x {len(loop.pass_seconds)} passes; "
            f"set-up: {SETUP_SAMPLES}"
        )


def write_results(record: dict, result: dict, spans) -> None:
    out = BENCH / "results"
    out.mkdir(exist_ok=True)
    path = out / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"record": record, "result": result, "trace": spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
