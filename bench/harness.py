"""Jobs, closed-loop passes, spans and output digests shared by the workloads."""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import subprocess
import sys
import threading
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 120

# On a shared virtual machine the CPU's speed can change by 1.7x within a
# second, for the same code, so end-to-end times are CPU seconds rescaled by the speed of a
# reference loop measured on the same CPU while the job runs (SpeedProbe).
REF_BURST = 2000  # iterations of ref_kernel in one probe burst, about 0.5 ms
REF_NAP_S = 0.004  # pause between bursts, so the probe takes about a tenth
# The rescaled times are the seconds the work would take on a CPU that runs
# ref_kernel at this many ns an iteration (about this machine's usual speed).
REF_NS_PER_ITER = 300.0


@dataclass(frozen=True)
class Job:
    """One request of a closed loop.

    ``run(span)`` makes the timed calls into the program, each wrapped in
    ``span(layer)``, a context manager that records a span when tracing is
    on and does nothing otherwise.  ``check`` gates the output and returns
    True only when it is correct.  ``params`` names the input, so the traced
    run can replay the layers below the call.
    """

    name: str
    run: Callable[[Callable], Any]
    check: Callable[[Any], bool]
    params: tuple = ()


def pin_to_one_cpu() -> None:
    """Keep this process, its threads and its children on one CPU, so the
    probe and the job it times share the CPU and its speed."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def ref_kernel(n: int) -> int:
    """A fixed pure-Python loop of dict and integer work, the kind of work
    the program does.  It makes no object the garbage collector tracks, so
    no collection of the program's heap is started, and paid for, in it."""
    counts: dict = {}
    total = 0
    for i in range(n):
        key = (i * 40503) & 1023
        counts[key] = counts.get(key, 0) + 1
        total += i * i
    return total


class SpeedProbe:
    """Measures the CPU's speed while a job runs: a thread that runs
    ``ref_kernel`` in short bursts, taking turns with the job on the one CPU
    the process is pinned to.  ``rescale`` turns the job's CPU seconds into
    seconds at the nominal speed ``REF_NS_PER_ITER``.  One burst runs before
    the job starts, so even a short job has a speed sample."""

    def __init__(self) -> None:
        self.cpu = 0.0
        self.iterations = 0
        self._primed = threading.Event()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while True:
            c0 = time.thread_time()
            ref_kernel(REF_BURST)
            self.cpu += time.thread_time() - c0
            self.iterations += REF_BURST
            self._primed.set()
            if self._stop.wait(REF_NAP_S):
                return

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        self._primed.wait()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def rescale(self, cpu_seconds: float) -> float:
        return cpu_seconds * self.iterations * REF_NS_PER_ITER * 1e-9 / self.cpu


def cpu_seconds() -> float:
    """CPU time of the calling thread plus that of every ended child."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.thread_time() + children.ru_utime + children.ru_stime


def no_span(name: str, job: str | None = None):
    return nullcontext({})


def call(span, layer: str, fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` inside a span named after its layer."""
    with span(layer):
        return fn(*args, **kwargs)


@dataclass
class Outcome:
    name: str
    seconds: float
    ok: bool
    output: Any = None
    rescaled: float | None = None  # untraced: CPU seconds at nominal speed


def digest(obj) -> str:
    """sha256 of the canonical JSON form (sorted keys, compact separators),
    encoded in one piece as the CLI does, which is several times faster than
    streaming the encoder."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def python(*args: str) -> subprocess.CompletedProcess:
    """Run a child interpreter that imports the program from this checkout."""
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        timeout=CHILD_TIMEOUT_S,
        check=False,
    )


def child_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def load_golden() -> dict:
    """Digests of outputs recorded at the seed commit (see README.md)."""
    with open(BENCH / "golden.json", encoding="utf-8") as fh:
        return json.load(fh)["digests"]


def run_job(job: Job, tracer: "Tracer | None" = None) -> Outcome:
    """Time one call and gate its output; a raised exception is a failed job.
    Untraced, the call's CPU time (its children's too) is also taken and
    rescaled by a SpeedProbe running beside it; traced, the tracer's own
    probe rescales the spans."""
    gc.collect()
    span = tracer.span if tracer else no_span
    with nullcontext() if tracer else SpeedProbe() as speed:
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            with span("job", job.name):
                out = job.run(span)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return Outcome(job.name, time.perf_counter() - t0, False)
        seconds = time.perf_counter() - t0
        cpu = cpu_seconds() - c0
    try:
        ok = bool(job.check(out))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        ok = False
    if not ok:
        print(f"wrong output from job {job.name}", file=sys.stderr)
    rescaled = None if tracer else speed.rescale(cpu)
    return Outcome(job.name, seconds, ok, out, rescaled)


@dataclass
class Loop:
    """Samples of a closed loop: one caller, one job at a time."""

    pass_seconds: list = field(default_factory=list)
    job_samples: dict = field(default_factory=dict)  # job name -> seconds
    job_rescaled: dict = field(default_factory=dict)  # job name -> rescaled seconds
    attempted: int = 0
    failed: int = 0

    def run_pass(self, jobs, rng, tracer: "Tracer | None" = None) -> list[Outcome]:
        """Run every job once, in an order drawn from ``rng``.  The pass time
        is the summed call time; the gates are not timed.  Outputs are kept
        only when tracing, for the replays."""
        order = list(jobs)
        rng.shuffle(order)
        outcomes = []
        for job in order:
            res = run_job(job, tracer)
            if tracer is None:
                # Untraced, no output outlives its check, so the peak
                # memory is that of one job and not of the job order.
                res.output = None
            outcomes.append(res)
            self.attempted += 1
            self.failed += not res.ok
            self.job_samples.setdefault(job.name, []).append(res.seconds)
            if res.rescaled is not None:
                self.job_rescaled.setdefault(job.name, []).append(res.rescaled)
        self.pass_seconds.append(sum(res.seconds for res in outcomes))
        return outcomes


class Tracer:
    """Spans kept in memory and written out once, when the run ends.

    Each span has a name (the layer), start, end, parent span and run id,
    the job it served, and counts recorded at the same boundary through the
    dict the context manager yields.

    Each span also records the CPU seconds it took and the bursts of the
    running SpeedProbe ``probe`` that fell inside it, and every time the
    tracer reports is rescaled CPU time: a layer's CPU seconds converted at
    the speed the probe measured inside that layer's spans (at the speed
    over the whole run, for a layer too short to hold a burst).
    """

    def __init__(self, run_id: str, probe: SpeedProbe) -> None:
        self.run_id = run_id
        self.probe = probe
        self.spans: list[dict] = []
        self._open: list[int] = []

    def _meter(self) -> tuple:
        return time.perf_counter(), cpu_seconds(), self.probe.cpu, self.probe.iterations

    @contextmanager
    def span(self, name: str, job: str | None = None):
        parent = self._open[-1] if self._open else None
        if job is None and parent is not None:
            job = self.spans[parent]["job"]
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": parent,
            "run": self.run_id,
            "job": job,
            "start": None,
            "end": None,
            "cpu": None,
            "ref_cpu": None,
            "ref_iterations": None,
            "counts": {},
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        rec["start"], cpu0, ref_cpu0, ref_it0 = self._meter()
        try:
            yield rec["counts"]
        finally:
            rec["end"], cpu1, ref_cpu1, ref_it1 = self._meter()
            rec["cpu"] = cpu1 - cpu0
            rec["ref_cpu"] = ref_cpu1 - ref_cpu0
            rec["ref_iterations"] = ref_it1 - ref_it0
            self._open.pop()

    def _rates(self) -> dict:
        """Layer name -> rescaled seconds per CPU second, from closed spans."""
        cpu: dict = {}
        iterations: dict = {}
        for s in self.spans:
            if s["cpu"] is None:
                continue
            cpu[s["name"]] = cpu.get(s["name"], 0.0) + s["ref_cpu"]
            iterations[s["name"]] = iterations.get(s["name"], 0) + s["ref_iterations"]
        rates = {}
        for name in cpu:
            if not iterations[name]:
                cpu[name], iterations[name] = self.probe.cpu, self.probe.iterations
            rates[name] = iterations[name] * REF_NS_PER_ITER * 1e-9 / cpu[name]
        return rates

    def _times(self, spans) -> list[float]:
        rates = self._rates()
        return [s["cpu"] * rates[s["name"]] for s in spans]

    def durations(self, name: str, job: str | None = None, since: int = 0) -> list[float]:
        """Times of the named spans, of one job's spans if ``job`` is given,
        among the spans opened from index ``since`` on."""
        return self._times(
            s for s in self.spans[since:] if s["name"] == name and job in (None, s["job"])
        )

    def seconds(self, name: str, job: str | None = None, since: int = 0) -> float:
        return sum(self.durations(name, job, since))

    def self_seconds(self, name: str) -> float:
        """Time of the named spans minus the time of their children
        (children of one span run one after another)."""
        own = {s["id"] for s in self.spans if s["name"] == name}
        covered = sum(self._times(s for s in self.spans if s["parent"] in own))
        return self.seconds(name) - covered

    def count(self, name: str, key: str) -> int:
        return sum(s["counts"].get(key, 0) for s in self.spans if s["name"] == name)

    def summary(self) -> dict:
        names = sorted({s["name"] for s in self.spans})
        return {
            n: {
                "calls": sum(s["name"] == n for s in self.spans),
                "total_s": self.seconds(n),
                "self_s": self.self_seconds(n),
            }
            for n in names
        }
