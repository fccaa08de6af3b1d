"""Measurement loop of the simulator benchmark (entry point: ``run.py``).

One run measures one workload for ``--seconds`` host seconds, in this
process, with no worker pool.  It repeats the workload (set-up, run, check)
until the time is spent, and reports medians over the repetitions.

* ``--trace 0`` reports the end-to-end metrics, with no wrapper installed;
  a timer interrupts the repetitions for short samples of
  :class:`HostReference`, which scale the host times to a nominal host.
* ``--trace 1`` alternates untraced repetitions with repetitions under
  :class:`bench_layers.LayerProfiler`, and reports the per-layer metrics,
  the tracing overhead (traced against untraced wall time) and the
  calibrated cost of one wrapped call.

Every repetition's outputs are checked, and its simulated-statistics digest
must equal the digest stored in ``digests.json`` for the seed (when there is
one) and the digest of the run's first repetition, traced or not.  The last
line of standard output is the JSON result object.
"""

from __future__ import annotations

import gc
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import bench_layers
import bench_workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")
#: Scratch space of a run (sweep results, spans), inside the checkout.
WORK = os.path.join(ROOT, ".simbench")

#: Repetitions a run makes at least, whatever ``--seconds`` says.
MIN_REPS = 3
#: Fresh interpreters timed for the ``import repro`` part of set-up.
IMPORT_SAMPLES = 3

#: Objects in the host-speed reference's graph, steps of one sample, and
#: the wall-clock interval between samples while a repetition runs.
REF_CELLS = 100_000
REF_STEPS = 1_000
REF_INTERVAL_S = 0.025
#: Time of one reference sample on the host the benchmark was tuned on
#: (2-vCPU Xeon, Python 3.11) in its faster phases.  Reported host times
#: are scaled to it.
REF_NOMINAL_S = 0.0011

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_cycles_per_s": "1/s",
    "peak_rss_mb": "MB",
    "sim_cycles": "cycles",
    "ipc": "instr/cycle",
}


@dataclass
class Rep:
    """What one repetition measured.  Phase times leave out the time spent
    in host-reference samples; ``speed`` holds, per phase, the factor that
    scales them to the nominal host (1.0 when no reference ran)."""

    setup_s: float
    run_s: float
    check_s: float
    sim_cycles: int
    instructions: int
    digest: str
    check: bench_workloads.CheckResult
    accuracy: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    speed: Tuple[float, float, float] = (1.0, 1.0, 1.0)

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.run_s + self.check_s

    def scaled(self) -> Tuple[float, float, float]:
        """Set-up, run and check time at the nominal host speed."""
        times = (self.setup_s, self.run_s, self.check_s)
        return tuple(time_s * speed for time_s, speed in zip(times, self.speed))


class _Cell:
    __slots__ = ("value", "peer", "counts")

    def __init__(self, value: int):
        self.value = value
        self.peer = None
        self.counts = dict.fromkeys(range(8), 0)

    def step(self, carry: int) -> int:
        value = (self.value + self.peer.value + carry) & 0xFFFF
        self.value = value
        self.counts[value & 7] += 1
        return value


class HostReference:
    """A fixed pure-Python workload that measures how fast the host is while
    the simulator runs.

    It walks a graph of ``REF_CELLS`` small objects (tens of MiB, like the
    simulator's working set) in a scattered order, calling a method that
    reads a neighbour, writes an attribute and updates a dict: the same kind
    of host work as the simulator's, so the shared host's slow phases slow
    it about as much.  It runs no repository code, so a change to the
    simulator cannot move it.  Inside ``with reference:`` a wall-clock timer
    interrupts the running repetition every ``REF_INTERVAL_S`` for one short
    sample, so the samples see the same host conditions as the work around
    them; :meth:`mark` lets the caller take the sampling time out of its own.
    """

    def __init__(self, cells: int = REF_CELLS, seed: int = 7):
        before = _peak_rss_bytes()
        rng = random.Random(seed)
        graph = [_Cell(index) for index in range(cells)]
        order = list(range(cells))
        rng.shuffle(order)
        for here, there in zip(order, order[1:] + order[:1]):
            graph[here].peer = graph[there]
        self.graph = graph
        self.position = 0
        self.carry = 0
        #: Peak memory the graph added (built first, before any
        #: workload), left out of ``peak_rss_mb``.
        self.nbytes = max(0, _peak_rss_bytes() - before)
        self.samples: List[float] = []
        #: Samples taken so far and the host seconds they took.
        self.tally: Tuple[int, float] = (0, 0.0)
        self._previous = None
        self._sampling = False

    def sample(self, steps: int = REF_STEPS) -> float:
        graph, cells = self.graph, len(self.graph)
        position, carry = self.position, self.carry
        start = time.perf_counter()
        for _ in range(steps):
            carry = graph[position].step(carry)
            position = (position + 7919) % cells
        elapsed = time.perf_counter() - start
        self.position, self.carry = position, carry
        self.samples.append(elapsed)
        # One assignment, so a mark() never sees the count without the time.
        self.tally = (len(self.samples), self.tally[1] + elapsed)
        return elapsed

    def mark(self) -> Tuple[float, int, float]:
        """Clock, sample count and sampling time so far, read together
        (retried if a sample lands between the reads), for phase bounds."""
        while True:
            tally = self.tally
            now = time.perf_counter()
            if self.tally is tally:
                return (now,) + tally

    def speed(self, first: int = 0, last: Optional[int] = None) -> float:
        """Factor that scales host times measured during samples
        ``first:last`` to the nominal host: the mean over those samples of
        nominal over measured time (a slow host gives a factor below 1)."""
        window = self.samples[first:last]
        return statistics.fmean(REF_NOMINAL_S / elapsed for elapsed in window)

    def _on_alarm(self, signum, frame) -> None:
        if not self._sampling:  # a sample stalled past the next tick
            self._sampling = True
            try:
                self.sample()
            finally:
                self._sampling = False

    def __enter__(self) -> "HostReference":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)


def _peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def import_seconds(samples: int = IMPORT_SAMPLES) -> float:
    """Median time of ``import repro`` in fresh interpreters."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "start = time.perf_counter(); import repro; "
            "print(time.perf_counter() - start)")
    times = []
    for _ in range(samples):
        done = subprocess.run([sys.executable, "-c", code, SRC], capture_output=True,
                              text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def one_rep(workload, inputs, work_dir: str,
            profiler: Optional[bench_layers.LayerProfiler] = None,
            reference: Optional[HostReference] = None) -> Rep:
    """Set up, run and check *workload* once.  With a running *reference*,
    phase times leave out its samples and each phase gets the speed factor
    of the samples taken during it."""

    def mark() -> Tuple[float, int, float]:
        if reference is not None:
            return reference.mark()
        return time.perf_counter(), 0, 0.0

    def span(name: str):
        return profiler.open_span(name) if profiler is not None else None

    def end(span_id) -> None:
        if span_id is not None:
            profiler.close_span(span_id)

    os.makedirs(work_dir, exist_ok=True)
    if profiler is not None:
        profiler.reset()
    rep_span = span(f"rep:{workload.name}")
    marks = [mark()]
    span_id = span("setup")
    scenario = workload.setup(inputs, work_dir)
    end(span_id)
    marks.append(mark())
    span_id = span("run")
    scenario.run()
    end(span_id)
    marks.append(mark())
    span_id = span("check")
    check = scenario.check()
    end(span_id)
    marks.append(mark())
    end(rep_span)
    phases = list(zip(marks, marks[1:]))
    setup_s, run_s, check_s = ((b[0] - a[0]) - (b[2] - a[2]) for a, b in phases)
    rep = Rep(setup_s=setup_s, run_s=run_s, check_s=check_s,
              sim_cycles=scenario.sim_cycles, instructions=scenario.instructions,
              digest=scenario.digest, check=check, accuracy=scenario.accuracy())
    if reference is not None:
        if marks[-1][1] == marks[0][1]:
            reference.sample()  # a repetition shorter than one interval
        whole = reference.speed(marks[0][1])
        # A phase with fewer than two samples of its own takes the
        # repetition's factor.
        rep.speed = tuple(reference.speed(a[1], b[1]) if b[1] - a[1] >= 2 else whole
                          for a, b in phases)
    if profiler is not None:
        rep.layers = profiler.layer_metrics()
    del scenario
    shutil.rmtree(work_dir, ignore_errors=True)
    gc.collect()
    return rep


def repeat(step: Callable, seconds: float, min_reps: int) -> list:
    """Call *step* for about *seconds*: stop before a call of the median
    length would overrun, but never before *min_reps* calls."""
    results, lengths = [], []
    started = time.perf_counter()
    while True:
        begun = time.perf_counter()
        results.append(step())
        now = time.perf_counter()
        lengths.append(now - begun)
        if len(results) >= min_reps and now - started + statistics.median(lengths) > seconds:
            return results


def check_digests(reps: List[Rep], stored: Optional[str]) -> bench_workloads.CheckResult:
    """Simulated-statistics identity: every repetition equals the stored
    digest for this seed (when stored) and the first repetition."""
    result = bench_workloads.CheckResult()
    for index, rep in enumerate(reps):
        if stored is not None:
            result.expect(rep.digest == stored,
                          f"repetition {index}: digest {rep.digest} != stored {stored}")
        if index:
            result.expect(rep.digest == reps[0].digest,
                          f"repetition {index}: digest {rep.digest} != first {reps[0].digest}")
    return result


def load_digests() -> Dict[str, Dict[str, str]]:
    with open(DIGESTS, "r", encoding="utf-8") as handle:
        return json.load(handle)


def end_to_end(reps: List[Rep], import_s: float, reference_bytes: int,
               scaled: bool = True) -> Dict[str, float]:
    """Medians over the repetitions.  Host times are scaled to the nominal
    host (unless *scaled* is false); ``import repro``, timed in fresh
    interpreters before the repetitions, takes the median factor of all
    their phases.  Peak memory leaves out the host reference's graph."""
    median = statistics.median
    if scaled:
        phases = [rep.scaled() for rep in reps]
        import_s *= median(speed for rep in reps for speed in rep.speed)
    else:
        phases = [(rep.setup_s, rep.run_s, rep.check_s) for rep in reps]
    cycles = reps[0].sim_cycles
    peak_bytes = _peak_rss_bytes()
    return {
        "wall_s": import_s + median(sum(times) for times in phases),
        "setup_s": import_s + median(times[0] for times in phases),
        "sim_cycles_per_s": cycles / median(times[1] for times in phases),
        "peak_rss_mb": (peak_bytes - reference_bytes) / 2**20,
        "sim_cycles": cycles,
        "ipc": reps[0].instructions / cycles,
    }


def _median(values: list):
    """Median; a count (an int in every repetition) stays a whole number."""
    if all(isinstance(value, int) for value in values):
        return statistics.median_low(values)
    return statistics.median(values)


def per_layer(untraced: List[Rep], traced: List[Rep], wrap_cost_s: float) -> Dict[str, float]:
    """Per-layer medians over the traced repetitions, and the overhead: the
    median over pairs of traced against untraced wall time."""
    median = statistics.median
    metrics = {name: _median([rep.layers[name] for rep in traced]) for name in traced[0].layers}
    metrics.update(traced[0].accuracy)
    metrics.update({
        "trace.untraced_wall_s": median(rep.wall_s for rep in untraced),
        "trace.traced_wall_s": median(rep.wall_s for rep in traced),
        "trace.overhead_frac":
            median(t.wall_s / u.wall_s for u, t in zip(untraced, traced)) - 1.0,
        "trace.wrap_cost_us": wrap_cost_s * 1e6,
    })
    return metrics


def _units(name: str) -> str:
    name = name[:-len("_raw")] if name.endswith("_raw") else name
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_us") or name.endswith("_us_per_call"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name.endswith("_err"):
        return "frac"
    return "count"


def main(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = bench_workloads.WORKLOADS[workload_name]
    inputs = workload.generate(seed)
    stored = load_digests().get(workload_name, {}).get(str(seed))
    work_dir = os.path.join(WORK, f"work-{os.getpid()}")
    import_s = import_seconds()
    try:
        if not trace:
            reference = HostReference()
            with reference:
                reps = repeat(lambda: one_rep(workload, inputs, work_dir, reference=reference),
                              seconds, MIN_REPS)
            metrics = end_to_end(reps, import_s, reference.nbytes)
            raw = end_to_end(reps, import_s, reference.nbytes, scaled=False)
            shown = dict(metrics)
            shown.update({f"{name}_raw": raw[name]
                          for name in ("wall_s", "setup_s", "sim_cycles_per_s")})
            shown["host_ref_s"] = statistics.median(reference.samples)
            shown["host_ref_samples"] = len(reference.samples)
        else:
            profiler = bench_layers.LayerProfiler()

            def pair():
                # Untraced and traced repetitions alternate, so both halves
                # of the overhead see the same host conditions.
                untraced = one_rep(workload, inputs, work_dir)
                with profiler:
                    return untraced, one_rep(workload, inputs, work_dir, profiler)

            pairs = repeat(pair, seconds, 2)
            untraced, traced = [p[0] for p in pairs], [p[1] for p in pairs]
            reps = untraced + traced
            metrics = per_layer(untraced, traced, bench_layers.calibrate_wrapper_cost())
            shown = dict(metrics)
            write_spans(profiler.spans, workload_name, seed)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    checks = bench_workloads.CheckResult()
    for rep in reps:
        checks.attempted += rep.check.attempted
        checks.failures += rep.check.failures
    digests = check_digests(reps, stored)
    checks.attempted += digests.attempted
    checks.failures += digests.failures
    failed = len(checks.failures)

    shown["check_fail_frac"] = failed / checks.attempted
    if reps[0].accuracy["report.paper_values"]:
        shown["paper_max_rel_err"] = reps[0].accuracy["report.paper_max_rel_err"]
    print(f"workload {workload_name}  seed {seed}  repetitions {len(reps)}  "
          f"trace {int(trace)}  digest {reps[0].digest}"
          + ("" if stored is not None else "  (no stored digest for this seed)"))
    for name, value in shown.items():
        print(f"  {name:30s} {value:<16.6g} {_units(name)}")
    for failure in checks.failures[:20]:
        print(f"  CHECK FAILED: {failure}")
    result = {
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": _units(name)}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def write_spans(spans: List[dict], workload_name: str, seed: int) -> str:
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, f"spans-{workload_name}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workload": workload_name, "seed": seed, "spans": spans}, handle, indent=1)
        handle.write("\n")
    return path


def record_digest(workload_name: str, seed: int) -> str:
    """Run one checked repetition and store its digest for *seed*."""
    workload = bench_workloads.WORKLOADS[workload_name]
    rep = one_rep(workload, workload.generate(seed), os.path.join(WORK, f"work-{os.getpid()}"))
    if rep.check.failures:
        raise SystemExit(f"{workload_name} seed {seed}: outputs wrong, digest not stored: "
                         f"{rep.check.failures[:3]}")
    digests = load_digests()
    digests.setdefault(workload_name, {})[str(seed)] = rep.digest
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return rep.digest
