"""Measurement loop, metrics and result output for the benchmark.

One run is one workload in this process:

1. set-up: a fresh import of the package (``ellselberg`` modules are
   dropped from ``sys.modules`` first; numpy stays loaded), the
   command-line parser and the workload's input generation.  One set-up
   precedes each pass and more follow the last, ``SETUP_REPEATS`` at
   least; ``setup_s`` is their median.
2. untraced (``--trace 0``): passes over the workload's fixed batch, back
   to back, until the next pass would end after ``--seconds``; at least
   one.  Each group of cases in the batch is timed on its own, and
   ``wall_s`` (``cpu_s``) is the sum over groups of each group's median
   over the passes.  Every untraced timing, set-up included, is scaled to
   a nominal host speed by the reference samples of ``pace.Pacer``.
3. traced (``--trace 1``): one untraced input generation plus pass, then
   the same under the tracer.  Per-layer numbers come from the traced one;
   the difference of the two wall times is the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units are those of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import pace
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SPEC = ROOT / "BENCHMARK.json"

SETUP_REPEATS = 9
PACKAGE = "ellselberg"


def fresh_import() -> None:
    """Import the package and its command line from source, from scratch."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")


def make_workload(name: str, smoke: bool):
    if name == "suite":
        return workloads.Suite(OUT, smoke=smoke)
    if name == "sweep_n1":
        return workloads.SweepN1(draws=1) if smoke else workloads.SweepN1()
    if name == "closed_forms":
        return workloads.ClosedForms(sets=2, points=5) if smoke else workloads.ClosedForms()
    raise ValueError(f"unknown workload {name!r}")


def environment() -> dict:
    """The machine and interpreter the numbers were taken on."""
    import numpy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.is_dir() else []:
        try:
            level = (index / "level").read_text().strip()
            caches[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "l2": caches.get("L2"),
        "l3": caches.get("L3"),
        "nproc": os.cpu_count(),
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def timed(fn, *args):
    """(result, wall seconds, process CPU seconds) of one call."""
    w0, c0 = time.perf_counter(), time.process_time()
    result = fn(*args)
    return result, time.perf_counter() - w0, time.process_time() - c0


def set_up(workload, seed: int, times: list, pacer) -> object:
    """One timed set-up; appends its (start, end) marks to ``times``."""
    start = pacer.mark()
    fresh_import()
    inputs = workload.generate(seed)
    times.append((start, pacer.mark()))
    return inputs


class Tally:
    """Outcomes of the batches of a run, counted once per case.

    Batches repeat the same cases, so ``attempted`` and ``failed`` count
    the first batch only, whatever the number of batches; a later batch
    whose outcomes differ from the first is a missed check (the program is
    not deterministic) and counts as one more failed case.
    """

    def __init__(self):
        self.first = None
        self.missed = self.drifted = 0
        self.failures = set()

    def add(self, outcomes) -> None:
        if self.first is None:
            self.first = outcomes
            self.missed = sum(not o.checked for o in outcomes)
            self.failures.update(o.case for o in outcomes if not o.passed)
        elif _signature(outcomes) != _signature(self.first):
            self.drifted += 1
            self.failures.add("batch differs from the first batch")

    def verdict(self) -> dict:
        heads = sorted(h for h in map(workloads.headroom, self.first) if h is not None)
        return {
            "attempted": len(self.first) + self.drifted,
            "failed": sum(not o.passed for o in self.first) + self.drifted,
            "correct": self.missed == 0 and self.drifted == 0,
            "headroom_min_log10": heads[0] if heads else 0.0,
            "headroom_p50_log10": statistics.median(heads) if heads else 0.0,
            "failures": sorted(self.failures)[:20],
        }


def _signature(outcomes):
    return [(o.case, o.passed, o.rel_err) for o in outcomes]


def run_passes(workload, seed: int, seconds: float, tally: Tally, setups: list, pacer):
    """Passes over the batch until the next would overrun ``seconds``, at
    least one, each after a set-up of its own, so that set-up is timed at
    several moments of the run.  Returns the marks around each group of
    each pass, and the raw wall time of each pass."""
    marks = []
    passes = []
    start = time.perf_counter()
    while True:
        groups = workload.groups(set_up(workload, seed, setups, pacer))
        p0 = time.perf_counter()
        outcomes, spans = [], []
        for group in groups:
            m0 = pacer.mark()
            outcomes += group()
            spans.append((m0, pacer.mark()))
        tally.add(outcomes)
        marks.append(spans)
        passes.append(time.perf_counter() - p0)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(passes) > seconds:
            return marks, passes


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Run one workload; returns the result record (metrics still unfiltered)."""
    OUT.mkdir(exist_ok=True)
    workload = make_workload(name, smoke)
    record = {"workload": name, "seed": seed, "trace": int(trace), "environment": environment()}
    metrics = {}
    setups = []

    if not trace:
        tally = Tally()
        with pace.Pacer() as pacer:
            marks, passes = run_passes(workload, seed, seconds, tally, setups, pacer)
            while len(setups) < (2 if smoke else SETUP_REPEATS):
                set_up(workload, seed, setups, pacer)
        # each group's median over the passes, at nominal host speed
        scaled = [[pacer.scaled(a, b) for a, b in spans] for spans in marks]
        metrics["wall_s"] = sum(statistics.median(p[g][0] for p in scaled)
                                for g in range(len(scaled[0])))
        metrics["cpu_s"] = sum(statistics.median(p[g][1] for p in scaled)
                               for g in range(len(scaled[0])))
        metrics["setup_s"] = statistics.median(pacer.scaled(a, b)[0] for a, b in setups)
        record["pass_walls_s"] = passes
        record["setup_runs_s"] = [b.wall - a.wall for a, b in setups]
        record["reference_ms"] = {
            "samples": len(pacer.walls),
            "median": 1e3 * statistics.median(pacer.walls),
            "quartiles": [1e3 * v for v in statistics.quantiles(pacer.walls, n=4)],
        }
    else:
        # inputs are regenerated inside each region, so sampling is traced
        def region():
            return [o for group in workload.groups(workload.generate(seed)) for o in group()]

        fresh_import()
        tally = Tally()
        plain, plain_wall, _ = timed(region)
        tally.add(plain)
        tr = tracing.Tracer(PACKAGE)
        with tr:
            traced, traced_wall, _ = timed(region)
        tally.add(traced)
        metrics.update(tracing.layer_metrics(tr.spans, traced_wall))
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - plain_wall
        if abs(metrics["trace.accounted_frac"] - 1.0) > 1e-6:
            tally.missed += 1
            tally.failures.add("layer self times and glue do not add up to the wall time")
        tr.write(OUT / f"spans-{name}-s{seed}.tsv")

    v = tally.verdict()
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = v["attempted"]
    metrics["pass_frac"] = 1.0 - v["failed"] / attempted
    metrics["fail_frac"] = v["failed"] / attempted
    metrics["headroom_min_log10"] = v["headroom_min_log10"]
    metrics["headroom_p50_log10"] = v["headroom_p50_log10"]
    record.update(
        correct=v["correct"], attempted=attempted, failed=v["failed"],
        failures=v["failures"], metrics=metrics,
    )
    return record


def load_spec() -> dict:
    with open(SPEC, encoding="utf-8") as fh:
        return json.load(fh)


def select(metrics: dict, entries: list) -> dict:
    """The metrics BENCHMARK.json names, with their units; all must exist."""
    missing = [e["name"] for e in entries if e["name"] not in metrics]
    if missing:
        raise KeyError(f"metrics not produced: {missing}")
    return {e["name"]: {"value": metrics[e["name"]], "unit": e["unit"]} for e in entries}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark the ellselberg verification harness.")
    ap.add_argument("--workload", required=True, choices=("suite", "sweep_n1", "closed_forms"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="reduced-size run for the tests")
    args = ap.parse_args(argv)

    spec = load_spec()
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    entries = spec["per_layer"] if args.trace else spec["end_to_end"]
    shown = select(record["metrics"], entries)

    env = record["environment"]
    print(
        f"environment: python {env['python']}, numpy {env['numpy']}, {env['cpu']}, "
        f"L2 {env['l2']}, L3 {env['l3']}, nproc {env['nproc']}, "
        f"threads {env['threads']}"
    )
    print(
        f"workload {args.workload} seed {args.seed} trace {args.trace}: "
        f"{record['attempted']} cases, {record['failed']} failed, "
        f"correct={'yes' if record['correct'] else 'NO'}"
    )
    for case in record["failures"]:
        print(f"  failed: {case}")
    for name, m in shown.items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    out_path = OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": shown,
    }))
    return 0
