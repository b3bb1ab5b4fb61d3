"""Tests of the benchmark itself: tracer arithmetic, the scaling of timings
to nominal host speed, the metric names in BENCHMARK.json, and a
reduced-size run of every workload in both modes."""

import json
import math
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import pace
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


ALPHA = """
from fakepkg.beta import inner

def outer():
    clock.advance(1)
    inner()
    clock.advance(2)
    helper()

def helper():
    clock.advance(3)
    inner()

def failing():
    clock.advance(4)
    raise ValueError("boom")
"""

BETA = """
def inner():
    clock.advance(5)
"""


@pytest.fixture
def fake_package(monkeypatch):
    """fakepkg with layers alpha and beta; alpha imports beta's function
    and the package re-exports alpha's, so three namespaces hold them."""
    clock = FakeClock()
    pkg = types.ModuleType("fakepkg")
    beta = types.ModuleType("fakepkg.beta")
    alpha = types.ModuleType("fakepkg.alpha")
    for mod in (pkg, beta, alpha):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
        mod.clock = clock
    exec(BETA, beta.__dict__)
    exec(ALPHA, alpha.__dict__)
    pkg.outer = alpha.outer
    pkg.failing = alpha.failing
    return pkg, alpha, beta, clock


def test_self_times_and_entry_counts(fake_package):
    pkg, alpha, beta, clock = fake_package
    original = alpha.outer
    tr = tracer.Tracer("fakepkg", layers=("alpha", "beta"), clock=clock)
    with tr:
        assert pkg.outer is not original
        pkg.outer()
    assert pkg.outer is original and alpha.inner is beta.inner

    # outer [0, 16] -> inner [1, 6], helper [8, 16] -> inner [11, 16]
    spans = tr.spans
    assert [(s.name, s.parent, s.start, s.end) for s in spans] == [
        ("outer", -1, 0, 16),
        ("inner", 0, 1, 6),
        ("helper", 0, 8, 16),
        ("inner", 2, 11, 16),
    ]
    assert tracer.self_times(spans) == [3, 5, 3, 5]
    # helper is entered from its own layer, so it is not a new alpha call
    assert tracer.entries(spans) == [True, True, False, True]
    selfs = tracer.layer_self_times(spans, layers=("alpha", "beta"))
    assert selfs == {"alpha": 6, "beta": 10}

    m = tracer.layer_metrics(spans, wall_s=20.0)
    assert m["trace.glue_s"] == 4.0
    assert m["trace.accounted_frac"] == 1.0


def test_raised_call_closes_its_span(fake_package):
    pkg, _alpha, _beta, clock = fake_package
    tr = tracer.Tracer("fakepkg", layers=("alpha", "beta"), clock=clock)
    with tr, pytest.raises(ValueError):
        pkg.failing()
    (span,) = tr.spans
    assert (span.start, span.end, span.error) == (0, 4, "ValueError")
    assert tr._stack == []


def test_scaling_uses_samples_in_and_around_the_interval():
    p = pace.Pacer()
    # a host at nominal speed for t < 10, at half speed from t = 10 on
    p.at = [0.5 * k for k in range(40)]
    p.walls = [pace.REF_WALL_S * (1 if t < 10 else 2) for t in p.at]
    p.cpus = [pace.REF_CPU_S * (1 if t < 10 else 2) for t in p.at]
    # 4 s at half speed, 0.2 s of it spent in the sampler: 1.9 nominal seconds
    wall, cpu = p.scaled(pace.Mark(12.0, 12.0, 1.0, 1.0), pace.Mark(16.0, 16.0, 1.2, 1.2))
    assert wall == pytest.approx(1.9) and cpu == pytest.approx(1.9)
    # an interval with no sample inside takes the nearest MIN_SAMPLES ones
    assert list(p._near(3.1, 3.2)) == list(range(3, 3 + pace.MIN_SAMPLES))
    assert list(p._near(100.0, 101.0)) == list(range(40 - pace.MIN_SAMPLES, 40))
    wall, _ = p.scaled(pace.Mark(2.1, 2.1, 0, 0), pace.Mark(2.2, 2.2, 0, 0))
    assert wall == pytest.approx(0.1)


def test_pacer_takes_samples_and_restores_the_handler():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    with pace.Pacer(interval=0.01) as p:
        start = p.mark()
        sum(range(200_000))
        end = p.mark()
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(p.at) >= pace.MIN_SAMPLES and p.at == sorted(p.at)
    wall, cpu = p.scaled(start, end)
    assert wall > 0 and cpu > 0


def test_benchmark_spec_is_well_formed():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["bench"]
    assert [w["name"] for w in SPEC["workloads"]] == ["suite", "sweep_n1", "closed_forms"]
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [w["name"] for w in SPEC["workloads"]]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        names.append(m["name"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(m["name"]), m["name"]
        assert UNIT.match(m["unit"]), m["unit"]
        assert m["better"] in ("lower", "higher")
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["suite", "sweep_n1", "closed_forms"])
def test_smoke_run(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert 0 <= result["failed"] <= result["attempted"] and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"])
    if trace:
        assert result["metrics"]["scenarios.reports"]["value"] == (
            {"suite": 4, "sweep_n1": 14, "closed_forms": 0}[workload]
        )
    else:
        for m in SPEC["end_to_end"]:
            assert result["metrics"][m["name"]]["value"] > 0


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "closed_forms", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
