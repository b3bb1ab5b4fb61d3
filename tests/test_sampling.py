"""Seeded parameter sampling and safe-box enforcement."""

import importlib.util
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from ellselberg import (
    BalancingMode,
    ConfigurationError,
    Nomes,
    ParameterSet,
    SafeBox,
    SampleStats,
    coefficient_c,
    sample_da_parameters,
    sample_parameters,
)
from ellselberg import sampling, scenarios
from ellselberg.errors import DegenerateParameterError, EllSelbergError

NM = Nomes(0.05, 0.12)


class TestSampleParameters:
    def test_deterministic(self):
        a = sample_parameters(BalancingMode.PQ, 1, NM, seed=7, count=4)
        b = sample_parameters(BalancingMode.PQ, 1, NM, seed=7, count=4)
        assert [ps.a for ps in a] == [ps.a for ps in b]

    def test_seed_changes_draw(self):
        a = sample_parameters(BalancingMode.PQ, 1, NM, seed=7, count=1)
        b = sample_parameters(BalancingMode.PQ, 1, NM, seed=8, count=1)
        assert a[0].a != b[0].a

    @pytest.mark.parametrize("mode", list(BalancingMode))
    @pytest.mark.parametrize("n", [1, 2])
    def test_balancing_holds(self, mode, n):
        # P and ONE at n=2 need a small p for the solved entry to clear the box
        nm = NM if n == 1 else Nomes(0.004, 0.12)
        box = None if n == 1 else SafeBox(a_min=0.5, a_max=0.7)
        for ps in sample_parameters(mode, n, nm, seed=3, count=3, box=box):
            prod = 1.0 + 0.0j
            for v in ps.a:
                prod *= v
            prod *= ps.t ** (2 * n - 2)
            target = {
                BalancingMode.PQ: nm.pq,
                BalancingMode.P: nm.p,
                BalancingMode.ONE: 1.0,
            }[mode]
            assert abs(prod - target) <= 1e-14 * max(abs(target), 1.0)

    def test_free_entries_inside_box(self):
        box = SafeBox(a_min=0.4, a_max=0.6, t_min=0.35, t_max=0.45)
        for ps in sample_parameters(BalancingMode.PQ, 2, NM, seed=11, count=5, box=box):
            for v in ps.a[:5]:
                assert 0.4 - 1e-12 <= abs(v) <= 0.6 + 1e-12
            assert 0.35 <= abs(ps.t) <= 0.45

    def test_fixed_t_passes_through(self):
        for ps in sample_parameters(BalancingMode.ONE, 1, NM, seed=2, count=3, t=0.5):
            assert ps.t == 0.5

    def test_solved_entry_clearance(self):
        box = SafeBox(solved_clearance=0.25)
        for ps in sample_parameters(BalancingMode.PQ, 1, NM, seed=5, count=8, box=box):
            assert abs(ps.a[5]) <= 0.75

    def test_one_mode_solved_entry_scaled_by_p(self):
        for ps in sample_parameters(BalancingMode.ONE, 1, NM, seed=5, count=8):
            assert abs(NM.p * ps.a[5]) <= 0.75

    def test_predicate_filter(self):
        pred = lambda ps: ps.a[5].real > 0
        stats = SampleStats()
        out = sample_parameters(
            BalancingMode.PQ, 1, NM, seed=9, count=4, predicate=pred, stats=stats
        )
        assert all(ps.a[5].real > 0 for ps in out)
        assert stats.reasons.get("scenario predicate", 0) > 0

    def test_stats_track_acceptance(self):
        stats = SampleStats()
        sample_parameters(BalancingMode.PQ, 1, NM, seed=1, count=6, stats=stats)
        assert stats.accepted == 6

    def test_infeasible_box_raises(self):
        box = SafeBox(max_rejections=50)
        with pytest.raises(ConfigurationError, match="rejections"):
            sample_parameters(
                BalancingMode.PQ, 1, NM, seed=1, count=1,
                box=box, predicate=lambda ps: False,
            )

    def test_nome_outside_box_raises(self):
        with pytest.raises(ConfigurationError, match="box bound"):
            sample_parameters(BalancingMode.PQ, 1, Nomes(0.3, 0.12), seed=1, count=1)


# one draw from each sampler in a given box
BOTH_SAMPLERS = pytest.mark.parametrize(
    "sample",
    [
        lambda box: sample_parameters(BalancingMode.PQ, 1, NM, seed=1, count=1, box=box),
        lambda box: sample_da_parameters(1, NM, seed=1, count=1, box=box),
    ],
    ids=["balanced", "dixon_anderson"],
)


@pytest.mark.parametrize(
    "bounds",
    [dict(a_min=0.0, a_max=0.0), dict(a_min=-0.1, a_max=0.5), dict(a_min=0.6, a_max=0.5)],
)
@BOTH_SAMPLERS
def test_both_samplers_refuse_a_box_without_free_moduli(sample, bounds):
    # the box is refused before any draw, so both samplers give the same error
    with pytest.raises(ConfigurationError, match="a_min"):
        sample(SafeBox(**bounds))


@BOTH_SAMPLERS
def test_both_samplers_reject_an_underflowing_free_product(sample):
    # 1e-70 is a valid a_min, but five such moduli multiply to 0.0
    with pytest.raises(ConfigurationError, match=r"\('degenerate free product', 51\)"):
        sample(SafeBox(a_min=1e-70, a_max=1e-70, max_rejections=50))


class TestSampleDaParameters:
    @pytest.mark.parametrize("n", [1, 2])
    def test_constraint_product(self, n):
        for a in sample_da_parameters(n, NM, seed=4, count=3):
            assert len(a) == 2 * n + 4
            prod = 1.0 + 0.0j
            for v in a:
                prod *= v
            assert abs(prod - NM.pq) <= 1e-13 * abs(NM.pq)

    def test_deterministic(self):
        a = sample_da_parameters(2, NM, seed=6, count=2)
        b = sample_da_parameters(2, NM, seed=6, count=2)
        assert a == b

    def test_solved_entry_clearance(self):
        for a in sample_da_parameters(1, NM, seed=12, count=6):
            assert abs(a[-1]) <= 0.75


# A reference sampler: sample_parameters as first written, building every
# candidate's ParameterSet and then checking it.  The sampler rejects a
# draw whose solved entry misses its clearance before building the set; the
# two must give the same sets, bit for bit, the same stats and the same errors.
def reference_sample(mode, n, nomes, seed, count, t=None, box=None, predicate=None, stats=None):
    box = box or sampling.DEFAULT_BOX
    sampling._check_box(nomes, box)

    def draw(rng):
        tt = rng.uniform(box.t_min, box.t_max) if t is None else t
        free = sampling._free(rng, box, 5)
        if sampling._product(free, complex(tt) ** (2 * n - 2)) == 0:
            return "degenerate free product"
        ps = ParameterSet.solved(n, tt, free, nomes, mode)
        reason = None
        if ps.balancing_mode is not BalancingMode.ONE:
            reason = sampling._clearance(ps.a[5], box)
        elif not abs(nomes.p * ps.a[5]) <= 1 - box.solved_clearance:
            reason = "p times solved entry too close to the torus"
        else:
            try:
                for r in range(1, ps.n + 1):
                    coefficient_c(r, ps, nomes)
            except DegenerateParameterError:
                reason = "degenerate theta in recurrence coefficient"
        if reason is None and predicate is not None and not predicate(ps):
            reason = "scenario predicate"
        return reason or ps

    what = f"mode={mode.value}, n={n}, nomes=({nomes.p}, {nomes.q})"
    return sampling._sample(seed, count, box, stats, what, draw)


def set_bits(ps):
    return ps.n, ps.balancing_mode, np.array([ps.t, *ps.a], dtype=complex).tobytes()


def outcome(sample, *args, **kwargs):
    """The sets' bits and the stats, or the error and the stats when it was raised."""
    stats = SampleStats()
    try:
        got = [set_bits(ps) for ps in sample(*args, stats=stats, **kwargs)]
    except EllSelbergError as exc:
        got = (type(exc), str(exc))
    return got, stats


def _workload_boxes():
    """The boxes bench/workloads.py samples in, as sample_parameters arguments."""
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).resolve().parent.parent / "bench" / "workloads.py")
    w = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = w  # its dataclasses look their module up
    try:
        spec.loader.exec_module(w)
    finally:
        del sys.modules[spec.name]
    ev, qn, on = Nomes(*w.EVAL_NOMES), Nomes(*w.QDE_NOMES), Nomes(*w.ONE_NOMES)
    qde, one, n3 = SafeBox(**w.QDE_BOX), SafeBox(**w.ONE_BOX), SafeBox(**w.N3_BOX)
    in_q = lambda ps: abs(ps.a[5]) < 0.95 * abs(qn.q)
    return [
        (BalancingMode.PQ, 1, ev, {}),
        (BalancingMode.PQ, 1, qn, dict(box=qde, predicate=in_q)),
        (BalancingMode.P, 1, qn, dict(box=qde)),
        (BalancingMode.ONE, 1, on, dict(t=0.5, box=one)),
        (BalancingMode.PQ, 2, ev, dict(box=qde)),
        (BalancingMode.PQ, 3, ev, dict(t=w.N3_T, box=n3)),
        (BalancingMode.ONE, 2, on, dict(t=0.5, box=one)),
    ]


def _row_args(row):
    spec = scenarios._scenario(row.scenario)
    mode = spec.balancing if row.mode is None else row.mode
    window = spec.window is not None and mode is spec.balancing
    predicate = partial(spec.window, nomes=row.nomes) if window else None
    return mode, row.n, row.nomes, dict(t=row.t, box=row.box, predicate=predicate), row.seed_offset, row.count


SAMPLED_ROWS = [row for row in scenarios.SUITE_ROWS if scenarios._scenario(row.scenario).balancing]


@pytest.mark.parametrize("row", SAMPLED_ROWS, ids=[f"{r.scenario}-n{r.n}-{r.seed_offset}" for r in SAMPLED_ROWS])
def test_suite_rows_sample_as_the_reference(row):
    mode, n, nomes, kwargs, offset, count = _row_args(row)
    for seed in range(1, 11):
        args = (mode, n, nomes, seed + offset, count)
        want = outcome(reference_sample, *args, **kwargs)
        assert want[1].accepted == count
        assert outcome(sample_parameters, *args, **kwargs) == want, seed


def test_workload_boxes_sample_as_the_reference():
    for mode, n, nomes, kwargs in _workload_boxes():
        for seed in range(1, 11):
            args = (mode, n, nomes, seed, 8)
            want = outcome(reference_sample, *args, **kwargs)
            assert want[1].accepted == 8
            assert outcome(sample_parameters, *args, **kwargs) == want, (mode, n, seed)


@pytest.mark.parametrize("case", ["impossible_box", "bad_t", "drawn_bad_t", "p_zero"])
def test_refusals_are_the_reference(case):
    # an impossible box (the smallest |a_6| the rank-2 qde box allows is
    # 0.143, its window needs < 0.114), an explicit |t| >= 1, one drawn from
    # a box reaching past 1, and a_6 = 0 at p = 0 under the P balancing
    qde_box = SafeBox(a_min=0.5, a_max=0.7, max_rejections=2000)
    window = partial(scenarios._in_qde_window, nomes=NM)
    args, kwargs = {
        "impossible_box": ((BalancingMode.PQ, 2, NM, 1, 1), dict(box=qde_box, predicate=window)),
        "bad_t": ((BalancingMode.PQ, 1, NM, 1, 3), dict(t=1.5)),
        "drawn_bad_t": ((BalancingMode.PQ, 1, NM, 2, 50), dict(box=SafeBox(t_min=0.9, t_max=1.1))),
        "p_zero": ((BalancingMode.P, 1, Nomes(0.0, 0.12), 1, 2), {}),
    }[case]
    want = outcome(reference_sample, *args, **kwargs)
    assert isinstance(want[0], tuple)
    assert outcome(sample_parameters, *args, **kwargs) == want
