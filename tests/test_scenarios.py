"""Scenario runners: verdicts on happy paths, failed reports on bad input."""

import math

import numpy as np
import pytest

from ellselberg import (
    BalancingMode,
    ConfigurationError,
    Nomes,
    ParameterSet,
    SCENARIO_NAMES,
    SafeBox,
    coefficient_c,
    make_continued,
    make_pinched,
    psi,
    quadrature,
    residues,
    run_suite,
    sample_da_parameters,
    sample_parameters,
    scenario_dixon_anderson,
    scenario_eval_formula,
    scenario_nabla,
    scenario_pinch,
    scenario_qde,
    scenario_recurrence,
    scenario_recurrence_telescope,
    scenarios,
)
from ellselberg.report import to_json
from ellselberg.scenarios import SUITE_ROWS, run_row

NM = Nomes(0.05, 0.12)
A5 = [0.63, 0.58 * np.exp(0.7j), -0.61, 0.64 * np.exp(-1.1j), 0.55]


def pq_set(n=1, t=0.45):
    return ParameterSet.solved(n, t, A5, NM, BalancingMode.PQ)


def one_set(n=1):
    a5 = [0.66, 0.63 * np.exp(0.9j), -0.645, 0.67 * np.exp(-0.5j), 0.62]
    return ParameterSet.solved(n, 0.5, a5, NM, BalancingMode.ONE)


class TestEvalFormula:
    def test_inside_disk(self):
        rep = scenario_eval_formula(1, pq_set(), NM, 1e-8)
        assert rep.passed
        assert rep.scenario == "eval_formula"
        assert rep.rel_err <= 1e-8
        assert rep.runtime_ms is None

    def test_continued_contour_when_solved_entry_leaves_disk(self):
        nm = Nomes(0.05, 0.07)
        ps = ParameterSet.solved(
            1, 0.45, [0.3, 0.4, 0.5, -0.2, 0.25], nm, BalancingMode.PQ
        )
        assert abs(ps.a[5]) > 1
        rep = scenario_eval_formula(1, ps, nm, 1e-8)
        assert rep.passed
        assert "continued contour" in rep.detail

    def test_outside_disk_rejected_at_n2(self):
        ps = pq_set(2, t=0.3)
        bad = ps.with_entry(1, 1.4)
        rep = scenario_eval_formula(2, bad, NM, 1e-6)
        assert not rep.passed
        assert math.isinf(rep.rel_err)
        assert "inside the unit circle" in rep.detail

    def test_timing_flag_fills_runtime(self):
        (rep,) = scenarios.cases("eval_formula", 1, pq_set(), NM, 1e-8, timing=True)
        assert isinstance(rep.runtime_ms, int)


class TestQde:
    def test_pq_shift(self):
        ps = pq_set()
        rep = scenario_qde(1, 1, ps, NM, 1e-7)
        assert rep.passed
        assert rep.k == 1
        assert rep.balancing == "pq"

    def test_p_shift_variant(self):
        ps = ParameterSet.solved(1, 0.45, A5, NM, BalancingMode.P)
        rep = scenario_qde(1, 2, ps, NM, 1e-7)
        assert rep.passed
        assert rep.balancing == "p"

    def test_shift_index_out_of_range(self):
        rep = scenario_qde(1, 6, pq_set(), NM, 1e-7)
        assert not rep.passed
        assert "shift index" in rep.detail

    def test_solved_entry_outside_window(self):
        # PQ form needs |a_6| < |q|; this set has |a_6| ~ 0.2
        ps = ParameterSet.solved(1, 0.45, [0.3, 0.4, 0.5, 0.55, 0.6], NM, BalancingMode.PQ)
        assert abs(ps.a[5]) >= 0.95 * abs(NM.q)
        rep = scenario_qde(1, 1, ps, NM, 1e-7)
        assert not rep.passed
        assert "SampleRejectionError" in rep.detail


class TestRecurrence:
    def test_single_step(self):
        rep = scenario_recurrence(1, 1, one_set(), NM, 1e-7)
        assert rep.passed
        assert rep.r == 1

    def test_telescoped_ratio_equals_coefficient_product(self):
        ps = one_set()
        rep = scenario_recurrence_telescope(1, ps, NM, 1e-7)
        assert rep.passed
        prod = 1.0 + 0.0j
        for r in range(1, ps.n + 1):
            prod *= coefficient_c(r, ps, NM)
        assert abs(rep.rhs - prod) <= 1e-12 * abs(prod)


class TestNabla:
    def test_vanishing(self):
        rep = scenario_nabla(1, 1, 1, one_set(), NM, 1e-7)
        assert rep.passed
        assert rep.rhs == 0
        assert rep.detail.startswith("reference=")


class TestDixonAnderson:
    def test_identity(self):
        a = sample_da_parameters(1, NM, seed=4, count=1)[0]
        rep = scenario_dixon_anderson(1, a, NM, 1e-8)
        assert rep.passed
        assert rep.constraint_exponent == 1
        assert rep.t is None

    def test_wrong_length(self):
        rep = scenario_dixon_anderson(1, (0.5, 0.4), NM, 1e-8)
        assert not rep.passed
        assert "need 2n+4" in rep.detail

    def test_violated_constraint(self):
        a = list(sample_da_parameters(1, NM, seed=4, count=1)[0])
        a[0] *= 1.01
        rep = scenario_dixon_anderson(1, a, NM, 1e-8)
        assert not rep.passed
        assert "violates" in rep.detail


class TestPinch:
    def test_limit(self):
        ps = make_pinched(pq_set(), NM)
        rep = scenario_pinch(ps, NM, 1e-6, check="limit")
        assert rep.passed

    def test_integral(self):
        ps = make_pinched(pq_set(), NM)
        rep = scenario_pinch(ps, NM, 1e-6, check="integral")
        assert rep.passed

    def test_continued(self):
        ps = make_continued(pq_set(), NM)
        rep = scenario_pinch(ps, NM, 1e-6, check="continued")
        assert rep.passed
        assert abs(ps.a[0]) == pytest.approx(1.05)

    def test_unknown_check(self):
        ps = make_pinched(pq_set(), NM)
        rep = scenario_pinch(ps, NM, 1e-6, check="sideways")
        assert not rep.passed
        assert "unknown pinch check" in rep.detail

    # draws on which a two-point extrapolated limit misses 1e-6: the n = 1
    # draw #1 of `verify --scenario pinch --seed 3 --count 2`, and two draws
    # of the rank-1 benchmark sweep
    @pytest.mark.parametrize(
        "seed,count,index", [(54, 2, 1), (332800429, 8, 2), (111354012, 8, 7)]
    )
    def test_former_failures_pass_with_headroom(self, seed, count, index):
        ps = sample_parameters(
            BalancingMode.PQ, 1, NM, seed, count, box=SafeBox(a_min=0.5, a_max=0.7)
        )[index]
        for check in ("limit", "integral"):
            rep = scenario_pinch(make_pinched(ps, NM), NM, 1e-6, check=check)
            assert rep.rel_err <= 1e-6 / 1e4, (check, rep.rel_err)

    def test_integral_check_rejected_at_n2(self):
        ps = make_pinched(pq_set(2, t=0.45), NM)
        rep = scenario_pinch(ps, NM, 1e-6, check="integral")
        assert not rep.passed
        assert "n = 1 only" in rep.detail


class TestReportedGrid:
    """grid_N is the N the continued contour's ladder stopped at, not the budget."""

    @pytest.fixture
    def ladder_sizes(self, monkeypatch):
        # the N every continued-contour ladder stopped at
        sizes = []

        def recording(stop):
            def wrapped(*args, **kwargs):
                res = stop(*args, **kwargs)
                sizes.append(res.N_used)
                return res

            return wrapped

        monkeypatch.setattr(residues, "torus_integrate", recording(residues.torus_integrate))
        return sizes

    def test_eval_formula_continued(self, ladder_sizes):
        nm = Nomes(0.05, 0.07)
        ps = ParameterSet.solved(
            1, 0.45, [0.3, 0.4, 0.5, -0.2, 0.25], nm, BalancingMode.PQ
        )
        rep = scenario_eval_formula(1, ps, nm, 1e-8)
        assert "continued contour" in rep.detail
        assert len(ladder_sizes) == 1
        assert rep.grid_N == ladder_sizes[0] <= quadrature.default_budget(1)

    @pytest.mark.parametrize(
        "check,make,ladders",
        [("integral", make_pinched, 0), ("continued", make_continued, 1)],
    )
    def test_pinch(self, ladder_sizes, check, make, ladders):
        rep = scenario_pinch(make(pq_set(), NM), NM, 1e-6, check=check)
        assert rep.passed
        assert len(ladder_sizes) == ladders
        # the integral check is a closed form and reports grid 0
        assert rep.grid_N == max(ladder_sizes, default=0) <= quadrature.default_budget(1)


class TestRetryNote:
    """A ladder that took the 50x looser stop says so in the report's detail."""

    def test_stalled_ladder_reports_the_retry(self):
        # budget 32 leaves the ladder one doubling: both stops stall
        rep = scenario_eval_formula(1, pq_set(), NM, 1e-8, budget=32)
        assert not rep.passed
        assert rep.detail.startswith("NonConvergenceError")
        assert rep.detail.endswith(quadrature.RETRY_NOTE)

    @staticmethod
    def stalling(monkeypatch, stalls):
        """Record, for every ladder the scenarios stop, whether it took the
        looser stop; budget 64 makes these ladders stall at 16, 32, 64."""
        stop = quadrature._stop

        def recording(rungs, tol):
            res = stop(rungs, tol)
            stalls.append(res.retried)
            return res

        monkeypatch.setattr(quadrature, "_stop", recording)

    def test_successful_retry_is_visible(self, monkeypatch):
        stalls = []
        self.stalling(monkeypatch, stalls)
        rep = scenario_eval_formula(1, pq_set(), NM, 1e-6, budget=64)
        assert stalls == [True]
        assert rep.passed
        assert rep.detail == quadrature.RETRY_NOTE
        # the value a folded ladder stopped at 50x the stop gives, which does not stall
        scale = max(abs(rep.rhs), 1.0)
        strict = quadrature.torus_integrate(
            lambda z: psi(z, pq_set(), NM), 1, 50 * (0.1 * 1e-6 * scale), budget=64, fold=(0,)
        )
        assert stalls == [True, False]
        assert (rep.lhs, rep.grid_N) == (strict.value, strict.N_used)

    def test_two_retried_ladders_one_note(self, monkeypatch):
        # qde reads the magnitude off a two-rung ladder with no stop, then
        # stops two ladders, and both stall at budget 64
        stalls = []
        self.stalling(monkeypatch, stalls)
        rep = scenario_qde(1, 1, pq_set(), NM, 1e-6, budget=64)
        assert stalls == [False, True, True]
        assert rep.passed
        assert rep.detail == quadrature.RETRY_NOTE

    @pytest.mark.parametrize(
        "scenario",
        ["plain", "continued", "dixon_anderson", "nabla", "pinch_continued"],
    )
    def test_retry_evaluates_no_grid_twice(self, monkeypatch, scenario):
        # budget 32 leaves one doubling: the first stop stalls and the
        # looser stop reads the same two rungs; the nodes are the 9 and 17
        # orbit representatives of the folded rank-1 grids, and the whole
        # 16 and 32 circles of the rank-1 nabla integrand (its z_1 is free)
        sizes = []
        nodes = quadrature.QuadratureGrid.nodes

        def recording(grid):
            out = nodes(grid)
            sizes.append(len(out[0]))
            return out

        monkeypatch.setattr(quadrature.QuadratureGrid, "nodes", recording)
        if scenario == "dixon_anderson":
            (a,) = sample_da_parameters(1, NM, seed=4, count=1)
            rep = scenario_dixon_anderson(1, a, NM, 1e-8, budget=32)
        elif scenario == "nabla":
            rep = scenario_nabla(1, 1, 1, one_set(), NM, 1e-7, budget=32)
        elif scenario == "pinch_continued":
            rep = scenario_pinch(make_continued(pq_set(), NM), NM, 1e-6, "continued", budget=32)
        else:
            ps = pq_set() if scenario == "plain" else make_continued(pq_set(), NM)
            # one parameter outside the unit disk takes the continued contour
            assert any(abs(v) > 1 for v in ps.a) == (scenario == "continued")
            rep = scenario_eval_formula(1, ps, NM, 1e-8, budget=32)
        assert rep.detail.endswith(quadrature.RETRY_NOTE)
        assert sizes == ([16, 32] if scenario == "nabla" else [9, 17])

    def test_no_retry_no_note(self):
        rep = scenario_eval_formula(1, pq_set(), NM, 1e-8)
        assert rep.passed
        assert rep.detail == ""


class TestCases:
    def test_stamps_seed_index_and_runtime_on_every_report(self):
        ps = pq_set()
        timed = scenarios.cases("qde", 1, ps, NM, 1e-7, ks=(1, 2), timing=True, seed_index=7)
        assert [(rep.k, rep.seed_index) for rep in timed] == [(1, 7), (2, 7)]
        assert all(isinstance(rep.runtime_ms, int) for rep in timed)
        # the runners leave both to cases, and the rest of the report is theirs
        plain = [scenario_qde(1, k, ps, NM, 1e-7) for k in (1, 2)]
        assert {(rep.seed_index, rep.runtime_ms) for rep in plain} == {(0, None)}
        assert to_json([rep.replace(seed_index=0, runtime_ms=None) for rep in timed]) == to_json(plain)
        (untimed,) = scenarios.cases("eval_formula", 1, ps, NM, seed_index=3)
        assert (untimed.seed_index, untimed.runtime_ms) == (3, None)

    def test_unknown_scenario_name(self):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            scenarios.cases("evaluation", 1, pq_set(), NM)

    @pytest.mark.parametrize(
        "name,n,tol",
        [("eval_formula", 1, 1e-8), ("eval_formula", 3, 1e-6), ("nabla", 2, 1e-7),
         ("pinch", 2, 1e-6), ("dixon_anderson", 0, 1e-8)],
    )
    def test_a_rank_past_the_tolerances_takes_the_last(self, name, n, tol):
        assert scenarios.SCENARIOS[name].tol(n) == tol


class TestRunSuite:
    def test_unknown_scenario_name(self):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            run_suite(scenario="evaluation")

    def test_single_scenario_filter(self):
        reports = run_suite(scenario="dixon_anderson", count=1)
        assert reports
        assert all(r.scenario == "dixon_anderson" for r in reports)
        assert sorted({r.n for r in reports}) == [1, 2]
        assert all(r.passed for r in reports)

    def test_reports_sorted(self):
        reports = run_suite(scenario="qde", count=1)
        keys = [
            (r.scenario, r.n, r.seed_index,
             r.k if r.k is not None else -1,
             r.r if r.r is not None else -1,
             r.i if r.i is not None else -1)
            for r in reports
        ]
        assert keys == sorted(keys)
        assert all(r.passed for r in reports)

    def test_deterministic_bytes(self):
        a = run_suite(scenario="dixon_anderson", count=1)
        b = run_suite(scenario="dixon_anderson", count=1)
        assert to_json(a) == to_json(b)

    def test_scenario_names_cover_suite(self):
        reports = run_suite(scenario="recurrence", count=1)
        assert {r.scenario for r in reports} <= set(SCENARIO_NAMES)


class TestRungs:
    """A magnitude probe and the ladder after it share their rungs."""

    def test_qde_evaluates_each_grid_once_per_integrand(self, monkeypatch):
        sizes = []

        def recording_psi(z, *args, **kwargs):
            sizes.append(len(z[0]))
            return psi(z, *args, **kwargs)

        monkeypatch.setattr(scenarios, "psi", recording_psi)
        row = next(r for r in SUITE_ROWS if r.scenario == "qde" and r.n == 1)
        (rep,) = run_row(row.replace(ks=(1,)), 42)
        assert rep.passed
        # left side: probe (16, 32) then the ladder from 64; right side: a plain
        # ladder; each rung on the N/2 + 1 orbit representatives of its grid
        assert sizes == [9, 17, 33, 65, 9, 17, 33, 65]

    def test_nabla_evaluates_each_grid_once(self, monkeypatch):
        sizes = []
        pointwise = quadrature._nabla_pointwise

        def recording(r, i, z, *args, **kwargs):
            sizes.append(len(z[0]))
            return pointwise(r, i, z, *args, **kwargs)

        monkeypatch.setattr(quadrature, "_nabla_pointwise", recording)
        row = next(r for r in SUITE_ROWS if r.scenario == "nabla" and r.n == 1)
        (rep,) = run_row(row, 42)
        assert rep.passed
        assert sizes == [16, 32, 64, 128]

    @staticmethod
    def row(scenario, n):
        return next(r for r in SUITE_ROWS if r.scenario == scenario and r.n == n)

    def test_qde_evaluates_the_left_ladder_once_for_every_shift(self, monkeypatch):
        seen = []

        def recording_psi(z, params, *args, **kwargs):
            seen.append((params.a, len(z[0])))
            return psi(z, params, *args, **kwargs)

        monkeypatch.setattr(scenarios, "psi", recording_psi)
        reports = run_row(self.row("qde", 1), 42)
        assert [rep.k for rep in reports] == [1, 2, 3, 4, 5]
        assert all(rep.passed for rep in reports)
        # one left ladder plus five right ones, no grid of any evaluated twice
        assert len(set(seen)) == len(seen)
        assert len({a for a, _ in seen}) == 6

    def test_rank2_nabla_runs_one_ladder_for_both_indices(self, monkeypatch):
        seen = []
        pointwise = quadrature._nabla_pointwise

        def recording(r, i, z, *args, **kwargs):
            seen.append((r, i, z.N))
            return pointwise(r, i, z, *args, **kwargs)

        monkeypatch.setattr(quadrature, "_nabla_pointwise", recording)
        reports = run_row(self.row("nabla", 2), 42)
        assert [(rep.r, rep.i) for rep in reports] == [(1, 1), (1, 2), (2, 1), (2, 2)]
        assert all(rep.passed for rep in reports)
        # (r, 2) reads the rungs of (r, 1): two ladders, not four
        assert {(r, i) for r, i, _ in seen} == {(1, 1), (2, 1)}
        assert len(set(seen)) == len(seen)
        assert to_json([reports[0].replace(i=2)]) == to_json([reports[1]])
        assert to_json([reports[2].replace(i=2)]) == to_json([reports[3]])

    @pytest.mark.parametrize("n", [1, 2])
    def test_telescope_after_recurrence_evaluates_no_grid(self, monkeypatch, n):
        run_row(self.row("recurrence", n), 42)
        sizes = []
        nodes = quadrature.QuadratureGrid.nodes

        def recording(grid):
            sizes.append(grid.N)
            return nodes(grid)

        monkeypatch.setattr(quadrature.QuadratureGrid, "nodes", recording)
        (rep,) = run_row(self.row("recurrence_telescope", n), 42)
        assert rep.passed
        assert sizes == []

    def test_reports_do_not_depend_on_the_cache(self, monkeypatch):
        rows = [
            self.row("qde", 1),
            self.row("nabla", 2),
            self.row("recurrence", 2),
            self.row("recurrence_telescope", 2),
        ]
        cached = to_json([rep for row in rows for rep in run_row(row, 42)])
        monkeypatch.setattr(quadrature, "_rung", quadrature._rung.__wrapped__)
        assert to_json([rep for row in rows for rep in run_row(row, 42)]) == cached
