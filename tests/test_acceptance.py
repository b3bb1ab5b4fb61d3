"""Acceptance battery: the eight desk-scale certification criteria.

Each test covers one criterion at its stated tolerance and prints a single
pass/fail line (visible under ``pytest -s``).  Tolerances here are the
contract; the unit-test files pin the sharper margins actually achieved.
"""

import time

import numpy as np
import pytest

from ellselberg import (
    BalancingMode,
    Nomes,
    ParameterSet,
    SafeBox,
    elliptic_gamma,
    cn_recurrence_check,
    make_continued,
    make_pinched,
    psi,
    run_suite,
    sample_parameters,
    scenario_eval_formula,
    scenario_nabla,
    scenario_pinch,
    scenario_qde,
    scenario_recurrence,
    scenario_recurrence_telescope,
    theta,
)
from ellselberg.quadrature import QuadratureGrid
from ellselberg.report import to_json, write_report
from references import gamma_pm, residue_gamma_pm

EVAL_NOMES = Nomes(0.05, 0.12)


def verdict(name, ok, detail):
    line = f"{name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def rel(a, b):
    a, b = complex(a), complex(b)
    d = max(abs(a), abs(b))
    return abs(a - b) / d if d > 1e-12 else abs(a - b)


@pytest.fixture(scope="module")
def eval_sets_n1():
    return sample_parameters(BalancingMode.PQ, 1, EVAL_NOMES, seed=42 + 11, count=20)


def test_scalar_functional_equations():
    rng = np.random.default_rng(20240817)
    worst = 0.0
    started = time.monotonic()
    for _ in range(100):
        p = rng.uniform(0.02, 0.25) * np.exp(2j * np.pi * rng.random())
        q = rng.uniform(0.02, 0.25) * np.exp(2j * np.pi * rng.random())
        u = rng.uniform(0.3, 1.5) * np.exp(2j * np.pi * rng.random())
        nm = Nomes(p, q)
        worst = max(worst, rel(elliptic_gamma(q * u, nm), theta(u, p) * elliptic_gamma(u, nm)))
        worst = max(worst, rel(elliptic_gamma(u, nm) * elliptic_gamma(p * q / u, nm), 1.0))
        worst = max(worst, rel(elliptic_gamma(u, nm), elliptic_gamma(u, Nomes(q, p))))
        worst = max(worst, rel(theta(1 / u, p), -theta(u, p) / u))
        worst = max(worst, rel(theta(p * u, p), -theta(u, p) / u))
    elapsed = time.monotonic() - started
    verdict(
        "scalar functional equations",
        worst < 1e-11 and elapsed < 5.0,
        f"max rel err {worst:.2e} over 5x100 points, {elapsed:.2f}s",
    )


def test_evaluation_formula_sampled(eval_sets_n1):
    worst = 0.0
    started = time.monotonic()
    for ps in eval_sets_n1:
        rep = scenario_eval_formula(1, ps, EVAL_NOMES, 1e-8)
        assert rep.passed, rep.detail
        worst = max(worst, rep.rel_err)
    elapsed_n1 = time.monotonic() - started
    assert elapsed_n1 < 30.0

    started = time.monotonic()
    for ps in sample_parameters(BalancingMode.PQ, 2, EVAL_NOMES, seed=42 + 22, count=5):
        rep = scenario_eval_formula(2, ps, EVAL_NOMES, 1e-6)
        assert rep.passed, rep.detail
        worst = max(worst, rep.rel_err)
    elapsed_n2 = time.monotonic() - started
    assert elapsed_n2 < 300.0

    nm0 = Nomes(0.0, 0.12)
    for ps in sample_parameters(BalancingMode.PQ, 1, nm0, seed=42 + 13, count=2):
        rep = scenario_eval_formula(1, ps, nm0, 1e-8)
        assert rep.passed, rep.detail
        worst = max(worst, rep.rel_err)
    verdict(
        "evaluation formula",
        True,
        f"max rel err {worst:.2e}; n=1 20 sets {elapsed_n1:.1f}s, n=2 5 sets {elapsed_n2:.1f}s, p=0 2 sets",
    )


def test_q_difference_system():
    worst = 0.0
    box = SafeBox(a_min=0.5, a_max=0.7)
    for n, ks, nm, tol in (
        (1, (1, 2, 3, 4, 5), Nomes(0.05, 0.12), 1e-7),
        (2, (1, 3), Nomes(0.01, 0.12), 1e-6),
    ):
        sets = sample_parameters(
            BalancingMode.PQ, n, nm, seed=42 + 21 * n, count=1,
            box=box, predicate=lambda ps: abs(ps.a[5]) < 0.95 * abs(nm.q),
        )
        for k in ks:
            rep = scenario_qde(n, k, sets[0], nm, tol)
            assert rep.passed, (n, k, rep.detail)
            worst = max(worst, rep.rel_err)
    verdict("q-difference system", True, f"max rel err {worst:.2e} (n=1 k=1..5, n=2 k=1,3)")


def one_mode_set(n):
    return sample_parameters(
        BalancingMode.ONE, n, Nomes(0.015, 0.12), seed=42 + 31 * n, count=1,
        t=0.5, box=SafeBox(a_min=0.55, a_max=0.7),
    )[0]


def test_invariant_recurrence():
    ps = one_mode_set(2)
    nm = Nomes(0.015, 0.12)
    worst = 0.0
    for r in (1, 2):
        rep = scenario_recurrence(2, r, ps, nm, 1e-6)
        assert rep.passed, (r, rep.detail)
        worst = max(worst, rep.rel_err)
    rep = scenario_recurrence_telescope(2, ps, nm, 1e-6)
    assert rep.passed, rep.detail
    worst = max(worst, rep.rel_err)
    verdict("invariant recurrence", True, f"max rel err {worst:.2e} (n=2 r=1,2 + telescoped)")


def test_nabla_vanishing():
    worst = 0.0
    for n in (1, 2):
        ps = one_mode_set(n)
        nm = Nomes(0.015, 0.12)
        for r in range(1, n + 1):
            for i in range(1, n + 1):
                rep = scenario_nabla(n, r, i, ps, nm, 1e-7)
                assert rep.passed, (n, r, i, rep.detail)
                worst = max(worst, rep.rel_err)
    verdict("nabla vanishing", True, f"max |value|/reference {worst:.2e} (n<=2, all r,i)")


def test_residue_and_pinch_suite():
    nm = EVAL_NOMES
    a = 0.55 * np.exp(0.4j)
    th = 2 * np.pi * (np.arange(256) + 0.5) / 256
    w = a + 1e-3 * np.exp(1j * th)
    contour = complex(np.mean(gamma_pm(a, w, nm) / w * (w - a)))
    residue_err = rel(contour, residue_gamma_pm(a, nm))
    assert residue_err < 1e-8

    base = ParameterSet.solved(
        1, 0.45, [0.63, 0.58 * np.exp(0.7j), -0.61, 0.64 * np.exp(-1.1j), 0.55],
        nm, BalancingMode.PQ,
    )
    limit = scenario_pinch(make_pinched(base, nm), nm, 1e-6, check="limit")
    assert limit.passed, limit.detail
    cont = scenario_pinch(make_continued(base, nm), nm, 1e-6, check="continued")
    assert cont.passed, cont.detail
    assert 1 < abs(make_continued(base, nm).a[0]) < abs(nm.q) ** -0.5

    cn_worst = max(cn_recurrence_check(n, 0.45, nm) for n in range(1, 6))
    assert cn_worst < 1e-12
    verdict(
        "residue and pinch suite",
        True,
        f"residue {residue_err:.2e}, limit {limit.rel_err:.2e}, "
        f"continued {cont.rel_err:.2e}, c_n defect {cn_worst:.2e}",
    )


def test_quadrature_exponential_convergence(eval_sets_n1):
    worst_ratio = float("inf")
    for ps in eval_sets_n1:
        values = {}
        for N in (32, 64, 128, 256, 512):
            grid = QuadratureGrid(1, N).nodes()
            values[N] = complex(np.mean(psi(grid, ps, EVAL_NOMES)))
        floor = 1e-13 * abs(values[512])
        for N in (32, 64, 128):
            e_this = abs(values[N] - values[N * 2])
            e_next = abs(values[N * 2] - values[N * 4])
            if e_next <= floor:
                continue
            worst_ratio = min(worst_ratio, e_this / e_next)
            assert e_this >= 10 * e_next, (ps.a, N, e_this, e_next)
    verdict(
        "quadrature exponential convergence",
        True,
        f"worst pre-roundoff doubling ratio {worst_ratio:.1f}x over 20 sets",
    )


def test_byte_reproducible_reports(tmp_path):
    kwargs = dict(scenario="eval_formula", seed=42, count=1)
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    write_report(run_suite(**kwargs), str(first))
    write_report(run_suite(**kwargs), str(second))
    identical = first.read_bytes() == second.read_bytes()
    in_memory = to_json(run_suite(**kwargs)) == to_json(run_suite(**kwargs))
    verdict(
        "byte-reproducible reports",
        identical and in_memory,
        f"{len(first.read_bytes())} bytes, repeated runs identical",
    )
