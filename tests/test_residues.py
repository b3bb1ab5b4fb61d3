"""Residues, contour continuation, pinch limits, c_n recurrence."""

import numpy as np
import pytest

from ellselberg import (
    BalancingMode,
    DomainError,
    Nomes,
    ParameterSet,
    c_constant,
    cn_recurrence_check,
    continued_integral_n1,
    j_closed,
    lim_pinch_J,
    psi,
    qpoch_inf,
    torus_integrate,
)
from ellselberg.qseries import _euler_pair, elliptic_gamma
from references import gamma_pm, residue_gamma_pm, richardson_limit

NM = Nomes(0.05, 0.12)
T = 0.4
A5 = [0.63, 0.58 * np.exp(0.7j), -0.61, 0.64 * np.exp(-1.1j), 0.55]
A5_OUT = [1.05 * np.exp(0.3j), 0.58 * np.exp(0.7j), -0.61, 0.64 * np.exp(-1.1j), 0.55]


def rel(a, b):
    a, b = complex(a), complex(b)
    d = max(abs(a), abs(b))
    return abs(a - b) / d if d > 1e-12 else abs(a - b)


def contour_residue(f, center, radius=1e-3, N=256):
    th = 2 * np.pi * (np.arange(N) + 0.5) / N
    w = center + radius * np.exp(1j * th)
    return complex(np.mean(f(w) * (w - center)))


class TestResidueGammaPm:
    def test_matches_contour_integral(self):
        a = 0.55 * np.exp(0.4j)
        numeric = contour_residue(lambda w: gamma_pm(a, w, NM) / w, a)
        assert rel(numeric, residue_gamma_pm(a, NM)) < 1e-12

    def test_antisymmetric_at_reciprocal(self):
        a = 0.55 * np.exp(0.4j)
        numeric = contour_residue(lambda w: gamma_pm(a, w, NM) / w, 1 / a)
        assert rel(numeric, -residue_gamma_pm(a, NM)) < 1e-12

    def test_p_zero_degeneration(self):
        a = 0.55 * np.exp(0.4j)
        got = residue_gamma_pm(a, Nomes(0.0, 0.12))
        ref = (1 / qpoch_inf(a * a, 0.12)) / qpoch_inf(0.12, 0.12)
        assert rel(got, ref) < 1e-14


class TestContinuedIntegral:
    def test_reduces_to_plain_integral_inside(self):
        ps = ParameterSet.solved(1, T, A5, NM, BalancingMode.PQ)
        plain = torus_integrate(lambda z: psi(z, ps, NM), 1, 1e-10).value
        assert rel(plain, continued_integral_n1(ps, NM, 1e-10)[0]) < 1e-12

    def test_one_parameter_outside_matches_closed_form(self):
        ps = ParameterSet.solved(1, T, A5_OUT, NM, BalancingMode.PQ)
        rhs = c_constant(1, NM, T) * j_closed(ps, NM)
        got, _ = continued_integral_n1(ps, NM, 5e-5 * abs(rhs))
        assert rel(got, rhs) < 5e-5

    @pytest.mark.parametrize("mod", [0.96, 1.04])
    def test_continuous_across_unit_circle(self, mod):
        a5 = [mod * np.exp(0.3j)] + A5_OUT[1:]
        ps = ParameterSet.solved(1, T, a5, NM, BalancingMode.PQ)
        rhs = c_constant(1, NM, T) * j_closed(ps, NM)
        got, _ = continued_integral_n1(ps, NM, 5e-5 * abs(rhs))
        assert rel(got, rhs) < 5e-5

    def test_rejects_higher_rank(self):
        a5b = [0.66, 0.63 * np.exp(0.9j), -0.645, 0.67 * np.exp(-0.5j), 0.62]
        ps = ParameterSet.solved(2, 0.5, a5b, NM, BalancingMode.PQ)
        with pytest.raises(DomainError):
            continued_integral_n1(ps, NM, 1e-8)

    def test_rejects_two_outside(self):
        a5 = [1.05, 1.06 * np.exp(0.7j), -0.61, 0.64 * np.exp(-1.1j), 0.55]
        ps = ParameterSet(1, T, tuple(a5) + (NM.pq / np.prod(a5),))
        with pytest.raises(DomainError):
            continued_integral_n1(ps, NM, 1e-8)

    def test_rejects_parameter_on_the_contour(self):
        a5 = [1.0005] + A5[1:]
        ps = ParameterSet(1, T, tuple(a5) + (NM.pq / np.prod(a5),))
        with pytest.raises(DomainError):
            continued_integral_n1(ps, NM, 1e-8)

    def test_rejects_outside_window(self):
        # |q|^(-1/2) ~ 2.887 for q = 0.12
        a5 = [2.9] + A5[1:]
        ps = ParameterSet(1, T, tuple(a5) + (NM.pq / np.prod(a5),))
        with pytest.raises(DomainError):
            continued_integral_n1(ps, NM, 1e-8)


def pinched_set(n, nomes):
    t = 0.45
    a1 = 0.8 * np.exp(0.5j)
    a345 = [0.6, -0.55, 0.62 * np.exp(0.9j)]
    a6 = nomes.pq / (a345[0] * a345[1] * a345[2] * t ** (2 * n - 2))
    return ParameterSet(n, t, (a1, 1 / a1, *a345, a6))


class TestPinchLimit:
    @pytest.mark.parametrize("eps", [1e-4, 1e-6])
    def test_gamma_residue_limit_is_exact(self, eps):
        # (1 - x) Gamma(x) -> 1/((p;p)(q;q)) at x = 1 with an O(|1 - x|) defect;
        # its slope is the same at both distances
        limit = 1.0 / _euler_pair(NM)

        def defect(d):
            x = 1.0 - d * np.exp(0.7j)
            return ((1.0 - x) * elliptic_gamma(x, NM) - limit) / d

        slope = defect(1e-3)
        assert abs(defect(eps) - slope) < 1e-3 * abs(slope)
        assert 0.1 * abs(limit) < abs(slope) < 10 * abs(limit)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_closed_form_matches_extrapolation(self, n):
        ps = pinched_set(n, NM)
        a1 = ps.a[0]

        def f(eps):
            a2 = (1 - eps) / a1
            ps_eps = ParameterSet(n, ps.t, (a1, a2, *ps.a[2:]))
            return (1 - a1 * a2) * j_closed(ps_eps, NM)

        assert rel(lim_pinch_J(ps, NM), richardson_limit(f)) < 1e-5

    def test_pinch_of_integral_n1(self):
        ps = pinched_set(1, NM)
        a1 = ps.a[0]
        rest = ps.a[2:]

        def g(eps):
            a2 = (1 - eps) / a1
            ps_eps = ParameterSet(1, ps.t, (a1, a2, *rest))
            return (1 - a1 * a2) * continued_integral_n1(ps_eps, NM, 1e-9 / eps)[0]

        pp = qpoch_inf(NM.p, NM.p)
        qq = qpoch_inf(NM.q, NM.q)
        closed = 2.0 / (pp**2 * qq**2)
        for am in rest:
            closed *= gamma_pm(am, a1, NM)
        assert rel(richardson_limit(g), closed) < 1e-5

    def test_rejects_unpinched_pair(self):
        ps = ParameterSet.solved(1, 0.45, A5, NM, BalancingMode.PQ)
        with pytest.raises(DomainError):
            lim_pinch_J(ps, NM)

    def test_rejects_broken_residual_balance(self):
        ps = pinched_set(1, NM)
        bad = ParameterSet(1, ps.t, ps.a[:5] + (ps.a[5] * 1.01,))
        with pytest.raises(DomainError):
            lim_pinch_J(bad, NM)


class TestCnRecurrence:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_defect_vanishes(self, n):
        assert cn_recurrence_check(n, 0.45, NM) < 1e-12

    def test_rejects_nonpositive_rank(self):
        with pytest.raises(DomainError):
            cn_recurrence_check(0, 0.45, NM)
