"""Integrand kernels and closed-form products."""

import numpy as np
import pytest

from ellselberg import (
    BalancingMode,
    DomainError,
    Nomes,
    ParameterSet,
    c_constant,
    j_closed,
    psi,
    psi_tilde,
    qpoch_inf,
    theta,
)
from references import psi_tilde_alt, qshift_ratio_a, qshift_ratio_z

NM = Nomes(0.05, 0.12)
T = 0.45
A5 = [0.63, 0.58 * np.exp(0.7j), -0.61, 0.64 * np.exp(-1.1j), 0.55]


def rel(a, b):
    a, b = complex(a), complex(b)
    d = max(abs(a), abs(b))
    return abs(a - b) / d if d > 1e-12 else abs(a - b)


def pq_set(n):
    return ParameterSet.solved(n, T, A5, NM, BalancingMode.PQ)


def torus_z(n, seed):
    rng = np.random.default_rng(seed)
    return [complex(np.exp(2j * np.pi * rng.random())) for _ in range(n)]


@pytest.mark.parametrize("n", [1, 2, 3])
class TestKernelForms:
    def test_psi_tilde_is_substituted_psi(self, n):
        ps = pq_set(n)
        z = torus_z(n, n)
        sub = ps.with_entry(6, NM.p * ps.a[5])
        assert rel(psi_tilde(z, ps, NM), psi(z, sub, NM)) < 1e-13

    def test_psi_tilde_alt_form(self, n):
        ps = pq_set(n)
        z = torus_z(n, n)
        assert rel(psi_tilde(z, ps, NM), psi_tilde_alt(z, ps, NM)) < 1e-13

    def test_qshift_z_closed_form(self, n):
        ps = pq_set(n)
        z = torus_z(n, n + 10)
        for i in range(1, n + 1):
            zq = list(z)
            zq[i - 1] = NM.q * zq[i - 1]
            direct = psi_tilde(zq, ps, NM) / psi_tilde(z, ps, NM)
            assert rel(direct, qshift_ratio_z(i, z, ps, NM)) < 1e-12

    @pytest.mark.parametrize("m", [1, 3, 6])
    def test_qshift_a_closed_form(self, n, m):
        ps = pq_set(n)
        z = torus_z(n, n + 20)
        ps_q = ps.with_entry(m, NM.q * ps.a[m - 1])
        direct = psi_tilde(z, ps_q, NM) / psi_tilde(z, ps, NM)
        assert rel(direct, qshift_ratio_a(m, z, ps, NM)) < 1e-12

    def test_bc_symmetry(self, n):
        ps = pq_set(n)
        z = torus_z(n, n + 30)
        base = psi(z, ps, NM)
        rev = psi(list(reversed(z)), ps, NM)
        inv = [1.0 / z[0]] + z[1:]
        assert rel(base, rev) < 1e-13
        assert rel(base, psi(inv, ps, NM)) < 1e-13

    def test_j_qdifference_theta_chain(self, n):
        # J(q a_1, .., q^-1 a_6) / J(a) collapses to a theta product
        ps = pq_set(n)
        k = 1
        direct = j_closed(ps.shifted_pair(k, NM.q), NM) / j_closed(ps, NM)
        expected = 1.0 + 0.0j
        for i in range(1, n + 1):
            ti = T ** (i - 1)
            for m in range(1, 6):
                if m == k:
                    continue
                expected *= theta(ps.a[k - 1] * ps.a[m - 1] * ti, NM.p)
                expected /= theta(ps.a[m - 1] * ps.a[5] * ti / NM.q, NM.p)
        assert rel(direct, expected) < 1e-12


class TestCConstant:
    def test_n1_closed(self):
        ref = 2.0 / (qpoch_inf(NM.p, NM.p) * qpoch_inf(NM.q, NM.q))
        assert rel(c_constant(1, NM, T), ref) < 1e-14

    def test_positive_rank_required(self):
        with pytest.raises(DomainError):
            c_constant(-1, NM, T)


class TestVectorization:
    def test_psi_grid_matches_scalars(self):
        ps = pq_set(2)
        rng = np.random.default_rng(11)
        grid = [np.exp(2j * np.pi * rng.random(5)) for _ in range(2)]
        vec = psi(grid, ps, NM)
        for k in range(5):
            assert rel(vec[k], psi([grid[0][k], grid[1][k]], ps, NM)) < 1e-13

    def test_collision_points_are_exact_zeros(self):
        ps = pq_set(2)
        assert psi([1.0, 0.3 + 0.4j], ps, NM) == 0.0
        assert psi([0.6j, 0.6j], ps, NM) == 0.0
        z = 0.5 + 0.1j
        assert psi([z, 1.0 / z], ps, NM) == 0.0

    def test_zero_coordinate_rejected(self):
        with pytest.raises(DomainError):
            psi([0.0], pq_set(1), NM)


class TestTrigonometricLimit:
    """p = 0 with the solved entry at its limiting value 0."""

    NM0 = Nomes(0.0, 0.12)

    def test_psi_and_j_continuity(self):
        nm_eps = Nomes(1e-6, 0.12)
        ps_eps = ParameterSet.solved(1, T, A5, nm_eps, BalancingMode.PQ)
        ps0 = ParameterSet.solved(1, T, A5, self.NM0, BalancingMode.PQ)
        z = [complex(np.exp(0.83j))]
        assert rel(psi(z, ps_eps, nm_eps), psi(z, ps0, self.NM0)) < 1e-5
        assert rel(j_closed(ps_eps, nm_eps), j_closed(ps0, self.NM0)) < 1e-5

    def test_psi_tilde_drops_vanished_factor(self):
        # with p a_6 = 0 the modified kernel keeps only the five live gammas
        from ellselberg import elliptic_gamma_recip
        from references import gamma_pm

        ps = ParameterSet.solved(1, T, A5, self.NM0, BalancingMode.ONE)
        z = [complex(np.exp(0.83j))]
        direct = 1.0 + 0.0j
        for am in ps.a[:5]:
            direct *= gamma_pm(am, z[0], self.NM0)
        direct *= elliptic_gamma_recip(z[0] ** 2, self.NM0)
        direct *= elliptic_gamma_recip(z[0] ** -2, self.NM0)
        assert rel(psi_tilde(z, ps, self.NM0), direct) < 1e-14

    def test_alt_form_needs_nonzero_p(self):
        ps = ParameterSet.solved(1, T, A5, self.NM0, BalancingMode.ONE)
        with pytest.raises(DomainError):
            psi_tilde_alt([1.0 + 0.0j], ps, self.NM0)
