"""Parameter bookkeeping and the fundamental invariants E_r."""

import itertools

import numpy as np
import pytest

from ellselberg import (
    BalancingMode,
    DegenerateParameterError,
    DomainError,
    Nomes,
    ParameterSet,
    boundary_expectation_ratio,
    coefficient_c,
    fundamental_invariant,
)
from references import e0_closed, en_closed, phi_test_function

NM = Nomes(0.05, 0.12)
A5 = (0.63, 0.58 * np.exp(0.7j), -0.61, 0.64 * np.exp(-1.1j), 0.55)


def rel(a, b):
    a, b = complex(a), complex(b)
    d = max(abs(a), abs(b))
    return abs(a - b) / d if d else 0.0


class TestParameterSet:
    def test_solved_hits_target(self):
        for mode in BalancingMode:
            ps = ParameterSet.solved(2, 0.45, A5, NM, mode)
            assert ps.balancing_residual(NM) < 1e-14
            assert ps.balancing_mode is mode

    def test_solved_index_placement(self):
        # the free entries keep their order and the solved one is a_6
        ps = ParameterSet.solved(1, 0.45, A5, NM, BalancingMode.PQ)
        assert ps.a[:5] == tuple(complex(v) for v in A5)
        assert ps.balancing_residual(NM) < 1e-14

    def test_shifted_pair_stays_on_shell(self):
        ps = ParameterSet.solved(2, 0.45, A5, NM, BalancingMode.PQ)
        sh = ps.shifted_pair(2, NM.q)
        assert rel(sh.a[1], NM.q * ps.a[1]) < 1e-15
        assert rel(sh.a[5], ps.a[5] / NM.q) < 1e-15
        assert sh.balancing_residual(NM) < 1e-13

    def test_shifted_pair_rejects_solved_index(self):
        ps = ParameterSet.solved(1, 0.45, A5, NM, BalancingMode.PQ)
        with pytest.raises(DomainError):
            ps.shifted_pair(6, NM.q)

    def test_with_entry_goes_off_shell(self):
        ps = ParameterSet.solved(1, 0.45, A5, NM, BalancingMode.PQ)
        off = ps.with_entry(6, NM.q * ps.a[5])
        assert off.balancing_mode is None
        assert off.a[5] == NM.q * ps.a[5]

    def test_validate_rejects_broken_balancing(self):
        bad = ParameterSet(1, 0.45, (*A5, 0.5), balancing_mode=BalancingMode.PQ)
        with pytest.raises(DomainError):
            bad.validate(NM)

    def test_rejects_zero_entry(self):
        with pytest.raises(DomainError):
            ParameterSet(1, 0.45, (0.0, *A5)).validate(NM)

    def test_zero_solved_entry_allowed_at_pq_zero(self):
        nm0 = Nomes(0.0, 0.12)
        ps = ParameterSet.solved(1, 0.45, A5, nm0, BalancingMode.PQ)
        assert ps.a[5] == 0.0
        ps.validate(nm0)

    def test_rejects_bad_t(self):
        with pytest.raises(DomainError):
            ParameterSet(1, 1.0, (*A5, 0.5))

    def test_solved_requires_a_mode(self):
        with pytest.raises(DomainError):
            ParameterSet.solved(1, 0.45, A5, NM, None)


def _one_set(n):
    a5 = (0.66, 0.63 * np.exp(0.9j), -0.645, 0.67 * np.exp(-0.5j), 0.62)
    return ParameterSet.solved(n, 0.5, a5, Nomes(0.02, 0.12), BalancingMode.ONE)


class TestFundamentalInvariant:
    def test_boundary_closed_forms(self):
        ps = _one_set(3)
        z = [0.9 * np.exp(0.3j), 1.1 * np.exp(-0.8j), 0.95 * np.exp(1.9j)]
        a1, a6, t, p = ps.a[0], ps.a[5], ps.t, 0.02
        e0 = fundamental_invariant(0, a1, a6, z, t, p)
        en = fundamental_invariant(3, a1, a6, z, t, p)
        assert rel(e0, e0_closed(a1, a6, z, t, p)) < 1e-13
        assert rel(en, en_closed(a1, a6, z, t, p)) < 1e-13

    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    def test_bc_symmetry(self, r):
        # invariant under permutations and inversions of the z_i
        ps = _one_set(3)
        z = [0.9 * np.exp(0.3j), 1.1 * np.exp(-0.8j), 0.95 * np.exp(1.9j)]
        a1, a6, t, p = ps.a[0], ps.a[5], ps.t, 0.02
        base = fundamental_invariant(r, a1, a6, z, t, p)
        for perm in itertools.permutations(z):
            assert rel(fundamental_invariant(r, a1, a6, list(perm), t, p), base) < 1e-12
        flipped = [1 / z[0], z[1], 1 / z[2]]
        assert rel(fundamental_invariant(r, a1, a6, flipped, t, p), base) < 1e-12

    def test_elementwise_matches_scalar(self):
        ps = _one_set(2)
        a1, a6, t, p = ps.a[0], ps.a[5], ps.t, 0.02
        z1 = np.exp(2j * np.pi * np.arange(4) / 4.0 + 0.1j)
        z2 = np.exp(2j * np.pi * np.arange(4) / 4.0 - 0.2j)
        arr = fundamental_invariant(1, a1, a6, [z1, z2], t, p)
        for j in range(4):
            scalar = fundamental_invariant(1, a1, a6, [complex(z1[j]), complex(z2[j])], t, p)
            assert rel(arr[j], scalar) < 1e-13

    def test_degenerate_denominator_raises(self):
        # theta(b (a t^0)^{+-1}) vanishes when b a = 1
        with pytest.raises(DegenerateParameterError):
            fundamental_invariant(1, 2.0, 0.5, [0.9 + 0.1j], 0.5, 0.05)


class TestCoefficientC:
    def test_requires_one_balancing(self):
        ps = ParameterSet.solved(1, 0.45, A5, NM, BalancingMode.PQ)
        with pytest.raises(DomainError):
            coefficient_c(1, ps, NM)

    def test_r_range(self):
        ps = _one_set(2)
        with pytest.raises(DomainError):
            coefficient_c(0, ps, Nomes(0.02, 0.12))
        with pytest.raises(DomainError):
            coefficient_c(3, ps, Nomes(0.02, 0.12))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_boundary_ratio_telescopes(self, n):
        nm = Nomes(0.02, 0.12)
        ps = _one_set(n)
        prod = 1.0 + 0.0j
        for r in range(1, n + 1):
            prod *= coefficient_c(r, ps, nm)
        assert rel(prod, boundary_expectation_ratio(ps, nm)) < 1e-12

    def test_boundary_ratio_requires_one(self):
        ps = ParameterSet.solved(1, 0.45, A5, NM, BalancingMode.PQ)
        with pytest.raises(DomainError):
            boundary_expectation_ratio(ps, NM)


class TestPhiTestFunction:
    def test_index_validation(self):
        ps = _one_set(2)
        z = [0.9 + 0.1j, 1.05 - 0.2j]
        with pytest.raises(DomainError):
            phi_test_function(0, 1, ps, Nomes(0.02, 0.12), z)
        with pytest.raises(DomainError):
            phi_test_function(1, 3, ps, Nomes(0.02, 0.12), z)

    def test_n1_reduces_to_kernel(self):
        # at n = 1 the invariant factor is empty: phi_(1,1) = F_1^-
        ps = _one_set(1)
        nm = Nomes(0.02, 0.12)
        z = [0.93 * np.exp(0.4j)]
        val = phi_test_function(1, 1, ps, nm, z)
        assert np.isfinite(val.real) and np.isfinite(val.imag)
