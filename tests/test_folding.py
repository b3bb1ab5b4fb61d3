"""Weyl-orbit quadrature: orbit sums against full-grid means, and the
W(BC) invariance of every integrand a scenario folds."""

import math

import numpy as np
import pytest

from ellselberg import (
    BalancingMode,
    DomainError,
    Nomes,
    ParameterSet,
    QuadratureGrid,
    SafeBox,
    default_budget,
    fundamental_invariant,
    make_continued,
    psi,
    quadrature,
    sample_da_parameters,
    sample_parameters,
    scenario_dixon_anderson,
    scenario_eval_formula,
    scenario_nabla,
    scenario_pinch,
    scenario_qde,
    scenario_recurrence,
    scenario_recurrence_telescope,
    torus_integrate,
)
from ellselberg.integrand import _bc_kernel
from ellselberg.kernel import GAMMA, Lattice, evaluate, pm
from ellselberg.quadrature import _nabla_pointwise, _representatives, _rungs, _weighted

NM = Nomes(0.05, 0.12)
NM_ONE = Nomes(0.015, 0.12)
A5 = [0.63, 0.58 * np.exp(0.7j), -0.61, 0.64 * np.exp(-1.1j), 0.55]
A5_ONE = [0.66, 0.63 * np.exp(0.9j), -0.645, 0.67 * np.exp(-0.5j), 0.62]
# the box of the rank-3 draws: a_6 solved inside the unit disk at t = 0.7
BOX3 = SafeBox(a_min=0.5, a_max=0.75)


def pq_set(n):
    return ParameterSet.solved(n, 0.7, A5, NM, BalancingMode.PQ)


def one_set(n):
    return ParameterSet.solved(n, 0.5, A5_ONE, NM_ONE, BalancingMode.ONE)


def psi_f(n):
    ps = pq_set(n)
    return lambda z: psi(z, ps, NM)


def expect_f(n, r):
    """E_r Psi~, the integrand of <E_r> in recurrence and recurrence_telescope."""
    ps = one_set(n)
    phi = lambda z: fundamental_invariant(r, ps.a[0], ps.a[5], z, ps.t, NM_ONE.p)
    return _weighted(phi, ps, NM_ONE)


def da_f(n):
    (a,) = sample_da_parameters(n, NM, seed=1, count=1, box=BOX3)
    kernel = _bc_kernel([pm(GAMMA, am) for am in a], None, range(n))
    return lambda z: evaluate(kernel, z, NM)


def nabla_f(n, r, i, part):
    ps = one_set(n)
    return lambda z: _nabla_pointwise(r, i, z, ps, NM_ONE)[part]


def assert_orbit_sum_is_mean(f, n, fold):
    """Each rung N = 16, 32 summed over orbits in ``fold`` is the full-grid
    mean to 1e-13 of max|f| on the grid."""
    full = list(_rungs(f, n, 32))
    folded = list(_rungs(f, n, 32, fold))
    assert [N for N, _ in folded] == [N for N, _ in full] == [16, 32]
    for (N, mean), (_, orbit) in zip(full, folded):
        top = np.max(np.abs(f(QuadratureGrid(n, N).nodes())))
        assert abs(orbit - mean) <= 1e-13 * top, (N, orbit, mean)


class TestOrbitSum:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_psi(self, n):
        assert_orbit_sum_is_mean(psi_f(n), n, range(n))

    @pytest.mark.parametrize("n,r", [(n, r) for n in (1, 2, 3) for r in range(n + 1)])
    def test_invariant_times_psi_tilde(self, n, r):
        assert_orbit_sum_is_mean(expect_f(n, r), n, range(n))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_dixon_anderson(self, n):
        assert_orbit_sum_is_mean(da_f(n), n, range(n))

    @pytest.mark.parametrize(
        "n,r,i", [(n, r, i) for n in (2, 3) for r in range(1, n + 1) for i in range(1, n + 1)]
    )
    def test_nabla_over_the_other_coordinates(self, n, r, i):
        rest = [j for j in range(n) if j != i - 1]
        for part in (0, 1):
            assert_orbit_sum_is_mean(nabla_f(n, r, i, part), n, rest)


class TestOrbitNodes:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("N", [16, 32, 64])
    def test_counts_and_weights(self, n, N):
        grid = QuadratureGrid(n, N, tuple(range(n))).nodes()
        assert len(grid.weights) == len(grid[0]) == math.comb(N // 2 + n, n)
        assert grid.weights.sum() == 1.0
        one_free = QuadratureGrid(n, N, tuple(range(1, n))).nodes()
        assert len(one_free.weights) == N * math.comb(N // 2 + n - 1, n - 1)
        assert one_free.weights.sum() == 1.0

    def test_representatives_are_sorted_half_circle_indices(self):
        grid = QuadratureGrid(3, 16, (0, 1, 2)).nodes()
        k = np.array(grid.k)
        assert np.all((0 <= k) & (k <= 8))
        assert np.all(np.diff(k, axis=0) >= 0)
        assert len(set(map(tuple, k.T))) == k.shape[1]

    def test_weight_counts_the_orbit(self):
        # (0, 8) has 2 images (k_2 = 8 = N/2 is its own mirror), (1, 1) has
        # 4, (1, 2) has 8, out of 16^2 nodes
        grid = QuadratureGrid(2, 16, (0, 1)).nodes()
        w = {tuple(map(int, kk)): wt * 256 for *kk, wt in zip(*grid.k, grid.weights)}
        assert (w[(0, 0)], w[(0, 8)], w[(1, 1)], w[(1, 2)], w[(8, 8)]) == (1, 2, 4, 8, 1)

    def test_representatives_are_shared_and_read_only(self):
        reps, weights = _representatives(2, 16)
        grid = QuadratureGrid(2, 16, (0, 1)).nodes()
        assert grid.weights is weights
        assert all(np.shares_memory(k, reps) for k in grid.k)
        assert not reps.flags.writeable and not weights.flags.writeable

    @pytest.mark.parametrize("fold", [(0, 0), (1, 0), (2,), (-1,)])
    def test_fold_must_name_increasing_coordinates(self, fold):
        with pytest.raises(DomainError):
            QuadratureGrid(2, 16, fold)

    def test_unfolded_grid_is_the_product_grid(self):
        grid = QuadratureGrid(2, 16).nodes()
        assert np.array_equal(np.array(grid.k), np.indices((16, 16)).reshape(2, -1))
        assert np.all(grid.weights == 1 / 256)

    def test_default_ladder_does_not_fold(self):
        # z_1 is not invariant under z_1 -> 1/z_1: folded it would integrate
        # to the mean of cos, not to 0
        res = torus_integrate(lambda z: z[0], 2, 1e-13)
        assert abs(res.value) < 1e-15
        (_, folded), _ = _rungs(lambda z: z[0], 2, 32, fold=(0, 1))
        assert abs(folded) > 0.1


def _invariance_defect(f, n, fold, rng, N=64, points=40, trials=4):
    """max |f(sigma z) - f(z)| / max|f(z)| over random nodes z and random
    sign flips and permutations sigma of the coordinates ``fold``."""
    k = rng.integers(0, N, size=(n, points))
    ones = np.ones(points)
    base = np.asarray(f(Lattice(N, k, ones)))
    worst = 0.0
    for _ in range(trials):
        moved = k.copy()
        moved[list(fold)] = k[list(rng.permutation(fold))]
        for c in fold:
            if rng.random() < 0.5:
                moved[c] = -moved[c] % N
        other = np.asarray(f(Lattice(N, moved, ones)))
        worst = max(worst, np.max(np.abs(other - base)) / np.max(np.abs(base)))
    return worst


def test_invariance_check_sees_a_non_invariant_integrand():
    rng = np.random.default_rng(5)
    assert _invariance_defect(lambda z: z[0] + 2 * z[1] ** -1, 2, (0, 1), rng) > 0.1


@pytest.fixture
def folded(monkeypatch):
    """(f, n, fold) of every ladder run with a fold."""
    calls = []
    rungs = quadrature._rungs

    def recording(f, n, budget=None, fold=(), *args, **kwargs):
        if tuple(fold):
            calls.append((f, n, tuple(fold)))
        return rungs(f, n, budget, fold, *args, **kwargs)

    monkeypatch.setattr(quadrature, "_rungs", recording)
    return calls


def test_every_folded_integrand_is_invariant(folded):
    # budget 32 and tolerance 1: two rungs record each ladder's integrand,
    # and no ladder stalls before a comparison has run its second ladder
    kw = dict(budget=32)
    for n in (1, 2, 3):
        scenario_eval_formula(n, pq_set(n), NM, 1.0, **kw)
        scenario_dixon_anderson(n, sample_da_parameters(n, NM, 1, 1, box=BOX3)[0], NM, 1.0, **kw)
    for n in (1, 2):
        scenario_qde(n, 1, ParameterSet.solved(n, 0.45, A5, NM, BalancingMode.PQ), NM, 1.0, **kw)
        scenario_recurrence(n, n, one_set(n), NM_ONE, 1.0, **kw)
        scenario_recurrence_telescope(n, one_set(n), NM_ONE, 1.0, **kw)
    for n in (2, 3):
        for i in range(1, n + 1):
            scenario_nabla(n, n, i, one_set(n), NM_ONE, 1.0, **kw)
    continued = make_continued(pq_set(1), NM)
    scenario_eval_formula(1, continued, NM, 1.0, **kw)
    scenario_pinch(continued, NM, 1.0, "continued", **kw)
    folds = [(n, fold) for _, n, fold in folded]
    # eval, da, qde (its magnitude ladder and two more), <E_r> x 2 x 2 with
    # a magnitude ladder each, continued x 2
    assert folds.count((1, (0,))) == 1 + 1 + 3 + 4 + 4 + 2
    assert {(2, (1,)), (2, (0,)), (3, (1, 2)), (3, (0, 2)), (3, (0, 1))} <= set(folds)
    rng = np.random.default_rng(11)
    for f, n, fold in folded:
        assert _invariance_defect(f, n, fold, rng) < 1e-12, (n, fold)


class TestRankThree:
    """At the rank-3 default budget the evaluation formula and Dixon-Anderson
    converge; at a budget of 64 all four cases stall (err_est 2e-3 ... 0.67)."""

    def test_budget(self):
        assert default_budget(3) == 128

    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_evaluation_formula(self, index):
        ps = sample_parameters(BalancingMode.PQ, 3, NM, 1, 3, t=0.7, box=BOX3)[index]
        rep = scenario_eval_formula(3, ps, NM, 1e-6)
        assert rep.passed, rep.detail
        assert rep.grid_N == 128
        assert rep.rel_err < 1e-12

    def test_dixon_anderson(self):
        (a,) = sample_da_parameters(3, NM, 1, 1, box=BOX3)
        rep = scenario_dixon_anderson(3, a, NM, 1e-6)
        assert rep.passed, rep.detail
        assert rep.rel_err < 1e-12
