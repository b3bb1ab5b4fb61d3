"""Torus quadrature: grids, convergence contract, expectations, nabla."""

import gc

import numpy as np
import pytest

from ellselberg import (
    BalancingMode,
    DomainError,
    Nomes,
    NonConvergenceError,
    ParameterSet,
    QuadratureGrid,
    c_constant,
    default_budget,
    fundamental_invariant,
    j_closed,
    nabla_quad,
    psi,
    psi_tilde,
    torus_integrate,
)
from ellselberg import quadrature, scenarios
from ellselberg.kernel import Lattice, _roots
from ellselberg.quadrature import MIN_POINTS, RETRY_NOTE, _nabla_pointwise, _stop, _weighted
from references import phi_test_function

NM = Nomes(0.05, 0.12)
T = 0.45
A5 = [0.63, 0.58 * np.exp(0.7j), -0.61, 0.64 * np.exp(-1.1j), 0.55]


def rel(a, b):
    a, b = complex(a), complex(b)
    d = max(abs(a), abs(b))
    return abs(a - b) / d if d > 1e-12 else abs(a - b)


class TestGrid:
    def test_nodes_on_unit_circle(self):
        grid = QuadratureGrid(2, 8).nodes()
        assert len(grid) == 2
        for axis in grid:
            assert axis.shape == (64,)
            assert np.allclose(np.abs(axis), 1.0)

    def test_minimum_size(self):
        with pytest.raises(DomainError):
            QuadratureGrid(1, 2)

    @pytest.mark.parametrize(
        "n,N,fold", [(1, 16, ()), (1, 32, (0,)), (2, 16, ()), (2, 32, (1,)), (3, 16, (0, 1, 2))]
    )
    def test_entries_are_gathered_when_read(self, n, N, fold):
        # a grid holds N, the index arrays and the weights; z[i] is w[k[i]]
        grid = QuadratureGrid(n, N, fold).nodes()
        held = gc.get_referents(grid)
        held += [v for d in held if isinstance(d, dict) for v in d.values()]
        held += [a for t in held if isinstance(t, tuple) for a in t]
        assert not [h for h in held if isinstance(h, np.ndarray) and h.dtype.kind == "c"]
        assert len(grid) == n
        for i in range(n):
            assert grid[i].tobytes() == _roots(N)[grid.k[i]].tobytes()

    def test_default_budget_decreases_with_rank(self):
        assert default_budget(1) >= default_budget(2) >= default_budget(3)


class TestTorusIntegrate:
    def test_constant(self):
        res = torus_integrate(lambda z: np.ones_like(z[0]), 1, 1e-12)
        assert res.value == pytest.approx(1.0)
        assert res.N_used == MIN_POINTS * 2

    def test_monomial_integrates_to_zero(self):
        res = torus_integrate(lambda z: z[0] ** 3, 1, 1e-13)
        assert abs(res.value) < 1e-15

    def test_geometric_kernel(self):
        # 1 / ((1 - u z)(1 - u/z)) integrates to 1/(1 - u^2)
        res = torus_integrate(
            lambda z: 1.0 / ((1 - 0.5 * z[0]) * (1 - 0.5 / z[0])), 1, 1e-13
        )
        assert rel(res.value, 4.0 / 3.0) < 1e-13

    def test_history_tracks_ladder(self):
        res = torus_integrate(lambda z: 1.0 / (1 - 0.5 * z[0]), 1, 1e-13)
        ns = [n for n, _ in res.history]
        assert ns == sorted(ns)
        assert res.history[-1][0] == res.N_used
        assert res.history[-1][1] == res.err_est

    def test_non_convergence_carries_estimates(self):
        f = lambda z: 1.0 / ((1 - 0.96 * z[0]) * (1 - 0.96 / z[0]))
        with pytest.raises(NonConvergenceError) as exc_info:
            torus_integrate(f, 1, 1e-14, budget=32)
        coarse, fine = exc_info.value.estimates
        assert fine > 0 and coarse > 0

    @pytest.mark.parametrize("loose", [0.2, 0.01, 1e-9])
    def test_looser_stop_on_carried_rungs_is_a_fresh_ladder(self, monkeypatch, loose):
        # the differences are 0.16 at N = 32 and 4.4e-3 at N = 64, so a stop
        # at loose / 50 stalls; the looser stop then reads 0.2 at 32, 0.01 at
        # 64 and stalls again at 1e-9, from the rungs already read
        f = lambda z: 1.0 / ((1 - 0.8 * z[0]) * (1 - 0.8 / z[0]))
        rungs = list(quadrature._rungs(f, 1, 64))
        sizes = []
        nodes = QuadratureGrid.nodes

        def recording(grid):
            sizes.append(grid.N)
            return nodes(grid)

        monkeypatch.setattr(QuadratureGrid, "nodes", recording)
        try:
            looser = torus_integrate(f, 1, loose / 50, budget=64)
        except NonConvergenceError as exc:
            assert loose == 1e-9
            d32, d64 = abs(rungs[1][1] - rungs[0][1]), abs(rungs[2][1] - rungs[1][1])
            assert str(exc) == f"quadrature stalled at N=64: err_est={d64:.3e} > tol={loose:.3e}"
            assert exc.estimates == (d32, d64)
        else:
            # a strict reading at loose, which no rung of these stalls, but
            # marked as the looser stop
            fresh = _stop(rungs, loose)
            assert looser.retried and not fresh.retried
            assert repr(looser) == repr(fresh.replace(retried=True))
            assert looser == fresh.replace(retried=True)
        assert sizes == [16, 32, 64]

    def test_public_ladder_says_whether_it_took_the_looser_stop(self):
        # the differences are 0.16 at N = 32 and 4.4e-3 at N = 64: a stop
        # of 1e-2 is met, one of 1e-4 only at 50x (5e-3), where it stops
        f = lambda z: 1.0 / ((1 - 0.8 * z[0]) * (1 - 0.8 / z[0]))
        strict = torus_integrate(f, 1, 1e-2, budget=64)
        looser = torus_integrate(f, 1, 1e-4, budget=64)
        assert not strict.retried
        assert looser.retried
        assert strict.N_used == looser.N_used == 64
        assert looser.value == strict.value

    def test_budget_floor(self):
        # below 32 a ladder has one rung and no difference to stop on
        for budget in (8, 16, 31):
            with pytest.raises(DomainError, match="two rungs"):
                torus_integrate(lambda z: z[0], 1, 1e-10, budget=budget)

    def test_err_est_is_absolute_difference(self):
        res = torus_integrate(lambda z: 1.0 / (1 - 0.5 * z[0]), 1, 1e-13)
        assert res.err_est <= 1e-13

    def test_integral_matches_c1_j(self):
        ps = ParameterSet.solved(1, T, A5, NM, BalancingMode.PQ)
        res = torus_integrate(lambda z: psi(z, ps, NM), 1, 1e-10)
        rhs = c_constant(1, NM, T) * j_closed(ps, NM)
        assert rel(res.value, rhs) < 1e-10

    def test_exponential_convergence(self):
        # error drops at least 10x per doubling until roundoff
        ps = ParameterSet.solved(1, T, A5, NM, BalancingMode.PQ)
        values = {}
        for N in (32, 64, 128, 256):
            grid = QuadratureGrid(1, N).nodes()
            values[N] = complex(np.mean(psi(grid, ps, NM)))
        e32 = abs(values[32] - values[64])
        e64 = abs(values[64] - values[128])
        e128 = abs(values[128] - values[256])
        floor = 1e-13 * abs(values[256])
        assert e32 >= 10 * e64 or e64 <= floor
        assert e64 >= 10 * e128 or e128 <= floor


class TestStop:
    """The one stop rule on synthetic (N, mean) ladders."""

    # differences 0.5, 4e-6 and 1e-6 (to rounding)
    LADDER = [(16, 1.0), (32, 1.5), (64, 1.5 + 4e-6), (128, 1.5 + 5e-6)]

    def test_rung_within_tol_takes_no_note(self):
        res = _stop(self.LADDER, 1e-5)
        assert (res.N_used, res.value) == (64, 1.5 + 4e-6)
        assert not res.retried

    def test_stall_takes_the_first_rung_within_50_tol(self):
        # nothing within 1e-7; within 5e-6 both 64 and 128, and 64 comes first
        res = _stop(self.LADDER, 1e-7)
        strict = _stop(self.LADDER, 50 * 1e-7)
        assert res.retried and not strict.retried
        assert res == strict.replace(retried=True)
        assert res.N_used == 64
        assert res.history == ((32, 0.5), (64, abs(self.LADDER[2][1] - 1.5)))

    def test_double_stall_names_the_looser_stop(self):
        with pytest.raises(NonConvergenceError, match=r"stalled at N=128: .* > tol=5\.000e-09") as exc:
            _stop(self.LADDER, 1e-10)
        fine = abs(self.LADDER[3][1] - self.LADDER[2][1])
        assert exc.value.estimates == (abs(self.LADDER[2][1] - 1.5), fine)

    def test_two_stalls_leave_one_note(self):
        # a report reads its note off the results its runner returns: two
        # stalled ladders leave one, and a later ladder that meets its stop
        # is not marked (the stop rule keeps no state between ladders)
        stalls = (_stop(self.LADDER, 1e-7), _stop(self.LADDER, 1e-7))
        echo = dict(seed_index=0, n=1, p=0j, q=0j, t=None, a=(), balancing=None)
        rep = scenarios._run("synthetic", echo, 1.0, lambda: (1.0, 1.0, stalls))
        assert (rep.detail, rep.grid_N) == (RETRY_NOTE, 64)
        assert not _stop(self.LADDER, 1e-5).retried


class TestExpectation:
    def test_unit_phi_alias(self):
        ps = ParameterSet.solved(1, T, A5, NM, BalancingMode.PQ)
        sub = ps.with_entry(6, NM.p * ps.a[5])
        lhs = torus_integrate(_weighted(lambda z: 1.0, ps, NM), 1, 1e-10).value
        rhs = torus_integrate(lambda z: psi(z, sub, NM), 1, 1e-10).value
        assert rel(lhs, rhs) < 1e-12


def one_set(n):
    if n == 1:
        return ParameterSet.solved(1, T, A5, Nomes(0.05, 0.12), BalancingMode.ONE), Nomes(0.05, 0.12)
    a5b = [0.66, 0.63 * np.exp(0.9j), -0.645, 0.67 * np.exp(-0.5j), 0.62]
    return ParameterSet.solved(2, 0.5, a5b, Nomes(0.02, 0.12), BalancingMode.ONE), Nomes(0.02, 0.12)


class TestNabla:
    def test_fused_matches_literal_n1(self):
        ps, nm = one_set(1)
        z = [complex(np.exp(0.91j))]
        g, href = _nabla_pointwise(1, 1, z, ps, nm)
        h = phi_test_function(1, 1, ps, nm, z) * psi_tilde(z, ps, nm)
        zq = [nm.q * z[0]]
        hq = phi_test_function(1, 1, ps, nm, zq) * psi_tilde(zq, ps, nm)
        assert rel(g, h - hq) < 1e-12
        assert rel(href, abs(h)) < 1e-12

    @pytest.mark.parametrize("r,i", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_fused_matches_literal_n2(self, r, i):
        ps, nm = one_set(2)
        rng = np.random.default_rng(3)
        z = [complex(np.exp(2j * np.pi * rng.random())) for _ in range(2)]
        g, _ = _nabla_pointwise(r, i, z, ps, nm)
        h = phi_test_function(r, i, ps, nm, z) * psi_tilde(z, ps, nm)
        zq = list(z)
        zq[i - 1] = nm.q * zq[i - 1]
        hq = phi_test_function(r, i, ps, nm, zq) * psi_tilde(zq, ps, nm)
        assert rel(g, h - hq) < 1e-12

    def test_vanishing_n1(self):
        ps, nm = one_set(1)
        res, ref = nabla_quad(1, 1, ps, nm, 1e-10)
        assert abs(res.value) < 1e-10 * ref

    def test_expectation_wrapper(self):
        ps, nm = one_set(1)
        val = nabla_quad(1, 1, ps, nm, 1e-9)[0].value
        assert isinstance(val, complex)

    def test_index_validation(self):
        ps, nm = one_set(1)
        with pytest.raises(DomainError):
            nabla_quad(2, 1, ps, nm, 1e-8)
        with pytest.raises(DomainError):
            nabla_quad(1, 2, ps, nm, 1e-8)

    @pytest.mark.parametrize("p,q,zero", [(0.0, 0.12, "p"), (0.05, 0.0, "q")], ids=["p", "q"])
    def test_zero_nome_is_named(self, p, q, zero):
        # constants of the nabla kernel are multiples of p and of q: a zero
        # nome is refused by name, not by the kernel factor it empties
        nm = Nomes(p, q)
        ps = ParameterSet.solved(1, T, A5, nm, BalancingMode.ONE)
        with pytest.raises(DomainError, match=rf"^the fused nabla image needs {zero} != 0$"):
            nabla_quad(1, 1, ps, nm, 1e-8)

    def test_collision_grid_is_finite(self):
        # the grid holds z = 1 (and z_i = z_j); the kernels carry
        # exact zeros there instead of infinities
        ps, nm = one_set(2)
        grid = QuadratureGrid(2, 16).nodes()
        assert np.all(np.isfinite(psi_tilde(grid, ps, nm)))
        g, _ = _nabla_pointwise(1, 1, grid, ps, nm)
        assert np.all(np.isfinite(g))


NM_ONE = Nomes(0.015, 0.12)
# ONE-balanced sets whose nabla images the rank-2 and rank-3 tests relabel
ONE_SETS = {
    "a": ([0.8, 0.85, 0.9, 0.8 + 0.1j, 0.9 - 0.05j], 0.5),
    "b": ([0.9, 0.95, 0.85j, 0.9, 0.92], 0.6),
}


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name", sorted(ONE_SETS))
def test_nabla_rungs_of_every_index_are_bit_equal(n, name):
    # the rung cache keys nabla without i: the means of G and of |phi Psi~|
    # on the grid folded off z_i are one integral up to a relabelling of the
    # coordinates, bit for bit, as long as the integrand lists the other
    # coordinates in order
    a5, t = ONE_SETS[name]
    ps = ParameterSet.solved(n, t, a5, NM_ONE, BalancingMode.ONE)
    for r in range(1, n + 1):
        rungs = []
        for i in range(1, n + 1):
            rest = [j for j in range(n) if j != i - 1]
            f = lambda z, i=i: _nabla_pointwise(r, i, z, ps, NM_ONE)
            # no key: the cache is bypassed
            ladder = list(quadrature._rungs(f, n, 32, rest))
            assert [N for N, _ in ladder] == [16, 32]
            rungs.append(np.array([m for _, pair in ladder for m in pair]).tobytes())
        assert rungs == [rungs[0]] * n, r


class TestLatticeReads:
    """Every ladder's integrand reads a Lattice's N, k and weights only."""

    @pytest.fixture
    def no_entries(self, monkeypatch):
        def refuse(self, i):
            raise AssertionError(f"Lattice entry {i} was read")

        monkeypatch.setattr(Lattice, "__getitem__", refuse)

    @pytest.mark.parametrize("n", [1, 2])
    def test_ladders_read_no_coordinate_values(self, n, no_entries):
        tol = {1: 1e-10, 2: 1e-8}[n]
        ps = ParameterSet.solved(n, T, A5, NM, BalancingMode.PQ)
        fold = tuple(range(n))
        value = torus_integrate(lambda z: psi(z, ps, NM), n, tol, fold=fold).value
        assert rel(value, c_constant(n, NM, T) * j_closed(ps, NM)) < 1e3 * tol
        assert np.isfinite(torus_integrate(lambda z: psi_tilde(z, ps, NM), n, tol, fold=fold).value)
        e_1 = _weighted(lambda z: fundamental_invariant(1, ps.a[0], ps.a[5], z, T, NM.p), ps, NM)
        assert np.isfinite(torus_integrate(e_1, n, tol, fold=fold).value)
        ps_one, nm_one = one_set(n)
        for r in range(1, n + 1):
            res, ref = nabla_quad(r, 1, ps_one, nm_one, tol)
            assert abs(res.value) < 10 * tol * ref
