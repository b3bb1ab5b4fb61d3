"""Kernel descriptions: lattice tables against the pointwise reference."""

import numpy as np
import pytest

from ellselberg import (
    BalancingMode,
    Nomes,
    ParameterSet,
    PoleProximityError,
    QuadratureGrid,
    fundamental_invariant,
    psi,
    psi_tilde,
    qseries,
    run_suite,
)
from ellselberg import kernel
from ellselberg.integrand import _bc_kernel
from ellselberg.kernel import GAMMA, MONO, RECIP, THETA, Factor, Lattice, evaluate, pm
from ellselberg.quadrature import _nabla_pointwise, _nabla_term
from ellselberg.report import to_json
from references import psi_tilde_alt

NM = Nomes(0.05, 0.12)
NM_ONE = Nomes(0.02, 0.12)
A5 = [0.63, 0.58 * np.exp(0.7j), -0.61, 0.64 * np.exp(-1.1j), 0.55]
A5_ONE = [0.66, 0.63 * np.exp(0.9j), -0.645, 0.67 * np.exp(-0.5j), 0.62]


def pq_set(n, nomes=NM):
    return ParameterSet.solved(n, 0.45, A5, nomes, BalancingMode.PQ)


def one_set(n):
    return ParameterSet.solved(n, 0.5, A5_ONE, NM_ONE, BalancingMode.ONE)


def da_kernel(z, n):
    # the scenario's coupling-free kernel on 2n+4 parameters
    a = [(0.4 + 0.03 * m) * np.exp(1j * (1.1 * m + 0.2)) for m in range(2 * n + 4)]
    return evaluate(_bc_kernel([pm(GAMMA, am) for am in a], None, range(n)), z, NM)


def e_r_psi_tilde(z, n):
    ps = one_set(n)
    e_r = fundamental_invariant(1, ps.a[0], ps.a[5], z, ps.t, NM_ONE.p)
    return e_r * psi_tilde(z, ps, NM_ONE)


def nabla(z, n):
    g, _ = _nabla_pointwise(n, 1, z, one_set(n), NM_ONE, None)
    return g


KERNELS = {
    "psi": lambda z, n: psi(z, pq_set(n), NM),
    "psi_tilde": lambda z, n: psi_tilde(z, pq_set(n), NM),
    "psi_tilde_alt": lambda z, n: psi_tilde_alt(z, pq_set(n), NM),
    "psi_p0_dual": lambda z, n: psi(z, pq_set(n, Nomes(0.0, 0.12)), Nomes(0.0, 0.12)),
    "dixon_anderson": da_kernel,
    "e_r_psi_tilde": e_r_psi_tilde,
    "nabla": nabla,
}

CASES = [(n, N) for n in (1, 2, 3) for N in (16, 32)]


# z_i = w[k_i]: every lattice circle is the plain circle of N-th roots of unity
@pytest.mark.parametrize("phase", [0.0])
@pytest.mark.parametrize("n,N", CASES)
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_lattice_matches_pointwise(name, n, N, phase):
    grid = QuadratureGrid(n, N).nodes()
    assert isinstance(grid, Lattice)
    kernel = KERNELS[name]
    lattice = kernel(grid, n)
    pointwise = kernel(list(grid), n)
    assert np.all(np.isfinite(lattice))
    scale = np.max(np.abs(pointwise))
    assert scale > 0
    assert np.max(np.abs(lattice - pointwise)) <= 1e-13 * scale
    # z_1 = 1 (z_2 = 1 for nabla, whose coordinate 1 is shifted) is a zero
    # of 1/Gamma(z^2) on both paths
    axis = 1 if name == "nabla" else 0
    if axis < n:
        hit = grid.k[axis] == 0
        assert np.all(lattice[hit] == 0) and np.all(pointwise[hit] == 0)


@pytest.mark.parametrize("n,N", CASES)
def test_shifted_nabla_term_is_the_term_at_q_z(n, N):
    # the lattice reads z_i -> q z_i as constants c q^e; pointwise, the
    # unshifted factors are evaluated at the moved nodes
    ps, grid = one_set(n), QuadratureGrid(n, N).nodes()
    for i in range(n):
        rest = [j for j in range(n) if j != i]
        shifted = evaluate(_nabla_term(i, rest, ps, NM_ONE, shifted=True), grid, NM_ONE)
        moved = [NM_ONE.q * w if j == i else w for j, w in enumerate(grid)]
        pointwise = evaluate(_nabla_term(i, rest, ps, NM_ONE), moved, NM_ONE)
        assert np.all(np.isfinite(shifted))
        scale = np.max(np.abs(pointwise))
        assert scale > 0
        assert np.max(np.abs(shifted - pointwise)) <= 1e-13 * scale


@pytest.mark.parametrize("N", [16, 32])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("name", ["psi", "psi_tilde", "dixon_anderson"])
def test_lattice_minus_one_is_an_exact_zero(name, n, N):
    # 1/Gamma(z_i^{+-2}) reads its table 1/Gamma(w) at 2 (N/2) mod N = 0,
    # where w = 1; pointwise, (-1)**2 leaves |Psi| near 1e-32
    grid = QuadratureGrid(n, N).nodes()
    values = KERNELS[name](grid, n)
    for i in range(n):
        hit = np.asarray(grid.k[i]) == N // 2
        assert hit.any() and np.all(values[hit] == 0)


@pytest.mark.parametrize("name", ["psi", "psi_tilde_alt", "dixon_anderson", "e_r_psi_tilde"])
def test_lattice_pair_collisions_are_exact_zeros(name):
    # on the lattice z_j = z_k^{+-1} gives the argument exp(0) = 1 exactly
    grid = QuadratureGrid(2, 16).nodes()
    values = KERNELS[name](grid, 2)
    k1, k2 = grid.k
    assert np.all(values[(k1 - k2) % 16 == 0] == 0)
    assert np.all(values[(k1 + k2) % 16 == 0] == 0)


@pytest.mark.parametrize("phase", [0.0])
@pytest.mark.parametrize("n", [1, 2])
def test_parameter_on_grid_phase_raises_on_both_paths(n, phase):
    N = 16
    node = np.exp(2j * np.pi * (3 + phase) / N)
    ps = pq_set(n).with_entry(2, 1.0 / node)
    grid = QuadratureGrid(n, N).nodes()
    with pytest.raises(PoleProximityError):
        psi(grid, ps, NM)
    with pytest.raises(PoleProximityError):
        psi(list(grid), ps, NM)


@pytest.fixture
def counted(monkeypatch):
    """Points multiplied by the array product, one total per entry; the
    circle cache starts empty."""
    kernel._tables.clear()
    counted = []
    prod_array = qseries._prod_array

    def counting(u, p, q, rows):
        counted[-1] += u.size
        return prod_array(u, p, q, rows)

    monkeypatch.setattr(qseries, "_prod_array", counting)
    return counted


def test_rank2_lattice_work_grows_linearly(counted):
    # a silent fallback to the pointwise path would pass every numeric test
    # above; here it shows as O(N^2) product work
    ps = pq_set(2)
    for N in (64, 128):
        grid = QuadratureGrid(2, N).nodes()
        counted.append(0)
        psi(grid, ps, NM)
    assert counted[0] > 0
    assert counted[1] / counted[0] <= 2.1


def test_suite_report_is_the_same_on_a_cold_and_a_warm_cache(monkeypatch):
    # what the cache holds may change a run's time, never its reports
    kernel._tables.clear()
    cold = to_json(run_suite())
    assert kernel._tables.entries
    assert to_json(run_suite()) == cold
    monkeypatch.setattr(kernel, "_tables", qseries.ByteLRU(0))
    assert to_json(run_suite()) == cold
    assert not kernel._tables.entries


def test_cached_tables_are_read_only_and_reused(counted):
    grid = QuadratureGrid(2, 32).nodes()
    counted.append(0)
    first = psi_tilde(grid, pq_set(2), NM)
    assert counted[0] > 0 and kernel._tables.entries
    for table in kernel._tables.entries.values():
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0
    counted.append(0)
    again = psi_tilde(grid, pq_set(2), NM)
    assert counted[1] == 0
    assert np.array_equal(first, again)


def test_invariant_tables_are_cached(counted):
    # E_r's theta(c w; p) tables are held like every kernel table
    ps, grid = one_set(2), QuadratureGrid(2, 32).nodes()
    counted.append(0)
    first = fundamental_invariant(1, ps.a[0], ps.a[5], grid, ps.t, NM_ONE.p)
    counted.append(0)
    again = fundamental_invariant(1, ps.a[0], ps.a[5], grid, ps.t, NM_ONE.p)
    assert counted[0] > 0 and counted[1] == 0
    assert np.array_equal(first, again)


def test_cache_bytes_stay_within_the_bound():
    kernel._tables.clear()
    for m in range(40):
        for N in (64, 512):
            factors = [pm(GAMMA, 0.5 * np.exp(0.1j * m)), Factor(GAMMA, 0.3 + 0.01 * m, ((0, 2),))]
            evaluate(factors, QuadratureGrid(1, N).nodes(), NM)
            held = sum(t.nbytes for t in kernel._tables.entries.values())
            assert held == kernel._tables.nbytes <= kernel._TABLE_BYTES
    assert len(kernel._tables.entries) > 1


def test_pole_error_is_raised_again_and_stores_nothing():
    kernel._tables.clear()
    node = np.exp(2j * np.pi * 3 / 16)
    factors = [Factor(GAMMA, 1.0 / node, ((0, 1),))]
    grid = QuadratureGrid(1, 16).nodes()
    messages = []
    for _ in range(2):
        with pytest.raises(PoleProximityError) as err:
            evaluate(factors, grid, NM)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert not kernel._tables.entries


# One factor of each kind; "pair" is a rank-2 group.  Each case runs with
# its constants c multiplied by each of HALF_SCALES.
HALF_FACTORS = {
    "gamma": (1, [Factor(GAMMA, 0.61 * np.exp(0.4j), ((0, 1),))]),
    "recip": (1, [Factor(RECIP, 0.3 + 0.1j, ((0, -2),))]),
    "theta": (1, [pm(THETA, 0.7 * np.exp(0.5j))]),
    "mono": (1, [Factor(MONO, 0.8 - 0.2j, ((0, -1),))]),
    "pm": (1, [pm(GAMMA, 0.55 * np.exp(-0.9j))]),
    "pair": (2, [Factor(GAMMA, 0.45, ((0, 1), (1, -1)), True)]),
}
HALF_SCALES = {"1": 1, "q": NM.q, "turned": 0.7 * np.exp(0.3j)}


@pytest.fixture
def tables(monkeypatch):
    """(kind, c, N, table) of every circle table evaluate asks for, the N/2
    tables a table is built from included."""
    asked = []
    on_circle = kernel._on_circle

    def recording(kind, c, N, nomes, policy):
        table = on_circle(kind, c, N, nomes, policy)
        asked.append((kind, c, N, table))
        return table

    monkeypatch.setattr(kernel, "_on_circle", recording)
    return asked


@pytest.mark.parametrize("scale", sorted(HALF_SCALES))
@pytest.mark.parametrize("name", sorted(HALF_FACTORS))
def test_table_from_its_half_is_the_direct_table_bitwise(tables, name, scale):
    n, factors = HALF_FACTORS[name]
    factors = [f._replace(c=f.c * HALF_SCALES[scale]) for f in factors]
    for N in (32, 64, 128, 256, 512):
        grid = QuadratureGrid(n, N).nodes()
        half = QuadratureGrid(n, N // 2).nodes()
        kernel._tables.clear()
        evaluate(factors, grid, NM)  # cold: every rung from 16 up is built
        kernel._tables.clear()
        evaluate(factors, half, NM)
        evaluate(factors, grid, NM)  # the N/2 tables held
        assert sum(at == N for _, _, at, _ in tables) >= 2 * len(factors)
        for kind, c, at, table in tables:
            direct = kernel._apply(kind, kernel._circle(at, c), NM, None)
            assert table.tobytes() == direct.tobytes()
        tables.clear()


LONE_KINDS = {GAMMA: 0.61 * np.exp(0.4j), RECIP: 0.3 + 0.1j, THETA: 0.7 * np.exp(0.5j), MONO: 0.8 - 0.2j}


@pytest.mark.parametrize("scale", sorted(HALF_SCALES))
@pytest.mark.parametrize("e", [1, -1, 2, -2])
@pytest.mark.parametrize("kind", sorted(LONE_KINDS))
def test_lone_factor_reads_its_circle_table_bitwise(tables, kind, e, scale):
    # f(c z^e) on the lattice is f(c w) read at (e k) mod N; its mirror
    # f(c z^-e) reads the same table, looked up once, at (-e k) mod N
    c = LONE_KINDS[kind] * HALF_SCALES[scale]
    for N in (16, 32, 64, 128, 256, 512):
        grid = QuadratureGrid(1, N).nodes()
        k = np.asarray(grid.k[0])
        table = kernel._on_circle(kind, c, N, NM, None)
        plain = evaluate([Factor(kind, c, ((0, e),))], grid, NM)
        assert np.array_equal(plain, table[e * k % N])
        tables.clear()
        both = evaluate([Factor(kind, c, ((0, e),), True)], grid, NM)
        ((_, _, _, mirror),) = tables
        assert mirror is table
        assert np.array_equal(both, table[e * k % N] * table[-e * k % N])


def test_pole_on_an_odd_node_raises_and_stores_nothing():
    N = 32
    factors = [Factor(GAMMA, 1.0 / np.exp(2j * np.pi * 3 / N), ((0, 1),))]
    kernel._tables.clear()
    with pytest.raises(PoleProximityError) as direct:
        evaluate(factors, QuadratureGrid(1, N).nodes(), NM)
    kernel._tables.clear()
    evaluate(factors, QuadratureGrid(1, N // 2).nodes(), NM)  # no pole on the even nodes
    held = list(kernel._tables.entries)
    with pytest.raises(PoleProximityError) as err:
        evaluate(factors, QuadratureGrid(1, N).nodes(), NM)
    assert str(err.value) == str(direct.value)
    assert list(kernel._tables.entries) == held


def test_rank1_ladder_evaluates_each_factor_on_the_new_nodes_only(counted):
    # 16 + 16 + 32 + ... + 256 = 512 nodes per factor up to N = 512, where
    # a ladder that evaluates every rung in full takes 16 + ... + 512 = 1008
    ps = pq_set(1)
    rungs = [QuadratureGrid(1, N).nodes() for N in (16, 32, 64, 128, 256, 512)]
    counted.append(0)
    for grid in rungs:
        kernel._tables.clear()
        psi_tilde(grid, ps, NM)
    counted.append(0)
    kernel._tables.clear()
    for grid in rungs:
        psi_tilde(grid, ps, NM)
    assert counted[1] <= 0.55 * counted[0]


def test_rank1_ladder_reads_each_mirror_from_its_factors_table(counted):
    # the pointwise product at N = 512 evaluates Psi's 14 functions of z on
    # every node, as much as a ladder to 512 with one table per function
    # did; Gamma(a_m / z) and 1/Gamma(z^-2) read the tables of Gamma(a_m w)
    # and 1/Gamma(w), so the ladder evaluates 7 tables
    ps = pq_set(1)
    counted.append(0)
    psi(list(QuadratureGrid(1, 512).nodes()), ps, NM)
    counted.append(0)
    for N in (16, 32, 64, 128, 256, 512):
        psi(QuadratureGrid(1, N).nodes(), ps, NM)
    assert counted[1] <= 0.55 * counted[0]
