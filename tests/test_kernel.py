"""Kernel descriptions: lattice tables against the pointwise reference."""

import hashlib
import struct

import mpmath as mp
import numpy as np
import pytest

from ellselberg import (
    BalancingMode,
    Nomes,
    ParameterSet,
    PoleProximityError,
    QuadratureGrid,
    TruncationError,
    fundamental_invariant,
    psi,
    psi_tilde,
    run_suite,
)
from ellselberg import kernel
from ellselberg.integrand import _bc_kernel
from ellselberg.kernel import GAMMA, MONO, RECIP, THETA, Factor, Lattice, evaluate, pm
from ellselberg.quadrature import _nabla_pointwise, _nabla_term
from ellselberg.report import to_json
from oracles import ogamma, otheta
from references import psi_tilde_alt

NM = Nomes(0.05, 0.12)
NM_ONE = Nomes(0.02, 0.12)
A5 = [0.63, 0.58 * np.exp(0.7j), -0.61, 0.64 * np.exp(-1.1j), 0.55]
A5_ONE = [0.66, 0.63 * np.exp(0.9j), -0.645, 0.67 * np.exp(-0.5j), 0.62]


@pytest.fixture(autouse=True)
def cold_caches():
    """Each test starts and ends with the circle caches empty."""
    clear_caches()
    yield
    clear_caches()


def clear_caches():
    kernel._table.cache_clear()
    kernel._series.cache_clear()


def series_of(kind, c, nomes=NM):
    """kernel._series of f(c w), under the key _on_circle packs."""
    c, p, q = complex(c), nomes.p, nomes.q
    return kernel._series(kind, struct.pack("6d", c.real, c.imag, p.real, p.imag, q.real, q.imag))


def without_caches(monkeypatch):
    """Route every table through _table and _series with nothing held."""
    monkeypatch.setattr(kernel, "_table", kernel._table.__wrapped__)
    monkeypatch.setattr(kernel, "_series", kernel._series.__wrapped__)


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
    g, _ = _nabla_pointwise(n, 1, z, one_set(n), NM_ONE)
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
    """Points evaluated by the qseries evaluators or as series tables, one
    total per entry."""
    counted = []
    laurent = kernel._laurent

    def counting(f):
        def wrapped(u, *args):
            counted[-1] += np.size(u)
            return f(u, *args)
        return wrapped

    def counting_series(series, N):
        counted[-1] += N
        return laurent(series, N)

    for name in ("elliptic_gamma", "elliptic_gamma_recip", "theta"):
        monkeypatch.setattr(kernel, name, counting(getattr(kernel, name)))
    monkeypatch.setattr(kernel, "_laurent", counting_series)
    return counted


def test_rank2_lattice_work_grows_linearly(counted):
    # a silent fallback to the pointwise path would pass every numeric test
    # above; here it shows as O(N^2) evaluation work
    ps = pq_set(2)
    for N in (64, 128):
        grid = QuadratureGrid(2, N).nodes()
        counted.append(0)
        psi(grid, ps, NM)
    assert counted[0] > 0
    assert counted[1] / counted[0] <= 2.1


def test_suite_report_is_the_same_on_a_cold_and_a_warm_cache(monkeypatch):
    # what the caches hold may change a run's time, never its reports
    cached = kernel._table
    cold = to_json(run_suite())
    assert cached.cache_info().currsize
    assert to_json(run_suite()) == cold
    held = cached.cache_info()
    without_caches(monkeypatch)
    assert to_json(run_suite()) == cold
    assert cached.cache_info() == held


def test_cached_tables_are_read_only_and_reused(counted, tables):
    grid = QuadratureGrid(2, 32).nodes()
    counted.append(0)
    first = psi_tilde(grid, pq_set(2), NM)
    assert counted[0] > 0 and tables
    series = [series_of(kind, c) for kind, c, _, _ in tables]
    assert any(s is not None for s in series)
    for held in [table for *_, table in tables] + [s for s in series if s is not None]:
        assert not held.flags.writeable
        with pytest.raises(ValueError):
            held[0] = 0
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


def test_caches_stay_within_their_bounds():
    # 160 tables of 80 circles
    for m in range(40):
        for N in (64, 512):
            factors = [pm(GAMMA, 0.5 * np.exp(0.1j * m)), Factor(GAMMA, 0.3 + 0.01 * m, ((0, 2),))]
            evaluate(factors, QuadratureGrid(1, N).nodes(), NM)
            assert kernel._table.cache_info().currsize <= kernel._TABLES
            assert kernel._series.cache_info().currsize <= kernel._SERIES
    assert kernel._table.cache_info().currsize == kernel._TABLES
    assert kernel._series.cache_info().currsize == kernel._SERIES


def test_pole_error_is_raised_again_and_stores_nothing():
    node = np.exp(2j * np.pi * 3 / 16)
    factors = [Factor(GAMMA, 1.0 / node, ((0, 1),))]
    grid = QuadratureGrid(1, 16).nodes()
    messages = []
    for _ in range(2):
        with pytest.raises(PoleProximityError) as err:
            evaluate(factors, grid, NM)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    # no table; the circle's route (the qseries evaluators) is held with its series
    assert kernel._table.cache_info().currsize == 0
    assert kernel._series.cache_info()[:2] == (1, 1)  # hits, misses


# One factor of each kind; "pair" is a rank-2 group.  Each case runs with
# its constants c multiplied by each of CIRCLE_SCALES: "1", "q" and
# "turned" keep every Gamma, 1/Gamma and theta circle inside its annulus
# (the series route), "out" and "in" put each outside (the qseries evaluators).
CIRCLE_FACTORS = {
    "gamma": (1, [Factor(GAMMA, 0.61 * np.exp(0.4j), ((0, 1),))]),
    "recip": (1, [Factor(RECIP, 0.3 + 0.1j, ((0, -2),))]),
    "theta": (1, [pm(THETA, 0.7 * np.exp(0.5j))]),
    "mono": (1, [Factor(MONO, 0.8 - 0.2j, ((0, -1),))]),
    "pm": (1, [pm(GAMMA, 0.55 * np.exp(-0.9j))]),
    "pair": (2, [Factor(GAMMA, 0.45, ((0, 1), (1, -1)), True)]),
}
CIRCLE_SCALES = {"1": 1, "q": NM.q, "turned": 0.7 * np.exp(0.3j), "out": 4.0, "in": 0.005}
LADDER = (16, 32, 64, 128, 256, 512)


@pytest.fixture
def tables(monkeypatch):
    """(kind, c, N, table) of every circle table evaluate asks for."""
    asked = []
    on_circle = kernel._on_circle

    def recording(kind, c, N, nomes):
        table = on_circle(kind, c, N, nomes)
        asked.append((kind, c, N, table))
        return table

    monkeypatch.setattr(kernel, "_on_circle", recording)
    return asked


def whole_circle(kind, c, N, nomes=NM):
    """f(c w) on the whole N circle by its route, with nothing cached."""
    series = series_of(kind, c, nomes)
    if series is None:
        return kernel._apply(kind, kernel._circle(N, c), nomes)
    return kernel._laurent(series, N)


@pytest.mark.parametrize("scale", sorted(CIRCLE_SCALES))
@pytest.mark.parametrize("name", sorted(CIRCLE_FACTORS))
def test_table_from_its_half_is_the_direct_table_bitwise(tables, monkeypatch, name, scale):
    # no table is built from its half: whether the ladder's tables and
    # series are held (warm, a second ladder), nothing is (cold) or the
    # cache holds nothing, each table is its route's evaluation on the
    # whole circle, bit for bit
    n, factors = CIRCLE_FACTORS[name]
    factors = [f._replace(c=f.c * CIRCLE_SCALES[scale]) for f in factors]
    cached = kernel._table
    for cache in ("warm", "cold", "none"):
        clear_caches()
        if cache == "none":
            without_caches(monkeypatch)
        for N in LADDER * (2 if cache == "warm" else 1):
            if cache == "cold":
                clear_caches()
            evaluate(factors, QuadratureGrid(n, N).nodes(), NM)
        assert sorted({at for _, _, at, _ in tables}) == list(LADDER)
        for kind, c, at, table in tables:
            assert table.tobytes() == whole_circle(kind, c, at).tobytes()
        assert bool(cached.cache_info().currsize) == (cache != "none")
        tables.clear()


@pytest.mark.parametrize("scale", sorted(CIRCLE_SCALES))
def test_scales_put_every_circle_on_the_route_they_name(scale):
    series = scale not in ("out", "in")
    for name, (_, factors) in CIRCLE_FACTORS.items():
        for f in factors:
            c = complex(f.c * CIRCLE_SCALES[scale])
            held = series_of(f.kind, c)
            assert (held is not None) == (series and f.kind != MONO), name


LONE_KINDS = {GAMMA: 0.61 * np.exp(0.4j), RECIP: 0.3 + 0.1j, THETA: 0.7 * np.exp(0.5j), MONO: 0.8 - 0.2j}


@pytest.mark.parametrize("scale", sorted(CIRCLE_SCALES))
@pytest.mark.parametrize("e", [1, -1, 2, -2])
@pytest.mark.parametrize("kind", sorted(LONE_KINDS))
def test_lone_factor_reads_its_circle_table_bitwise(tables, kind, e, scale):
    # f(c z^e) on the lattice is f(c w) read at (e k) mod N; its mirror
    # f(c z^-e) reads the same table, looked up once, at (-e k) mod N
    c = LONE_KINDS[kind] * CIRCLE_SCALES[scale]
    for N in LADDER:
        grid = QuadratureGrid(1, N).nodes()
        k = np.asarray(grid.k[0])
        table = kernel._on_circle(kind, c, N, NM)
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
    with pytest.raises(PoleProximityError) as direct:
        evaluate(factors, QuadratureGrid(1, N).nodes(), NM)
    clear_caches()
    evaluate(factors, QuadratureGrid(1, N // 2).nodes(), NM)  # no pole on the even nodes
    held = kernel._table.cache_info().currsize
    with pytest.raises(PoleProximityError) as err:
        evaluate(factors, QuadratureGrid(1, N).nodes(), NM)
    assert str(err.value) == str(direct.value)
    assert kernel._table.cache_info().currsize == held


def test_rank1_ladder_builds_each_series_once_and_runs_no_product_for_it(monkeypatch):
    # the series do not depend on N: a ladder from 16 to 512 computes each
    # once, and the qseries evaluators take only the circles off the series route
    ps = pq_set(1)
    products = []
    apply = kernel._apply

    def applying(kind, u, nomes):
        products.append((kind, complex(u[0]), len(u)))
        return apply(kind, u, nomes)

    monkeypatch.setattr(kernel, "_apply", applying)
    for N in LADDER:
        psi_tilde(QuadratureGrid(1, N).nodes(), ps, NM)
    # |p a_6| = 0.0038 lies inside |pq| = 0.006, so Gamma(p a_6 w) takes
    # the qseries evaluators, as does the Weyl factor's 1/Gamma(w)
    off = {(RECIP, 1.0), (GAMMA, complex(NM.p * ps.a[5]))}
    assert sorted(products) == sorted((kind, c, N) for kind, c in off for N in LADDER)
    # seven circles, each route decided and each series built once
    assert kernel._series.cache_info().misses == 7
    assert all(series_of(GAMMA, a) is not None for a in ps.a[:5])  # Gamma(a_m w), m = 1..5
    assert all(series_of(kind, c) is None for kind, c in off)
    assert kernel._series.cache_info().misses == 7  # all seven read back from the cache


def test_rank1_ladder_reads_each_mirror_from_its_factors_table(counted, monkeypatch):
    # pointwise, a Psi ladder from 16 to 512 evaluates its 14 functions of
    # z on every node; Gamma(a_m / z) and 1/Gamma(z^-2) read the tables of
    # Gamma(a_m w) and 1/Gamma(w), so the lattice ladder evaluates 7 tables,
    # on the series route and off it alike
    ps, rungs = pq_set(1), [QuadratureGrid(1, N).nodes() for N in LADDER]
    for route in ("series", "products"):
        if route == "products":
            monkeypatch.setattr(kernel, "_series", lambda *args: None)
        kernel._table.cache_clear()
        counted[:] = [0]
        for grid in rungs:
            psi(list(grid), ps, NM)
        counted.append(0)
        for grid in rungs:
            psi(grid, ps, NM)
        assert 0 < counted[1] <= 0.5 * counted[0]


# nomes of the oracle checks: the suite's two pairs, a complex p and p = 0
ORACLE_NOMES = {
    "suite": Nomes(0.05, 0.12),
    "one": Nomes(0.015, 0.12),
    "complex": Nomes(0.05 + 0.02j, 0.12),
    "p0": Nomes(0.0, 0.12),
}


def oracle(kind, u, nomes):
    # at |p|, |q| <= 0.12 the omitted factors move the value by under 1e-22
    if kind == THETA:
        return otheta(u, nomes.p, terms=30)
    value = ogamma(u, nomes.p, nomes.q, side=25)
    return 1 / value if kind == RECIP else value


@pytest.mark.parametrize("kind", [GAMMA, RECIP, THETA])
@pytest.mark.parametrize("name", sorted(ORACLE_NOMES))
def test_circle_tables_match_the_oracle(name, kind):
    # random circles across the annulus, one deep in the series route, and
    # circles within 1e-3 of each edge (at an inner edge 0, |c| = 1e-3).
    # Every table is held to 1e-14, on the series route and off it.
    nomes = ORACLE_NOMES[name]
    inner = abs(nomes.p if kind == THETA else nomes.pq)
    rng = np.random.default_rng(7)
    radii = list(np.exp(rng.uniform(np.log(max(inner, 1e-3)), 0.0, 3))) + [0.93, 1 - 1e-3]
    radii.append(inner * (1 + 1e-3) if inner else 1e-3)
    routes = []
    for r in radii:
        c = complex(r * np.exp(2j * np.pi * rng.uniform()))
        routes.append(series_of(kind, c, nomes) is not None)
        for N in (16, 64, 512):
            table = kernel._on_circle(kind, c, N, nomes)
            for m in rng.choice(N, 2, replace=False):
                want = oracle(kind, mp.mpc(c) * mp.expjpi(mp.mpf(2 * int(m)) / N), nomes)
                assert abs(table[m] - want) <= 1e-14 * abs(want), (r, N, m)
    assert routes[3] and not routes[4] and routes[5] == (inner == 0)


@pytest.mark.parametrize("kind", [GAMMA, RECIP, THETA])
def test_circles_max_terms_cannot_certify_take_the_products(kind, truncation_rule):
    c = (1 - 1e-6) * np.exp(0.3j)
    assert series_of(kind, c) is None
    table = kernel._on_circle(kind, c, 64, NM)
    assert table.tobytes() == kernel._apply(kind, kernel._circle(64, c), NM).tobytes()
    # a cap of 8 terms certifies neither the circle's series nor the evaluators'
    truncation_rule(max_terms=8)
    c = 0.3 * np.exp(0.3j)
    assert series_of(kind, c) is None
    with pytest.raises(TruncationError) as direct:
        kernel._apply(kind, kernel._circle(64, c), NM)
    clear_caches()
    with pytest.raises(TruncationError) as err:
        kernel._on_circle(kind, c, 64, NM)
    assert str(err.value) == str(direct.value)
    assert kernel._table.cache_info().currsize == 0


@pytest.mark.parametrize("kind,c", [(GAMMA, 1 - 1e-13), (RECIP, NM.pq.real * (1 + 1e-13))])
def test_pole_inside_the_annulus_takes_the_products_and_raises(kind, c):
    # a node within POLE_TOL of a pole or zero on the annulus edge: no K can
    # certify the series there, and the evaluators' pole scan raises
    node = np.exp(2j * np.pi * 3 / 16)
    c = c / node
    assert series_of(kind, c) is None
    with pytest.raises(PoleProximityError) as direct:
        kernel._apply(kind, kernel._circle(16, c), NM)
    clear_caches()
    for _ in range(2):
        with pytest.raises(PoleProximityError) as err:
            kernel._on_circle(kind, c, 16, NM)
        assert str(err.value) == str(direct.value)
    assert kernel._table.cache_info().currsize == 0


OFF_SERIES = {
    "outside": (GAMMA, 1.3 * np.exp(0.2j)),
    "inside": (RECIP, 0.5 * NM.pq),
    "weyl": (RECIP, 1.0),
    "mono": (MONO, 0.4),
    "edge": (THETA, (1 - 1e-6) * np.exp(1.0j)),
}


@pytest.mark.parametrize("case", sorted(OFF_SERIES))
def test_a_circles_route_is_held_with_its_series(case):
    # a circle read along a ladder decides its route once, off the series
    # route as on it: _series holds None for it as it holds a series
    for kind, c in (OFF_SERIES[case], (GAMMA, 0.5)):
        clear_caches()
        for N in (16, 32, 64):
            kernel._on_circle(kind, c, N, NM)
        assert kernel._series.cache_info()[:2] == (2, 1)  # hits, misses
        assert kernel._table.cache_info().currsize == 3
    assert series_of(GAMMA, 0.5) is not None


def test_float_and_complex_nomes_give_one_lattice_psi():
    # Nomes holds p and q as complex, so p**k in the series, and every
    # table, has the same bits for a float nome as for the complex of its value
    a = [0.3, 0.4, 0.5, -0.2, 0.25]
    digests = []
    for nomes in (Nomes(0.9, 0.3), Nomes(0.9 + 0j, 0.3 + 0j)):
        assert type(nomes.p) is type(nomes.q) is complex
        ps = ParameterSet.solved(1, 0.45, a, nomes, BalancingMode.PQ)
        clear_caches()
        digests.append(hashlib.sha1(psi(QuadratureGrid(1, 64).nodes(), ps, nomes).tobytes()).digest())
    assert digests[0] == digests[1]
