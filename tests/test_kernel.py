"""Kernel descriptions: lattice group sums against the pointwise reference and the oracle."""

import hashlib

import mpmath as mp
import numpy as np
import pytest

from ellselberg import (
    BalancingMode,
    DomainError,
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
from ellselberg import invariants, kernel, qseries, quadrature
from ellselberg.integrand import _bc_kernel, _psi_kernel
from ellselberg.kernel import GAMMA, MONO, RECIP, THETA, Factor, Kernel, Lattice, evaluate, pm
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
    """Each test starts and ends with the kernel caches empty."""
    clear_caches()
    yield
    clear_caches()


def clear_caches():
    for cache in (kernel._factor, kernel._layout, kernel._root_powers, qseries._den, quadrature._nodes):
        cache.cache_clear()


def series_of(kind, c, nomes=NM):
    """The coefficients of kernel._series of f(c w) (1/Gamma's is minus
    Gamma's): its own Laurent series, None where no K <= MAX_TERMS
    certifies it."""
    series = kernel._series(GAMMA if kind == RECIP else kind, complex(c), nomes.p, nomes.q)
    return None if series is None else kernel._coefficients(series)


def without_caches(monkeypatch):
    """Build every factor, layout, power of the roots, denominator and
    lattice with nothing held."""
    for module, name in ((kernel, "_factor"), (kernel, "_layout"), (kernel, "_root_powers"),
                         (qseries, "_den"), (quadrature, "_nodes")):
        monkeypatch.setattr(module, name, getattr(module, name).__wrapped__)


def on_circle(kind, c, N, nomes=NM):
    """f(c w) on the N circle w = exp(2 pi i m/N), m = 0..N-1, by the lattice."""
    return evaluate([Factor(kind, c, ((0, 1),))], QuadratureGrid(1, N).nodes(), nomes)


def products(kind, c, N, nomes=NM):
    """f(c w) on the N circle by the qseries evaluators."""
    return kernel._apply(kind, c * kernel._roots(N), nomes)


def refuse(*args):
    """Stands in for kernel._apply where no circle may take the qseries evaluators."""
    raise AssertionError("a lattice circle took the qseries evaluators")


def close(values, want, tol=1e-13):
    """values within tol of want, relative to the largest |want|."""
    scale = np.max(np.abs(want))
    return scale > 0 and np.max(np.abs(values - want)) <= tol * scale


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
    """Points evaluated by the qseries evaluators or by inverse FFTs, one
    total per entry."""
    counted = []

    def counting(f):
        def wrapped(u, *args, **kwargs):
            counted[-1] += np.size(u)
            return f(u, *args, **kwargs)
        return wrapped

    for name in ("elliptic_gamma", "elliptic_gamma_recip", "theta"):
        monkeypatch.setattr(kernel, name, counting(getattr(kernel, name)))
    monkeypatch.setattr(np.fft, "ifft", counting(np.fft.ifft))
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


LADDER = (16, 32, 64, 128, 256, 512)


@pytest.mark.parametrize("name", ["psi", "psi_tilde", "dixon_anderson"])
def test_rank1_rung_runs_one_inverse_fft(counted, name):
    # every factor of a rank-1 kernel, the mirrors and the Weyl factor's
    # 1/Gamma(z^{+-2}) included, is a function of u = z: their log series
    # sum into one group, and a rung takes one inverse FFT of length N and
    # no qseries evaluation
    for N in LADDER:
        counted.append(0)
        KERNELS[name](QuadratureGrid(1, N, (0,)).nodes(), 1)
        assert counted[-1] == N


def test_suite_report_is_the_same_on_a_cold_and_a_warm_cache(monkeypatch):
    # what the caches hold may change a run's time, never its reports
    cached = kernel._factor
    cold = to_json(run_suite())
    assert cached.cache_info().currsize
    assert to_json(run_suite()) == cold
    held = cached.cache_info()
    without_caches(monkeypatch)
    assert to_json(run_suite()) == cold
    assert cached.cache_info() == held


def recorded(monkeypatch, *names):
    """The calls of each kernel function named, recorded as (name, value)
    while the function still runs."""
    calls = []

    def recording(name, function):
        def wrapped(*args):
            value = function(*args)
            calls.append((name, value))
            return value
        wrapped.cache_info = getattr(function, "cache_info", None)
        return wrapped

    for name in names:
        monkeypatch.setattr(kernel, name, recording(name, getattr(kernel, name)))
    return calls


def test_cached_tables_are_read_only_and_reused(monkeypatch):
    # the summed coefficients of each group and the series of each factor
    # do not depend on N; they are held read-only, and a second evaluation
    # with the parameter set reads its resolved kernel: it builds no group
    # and looks up no factor or layout
    calls = recorded(monkeypatch, "_group", "_factor", "_layout")
    grid, ps = QuadratureGrid(2, 32).nodes(), pq_set(2)
    first = psi_tilde(grid, ps, NM)
    assert kernel._factor.cache_info().misses
    held = [value.coef for name, value in calls if name == "_group"]
    held += [coef for name, value in calls if name == "_factor" for coef, _, _ in value[3]]
    assert held
    for array in held:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0
    calls.clear()
    again = psi_tilde(grid, ps, NM)
    assert calls == []
    assert np.array_equal(first, again)


def test_invariant_tables_are_cached(monkeypatch):
    # E_r's theta(c z_i^{+-1}; p) factors are held like every kernel's, and
    # E_r resolved once builds its groups at its first lattice alone
    ps, grid = one_set(2), QuadratureGrid(2, 32).nodes()
    first = fundamental_invariant(1, ps.a[0], ps.a[5], grid, ps.t, NM_ONE.p)
    misses = kernel._factor.cache_info().misses
    again = fundamental_invariant(1, ps.a[0], ps.a[5], grid, ps.t, NM_ONE.p)
    assert misses > 0 and kernel._factor.cache_info().misses == misses
    assert np.array_equal(first, again)
    calls = recorded(monkeypatch, "_group", "_factor")
    e_1 = invariants._invariant(1, ps.a[0], ps.a[5], ps.t, NM_ONE.p, range(2))
    resolved = e_1(grid)
    assert calls and all(name == "_factor" or name == "_group" for name, _ in calls)
    calls.clear()
    assert e_1(grid).tobytes() == resolved.tobytes() == first.tobytes()
    assert calls == []


def test_caches_stay_within_their_bounds():
    # two factors for each m
    for m in range(kernel._FACTORS // 2 + 1):
        factors = [pm(GAMMA, 0.5 * np.exp(0.01j * m)), Factor(GAMMA, 0.3 + 0.001 * m, ((0, 2),))]
        for N in (64, 512):
            evaluate(factors, QuadratureGrid(1, N).nodes(), NM)
            assert kernel._factor.cache_info().currsize <= kernel._FACTORS
    assert kernel._factor.cache_info().currsize == kernel._FACTORS
    for cache in (kernel._layout, kernel._root_powers, qseries._den, quadrature._nodes):
        assert cache.cache_info().currsize <= cache.cache_info().maxsize


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
    # the factor is reduced once and held; its line factor, zero at the
    # node, sends that node alone to the qseries evaluator; no value is
    # held, and a kernel whose first lattice raised holds no resolution
    assert kernel._factor.cache_info()[:2] == (1, 1)  # hits, misses
    resolved = Kernel(factors, NM)
    for _ in range(2):
        with pytest.raises(PoleProximityError, match=messages[0].split(":")[0]):
            resolved(grid)
        assert resolved._reads is None


# One factor of each kind; "pair" is a rank-2 group.  Each case runs with
# its constants c multiplied by each of CIRCLE_SCALES: "1", "q" and
# "turned" keep every Gamma, 1/Gamma and theta circle inside its annulus,
# "out" and "in" put each outside, where _reduced brings it back.
CIRCLE_FACTORS = {
    "gamma": (1, [Factor(GAMMA, 0.61 * np.exp(0.4j), ((0, 1),))]),
    "recip": (1, [Factor(RECIP, 0.3 + 0.1j, ((0, -2),))]),
    "theta": (1, [pm(THETA, 0.7 * np.exp(0.5j))]),
    "mono": (1, [Factor(MONO, 0.8 - 0.2j, ((0, -1),))]),
    "pm": (1, [pm(GAMMA, 0.55 * np.exp(-0.9j))]),
    "pair": (2, [Factor(GAMMA, 0.45, ((0, 1), (1, -1)), True)]),
}
CIRCLE_SCALES = {"1": 1, "q": NM.q, "turned": 0.7 * np.exp(0.3j), "out": 4.0, "in": 0.005}

# At scale "1" these circles sit where no K <= MAX_TERMS certifies their own
# series: 1e-6 inside |c| = 1, at |c| = 0.95, and on |c| = 1 with the pole
# between nodes.  Each is split at the edge of its annulus.
EDGE_CIRCLES = {
    "gamma_edge": (1, [Factor(GAMMA, (1 - 1e-6) * np.exp(0.3j), ((0, 1),))]),
    "recip_edge": (1, [Factor(RECIP, (1 - 1e-6) * np.exp(0.3j), ((0, 1),))]),
    "theta_edge": (1, [pm(THETA, (1 - 1e-6) * np.exp(1.0j))]),
    "gamma_095": (1, [pm(GAMMA, 0.95 * np.exp(0.4j))]),
    "pole_between_nodes": (1, [pm(GAMMA, np.exp(0.3j))]),
}


def scaled(name, scale):
    n, factors = (CIRCLE_FACTORS | EDGE_CIRCLES)[name]
    return n, [f._replace(c=f.c * CIRCLE_SCALES[scale]) for f in factors]


@pytest.mark.parametrize("scale", sorted(CIRCLE_SCALES))
@pytest.mark.parametrize("name", sorted(CIRCLE_FACTORS))
def test_table_from_its_half_is_the_direct_table_bitwise(monkeypatch, name, scale):
    # no rung is built from another: whether the ladder's groups and series
    # are held (warm, a second ladder), nothing is (cold) or the caches hold
    # nothing, each rung has the same bits, and those are the pointwise
    # values to 1e-13
    n, factors = scaled(name, scale)
    rungs = {}
    for cache in ("warm", "cold", "none"):
        clear_caches()
        if cache == "none":
            without_caches(monkeypatch)
        values = []
        for N in LADDER * (2 if cache == "warm" else 1):
            if cache == "cold":
                clear_caches()
            values.append(evaluate(factors, QuadratureGrid(n, N).nodes(), NM))
        rungs[cache] = [v.tobytes() for v in values[-len(LADDER) :]]
    assert rungs["warm"] == rungs["cold"] == rungs["none"]
    for N, value in zip(LADDER, values):
        if N <= 64:
            assert close(value, evaluate(factors, list(QuadratureGrid(n, N).nodes()), NM))


@pytest.mark.parametrize("scale", sorted(CIRCLE_SCALES))
def test_scales_put_every_circle_on_the_route_they_name(monkeypatch, scale):
    # every scale puts every circle on the log-series route: "out" and
    # "in" through the functional equations, the edge circles through the
    # split, and no qseries evaluator runs
    monkeypatch.setattr(kernel, "_apply", refuse)
    for name in CIRCLE_FACTORS | EDGE_CIRCLES:
        n, factors = scaled(name, scale)
        assert np.all(np.isfinite(evaluate(factors, QuadratureGrid(n, 64).nodes(), NM))), name


LONE_KINDS = {GAMMA: 0.61 * np.exp(0.4j), RECIP: 0.3 + 0.1j, THETA: 0.7 * np.exp(0.5j), MONO: 0.8 - 0.2j}


@pytest.mark.parametrize("scale", sorted(CIRCLE_SCALES))
@pytest.mark.parametrize("e", [1, -1, 2, -2])
@pytest.mark.parametrize("kind", sorted(LONE_KINDS))
def test_lone_factor_reads_its_circle_table_bitwise(kind, e, scale):
    # f(c z^e) on the lattice is the circle f(c w) read at (e k) mod N (to
    # 1e-13: its series is spread to u^(e j) before the FFT), and a pm
    # factor is bit for bit its two halves listed as two factors
    c = LONE_KINDS[kind] * CIRCLE_SCALES[scale]
    for N in LADDER:
        grid = QuadratureGrid(1, N).nodes()
        k = np.asarray(grid.k[0])
        circle = products(kind, c, N)
        assert close(evaluate([Factor(kind, c, ((0, e),))], grid, NM), circle[e * k % N])
        both = evaluate([Factor(kind, c, ((0, e),), True)], grid, NM)
        halves = evaluate([Factor(kind, c, ((0, e),)), Factor(kind, c, ((0, -e),))], grid, NM)
        assert both.tobytes() == halves.tobytes()
        assert close(both, circle[e * k % N] * circle[-e * k % N])


def test_pole_on_an_odd_node_raises_and_stores_nothing():
    N = 32
    factors = [Factor(GAMMA, 1.0 / np.exp(2j * np.pi * 3 / N), ((0, 1),))]
    with pytest.raises(PoleProximityError) as direct:
        evaluate(factors, QuadratureGrid(1, N).nodes(), NM)
    clear_caches()
    resolved = Kernel(factors, NM)
    resolved(QuadratureGrid(1, N // 2).nodes())  # no pole on the even nodes
    held, groups = kernel._factor.cache_info().currsize, resolved._groups
    with pytest.raises(PoleProximityError) as err:
        resolved(QuadratureGrid(1, N).nodes())
    assert str(err.value) == str(direct.value)
    assert kernel._factor.cache_info().currsize == held and resolved._groups is groups


def test_rank1_ladder_builds_each_series_once_and_runs_no_product_for_it(monkeypatch):
    # the series do not depend on N: a ladder from 16 to 512 builds its one
    # group and each factor's series once, at its first rung, and its later
    # rungs look nothing up; no circle takes the qseries evaluators, not
    # even Gamma(p a_6 w), |p a_6| = 0.0038 inside |pq| = 0.006, or the
    # Weyl factor's 1/Gamma(w)
    ps = pq_set(1)
    assert abs(NM.p * ps.a[5]) < abs(NM.pq)
    products = []
    apply = kernel._apply

    def applying(kind, u, nomes):
        products.append(kind)
        return apply(kind, u, nomes)

    monkeypatch.setattr(kernel, "_apply", applying)
    calls = recorded(monkeypatch, "_group", "_factor", "_layout")
    looked_up = []
    for N in LADDER:
        psi_tilde(QuadratureGrid(1, N).nodes(), ps, NM)
        looked_up.append([name for name, _ in calls])
        calls.clear()
    assert not products
    assert looked_up[0].count("_group") == looked_up[0].count("_layout") == 1
    assert looked_up[1:] == [[]] * (len(LADDER) - 1)
    factors = kernel._factor.cache_info()
    assert factors.misses == factors.currsize > 6


def test_rank1_ladder_reads_each_mirror_from_its_factors_table():
    # a mirror f(c z^-1) reads its factor's series reversed: the ladder of
    # rank-1 Psi builds no series that the kernel without its mirrors
    # (f(c z) alone, 1/Gamma(z^2) alone) does not
    factors = _psi_kernel(pq_set(1), NM)
    plain = [f._replace(pm=False) for f in factors if f.alpha[0][1] > 0]
    built = []
    for kernel_ in (factors, plain):
        clear_caches()
        for N in LADDER:
            evaluate(kernel_, QuadratureGrid(1, N).nodes(), NM)
        built.append(kernel._factor.cache_info().misses)
    assert built[0] == built[1] > 0


# Whole kernels at rank n, with their nomes: the continued contour
# (PQ-balanced with |a_6| > 1), Psi and Psi~ at a complex nome, both nabla
# terms, E_r's theta factors at c = b t^j and a t^j and moved outside
# |p| < |c| < 1 either way, the p = 0 dual factors, and Psi with a factor
# at |a| = 0.95 (no K certifies Gamma(0.95 w)) or one with a pole on the
# circle between nodes: either is split at the edge of its annulus.
NM_CONT, NM_CPLX, NM_P0 = Nomes(0.05, 0.07), Nomes(0.05 + 0.02j, 0.12), Nomes(0.0, 0.12)


def continued_set(n):
    ps = ParameterSet.solved(n, 0.45, [0.3, 0.4, 0.5, -0.2, 0.25], NM_CONT, BalancingMode.PQ)
    assert abs(ps.a[5]) > 1
    return ps


def thetas(n):
    ps = one_set(n)
    cs = [ps.a[5] * ps.t**j for j in (-1, 0, 1)] + [ps.a[0] * ps.t**j for j in (-1, 0, 1)]
    cs += [3.0 * cs[0], 0.01 * cs[3] * np.exp(1j)]
    return [Factor(THETA, c, ((i, 1),), True) for i in range(n) for c in cs]


def psi_with(n, c):
    return _psi_kernel(pq_set(n), NM) + [Factor(GAMMA, c, ((i, 1),), True) for i in range(n)]


WHOLE = {
    "continued": (NM_CONT, lambda n: _psi_kernel(continued_set(n), NM_CONT)),
    "complex": (NM_CPLX, lambda n: _psi_kernel(pq_set(n, NM_CPLX), NM_CPLX)
                + _psi_kernel(pq_set(n, NM_CPLX), NM_CPLX, tilde=True)),
    "nabla": (NM_ONE, lambda n: _nabla_term(0, list(range(1, n)), one_set(n), NM_ONE)),
    "nabla_shifted": (NM_ONE, lambda n: _nabla_term(0, list(range(1, n)), one_set(n), NM_ONE, shifted=True)),
    "e_r_thetas": (Nomes(NM_ONE.p, 0.0), thetas),
    "p0_dual": (NM_P0, lambda n: _psi_kernel(pq_set(n, NM_P0), NM_P0)),
    "edge": (NM, lambda n: psi_with(n, 0.95 * np.exp(0.4j))),
    "pole_between_nodes": (NM, lambda n: psi_with(n, np.exp(0.3j))),
}


def da_factors(n):
    a = [(0.4 + 0.03 * m) * np.exp(1j * (1.1 * m + 0.2)) for m in range(2 * n + 4)]
    return _bc_kernel([pm(GAMMA, am) for am in a], None, range(n))


# Kernels a ladder resolves once: Psi, Psi~, both nabla terms, E_r's theta
# factors, the Dixon-Anderson kernel, the continued contour and the p = 0
# duals, with their nomes.
RESOLVED = {
    "psi": (NM, lambda n: _psi_kernel(pq_set(n), NM)),
    "psi_tilde": (NM, lambda n: _psi_kernel(pq_set(n), NM, tilde=True)),
    "nabla": WHOLE["nabla"],
    "nabla_shifted": WHOLE["nabla_shifted"],
    "e_r_thetas": WHOLE["e_r_thetas"],
    "dixon_anderson": (NM, da_factors),
    "continued": WHOLE["continued"],
    "p0_dual": WHOLE["p0_dual"],
}


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("name", sorted(RESOLVED))
def test_resolved_kernel_rungs_are_evaluate_bitwise(monkeypatch, name, n):
    # a kernel resolved at its first lattice reads its held groups on every
    # later rung, folded or not, and each rung has the bits of a kernel
    # resolved afresh for it; the later rungs build and look up nothing
    nomes, make = RESOLVED[name]
    factors = make(n)
    resolved = Kernel(factors, nomes)
    calls = recorded(monkeypatch, "_group", "_factor", "_layout")
    for j, (N, fold) in enumerate([(16, ()), (32, ()), (64, tuple(range(n))), (32, (0,))]):
        grid = QuadratureGrid(n, N, fold).nodes()
        values = resolved(grid)
        assert calls if j == 0 else not calls
        calls.clear()
        assert values.tobytes() == evaluate(factors, grid, nomes).tobytes(), (N, fold)
        calls.clear()


@pytest.mark.parametrize("n", [1, 2])
def test_integrands_resolve_once_per_parameter_set(monkeypatch, n):
    # Psi, Psi~ and the nabla integrand are resolved once per parameter set
    # and nomes, E_r once per ladder: each rung has the bits it has from a
    # set that holds nothing yet (an equal copy), and a rung of a set that
    # holds its kernels builds and looks up nothing
    ps, one = pq_set(n), one_set(n)
    e_r = invariants._invariant(1, one.a[0], one.a[5], one.t, NM_ONE.p, range(n))
    integrands = {
        "psi": lambda z, ps: psi(z, ps, NM),
        "psi_tilde": lambda z, ps: psi_tilde(z, ps, NM),
        "nabla": lambda z, ps: _nabla_pointwise(n, 1, z, ps, NM_ONE)[0],
        "e_r_psi_tilde": lambda z, ps: e_r(z) * psi_tilde(z, ps, NM_ONE),
    }
    calls = recorded(monkeypatch, "_group", "_factor", "_layout")
    for name, f in integrands.items():
        held = one if name in ("nabla", "e_r_psi_tilde") else ps
        for N in (16, 32, 64):
            grid = QuadratureGrid(n, N, tuple(range(n)) if name != "nabla" else tuple(range(1, n))).nodes()
            calls.clear()
            values = f(grid, held)
            assert bool(calls) == (N == 16), (name, N)
            fresh = held.replace()
            assert fresh == held and not fresh._held
            assert values.tobytes() == f(grid, fresh).tobytes(), (name, N)


def test_a_pole_leaves_the_parameter_set_unresolved():
    # a pole on the lattice raises at every rung, and the kernel held on the
    # set stays unresolved: nothing of it is held but its factors
    node = np.exp(2j * np.pi * 3 / 16)
    ps = pq_set(1).with_entry(2, 1.0 / node)
    grid = QuadratureGrid(1, 16).nodes()
    messages = []
    for _ in range(2):
        with pytest.raises(PoleProximityError) as err:
            psi(grid, ps, NM)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    (held,) = ps._held.values()
    assert held[0] is NM and held[1]._reads is None and held[1]._groups is None


def oracle_kernel(factors, zs, nomes):
    """The factor list at the mpmath point zs, factor by factor by the oracle."""
    out = mp.mpc(1)
    for f in factors:
        for sign in (1, -1)[: 1 + f.pm]:
            u = mp.mpc(f.c)
            for i, e in f.alpha:
                u *= zs[i] ** (sign * e)
            out *= u if f.kind == MONO else oracle(f.kind, u, nomes, side=20)
    return complex(out)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("name", sorted(WHOLE))
def test_whole_kernels_match_pointwise_and_the_oracle(monkeypatch, name, n):
    nomes, make = WHOLE[name]
    factors = make(n)
    if name in ("edge", "pole_between_nodes"):
        f = factors[-1]
        _, _, lines, _ = kernel._reduced(f.kind, complex(f.c), nomes.p, nomes.q)
        assert lines
    for N in (16, 32):
        grid = QuadratureGrid(n, N).nodes()
        with monkeypatch.context() as patched:
            patched.setattr(kernel, "_apply", refuse)
            lattice = evaluate(factors, grid, nomes)
        assert np.all(np.isfinite(lattice))
        assert close(lattice, evaluate(factors, list(grid), nomes))
    # two nodes of the N = 32 grid off every zero of the kernel
    rng = np.random.default_rng(3)
    ks = np.asarray(grid.k)
    scale = np.max(np.abs(lattice))
    for j in rng.choice(np.flatnonzero(np.abs(lattice) > 1e-3 * scale), 2, replace=False):
        zs = [mp.expjpi(mp.mpf(2 * int(k)) / 32) for k in ks[:, j]]
        want = oracle_kernel(factors, zs, nomes)
        assert abs(lattice[j] - want) <= 1e-13 * abs(want), (name, n, j)


ORACLE_NOMES = {
    "suite": Nomes(0.05, 0.12),
    "one": Nomes(0.015, 0.12),
    "complex": Nomes(0.05 + 0.02j, 0.12),
    "p0": Nomes(0.0, 0.12),
}


def oracle(kind, u, nomes, side=25):
    # at |p|, |q| <= 0.12 the omitted factors move the value by under 1e-22
    # (side=20: 1e-18)
    if kind == THETA:
        return otheta(u, nomes.p, terms=30)
    value = ogamma(u, nomes.p, nomes.q, side=side)
    return 1 / value if kind == RECIP else value


@pytest.mark.parametrize("kind", [GAMMA, RECIP, THETA])
@pytest.mark.parametrize("name", sorted(ORACLE_NOMES))
def test_circle_tables_match_the_oracle(name, kind):
    # random circles across the annulus, one deep in its own series, and
    # circles within 1e-3 of each edge (at an inner edge 0, |c| = 1e-3),
    # which no K certifies: those are split at the edge.  Every value is
    # held to 1e-14.
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
            table = on_circle(kind, c, N, nomes)
            for m in rng.choice(N, 2, replace=False):
                want = oracle(kind, mp.mpc(c) * mp.expjpi(mp.mpf(2 * int(m)) / N), nomes)
                assert abs(table[m] - want) <= 1e-14 * abs(want), (r, N, m)
    assert routes[3] and not routes[4] and routes[5] == (inner == 0)



@pytest.mark.parametrize("kind", [GAMMA, RECIP, THETA])
def test_circles_max_terms_cannot_certify_take_the_products(monkeypatch, kind, truncation_rule):
    # the products of the split theta(x u; b) = (1 - x u) (b x u; b)_inf
    # (b/(x u); b)_inf: the circle 1e-6 inside |c| = 1, which no K
    # certifies, splits off its line factor and reads its q-products as a
    # series, with no qseries evaluator, to 1e-14 of the oracle
    c = (1 - 1e-6) * np.exp(0.3j)
    assert series_of(kind, c) is None
    with monkeypatch.context() as patched:
        patched.setattr(kernel, "_apply", refuse)
        table = on_circle(kind, c, 64)
    for m in range(0, 64, 3):
        want = oracle(kind, mp.mpc(c) * mp.expjpi(mp.mpf(2 * m) / 64), NM)
        assert abs(table[m] - want) <= 1e-14 * abs(want), m
    # a cap of 8 terms certifies neither the circle's series, before or
    # after the split, nor the evaluators'
    truncation_rule(max_terms=8)
    c = 0.3 * np.exp(0.3j)
    assert series_of(kind, c) is None
    with pytest.raises(TruncationError):
        products(kind, c, 64)
    clear_caches()
    with pytest.raises(TruncationError, match="across the edge"):
        on_circle(kind, c, 64)


def test_theta_series_reads_no_q():
    # theta(c u; p) has no q: its series is the same whatever q is packed with c
    c = 0.5 * np.exp(0.3j)
    assert series_of(THETA, c).tobytes() == series_of(THETA, c, Nomes(NM.p, 0.0)).tobytes()


@pytest.mark.parametrize("c", [0.5, 0.97, 1.3])
@pytest.mark.parametrize("kind", [GAMMA, RECIP])
def test_gamma_at_zero_nomes_is_one_line_factor(monkeypatch, kind, c):
    # Gamma(u; 0, 0) = 1 / (1 - u): inside the disc, where no K certifies
    # the series of log Gamma (|c| = 0.97) and outside it, the circle is the
    # line factor alone, read with no qseries evaluator, and matches pointwise
    nomes, factors = Nomes(0.0, 0.0), [pm(kind, c)]
    for N in (16, 64):
        grid = QuadratureGrid(1, N).nodes()
        with monkeypatch.context() as patched:
            patched.setattr(kernel, "_apply", refuse)
            lattice = evaluate(factors, grid, nomes)
        assert close(lattice, evaluate(factors, list(grid), nomes))
    assert kernel._reduced(kind, c, nomes.p, nomes.q) == (1, 0, [(c, 1, -1 if kind == GAMMA else 1)], [])


@pytest.mark.parametrize("kind", [GAMMA, RECIP])
def test_a_circle_more_than_max_terms_steps_away_raises(kind):
    # |c| = 1e300 is about 330 steps of |q| = 0.12 from the annulus, each
    # with up to 230 steps of its theta(.; p): the reduction stops after
    # MAX_TERMS with TruncationError, again on the next call, and no group
    # is held; 1e30 is reduced
    with pytest.raises(TruncationError):
        kernel._reduced(kind, 1e300, NM.p, NM.q)
    for _ in range(2):
        with pytest.raises(TruncationError):
            on_circle(kind, 1e300, 16)
    assert kernel._factor.cache_info().currsize == 0
    _, _, _, terms = kernel._reduced(kind, 1e30, NM.p, NM.q)
    assert terms


@pytest.mark.parametrize("c", [0.0, np.inf, np.nan])
@pytest.mark.parametrize("kind", [GAMMA, THETA, MONO])
def test_a_zero_or_non_finite_constant_raises(kind, c):
    # no functional equation brings f(c u) at such a c onto a series
    with pytest.raises(DomainError, match="finite c != 0"):
        on_circle(kind, c, 16)


@pytest.mark.parametrize("kind,c", [(GAMMA, 1 - 1e-13), (RECIP, NM.pq.real * (1 + 1e-13))])
def test_pole_on_the_annulus_edge_splits_and_raises(kind, c):
    # a node within POLE_TOL of a pole or zero on the annulus edge: no K can
    # certify the series there, the split leaves a line factor that
    # vanishes at the node, and the evaluator's pole scan there raises the
    # error the evaluators raise on the whole circle
    node = np.exp(2j * np.pi * 3 / 16)
    c = c / node
    assert series_of(kind, c) is None
    _, _, lines, _ = kernel._reduced(kind, c, NM.p, NM.q)
    assert [sign for _, _, sign in lines] == [-1]  # divided by
    with pytest.raises(PoleProximityError) as direct:
        products(kind, c, 16)
    clear_caches()
    for _ in range(2):
        with pytest.raises(PoleProximityError) as err:
            on_circle(kind, c, 16)
        assert str(err.value) == str(direct.value)
    assert kernel._factor.cache_info()[:2] == (1, 1)  # hits, misses


OFF_SERIES = {
    "outside": (GAMMA, 1.3 * np.exp(0.2j)),
    "inside": (RECIP, 0.5 * NM.pq),
    "weyl": (RECIP, 1.0),
    "mono": (MONO, 0.4),
    "edge": (GAMMA, 1.05 * np.exp(1.0j)),
    "uncertified": (THETA, (1 - 1e-6) * np.exp(1.0j)),
}


@pytest.mark.parametrize("case", sorted(OFF_SERIES))
def test_a_circles_route_is_held_with_its_series(monkeypatch, case):
    # a circle off its own series is reduced once along a ladder, onto the
    # series route, as one on it is: its group is built at the first rung
    # and read back at the others, and no circle takes the qseries
    # evaluators.  Gamma(1.05 w) lands at an edge, the Weyl circle starts
    # on one and theta 1e-6 inside |c| = 1 next to one: each splits off a
    # line factor
    monkeypatch.setattr(kernel, "_apply", refuse)
    for kind, c in (OFF_SERIES[case], (GAMMA, 0.5)):
        clear_caches()
        for N in (16, 32, 64):
            on_circle(kind, c, N)
        assert kernel._factor.cache_info()[:2] == (2, 1)  # hits, misses
        _, _, lines, _ = kernel._reduced(kind, c, NM.p, NM.q)
        assert bool(lines) == (c != 0.5 and case in ("edge", "uncertified", "weyl"))
    assert series_of(GAMMA, 0.5) is not None
    kind, c = OFF_SERIES[case]
    assert kind == MONO or series_of(kind, c) is None


def test_float_and_complex_nomes_give_one_lattice_psi():
    # Nomes holds p and q as complex, so p**k in the series, and every
    # lattice value, has the same bits for a float nome as for the complex of its value
    a = [0.3, 0.4, 0.5, -0.2, 0.25]
    digests = []
    for nomes in (Nomes(0.9, 0.3), Nomes(0.9 + 0j, 0.3 + 0j)):
        assert type(nomes.p) is type(nomes.q) is complex
        ps = ParameterSet.solved(1, 0.45, a, nomes, BalancingMode.PQ)
        clear_caches()
        digests.append(hashlib.sha1(psi(QuadratureGrid(1, 64).nodes(), ps, nomes).tobytes()).digest())
    assert digests[0] == digests[1]
