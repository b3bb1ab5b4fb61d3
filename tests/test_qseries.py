"""Scalar q-series building blocks against brute-force references and
their functional equations."""

import math
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ellselberg import (
    BalancingMode,
    DomainError,
    Nomes,
    ParameterSet,
    PoleProximityError,
    TruncationError,
    TruncationPolicy,
    elliptic_gamma,
    elliptic_gamma_recip,
    j_closed,
    lim_pinch_J,
    make_pinched,
    qpoch_inf,
    sample_da_parameters,
    theta,
    theta_pm,
)
from ellselberg import qseries
from ellselberg.integrand import _dual_of_zero
from ellselberg.residues import cn_recurrence_check
from ellselberg.scenarios import _da_closed

import oracles
from references import double_poch_inf

# Frozen from oracles.py at 40 digits (direct partial products).
QPOCH_CASES = (
    ((0.37 - 0.21j), 0.12, (0.5923814374449416 + 0.21728939432376407j)),
    ((-0.8 + 0.05j), (0.3 + 0.1j), (2.429841061477938 + 0.23465583180433647j)),
    ((1.6 + 0.9j), -0.45, (-0.8003246689520515 - 1.2288852334029237j)),
)
THETA_CASES = (
    ((0.3 - 0.12j), 0.05, (0.5920493184228015 + 0.06306898690935196j)),
    ((-1.7 + 0.4j), (0.11 + 0.07j), (3.571154032972796 + 0.011882573157154063j)),
)
GAMMA_CASES = (
    ((0.4 + 0.2j), 0.05, 0.07, (1.5524866975167495 + 0.5714898619590463j)),
    ((-0.62 + 0.31j), (0.1 + 0.04j), (0.12 - 0.03j), (0.5065100254052423 + 0.1410098786443162j)),
    ((1.9 - 0.8j), 0.05, 0.12, (-1.0617422093886837 - 0.6307798777884326j)),
)
DOUBLE_CASES = (
    ((0.55 + 0.3j), 0.08, (0.1 - 0.05j), (0.3860925941743006 - 0.2719728942527079j)),
)


def rel(a, b):
    a, b = complex(a), complex(b)
    d = max(abs(a), abs(b))
    return abs(a - b) / d if d else 0.0


def guarded(a, b):
    # stays finite when both sides vanish (theta zeros on the sample lattice)
    a, b = complex(a), complex(b)
    return abs(a - b) / (1.0 + abs(a) + abs(b))


@pytest.mark.parametrize("u,q,expected", QPOCH_CASES)
def test_qpoch_frozen(u, q, expected):
    assert rel(qpoch_inf(u, q), expected) < 1e-13


@pytest.mark.parametrize("u,p,expected", THETA_CASES)
def test_theta_frozen(u, p, expected):
    assert rel(theta(u, p), expected) < 1e-13


@pytest.mark.parametrize("u,p,q,expected", GAMMA_CASES)
def test_gamma_frozen(u, p, q, expected):
    assert rel(elliptic_gamma(u, Nomes(p, q)), expected) < 1e-13


@pytest.mark.parametrize("u,p,q,expected", DOUBLE_CASES)
def test_double_poch_frozen(u, p, q, expected):
    assert rel(double_poch_inf(u, Nomes(p, q)), expected) < 1e-13


def test_qpoch_zero_base():
    assert qpoch_inf(0.3, 0.0) == pytest.approx(0.7)
    assert qpoch_inf(0.0, 0.5) == 1.0


def test_nomes_reject_unit_modulus():
    with pytest.raises(DomainError):
        Nomes(1.0, 0.1)
    with pytest.raises(DomainError):
        Nomes(0.1, -1.0)


@pytest.mark.parametrize(
    "p,q,name",
    [(math.nan, 0.1, "p"), (0.1, math.nan, "q"), (complex(0.1, math.nan), 0.1, "p")],
)
def test_nomes_reject_nan(p, q, name):
    # nan compares false, so a check written as |p| >= 1 let it through
    with pytest.raises(DomainError, match=rf"\|{name}\|=nan"):
        Nomes(p, q)


moduli = st.floats(min_value=0.25, max_value=0.8)
phases = st.floats(min_value=0.0, max_value=2 * np.pi, exclude_max=True)
nome_moduli = st.floats(min_value=0.01, max_value=0.3)


@st.composite
def points(draw):
    return draw(moduli) * np.exp(1j * draw(phases))


@st.composite
def nomes_pairs(draw):
    p = draw(nome_moduli) * np.exp(1j * draw(phases))
    q = draw(nome_moduli) * np.exp(1j * draw(phases))
    return Nomes(complex(p), complex(q))


@given(points(), nome_moduli, phases)
def test_qpoch_matches_oracle(u, qm, qph):
    q = qm * np.exp(1j * qph)
    got = qpoch_inf(u, complex(q))
    ref = oracles.opoch(complex(u), complex(q), terms=300)
    assert rel(got, complex(ref)) < 1e-12


@given(points(), nomes_pairs())
def test_gamma_q_shift(u, nomes):
    # Gamma(q u) = theta(u; p) Gamma(u)
    try:
        lhs = elliptic_gamma(nomes.q * u, nomes)
        rhs = theta(u, nomes.p) * elliptic_gamma(u, nomes)
    except PoleProximityError:
        assume(False)
    assert guarded(lhs, rhs) < 1e-11


@given(points(), nomes_pairs())
def test_gamma_reflection(u, nomes):
    # Gamma(u) Gamma(pq/u) = 1
    try:
        prod = elliptic_gamma(u, nomes) * elliptic_gamma(nomes.pq / u, nomes)
    except PoleProximityError:
        assume(False)
    assert abs(prod - 1.0) < 1e-11


@given(points(), nomes_pairs())
def test_gamma_nome_symmetry(u, nomes):
    try:
        lhs = elliptic_gamma(u, nomes)
        rhs = elliptic_gamma(u, Nomes(nomes.q, nomes.p))
    except PoleProximityError:
        assume(False)
    assert rel(lhs, rhs) < 1e-12


@given(points(), nome_moduli, phases)
def test_theta_inversion(u, pm, pph):
    # theta(1/u) = -u^-1 theta(u)
    p = complex(pm * np.exp(1j * pph))
    assert guarded(theta(1 / u, p), -theta(u, p) / u) < 1e-11


@given(points(), nome_moduli, phases)
def test_theta_p_shift(u, pm, pph):
    # theta(p u) = -u^-1 theta(u)
    p = complex(pm * np.exp(1j * pph))
    assert guarded(theta(p * u, p), -theta(u, p) / u) < 1e-11


@given(points(), nomes_pairs())
def test_recip_is_reciprocal(u, nomes):
    try:
        g = elliptic_gamma(u, nomes)
        r = elliptic_gamma_recip(u, nomes)
    except PoleProximityError:
        assume(False)
    assert rel(g * r, 1.0) < 1e-12


def test_recip_zero_at_pole():
    # Gamma has a pole at u = 1; the reciprocal form is an exact zero there
    assert elliptic_gamma_recip(1.0, Nomes(0.05, 0.12)) == 0.0
    with pytest.raises(PoleProximityError):
        elliptic_gamma(1.0, Nomes(0.05, 0.12))


def test_theta_trigonometric_limit():
    # theta(u; 0) = 1 - u
    u = 0.63 - 0.4j
    assert rel(theta(u, 0.0), 1 - u) == 0.0


def test_gamma_trigonometric_limit():
    # Gamma(u; 0, q) = 1 / (u; q)_inf; the reciprocal form is exact
    u, q = 0.63 - 0.4j, 0.12
    nm = Nomes(0.0, q)
    assert rel(elliptic_gamma(u, nm), 1 / qpoch_inf(u, q)) < 1e-14
    assert elliptic_gamma_recip(u, nm) == qpoch_inf(u, q)


def test_array_matches_scalar():
    us = np.array([0.37 - 0.21j, 0.8j, -0.55])
    nm = Nomes(0.07 + 0.02j, 0.11)
    evaluators = (
        lambda u: qpoch_inf(u, nm.q),
        lambda u: double_poch_inf(u, nm),
        lambda u: elliptic_gamma(u, nm),
        lambda u: elliptic_gamma_recip(u, nm),
        lambda u: theta(u, nm.p),
    )
    for f in evaluators:
        arr = f(us)
        for i, u in enumerate(us):
            assert rel(arr[i], f(complex(u))) < 1e-13


def test_scalar_input_returns_python_complex():
    # scalars stay on the scalar product path instead of becoming 0-d arrays
    nm = Nomes(0.07 + 0.02j, 0.11)
    u = 0.37 - 0.21j
    values = (
        qpoch_inf(u, nm.q),
        double_poch_inf(u, nm),
        elliptic_gamma(u, nm),
        elliptic_gamma_recip(u, nm),
        theta(u, nm.p),
    )
    for value in values:
        assert type(value) is complex


def test_theta_pm_pair():
    a, z, p = 0.6 + 0.1j, 0.92 + 0.39j, 0.05
    assert rel(theta_pm(a, z, p), theta(a * z, p) * theta(a / z, p)) < 1e-15


def test_truncation_policy_guardrails():
    with pytest.raises(DomainError):
        TruncationPolicy(tail_tol=0.0)
    # a tail bound of 1 or more certifies nothing: at inf Gamma(u) read 1.0
    for tail_tol in (1.0, 2.0, float("inf"), float("nan"), -float("inf")):
        with pytest.raises(DomainError, match="tail_tol"):
            TruncationPolicy(tail_tol=tail_tol)
    with pytest.raises(DomainError):
        TruncationPolicy(max_terms=0)


@settings(max_examples=25)
@given(points(), nomes_pairs())
def test_tighter_policy_refines(u, nomes):
    loose = elliptic_gamma(u, nomes, TruncationPolicy(tail_tol=1e-6, max_terms=64))
    tight = elliptic_gamma(u, nomes, TruncationPolicy(tail_tol=1e-14, max_terms=512))
    assert rel(loose, tight) < 1e-5


def prod_loop(u, p, q, rows):
    """The factor-by-factor array product: the reference _prod_array must
    reproduce bit for bit."""
    acc = np.ones(u.shape, dtype=complex)
    pm = 1.0 + 0.0j
    for k in rows:
        c = pm
        for _ in range(k):
            acc *= 1.0 - c * u
            c *= q
        pm *= p
    return acc


PROD_ROWS = (40, 30, 20, 10, 4)  # 104 factors
PROD_WIDTH = qseries._BLOCK // sum(PROD_ROWS)  # columns of one block
PROD_NOMES = (0.05 + 0.02j, 0.12 - 0.03j)


def random_points(shape, seed):
    rng = np.random.default_rng(seed)
    size = int(np.prod(shape))
    u = rng.uniform(0.05, 1.5, size) * np.exp(2j * np.pi * rng.uniform(size=size))
    return u.reshape(shape)


@pytest.mark.parametrize(
    "M",
    [1, 2, 3, 17, PROD_WIDTH - 1, PROD_WIDTH, PROD_WIDTH + 1, 2 * PROD_WIDTH + 1, 4096, 32768],
)
def test_prod_array_is_the_factor_loop_bitwise(M):
    u = random_points((M,), M)
    got = qseries._prod_array(u, *PROD_NOMES, PROD_ROWS)
    assert got.tobytes() == prod_loop(u, *PROD_NOMES, PROD_ROWS).tobytes()


@pytest.mark.parametrize("transpose", [False, True], ids=["c_order", "transposed"])
def test_prod_array_keeps_the_shape_of_2d_input(transpose):
    u = random_points((48, 64), 7)
    if transpose:
        u = u.T
    got = qseries._prod_array(u, *PROD_NOMES, PROD_ROWS)
    assert got.shape == u.shape
    assert got.tobytes() == prod_loop(u, *PROD_NOMES, PROD_ROWS).tobytes()


def test_prod_array_single_row_and_empty_input():
    u = random_points((5, 3), 11)
    got = qseries._prod_array(u, 0.0, 0.3 + 0.1j, (25,))
    assert got.tobytes() == prod_loop(u, 0.0, 0.3 + 0.1j, (25,)).tobytes()
    empty = qseries._prod_array(u, *PROD_NOMES, ())
    assert empty.shape == u.shape
    assert np.all(empty == 1.0)
    assert qseries._prod_array(u[:0], *PROD_NOMES, PROD_ROWS).shape == (0, 3)


@pytest.fixture
def scalar_memo():
    """The scalar product memo, emptied."""
    qseries._scalar.cache_clear()
    return qseries._scalar


@pytest.fixture
def scalar_products(monkeypatch):
    """The arguments (u, p, q, rows) of every _prod_scalar call, in call order."""
    seen = []
    prod_scalar = qseries._prod_scalar

    def counting(u, p, q, rows):
        seen.append((bits(u), bits(p), bits(q), rows))
        return prod_scalar(u, p, q, rows)

    monkeypatch.setattr(qseries, "_prod_scalar", counting)
    return seen


def bits(x):
    return struct.pack("dd", x.real, x.imag)


def direct(u, p, q, policy=None, what=None):
    """The scalar product without the memo."""
    policy = policy or TruncationPolicy()
    return qseries._direct_scalar(complex(u), p, q, policy.tail_tol, policy.max_terms, what)


SCALAR_NOMES = Nomes(0.07 + 0.02j, 0.11)


def test_scalar_memo_hit_is_the_cold_value_bitwise(scalar_memo, scalar_products, monkeypatch):
    calls = []
    memo_scalar = qseries._memo_scalar

    def recording(z, p, q, policy, what):
        calls.append((z, p, q, policy, what, memo_scalar(z, p, q, policy, what)))
        return calls[-1][-1]

    monkeypatch.setattr(qseries, "_memo_scalar", recording)
    u = 0.37 - 0.21j
    evaluators = (
        lambda: qpoch_inf(u, SCALAR_NOMES.q),
        lambda: double_poch_inf(u, SCALAR_NOMES),
        lambda: elliptic_gamma(u, SCALAR_NOMES),
        lambda: elliptic_gamma_recip(u, SCALAR_NOMES),
        lambda: theta(u, SCALAR_NOMES.p),
    )
    for f in evaluators:
        cold = f()
        formed = len(scalar_products)
        warm = f()
        assert len(scalar_products) == formed  # every product came from the memo
        assert type(warm) is type(cold) is complex
        assert np.array(warm).tobytes() == np.array(cold).tobytes()
    # each value, held or cold, is that of the direct path at the caller's
    # nomes, float (the p = 0.0 of a single product) or complex
    assert {type(p) for _, p, *_ in calls} == {float, complex}
    for z, p, q, policy, what, value in calls:
        assert bits(value) == bits(direct(z, p, q, policy, what))


def test_scalar_memo_shares_nome_types_and_keeps_signed_zeros_apart(scalar_memo):
    # a float nome enters the products' arithmetic only as complex(x, +0.0),
    # so a float and a complex nome of one value share one entry, whose
    # value is the direct one at either type; -0.0 gets its own entry
    u = 0.45 + 0.2j
    for q in (0.12, 0.12 + 0j, -0.0, complex(-0.0, 0.0)):
        value = qpoch_inf(u, q)
        assert bits(value) == bits(direct(u, 0.0, q))
    assert scalar_memo.cache_info()[:2] == (2, 2)  # hits, misses
    # so in pairs of nomes: (0.0, 0.12), 0j and 0.12 + 0j are the key of
    # qpoch_inf(u, 0.12) above, and (-0.0, 0.12) and (0.0, 0.12j) two more
    nomes = [(0.0, 0.12), (0j, 0.12), (0.0, 0.12 + 0j), (-0.0, 0.12), (0.0, 0.12j)]
    for p, q in nomes:
        value = double_poch_inf(u, Nomes(p, q))
        assert bits(value) == bits(direct(u, p, q))
    assert scalar_memo.cache_info().currsize == 2 + 2
    # the argument by its bits as well: -0.0 is not 0.0
    qpoch_inf(0.0, 0.3)
    qpoch_inf(-0.0, 0.3)
    assert scalar_memo.cache_info().currsize == 2 + 2 + 2


def test_scalar_memo_stores_no_error(scalar_memo):
    nm = Nomes(0.05, 0.12)
    pole = (1.0 + 1e-14) / (nm.p * nm.q**2)
    # the product itself has a value there: held without the pole scan ...
    double_poch_inf(pole, nm)
    held = scalar_memo.cache_info().currsize
    for _ in range(3):
        # ... which does not stand in for the product that scans
        with pytest.raises(PoleProximityError) as info:
            elliptic_gamma(pole, nm)
        assert (info.value.mu, info.value.nu) == (1, 2)
        assert scalar_memo.cache_info().currsize == held
    tight = TruncationPolicy(tail_tol=1e-14, max_terms=4)
    for _ in range(3):
        with pytest.raises(TruncationError):
            double_poch_inf(0.9, Nomes(0.5, 0.5), tight)
        assert scalar_memo.cache_info().currsize == held


def test_scalar_memo_holds_at_most_its_bound(scalar_memo, scalar_products):
    us = [0.3 + 0.001 * k for k in range(3 * qseries._SCALAR_ENTRIES)]
    for u in us:
        qpoch_inf(u, 0.2)
        assert scalar_memo.cache_info().currsize <= qseries._SCALAR_ENTRIES
    assert scalar_memo.cache_info().currsize == qseries._SCALAR_ENTRIES
    # the most recent products are held, the oldest formed again
    formed = len(scalar_products)
    qpoch_inf(us[-1], 0.2)
    assert len(scalar_products) == formed
    qpoch_inf(us[0], 0.2)
    assert len(scalar_products) == formed + 1


def test_cn_recurrence_forms_each_scalar_product_once(scalar_memo, scalar_products):
    # a memo that is bypassed would pass every numeric test; here it shows
    # as repeated products (c_n and c_(n-1) share all but one Gamma factor)
    for n in range(1, 6):
        cn_recurrence_check(n, 0.42 + 0.05j, Nomes(0.05, 0.12))
    assert scalar_products
    assert len(scalar_products) == len(set(scalar_products))


# The default policy's two numbers, as _plan takes them.
LIMITS = (TruncationPolicy().tail_tol, TruncationPolicy().max_terms)


def test_no_lookup_hashes_the_policy(monkeypatch, scalar_memo):
    # the scalar memo and the plan cache key on the policy's two numbers,
    # whose tuple hashes in C; the frozen dataclass's __hash__ runs in Python
    nm = Nomes(0.05, 0.12)
    u = 0.37 - 0.21j
    values = [
        lambda: elliptic_gamma(u, nm),
        lambda: theta(u * 1.3, nm.p),
        lambda: elliptic_gamma(np.array([u, 0.5j, -0.8]), nm),
        lambda: cn_recurrence_check(3, 0.42 + 0.05j, nm),
    ]
    want = [np.array(f()).tobytes() for f in values]

    def refuse(self):
        raise AssertionError("TruncationPolicy hashed")

    monkeypatch.setattr(TruncationPolicy, "__hash__", refuse)
    assert np.array(values[0]()).tobytes() == want[0]  # a warm scalar Gamma
    scalar_memo.cache_clear()
    qseries._plan.cache_clear()
    assert [np.array(f()).tobytes() for f in values] == want


def test_plan_cold_and_warm_cache_agree():
    args = (0.05, 0.12, 0.731, *LIMITS)
    qseries._plan.cache_clear()
    cold = qseries._plan(*args)
    warm = qseries._plan(*args)
    assert qseries._plan.cache_info().hits == 1
    assert cold == warm == qseries._plan.__wrapped__(*args)
    assert type(cold[0]) is tuple


def test_plan_raises_truncation_error_on_every_call():
    # exceptions are not cached: a repeated plan that cannot certify its
    # tail raises again instead of returning a stale value
    for _ in range(3):
        with pytest.raises(TruncationError):
            qseries._plan(0.5, 0.5, 1.0, 1e-14, 4)


def test_pole_error_names_the_pole_on_both_paths():
    nm = Nomes(0.05, 0.12)
    # Gamma's pole at p^-mu q^-nu and its reciprocal's at p^(mu+1) q^(nu+1)
    # share (mu, nu); each function scans only the side it divides by, so
    # the other one has a value there, near its zero
    for mu, nu in ((0, 0), (1, 2), (2, 0)):
        pole = (1.0 + 1e-14) / (nm.p**mu * nm.q**nu)
        zero = nm.p ** (mu + 1) * nm.q ** (nu + 1) * (1.0 + 1e-14)
        cases = (
            (elliptic_gamma, elliptic_gamma_recip, pole),
            (elliptic_gamma_recip, elliptic_gamma, zero),
        )
        for f, other, u in cases:
            for arg in (u, np.array([0.3 + 0.2j, u])):
                with pytest.raises(PoleProximityError) as info:
                    f(arg, nm)
                assert (info.value.mu, info.value.nu) == (mu, nu)
                assert str(info.value).startswith(f.__name__)
                value = np.atleast_1d(other(arg, nm))
                assert np.all(np.isfinite(value))
                assert abs(value[-1]) < 1e-9 * abs(other(u * 1.01, nm))


# Reference truncation plan (one row-length call per row) and pole scan (every
# retained factor visited): _plan and _pole_scan, which stop early, must match
# them exactly.


def ref_row_len(base, q_abs, tau, max_terms):
    if base < tau:
        return 0
    if q_abs == 0.0:
        return 1
    n = int(np.floor(np.log(tau / base) / np.log(q_abs))) + 1
    return min(max(n, 1), max_terms + 1)


def ref_plan(p_abs, q_abs, u_max, policy):
    if u_max == 0.0:
        return (), 0.0
    tau = policy.tail_tol
    for _ in range(6):
        est = 0
        mu = 0
        base = u_max
        while base >= tau and mu <= policy.max_terms:
            est += ref_row_len(base, q_abs, tau, policy.max_terms)
            if p_abs == 0.0:
                break
            base *= p_abs
            mu += 1
        tau_eff = policy.tail_tol / max(est, 1)
        rows = []
        base = u_max
        while base >= tau_eff:
            rows.append(ref_row_len(base, q_abs, tau_eff, policy.max_terms))
            if p_abs == 0.0:
                break
            base *= p_abs
        over = len(rows) > policy.max_terms or (rows and rows[0] > policy.max_terms)
        if over:
            rows = [min(k, policy.max_terms) for k in rows[: policy.max_terms]]
        tail = qseries._tail_bound(rows, p_abs, q_abs, u_max)
        if over:
            raise TruncationError("over max_terms", achieved_bound=tail)
        if tail < policy.tail_tol:
            return tuple(rows), tail
        tau = tau_eff / 16.0
    raise TruncationError("no convergence", achieved_bound=tail)


def ref_pole_scan(arr, p, q, rows, what):
    if not arr.size:
        return
    mags = np.abs(arr)
    lo = float(np.min(mags))
    hi = float(np.max(mags))
    pm = 1.0 + 0.0j
    for mu, k in enumerate(rows):
        c = pm
        for nu in range(k):
            ca = abs(c)
            if ca * hi >= 1.0 - 1e-9 and (lo == 0.0 or ca * lo <= 1.0 + 1e-9):
                d = np.abs(1.0 - c * arr)
                j = int(np.argmin(d))
                if d.flat[j] < qseries.POLE_TOL:
                    bad = complex(arr.flat[j])
                    raise PoleProximityError(what, u=bad, mu=mu, nu=nu)
            c *= q
        pm *= p


def plan_outcome(plan, *args):
    try:
        return plan(*args)
    except TruncationError as exc:
        return ("TruncationError", exc.achieved_bound)


PLAN_POLICIES = (
    TruncationPolicy(),
    TruncationPolicy(tail_tol=1e-6),
    TruncationPolicy(tail_tol=1e-15, max_terms=8),
)


@pytest.mark.parametrize("policy", PLAN_POLICIES, ids=["default", "loose", "tight_cap"])
def test_plan_matches_the_reference_plan(policy):
    raised = 0
    limits = (policy.tail_tol, policy.max_terms)
    for p_abs in (0.0, 1e-3, 0.05, 0.3, 0.7, 0.95):
        for q_abs in (0.0, 1e-3, 0.12, 0.5, 0.9):
            for u_max in (0.0, 1e-20, 1e-3, 0.6, 1.0, 3.7, 250.0):
                args = (p_abs, q_abs, u_max)
                got = plan_outcome(qseries._plan.__wrapped__, *args, *limits)
                assert got == plan_outcome(ref_plan, *args, policy), args
                raised += got[0] == "TruncationError"
    if policy.max_terms == 8:
        assert raised  # the sweep reaches the TruncationError cases


@pytest.fixture
def product_rows(monkeypatch):
    """The rows of every _prod_array and _prod_scalar call, in call order."""
    seen = []
    prod_array, prod_scalar = qseries._prod_array, qseries._prod_scalar

    def array(u, p, q, rows):
        seen.append(rows)
        return prod_array(u, p, q, rows)

    def scalar(u, p, q, rows):
        seen.append(rows)
        return prod_scalar(u, p, q, rows)

    monkeypatch.setattr(qseries, "_prod_array", array)
    monkeypatch.setattr(qseries, "_prod_scalar", scalar)
    return seen


def test_scale_is_the_power_of_two_at_or_above():
    for u_max, scale in ((3.0, 4.0), (4.0, 4.0), (4.000001, 8.0), (0.3, 0.5), (1e-20, 2.0**-66)):
        assert qseries._scale(u_max) == scale
    # kept as they are: zero, the smallest subnormal (a power of two), and
    # values with no power of two above them in floats
    for u_max in (0.0, 5e-324, 1.5e308, float("inf")):
        assert qseries._scale(u_max) == u_max
    assert math.isnan(qseries._scale(float("nan")))


def test_scaled_plan_certifies_the_true_tail(product_rows):
    # the rows certified at the power of two B >= max|u| bound the tail at max|u|
    policy = TruncationPolicy()
    rng = np.random.default_rng(20)
    u_maxes = [0.0] + [2.0**k for k in range(-66, 8)] + list(10.0 ** rng.uniform(-20, math.log10(250), 300))
    for u_max in u_maxes:
        p_abs, q_abs = rng.uniform(0.0, 0.9, 2).tolist()
        del product_rows[:]
        qseries._direct(np.array([u_max, -0.5 * u_max], dtype=complex), p_abs, q_abs, policy, None)
        qseries._direct_scalar(complex(u_max), p_abs, q_abs, *LIMITS, None)
        rows, scalar_rows = product_rows
        assert rows == scalar_rows
        assert qseries._tail_bound(rows, p_abs, q_abs, u_max) < policy.tail_tol, (p_abs, q_abs, u_max)


@pytest.mark.parametrize("scale", [2.0**-40, 0.5, 1.0, 4.0, 256.0])
def test_one_plan_per_power_of_two(scale):
    qseries._plan.cache_clear()
    inside = [math.nextafter(scale / 2, math.inf)] + [scale * f for f in (0.6, 0.75, 0.9, 0.999)] + [scale]
    for u_max in inside:
        qseries._scaled_plan(0.05, 0.12, u_max, *LIMITS)
    info = qseries._plan.cache_info()
    assert (info.misses, info.hits) == (1, len(inside) - 1)
    # B / 2 is a power of two itself, with its own plan
    qseries._scaled_plan(0.05, 0.12, scale / 2, *LIMITS)
    assert qseries._plan.cache_info().misses == 2


SMALL_POLICIES = (
    TruncationPolicy(tail_tol=1e-15, max_terms=8),
    TruncationPolicy(tail_tol=1e-13, max_terms=4),
    TruncationPolicy(tail_tol=1e-6, max_terms=2),
)


def test_scaled_plan_raises_only_where_the_exact_plan_does():
    # a plan at B that max_terms cannot certify falls back to the plan of
    # max|u|, so TruncationError comes only where that plan raises too (the
    # plan at B may certify where the plan of max|u| cannot: 4 of 15 000
    # random draws at max_terms <= 30)
    raised = fell_back = 0
    for policy in SMALL_POLICIES:
        for p_abs in (0.0, 1e-3, 0.05, 0.3, 0.7):
            for q_abs in (0.0, 1e-3, 0.12, 0.5, 0.9):
                for u_max in [0.0] + list(10.0 ** np.linspace(-10, 2.5, 40)):
                    exact = plan_outcome(ref_plan, p_abs, q_abs, u_max, policy)
                    scaled = plan_outcome(ref_plan, p_abs, q_abs, qseries._scale(u_max), policy)
                    got = plan_outcome(
                        qseries._scaled_plan, p_abs, q_abs, u_max, policy.tail_tol, policy.max_terms
                    )
                    if scaled[0] == "TruncationError":
                        assert got == exact, (policy, p_abs, q_abs, u_max)
                        fell_back += exact[0] != "TruncationError"
                    else:
                        assert got == scaled, (policy, p_abs, q_abs, u_max)
                    raised += got[0] == "TruncationError"
                    if got[0] != "TruncationError":
                        assert qseries._tail_bound(got[0], p_abs, q_abs, u_max) < policy.tail_tol
    assert raised and fell_back  # the sweep reaches both the error and the fallback


GAMMA_SIDES = {
    elliptic_gamma: lambda u, nm: (nm.pq / u, u),
    elliptic_gamma_recip: lambda u, nm: (u, nm.pq / u),
}


@pytest.mark.parametrize("shape", [(2,), (3,), (64,), (700,), (24, 5)])
@pytest.mark.parametrize("f", list(GAMMA_SIDES), ids=["gamma", "recip"])
def test_array_gamma_is_one_quotient_under_shared_rows(f, shape, product_rows):
    nm = Nomes(0.07 + 0.02j, 0.11)
    u = random_points(shape, sum(shape)) * 2.0
    got = f(u, nm)
    (rows,) = product_rows  # one product for both sides
    top, bottom = GAMMA_SIDES[f](u, nm)
    hi = max(np.abs(top).max(), np.abs(bottom).max())
    assert rows == qseries._scaled_plan(abs(nm.p), abs(nm.q), hi, *LIMITS)[0]
    assert qseries._tail_bound(rows, abs(nm.p), abs(nm.q), hi) < TruncationPolicy().tail_tol
    want = qseries._prod_array(top, nm.p, nm.q, rows) / qseries._prod_array(bottom, nm.p, nm.q, rows)
    assert got.shape == shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("f", list(GAMMA_SIDES), ids=["gamma", "recip"])
def test_one_element_gamma_array_has_the_bits_of_a_longer_one(f):
    # two separate one-element products would each be a lone column, which
    # numpy multiplies with other instructions; the paired product is not
    nm = Nomes(0.07 + 0.02j, 0.11)
    for u in random_points((20,), 3):
        pair = np.array([u, u * 1j])  # |u i| = |u|: the same plan
        assert f(pair[:1], nm).tobytes() == f(pair, nm)[:1].tobytes()


def pole_outcome(scan, *args):
    try:
        scan(*args)
    except PoleProximityError as exc:
        return (exc.u, exc.mu, exc.nu)
    return None


def scan_both(arr, p, q):
    hi = float(np.max(np.abs(arr)))
    rows, _ = qseries._plan(abs(p), abs(q), hi, *LIMITS)
    got = pole_outcome(qseries._pole_scan, arr, hi, p, q, rows, "scan")
    assert got == pole_outcome(ref_pole_scan, arr, p, q, rows, "scan")
    return got


SCAN_NOMES = (0.05 + 0.02j, 0.12 - 0.03j)


@pytest.mark.parametrize("mu", [0, 1, 2])
@pytest.mark.parametrize("nu", [0, 1, 3])
def test_pole_scan_names_the_same_pole_as_the_reference(mu, nu):
    p, q = SCAN_NOMES
    pole = (1.0 + 1e-14) / (p**mu * q**nu)
    for arr in (
        np.array([pole]),
        np.array([0.3 + 0.2j, pole, 2.0 - 1.0j]),
        np.array([0.0, pole]),  # lo = 0
        np.array([pole, 1e4 + 0j]),
    ):
        assert scan_both(arr, p, q) == (pole, mu, nu)


def test_pole_scan_is_silent_below_the_unit_circle():
    p, q = SCAN_NOMES
    rng = np.random.default_rng(5)
    for top in (0.5, 0.9, 1.0 - 2e-9):
        arr = top * rng.uniform(0, 1, 64) * np.exp(2j * np.pi * rng.uniform(size=64))
        arr[0] = top
        assert scan_both(arr, p, q) is None
        assert scan_both(np.append(arr, 0.0), p, q) is None


def test_pole_scan_matches_the_reference_on_random_arrays():
    p, q = SCAN_NOMES
    rng = np.random.default_rng(9)
    poles = [1.0 / (p**mu * q**nu) for mu in range(3) for nu in range(5)]
    for trial in range(200):
        size = int(rng.integers(1, 6))
        arr = rng.uniform(0.0, 80.0, size) * np.exp(2j * np.pi * rng.uniform(size=size))
        if trial % 2:
            arr[int(rng.integers(size))] = poles[trial % len(poles)] * (1 + 1e-14)
        if trial % 7 == 0:
            arr[0] = 0.0
        scan_both(arr, p, q)


# Closed forms evaluate their Gamma products as one array call; these are the
# products they replaced, one scalar Gamma per factor.  They are evaluated with
# a 1e-20 tail: at the default tail each scalar factor carries its own
# truncation error, and the product of 38 of them (lim_pinch_J at n = 3)
# strays 1.7e-13 from the converged value while the batched product, planned
# for the largest argument, strays 5.8e-14.
TIGHT = TruncationPolicy(tail_tol=1e-20)


def scalar_j(params, nomes, policy=TIGHT):
    zero = _dual_of_zero(params.a, params.t, params.n, nomes)
    out = 1.0 + 0.0j
    for i in range(1, params.n + 1):
        ti = params.t ** (i - 1)
        for j in range(6):
            for k in range(j + 1, 6):
                if zero is not None and zero[0] in (j, k):
                    other = params.a[k if zero[0] == j else j]
                    out *= elliptic_gamma_recip(zero[1] / (other * ti), nomes, policy)
                else:
                    out *= elliptic_gamma(params.a[j] * params.a[k] * ti, nomes, policy)
    return out


def scalar_pinch_j(params, nomes, policy=TIGHT):
    a, t, n = params.a, params.t, params.n
    out = 1.0 / (qpoch_inf(nomes.p, nomes.p, policy) * qpoch_inf(nomes.q, nomes.q, policy))
    for i in range(1, n):
        out *= elliptic_gamma(t**i, nomes, policy)
    for i in range(1, n + 1):
        ti = t ** (i - 1)
        for m in range(2, 6):
            out *= elliptic_gamma(a[m] * ti * a[0], nomes, policy)
            out *= elliptic_gamma(a[m] * ti / a[0], nomes, policy)
    for i in range(1, n):
        ti = t ** (i - 1)
        for j in range(2, 6):
            for k in range(j + 1, 6):
                out *= elliptic_gamma(a[j] * a[k] * ti, nomes, policy)
    return out


def scalar_da(a, n, nomes, policy=TIGHT):
    euler = qpoch_inf(nomes.p, nomes.p, policy) * qpoch_inf(nomes.q, nomes.q, policy)
    out = 2.0**n * math.factorial(n) / euler**n
    for j in range(len(a)):
        for k in range(j + 1, len(a)):
            out *= elliptic_gamma(a[j] * a[k], nomes, policy)
    return out


def rel(a, b):
    return abs(complex(a) - complex(b)) / abs(complex(b))


CLOSED_NOMES = Nomes(0.05, 0.12)
CLOSED_A5 = [0.63, 0.58 * np.exp(0.7j), -0.61, 0.64 * np.exp(-1.1j), 0.55]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_j_closed_is_the_scalar_product(n):
    t = 0.7 if n == 3 else 0.45
    ps = ParameterSet.solved(n, t, CLOSED_A5, CLOSED_NOMES, BalancingMode.PQ)
    assert rel(j_closed(ps, CLOSED_NOMES), scalar_j(ps, CLOSED_NOMES)) <= 1e-13


@pytest.mark.parametrize("n", [1, 2])
def test_j_closed_dual_case_is_the_scalar_product(n):
    # p q = 0 forces a_6 = 0: its pairs become 1/Gamma factors of the dual
    nm = Nomes(0.0, 0.12)
    ps = ParameterSet.solved(n, 0.45, CLOSED_A5, nm, BalancingMode.PQ)
    assert ps.a[5] == 0
    assert rel(j_closed(ps, nm), scalar_j(ps, nm)) <= 1e-13


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lim_pinch_j_is_the_scalar_product(n):
    t = 0.7 if n == 3 else 0.45
    ps = ParameterSet.solved(n, t, CLOSED_A5, CLOSED_NOMES, BalancingMode.PQ)
    pinched = make_pinched(ps, CLOSED_NOMES)
    got = lim_pinch_J(pinched, CLOSED_NOMES)
    assert rel(got, scalar_pinch_j(pinched, CLOSED_NOMES)) <= 1e-13


@pytest.mark.parametrize("n", [1, 2])
def test_da_closed_is_the_scalar_product(n):
    for a in sample_da_parameters(n, CLOSED_NOMES, 3, 4):
        a = tuple(complex(v) for v in a)
        got = _da_closed(a, n, CLOSED_NOMES, None)
        assert rel(got, scalar_da(a, n, CLOSED_NOMES)) <= 1e-13


@pytest.mark.parametrize("recip", [False, True], ids=["gamma", "recip"])
def test_gamma_product_names_the_argument_on_a_pole(recip):
    nm = Nomes(0.05, 0.12)
    # a pole of Gamma at p^-1 q^-2, or of 1/Gamma at p^2 q^3 (a zero of Gamma)
    bad = (1.0 + 1e-14) / (nm.p * nm.q**2) if not recip else nm.p**2 * nm.q**3 * (1.0 + 1e-14)
    args = [0.3 + 0.2j, bad, 0.5 - 0.1j]
    with pytest.raises(PoleProximityError) as info:
        qseries._gamma_product(args, nm, recip=recip)
    # 1/Gamma(u) scans its numerator argument p q / u
    named = nm.pq / bad if recip else bad
    assert info.value.u == pytest.approx(named, rel=1e-15)
    assert (info.value.mu, info.value.nu) == (1, 2)
