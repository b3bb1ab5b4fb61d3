"""Scalar q-series building blocks against brute-force references and
their functional equations."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ellselberg import (
    DomainError,
    Nomes,
    PoleProximityError,
    TruncationError,
    TruncationPolicy,
    double_poch_inf,
    elliptic_gamma,
    elliptic_gamma_recip,
    qpoch_inf,
    theta,
    theta_pm,
)
from ellselberg import qseries

import oracles

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
    arr = elliptic_gamma(us, nm)
    for i, u in enumerate(us):
        assert rel(arr[i], elliptic_gamma(complex(u), nm)) < 1e-13
    arr_t = theta(us, nm.p)
    for i, u in enumerate(us):
        assert rel(arr_t[i], theta(complex(u), nm.p)) < 1e-13


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


def test_plan_cold_and_warm_cache_agree():
    args = (0.05, 0.12, 0.731, TruncationPolicy())
    qseries._plan.cache_clear()
    cold = qseries._plan(*args)
    warm = qseries._plan(*args)
    assert qseries._plan.cache_info().hits == 1
    assert cold == warm == qseries._plan.__wrapped__(*args)
    assert type(cold[0]) is tuple


def test_plan_raises_truncation_error_on_every_call():
    # exceptions are not cached: a repeated plan that cannot certify its
    # tail raises again instead of returning a stale value
    policy = TruncationPolicy(tail_tol=1e-14, max_terms=4)
    for _ in range(3):
        with pytest.raises(TruncationError):
            qseries._plan(0.5, 0.5, 1.0, policy)


def test_pole_error_names_the_pole_on_both_paths():
    nm = Nomes(0.05, 0.12)
    u = (1.0 + 1e-14) / (nm.p * nm.q**2)
    for arg in (u, np.array([0.3 + 0.2j, u])):
        with pytest.raises(PoleProximityError) as info:
            elliptic_gamma(arg, nm)
        assert (info.value.mu, info.value.nu) == (1, 2)
