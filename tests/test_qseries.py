"""Scalar q-series building blocks against brute-force references and
their functional equations."""

import cmath
import functools
import math
import struct
import warnings

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
import references

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

# Nomes whose Gamma series no K <= MAX_TERMS = 512 certifies at beta = sqrt(0.9).
UNCERTIFIED = Nomes(0.93, 0.9)


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


@pytest.mark.parametrize("f,name", [(theta, "p"), (qpoch_inf, "q")], ids=["theta", "qpoch_inf"])
@pytest.mark.parametrize("nome", [1.0, -1.0, 2.0, 1j, math.nan, complex(0.1, math.nan)])
def test_single_nome_outside_the_unit_disk_is_named(f, name, nome):
    # not a ZeroDivisionError at |p| = 1, a truncation message past it, or
    # a truncation message with nan
    with pytest.raises(DomainError, match=rf"requires \|{name}\| < 1, got \|{name}\|="):
        f(0.5, nome)


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
        elliptic_gamma(u, nm),
        elliptic_gamma_recip(u, nm),
        theta(u, nm.p),
    )
    for value in values:
        assert type(value) is complex


def test_theta_pm_pair():
    a, z, p = 0.6 + 0.1j, 0.92 + 0.39j, 0.05
    assert rel(theta_pm(a, z, p), theta(a * z, p) * theta(a / z, p)) < 1e-15


@pytest.mark.parametrize("u", [complex("nan"), complex("inf"), complex(1.0, float("nan"))])
def test_non_finite_arguments_raise_truncation_error(u):
    # no truncation certifies a tail at |u| = inf or nan: every evaluator
    # raises the package's error, scalar or array, at nomes with pq = 0 too
    for nm in (Nomes(0.05, 0.12), Nomes(0.0, 0.12)):
        for f in (lambda x: qpoch_inf(x, nm.q), lambda x: theta(x, nm.q),
                  lambda x: elliptic_gamma(x, nm), lambda x: elliptic_gamma_recip(x, nm)):
            for arg in (u, np.array([0.5, u])):
                with pytest.raises(TruncationError):
                    f(arg)


# At nomes (0.9, 0.85) the mpmath oracle (tests/oracles.py, side 450) reads
# Gamma(1e-4 e^i) = -1.28e3011 + 7.24e3010 i and Gamma(38 e^2i) =
# -1.83e-322 - 1.31e-322 i: beyond the doubles, and among the subnormals.
# Their theta corrections overflow, and both functions raise.
@pytest.mark.parametrize("u", [1e-4 * cmath.exp(1j), 38 * cmath.exp(2j)], ids=["small", "large"])
def test_gamma_outside_the_double_range_names_the_argument(u):
    nm = Nomes(0.9, 0.85)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for f in (elliptic_gamma, elliptic_gamma_recip):
            for arg in (u, np.array([0.5, u, 2.0])):
                with pytest.raises(DomainError, match="outside the double range") as info:
                    f(arg, nm)
                assert str(info.value).startswith(f"{f.__name__}: argument {u}")


def test_gamma_near_the_double_range_keeps_its_bits():
    # Gamma(35 e^i) = 3.3813378e-152 - 8.1507072e-153 i by the oracle; the
    # range check reads the value and moves no bit of it
    nm, u = Nomes(0.9, 0.85), 35 * cmath.exp(1j)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        value, recip = elliptic_gamma(u, nm), elliptic_gamma_recip(u, nm)
    assert value == 3.3813378218710095e-152 - 8.150707225260057e-153j
    assert recip == 2.7950055425113905e151 + 6.737354582744364e150j
    assert rel(value, 3.3813378e-152 - 8.1507072e-153j) < 1e-7


# |(1e6 e^i; 0.9)_inf| passes 1e308, and so do theta(1e6 e^i; 0.9) and, by
# its (p/u; p)_inf, theta(1e-6 e^i; 0.9); Gamma and 1/Gamma at p q = 0 are
# 1/(u; q)_inf and (u; p)_inf, whose product leaves the range at 1e6 e^i too
FAR, NEAR = 1e6 * cmath.exp(1j), 1e-6 * cmath.exp(1j)
SINGLE_PRODUCTS = {
    "theta": lambda x: theta(x, 0.9),
    "qpoch_inf": lambda x: qpoch_inf(x, 0.9),
    "elliptic_gamma": lambda x: elliptic_gamma(x, Nomes(0.0, 0.9)),
    "elliptic_gamma_recip": lambda x: elliptic_gamma_recip(x, Nomes(0.9, 0.0)),
}


@pytest.mark.parametrize(
    "name,u", [("theta", FAR), ("theta", NEAR), ("qpoch_inf", FAR), ("elliptic_gamma", FAR),
               ("elliptic_gamma_recip", FAR)],
    ids=["theta_large", "theta_small", "qpoch", "gamma_p0", "recip_q0"],
)
def test_single_product_outside_the_double_range_names_the_argument(name, u):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for arg in (u, np.array([0.5, u, 2.0])):
            with pytest.raises(DomainError, match="outside the double range") as info:
                SINGLE_PRODUCTS[name](arg)
            assert str(info.value).startswith(f"{name}: argument {u}")


@pytest.mark.parametrize("name,expected", [
    ("theta", 8.0702904173282e76 - 6.369657359011318e77j),
    ("qpoch_inf", 7.664660532397794e76 - 6.460835876361835e77j),
    ("elliptic_gamma", 1.810697848626991e-79 + 1.5263065562018683e-78j),
    ("elliptic_gamma_recip", 7.664660532397794e76 - 6.460835876361835e77j),
])
def test_single_product_near_the_double_range_keeps_its_bits(name, expected):
    # at 500 + 300i the products reach 1e77 and keep the bits they had
    # before the range check, as a scalar and inside an array
    f, u = SINGLE_PRODUCTS[name], 500 + 300j
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert f(u) == expected
        assert f(np.array([0.5, u]))[1] == expected


def prod_loop(rows):
    """The factor-by-factor product of each column: the reference _product
    must reproduce bit for bit."""
    acc = rows[0].copy()
    for row in rows[1:]:
        acc = acc * row
    return acc


PROD_BASE = 0.12 - 0.03j


def random_points(shape, seed):
    rng = np.random.default_rng(seed)
    size = int(np.prod(shape))
    u = rng.uniform(0.05, 1.5, size) * np.exp(2j * np.pi * rng.uniform(size=size))
    return u.reshape(shape)


def factor_rows(u):
    return qseries._single(u, qseries._based(PROD_BASE))


# Widths: a lone column (paired with x = 0); 2, and one past 2, 4, 8 and 16
# complex lanes of a vector loop (3, 5, 9, 17); one block of _evaluate's
# (1024 elements) and theta's two halves of one (2048); one past numpy's
# ufunc buffer (8193); and 32768.
@pytest.mark.parametrize(
    "M", [1, 2, 3, 5, 9, 17, qseries._BLOCK_ENTRIES // qseries.MAX_TERMS,
          2 * qseries._BLOCK_ENTRIES // qseries.MAX_TERMS, np.getbufsize() + 1, 32768]
)
def test_product_is_the_factor_loop_bitwise(M):
    # every column of the array product is the loop over its own factors,
    # whatever the number of columns (a lone one is paired with x = 0)
    rows = factor_rows(random_points((M,), M))
    assert rows.shape[1] == max(M, 2)
    assert qseries._product(rows).tobytes() == prod_loop(rows).tobytes()


@pytest.mark.parametrize("transpose", [False, True], ids=["c_order", "transposed"])
def test_evaluators_keep_the_shape_of_2d_input(transpose):
    u = random_points((48, 64), 7)
    if transpose:
        u = u.T
    nm = Nomes(0.07 + 0.02j, 0.11)
    for f in (lambda x: qpoch_inf(x, nm.q), lambda x: theta(x, nm.p),
              lambda x: elliptic_gamma(x, nm), lambda x: elliptic_gamma_recip(x, nm)):
        got = f(u)
        assert got.shape == u.shape
        assert got.tobytes() == f(np.ascontiguousarray(u).reshape(-1)).reshape(u.shape).tobytes()


def test_zero_nome_is_one_factor_and_empty_input_keeps_its_shape():
    # at c = 0 each column is the single factor 1 - x, exactly
    u = random_points((5, 3), 11)
    assert np.array_equal(qpoch_inf(u, 0.0), 1.0 - u)
    assert np.array_equal(theta(u, 0.0), 1.0 - u)
    for f in (lambda x: qpoch_inf(x, 0.3), lambda x: theta(x, 0.3),
              lambda x: elliptic_gamma(x, Nomes(0.05, 0.12))):
        assert f(u[:0]).shape == (0, 3)


@pytest.fixture
def scalar_memo():
    """The scalar memo, emptied."""
    qseries._scalar.cache_clear()
    return qseries._scalar


@pytest.fixture
def scalar_products(monkeypatch):
    """The arguments (f, the bits of u, p and q) of every evaluation the
    scalar memo asks of the array path, in call order."""
    seen = []
    scalar = qseries._scalar.__wrapped__

    def counting(f, bits):
        seen.append((f, bits))
        return scalar(f, bits)

    monkeypatch.setattr(qseries, "_scalar", functools.lru_cache(qseries._SCALAR_ENTRIES)(counting))
    return seen


def bits(x):
    return struct.pack("dd", x.real, x.imag)


def direct(f, u):
    """The value of the evaluator f at u as a one-element array, without the memo."""
    return complex(f(np.array([u], dtype=complex))[0])


SCALAR_NOMES = Nomes(0.07 + 0.02j, 0.11)
SCALAR_EVALUATORS = (
    lambda u: qpoch_inf(u, SCALAR_NOMES.q),
    lambda u: elliptic_gamma(u, SCALAR_NOMES),
    lambda u: elliptic_gamma_recip(u, SCALAR_NOMES),
    lambda u: theta(u, SCALAR_NOMES.p),
)


def test_scalar_memo_hit_is_the_cold_value_bitwise(scalar_products):
    u = 0.37 - 0.21j
    for f in SCALAR_EVALUATORS:
        cold = f(u)
        formed = len(scalar_products)
        warm = f(u)
        assert len(scalar_products) == formed  # the value came from the memo
        assert type(warm) is type(cold) is complex
        assert bits(warm) == bits(cold)
        # held or cold, it is the value of the array path at one element
        assert bits(cold) == bits(direct(f, u))


def test_scalar_memo_shares_nome_types_and_keeps_signed_zeros_apart(scalar_memo):
    # the array path reads a float nome only as complex(x, +0.0), so a float
    # and a complex nome of one value share one entry, whose value is the
    # array path's at either type; -0.0 gets its own entry
    u = 0.45 + 0.2j
    for q in (0.12, 0.12 + 0j, -0.0, complex(-0.0, 0.0)):
        value = qpoch_inf(u, q)
        assert bits(value) == bits(direct(lambda x: qpoch_inf(x, q), u))
    assert scalar_memo.cache_info()[:2] == (2, 2)  # hits, misses
    # so in pairs of nomes: (0.0, 0.12), 0j and 0.12 + 0j are one key, and
    # (-0.0, 0.12) and (0.0, 0.12j) two more
    nomes = [(0.0, 0.12), (0j, 0.12), (0.0, 0.12 + 0j), (-0.0, 0.12), (0.0, 0.12j)]
    for p, q in nomes:
        nm = Nomes(p, q)
        value = elliptic_gamma(u, nm)
        assert bits(value) == bits(direct(lambda x: elliptic_gamma(x, nm), u))
    assert scalar_memo.cache_info().currsize == 2 + 3
    # the argument by its bits as well: -0.0 is not 0.0
    qpoch_inf(0.0, 0.3)
    qpoch_inf(-0.0, 0.3)
    assert scalar_memo.cache_info().currsize == 2 + 3 + 2


def test_scalar_memo_stores_no_error(scalar_memo):
    nm = Nomes(0.05, 0.12)
    pole = (1.0 + 1e-14) / (nm.p * nm.q**2)
    # 1/Gamma has a value there, near its zero ...
    elliptic_gamma_recip(pole, nm)
    held = scalar_memo.cache_info().currsize
    for _ in range(3):
        # ... which does not stand in for Gamma, which raises every time
        with pytest.raises(PoleProximityError) as info:
            elliptic_gamma(pole, nm)
        assert (info.value.mu, info.value.nu) == (1, 2)
        assert scalar_memo.cache_info().currsize == held
    # nor does a series past the cap: at beta = sqrt(0.9) K exceeds 512
    for _ in range(3):
        with pytest.raises(TruncationError):
            elliptic_gamma(0.9, UNCERTIFIED)
        assert scalar_memo.cache_info().currsize == held


def test_scalar_memo_holds_at_most_its_bound(scalar_memo, scalar_products):
    us = [0.3 + 0.001 * k for k in range(3 * qseries._SCALAR_ENTRIES)]
    for u in us:
        qpoch_inf(u, 0.2)
    assert len(scalar_products) == len(us)
    # the most recent values are held, the oldest evaluated again
    formed = len(scalar_products)
    qpoch_inf(us[-1], 0.2)
    assert len(scalar_products) == formed
    qpoch_inf(us[0], 0.2)
    assert len(scalar_products) == formed + 1
    assert qseries._scalar.cache_info().currsize == qseries._SCALAR_ENTRIES


def test_cn_recurrence_forms_each_scalar_product_once(scalar_products):
    # a memo that is bypassed would pass every numeric test; here it shows
    # as repeated evaluations (c_n and c_(n-1) share all but one Gamma factor)
    for n in range(1, 6):
        cn_recurrence_check(n, 0.42 + 0.05j, Nomes(0.05, 0.12))
    assert scalar_products
    assert len(scalar_products) == len(set(scalar_products))


def test_ring_cache_hit_is_the_cold_ring():
    # the ring of a nome pair (its reduction and its series' coefficients)
    # is held once computed; a held one is the one computed afresh
    p, q = 0.05 + 0.02j, 0.12
    key = (struct.pack("4d", p.real, p.imag, q, 0.0),)
    qseries._ring.cache_clear()
    cold = qseries._ring(*key)
    warm = qseries._ring(*key)
    assert qseries._ring.cache_info().hits == 1
    again = qseries._ring.__wrapped__(*key)
    assert cold[0] == again[0] and cold[2:5] == again[2:5]
    assert cold[5].tobytes() == again[5].tobytes() and not cold[5].flags.writeable
    assert warm is cold


def test_uncertified_nomes_raise_truncation_error_on_every_call():
    # exceptions are not cached: nomes whose series MAX_TERMS cannot
    # certify raise again instead of returning a stale value
    for _ in range(3):
        with pytest.raises(TruncationError, match="within max_terms=512"):
            elliptic_gamma(0.4 + 0.2j, UNCERTIFIED)


# Reference truncation counts, counted up one term at a time: the single
# products' factor counts (_length) and the series' K (_log_den), which
# bisect or count against held powers, must match them exactly.


def ref_length(bound, c_abs, tail_tol, max_terms):
    tol = tail_tol / max_terms
    length = 0
    while bound * c_abs**length / (1.0 - c_abs) >= tol:
        length += 1
        if length > max_terms:
            raise TruncationError("over max_terms", achieved_bound=0.0)
    return length


def ref_terms(p, q, edge, tail_tol, max_terms):
    tol = tail_tol / max_terms
    D = (1.0 - abs(p)) * (1.0 - abs(q))
    for K in range(1, max_terms + 1):
        if 2.0 * edge ** (K + 1) / (1.0 - edge) / ((K + 1) * D) < tol:
            return K
    raise TruncationError("over max_terms", achieved_bound=0.0)


def count_outcome(count, *args):
    try:
        return count(*args)
    except TruncationError:
        return "TruncationError"


# (TAIL_TOL, MAX_TERMS): the rule, a looser tail and a cap of 8 terms, so
# that the counts are checked away from the one rule's numbers too
TRUNCATION_RULES = ((1e-13, 512), (1e-6, 512), (1e-15, 8))


@pytest.mark.parametrize("rule", TRUNCATION_RULES, ids=["default", "loose", "tight_cap"])
def test_truncation_counts_match_the_reference_counts(rule, truncation_rule):
    assert TRUNCATION_RULES[0] == (qseries.TAIL_TOL, qseries.MAX_TERMS)
    truncation_rule(*rule)
    raised = 0
    for c_abs in (0.0, 1e-3, 0.05, 0.3, 0.7, 0.95):
        base = qseries._based(c_abs * np.exp(0.3j))
        for bound in (0.0, 1e-20, 1e-3, 0.6, 1.0, 3.7, 250.0):
            got = count_outcome(qseries._length, bound, base)
            if c_abs:
                assert got == count_outcome(ref_length, bound, c_abs, *rule), (c_abs, bound)
            else:  # (x; 0)_inf = 1 - x: one factor, none where |x| is below the tolerance
                assert got == int(bound >= rule[0] / rule[1])
            raised += got == "TruncationError"
    for p_abs in (1e-3, 0.05, 0.3, 0.7, 0.95):
        for q_abs in (1e-3, 0.12, 0.5, 0.9):
            p, q = p_abs * np.exp(0.4j), q_abs * np.exp(-1.1j)
            edge = min(p_abs, q_abs) ** 0.5
            got = count_outcome(lambda: len(qseries._log_den(p, q, edge, edge)))
            assert got == count_outcome(ref_terms, p, q, edge, *rule), (p_abs, q_abs)
            raised += got == "TruncationError"
    if rule[1] == 8:
        assert raised  # the sweep reaches the TruncationError cases


def edge_radius(p, q, inner_share, tail_tol, max_terms):
    """The radius r at which max_terms terms just certify the series at outer
    radius r and inner radius inner_share * r: tail(max_terms) = tol there."""
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = (lo + hi) / 2
        try:
            references.series_terms_by_bisection(p, q, mid, inner_share * mid, tail_tol, max_terms)
            lo = mid
        except TruncationError:
            hi = mid
    return lo, hi


@pytest.mark.parametrize("rule", TRUNCATION_RULES, ids=["default", "loose", "tight_cap"])
def test_series_terms_are_the_bisection_count(rule, truncation_rule):
    # _log_den steps from an estimate to the K a bisection over the tail
    # bound finds: at random radii and nomes, and on both sides of the radius
    # where MAX_TERMS terms stop certifying the series
    truncation_rule(*rule)
    rng = np.random.default_rng(17)
    cases = []
    for _ in range(300):
        p, q = rng.uniform(0, 0.95) * np.exp(1j * rng.uniform(0, 6.3)), rng.uniform(0, 0.95)
        outer, inner = rng.uniform(0, 1, 2) ** rng.choice([0.05, 1.0, 8.0])
        cases.append((p, q, float(outer), float(inner)))
    for share in (0.0, 0.3, 1.0):
        lo, hi = edge_radius(0.05, 0.12, share, *rule)
        for r in (lo, hi, lo * (1 - 1e-9), hi * (1 + 1e-9)):
            cases.append((0.05, 0.12, r, share * r))
    cases += [(0.05, 0.12, 1e-300, 0.0), (0.05, 0.0, 0.5, 0.0), (0.0, 0.0, 0.2, 0.1)]
    outcomes = set()
    for p, q, outer, inner in cases:
        got = count_outcome(lambda: len(qseries._log_den(p, q, outer, inner)))
        assert got == count_outcome(references.series_terms_by_bisection, p, q, outer, inner, *rule), \
            (p, q, outer, inner)
        outcomes.add(got if got in ("TruncationError", 1, rule[1]) else "between")
    assert outcomes == {"TruncationError", 1, rule[1], "between"}


def test_held_denominators_are_the_direct_formula_bitwise():
    # the denominators are held per nome pair, by their exact bits, at the
    # power of two at or above K; the first K entries of a held array have
    # the bits of the formula formed afresh at K, for every K
    for p, q in ((0.05, 0.12), (0.05 + 0.02j, 0.12), (0.9, 0.85), (0.015, 0.0), (-0.0, 0.3j)):
        p, q = complex(p), complex(q)
        bits = struct.pack("4d", p.real, p.imag, q.real, q.imag)
        for K in range(1, qseries.MAX_TERMS + 1):
            k = np.arange(1, K + 1)
            direct = k * (1.0 - p**k)
            direct = direct * (1.0 - q**k) if q else direct
            length = 1 << (K - 1).bit_length()
            held = qseries._den(bits, length)
            assert held[:K].tobytes() == direct.tobytes(), (p, q, K)
            assert qseries._den(bits, length) is held and not held.flags.writeable
    # _log_den reads its K entries of the held array
    den = qseries._log_den(0.05 + 0j, 0.12 + 0j, 0.6, 0.01)
    assert den.base is qseries._den(struct.pack("4d", 0.05, 0.0, 0.12, 0.0), 1 << (len(den) - 1).bit_length())
    assert not den.flags.writeable


def test_theta_correction_factor_count_certifies_its_tail():
    # a theta correction d shifts from the ring has its argument within
    # beta |a|^-d, and the factor count planned at that bound certifies the
    # tail there: every argument of the level has its tail below the tolerance
    rng = np.random.default_rng(20)
    tol = qseries.TAIL_TOL / qseries.MAX_TERMS
    for _ in range(40):
        p, q = (complex(m * np.exp(2j * np.pi * rng.uniform())) for m in rng.uniform(0.01, 0.9, 2))
        bits_pq = struct.pack("4d", p.real, p.imag, q.real, q.imag)
        a, base, beta, log_a, _, _ = qseries._ring(bits_pq)
        b_abs = abs(base[0])
        u = np.exp(rng.uniform(np.log(1e-3), np.log(50.0), 64)) * np.exp(2j * np.pi * rng.uniform(size=64))
        m = np.ceil(np.log(np.abs(u) / beta) / log_a)
        w = u * a**m
        outer = np.where(m > 0, w, p * q / w)
        for d in range(1, int(np.abs(m).max()) + 1):
            bound = beta * np.exp(d * log_a)
            x = outer[np.abs(m) >= d] * a**-d
            assert np.all(np.abs(x) <= bound * (1 + 1e-12))
            length = qseries._length(bound, base)
            assert bound * b_abs**length / (1 - b_abs) < tol * (1 + 1e-12)
            assert bound * b_abs ** (length - 1) / (1 - b_abs) >= tol * (1 - 1e-12)


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


# Reference pole scan: every (mu, nu) of a square visited, the first in
# (mu, nu) order within POLE_TOL named; Gamma's scan, which meets a pole as
# a zero of a theta correction's factor, must name the same.


def ref_pole_scan(arr, p, q, side=12):
    for mu in range(side):
        for nu in range(side):
            d = np.abs(1.0 - p**mu * q**nu * arr)
            j = int(np.argmin(d))
            if d[j] < qseries.POLE_TOL:
                return (complex(arr[j]), mu, nu)
    return None


def pole_outcome(arr, p, q):
    try:
        elliptic_gamma(arr, Nomes(p, q))
    except PoleProximityError as exc:
        return (exc.u, exc.mu, exc.nu)
    return None


def scan_both(arr, p, q):
    got = pole_outcome(arr, p, q)
    assert got == ref_pole_scan(arr, p, q)
    return got


SCAN_NOMES = (0.05 + 0.02j, 0.12 - 0.03j)


@pytest.mark.parametrize("mu", [0, 1, 2])
@pytest.mark.parametrize("nu", [0, 1, 3])
def test_pole_error_names_the_pole_of_the_reference_scan(mu, nu):
    p, q = SCAN_NOMES
    pole = (1.0 + 1e-14) / (p**mu * q**nu)
    for arr in (
        np.array([pole]),
        np.array([0.3 + 0.2j, pole, 2.0 - 1.0j]),
        np.array([1e-4, pole]),
        np.array([pole, 1e4 + 0j]),
    ):
        assert scan_both(arr, *SCAN_NOMES) == (pole, mu, nu)
        # the nomes swapped: the other nome leads the reduction, and (mu, nu) swap
        assert scan_both(arr, q, p) == (pole, nu, mu)


def test_no_pole_error_inside_the_unit_circle():
    p, q = SCAN_NOMES
    rng = np.random.default_rng(5)
    for top in (0.5, 0.9, 1.0 - 2e-9):
        arr = top * rng.uniform(0, 1, 64) * np.exp(2j * np.pi * rng.uniform(size=64))
        arr[0] = top
        assert scan_both(arr, p, q) is None
        assert scan_both(np.append(arr, 1e-9), p, q) is None


def test_pole_errors_match_the_reference_scan_on_random_arrays():
    p, q = SCAN_NOMES
    rng = np.random.default_rng(9)
    poles = [1.0 / (p**mu * q**nu) for mu in range(3) for nu in range(5)]
    for trial in range(200):
        size = int(rng.integers(1, 6))
        arr = rng.uniform(0.0, 80.0, size) * np.exp(2j * np.pi * rng.uniform(size=size))
        if trial % 2:
            arr[int(rng.integers(size))] = poles[trial % len(poles)] * (1 + 1e-14)
        if trial % 7 == 0:
            arr[0] = 1e-3
        scan_both(arr, p, q)


@pytest.mark.parametrize("f", [elliptic_gamma, elliptic_gamma_recip], ids=["gamma", "recip"])
def test_one_element_gamma_array_has_the_bits_of_a_longer_one(f):
    # two separate one-element products would each be a lone column, which
    # numpy multiplies with other instructions; the paired product is not
    nm = Nomes(0.07 + 0.02j, 0.11)
    for u in random_points((20,), 3):
        pair = np.array([u, u * 1j])  # |u i| = |u|: the same factor counts
        assert f(pair[:1], nm).tobytes() == f(pair, nm)[:1].tobytes()


# nomes of the element checks, each with the range of |u| drawn: small and
# large moduli, complex phases, |p| < |q| and |p| > |q|, one nome zero, and
# nomes whose series keep one or two terms; at (0.9, 0.85) Gamma leaves the
# floats within a few dozen shifts
ELEMENT_NOMES = (
    (Nomes(0.05, 0.12), 1e-4, 40.0),
    (Nomes(0.2 - 0.1j, 0.03 + 0.01j), 1e-4, 40.0),
    (Nomes(0.9, 0.85), 0.2, 3.0),
    (Nomes(0.0, 0.3 - 0.2j), 1e-4, 40.0),
    (Nomes(1e-9, 2e-9), 1e-4, 40.0),
    (Nomes(1e-17, 0.5), 1e-4, 40.0),
)


@pytest.mark.parametrize("nm,lo,hi", ELEMENT_NOMES, ids=lambda x: str(x))
def test_every_element_has_the_bits_it_has_alone(nm, lo, hi):
    # the value of an element never depends on the rest of its array: not on
    # the other elements' shift counts, nor their truncation, nor the length
    rng = np.random.default_rng(17)
    u = np.exp(rng.uniform(np.log(lo), np.log(hi), 300)) * np.exp(2j * np.pi * rng.uniform(size=300))
    evaluators = (
        lambda x: qpoch_inf(x, nm.q),
        lambda x: theta(x, nm.p),
        lambda x: elliptic_gamma(x, nm),
        lambda x: elliptic_gamma_recip(x, nm),
    )
    for f in evaluators:
        whole = f(u)
        assert np.all(np.isfinite(whole))
        for start, stop in ((0, 1), (5, 7), (10, 13), (20, 37), (100, 164)):
            assert f(u[start:stop]).tobytes() == whole[start:stop].tobytes(), (start, stop)
        for i in range(0, 300, 7):
            assert f(u[i : i + 1]).tobytes() == whole[i : i + 1].tobytes()
            assert bits(f(complex(u[i]))) == bits(whole[i])


def outcome(f, u):
    """f(u) as the bits of element 0 of its value, or its error's type and message."""
    try:
        value = f(u)
    except (DomainError, PoleProximityError, TruncationError) as exc:
        return type(exc), str(exc)
    return bits(np.atleast_1d(value)[0])


def test_scalar_has_the_bits_of_its_element_at_random_nomes(scalar_memo):
    # a scalar takes the lone route, an array the array route: at random
    # complex nomes, u reduced by 0 to 3 shifts either way or next to a pole
    # of Gamma or of 1/Gamma, the scalar is element 0 of [u, u i] (|u i| = |u|:
    # the same shift and factor counts), or raises what that array raises
    rng = np.random.default_rng(31)
    for _ in range(200):
        p, q = (complex(m * np.exp(2j * np.pi * rng.uniform())) for m in rng.uniform(0.02, 0.25, 2))
        nm = Nomes(p, q)
        a, beta = ring(nm)
        mu, nu = (int(x) for x in rng.integers(0, 3, 2))
        phases = np.exp(2j * np.pi * rng.uniform(size=7))
        # m shifts: log(|u| / beta) / log(1/|a|) lies in (m - 1, m]
        args = [complex(beta * a ** (rng.uniform(0.05, 0.95) - m) * z) for m, z in zip(range(-3, 4), phases)]
        args += [(1.0 + 1e-14) / (p**mu * q**nu), p ** (mu + 1) * q ** (nu + 1) * (1.0 + 1e-14)]
        evaluators = (
            lambda x: qpoch_inf(x, q),
            lambda x: theta(x, p),
            lambda x: elliptic_gamma(x, nm),
            lambda x: elliptic_gamma_recip(x, nm),
        )
        for f in evaluators:
            for u in args:
                assert outcome(f, u) == outcome(f, np.array([u, u * 1j])), (p, q, u)


def test_blocks_keep_the_bits_and_the_shape(monkeypatch):
    # an array is evaluated in blocks of _BLOCK_ENTRIES // MAX_TERMS
    # elements: three here, so 3 x 7 elements make blocks of 3 and a lone last one
    nm = Nomes(0.07 + 0.02j, 0.11)
    u = random_points((3, 7), 13)
    evaluators = (lambda x: qpoch_inf(x, nm.q), lambda x: theta(x, nm.p),
                  lambda x: elliptic_gamma(x, nm), lambda x: elliptic_gamma_recip(x, nm))
    whole = [f(u) for f in evaluators]
    monkeypatch.setattr(qseries, "_BLOCK_ENTRIES", 3 * qseries.MAX_TERMS)
    for f, want in zip(evaluators, whole):
        got = f(u)
        assert got.shape == u.shape and got.tobytes() == want.tobytes()


def ring(nm):
    """(|a|, beta) of the reduction: a the nome of larger modulus."""
    a, b = sorted((abs(nm.p), abs(nm.q)), reverse=True)
    return a, b**0.5


def oracle_points(nm, rng):
    """|u| in [0.3, 1.5], and u at each ring edge x (1 +- 1e-9) for shift counts -2..2."""
    radii = list(rng.uniform(0.3, 1.5, 6))
    a, beta = ring(nm)
    for m in range(-2, 3):
        outer = beta * a**-m  # the ring of shift count m is [a outer, outer]
        radii += [outer * (1 - 1e-9), a * outer * (1 + 1e-9)]
    return [complex(r * np.exp(2j * np.pi * rng.uniform())) for r in radii]


def oracle_gamma(u, nm, side):
    return complex(oracles.ogamma(u, nm.p, nm.q, side=side))


@pytest.mark.parametrize("seed", range(6))
def test_evaluators_match_the_oracle(seed):
    # random complex nomes and points, and points just inside each edge of
    # the rings of shift counts -2..2, scalar and array, against the mpmath
    # oracle: the independent certificate of the reduction (Gamma(q u) =
    # theta(u; p) Gamma(u) restates it when a = q)
    rng = np.random.default_rng(100 + seed)
    nm = Nomes(*(complex(rng.uniform(0.02, 0.25) * np.exp(2j * np.pi * rng.uniform())) for _ in range(2)))
    us = oracle_points(nm, rng)
    a, beta = ring(nm)
    for m in range(-2, 3):  # the edge points take every shift count
        outer = beta * a**-m
        assert any(a * outer < abs(u) < outer for u in us)
    arr = np.array(us)
    gammas, recips, thetas = elliptic_gamma(arr, nm), elliptic_gamma_recip(arr, nm), theta(arr, nm.p)
    for i, u in enumerate(us):
        # the oracle's square leaves out factors below |u| 0.25^side or |pq/u| 0.25^side
        side = 40 + int(abs(np.log(abs(u))) / np.log(4.0))
        want = oracle_gamma(u, nm, side)
        want_theta = complex(oracles.otheta(u, nm.p, terms=side))
        for got in (gammas[i], elliptic_gamma(u, nm)):
            assert abs(got - want) <= 1e-14 * abs(want), (u, got, want)
        for got in (recips[i], elliptic_gamma_recip(u, nm)):
            assert abs(got * want - 1) <= 1e-14, (u, got, want)
        for got in (thetas[i], theta(u, nm.p)):
            assert abs(got - want_theta) <= 1e-14 * abs(want_theta), (u, got, want_theta)


def test_kernel_series_and_gamma_share_one_formula():
    # the circle tables' series and Gamma's own take their denominators and
    # K from qseries._log_den: the reduced series at a point of its ring is
    # the circle series of that point's circle
    nm = Nomes(0.05 + 0.01j, 0.12)
    a, beta = ring(nm)
    u = 0.9 * beta * np.exp(0.7j)
    coef = qseries._ring(struct.pack("4d", nm.p.real, nm.p.imag, nm.q.real, nm.q.imag))[5]
    k = np.arange(1, len(coef) + 1)
    direct = np.exp(np.sum((u**k - (nm.pq / u) ** k) * coef[:, 0]))
    assert abs(elliptic_gamma(u, nm) - direct) <= 1e-15 * abs(direct)
    den = qseries._log_den(nm.p, nm.q, beta, beta)
    assert np.array_equal(1.0 / den, coef[:, 0])


# Closed forms evaluate their Gamma products as one array call; these are the
# products they replaced, one scalar Gamma per factor.
def scalar_j(params, nomes):
    zero = _dual_of_zero(params.a, params.t, params.n, nomes)
    out = 1.0 + 0.0j
    for i in range(1, params.n + 1):
        ti = params.t ** (i - 1)
        for j in range(6):
            for k in range(j + 1, 6):
                if zero is not None and zero[0] in (j, k):
                    other = params.a[k if zero[0] == j else j]
                    out *= elliptic_gamma_recip(zero[1] / (other * ti), nomes)
                else:
                    out *= elliptic_gamma(params.a[j] * params.a[k] * ti, nomes)
    return out


def scalar_pinch_j(params, nomes):
    a, t, n = params.a, params.t, params.n
    out = 1.0 / (qpoch_inf(nomes.p, nomes.p) * qpoch_inf(nomes.q, nomes.q))
    for i in range(1, n):
        out *= elliptic_gamma(t**i, nomes)
    for i in range(1, n + 1):
        ti = t ** (i - 1)
        for m in range(2, 6):
            out *= elliptic_gamma(a[m] * ti * a[0], nomes)
            out *= elliptic_gamma(a[m] * ti / a[0], nomes)
    for i in range(1, n):
        ti = t ** (i - 1)
        for j in range(2, 6):
            for k in range(j + 1, 6):
                out *= elliptic_gamma(a[j] * a[k] * ti, nomes)
    return out


def scalar_da(a, n, nomes):
    euler = qpoch_inf(nomes.p, nomes.p) * qpoch_inf(nomes.q, nomes.q)
    out = 2.0**n * math.factorial(n) / euler**n
    for j in range(len(a)):
        for k in range(j + 1, len(a)):
            out *= elliptic_gamma(a[j] * a[k], nomes)
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
        got = _da_closed(a, n, CLOSED_NOMES)
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
