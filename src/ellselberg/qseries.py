"""Infinite q-products, theta functions, and the elliptic gamma function.

Conventions (0 <= |p|, |q| < 1 throughout):

    (u; q)_inf        = prod_{k >= 0} (1 - q^k u)
    theta(u; p)       = (u; p)_inf * (p/u; p)_inf
    Gamma(u; p, q)    = prod_{mu, nu >= 0} (1 - p^(mu+1) q^(nu+1) / u) / (1 - p^mu q^nu u)

All evaluators accept a complex scalar or a numpy array of complex values for
``u`` (elementwise semantics).  Every element's value depends on that
element and the nomes alone, never on the rest of its array:
the arithmetic runs along columns of one element each, which numpy
evaluates with the same instructions at any array length (see _product).
So an array is evaluated in blocks of elements, which bounds its
temporaries.  A scalar of Gamma, 1/Gamma or theta takes a lone route: the
numpy calls the array route makes on a one-element array, on the same one-
and two-element operands (an operand formed in Python arithmetic would move
the last bit), with the shift count, the branches, the factor counts and
the finiteness test in Python.  (u; q)_inf, and the scalars whose errors
the array route raises (u = 0, a non-finite u, pq = 0 for Gamma), are
evaluated as a one-element array.  Either way a scalar has the bits its
element has in any array.  Its value, a Python complex, is held in a memo
of the last _SCALAR_ENTRIES scalar values.

There is one truncation rule, with no knob: every truncated sum is
certified below TAIL_TOL / MAX_TERMS (about 2e-16, the double precision the
harness computes in), and TruncationError raised where more than MAX_TERMS
terms would be needed.  A single product (x; c)_inf keeps the factors k
with |c^k| |x| at least TAIL_TOL / MAX_TERMS * (1 - |c|) (_base).

Gamma is evaluated one way, never as a double product.  Let a be the nome
of larger modulus and b the other.  Gamma(a w) = theta(w; b) Gamma(w), so u
is shifted by powers of a into the ring |a| beta <= |w| <= beta with
beta = sqrt|b|, each shift multiplying or dividing by one theta(.; b).  In
that ring |w| and |pq/w| are both at most beta, and

    log Gamma(w; p, q) = sum_{k>=1} (w^k - (pq/w)^k) / (k (1 - p^k)(1 - q^k))

(Felder and Varchenko, Adv. Math. 156 (2000)) is summed to the K that
_log_den certifies at beta, so K depends on p and q alone; the
lattice kernels take their series from _log_den too.  At pq = 0,
Gamma = 1/(u; a)_inf.

The poles of Gamma, u = p^-mu q^-nu, are zeros of the factors
(1 - b^k a^j u) of the theta corrections Gamma divides by, and those of
1/Gamma, the zeros u = p^(mu+1) q^(nu+1) of Gamma, zeros of the factors
(1 - b^(k+1) a^(j+1) / u) of the corrections 1/Gamma divides by.  A factor
of a divisor within POLE_TOL of 0 raises PoleProximityError naming
(mu, nu); the ring holds no pole or zero.  Every product is formed with
numpy's overflow warnings off and checked: one that leaves the double range,
as Gamma's corrections far from the ring (|Gamma(1e-4 e^i; 0.9, 0.85)| is
about 1e3011) and single products far from the unit circle do, raises
DomainError naming the argument.
"""

from __future__ import annotations

import cmath
import functools
import math
import struct
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PoleProximityError, TruncationError

# Relative distance below which an argument counts as sitting on a pole.
POLE_TOL = 1e-12

# The truncation rule: TAIL_TOL / MAX_TERMS bounds the neglected tail of
# every truncated sum (the factors |c^k x| a single product (x; c)_inf
# leaves out, and the terms a Laurent series of log Gamma or log theta
# leaves out), and MAX_TERMS caps the factors of a single product and the
# terms K of a series; TruncationError where the bound needs more.
TAIL_TOL = 1e-13
MAX_TERMS = 512

# Scalar values the memo holds.  One pass of each benchmark workload at
# seed 1, replayed against an unbounded memo, misses no more at 64 entries:
# suite 71 misses in 231 calls, sweep_n1 234 in 712, closed_forms 2 885 in
# 8 760 (it needs 8 entries; suite and sweep_n1 miss 75 and 250 at 16).
_SCALAR_ENTRIES = 64

# (row, column) entries of one block of an array's evaluation: a block of
# _BLOCK_ENTRIES // MAX_TERMS elements keeps every temporary, at most
# MAX_TERMS rows of two columns per element, within 2 * _BLOCK_ENTRIES
# complex values (16 MiB).
_BLOCK_ENTRIES = 2**19


@dataclass(frozen=True)
class Nomes:
    """The pair of elliptic nomes (p, q) with |p| < 1 and |q| < 1, held as complex.

    Either nome may be exactly zero (trigonometric/degenerate limits).
    """

    p: complex
    q: complex

    def __post_init__(self):
        # written so that nan fails it
        if not (abs(self.p) < 1 and abs(self.q) < 1):
            raise DomainError(
                f"nomes must satisfy |p| < 1 and |q| < 1, got |p|={abs(self.p)}, |q|={abs(self.q)}"
            )
        object.__setattr__(self, "p", complex(self.p))
        object.__setattr__(self, "q", complex(self.q))

    @property
    def pq(self) -> complex:
        return self.p * self.q


def _log_den(p: complex, q: complex, outer: float, inner: float) -> np.ndarray:
    """The denominators k (1 - p^k)(1 - q^k), k = 1..K, of the Laurent series

        log Gamma(u; p, q) = sum_{k>=1} (u^k - (pq/u)^k) / (k (1 - p^k)(1 - q^k)),
        log theta(u; p)    = -sum_{k>=1} (u^k + (p/u)^k) / (k (1 - p^k))  (q = 0),

    at |u| <= outer < 1 and |pq/u| (|p/u|) <= inner < 1, read-only and
    held (_den).  With |1 - p^k| >= 1 - |p|, the terms beyond K sum to at
    most (outer^(K+1)/(1 - outer) + inner^(K+1)/(1 - inner)) / ((K + 1) D),
    D = (1 - |p|)(1 - |q|), and K is the smallest with that below
    TAIL_TOL / MAX_TERMS; TruncationError where that K exceeds MAX_TERMS.
    The bound below TAIL_TOL / K certifies the same rings (the two agree at
    K = MAX_TERMS), but lets the truncation error reach 3e-14 at K = 3,
    where this rule keeps it under 2e-16.
    """
    D = (1.0 - abs(p)) * (1.0 - abs(q))

    def tail(K):
        return (outer ** (K + 1) / (1.0 - outer) + inner ** (K + 1) / (1.0 - inner)) / ((K + 1) * D)

    # The tail falls with K, and lies between g(K) = r^(K+1) / ((1 - r)(K + 1) D)
    # of the larger radius r and 2 g(K): start where g(K) = tol, two
    # fixed-point steps from g(K) (K + 1) = tol, then step to the smallest K
    # that certifies
    tol, r, K = TAIL_TOL / MAX_TERMS, max(outer, inner), 1
    if 0.0 < r < 1.0:
        for _ in range(2):
            K = math.log(tol * (1.0 - r) * D * (K + 1)) / math.log(r) - 1.0
        K = min(max(int(K), 1), MAX_TERMS)
    while K > 1 and tail(K - 1) < tol:
        K -= 1
    while not tail(K) < tol:
        if K >= MAX_TERMS:
            raise TruncationError(
                f"cannot certify the series tail < {tol} within max_terms={MAX_TERMS}",
                achieved_bound=tail(MAX_TERMS),
            )
        K += 1
    # held at the power of two at or above K, and read as its first K entries
    return _den(struct.pack("4d", p.real, p.imag, q.real, q.imag), 1 << (K - 1).bit_length())[:K]


# Denominator arrays held, per nome pair and power-of-two length.  One pass
# of each benchmark workload at seed 1, replayed against an unbounded cache,
# misses no more at 16 entries: suite 25 misses in 138 calls (23 unbounded),
# sweep_n1 16 in 462, closed_forms 601 in 601 (one per _ring miss).  Held
# per K instead, sweep_n1 asks for 77 lengths at one nome pair.
@functools.lru_cache(maxsize=16)
def _den(bits: bytes, K: int) -> np.ndarray:
    """k (1 - p^k)(1 - q^k), k = 1..K, at the p and q in bits (four doubles),
    read-only: (1 - p^k) alone at q = 0.  Each entry is formed from its own
    k alone, so the first K' entries have the bits of the array formed at K'."""
    pr, pi, qr, qi = struct.unpack("4d", bits)
    p, q = complex(pr, pi), complex(qr, qi)
    k = np.arange(1, K + 1)
    den = k * (1.0 - p**k)
    den = den * (1.0 - q**k) if q else den
    den.flags.writeable = False
    return den


# A miss forms MAX_TERMS powers (17 us on a 2-core Xeon); a hit takes
# 0.7 us.  One pass of each benchmark workload at seed 1, replayed against
# an unbounded cache, misses no more at 4 entries: suite 5 misses in 79
# calls, sweep_n1 3 in 227, closed_forms 913 in 1 503 (914 at one entry).
@functools.lru_cache(maxsize=4)
def _base(bits: bytes):
    """(c, the column of c^k, that of -|c^k|, the factor threshold) of the c in bits.

    The powers, k = 0..MAX_TERMS, are formed by repeated multiplication and
    held read-only.  Factor k of (x; c)_inf is kept where |c^k| reaches
    threshold / |x|, the threshold being TAIL_TOL / MAX_TERMS * (1 - |c|),
    so the tail past the last kept one is |x| |c|^L / (1 - |c|) <
    TAIL_TOL / MAX_TERMS.
    """
    c = complex(*struct.unpack("2d", bits))
    powers = np.full((MAX_TERMS + 1, 1), c)
    powers[0] = 1.0
    powers = np.cumprod(powers, axis=0)
    negated = -np.abs(powers)
    powers.flags.writeable = negated.flags.writeable = False
    return c, powers, negated, TAIL_TOL / MAX_TERMS * (1.0 - abs(c))


def _based(c: complex):
    """_base of c, c by its bits."""
    return _base(struct.pack("2d", c.real, c.imag))


def _length(bound: float, base) -> int:
    """The factors (x; c)_inf keeps at |x| = bound, by the _base rule.

    TruncationError where it would keep more than MAX_TERMS.
    """
    _, _, negated, tol = base
    # |c^k| falls with k: the kept factors are those before the first below tol / bound
    length = int(negated[:, 0].searchsorted(-(tol / bound), side="right")) if bound else 0
    if length == len(negated):
        c_abs, last = -float(negated[1, 0]), -float(negated[-1, 0])
        raise TruncationError(
            f"cannot certify the tail of (x; c)_inf < {tol / (1.0 - c_abs)} "
            f"within max_terms={len(negated) - 1}",
            achieved_bound=bound * last / (1.0 - c_abs),
        )
    return length


def _single(x: np.ndarray, base) -> np.ndarray:
    """The factors 1 - c^k x of (x; c)_inf, row k, one column per element of x.

    Column i keeps the factors its own |x_i| needs and is padded with exact
    ones to the longest.  A lone element gets a second column, of x = 0
    (see _product), which the caller drops.
    """
    _, powers, negated, tol = base
    lone = len(x) == 1
    if lone:
        x = np.append(x, 0.0)
    mags = np.abs(x)
    rows = _rows(x, powers[: _length(float(mags.max()), base) if len(x) else 0])
    if not lone:
        with np.errstate(divide="ignore"):  # x = 0 keeps no factor: tol / 0 = inf
            rows[negated[: len(rows)] > -(tol / mags)] = 1.0
    return rows


def _rows(x: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """1 - c^k x for the column of c^k in powers, row k, one column per element of x."""
    rows = powers * x
    return np.subtract(1.0, rows, out=rows)


def _product(rows: np.ndarray) -> np.ndarray:
    """The product of each column of the C-ordered rows, at least two of them.

    numpy reduces two or more columns over the factor axis in factor order,
    as a loop over the factors would, so each column gets the bits of its
    own factors, whatever the others; one column it reduces, and multiplies
    by a broadcast operand, with other instructions.
    """
    return np.multiply.reduce(rows, axis=0)


def _powers(x: np.ndarray, K: int) -> np.ndarray:
    """x^k in row k - 1, k = 1..K, one column per element of x (at least two).

    Rows j..2j-1 are rows 0..j-1 times row j - 1 (x^j): log2 K products,
    each column by its own elements alone.
    """
    out = np.empty((K, len(x)), dtype=complex)
    out[0] = x
    j = 1
    while j < K:
        h = min(j, K - j)
        np.multiply(out[:h], out[j - 1], out=out[j : j + h])
        j += h
    return out


def _in_range(values, args, what: str, parts: str = "its value passes"):
    """values, or DomainError naming the first of args whose column of
    values (one row, or one per row) is not finite: it left the double range."""
    ok = np.isfinite(values)
    if not ok.all():
        bad = complex(args[np.argmin(ok.reshape(-1, len(args)).all(axis=0))])
        raise DomainError(f"{what}: argument {bad} is outside the double range: "
                          f"{parts} {sys.float_info.max:.4g}")
    return values


def _pole(rows, args, fixed, base_is_p: bool, what: str):
    """PoleProximityError for the factor of rows nearest 0, if within POLE_TOL.

    Factor k of column i is that of the pole with index k along the single
    product's base and fixed[i] along the other nome, at the argument args[i].
    """
    d = np.abs(rows)
    if not d.size or d.min() >= POLE_TOL:
        return
    k, i = np.unravel_index(int(np.argmin(d)), d.shape)
    bad = complex(args[i])
    mu, nu = (int(k), int(fixed[i])) if base_is_p else (int(fixed[i]), int(k))
    raise PoleProximityError(
        f"{what}: argument {bad} within {POLE_TOL} (relative) of pole p^-{mu} q^-{nu}",
        u=bad,
        mu=mu,
        nu=nu,
    )


# A miss bisects for K and takes _base of b (22 us on a 2-core Xeon); a hit
# takes 0.4 us.  One pass of each benchmark workload at seed 1, replayed
# against an unbounded cache, misses no more at 4 entries: suite 1 miss in
# 26 calls, sweep_n1 1 in 90, closed_forms 601 in 3 906 (1 263 of those
# calls are _shift_length misses).
@functools.lru_cache(maxsize=4)
def _ring(bits: bytes):
    """(a, _base of b, beta, log(1/|a|), whether b is p, the series' coefficients).

    bits packs p and q (pq != 0) as four doubles: Nomes holds them as
    complex, so their bits are the key.  The coefficients 1/den_k of
    _log_den are a read-only column.
    """
    pr, pi, qr, qi = struct.unpack("4d", bits)
    p, q = complex(pr, pi), complex(qr, qi)
    b_is_p = abs(p) < abs(q)
    a, b = (q, p) if b_is_p else (p, q)
    beta = math.sqrt(abs(b))
    inv = 1.0 / _log_den(p, q, beta, beta)[:, None]
    inv.flags.writeable = False
    return a, _based(b), beta, -math.log(abs(a)), b_is_p, inv


# A miss reads _ring and searches _base's column of b (1.0 us on a 2-core
# Xeon); a hit takes 0.1 us.  One pass of each benchmark workload at seed 1,
# replayed against an unbounded cache, misses no more at 4 entries: suite 2
# misses in 46 calls, sweep_n1 2 in 176, closed_forms 1 263 in 3 994 (1 460
# at two entries).
@functools.lru_cache(maxsize=4)
def _shift_length(bits: bytes, d: int) -> int:
    """The factors a theta correction d shifts from the ring keeps, at the
    nomes in bits (as _ring's): those of (x; b)_inf at |x| = beta |a|^-d,
    by the _base rule; at d = 0, those of (b/x; b)_inf at |b/x| <= beta."""
    _, base, beta, log_a, _, _ = _ring(bits)
    return _length(beta * math.exp(d * log_a), base)


def _reduced(u: np.ndarray, m: np.ndarray, a: complex, pq: complex, coef: np.ndarray, recip: bool):
    """(w = a^m u, v = pq/w, the series' Gamma(w), or 1/Gamma(w) with ``recip``)."""
    w = u * a**m
    v = pq / w
    n = len(u)
    terms = _powers(np.concatenate((w, v)), len(coef))
    terms *= coef
    sums = terms.sum(axis=0)
    return w, v, np.exp(sums[n:] - sums[:n] if recip else sums[:n] - sums[n:])


def _correction(x: np.ndarray, b: complex, powers: np.ndarray, small: int) -> np.ndarray:
    """The factors of (x; b)_inf and of (b/x; b)_inf, columns x then b/x;
    those of b/x past row ``small`` are exact ones."""
    rows = _rows(np.concatenate((x, b / x)), powers)
    rows[small:, len(x) :] = 1.0
    return rows


def _gamma(u: np.ndarray, p: complex, q: complex, recip: bool = False) -> np.ndarray:
    """Gamma(u; p, q), or 1/Gamma with ``recip``, for the 1-D array u."""
    what = "elliptic_gamma_recip" if recip else "elliptic_gamma"
    pq = p * q
    if pq == 0:
        if recip and not u.all():
            raise DomainError("elliptic_gamma_recip requires u != 0")
        rows = _single(u, _based(q if p == 0 else p))
        if not recip:
            _pole(rows[:, : len(u)], u, np.zeros(len(u), dtype=int), p != 0, what)
        with np.errstate(over="ignore", invalid="ignore"):
            value = _in_range(_product(rows)[: len(u)], u, what, "its single product passes")
        return value if recip else 1.0 / value
    if not u.all():
        raise DomainError(f"{what} requires u != 0" + ("" if recip else " unless p*q = 0"))
    bits = struct.pack("4d", p.real, p.imag, q.real, q.imag)
    a, base, beta, log_a, b_is_p, coef = _ring(bits)
    # w = a^m u lies in the ring |a| beta <= |w| <= beta, and so does v = pq/w
    m = np.ceil(np.log(np.abs(u) / beta) / log_a)
    shifts = np.abs(m)
    top = float(shifts.max()) if len(u) else 0.0
    if not math.isfinite(top):  # |u| is inf or nan: no shift reaches the ring
        raise TruncationError(f"{what}: cannot certify the tail at a non-finite argument",
                              achieved_bound=math.inf)
    w, v, value = _reduced(u, m, a, pq, coef, recip)
    if not top:
        return value
    # Gamma(u) = Gamma(w) prod_{d=1}^{-m} theta(v a^-d; b) / prod_{d=1}^{m} theta(w a^-d; b):
    # (x; b)_inf of x = w a^-d vanishes at Gamma's poles, of x = v a^-d at its zeros
    outer = np.where(m > 0, w, v)
    divides = (m < 0) if recip else (m > 0)
    b, powers = base[0], base[1]
    small = _shift_length(bits, 0)
    every = int(shifts.min())
    thetas = np.ones(len(u), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for d in range(1, int(top) + 1):
            at = slice(None) if d <= every else shifts >= d
            x = outer[at] * a**-d
            rows = _correction(x, b, powers[: _shift_length(bits, d)], small)
            hit = divides[at]
            if hit.any():
                near = rows[:, : len(x)] if hit.all() else rows[:, : len(x)][:, hit]
                if np.abs(near).min() < POLE_TOL:
                    _pole(near, (pq / u if recip else u)[at][hit], (shifts - d)[at][hit], b_is_p, what)
            values = _product(rows)
            thetas[at] = thetas[at] * (values[: len(x)] * values[len(x) :])
        out = np.divide(value, thetas, out=value * thetas, where=divides)
    # thetas too: past the range they can divide the value down to a finite 0
    _in_range((thetas, out), u, what, "its theta corrections or its value pass")
    return out


# The lone route's thetas before the first correction, as _gamma's: 1 * t
# is formed, not skipped, because it need not have t's bits (signed zeros).
_ONE = np.ones(1, dtype=complex)
_ONE.flags.writeable = False


def _lone_gamma(u: complex, p: complex, q: complex, recip: bool) -> complex:
    """_gamma at the one finite u != 0 (pq != 0), as a Python complex.

    Every value is formed by the numpy calls _gamma makes on a one-element
    array, on the same one- and two-element operands, so it has their bits;
    the shift count, the branches, the factor counts and the finiteness
    test are Python's.
    """
    what = "elliptic_gamma_recip" if recip else "elliptic_gamma"
    bits = struct.pack("4d", p.real, p.imag, q.real, q.imag)
    a, base, beta, log_a, b_is_p, coef = _ring(bits)
    arg = np.array([u])
    m = np.ceil(np.log(np.abs(arg) / beta) / log_a)
    k = m.item()
    if not math.isfinite(k):  # |u| / beta overflows: _gamma raises its error
        return _gamma(arg, p, q, recip).item()
    pq = p * q
    w, v, value = _reduced(arg, m, a, pq, coef, recip)
    if not k:
        return value.item()
    outer = w if k > 0 else v
    divides = k < 0 if recip else k > 0
    b, powers = base[0], base[1]
    small = _shift_length(bits, 0)
    thetas = _ONE
    with np.errstate(over="ignore", invalid="ignore"):
        for d in range(1, int(abs(k)) + 1):
            rows = _correction(outer * a**-d, b, powers[: _shift_length(bits, d)], small)
            if divides and np.abs(rows[:, :1]).min() < POLE_TOL:
                _pole(rows[:, :1], pq / arg if recip else arg, (abs(k) - d,), b_is_p, what)
            values = _product(rows)
            thetas = thetas * (values[:1] * values[1:])
        out = value / thetas if divides else value * thetas
    if not (cmath.isfinite(thetas.item()) and cmath.isfinite(out.item())):
        _in_range((thetas, out), arg, what, "its theta corrections or its value pass")
    return out.item()


def _recip(u: np.ndarray, p: complex, q: complex) -> np.ndarray:
    return _gamma(u, p, q, recip=True)


@np.errstate(over="ignore", invalid="ignore")
def _theta(u: np.ndarray, p: complex, _) -> np.ndarray:
    """theta(u; p) for the 1-D array u (the third argument is unused)."""
    if not u.all():
        raise DomainError("theta(u; p) requires u != 0")
    values = _product(_single(np.concatenate((u, p / u)), _based(p)))
    return _in_range(values[: len(u)] * values[len(u) :], u, "theta")


@np.errstate(over="ignore", invalid="ignore")
def _lone_theta(u: complex, p: complex) -> complex:
    """_theta at the one finite u != 0 (p finite), as a Python complex, by
    _theta's numpy calls on the same operands, so with its bits: the column
    of the smaller of |u| and |p/u| keeps its own factors, as _single keeps
    them, counted by _length instead of masked."""
    base = _based(p)
    arg = np.array([u])
    x = np.concatenate((arg, p / arg))
    near, far = np.abs(x).tolist()
    rows = _rows(x, base[1][: _length(max(near, far), base)])
    rows[_length(min(near, far), base) :, int(far < near)] = 1.0
    values = _product(rows)
    value = values[:1] * values[1:]
    if not cmath.isfinite(value.item()):
        _in_range(value, arg, "theta")
    return value.item()


@np.errstate(over="ignore", invalid="ignore")
def _qpoch(u: np.ndarray, _, q: complex) -> np.ndarray:
    """(u; q)_inf for the 1-D array u (the second argument is unused)."""
    return _in_range(_product(_single(u, _based(q)))[: len(u)], u, "qpoch_inf")


def _unpack(bits: bytes):
    """The three complex numbers struct.pack("6d", ...) packed into bits."""
    x = struct.unpack("6d", bits)
    return complex(x[0], x[1]), complex(x[2], x[3]), complex(x[4], x[5])


@functools.lru_cache(maxsize=_SCALAR_ENTRIES)
def _scalar(f, bits: bytes) -> complex:
    """f at the u, p and q packed in bits, as a Python complex.

    Gamma and 1/Gamma at pq != 0 and theta take their lone route at a
    finite u != 0 (and finite p); every other case, and so every error of
    u = 0, a non-finite u or pq = 0, is f's at a one-element array.
    """
    u, p, q = _unpack(bits)
    if u and cmath.isfinite(u) and cmath.isfinite(p):
        if f is _theta:
            return _lone_theta(u, p)
        if f is not _qpoch and p * q:
            return _lone_gamma(u, p, q, f is _recip)
    return f(np.array([u]), p, q).item()


def _evaluate(f, u, p, q):
    """f(u, p, q) in the shape of u, a scalar via _scalar's cache.

    An array is evaluated in blocks of _BLOCK_ENTRIES // MAX_TERMS
    elements.  f reads u, p and q only as complex numbers, so their bits
    are the key (a float nome meets the arithmetic only as complex(x, +0.0)).
    An error stores nothing and is raised again.
    """
    arr = np.asarray(u, dtype=complex)
    if arr.ndim:
        flat = arr.reshape(-1)
        step = max(1, _BLOCK_ENTRIES // MAX_TERMS)
        out = np.empty_like(flat)
        for i in range(0, len(flat), step):
            out[i : i + step] = f(flat[i : i + step], p, q)
        return out.reshape(arr.shape)
    u = arr.item()
    return _scalar(f, struct.pack("6d", u.real, u.imag, p.real, p.imag, q.real, q.imag))


def qpoch_inf(u, q: complex):
    """Single infinite q-Pochhammer product (u; q)_inf.

    Truncated so the certified bound on the neglected tail sum_{k>=L} |q^k u|
    stays below TAIL_TOL / MAX_TERMS.
    """
    if not abs(q) < 1:  # nan fails it too
        raise DomainError(f"qpoch_inf requires |q| < 1, got |q|={abs(q)}")
    return _evaluate(_qpoch, u, 0j, q)


def theta(u, p: complex):
    """Multiplicative theta function theta(u; p) = (u; p)_inf (p/u; p)_inf.

    Degenerates to 1 - u at p = 0.  Requires u != 0 and |p| < 1.
    """
    if not abs(p) < 1:  # nan fails it too
        raise DomainError(f"theta requires |p| < 1, got |p|={abs(p)}")
    return _evaluate(_theta, u, p, 0j)


def elliptic_gamma(u, nomes: Nomes):
    """Elliptic gamma function Gamma(u; p, q).

    Poles sit at u = p^-mu q^-nu (mu, nu >= 0); arguments within POLE_TOL
    (relative) of a pole raise PoleProximityError.  At p = 0 this degenerates
    to 1 / (u; q)_inf.
    """
    return _evaluate(_gamma, u, nomes.p, nomes.q)


def elliptic_gamma_recip(u, nomes: Nomes):
    """1 / Gamma(u; p, q), safe at the poles of Gamma (where it is simply 0).

    Raises PoleProximityError only near the zeros of Gamma, i.e. near
    u = p^(mu+1) q^(nu+1), which are the poles of the reciprocal; the
    error names the argument pq/u, which sits at p^-mu q^-nu.
    """
    return _evaluate(_recip, u, nomes.p, nomes.q)


def theta_pm(a: complex, z, p: complex):
    """Double-sign theta product theta(a z^{+-1}; p) = theta(az; p) theta(a/z; p)."""
    return theta(a * z, p) * theta(a / z, p)


def _gamma_product(args, nomes: Nomes, recip: bool = False) -> complex:
    """prod Gamma(u) over the list args (1/Gamma(u) with ``recip``).

    One array call, multiplied in list order.  Each value is that of its
    argument alone: its series tail and the tails of its theta corrections
    are each below TAIL_TOL / MAX_TERMS.
    """
    values = (elliptic_gamma_recip if recip else elliptic_gamma)(np.array(args, dtype=complex), nomes)
    out = 1.0 + 0.0j
    for v in values.tolist():
        out *= v
    return out


def _euler_pair(nomes: Nomes) -> complex:
    """(p; p)_inf (q; q)_inf."""
    return qpoch_inf(nomes.p, nomes.p) * qpoch_inf(nomes.q, nomes.q)
