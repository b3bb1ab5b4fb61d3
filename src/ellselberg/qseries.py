"""Infinite q-products, theta functions, and the elliptic gamma function.

Conventions (0 <= |p|, |q| < 1 throughout):

    (u; q)_inf        = prod_{k >= 0} (1 - q^k u)
    (u; p, q)_inf     = prod_{mu, nu >= 0} (1 - p^mu q^nu u)
    theta(u; p)       = (u; p)_inf * (p/u; p)_inf
    Gamma(u; p, q)    = (p q / u; p, q)_inf / (u; p, q)_inf

All evaluators accept a complex scalar or a numpy array of complex values for
``u`` (elementwise semantics) and form every product through one entry
point, :func:`_poch`, or for an array Gamma and 1/Gamma :func:`_quotient`:
the plan of the power of two at or above max|u|, the pole scan when the
caller divides by the product, then the scalar or the array product.  They
share one truncation rule: a factor (1 - p^mu q^nu u) is included iff
|p^mu q^nu B| >= tau with B the smallest power of two >= max|u| and
tau = tail_tol / (expected retained term count), and the analytic bound on
sum |p^mu q^nu B| over the excluded indices, which bounds the tail at every
|u| <= B, is certified below tail_tol before a product is formed.  Where
max_terms cannot certify it at B, the plan is that of max|u| itself
(TruncationError when that fails too).  So all products at one nome pair
share a few plans.  Products are evaluated in a fixed (mu outer, nu inner)
order, so results are deterministic.  An array product takes its retained
coefficients p^mu q^nu as one column and multiplies the factors of each
block of columns in one reduction over the factor axis; the reduction
keeps the fixed (mu, nu) order, so every element gets the same bits as a
factor-by-factor loop.  An array Gamma or 1/Gamma forms its two products,
(pq/u; p, q)_inf and (u; p, q)_inf, as one array product over both
arguments under the plan of the larger of their maxima.

A scalar product is held in a functools.lru_cache of at most
_SCALAR_ENTRIES entries, keyed on the exact bits of u, p and q, the
policy's two numbers and whether the pole scan runs; a float nome meets
the products' arithmetic only as complex(x, +0.0), so it shares the
entry of that complex.  A hit returns the value the direct path gave, so
it has the same bits; an error stores nothing.  Closed sides repeat
their products (c_n and c_(n-1) share all but one Gamma factor, C_r and
the boundary ratio share their theta values), and the memo serves those
repeats.  Scalar input is taken as a Python complex: zero checks compare
it and pq/u and p/u divide it, instead of reducing with np.any and
dividing a 0-d array.

Closed forms multiply many Gamma factors; :func:`_gamma_product` evaluates
them as one array call under one plan, which keeps every factor's tail
below tail_tol.  The pole scan visits only factors that can reach 1: none
when max|u| < 1 - 1e-9, and within the retained (mu, nu) range it stops a
row, and then the scan, at the first factor whose |p^mu q^nu| max|u| (the
true maximum, not its power of two) falls below that.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PoleProximityError, TruncationError

# Relative distance below which an argument counts as sitting on a pole.
POLE_TOL = 1e-12

# Column blocks of an array product are sized so that their (factors x
# columns) temporary holds about 8192 complex values (128 KiB).
_BLOCK = 8192

# Scalar products the memo holds (about 400 B each).  One closed_forms pass
# forms 28 680 scalar products from 9852 distinct arguments; 14 982 of the
# 18 828 repeats come within 128 distinct products of their last use, and
# 4096 entries would catch 6 more.
_SCALAR_ENTRIES = 128


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


@dataclass(frozen=True)
class TruncationPolicy:
    """Controls how infinite products are truncated.

    ``tail_tol``: target bound for the neglected tail sum |p^mu q^nu u|.
    ``max_terms``: cap on the retained index range per nome direction.
    """

    tail_tol: float = 1e-13
    max_terms: int = 512

    def __post_init__(self):
        # a tail bound of 1 or more certifies nothing (at inf every product reads 1)
        if not 0 < self.tail_tol < 1:
            raise DomainError(f"tail_tol must lie in (0, 1), got {self.tail_tol}")
        if self.max_terms < 1:
            raise DomainError("max_terms must be at least 1")


DEFAULT_POLICY = TruncationPolicy()


def _rows(u_max: float, p_abs: float, log_q: float | None, tau: float, cap: int) -> list:
    """Retained nu counts of the mu rows with u_max |p|^mu >= tau, at most cap + 1 rows.

    Row mu keeps the nu with u_max |p|^mu |q|^nu >= tau (log_q = log|q|, None at
    q = 0), at most cap + 1 of them.  A kept row has base >= tau, so the
    quotient of the two logarithms is >= 0 and the count is >= 1.
    """
    rows = []
    base = u_max
    top = cap + 1
    while base >= tau and len(rows) < top:
        k = 1 if log_q is None else math.floor(math.log(tau / base) / log_q) + 1
        rows.append(k if k < top else top)
        if p_abs == 0.0:
            break
        base *= p_abs
    return rows


@functools.lru_cache(maxsize=64)
def _plan(p_abs: float, q_abs: float, u_max: float, tail_tol: float, max_terms: int):
    """Retained index ranges for the double product, plus the tail bound.

    Returns (rows, tail) where rows[mu] is the retained nu count for that mu
    (a tuple) and tail bounds sum |p^mu q^nu| * u_max over all excluded
    indices.  Raises TruncationError when max_terms cannot certify
    tail < tail_tol.  Memoised on the exact arguments, 64 of them: the
    policy enters as its two numbers, whose tuple hashes in C, not as the
    dataclass, whose __hash__ runs in Python on every lookup.
    Callers ask for powers of two (_scaled_plan), so one pass at seed 1
    asks for 26 distinct plans on sweep_n1 (1024 hits of 1050 calls), 45
    on the default suite (251 of 296) and 3382 on closed_forms (10 676 of
    14 058): 64 entries keep every hit an unbounded cache gets.
    """
    if u_max == 0.0:
        return (), 0.0
    log_q = math.log(q_abs) if q_abs != 0.0 else None
    tau = tail_tol
    for _ in range(6):
        # Estimated retained count at this tau, then the final tau per the
        # tail_tol / count rule.
        tau_eff = tail_tol / max(sum(_rows(u_max, p_abs, log_q, tau, max_terms)), 1)
        rows = _rows(u_max, p_abs, log_q, tau_eff, max_terms)
        over = len(rows) > max_terms or (rows and rows[0] > max_terms)
        if over:
            rows = [min(k, max_terms) for k in rows[:max_terms]]
        tail = _tail_bound(rows, p_abs, q_abs, u_max)
        if over:
            raise TruncationError(
                f"cannot certify tail < {tail_tol} within max_terms={max_terms}",
                achieved_bound=tail,
            )
        if tail < tail_tol:
            return tuple(rows), tail
        tau = tau_eff / 16.0
    raise TruncationError(
        f"tail bound refinement did not converge (last bound {tail})",
        achieved_bound=tail,
    )


def _scale(u_max: float) -> float:
    """The smallest power of two >= u_max; u_max itself at 0, inf, nan or above 2^1023."""
    m, e = math.frexp(u_max)
    return math.ldexp(1.0, e) if 0.5 < m < 1.0 and e <= 1023 else u_max


def _scaled_plan(p_abs: float, q_abs: float, u_max: float, tail_tol: float, max_terms: int):
    """_plan at _scale(u_max), or at u_max when max_terms cannot certify that one.

    The tail bound grows linearly in its u_max, so rows certified at the
    scale certify every |u| below it.  With the fallback, TruncationError
    comes only where the plan of u_max fails too.
    """
    scale = _scale(u_max)
    try:
        return _plan(p_abs, q_abs, scale, tail_tol, max_terms)
    except TruncationError:
        if scale == u_max:
            raise
        return _plan(p_abs, q_abs, u_max, tail_tol, max_terms)


def _tail_bound(rows, p_abs: float, q_abs: float, u_max: float) -> float:
    """Analytic bound for sum |p^mu q^nu| * u_max over excluded (mu, nu)."""
    geo_q = 1.0 / (1.0 - q_abs)
    tail = 0.0
    base = u_max
    for k in rows:
        if q_abs > 0.0:
            tail += base * q_abs**k * geo_q
        base *= p_abs
    # Rows entirely excluded (mu >= len(rows)).
    if p_abs > 0.0:
        tail += u_max * p_abs ** len(rows) / (1.0 - p_abs) * geo_q
    elif not rows:
        tail += u_max * geo_q
    return tail


# Kept beside _prod_array: with 0-d input sent to _prod_array, closed_forms took wall_s
# 0.671/0.673 s for 0.578/0.615 and setup_s 0.210/0.216 s for 0.163/0.179 (seeds 2/1, 6 s
# runs, 2-core Xeon, numpy 2.4), even with the coefficient columns held in a memo, and 425
# of 3000 random products moved in the last bit.  It is reached only on a miss of the
# scalar memo (_memo_scalar): one closed_forms pass calls it 13 698 times for 28 680
# scalar products.
def _prod_scalar(u: complex, p: complex, q: complex, rows) -> complex:
    acc = 1.0 + 0.0j
    pm = 1.0 + 0.0j
    for k in rows:
        c = pm
        for _ in range(k):
            acc *= 1.0 - c * u
            c *= q
        pm *= p
    return acc


def _coefficients(p: complex, q: complex, rows) -> np.ndarray:
    """The retained p^mu q^nu in (mu, nu) order, by _prod_scalar's recurrence."""
    out = []
    pm = 1.0 + 0.0j
    for k in rows:
        c = pm
        for _ in range(k):
            out.append(c)
            c *= q
        pm *= p
    return np.array(out, dtype=complex)


def _prod_array(u: np.ndarray, p: complex, q: complex, rows) -> np.ndarray:
    c = _coefficients(p, q, rows)[:, None]
    if not len(c):
        return np.ones(u.shape, dtype=complex)
    flat = u.reshape(-1)
    acc = np.empty(flat.shape, dtype=complex)
    # Equal blocks of at least two columns: numpy multiplies a lone column
    # with other instructions than a longer run, which can change the last bit.
    blocks = max(1, flat.size // max(2, _BLOCK // len(c)))
    edges = [flat.size * b // blocks for b in range(blocks + 1)]
    for lo, hi in zip(edges, edges[1:]):
        factors = c * flat[lo:hi]
        np.subtract(1.0, factors, out=factors)
        np.multiply.reduce(factors, axis=0, out=acc[lo:hi])
    return acc.reshape(u.shape)


def _direct(arr: np.ndarray, p: complex, q: complex, policy: TruncationPolicy,
            what: str | None):
    """The product of _poch for an array of at least one dimension."""
    u_max = float(np.abs(arr).max()) if arr.size else 0.0
    rows, _ = _scaled_plan(abs(p), abs(q), u_max, policy.tail_tol, policy.max_terms)
    if what is not None:
        _pole_scan(arr, u_max, p, q, rows, what)
    return _prod_array(arr, p, q, rows)


def _direct_scalar(z: complex, p: complex, q: complex, tail_tol: float, max_terms: int,
                   what: str | None) -> complex:
    """The product of _poch for a Python complex z, without the memo.

    |z| is taken by np.abs, as for an array: Python's abs() can differ in
    the last bit, and u_max selects the plan.
    """
    u_max = float(np.abs(z))
    rows, _ = _scaled_plan(abs(p), abs(q), u_max, tail_tol, max_terms)
    if what is not None:
        _pole_scan(np.array([z]), u_max, p, q, rows, what)
    return _prod_scalar(z, p, q, rows)


def _unpack(bits: bytes):
    """The three complex numbers struct.pack("6d", ...) packed into bits."""
    x = struct.unpack("6d", bits)
    return complex(x[0], x[1]), complex(x[2], x[3]), complex(x[4], x[5])


@functools.lru_cache(maxsize=_SCALAR_ENTRIES)
def _scalar(bits: bytes, tail_tol: float, max_terms: int, what: str | None) -> complex:
    """_direct_scalar of the z, p and q that _memo_scalar packed into bits."""
    return _direct_scalar(*_unpack(bits), tail_tol, max_terms, what)


def _memo_scalar(z: complex, p: complex, q: complex, policy: TruncationPolicy,
                 what: str | None):
    """_direct_scalar(z, ...), from _scalar's cache when held.

    The product reads u only as that complex, so its bits are the key of u.
    A float nome enters the products' arithmetic, Python's and numpy's
    alike, only as complex(x, +0.0), so the bits of p and q are their key
    and no type is.  The policy enters as its two numbers (see _plan).  An
    error stores nothing and is raised again.
    """
    bits = struct.pack("6d", z.real, z.imag, p.real, p.imag, q.real, q.imag)
    return _scalar(bits, policy.tail_tol, policy.max_terms, what)


def _operand(u):
    """u as a complex array, or as a Python complex when it is 0-d.

    A Python complex divides in under 0.1 us, a 0-d array in 0.9 us
    (2-core Xeon, numpy 2.4).
    """
    arr = np.asarray(u, dtype=complex)
    return arr.item() if arr.ndim == 0 else arr


def _poch(u, p: complex, q: complex, policy: TruncationPolicy | None, what: str | None = None):
    """(u; p, q)_inf under the plan of _scale(max|u|), the path of every q-product.

    A scalar u gives a Python complex, an array an array of its shape.  With
    ``what`` (the caller's name, for the message) an argument within
    POLE_TOL of a zero of the product raises PoleProximityError first.  A
    scalar product repeated within the last _SCALAR_ENTRIES distinct ones is
    the held value of the same path, so it has the same bits.
    """
    u = u if type(u) is complex else _operand(u)
    if type(u) is complex:
        return _memo_scalar(u, p, q, policy or DEFAULT_POLICY, what)
    return _direct(u, p, q, policy or DEFAULT_POLICY, what)


def _quotient(top, bottom, nomes: Nomes, policy: TruncationPolicy | None, what: str):
    """(top; p, q)_inf / (bottom; p, q)_inf, scanning bottom for poles as ``what``.

    Scalars take two _poch calls, bottom first.  Arrays of one shape take
    one _prod_array call over both, under the plan of the scale of the
    larger of their maxima; bottom is scanned at its own maximum.

    The shared plan multiplies more factor x point products than a plan per
    side (4.22 M against 3.57 M on one sweep_n1 pass) but is kept, because
    each side truncated on its own loses accuracy in the quotient: planned
    per side, 29 of the default suite's 30 reports moved, its median margin
    against tol fell from 10^7.66 to 10^7.46, and the rank-1 nabla and rank-2
    pinch_limit rel_err rose from 5.4e-16 and 8.5e-16 to 1.7e-14 and 1.1e-14.
    """
    p, q = nomes.p, nomes.q
    if isinstance(bottom, complex):
        den = _poch(bottom, p, q, policy, what)
        return _poch(top, p, q, policy) / den
    args = np.concatenate((top.reshape(-1), bottom.reshape(-1)))
    mags = np.abs(args)
    hi = float(mags.max()) if args.size else 0.0
    policy = policy or DEFAULT_POLICY
    rows, _ = _scaled_plan(abs(p), abs(q), hi, policy.tail_tol, policy.max_terms)
    # below 1 - 1e-9 no factor can reach a pole, and the scan returns at once
    bottom_max = float(mags[top.size:].max()) if hi >= 1.0 - 1e-9 else hi
    _pole_scan(bottom, bottom_max, p, q, rows, what)
    both = _prod_array(args, p, q, rows)
    return (both[: top.size] / both[top.size:]).reshape(top.shape)


def qpoch_inf(u, q: complex, policy: TruncationPolicy | None = None):
    """Single infinite q-Pochhammer product (u; q)_inf.

    Truncated so the certified bound on the neglected tail sum_{k>K} |q^k u|
    stays below the policy's tail_tol.
    """
    if abs(q) >= 1:
        raise DomainError(f"qpoch_inf requires |q| < 1, got {abs(q)}")
    return _poch(u, 0.0, q, policy)


def _has_zero(u) -> bool:
    """Whether u, a Python complex or a complex array, is or holds 0.

    A Python complex compares in about 0.1 us, and an array's all() takes
    1.7 us at 256 points where np.any(u == 0) takes 4.9 us (2-core Xeon,
    numpy 2.4).
    """
    if type(u) is complex:
        return u == 0
    return not u.all()


def theta(u, p: complex, policy: TruncationPolicy | None = None):
    """Multiplicative theta function theta(u; p) = (u; p)_inf (p/u; p)_inf.

    Degenerates to 1 - u at p = 0.  Requires u != 0.
    """
    u = _operand(u)
    if _has_zero(u):
        raise DomainError("theta(u; p) requires u != 0")
    return qpoch_inf(u, p, policy) * qpoch_inf(p / u, p, policy)


def _pole_scan(arr: np.ndarray, hi: float, p: complex, q: complex, rows, what: str):
    """Raise PoleProximityError if any element of arr has p^mu q^nu * arr near 1.

    hi is max|arr|.  |p^mu q^nu| falls along a row and down the rows, so a
    row ends at its first factor with |p^mu q^nu| hi < 1 - 1e-9 and the scan
    at the first row whose nu = 0 factor does; below hi = 1 - 1e-9 no factor
    can reach a pole.
    """
    if not arr.size or hi < 1.0 - 1e-9:
        return
    lo = float(np.min(np.abs(arr)))
    pm = 1.0 + 0.0j
    for mu, k in enumerate(rows):
        if abs(pm) * hi < 1.0 - 1e-9:
            return
        c = pm
        for nu in range(k):
            ca = abs(c)
            if ca * hi < 1.0 - 1e-9:
                break
            if lo == 0.0 or ca * lo <= 1.0 + 1e-9:
                d = np.abs(1.0 - c * arr)
                j = int(np.argmin(d))
                if d.flat[j] < POLE_TOL:
                    bad = complex(arr.flat[j])
                    raise PoleProximityError(
                        f"{what}: argument {bad} within {POLE_TOL} (relative) of pole "
                        f"p^-{mu} q^-{nu}",
                        u=bad,
                        mu=mu,
                        nu=nu,
                    )
            c *= q
        pm *= p


def elliptic_gamma(u, nomes: Nomes, policy: TruncationPolicy | None = None):
    """Elliptic gamma function Gamma(u; p, q) = (pq/u; p, q)_inf / (u; p, q)_inf.

    Poles sit at u = p^-mu q^-nu (mu, nu >= 0); arguments within POLE_TOL
    (relative) of a pole raise PoleProximityError.  At p = 0 this degenerates
    to 1 / (u; q)_inf.
    """
    u = _operand(u)
    pq = nomes.pq
    if not _has_zero(u):
        num_arg = pq / u
    elif pq != 0:
        raise DomainError("elliptic_gamma requires u != 0 unless p*q = 0")
    elif type(u) is complex:
        # Gamma(0; p, q) with pq = 0 is 1/(0; .)_inf = 1; avoid 0/0 in pq/u.
        num_arg = 0j
    else:
        num_arg = np.zeros_like(u)
        nz = u != 0
        num_arg[nz] = pq / u[nz]
    return _quotient(num_arg, u, nomes, policy, "elliptic_gamma")


def elliptic_gamma_recip(u, nomes: Nomes, policy: TruncationPolicy | None = None):
    """1 / Gamma(u; p, q), safe at the poles of Gamma (where it is simply 0).

    Raises PoleProximityError only near the zeros of Gamma, i.e. near
    u = p^(mu+1) q^(nu+1), which are the poles of the reciprocal.
    """
    u = _operand(u)
    if _has_zero(u):
        raise DomainError("elliptic_gamma_recip requires u != 0")
    return _quotient(u, nomes.pq / u, nomes, policy, "elliptic_gamma_recip")


def theta_pm(a: complex, z, p: complex, policy: TruncationPolicy | None = None):
    """Double-sign theta product theta(a z^{+-1}; p) = theta(az; p) theta(a/z; p)."""
    return theta(a * z, p, policy) * theta(a / z, p, policy)


def _gamma_product(args, nomes: Nomes, policy: TruncationPolicy | None = None,
                   recip: bool = False) -> complex:
    """prod Gamma(u) over the list args (1/Gamma(u) with ``recip``).

    One array call, so one product under one truncation plan (that of the
    power of two at or above the largest |u| and |pq/u|, so every factor's
    tail stays below tail_tol), multiplied in list order.
    """
    values = (elliptic_gamma_recip if recip else elliptic_gamma)(
        np.array(args, dtype=complex), nomes, policy
    )
    out = 1.0 + 0.0j
    for v in values.tolist():
        out *= v
    return out


def _euler_pair(nomes: Nomes, policy: TruncationPolicy | None = None) -> complex:
    """(p; p)_inf (q; q)_inf."""
    return qpoch_inf(nomes.p, nomes.p, policy) * qpoch_inf(nomes.q, nomes.q, policy)
