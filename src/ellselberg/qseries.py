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
numpy calls the array route makes on a one-element array that form its
value, on the same one- and two-element operands (an operand formed in
Python arithmetic would move the last bit), with the shift count, the
branches, the factor counts, the range guard and the finiteness test in
Python; what a nome pair fixes (a^k, the factor counts and powers of each
shift level, the series' buffer) is held by its _Ring.  (u; q)_inf, and
the scalars whose errors the array route raises (u = 0, a non-finite u,
pq = 0 for Gamma), are evaluated as a one-element array.  Either way a
scalar has the bits its element has in any array.  Its value, a Python
complex, is held in a memo of the last _SCALAR_ENTRIES scalar values.

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
(mu, nu); the ring holds no pole or zero.  Every product is checked, and
formed with numpy's overflow warnings off (on the lone route, only where
a bound from the magnitudes and factor counts lets it pass 1e300:
_range_guard): one that leaves the double range, as Gamma's corrections
far from the ring (|Gamma(1e-4 e^i; 0.9, 0.85)| is about 1e3011) and
single products far from the unit circle do, raises DomainError naming
the argument.
"""

from __future__ import annotations

import cmath
import contextlib
import functools
import math
import struct
import sys

import numpy as np

from .errors import DomainError, PoleProximityError, TruncationError
from .record import Record, _set

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


class Nomes(Record):
    """The pair of elliptic nomes (p, q) with |p| < 1 and |q| < 1, held as complex.

    Either nome may be exactly zero (trigonometric/degenerate limits).
    """

    __slots__ = ("p", "q")

    def __init__(self, p: complex, q: complex):
        # written so that nan fails it
        if not (abs(p) < 1 and abs(q) < 1):
            raise DomainError(f"nomes must satisfy |p| < 1 and |q| < 1, got |p|={abs(p)}, |q|={abs(q)}")
        _set(self, "p", complex(p))
        _set(self, "q", complex(q))

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


class _Base:
    """The powers of one single-product base c, held read-only and formed up
    to the factor counts asked so far (_length).

    The column of c^k, k = 0..rows - 1, is formed by repeated multiplication
    (np.cumprod runs in order), so a shorter column is a prefix of a longer
    one, bit for bit; ``negated`` is -|c^k|, 1-D.  Factor k of
    (x; c)_inf is kept where |c^k| reaches tol / |x|, tol being
    TAIL_TOL / MAX_TERMS * (1 - |c|), so the tail past the last kept one is
    |x| |c|^L / (1 - |c|) < TAIL_TOL / MAX_TERMS.
    """

    __slots__ = ("c", "c_abs", "tol", "powers", "negated")

    def __init__(self, c: complex):
        self.c, self.c_abs = c, abs(c)
        self.tol = TAIL_TOL / MAX_TERMS * (1.0 - self.c_abs)
        self.powers, self.negated = np.empty((0, 1), dtype=complex), np.empty(0)

    def grow(self, edge: float) -> None:
        """Hold more powers for the count at |c^k| >= edge: to one past the
        count log(edge) / log|c| estimates, or to MAX_TERMS where the held
        ones reach that far already; each length a power of two plus one."""
        if not 0.0 < edge:  # a bound of inf or nan: no count certifies its tail
            top = MAX_TERMS
        elif edge >= 1.0 or not self.c_abs:  # at most the factor 1 - x
            top = 1
        else:
            top = min(MAX_TERMS, int(math.log(edge) / math.log(self.c_abs)) + 2)
        if len(self.powers) > top:
            top = MAX_TERMS
        powers = np.full((min(MAX_TERMS, 1 << (top - 1).bit_length()) + 1, 1), self.c)
        powers[0] = 1.0
        powers = np.cumprod(powers, axis=0)
        negated = -np.abs(powers[:, 0])
        powers.flags.writeable = negated.flags.writeable = False
        self.powers, self.negated = powers, negated


# A miss and its first factor count form the powers that count needs
# (9 us on a 2-core Xeon; all MAX_TERMS + 1 of them took 13 us); a hit
# takes 0.7 us.  One pass of each benchmark workload at seed 1, replayed
# against an unbounded cache, misses no more at 4 entries: suite 5 misses
# in 79 calls, sweep_n1 3 in 235, closed_forms 913 in 1 683 (915 at one
# entry).
@functools.lru_cache(maxsize=4)
def _base(bits: bytes) -> _Base:
    """The _Base of the c in bits (two doubles)."""
    return _Base(complex(*struct.unpack("2d", bits)))


def _based(c: complex) -> _Base:
    """_base of c, c by its bits."""
    return _base(struct.pack("2d", c.real, c.imag))


def _length(bound: float, base: _Base) -> int:
    """The factors (x; c)_inf keeps at |x| = bound, by the _Base rule,
    holding more powers (_Base.grow) where the held ones end first.

    TruncationError where it would keep more than MAX_TERMS.
    """
    if not bound:
        return 0
    edge = base.tol / bound
    while True:
        negated = base.negated
        # |c^k| falls with k: the kept factors are those before the first below edge
        length = int(negated.searchsorted(-edge, side="right"))
        if length < len(negated):
            return length
        if len(negated) > MAX_TERMS:
            break
        base.grow(edge)
    c_abs, last = -float(negated[1]), -float(negated[-1])
    raise TruncationError(
        f"cannot certify the tail of (x; c)_inf < {base.tol / (1.0 - c_abs)} "
        f"within max_terms={len(negated) - 1}",
        achieved_bound=bound * last / (1.0 - c_abs),
    )


def _single(x: np.ndarray, base: _Base) -> np.ndarray:
    """The factors 1 - c^k x of (x; c)_inf, row k, one column per element of x.

    Column i keeps the factors its own |x_i| needs and is padded with exact
    ones to the longest.  A lone element gets a second column, of x = 0
    (see _product), which the caller drops.
    """
    lone = len(x) == 1
    if lone:
        x = np.append(x, 0.0)
    mags = np.abs(x)
    length = _length(float(mags.max()), base) if len(x) else 0  # may grow base.powers
    rows = _rows(x, base.powers[:length])
    if not lone:
        with np.errstate(divide="ignore"):  # x = 0 keeps no factor: tol / 0 = inf
            rows[base.negated[: len(rows), None] > -(base.tol / mags)] = 1.0
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


def _doubling(terms: np.ndarray) -> list:
    """The views (low, row, high) of terms by which high = low * row, in
    order, makes row k - 1 the k-th power of row 0, k = 1..len(terms).

    Rows j..2j-1 are rows 0..j-1 times row j - 1 (x^j): log2 K products,
    each column by its own elements alone (at least two columns).
    """
    views = []
    j = 1
    while j < len(terms):
        h = min(j, len(terms) - j)
        views.append((terms[:h], terms[j - 1], terms[j : j + h]))
        j += h
    return views


def _series(terms: np.ndarray, views: list, coef: np.ndarray, recip: bool) -> np.ndarray:
    """The series' Gamma(w), or 1/Gamma(w) with ``recip``, from terms whose
    row 0 holds w then v = pq/w (as many elements each): the powers are
    formed in terms through views (_doubling), weighted by coef and summed."""
    for low, row, high in views:
        np.multiply(low, row, out=high)
    np.multiply(terms, coef, out=terms)
    sums = np.add.reduce(terms, axis=0)
    n = len(sums) // 2
    return np.exp(sums[n:] - sums[:n] if recip else sums[:n] - sums[n:])


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


class _Ring:
    """What Gamma reads at one nome pair (pq != 0), each part formed on first use.

    a, the base of b (_Base), beta, log_a = log(1/|a|), whether b is p, and
    the series' coefficients 1/den_k of _log_den, a read-only column, are
    formed at once.  Held as asked: the shift levels (level) and a^k (shift)
    for each shift count k, and the lone route's series buffer (series),
    which every scalar at the nome pair writes, one call at a time: the
    package runs no threads.
    """

    __slots__ = ("a", "base", "beta", "log_a", "b_is_p", "coef", "_levels", "_shifts", "_terms", "_views")

    def __init__(self, p: complex, q: complex):
        self.b_is_p = abs(p) < abs(q)
        self.a, b = (q, p) if self.b_is_p else (p, q)
        self.beta = math.sqrt(abs(b))
        self.log_a = -math.log(abs(self.a))
        coef = 1.0 / _log_den(p, q, self.beta, self.beta)[:, None]
        coef.flags.writeable = False
        self.base, self.coef = _based(b), coef
        self._levels, self._shifts, self._terms = [], {}, None

    def level(self, d: int):
        """(The powers of b a theta correction d shifts from the ring keeps,
        a^-d, a bound on the log of the magnitude of every product the
        corrections 1..d form).

        The powers are those of (x; b)_inf at |x| <= X_d = beta |a|^-d, by
        the _Base rule; at d = 0, those of (b/x; b)_inf at |b/x| <= beta.
        Correction d multiplies at most L_d factors of magnitude at most
        1 + X_d by L_0 of at most 1 + beta, so the bound adds
        L_d log(1 + X_d) + L_0 log(1 + beta) per level.
        """
        levels = self._levels
        while len(levels) <= d:
            e = len(levels)
            shift = self.a**-e
            bound = self.beta * math.exp(e * self.log_a)
            count = _length(bound, self.base)
            grows = 0.0
            if e:
                grows = levels[-1][2] + count * math.log1p(bound) + len(levels[0][0]) * math.log1p(self.beta)
            levels.append((self.base.powers[:count], shift, grows))
        return levels[d]

    def shift(self, k: int) -> np.ndarray:
        """a^k, as _gamma forms it from its array of shift counts."""
        held = self._shifts.get(k)
        if held is None:
            held = self._shifts[k] = self.a ** np.array([float(k)])
        return held

    def series(self, w: np.ndarray, v: np.ndarray, recip: bool) -> np.ndarray:
        """_reduced's series at the one-element w and v = pq/w, by its numpy
        calls (_series) in a held (K, 2) buffer and its held views; only the
        exp of the buffer's sums is returned."""
        if self._terms is None:
            self._terms = np.empty((len(self.coef), 2), dtype=complex)
            self._views = _doubling(self._terms)
        np.concatenate((w, v), out=self._terms[0])
        return _series(self._terms, self._views, self.coef, recip)


# A miss finds K and takes _base of b (15 us on a 2-core Xeon); a hit
# takes 0.4 us.  One pass of each benchmark workload at seed 1, replayed
# against an unbounded cache, misses no more at 4 entries: suite 1 miss in
# 24 calls, sweep_n1 1 in 88, closed_forms 601 in 2 643.
@functools.lru_cache(maxsize=4)
def _ring(bits: bytes) -> _Ring:
    """The _Ring of the p and q (pq != 0) bits packs as four doubles: Nomes
    holds them as complex, so their bits are the key."""
    pr, pi, qr, qi = struct.unpack("4d", bits)
    return _Ring(complex(pr, pi), complex(qr, qi))


def _reduced(u: np.ndarray, m: np.ndarray, a: complex, pq: complex, coef: np.ndarray, recip: bool):
    """(w = a^m u, v = pq/w, the series' Gamma(w), or 1/Gamma(w) with ``recip``)."""
    w = u * a**m
    v = pq / w
    terms = np.empty((len(coef), 2 * len(u)), dtype=complex)
    np.concatenate((w, v), out=terms[0])
    return w, v, _series(terms, _doubling(terms), coef, recip)


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
    ring = _ring(struct.pack("4d", p.real, p.imag, q.real, q.imag))
    a = ring.a
    # w = a^m u lies in the ring |a| beta <= |w| <= beta, and so does v = pq/w
    m = np.ceil(np.log(np.abs(u) / ring.beta) / ring.log_a)
    shifts = np.abs(m)
    top = float(shifts.max()) if len(u) else 0.0
    if not math.isfinite(top):  # |u| is inf or nan: no shift reaches the ring
        raise TruncationError(f"{what}: cannot certify the tail at a non-finite argument",
                              achieved_bound=math.inf)
    w, v, value = _reduced(u, m, a, pq, ring.coef, recip)
    if not top:
        return value
    # Gamma(u) = Gamma(w) prod_{d=1}^{-m} theta(v a^-d; b) / prod_{d=1}^{m} theta(w a^-d; b):
    # (x; b)_inf of x = w a^-d vanishes at Gamma's poles, of x = v a^-d at its zeros
    outer = np.where(m > 0, w, v)
    divides = (m < 0) if recip else (m > 0)
    b, small = ring.base.c, len(ring.level(0)[0])
    every = int(shifts.min())
    thetas = np.ones(len(u), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for d in range(1, int(top) + 1):
            at = slice(None) if d <= every else shifts >= d
            powers, a_d, _ = ring.level(d)
            x = outer[at] * a_d
            rows = _correction(x, b, powers, small)
            hit = divides[at]
            if hit.any():
                near = rows[:, : len(x)] if hit.all() else rows[:, : len(x)][:, hit]
                if np.abs(near).min() < POLE_TOL:
                    _pole(near, (pq / u if recip else u)[at][hit], (shifts - d)[at][hit], ring.b_is_p, what)
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

# Magnitudes a bound keeps below _RANGE need no overflow guard: with this
# margin below sys.float_info.max, the components numpy forms on the way
# to a product or quotient of complex numbers (real products, sums, the
# reciprocal of Smith's division) stay finite too.
_RANGE = 1e300
_LOG_RANGE = math.log(_RANGE)
_UNGUARDED = contextlib.nullcontext()


def _range_guard(fits: bool):
    """Nothing where ``fits`` (a bound keeps every magnitude of the block
    below _RANGE), else np.errstate with overflow and invalid ignored: the
    caller's finiteness test reports what left the double range."""
    return _UNGUARDED if fits else np.errstate(over="ignore", invalid="ignore")


def _fits_product(x: complex, y: complex) -> bool:
    """Whether numpy's x * y keeps below _RANGE: every real product and sum
    it forms is at most (|Re x| + |Im x|) (|Re y| + |Im y|)."""
    return (abs(x.real) + abs(x.imag)) * (abs(y.real) + abs(y.imag)) < _RANGE


def _fits_quotient(x: complex, y: complex) -> bool:
    """Whether numpy's x / y keeps below _RANGE: Smith's division forms at
    most 1 / m and (|Re x| + |Im x|) / m, m the larger of |Re y| and |Im y|
    (and nan from an infinite y)."""
    m = max(abs(y.real), abs(y.imag))
    return abs(x.real) + abs(x.imag) + 1.0 < _RANGE * m and m < _RANGE


def _shift_count(u: complex, arg: np.ndarray, ring: _Ring):
    """_gamma's shift count ceil(log(|u| / beta) / log_a) at u (arg = [u]),
    a Python int, or None where it is not finite.

    Python's abs and log may differ from numpy's in the last bit, which
    moves the quotient t by a few units of its last place, scaled by
    max(|t|, 1 / log_a); numpy's count is taken where t lies within 1e-9 of
    an integer, on that scale, or is not finite.
    """
    try:
        t = math.log(abs(u) / ring.beta) / ring.log_a
    except OverflowError:  # |u| passes the double range
        t = math.inf
    if math.isfinite(t) and abs(t - round(t)) > 1e-9 * max(1.0, abs(t), 1.0 / ring.log_a):
        return math.ceil(t)
    m = np.ceil(np.log(np.abs(arg) / ring.beta) / ring.log_a).item()
    return int(m) if math.isfinite(m) else None


def _lone_gamma(u: complex, p: complex, q: complex, recip: bool, bits: bytes) -> complex:
    """_gamma at the one finite u != 0 (pq != 0, bits packing p and q as
    _ring's key), as a Python complex.

    Every value is formed by the numpy calls _gamma makes on a one-element
    array, on the same one- and two-element operands (a^m, the powers of b
    and the series' buffer held by the _Ring), so it has their bits; the
    shift count, the branches, the factor counts, the range guard and the
    finiteness test are Python's.
    """
    what = "elliptic_gamma_recip" if recip else "elliptic_gamma"
    ring = _ring(bits)
    arg = np.array([u])
    k = _shift_count(u, arg, ring)
    if k is None:  # |u| / beta overflows: _gamma raises its error
        return _gamma(arg, p, q, recip).item()
    pq = p * q
    w = arg * ring.shift(k)
    v = pq / w
    value = ring.series(w, v, recip)
    if not k:
        return value.item()
    outer = w if k > 0 else v
    divides = k < 0 if recip else k > 0
    n = abs(k)
    b, small = ring.base.c, len(ring.level(0)[0])
    try:
        fits = ring.level(n)[2] < _LOG_RANGE
    except (TruncationError, OverflowError):  # raised by the loop, after the corrections before it
        fits = False
    thetas = _ONE
    with _range_guard(fits):
        for d in range(1, n + 1):
            powers, a_d, _ = ring.level(d)
            rows = _correction(outer * a_d, b, powers, small)
            if divides and np.abs(rows[:, :1]).min() < POLE_TOL:
                with np.errstate(over="ignore", invalid="ignore"):
                    _pole(rows[:, :1], pq / arg if recip else arg, (n - d,), ring.b_is_p, what)
            values = _product(rows)
            thetas = thetas * (values[:1] * values[1:])
    t, x = thetas.item(), value.item()
    with _range_guard(_fits_quotient(x, t) if divides else _fits_product(x, t)):
        out = value / thetas if divides else value * thetas
    if not (cmath.isfinite(t) and cmath.isfinite(out.item())):
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


def _lone_theta(u: complex, p: complex) -> complex:
    """_theta at the one finite u != 0 (p finite), as a Python complex, by
    _theta's numpy calls on the same operands, so with its bits: the column
    of the smaller of |u| and |p/u| keeps its own factors, as _single keeps
    them, counted by _length instead of masked.  A column of L factors at
    |x| has a product of at most (1 + |x|)^L, which the range guard reads;
    where p/u itself may pass the range, _theta evaluates u."""
    arg = np.array([u])
    if not _fits_quotient(p, u):
        return _theta(arg, p, 0j).item()
    base = _based(p)
    x = np.concatenate((arg, p / arg))
    near, far = np.abs(x).tolist()
    top, low = max(near, far), min(near, far)
    length = _length(top, base)
    kept = _length(low, base)
    with _range_guard(length * math.log1p(top) + kept * math.log1p(low) < _LOG_RANGE):
        rows = _rows(x, base.powers[:length])
        rows[kept:, int(far < near)] = 1.0
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
            return _lone_gamma(u, p, q, f is _recip, bits[16:])
    return f(np.array([u]), p, q).item()


def _evaluate(f, u, p, q):
    """f(u, p, q) in the shape of u, a scalar via _scalar's cache.

    An array is evaluated in blocks of _BLOCK_ENTRIES // MAX_TERMS
    elements.  f reads u, p and q only as complex numbers, so their bits
    are the key (a float nome meets the arithmetic only as complex(x, +0.0)).
    An error stores nothing and is raised again.  A Python complex or
    float is packed as it is: numpy would hold it as the same complex.
    """
    if type(u) is complex or type(u) is float:
        return _scalar(f, struct.pack("6d", u.real, u.imag, p.real, p.imag, q.real, q.imag))
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
