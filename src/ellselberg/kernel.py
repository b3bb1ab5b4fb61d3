"""Torus kernels as data, evaluated pointwise or by lattice tables.

A kernel is a list of factors f(c z^alpha): f is Gamma, 1/Gamma, theta(.; p)
or the identity (a monomial prefactor), alpha a sparse exponent vector
((i, e), ...) with one or two entries; a ``pm`` factor also multiplies in
f(c z^-alpha).

On a :class:`Lattice` (z_i = w[k_i], w = _roots(N)) z^alpha is
w[(alpha . k) mod N], so every factor f(c z^alpha) reads the table
T = f(c w) at (alpha . k) mod N, and its mirror f(c z^-alpha) reads the
same T at -(alpha . k) mod N (rank-1 Psi reads its 14 functions of z from 7
tables).  With alpha = d alpha', d = +-gcd of its entries and alpha'
starting positive, the reads T[(d m) mod N] of the factors that share
alpha' fold, in _fold's order, into one length-N table gathered at
(alpha' . k) mod N per point.  Any other z is evaluated pointwise.

A table is evaluated on its whole circle by one of two routes, chosen by
|c| and the nomes alone.  Strictly inside the annulus where f has no zero
or pole (|pq| < |c| < 1 for Gamma and 1/Gamma, |p| < |c| < 1 for theta),
log f(c w) is a Laurent series in w (Felder and Varchenko, Adv. Math. 156
(2000)):

    log Gamma(u; p, q) = sum_{k>=1} (u^k - (pq/u)^k) / (k (1 - p^k)(1 - q^k)),
    log theta(u; p)    = -sum_{k>=1} (u^k + (p/u)^k) / (k (1 - p^k)),

and log 1/Gamma is minus the first.  The coefficients up to the K that
certifies the tail (_series, from the qseries._log_den that Gamma's own
series takes its terms from), folded exactly mod N, give the whole table
as exp of one inverse FFT.  Every other circle (|c| >= 1, |c| <= |pq| or
|p|, the Weyl factor's c = 1, a monomial, or a K above MAX_TERMS) is
evaluated pointwise by the qseries evaluators, pole scan included; f has
no pole or zero a certified series can come near, so no scan is lost.

Tables (at most _TABLES) and series coefficients (at most _SERIES; they do
not depend on N, so a ladder from 16 to 512 computes them once) are held by
functools.lru_cache as read-only arrays, keyed on f, N and the exact bits
of c, p and q (== takes 0.0 and -0.0 as one number, their bits do not), so
the kernels of one family (the shifts of qde, Psi~ and the E_r terms of one
recurrence, the Weyl factor of every kernel) and the rungs of later ladders
and reports share them.  A circle's route is held with its series: a
circle off the series route holds None there.  A table is a fixed function
of its key, so what the caches hold changes the time a run takes, never a
bit of its output; a factor that raises stores no table at the N it raised
on.
"""

from __future__ import annotations

import functools
import math
import struct
from typing import NamedTuple

import numpy as np

from .errors import TruncationError
from .qseries import Nomes, _log_den, _unpack, elliptic_gamma, elliptic_gamma_recip, theta

GAMMA, RECIP, THETA, MONO = "gamma", "recip", "theta", "mono"

# Circle tables and series the caches hold.  One pass at seed 1, with the
# rung cache, computes 614 tables and 137 series on the default suite (582
# and 136 unbounded) and 2 222 and 485 on sweep_n1 (2 022 and 467).
_TABLES, _SERIES = 128, 64


class Factor(NamedTuple):
    kind: str
    c: complex
    alpha: tuple
    pm: bool = False


def pm(kind: str, c) -> Factor:
    """f(c z^{+-1}) in coordinate 0."""
    return Factor(kind, c, ((0, 1),), True)


@functools.lru_cache(maxsize=16)
def _roots(N: int) -> np.ndarray:
    """The N-th roots of unity exp(2 pi i m/N), m = 0..N-1, read-only."""
    w = np.exp(2j * np.pi * np.arange(N) / N)
    w.flags.writeable = False
    return w


class Lattice:
    """Node list of a quadrature grid: entry i is w[k[i]], gathered when read.

    It holds N, the index arrays k and the quadrature weight of each node,
    and w = _roots(N) holds the N-th roots of unity in order, so z^alpha is
    w[(alpha . k) mod N]; :func:`evaluate` reads only N and k.
    """

    def __init__(self, N: int, k, weights):
        self.N, self.k, self.weights = N, tuple(k), weights

    def __len__(self):
        return len(self.k)

    def __getitem__(self, i):
        return _roots(self.N)[self.k[i]]


def _circle(N: int, c):
    """The circle c * exp(2 pi i m/N), m = 0..N-1."""
    w = _roots(N)
    return w if c == 1 else c * w


def _arg(c, alpha, zs):
    """c z^alpha, spelled as c * z, c / z or z**e (as the kernels always were)."""
    if c == 1 and len(alpha) == 1:
        return zs[alpha[0][0]] ** alpha[0][1]
    u = c
    for i, e in alpha:
        zi = zs[i] if abs(e) == 1 else zs[i] ** abs(e)
        u = u * zi if e > 0 else u / zi
    return u


def _apply(kind, u, nomes):
    if kind == GAMMA:
        return elliptic_gamma(u, nomes)
    if kind == RECIP:
        return elliptic_gamma_recip(u, nomes)
    if kind == THETA:
        return theta(u, nomes.p)
    return u


def _mirror(alpha):
    return tuple((i, -e) for i, e in alpha)


def _value(f, zs, nomes):
    v = _apply(f.kind, _arg(f.c, f.alpha, zs), nomes)
    if f.pm:
        v = v * _apply(f.kind, _arg(f.c, _mirror(f.alpha), zs), nomes)
    return v


def _fold(values):
    out = 1.0 + 0.0j
    for v in values:
        out = out * v
    return out


def _on_circle(kind, c, N, nomes):
    """f(c w) on w = _roots(N), read-only, from _table's cache when held."""
    # c meets the circle only in numpy, which casts it to complex128, and
    # the series as complex(c); Nomes holds p and q as complex.  So their
    # bits are the key.
    c, p, q = complex(c), nomes.p, nomes.q
    return _table(kind, N, struct.pack("6d", c.real, c.imag, p.real, p.imag, q.real, q.imag))


@functools.lru_cache(maxsize=_TABLES)
def _table(kind, N, bits):
    """f(c w) on w = _roots(N) by its route, read-only; c, p and q are _unpack(bits)."""
    series = _series(kind, bits)
    if series is None:
        c, p, q = _unpack(bits)
        table = _apply(kind, _circle(N, c), Nomes(p, q))
    else:
        table = _laurent(series, N)
    table.flags.writeable = False
    return table


# Signs of the w^k and w^-k coefficients of log f(c w).
_SIGNS = {GAMMA: (1.0, -1.0), RECIP: (-1.0, 1.0), THETA: (-1.0, -1.0)}


@functools.lru_cache(maxsize=_SERIES)
def _series(kind, bits):
    """Laurent coefficients of log f(c w), those of w^-K..w^K in order, or None.

    None where the qseries evaluators take the table: unless |c| lies
    strictly inside f's annulus and a K <= MAX_TERMS certifies the tail.
    The denominators and K are qseries._log_den's at the outer radius |c|
    and the inner |pq/c| (|p/c| for theta, which is log Gamma's series at
    q = 0 with the signs of _SIGNS).
    """
    c, p, q = _unpack(bits)
    if kind == MONO or c == 0:
        return None
    inner = p if kind == THETA else p * q
    a, b = abs(c), abs(inner / c)
    if not (a < 1.0 and b < 1.0):
        return None
    try:
        den = _log_den(p, 0j if kind == THETA else q, a, b)
    except TruncationError:
        return None
    K = len(den)
    k = np.arange(1, K + 1)
    up, down = _SIGNS[kind]
    out = np.zeros(2 * K + 1, dtype=complex)
    out[K + 1 :] = up * c**k / den
    out[K - 1 :: -1] = down * (inner / c) ** k / den
    out.flags.writeable = False
    return out


def _laurent(series, N):
    """exp(sum_j F_j w^j) on w = _roots(N), F the series folded mod N: one inverse FFT."""
    # entry i is the coefficient of w^(i - K), so it folds at (offset + i) mod N
    offset = -(len(series) // 2) % N
    folded = np.zeros(-(-(offset + len(series)) // N) * N, dtype=complex)
    folded[offset : offset + len(series)] = series
    return np.exp(np.fft.ifft(folded.reshape(-1, N).sum(axis=0), norm="forward"))


def evaluate(factors, z, nomes):
    """Product of the factors at z: one value, or one per grid point."""
    if not isinstance(z, Lattice):
        return _fold(_value(f, z, nomes) for f in factors)
    # alpha' -> reads (kind, c, d, pm) of f(c w) at (d m) mod N, and of a pm
    # factor's mirror at (-d m) mod N
    N, groups, at = z.N, {}, {1: slice(None)}
    for f in factors:
        alpha = sorted(f.alpha)
        g = math.gcd(*(e for _, e in alpha)) * (1 if alpha[0][1] > 0 else -1)
        groups.setdefault(tuple((i, e // g) for i, e in alpha), []).append((f.kind, f.c, g, f.pm))
        for d in (g, -g)[: 1 + f.pm]:
            if d not in at:
                at[d] = d * np.arange(N) % N
    tables, out = {}, 1.0 + 0.0j
    for key, reads in groups.items():
        reads = tuple(reads)
        if reads not in tables:
            tables[reads] = _fold(_gathered(reads, N, at, nomes))
        out = out * tables[reads][sum(e * z.k[i] for i, e in key) % N]
    return out


def _gathered(reads, N, at, nomes):
    """Each read's table, looked up once, at at[d] and for a pm read then at at[-d]."""
    for kind, c, d, both in reads:
        table = _on_circle(kind, c, N, nomes)
        for sign in (1, -1)[: 1 + both]:
            yield table[at[sign * d]]
