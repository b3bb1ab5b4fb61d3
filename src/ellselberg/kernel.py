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

A table's values at N <= MIN_POINTS, the first rung of every trapezoid
ladder, or at odd N are evaluated on the whole circle; at any other N they
are its values at N/2 (node 2m of the N circle is node m of the N/2 circle,
bit for bit) with f evaluated on the odd nodes placed between them, so a
ladder from 16 to 512 evaluates each table on 512 nodes, not 1008.

Those values come from a process-wide LRU of read-only arrays keyed on f,
c, N, the nomes and the policy, every number by its exact bits
(0.0 == -0.0), so the kernels of one family (the shifts of qde, Psi~ and
the E_r terms of one recurrence, the Weyl factor of every kernel) and the
rungs of later ladders and reports share them.  A table is a fixed function of its key,
so what the cache holds changes the time a run takes, never a bit of its
output.  It holds at most _TABLE_BYTES; a factor that raises stores
nothing at the N it raised on.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .qseries import DEFAULT_POLICY, ByteLRU, _bits, elliptic_gamma, elliptic_gamma_recip, theta

GAMMA, RECIP, THETA, MONO = "gamma", "recip", "theta", "mono"

# Points per circle of the first rung of every trapezoid ladder, and of the
# largest circle whose tables are evaluated whole.
MIN_POINTS = 16

# Bytes of circle values the cache may hold.  A table is built from its N/2
# table, so a half that was evicted is evaluated again: the default suite
# evaluates 40 944 circle points at 96 KiB, 28 928 at 160 KiB and 23 744 at
# 192 KiB (23 616 when nothing is evicted), E_r's theta tables included.
# 192 KiB was chosen when a table held a factor and its mirror, as the
# smallest of 96, 128, 160, 192 and 256 KiB at which the `suite` benchmark
# ran faster than tables evaluated whole at 96 KiB unless their half was
# held: wall_s 0.49-0.51 s against 0.56-0.58 s (160 KiB: 0.54-0.57 s) and
# peak RSS +1.5 % (6 s runs, seeds 1-3, 2-core Xeon, numpy 2.4).  Kept
# small otherwise: a benchmark
# that re-imports the package keeps every old module copy, cache included,
# until the cyclic collector runs.
_TABLE_BYTES = 192 * 1024


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


class Lattice(list):
    """Node list of a quadrature grid: entry i is w[k[i]].

    It carries N, the quadrature weight of each node and the index arrays
    k, and w = _roots(N) holds the N-th roots of unity in order, so
    z^alpha is w[(alpha . k) mod N].
    """

    def __init__(self, N: int, k, weights):
        self.N, self.k, self.weights = N, tuple(k), weights
        w = _roots(N)
        super().__init__(w[ki] for ki in self.k)


def _circle(N: int, c, odd=False):
    """The circle c * exp(2 pi i m/N), m = 0..N-1, or only its odd m."""
    w = _roots(N)[1::2] if odd else _roots(N)
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


def _apply(kind, u, nomes, policy):
    if kind == GAMMA:
        return elliptic_gamma(u, nomes, policy)
    if kind == RECIP:
        return elliptic_gamma_recip(u, nomes, policy)
    if kind == THETA:
        return theta(u, nomes.p, policy)
    return u


def _mirror(alpha):
    return tuple((i, -e) for i, e in alpha)


def _value(f, zs, nomes, policy):
    v = _apply(f.kind, _arg(f.c, f.alpha, zs), nomes, policy)
    if f.pm:
        v = v * _apply(f.kind, _arg(f.c, _mirror(f.alpha), zs), nomes, policy)
    return v


def _fold(values):
    out = 1.0 + 0.0j
    for v in values:
        out = out * v
    return out


_tables = ByteLRU(_TABLE_BYTES)


def _on_circle(kind, c, N, nomes, policy):
    """f(c w) on w = _roots(N), read-only, from _tables when held."""
    # c meets the circle only in numpy, which casts it to complex128; p and
    # q also enter Python arithmetic, where a float and a complex of equal
    # value can give a zero of another sign, so their types count too.
    p, q = nomes.p, nomes.q
    key = (N, kind, _bits(c), type(p), _bits(p), type(q), _bits(q), policy or DEFAULT_POLICY)
    table = _tables.get(key)
    if table is None:
        if N % 2 or N <= MIN_POINTS:
            table = _apply(kind, _circle(N, c), nomes, policy)
        else:
            table = np.empty(N, dtype=complex)
            table[0::2] = _on_circle(kind, c, N // 2, nomes, policy)
            table[1::2] = _apply(kind, _circle(N, c, odd=True), nomes, policy)
        table.flags.writeable = False
        _tables.put(key, table)
    return table


def evaluate(factors, z, nomes, policy=None):
    """Product of the factors at z: one value, or one per grid point."""
    if not isinstance(z, Lattice):
        return _fold(_value(f, z, nomes, policy) for f in factors)
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
            tables[reads] = _fold(_gathered(reads, N, at, nomes, policy))
        out = out * tables[reads][sum(e * z.k[i] for i, e in key) % N]
    return out


def _gathered(reads, N, at, nomes, policy):
    """Each read's table, looked up once, at at[d] and for a pm read then at at[-d]."""
    for kind, c, d, both in reads:
        table = _on_circle(kind, c, N, nomes, policy)
        for sign in (1, -1)[: 1 + both]:
            yield table[at[sign * d]]
