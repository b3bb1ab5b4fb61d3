"""Torus kernels as data, evaluated pointwise or by lattice tables.

A kernel is a list of factors f(c z^alpha): f is Gamma, 1/Gamma or the
identity (a monomial prefactor), alpha a sparse exponent vector ((i, e), ...)
with one or two entries; a ``pm`` factor also multiplies in f(c z^-alpha).

On a :class:`Lattice` (z_i = s_i w[k_i], w = _roots(N)) z^alpha is
s^alpha w[(alpha . k) mod N], so every factor f(c z^alpha) reads the table
T = f(c s^alpha w) at (alpha . k) mod N, and its mirror f(c z^-alpha) the
table of c s^-alpha at -(alpha . k) mod N: the same T when s^alpha = 1, as
on every ladder's grid (rank-1 Psi reads its 14 functions of z from 7
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
c s^alpha, N, the nomes and the policy, every number by its exact bits
(0.0 == -0.0), so the kernels of one family (the shifts of qde, Psi~ under
several invariants, the Weyl factor of every kernel) and the rungs of later
ladders and reports share them.  A table is a fixed function of its key,
so what the cache holds changes the time a run takes, never a bit of its
output.  It holds at most _TABLE_BYTES; a factor that raises stores
nothing at the N it raised on.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .qseries import DEFAULT_POLICY, ByteLRU, _bits, elliptic_gamma, elliptic_gamma_recip

GAMMA, RECIP, MONO = "gamma", "recip", "mono"

# Points per circle of the first rung of every trapezoid ladder, and of the
# largest circle whose tables are evaluated whole.
MIN_POINTS = 16

# Bytes of circle values the cache may hold.  A table is built from its N/2
# table, so a half that was evicted is evaluated again: the default suite
# evaluates 38 768 circle points at 96 KiB, 27 392 at 160 KiB and 22 848 at
# 192 KiB (22 720 when nothing is evicted).  192 KiB was chosen when a
# table held a factor and its mirror, as the smallest of 96, 128, 160, 192
# and 256 KiB at which the `suite` benchmark ran faster than tables
# evaluated whole at 96 KiB unless their half was held: wall_s 0.49-0.51 s
# against 0.56-0.58 s (160 KiB: 0.54-0.57 s) and peak RSS +1.5 % (6 s runs,
# seeds 1-3, 2-core Xeon, numpy 2.4).  Kept small otherwise: a benchmark
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
    """Node list of a product grid: entry i is scale[i] * w[k[i]].

    It carries N, and w = _roots(N) holds the N-th roots of unity in order,
    so z^alpha is scale^alpha w[(alpha . k) mod N].
    """

    def __init__(self, N: int, k, scale=None):
        self.N, self.k = N, tuple(k)
        self.scale = tuple(scale or (1,) * len(self.k))
        w = _roots(N)
        super().__init__(w[ki] if s == 1 else s * w[ki] for ki, s in zip(self.k, self.scale))

    def take(self, idx) -> Lattice:
        return Lattice(self.N, [self.k[j] for j in idx], [self.scale[j] for j in idx])

    def scaled(self, i: int, factor) -> Lattice:
        """The lattice with coordinate i multiplied by factor."""
        scale = list(self.scale)
        scale[i] = scale[i] * factor
        return Lattice(self.N, self.k, scale)


def _circle(N: int, s, odd=False):
    """The circle s * exp(2 pi i m/N), m = 0..N-1, or only its odd m."""
    w = _roots(N)[1::2] if odd else _roots(N)
    return w if s == 1 else s * w


def on_axis(z, i: int, fn):
    """fn(z[i]) for fn acting elementwise; once per circle node on a Lattice."""
    if isinstance(z, Lattice):
        return fn(_circle(z.N, z.scale[i]))[z.k[i]]
    return fn(z[i])


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
    # alpha' -> reads (f, c s^alpha, d) of f(c s^alpha w) at (d m) mod N
    N, groups, at = z.N, {}, {1: slice(None)}
    for f in factors:
        alpha = sorted(f.alpha)
        g = math.gcd(*(e for _, e in alpha)) * (1 if alpha[0][1] > 0 else -1)
        reads = groups.setdefault(tuple((i, e // g) for i, e in alpha), [])
        for sign in (1, -1)[: 1 + f.pm]:
            c = f.c
            for i, e in alpha:
                c = c if z.scale[i] == 1 else c * z.scale[i] ** (sign * e)
            reads.append((f.kind, c, sign * g))
            if sign * g not in at:
                at[sign * g] = sign * g * np.arange(N) % N
    tables, out = {}, 1.0 + 0.0j
    for key, reads in groups.items():
        reads = tuple(reads)
        if reads not in tables:
            tables[reads] = _fold(_on_circle(f, c, N, nomes, policy)[at[d]] for f, c, d in reads)
        out = out * tables[reads][sum(e * z.k[i] for i, e in key) % N]
    return out
