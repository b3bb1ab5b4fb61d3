"""Torus kernels as data, evaluated pointwise or by lattice tables.

A kernel is a list of factors f(c z^alpha): f is Gamma, 1/Gamma or the
identity (a monomial prefactor), alpha a sparse exponent vector ((i, e), ...)
with one or two entries; a ``pm`` factor also multiplies in f(c z^-alpha).

On a :class:`Lattice` (z_i = s_i w[k_i], w_m = exp(2 pi i m/N)) every group
of factors that shares a gather index becomes one length-N table built by
the ordinary q-series calls: one-coordinate factors on the circle s_i w with
the pointwise arithmetic (so rank 1 is unchanged), gathered at k_i; pair
factors, alpha = sigma alpha' with alpha' starting positive, at
c s^alpha w^sigma, gathered at (alpha' . k) mod N.  Any other z is
evaluated pointwise.

A group's table is the product, in _fold's order, of its factors' values on
the circle s w.  Those values come from a process-wide LRU of read-only
arrays keyed on the factor, N, s, the nomes and the policy, every number by
its exact bits (0.0 == -0.0), so the kernels of one family (the shifts of
qde, Psi~ under several invariants, the Weyl factor of every kernel) and
the rungs of later ladders and reports share them without changing a bit.
It holds at most _TABLE_BYTES; a factor that raises stores nothing.
"""

from __future__ import annotations

import functools
import struct
from collections import OrderedDict
from typing import NamedTuple

import numpy as np

from .qseries import DEFAULT_POLICY, elliptic_gamma, elliptic_gamma_recip

GAMMA, RECIP, MONO = "gamma", "recip", "mono"

# Bytes of circle values the cache may hold.  Kept small: a benchmark that
# re-imports the package keeps every old module copy, cache included, until
# the cyclic collector runs (N = 512 tables are 8 KiB each).
_TABLE_BYTES = 64 * 1024


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
    so (N, scale[i]) names circle i and pair tables may gather w[a] w[b] at
    w[(a + b) mod N].
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


def _circle(N: int, s):
    w = _roots(N)
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


def _bits(x) -> bytes:
    """x by its exact bits: == and hash take 0.0 and -0.0 as one number."""
    return struct.pack("dd", x.real, x.imag)


class _Tables:
    """Circle values by key, least recently used first, at most _TABLE_BYTES.

    Not locked: the package evaluates on one thread.
    """

    def __init__(self):
        self.entries, self.nbytes = OrderedDict(), 0

    def get(self, key):
        v = self.entries.get(key)
        if v is not None:
            self.entries.move_to_end(key)
        return v

    def put(self, key, v):
        if v.nbytes > _TABLE_BYTES:
            return
        self.entries[key] = v
        self.nbytes += v.nbytes
        while self.nbytes > _TABLE_BYTES:
            self.nbytes -= self.entries.popitem(last=False)[1].nbytes

    def clear(self):
        self.entries.clear()
        self.nbytes = 0


_tables = _Tables()


def _on_circle(f, N, s, nomes, policy):
    """f on the circle s * exp(2 pi i m/N), read-only, from _tables when held."""
    # c and s meet the circle only in numpy, which casts them to complex128;
    # p and q also enter Python arithmetic, where a float and a complex of
    # equal value can give a zero of another sign, so their types count too.
    p, q = nomes.p, nomes.q
    key = (f.kind, _bits(f.c), f.alpha, f.pm, N, _bits(s),
           type(p), _bits(p), type(q), _bits(q), policy or DEFAULT_POLICY)
    v = _tables.get(key)
    if v is None:
        v = _value(f, [_circle(N, s)], nomes, policy)
        v.flags.writeable = False
        _tables.put(key, v)
    return v


def evaluate(factors, z, nomes, policy=None):
    """Product of the factors at z: one value, or one per grid point."""
    if not isinstance(z, Lattice):
        return _fold(_value(f, z, nomes, policy) for f in factors)
    # gather index alpha' -> [circle scale, factors written on that circle]
    groups = {}
    for f in factors:
        if len(f.alpha) == 1:
            ((i, e),) = f.alpha
            groups.setdefault(((i, 1),), [z.scale[i]]).append(f._replace(alpha=((0, e),)))
            continue
        for (j, ej), (k, ek) in map(sorted, (f.alpha, _mirror(f.alpha))[: 1 + f.pm]):
            s = 1 if ej > 0 else -1
            c = f.c * z.scale[j] ** ej * z.scale[k] ** ek
            group = groups.setdefault(((j, s * ej), (k, s * ek)), [1])
            group.append(Factor(f.kind, c, ((0, s),)))
    N, tables, out = z.N, {}, 1.0 + 0.0j
    for key, sig in groups.items():
        sig = tuple(sig)
        if sig not in tables:
            scale, *fs = sig
            tables[sig] = _fold(_on_circle(f, N, scale, nomes, policy) for f in fs)
        out = out * tables[sig][sum(e * z.k[i] for i, e in key) % N]
    return out
