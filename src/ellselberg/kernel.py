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
"""

from __future__ import annotations

from typing import NamedTuple

from .qseries import elliptic_gamma, elliptic_gamma_recip

GAMMA, RECIP, MONO = "gamma", "recip", "mono"


class Factor(NamedTuple):
    kind: str
    c: complex
    alpha: tuple
    pm: bool = False


def pm(kind: str, c) -> Factor:
    """f(c z^{+-1}) in coordinate 0."""
    return Factor(kind, c, ((0, 1),), True)


class Lattice(list):
    """Node list of a product grid: entry i is scale[i] * w[k[i]].

    w holds the N-th roots of unity exp(2 pi i m/N) in order, so that pair
    tables may gather w[a] w[b] at w[(a + b) mod N].
    """

    def __init__(self, w, k, scale=None):
        self.w, self.k = w, tuple(k)
        self.scale = tuple(scale or (1,) * len(self.k))
        super().__init__(w[ki] if s == 1 else s * w[ki] for ki, s in zip(self.k, self.scale))

    def take(self, idx) -> Lattice:
        return Lattice(self.w, [self.k[j] for j in idx], [self.scale[j] for j in idx])

    def scaled(self, i: int, factor) -> Lattice:
        """The lattice with coordinate i multiplied by factor."""
        scale = list(self.scale)
        scale[i] = scale[i] * factor
        return Lattice(self.w, self.k, scale)


def on_axis(z, i: int, fn):
    """fn(z[i]) for fn acting elementwise; once per circle node on a Lattice."""
    if isinstance(z, Lattice):
        return fn(z.w if z.scale[i] == 1 else z.scale[i] * z.w)[z.k[i]]
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


def _fold(factors, zs, nomes, policy):
    out = 1.0 + 0.0j
    for f in factors:
        v = _apply(f.kind, _arg(f.c, f.alpha, zs), nomes, policy)
        if f.pm:
            v = v * _apply(f.kind, _arg(f.c, _mirror(f.alpha), zs), nomes, policy)
        out = out * v
    return out


def evaluate(factors, z, nomes, policy=None):
    """Product of the factors at z: one value, or one per grid point."""
    if not isinstance(z, Lattice):
        return _fold(factors, z, nomes, policy)
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
    N, tables, out = len(z.w), {}, 1.0 + 0.0j
    for key, sig in groups.items():
        sig = tuple(sig)
        if sig not in tables:
            scale, *fs = sig
            tables[sig] = _fold(fs, [z.w if scale == 1 else scale * z.w], nomes, policy)
        out = out * tables[sig][sum(e * z.k[i] for i, e in key) % N]
    return out
