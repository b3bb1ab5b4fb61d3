"""Torus kernels as data, evaluated pointwise or as sums of log series.

A kernel is a list of factors f(c z^alpha): f is Gamma, 1/Gamma, theta(.; p)
or the identity (a monomial prefactor), alpha a sparse exponent vector
((i, e), ...) with one or two entries; a ``pm`` factor also multiplies in
f(c z^-alpha).  Any z but a :class:`Lattice` is evaluated pointwise.

On a Lattice (z_i = w[k_i], w = _roots(N)) write alpha = d alpha', d = +-gcd
of its entries.  The factors that share alpha' up to sign form one group,
a function of u = z^alpha' alone (_layout): it is tabulated on the circle
u = w[m], m = 0..N-1, and read at (alpha' . k) mod N per point.  All of
rank-1 Psi, the Weyl factor 1/Gamma(z^{+-2}) and the mirrors included, is
one group.

Strictly inside the annulus where f has no zero or pole (|pq| < |c| < 1 for
Gamma, |p| < |c| < 1 for theta), log f(c u) is a Laurent series in u
(Felder and Varchenko, Adv. Math. 156 (2000)):

    log Gamma(u; p, q) = sum_{k>=1} (u^k - (pq/u)^k) / (k (1 - p^k)(1 - q^k)),
    log theta(u; p)    = -sum_{k>=1} (u^k + (p/u)^k) / (k (1 - p^k)),

summed to the K that qseries._log_den certifies (_series).  Every other
circle is first reduced (_reduced), with a the nome of larger modulus and
b the other, by

    Gamma(a x) = theta(x; b) Gamma(x),    theta(b x; b) = -x^-1 theta(x; b),
    theta(x; 0) = 1 - x = -x theta(1/x; 0),

to a constant, a power of u and series inside their annuli, and
Gamma(u; 0, 0) = 1 / (1 - u) to a line factor.  Where a circle lies, or
the reduction lands, at an edge of an annulus, so that no K <= MAX_TERMS
certifies the series there (|c| = 0.95 for Gamma, say), it takes one step
across the edge, and the theta that lands near |x| = 1 splits off its
factor nearest the circle:

    theta(x u; b) = (1 - x u) (b x u; b)_inf (b / (x u); b)_inf,

a line factor and a series.  So the Weyl factor's 1/Gamma(u) is
(1 - u) (b u; b)_inf (b/u; b)_inf / Gamma(a u), and Gamma(1.05 u) divides
by 1 - u^-1 / 1.05.

A factor f(c z^(d alpha')) contributes its coefficients at u^(d j), its
mirror at u^(-d j).  They are summed once per group (_group); each rung
folds the sum mod N, takes one inverse FFT (Trefethen and Weideman, SIAM
Rev. 56 (2014) 3) and one exp, and multiplies in the constant, the power
of u read from the roots by index, and each line factor 1 - x w[(e m) mod N]
(or divides by it).  At x = 1 it is exactly 0 where w[(e m) mod N] = w[0] = 1,
so the zeros on the nodes (1/Gamma(z_i^{+-2}) at z_i = +-1,
1/Gamma(z_j^{+-1} z_k^{+-1}) at z_j = z_k^{+-1}) are exact.  A line factor
divided by within POLE_TOL of 0 at a node is a pole of its factor there:
the factor's qseries evaluator, at that node alone, raises the
PoleProximityError that names it, as the pointwise path does.

A Kernel (evaluate builds one per call) holds a factor list at its nomes.
Its first Lattice resolves, group by group as it evaluates them, its
layout, the keys of its groups (the exact bits of every c, p and q: ==
takes 0.0 and -0.0 as one number, their bits do not) and their _Groups,
and the Kernel holds them: every later rung runs _on_circle per distinct
group, the gather at (alpha' . k) mod N and the product, and nothing else.
An error leaves it unresolved, so a factor that raised raises again.  The
integrands hold their Kernels per parameter set (integrand._held), so a
ladder resolves each once.

Process-wide functools.lru_caches hold, by exact bits, each factor's
reduction with its series' coefficients (_factor, at most _FACTORS), the
layouts (_layout, at most _LAYOUTS) and u^e on each circle (_root_powers,
at most _POWERS, per N and e); qseries holds the series' denominators and
quadrature the small lattices with their index arrays.  Arrays held are
read-only.  What is held changes the time a run takes, never a bit of its
output; no value on a circle is held (quadrature's rung cache holds each
rung).  The sizes are the smallest that lose nothing, or little, on one
pass of each benchmark workload at seed 1 replayed against unbounded
caches (see the README).
"""

from __future__ import annotations

import functools
import math
import struct
from typing import NamedTuple

import numpy as np

from . import qseries
from .errors import DomainError, TruncationError
from .qseries import POLE_TOL, _log_den, _unpack, elliptic_gamma, elliptic_gamma_recip, theta

GAMMA, RECIP, THETA, MONO = "gamma", "recip", "theta", "mono"

# theta(c u; p) / (1 - c u), the series of a theta at an edge of its annulus.
QUOTIENT = "quotient"

# Factors, layouts and root powers the caches hold.  One pass at seed 1,
# replayed against unbounded caches, reduces 136 distinct factors (in 346
# reads) on the default suite and 467 (in 1 040) on sweep_n1, 137 and 509
# at 48 entries (494 at 64, 467 at 96, which hold a third more bytes);
# neither builds more layouts at 16 (12 and 4) nor root powers at 32 (18).
_FACTORS, _LAYOUTS, _POWERS = 48, 16, 32


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


@functools.lru_cache(maxsize=_POWERS)
def _root_powers(N: int, e: int) -> np.ndarray:
    """u^e on the circle u = w[m]: w[(e m) mod N], m = 0..N-1, read-only
    (the roots themselves at e = 1)."""
    if e == 1:
        return _roots(N)
    out = _roots(N)[e * np.arange(N) % N]
    out.flags.writeable = False
    return out


class Lattice:
    """Node list of a quadrature grid: entry i is w[k[i]], gathered when read.

    It holds N, a power of two, the index arrays k (entries in 0..N-1) and
    the quadrature weight of each node, and w = _roots(N) holds the N-th
    roots of unity in order, so z^alpha is w[(alpha . k) mod N];
    :func:`evaluate` reads only N and :meth:`at`.  Each index array it
    computes is held for the lattice's life, so the kernels of one rung
    (the plain and shifted nabla terms, say) share it.
    """

    def __init__(self, N: int, k, weights):
        if N < 1 or N & (N - 1):
            raise DomainError(f"a lattice needs a power-of-two N, got N = {N}")
        self.N, self.k, self.weights = N, tuple(k), weights
        self._at = {}

    def __len__(self):
        return len(self.k)

    def __getitem__(self, i):
        return _roots(self.N)[self.k[i]]

    def at(self, alpha):
        """(alpha . k) mod N, the index of z^alpha in _roots(N) at each node:
        k_i itself for alpha = ((i, 1),).  The sum is formed in place and
        reduced by the mask N - 1, which on two's-complement integers is the
        non-negative remainder % N gives."""
        if len(alpha) == 1 and alpha[0][1] == 1:
            return self.k[alpha[0][0]]
        index = self._at.get(alpha)
        if index is None:
            (i, e), *rest = alpha
            index = self.k[i] * e
            for i, e in rest:
                if e == 1:
                    index += self.k[i]
                elif e == -1:
                    index -= self.k[i]
                else:
                    index += e * self.k[i]
            index &= self.N - 1
            index.flags.writeable = False
            self._at[alpha] = index
        return index


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


def _pack(*numbers):
    """The exact bits of the complex numbers, as a cache key."""
    return struct.pack(f"{2 * len(numbers)}d", *[x for v in map(complex, numbers) for x in (v.real, v.imag)])


def _reduced(kind, c, p, q):
    """f(c u) as (const, shift, lines, terms):

        f(c u) = const u^shift prod (1 - x u^e)^sign exp(sum sign S(u^e))

    over the (x, e, sign) of lines and the (S, sign, e) of terms, S a
    certified _series.  A series no K <= MAX_TERMS certifies, whether the
    circle started inside its annulus or was reduced onto its edge, is
    split there into a line factor and series.  A line may vanish on the
    circle; _on_circle tests its nodes.  DomainError where c is zero or not
    finite; TruncationError after more than MAX_TERMS steps, or where a
    series stays uncertified after the split."""
    if not (c and math.isfinite(abs(c))):
        raise DomainError(f"a kernel factor f(c u) needs a finite c != 0, got c = {c}")
    const, shift, steps, lines, terms = 1.0 + 0.0j, 0, 0, [], []

    def mono(x, e, sign):
        # (x u^e)^sign
        nonlocal const, shift, steps
        const, shift, steps = const * x if sign > 0 else const / x, shift + sign * e, steps + 1
        if steps > qseries.MAX_TERMS:
            raise TruncationError(f"more than {qseries.MAX_TERMS} steps reduce the circle", achieved_bound=math.inf)

    def add(kind, c, b, q, e, sign):
        # the series of kind at c and the nomes (b, q), in u^e, if certified
        series = _series(kind, c, b, q)
        if series is not None:
            terms.append((series, sign, e))
        return series is not None

    def split(kind, c, b, q, e, sign):
        # the series across an edge: certified, or no K is
        if not add(kind, c, b, q, e, sign):
            raise TruncationError(f"no K <= {qseries.MAX_TERMS} certifies the circle's series across "
                                  "the edge of its annulus", achieved_bound=math.inf)

    def theta(x, b, e, sign):
        # theta(x u^e; b)^sign
        if b == 0 and abs(x) > 1:  # theta(y; 0) = 1 - y = -y theta(1/y; 0)
            mono(-x, e, sign)
            x, e = 1 / x, -e
        while abs(x) > 1:  # theta(y; b) = -y theta(b y; b)
            mono(-x, e, sign)
            x *= b
        while abs(x) <= abs(b):  # theta(y; b) = -(b/y) theta(y/b; b)
            mono(-b / x, -e, sign)
            x /= b
        if add(THETA, x, b, 0j, e, sign):
            return
        # at an edge of the annulus: theta(y; b) = theta(b/y; b) puts it at
        # the outer one, and theta(y; b) = (1 - y) (by; b)_inf (b/y; b)_inf
        if abs(x * x) < abs(b):
            x, e = b / x, -e
        lines.append((x, e, sign))
        split(QUOTIENT, x, b, 0j, e, sign)

    def gamma(c, sign):
        # Gamma(c u)^sign
        a, b = (q, p) if abs(p) < abs(q) else (p, q)
        if a == 0:  # Gamma(u; 0, 0) = 1 / (1 - u)
            lines.append((c, 1, -sign))
            return

        def outward(c):  # Gamma(x) = Gamma(a x) / theta(x; b)
            theta(c, b, 1, -sign)
            return c * a

        def inward(c):  # Gamma(x) = theta(x/a; b) Gamma(x/a)
            theta(c / a, b, 1, sign)
            return c / a

        while abs(c) >= 1:
            c = outward(c)
        while abs(c) <= abs(a * b):
            c = inward(c)
        if not add(GAMMA, c, p, q, 1, sign):
            # at an edge of the annulus: one step more, across it
            split(GAMMA, outward(c) if abs(c * c) >= abs(a * b) else inward(c), p, q, 1, sign)

    if kind == MONO:
        mono(c, 1, 1)
    elif kind == THETA:
        theta(c, p, 1, 1)
    else:
        gamma(c, -1 if kind == RECIP else 1)
    return const, shift, lines, terms


# Signs of the u^k and u^-k coefficients of each series, as a column.
_SIGNS = {kind: np.array([[up], [down]]) for kind, (up, down) in
          {GAMMA: (1.0, -1.0), THETA: (-1.0, -1.0), QUOTIENT: (-1.0, -1.0)}.items()}


def _series(kind, c, p, q):
    """The series of log Gamma(c u; p, q), log theta(c u; p) or (QUOTIENT)
    log theta(c u; p) / (1 - c u) as (up, down, signs, den), or None unless
    a K <= MAX_TERMS certifies its tail: signs[0] up^k / den[k-1] is its
    coefficient of u^k and signs[1] down^k / den[k-1] that of u^-k,
    k = 1..K = len(den).

    The denominators and K are qseries._log_den's at the outer radius |c|
    and the inner |pq/c| (|p/c| for theta, which is log Gamma's series at
    q = 0 with the signs of _SIGNS; |pc| and |p/c| for QUOTIENT).
    """
    q = q if kind == GAMMA else 0j
    up, down = (c, (p * q if kind == GAMMA else p) / c) if kind != QUOTIENT else (p * c, p / c)
    a, b = abs(up), abs(down)
    if not (a < 1.0 and b < 1.0):
        return None
    try:
        den = _log_den(p, q, a, b)
    except TruncationError:
        return None
    return up, down, _SIGNS[kind], den


def _coefficients(series):
    """The coefficients of u^-K..u^K of a _series, read-only: the powers of
    up and down in one numpy call, times their signs and over the
    denominators in one each, so each has the bits of sign * x**k / den."""
    up, down, signs, den = series
    K = len(den)
    terms = signs * np.array([[up], [down]]) ** np.arange(1, K + 1) / den
    out = np.zeros(2 * K + 1, dtype=complex)
    out[K + 1 :] = terms[0]
    out[K - 1 :: -1] = terms[1]
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=_FACTORS)
def _factor(kind, bits):
    """f(c u) at the c, p and q in bits as _reduced gives it, each series
    as its coefficients: (const, shift, lines, ((coef, sign, e), ...))."""
    c, p, q = _unpack(bits)
    const, shift, lines, terms = _reduced(kind, c, p, q)
    return const, shift, tuple(lines), tuple((_coefficients(series), sign, e) for series, sign, e in terms)


class _Group(NamedTuple):
    """A group's product on u: exp of the Laurent series coef (u^-J..u^J),
    times const u^shift and each (1 - x u^e)^sign of lines, which carries
    the (kind, c, side) of its factor f(c u^side)."""

    coef: np.ndarray
    const: complex
    shift: int
    lines: tuple


def _group(reads, bits):
    """The _Group of the factors f(c u^d), and f(c u^-d) for a pm one, of
    each (kind, d, pm) of reads; bits packs each c, then p and q."""
    nomes = bits[-32:]
    const, shift, lines, terms = 1.0 + 0.0j, 0, [], []
    for j, (kind, d, both) in enumerate(reads):
        its = bits[16 * j : 16 * j + 16] + nomes
        its_const, its_shift, its_lines, its_terms = _factor(kind, its)
        c = complex(*struct.unpack("2d", its[:16]))
        for side in (d, -d)[: 1 + both]:
            const *= its_const
            shift += side * its_shift
            lines += [(x, side * e, sign, (kind, c, side)) for x, e, sign in its_lines]
            terms += [(coef, sign, side * e) for coef, sign, e in its_terms]
    J = max((len(coef) // 2 * abs(e) for coef, _, e in terms), default=0)
    coef = np.zeros(2 * J + 1, dtype=complex)
    for row, sign, e in terms:
        # u^(e j), j = -K..K, at J + e j
        K, step = len(row) // 2, abs(e)
        at = coef[J - step * K : J + step * K + 1 : step]
        row = row if e > 0 else row[::-1]
        if sign > 0:
            at += row
        else:
            at -= row
    coef.flags.writeable = False
    return _Group(coef, const, shift, tuple(lines))


def _on_circle(group, N, nomes):
    """The _Group's product at u = w[m], m = 0..N-1: one inverse FFT of its
    series folded mod N (u^j at j mod N) and one exp, times the product of
    the constant, the power and the line factors.  A line divided by within
    POLE_TOL of 0 has its factor's qseries evaluator raise the pole error."""
    coef, const, shift, lines = group
    # entry i is the coefficient of u^(i - J), so it folds at (offset + i) mod N
    offset = -(len(coef) // 2) % N
    folded = np.zeros(-(-(offset + len(coef)) // N) * N, dtype=complex)
    folded[offset : offset + len(coef)] = coef
    # const u^shift prod (1 - x u^e)^sign, then one product with the exp
    rest = const * _root_powers(N, shift) if shift else np.full(N, const)
    for x, e, sign, (kind, c, side) in lines:
        # x = 1 is an exact zero where e m = 0 mod N: w[0] = 1
        line = 1.0 - x * _root_powers(N, e)
        if sign > 0:
            rest *= line
            continue
        near = np.abs(line) < POLE_TOL
        if near.any():
            _apply(kind, c * _roots(N)[side * np.flatnonzero(near) % N], nomes)
        rest /= line
    return np.exp(np.fft.ifft(folded.reshape(-1, N).sum(axis=0), norm="forward")) * rest


# Held, a layout serves every parameter set of a kernel's shape: sweep_n1
# resolves 144 kernels of 4 shapes per pass.
@functools.lru_cache(maxsize=_LAYOUTS)
def _layout(shapes):
    """The groups of factors of the (alpha, kind, pm) shapes, as (alpha',
    the (kind, d, pm) of each factor f(c z^(d alpha')), their indices).

    A group takes the orientation alpha' of its first factor's first entry,
    so relabelling the coordinates of a kernel changes no bit of its values.
    """
    groups = {}
    for j, (alpha, kind, both) in enumerate(shapes):
        g = math.gcd(*(e for _, e in alpha)) * (1 if alpha[0][1] > 0 else -1)
        unit = tuple(sorted((i, e // g) for i, e in alpha))
        base, reads, at = groups.setdefault(unit if unit[0][1] > 0 else _mirror(unit), (unit, [], []))
        reads.append((kind, g if unit == base else -g, both))
        at.append(j)
    return tuple((base, tuple(reads), tuple(at)) for base, reads, at in groups.values())


class Kernel:
    """A factor list at its nomes; called on z, the product of the factors
    there: one value, or one per grid point.

    Any z but a Lattice is evaluated pointwise.  The first Lattice resolves
    the kernel's layout, the keys of its groups and their _Groups, group by
    group as it evaluates them; the resolution is held when that call
    returns, so each later rung runs _on_circle per distinct group, the
    gather and the product alone.
    """

    __slots__ = ("factors", "nomes", "_groups", "_reads")

    def __init__(self, factors, nomes):
        self.factors, self.nomes = factors, nomes
        self._groups = self._reads = None

    def __call__(self, z):
        if not isinstance(z, Lattice):
            return _fold(_value(f, z, self.nomes) for f in self.factors)
        N, nomes = z.N, self.nomes
        if self._reads is None:
            groups, reads, tables, index = [], [], [], {}
            for base, kinds, at in _layout(tuple((f.alpha, f.kind, f.pm) for f in self.factors)):
                key = (kinds, _pack(*(self.factors[j].c for j in at), nomes.p, nomes.q))
                if key not in index:
                    index[key] = len(groups)
                    groups.append(_group(*key))
                    tables.append(_on_circle(groups[-1], N, nomes))
                reads.append((base, index[key]))
            self._groups, self._reads = tuple(groups), tuple(reads)
        else:
            tables = [_on_circle(group, N, nomes) for group in self._groups]
        out = None
        for base, j in self._reads:
            values = tables[j][z.at(base)]
            out = values if out is None else out * values
        return 1.0 + 0.0j if out is None else out


def evaluate(factors, z, nomes):
    """Product of the factors at z: one value, or one per grid point."""
    return Kernel(factors, nomes)(z)
