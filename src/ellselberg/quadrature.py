"""Torus quadrature: product trapezoid rule, expectations, and nabla images.

The rule is the trapezoid mean over the product grid z_i = exp(2 pi i k_i/N),
which integrates periodic analytic functions against the measure
(2 pi i)^-n dz_1...dz_n/(z_1...z_n) with spectral accuracy.  The grid is
invariant under W(BC): k_i -> N - k_i and permutations of the k_i.  So
when f is invariant in some coordinates (``fold``), the mean is the orbit
sum over the sorted representatives j_1 <= ... <= j_m of min(k_i, N - k_i)
in those coordinates, each of weight

    2^#{j_i not in (0, N/2)} * m! / prod(multiplicities)! / N^n,

C(N/2 + m, m) nodes in place of N^m; the other coordinates run over the
whole circle.  N doubles from 16, each grid evaluated when its rung is
read, until |I_N - I_{N/2}| meets the tolerance or the per-circle budget is
exhausted.  Every ladder ends in one stop rule, :func:`_stop`: a stalled
ladder takes a 50x looser stop read off the differences it already holds,
so no grid is evaluated twice within one integral, and its QuadResult says
so in ``retried``.  A ladder whose caller names its integral by a key (see
:func:`_key`) reads its rungs from :func:`_rung`'s process-wide cache, so
each grid is evaluated once per process for each distinct integrand.

A rung is sum(weights * values) with numpy's fixed pairwise reduction over
a fixed node ordering (not BLAS dot, whose order depends on the build and
thread count), so a given (N, parameters) always reproduces the same bytes.
"""

from __future__ import annotations

import functools
import math
import struct
from itertools import chain

import numpy as np

from .errors import DomainError, NonConvergenceError
from .integrand import _held, _psi_kernel, _z_list, psi_tilde
from .invariants import ParameterSet, _invariant
from .kernel import GAMMA, MONO, RECIP, Factor, Kernel, Lattice
from .qseries import Nomes
from .record import Record, _set

# Points per circle of the first rung of every trapezoid ladder.
MIN_POINTS = 16

# The smallest usable budget: a ladder needs two rungs to take a difference.
MIN_BUDGET = 2 * MIN_POINTS

RETRY_NOTE = "retried at 50x looser stop"

# Rungs held by _rung's cache.  Replayed against one pass at seed 1 of the
# benchmark's suite (200 rung requests) and sweep_n1 (838), an unbounded
# cache computes 115 and 486 rungs; 32 entries lose no hit against it, 16
# lose 12 of the suite's.
_RUNGS = 32

# Lattices _nodes holds, and the most nodes a held one has.  One pass at
# seed 1, replayed against an unbounded cache, builds no more at 16: suite
# 13 lattices in 90 held reads, sweep_n1 10 in 486.  Larger grids (rank 2
# from N = 32 half folded, from N = 64 folded) are built per rung: held with
# their index arrays, they took what a suite pass leaves held to 3.3 MB
# (tracemalloc), where every cache of the parent commit held 0.55 MB.
_NODES, _HELD_NODES = 16, 512


def default_budget(n: int) -> int:
    """Per-circle point cap: 512 for n=1, 256 for n=2, 128 beyond."""
    return {1: 512, 2: 256}.get(n, 128)


class QuadratureGrid(Record):
    """Grid on the n-torus with N points per circle, folded to its W(BC)
    orbit representatives in the coordinates ``fold`` (none by default)."""

    __slots__ = ("n", "N", "fold")

    def __init__(self, n: int, N: int, fold: tuple = ()):
        if n < 1:
            raise DomainError("grid dimension must be >= 1")
        if N < 4:
            raise DomainError("need at least 4 points per circle")
        if list(fold) != sorted(set(fold) & set(range(n))):
            raise DomainError(f"fold {fold} is not an increasing list of coordinates of {n}")
        _set(self, "n", n)
        _set(self, "N", N)
        _set(self, "fold", fold)

    def nodes(self) -> Lattice:
        """The grid's nodes as a Lattice with the weight of each node.

        A grid of at most _HELD_NODES nodes is held (_nodes), with the
        index arrays its kernels read; a larger one is built afresh."""
        fold = tuple(self.fold)
        size = math.comb(self.N // 2 + len(fold), len(fold)) * self.N ** (self.n - len(fold))
        return _nodes(self.n, self.N, fold) if size <= _HELD_NODES else _lattice(self.n, self.N, fold)


def _lattice(n: int, N: int, fold: tuple, held: bool = False) -> Lattice:
    """The nodes of QuadratureGrid(n, N, fold), its arrays read-only."""
    reps, weights = _representatives(len(fold), N)
    free = [i for i in range(n) if i not in fold]
    if not free:
        return Lattice(N, reps, weights, held)
    idx = np.indices((reps.shape[1],) + (N,) * len(free)).reshape(1 + len(free), -1)
    k = np.empty((n, idx.shape[1]), dtype=np.intp)
    k[list(fold)] = reps[:, idx[0]]
    k[free] = idx[1:]
    weights = weights[idx[0]] / float(N) ** len(free)
    k.flags.writeable = weights.flags.writeable = False
    return Lattice(N, k, weights, held)


@functools.lru_cache(maxsize=_NODES)
def _nodes(n: int, N: int, fold: tuple) -> Lattice:
    """_lattice, held."""
    return _lattice(n, N, fold, held=True)


@functools.lru_cache(maxsize=32)
def _representatives(m: int, N: int):
    """The W(BC_m) orbits of the N-grid in m coordinates, read-only: every
    j_1 <= ... <= j_m in 0..N/2 as the columns of an (m, C(N/2 + m, m))
    array in lexicographic order, and the trapezoid weight of each one's
    orbit, 2^#{j_i not in (0, N/2)} * m! / prod(multiplicities)! / N^m."""
    reps = np.zeros((0, 1), dtype=np.intp)
    for _ in range(m):
        low = reps[-1] if len(reps) else np.zeros(1, dtype=np.intp)
        counts = N // 2 + 1 - low
        col = np.repeat(np.arange(reps.shape[1]), counts)
        start = np.cumsum(counts) - counts
        reps = np.vstack([reps[:, col], low[col] + np.arange(col.size) - start[col]])
    size = 2 ** np.count_nonzero((reps != 0) & (2 * reps != N), axis=0) * math.factorial(m)
    run = np.ones(reps.shape[1], dtype=np.intp)
    for i in range(1, m):
        run = np.where(reps[i] == reps[i - 1], run + 1, 1)
        size //= run
    weights = size / float(N) ** m
    reps.flags.writeable = weights.flags.writeable = False
    return reps, weights


class QuadResult(Record):
    """Outcome of a converged refinement ladder.

    ``history`` records (N, |I_N - I_{N/2}|) for every completed doubling;
    ``retried``, whether the ladder took the 50x looser stop (see _stop).
    """

    __slots__ = ("value", "err_est", "N_used", "history", "retried")

    def __init__(
        self, value: complex, err_est: float, N_used: int, history: tuple = (), retried: bool = False
    ):
        _set(self, "value", value)
        _set(self, "err_est", err_est)
        _set(self, "N_used", N_used)
        _set(self, "history", history)
        _set(self, "retried", retried)


def _key(tag: str, ints: tuple, numbers) -> tuple:
    """The key that names a ladder's integral: a family tag, its integers
    and the exact bits of every complex number the integrand reads (== would
    take 0.0 and -0.0 as one number)."""
    parts = [x for v in map(complex, numbers) for x in (v.real, v.imag)]
    return (tag, *ints, struct.pack(f"{len(parts)}d", *parts))


def _params_key(tag: str, ints: tuple, params: ParameterSet, nomes: Nomes) -> tuple:
    """_key of an integrand that reads ints, n, a_1..a_6, t, p and q."""
    return _key(tag, (*ints, params.n), (*params.a, params.t, nomes.p, nomes.q))


class _Ladder(Record):
    """A ladder's integrand f on the n-torus, folded in ``fold``.  It hashes
    and compares by its key, n and the number of folded coordinates alone,
    so ladders equal up to a relabelling of the coordinates share rungs."""

    __slots__ = ("key", "n", "folded", "fold", "f")

    def __init__(self, key: tuple, n: int, folded: int, fold: tuple, f):
        _set(self, "key", key)
        _set(self, "n", n)
        _set(self, "folded", folded)
        _set(self, "fold", fold)
        _set(self, "f", f)

    def __eq__(self, other):
        if other.__class__ is not _Ladder:
            return NotImplemented
        return (self.key, self.n, self.folded) == (other.key, other.n, other.folded)

    def __hash__(self):
        return hash((self.key, self.n, self.folded))


def _mean(z, values):
    """The trapezoid mean sum(weights * values) on the grid z, as a complex;
    the tuple of them when f returns a tuple of arrays."""
    if type(values) is tuple:
        return tuple(_mean(z, v) for v in values)
    return complex(np.sum(z.weights * np.asarray(values)))


def _grid_mean(ladder: _Ladder, N: int):
    """The rung of ``ladder`` at N: the mean of its f on the N-grid."""
    z = QuadratureGrid(ladder.n, N, ladder.fold).nodes()
    return _mean(z, ladder.f(z))


# The rungs of keyed ladders, process-wide.  A rung's value depends on
# neither tolerance nor budget, which stay out of the key; an error is not
# cached.  What it holds changes the time a run takes, never a bit of its
# output.
_rung = functools.lru_cache(maxsize=_RUNGS)(_grid_mean)


def _rungs(f, n: int, budget: int | None = None, fold=(), key=None):
    """(N, trapezoid mean of f on the N-grid) for N = 16, 32, ... up to the
    budget, each grid evaluated when its rung is asked for; the budget is
    checked first.  f must be W(BC)-invariant in the coordinates ``fold``,
    which are summed over orbit representatives.  A ladder with a ``key``
    (see _key) reads its rungs from _rung's cache: equal keys must give
    bit-equal rungs.  A ladder without one is not cached."""
    if budget is None:
        budget = default_budget(n)
    if budget < MIN_BUDGET:
        raise DomainError(f"budget {budget} below the minimum {MIN_BUDGET}: a ladder needs two rungs")
    sizes = (MIN_POINTS << k for k in range((budget // MIN_POINTS).bit_length()))
    fold = tuple(fold)
    ladder = _Ladder(key, n, len(fold), fold, f)
    rung = _grid_mean if key is None else _rung
    return ((N, rung(ladder, N)) for N in sizes)


def _stop(rungs, tol: float) -> QuadResult:
    """The first rung whose mean moved by at most tol since the rung before.

    When no rung does, the first within 50 tol, marked ``retried``:
    |I_N - I_{N/2}| lags the error of I_N by one doubling, and the looser
    stop reads the differences already taken, so no grid is evaluated
    again.  Raises NonConvergenceError when that stalls too, and only then.
    """
    values, history = [], []
    for N, value in rungs:
        if values:
            err = abs(value - values[-1])
            history.append((N, err))
            if err <= tol:
                return QuadResult(value, err, N, tuple(history))
        values.append(value)
    loose = 50 * tol
    for j, (N, err) in enumerate(history):
        if err <= loose:
            return QuadResult(values[j + 1], err, N, tuple(history[: j + 1]), retried=True)
    coarse = history[-2][1] if len(history) >= 2 else np.inf
    raise NonConvergenceError(
        f"quadrature stalled at N={N}: err_est={err:.3e} > tol={loose:.3e}",
        estimates=(float(coarse), float(err)),
    )


def torus_integrate(
    f,
    n: int,
    tol: float,
    budget: int | None = None,
    fold=(),
    key=None,
) -> QuadResult:
    """Integrate f over the n-torus against the normalized measure.

    f receives each rung's grid as a :class:`Lattice`: a sequence of n
    equal-length coordinate arrays, z[i] gathered from the N-th roots of
    unity when it is read, with the node weights and index arrays beside
    them (the kernels read those alone); f must return the elementwise
    values.  ``fold`` names the coordinates in which f is W(BC)-invariant
    (z_i -> 1/z_i and their permutations); the grid is summed over orbit
    representatives there.  A ladder whose err_est stays above tol up to the
    budget stops at the first rung within 50 tol instead, ``retried`` (see
    _stop); NonConvergenceError is raised when none is.  ``key`` names the
    integral for the rung cache (see _rungs); without one nothing is cached.
    """
    return _stop(_rungs(f, n, budget, fold, key), tol)


def _weighted(phi, params, nomes):
    """The integrand z -> phi(z) Psi~(z) of <phi> = integral of phi Psi~
    over the torus, for a quadrature ladder.

    The product is formed as phi(z) * Psi~(z): numpy's complex array product
    is not bitwise commutative, and report bytes rest on this order.
    """

    def f(z):
        w = psi_tilde(z, params, nomes)
        return phi(z) * w

    return f


def _nabla_term(i, rest, params, nomes, shifted=False):
    """Factors of phi_{r,i} Psi~ that involve z_i (= w), in fused form.

    Combines F_i^-(w) with the w-factors of Psi~ through
    theta(u; p) Gamma(u; p, q) = Gamma(q u; p, q), leaving only Gamma
    evaluations that stay clear of torus collision points:

      w^2 (-a_6/w) Gamma(p a_6 w) Gamma(p q a_6 / w)
        * prod_{m<=5} Gamma(a_m w) Gamma(q a_m / w) / [Gamma(w^2) Gamma(q/w^2)]
        * prod_{v in rest} Gamma(t w v^+-1) Gamma(q t v^+-1 / w)
                           / [Gamma(w v^+-1) Gamma(q v^+-1 / w)]

    ``shifted`` gives the same factors at w -> q w, written into their
    constants: w is each factor's first coordinate, and c (q w)^e is
    (c q^e) w^e.
    """
    p, q, t, a6 = nomes.p, nomes.q, params.t, params.a[5]
    single = [(MONO, 1, 2), (MONO, -a6, -1), (GAMMA, p * a6, 1), (GAMMA, p * q * a6, -1)]
    for am in params.a[:5]:
        single += [(GAMMA, am, 1), (GAMMA, q * am, -1)]
    single += [(RECIP, 1, 2), (RECIP, q, -2)]
    out = [Factor(kind, c, ((i, e),)) for kind, c, e in single]
    pair = [(GAMMA, t, 1), (GAMMA, q * t, -1), (RECIP, 1.0, 1), (RECIP, q, -1)]
    for v in rest:
        out += [Factor(kind, c, ((i, e), (v, s))) for s in (1, -1) for kind, c, e in pair]
    if shifted:
        out = [f._replace(c=f.c * q ** f.alpha[0][1]) for f in out]
    return out


def _nabla_pointwise(r, i, z, params, nomes):
    """(G, |H|) for H = phi_{r,i} Psi~ and G(z) = H(z) - H(z | z_i -> q z_i), fused form."""
    zs = _z_list(z, params.n)
    return _held(params, ("nabla", r, i), nomes, lambda: _nabla(r, i, params, nomes))(zs)


def _nabla(r, i, params, nomes):
    """_nabla_pointwise's function of z, its four kernels resolved once: the
    common factor E_{r-1} Psi~ in the coordinates other than z_i and the
    plain and shifted terms."""
    rest = [j for j in range(params.n) if j != i - 1]
    e_r = _invariant(r - 1, params.a[0], params.a[5], params.t, nomes.p, rest)
    weight = Kernel(_psi_kernel(params, nomes, True, rest), nomes)
    plain = Kernel(_nabla_term(i - 1, rest, params, nomes), nomes)
    shifted = Kernel(_nabla_term(i - 1, rest, params, nomes, shifted=True), nomes)

    def f(zs):
        common = e_r(zs)
        common = common * weight(zs)
        t_plain = plain(zs)
        t_shift = shifted(zs)
        return common * (t_plain - t_shift), np.abs(common * t_plain)

    return f


def nabla_quad(
    r: int,
    i: int,
    params: ParameterSet,
    nomes: Nomes,
    tol: float,
    budget: int | None = None,
) -> tuple[QuadResult, float]:
    """Quadrature of the nabla image of phi_{r,i} plus a magnitude reference.

    tol is relative to the reference scale <|phi Psi~|>, estimated on the
    ladder's first grid; the returned reference is the mean on the ladder's
    final grid.  The value is expected to vanish up to quadrature error.
    """
    n = params.n
    if not 1 <= r <= n:
        raise DomainError(f"need 1 <= r <= n, got r={r}")
    if not 1 <= i <= n:
        raise DomainError(f"need 1 <= i <= n, got i={i}")
    if nomes.p == 0:
        raise DomainError("the fused nabla image needs p != 0")
    if nomes.q == 0:
        raise DomainError("the fused nabla image needs q != 0")

    # G and |phi Psi~| are W(BC_{n-1})-invariant in the coordinates other
    # than z_i, and the nabla image of each i is one integral up to a
    # relabelling of those coordinates: i is not in the key
    rungs = _rungs(
        lambda z: _nabla_pointwise(r, i, z, params, nomes),
        n, budget, [j for j in range(n) if j != i - 1],
        _params_key("nabla", (r,), params, nomes),
    )
    href = {}  # N -> mean of |phi Psi~| on the N-grid

    def values():
        for N, (value, h) in rungs:
            href[N] = h.real
            yield N, value

    ladder = values()
    first = next(ladder)
    res = _stop(chain([first], ladder), tol * (href[MIN_POINTS] or 1.0))
    return res, href[res.N_used]
