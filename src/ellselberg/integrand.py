"""Torus integrand kernels and the closed-form products c_n and J.

The central object is the n-variable kernel

    Psi(z) = prod_i [prod_{m=1}^6 Gamma(a_m z_i^{+-1})] / Gamma(z_i^{+-2})
           * prod_{j<k} Gamma(t z_j^{+-1} z_k^{+-1}) / Gamma(z_j^{+-1} z_k^{+-1})

and its companion Psi~ obtained by replacing a_6 with p a_6.  Every
denominator Gamma is evaluated through the reciprocal path, so the kernel
stays finite (instead of 0/0) on the measure-zero sets z_i = +-1 and
z_i = z_j^{+-1} that product grids necessarily contain.  It is exactly 0
there only where the denominator's zero is exact: at z_i = 1 on every path,
and at z_i = -1 and z_i = z_j^{+-1} on a Lattice.  There 1/Gamma(u) carries
its zero as the factor 1 - u, and u = w[2 (N/2) mod N] = w[(k_i -+ k_j) mod N]
is read from the roots by index as w[0] = 1 (see :mod:`.kernel`).
Pointwise, z_i = z_j^{-1} gives an exact zero only where z_i z_j rounds to
1 (2 of 16 such nodes on a rank-2, N = 16 grid), and z_i = exp(i pi), which
rounds to -1 + 1.2e-16i, leaves |Psi| near 1e-32 to 1e-30.

All kernels accept z as a length-n sequence of nonzero complex values or of
equal-shape complex arrays (elementwise grids).
Each kernel is one factor list (see :mod:`.kernel`): on a quadrature node
list (a Lattice) it is summed in log space, one group of factors at a time,
and read by its index arrays alone; any other input is evaluated pointwise.
A kernel is resolved once per parameter set (:func:`_held`): the ladder
that holds the set reads its groups back on every rung.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import DomainError
from .invariants import ParameterSet
from .kernel import GAMMA, RECIP, Factor, Kernel, Lattice, pm
from .qseries import Nomes, _euler_pair, _gamma_product, elliptic_gamma


def _z_list(z, n: int) -> list:
    """Normalize z to a list of n scalars or equal-shape arrays (a Lattice as is)."""
    if isinstance(z, Lattice) and len(z) == n:
        return z
    vals = list(z)
    if len(vals) != n:
        raise DomainError(f"expected {n} torus coordinates, got {len(vals)}")
    out = []
    for v in vals:
        if np.isscalar(v):
            v = complex(v)
            if v == 0:
                raise DomainError("torus coordinates must be nonzero")
        else:
            v = np.asarray(v, dtype=complex)
            if np.any(v == 0):
                raise DomainError("torus coordinates must be nonzero")
        out.append(v)
    return out


def _dual_of_zero(a, t, n, nomes):
    """Interpret one vanishing parameter as a balanced limit.

    When p q = 0 the balancing prod_m a_m t^(2n-2) = p q forces one entry to
    0; the finite dual A = p q / a_zero = t^(2n-2) prod_{m != zero} a_m is
    what survives in Gamma(a_zero x; p, q) -> (A / x; q)_inf.  Returns
    (index, A) for exactly one zero entry, None when all entries are nonzero.
    """
    zeros = [m for m, v in enumerate(a) if v == 0]
    if not zeros:
        return None
    if nomes.pq != 0:
        raise DomainError("zero parameter entries require p q = 0")
    if len(zeros) > 1:
        raise DomainError("at most one parameter entry may vanish")
    dual = t ** (2 * n - 2)
    for m, v in enumerate(a):
        if m != zeros[0]:
            dual *= v
    return zeros[0], dual


# Gamma(z^{+-2}) in the denominator of every BC_n kernel.
_WEYL = [Factor(RECIP, 1.0, ((0, 2),)), Factor(RECIP, 1.0, ((0, -2),))]


def _bc_kernel(per_variable, t, coords):
    """prod_{i in coords} [per_variable at z_i] / Gamma(z_i^{+-2})
    * prod_{j<k} Gamma(t z_j^{+-1} z_k^{+-1}) / Gamma(z_j^{+-1} z_k^{+-1});
    per_variable is written in coordinate 0, t=None drops the Gamma(t ..) factors.
    """
    out = [Factor(f.kind, f.c, ((i, f.alpha[0][1]),), f.pm) for i in coords for f in per_variable + _WEYL]
    pairs = [(RECIP, 1.0)] if t is None else [(GAMMA, t), (RECIP, 1.0)]
    for j, k in itertools.combinations(coords, 2):
        out += [Factor(kind, c, ((j, 1), (k, s)), True) for kind, c in pairs for s in (1, -1)]
    return out


def _psi_kernel(params, nomes, tilde=False, coords=None):
    """Psi, or Psi~ (a_6 -> p a_6) when ``tilde`` is set, on coords (all n by default)."""
    a = list(params.a)
    if tilde:
        a[5] = nomes.p * a[5]
    zero = None if tilde else _dual_of_zero(a, params.t, params.n, nomes)
    per = []
    for am in a:
        if am != 0:
            per.append(pm(GAMMA, am))
        elif zero is not None:
            per += [Factor(RECIP, zero[1], ((0, 1),)), Factor(RECIP, zero[1], ((0, -1),))]
    return _bc_kernel(per, params.t, range(params.n) if coords is None else coords)


def _held(params: ParameterSet, key, nomes: Nomes, make):
    """make(), held on params under key while it is asked for with the same
    nomes object: a kernel resolved from the set is resolved once.  An error
    in make holds nothing."""
    held = params._held.get(key)
    if held is None or held[0] is not nomes:
        held = params._held[key] = (nomes, make())
    return held[1]


def _psi(params: ParameterSet, nomes: Nomes, tilde: bool = False) -> Kernel:
    """The Kernel of Psi (Psi~ with ``tilde``), held on params."""
    return _held(params, ("psi", tilde), nomes, lambda: Kernel(_psi_kernel(params, nomes, tilde), nomes))


def psi(z, params: ParameterSet, nomes: Nomes):
    """The BC_n kernel Psi(z) for the given parameter set.

    A vanishing entry (possible only when p q = 0, e.g. the solved a_6 of a
    PQ-balanced set at p = 0) is evaluated as the balanced limit: its Gamma
    factors become single Pochhammer factors in the dual parameter
    t^(2n-2) prod of the remaining entries.
    """
    return _psi(params, nomes)(_z_list(z, params.n))


def psi_tilde(z, params: ParameterSet, nomes: Nomes):
    """Psi~(z) = Psi(z) with a_6 replaced by p a_6 (the expectation kernel).

    At p = 0 the sixth factor is Gamma(0 * z^{+-1}) = 1 and simply drops;
    unlike :func:`psi` no dual-parameter limit is implied.
    """
    return _psi(params, nomes, tilde=True)(_z_list(z, params.n))


def j_closed(params: ParameterSet, nomes: Nomes) -> complex:
    """J(a_1..a_6) = prod_{i=1}^n prod_{1<=j<k<=6} Gamma(a_j a_k t^(i-1)).

    Under the PQ balancing, c_n * J is the closed evaluation of the torus
    integral of Psi.  A vanishing entry follows the same balanced-limit
    convention as :func:`psi`: its pairs contribute Pochhammer factors in
    the dual parameter.
    """
    zero = _dual_of_zero(params.a, params.t, params.n, nomes)
    pairs, duals = [], []
    for i in range(1, params.n + 1):
        ti = params.t ** (i - 1)
        for j in range(6):
            for k in range(j + 1, 6):
                if zero is not None and zero[0] in (j, k):
                    other = params.a[k if zero[0] == j else j]
                    duals.append(zero[1] / (other * ti))
                else:
                    pairs.append(params.a[j] * params.a[k] * ti)
    out = _gamma_product(pairs, nomes)
    if duals:
        out *= _gamma_product(duals, nomes, recip=True)
    return out


def c_constant(n: int, nomes: Nomes, t: complex) -> complex:
    """c_n = 2^n n! / ((p;p)_inf (q;q)_inf)^n * prod_{i=1}^n Gamma(t^i)/Gamma(t)."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    out = 2.0**n * math.factorial(n) / _euler_pair(nomes) ** n
    gt = elliptic_gamma(t, nomes)
    for i in range(1, n + 1):
        out *= elliptic_gamma(t**i, nomes) / gt
    return out
