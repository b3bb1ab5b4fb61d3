"""Torus integrand kernels, their q-shift ratios, and domain bookkeeping.

The central object is the n-variable kernel

    Psi(z) = prod_i [prod_{m=1}^6 Gamma(a_m z_i^{+-1})] / Gamma(z_i^{+-2})
           * prod_{j<k} Gamma(t z_j^{+-1} z_k^{+-1}) / Gamma(z_j^{+-1} z_k^{+-1})

and its companion Psi~ obtained by replacing a_6 with p a_6.  Every
denominator Gamma is evaluated through the reciprocal path, so the kernel
stays finite (instead of 0/0) on the measure-zero sets z_i = +-1 and
z_i = z_j^{+-1} that product grids necessarily contain.  It is exactly 0
there only where the denominator's argument rounds to exactly 1: at z_i = 1
on every path, and at z_i = z_j^{+-1} on a Lattice (the pair table's
argument is exp(0) = 1).  Pointwise, z_i = z_j^{-1} gives an exact zero only
where z_i z_j rounds to 1 (2 of 16 such nodes on a rank-2, N = 16 grid), and
z_i = exp(i pi) leaves |Psi| near 1e-30 on both paths.

All kernels accept z as a TorusPoint, a length-n sequence of complex values,
or a length-n sequence of equal-shape complex arrays (elementwise grids).
Each kernel is one factor list (see :mod:`.kernel`): a quadrature node list
(a Lattice) is evaluated by per-factor tables, any other input pointwise.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigurationError, DomainError
from .invariants import BalancingMode, ParameterSet
from .kernel import GAMMA, RECIP, Factor, Lattice, evaluate, pm
from .qseries import (
    Nomes,
    TruncationPolicy,
    _euler_pair,
    _gamma_product,
    elliptic_gamma,
    theta,
    theta_pm,
)


@dataclass(frozen=True)
class TorusPoint:
    """A point of (C^*)^n, stored as a tuple of nonzero complex coordinates."""

    values: tuple[complex, ...]

    def __post_init__(self):
        vals = tuple(complex(v) for v in self.values)
        if any(v == 0 for v in vals):
            raise DomainError("torus point coordinates must be nonzero")
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return len(self.values)


def _z_list(z, n: int) -> list:
    """Normalize z to a list of n scalars or equal-shape arrays (a Lattice as is)."""
    if isinstance(z, Lattice) and len(z) == n:
        return z
    if isinstance(z, TorusPoint):
        vals = list(z.values)
    else:
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
    out = [f._replace(alpha=((i, f.alpha[0][1]),)) for i in coords for f in per_variable + _WEYL]
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


def psi(z, params: ParameterSet, nomes: Nomes, policy: TruncationPolicy | None = None):
    """The BC_n kernel Psi(z) for the given parameter set.

    A vanishing entry (possible only when p q = 0, e.g. the solved a_6 of a
    PQ-balanced set at p = 0) is evaluated as the balanced limit: its Gamma
    factors become single Pochhammer factors in the dual parameter
    t^(2n-2) prod of the remaining entries.
    """
    return evaluate(_psi_kernel(params, nomes), _z_list(z, params.n), nomes, policy)


def psi_tilde(z, params: ParameterSet, nomes: Nomes, policy: TruncationPolicy | None = None):
    """Psi~(z) = Psi(z) with a_6 replaced by p a_6 (the expectation kernel).

    At p = 0 the sixth factor is Gamma(0 * z^{+-1}) = 1 and simply drops;
    unlike :func:`psi` no dual-parameter limit is implied.
    """
    return evaluate(_psi_kernel(params, nomes, tilde=True), _z_list(z, params.n), nomes, policy)


def psi_tilde_alt(z, params: ParameterSet, nomes: Nomes,
                  policy: TruncationPolicy | None = None):
    """Psi~ written with Gamma(q a_6^-1 z_i^{+-1}) in the denominator.

    Equal to :func:`psi_tilde` by the reflection Gamma(u) Gamma(pq/u) = 1;
    kept as an independent evaluation path for validation.  The reflection
    degenerates at p = 0, where only :func:`psi_tilde` is defined.
    """
    if nomes.p == 0:
        raise DomainError("the reflected kernel form needs p != 0")
    per = [pm(GAMMA, am) for am in params.a[:5]] + [pm(RECIP, nomes.q / params.a[5])]
    kernel = _bc_kernel(per, params.t, range(params.n))
    return evaluate(kernel, _z_list(z, params.n), nomes, policy)


def qshift_ratio_z(
    i: int,
    z,
    params: ParameterSet,
    nomes: Nomes,
    policy: TruncationPolicy | None = None,
):
    """Closed theta form of T_{q,z_i} Psi~ / Psi~ (z_i multiplied by q).

    Equals

      -(q z_i)^-2 theta(q^-2 z_i^-2; p) / (z_i^2 theta(z_i^2; p))
      * prod_{m=1}^6 theta(a_m z_i; p) / theta(q^-1 a_m z_i^-1; p)
      * prod_{k != i} theta(t z_i z_k^{+-1}; p) theta(q^-1 z_i^-1 z_k^{+-1}; p)
                     / [theta(q^-1 t z_i^-1 z_k^{+-1}; p) theta(z_i z_k^{+-1}; p)]

    with the plain a_6 (the p of Psi~'s sixth entry is absorbed by the
    prefactor).  Matches the direct quotient psi_tilde(.., q z_i, ..)/psi_tilde(z).
    """
    if not 1 <= i <= params.n:
        raise DomainError(f"need 1 <= i <= n, got i={i}")
    zs = _z_list(z, params.n)
    p, q, t = nomes.p, nomes.q, params.t
    zi = zs[i - 1]
    out = -((q * zi) ** -2) * theta(q**-2 * zi**-2, p, policy) / (
        zi**2 * theta(zi**2, p, policy)
    )
    for am in params.a:
        out = out * theta(am * zi, p, policy) / theta(am / (q * zi), p, policy)
    for k in range(1, params.n + 1):
        if k == i:
            continue
        zk = zs[k - 1]
        out = (
            out
            * theta_pm(t * zi, zk, p, policy)
            * theta_pm(1.0 / (q * zi), zk, p, policy)
            / theta_pm(t / (q * zi), zk, p, policy)
            / theta_pm(zi, zk, p, policy)
        )
    return out


def qshift_ratio_a(
    m: int,
    z,
    params: ParameterSet,
    nomes: Nomes,
    policy: TruncationPolicy | None = None,
):
    """Closed theta form of T_{q,a_m} Psi~ / Psi~ (a_m multiplied by q).

    For m <= 5 this is prod_i theta(a_m z_i^{+-1}; p); for m = 6 it is
    a_6^(-2n) prod_i theta(a_6 z_i^{+-1}; p).
    """
    if not 1 <= m <= 6:
        raise DomainError(f"need 1 <= m <= 6, got m={m}")
    zs = _z_list(z, params.n)
    p = nomes.p
    am = params.a[m - 1]
    out = 1.0 + 0.0j
    for zi in zs:
        out = out * theta_pm(am, zi, p, policy)
    if m == 6:
        out = out * am ** (-2 * params.n)
    return out


def j_closed(params: ParameterSet, nomes: Nomes,
              policy: TruncationPolicy | None = None) -> complex:
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
    out = _gamma_product(pairs, nomes, policy)
    if duals:
        out *= _gamma_product(duals, nomes, policy, recip=True)
    return out


def c_constant(n: int, nomes: Nomes, t: complex,
               policy: TruncationPolicy | None = None) -> complex:
    """c_n = 2^n n! / ((p;p)_inf (q;q)_inf)^n * prod_{i=1}^n Gamma(t^i)/Gamma(t)."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    out = 2.0**n * math.factorial(n) / _euler_pair(nomes, policy) ** n
    gt = elliptic_gamma(t, nomes, policy)
    for i in range(1, n + 1):
        out *= elliptic_gamma(t**i, nomes, policy) / gt
    return out


@dataclass(frozen=True)
class PoleSets:
    """Integrand pole locations in one z coordinate, clipped to a window.

    ``s0`` collects the inward orbit p^mu q^nu a_m, ``s_inf`` the outward
    orbit p^-mu q^-nu a_m^-1; each entry is (value, m, mu, nu).  The window
    is the annulus [r, 1/r].
    """

    s0: tuple
    s_inf: tuple
    window: tuple[float, float]

    def min_separation(self) -> float:
        """Smallest distance between the two sets (inf when either is empty)."""
        if not self.s0 or not self.s_inf:
            return math.inf
        return min(
            abs(v - w) for v, _, _, _ in self.s0 for w, _, _, _ in self.s_inf
        )


def pole_sets(params: ParameterSet, nomes: Nomes, r: float) -> PoleSets:
    """Enumerate single-coordinate integrand poles within the annulus [r, 1/r]."""
    if not 0 < r <= 1:
        raise DomainError("window parameter r must lie in (0, 1]")
    r_hi = 1.0 / r
    p, q = nomes.p, nomes.q
    s0, s_inf = [], []
    for m, am in enumerate(params.a, start=1):
        if am == 0:
            continue
        pm_val = am
        mu = 0
        while abs(pm_val) >= r:
            v = pm_val
            nu = 0
            while abs(v) >= r:
                if abs(v) <= r_hi:
                    s0.append((v, m, mu, nu))
                if q == 0:
                    break
                v *= q
                nu += 1
            if p == 0:
                break
            pm_val *= p
            mu += 1
        inv = 1.0 / am
        mu = 0
        pm_val = inv
        while abs(pm_val) <= r_hi:
            v = pm_val
            nu = 0
            while abs(v) <= r_hi:
                if abs(v) >= r:
                    s_inf.append((v, m, mu, nu))
                if q == 0:
                    break
                v /= q
                nu += 1
            if p == 0:
                break
            pm_val /= p
            mu += 1
    return PoleSets(s0=tuple(s0), s_inf=tuple(s_inf), window=(r, r_hi))


class DomainClass(Enum):
    """Nested parameter domains, deepest applicable class reported."""

    OUTSIDE = "outside"
    U = "U"
    U0 = "U0"
    V0 = "V0"
    W0 = "W0"


def domain_classify(
    params: ParameterSet,
    nomes: Nomes,
    r: float | None = None,
    s: float | None = None,
) -> DomainClass:
    """Classify the parameter set by strict membership.

    U: all |a_m| < 1.  U0: additionally |a_1...a_5| > |p q| / |t|^(2n-2).
    V0: |a_1...a_5| > |p| / |t|^(2n-2).  W0 (only checked when the window
    (r, s) is supplied): additionally s r < |a_m| < r for m <= 5.
    """
    if any(abs(v) >= 1 for v in params.a):
        return DomainClass.OUTSIDE
    t_pow = abs(params.t) ** (2 * params.n - 2)
    prod5 = 1.0
    for v in params.a[:5]:
        prod5 *= abs(v)
    if not prod5 > abs(nomes.pq) / t_pow:
        return DomainClass.U
    if not prod5 > abs(nomes.p) / t_pow:
        return DomainClass.U0
    if r is not None and s is not None:
        if all(s * r < abs(v) < r for v in params.a[:5]):
            return DomainClass.W0
    return DomainClass.V0


def w0_window(nomes: Nomes, t: complex, n: int) -> tuple[float, float]:
    """Solve the W0 window inequalities for (r, s).

    Requires 0 < r < |q|^(1/4), r^4 |t|^(n-1) <= s < |q| and
    |p| <= s^5 r^5 |t|^(2n-2); feasible whenever |p| < |q|^(25/4) |t|^(2n-2).
    Returns the (r, s) with the widest relative s margin.
    """
    q_abs, p_abs, t_abs = abs(nomes.q), abs(nomes.p), abs(t)
    if q_abs == 0:
        raise ConfigurationError("W0 window needs q != 0")
    best = None
    for frac in np.linspace(0.30, 0.995, 60):
        r = q_abs**0.25 * float(frac)
        s_lo = r**4 * t_abs ** (n - 1)
        if p_abs > 0:
            s_lo = max(s_lo, (p_abs / (r**5 * t_abs ** (2 * n - 2))) ** 0.2)
        s_hi = q_abs
        if s_lo < s_hi:
            margin = s_hi / s_lo
            if best is None or margin > best[0]:
                best = (margin, r, math.sqrt(s_lo * s_hi))
    if best is None:
        raise ConfigurationError(
            f"W0 window infeasible for |p|={p_abs}, |q|={q_abs}, |t|={t_abs}, n={n}"
        )
    return best[1], best[2]
