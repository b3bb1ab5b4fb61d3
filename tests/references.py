"""Independent evaluation paths that the package itself never calls.

Each formula here restates a quantity the package computes another way
(the reflected kernel, the q-shift ratios in closed theta form, the closed
E_0/E_n, the phi test functions of the nabla image, the Gamma residue, the
pinch limits as numerical limits), so the tests can check the package
against it; Gamma(a z^{+-1}), which the oracle tests check, is the
package's own product.  Unlike
:mod:`oracles`, these are built from the package's own theta/Gamma
evaluators at double precision.
"""

import numpy as np

from ellselberg import DomainError, Nomes, ParameterSet, TruncationError
from ellselberg.integrand import _bc_kernel, _z_list
from ellselberg.invariants import _theta_den, fundamental_invariant
from ellselberg.kernel import GAMMA, RECIP, evaluate, pm
from ellselberg.qseries import _euler_pair, elliptic_gamma, theta, theta_pm


def gamma_pm(a: complex, z, nomes: Nomes):
    """Double-sign gamma product Gamma(a z^{+-1}) = Gamma(az) Gamma(a/z)."""
    return elliptic_gamma(a * z, nomes) * elliptic_gamma(a / z, nomes)


def psi_tilde_alt(z, params: ParameterSet, nomes: Nomes):
    """Psi~ written with Gamma(q a_6^-1 z_i^{+-1}) in the denominator.

    Equal to ``psi_tilde`` by the reflection Gamma(u) Gamma(pq/u) = 1;
    kept as an independent evaluation path for validation.  The reflection
    degenerates at p = 0, where only ``psi_tilde`` is defined.
    """
    if nomes.p == 0:
        raise DomainError("the reflected kernel form needs p != 0")
    per = [pm(GAMMA, am) for am in params.a[:5]] + [pm(RECIP, nomes.q / params.a[5])]
    kernel = _bc_kernel(per, params.t, range(params.n))
    return evaluate(kernel, _z_list(z, params.n), nomes)


def qshift_ratio_z(
    i: int,
    z,
    params: ParameterSet,
    nomes: Nomes,
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
    out = -((q * zi) ** -2) * theta(q**-2 * zi**-2, p) / (
        zi**2 * theta(zi**2, p)
    )
    for am in params.a:
        out = out * theta(am * zi, p) / theta(am / (q * zi), p)
    for k in range(1, params.n + 1):
        if k == i:
            continue
        zk = zs[k - 1]
        out = (
            out
            * theta_pm(t * zi, zk, p)
            * theta_pm(1.0 / (q * zi), zk, p)
            / theta_pm(t / (q * zi), zk, p)
            / theta_pm(zi, zk, p)
        )
    return out


def qshift_ratio_a(
    m: int,
    z,
    params: ParameterSet,
    nomes: Nomes,
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
        out = out * theta_pm(am, zi, p)
    if m == 6:
        out = out * am ** (-2 * params.n)
    return out


def e0_closed(a: complex, b: complex, z, t: complex, p: complex):
    """Closed form E_0(a, b; z) = prod_i theta(a z_i^{+-1}) / theta(a (b t^(i-1))^{+-1})."""
    out = 1.0 + 0.0j
    for i, w in enumerate(z, start=1):
        den = _theta_den(theta_pm(a, b * t ** (i - 1), p), f"a (b t^{i - 1})^(+-1)")
        out = out * theta_pm(a, w if np.isscalar(w) else np.asarray(w, dtype=complex), p) / den
    return out


def en_closed(a: complex, b: complex, z, t: complex, p: complex):
    """Closed form E_n(a, b; z) = prod_i theta(b z_i^{+-1}) / theta(b (a t^(i-1))^{+-1})."""
    return e0_closed(b, a, z, t, p)


def _f_minus(i: int, params: ParameterSet, nomes: Nomes, z):
    """F_i^-(z): the single-sign theta kernel used by the phi test functions.

    F_i^-(z) = [prod_m theta(a_m z_i^-1; p)] / (z_i^-2 theta(z_i^-2; p))
               * prod_{j != i} theta(t z_i^-1 z_j^{+-1}; p) / theta(z_i^-1 z_j^{+-1}; p)

    Not defined at z_i^2 = 1 or z_i = z_j^{+-1} (simple poles; the companion
    kernel's zeros cancel them only in fused evaluation).
    """
    p, t = nomes.p, params.t
    zi = z[i - 1]
    zi = complex(zi) if np.isscalar(zi) else np.asarray(zi, dtype=complex)
    inv = 1.0 / zi
    out = 1.0 + 0.0j
    for am in params.a:
        out = out * theta(am * inv, p)
    out = out / (inv**2 * theta(inv**2, p))
    for j in range(1, params.n + 1):
        if j == i:
            continue
        zj = z[j - 1]
        zj = complex(zj) if np.isscalar(zj) else np.asarray(zj, dtype=complex)
        out = out * theta_pm(t * inv, zj, p) / theta_pm(inv, zj, p)
    return out


def phi_test_function(
    r: int,
    i: int,
    params: ParameterSet,
    nomes: Nomes,
    z,
):
    """phi_(r,i)(z) = F_i^-(z) * E_(r-1)^(n-1)(a_1, a_6; z with z_i omitted).

    For n = 1 the invariant factor is empty and phi = F_1^-.
    """
    if not 1 <= r <= params.n:
        raise DomainError(f"need 1 <= r <= n, got r={r}")
    if not 1 <= i <= params.n:
        raise DomainError(f"need 1 <= i <= n, got i={i}")
    out = _f_minus(i, params, nomes, z)
    if params.n > 1:
        rest = [z[j] for j in range(params.n) if j != i - 1]
        out = out * fundamental_invariant(
            r - 1, params.a[0], params.a[5], rest, params.t, nomes.p
        )
    return out


def residue_gamma_pm(a, nomes: Nomes) -> complex:
    """Residue of Gamma(a z^{+-1}) dz/z at z = a: Gamma(a^2)/((p;p)(q;q)).

    The companion residue at z = a^{-1} is the negation of this value.
    """
    return elliptic_gamma(a * a, nomes) / _euler_pair(nomes)


def richardson_limit(f, eps_coarse: float = 1e-3, eps_fine: float = 1e-4) -> complex:
    """f(0) from f(eps) = L + C eps + O(eps^2) by two-point Richardson
    extrapolation; the leftover error is O(eps_coarse eps_fine)."""
    f_coarse, f_fine = complex(f(eps_coarse)), complex(f(eps_fine))
    return (eps_coarse * f_fine - eps_fine * f_coarse) / (eps_coarse - eps_fine)


def series_terms_by_bisection(p, q, outer: float, inner: float, tail_tol: float, max_terms: int) -> int:
    """The smallest K in 1..max_terms whose tail bound of the log series,

        (outer^(K+1)/(1 - outer) + inner^(K+1)/(1 - inner)) / ((K + 1) D),

    D = (1 - |p|)(1 - |q|), is below tail_tol / max_terms, found by
    bisection, as qseries._log_den once found it; TruncationError where
    max_terms does not certify it."""
    D = (1.0 - abs(p)) * (1.0 - abs(q))

    def tail(K):
        return (outer ** (K + 1) / (1.0 - outer) + inner ** (K + 1) / (1.0 - inner)) / ((K + 1) * D)

    tol = tail_tol / max_terms
    if tail(max_terms) >= tol:
        raise TruncationError("over max_terms", achieved_bound=tail(max_terms))
    lo, K = 0, max_terms
    while K - lo > 1:
        mid = (lo + K) // 2
        lo, K = (lo, mid) if tail(mid) < tol else (mid, K)
    return K
