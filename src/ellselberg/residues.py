"""Residue corrections, pinch limits, and the analytically continued n=1 integral.

The kernel's z_1-poles sit on the orbits p^mu q^nu a_m (inward) and their
reciprocals (outward).  When one parameter crosses the unit circle, the
contour picks up the residue pair at z = a and z = 1/a; when a_1 a_2 -> 1
two orbits pinch the contour.  Only one factor is singular there, and

    (1 - x) Gamma(x) = (pq/x; p, q)_inf / ((px; p, q)_inf (qx; q)_inf)

equals 1/((p;p)_inf (q;q)_inf) at x = 1 exactly, so every pinch limit is a
closed form (no numerical limit is taken) and reduces rank n to n-1.

At p q = 0 the solved a_6 is 0 and Psi and J take the dual-parameter limit
(see :mod:`.integrand`); the pinch limit and the residue pair do not, so
they refuse p q = 0.
"""

from __future__ import annotations

from .errors import DomainError
from .integrand import c_constant, psi
from .invariants import ParameterSet
from .qseries import Nomes, _euler_pair, _gamma_product, elliptic_gamma
from .quadrature import QuadResult, _params_key, torus_integrate

# |a| closer to the unit circle than this leaves the quadrature no room.
TORUS_CLEARANCE = 1e-3


def continued_integral_n1(
    params: ParameterSet,
    nomes: Nomes,
    tol: float,
    budget: int | None = None,
) -> tuple[complex, QuadResult]:
    """Holomorphic continuation of the n=1 torus integral of Psi, and the
    QuadResult of its quadrature ladder.

    With every parameter inside the unit disk this is the plain integral.
    When exactly one parameter a sits in 1 < |a| < |q|^(-1/2), the contour
    keeps the pole orbit of a inside and its reciprocal orbit outside, which
    adds the residue pair

        2 prod_{m != a} Gamma(a_m a^{+-1}) / ((p;p)(q;q) Gamma(a^-2)).
    """
    if params.n != 1:
        raise DomainError("the continued integral is n = 1 only")
    outside = [m for m, v in enumerate(params.a) if abs(v) > 1]
    if len(outside) > 1:
        raise DomainError("at most one parameter may leave the unit disk")
    for v in params.a:
        if abs(abs(v) - 1.0) < TORUS_CLEARANCE:
            raise DomainError(
                f"parameter {v} within {TORUS_CLEARANCE} of the unit circle"
            )
    if outside:
        a = params.a[outside[0]]
        if abs(a) >= abs(nomes.q) ** -0.5:
            raise DomainError(
                f"|a|={abs(a):.4f} outside the continuation window "
                f"(1, |q|^-1/2 = {abs(nomes.q) ** -0.5:.4f})"
            )
        if nomes.pq == 0:
            raise DomainError("the residue pair is not implemented at p q = 0")
    quad = torus_integrate(
        lambda z: psi(z, params, nomes), 1, tol, budget, fold=(0,),
        key=_params_key("psi", (), params, nomes),
    )
    value = quad.value
    if outside:
        others = [v for m, v in enumerate(params.a) if m != outside[0]]
        corr = 2.0 * _gamma_product([x for v in others for x in (v * a, v / a)], nomes)
        corr /= _euler_pair(nomes) * elliptic_gamma(a**-2, nomes)
        value += corr
    return value, quad


def lim_pinch_J(params: ParameterSet, nomes: Nomes) -> complex:
    """lim (1 - a_1 a_2) J_n as a_2 -> 1/a_1, in closed form.

    Requires a_2 = a_1^(-1) exactly and the residual balancing
    a_3 a_4 a_5 a_6 t^(2n-2) = p q, under which the i = n layer of the
    pairs within {a_3..a_6} cancels by reflection:

        prod_{i=1}^{n-1} Gamma(t^i) / ((p;p)(q;q))
        * prod_{i=1}^n prod_{m=3}^6 Gamma(a_1^{+-1} a_m t^(i-1))
        * prod_{i=1}^{n-1} prod_{3<=j<k<=6} Gamma(a_j a_k t^(i-1)).
    """
    a, t, n = params.a, params.t, params.n
    if nomes.pq == 0:
        raise DomainError("the pinch limit is not implemented at p q = 0")
    if abs(a[0] * a[1] - 1.0) > 1e-12 * abs(a[0] * a[1]):
        raise DomainError("pinch limit needs a_2 = 1/a_1 exactly")
    residual = a[2] * a[3] * a[4] * a[5] * t ** (2 * n - 2)
    if abs(residual - nomes.pq) > 1e-12 * max(abs(nomes.pq), 1.0):
        raise DomainError("pinch limit needs a_3 a_4 a_5 a_6 t^(2n-2) = p q")
    args = [t**i for i in range(1, n)]
    for i in range(1, n + 1):
        ti = t ** (i - 1)
        for m in range(2, 6):
            args += [a[m] * ti * a[0], a[m] * ti / a[0]]
    for i in range(1, n):
        ti = t ** (i - 1)
        for j in range(2, 6):
            for k in range(j + 1, 6):
                args.append(a[j] * a[k] * ti)
    return 1.0 / _euler_pair(nomes) * _gamma_product(args, nomes)


def cn_recurrence_check(n: int, t, nomes: Nomes) -> float:
    """Relative defect of c_n = c_{n-1} 2n Gamma(t^n) / (Gamma(t) (p;p)(q;q))."""
    if n < 1:
        raise DomainError("n must be >= 1")
    cn = c_constant(n, nomes, t)
    prev = c_constant(n - 1, nomes, t)
    step = (
        prev
        * 2
        * n
        * elliptic_gamma(t**n, nomes)
        / (elliptic_gamma(t, nomes) * _euler_pair(nomes))
    )
    return abs(cn - step) / abs(cn)
