"""Parameter bookkeeping and the fundamental W(BC_n)-invariant theta families.

The six-parameter family (a_1, ..., a_6) with coupling t and nomes (p, q)
supports three balancing conventions for the product a_1 ... a_6 t^(2n-2):

    PQ  -> p q      (evaluation-formula normalization)
    P   -> p        (shifted-kernel normalization)
    ONE -> 1        (recurrence normalization)

The sixth entry is the solved one: it is solved from the others so the
product meets the target.

The invariant family E_r(a, b; z), 0 <= r <= n, is the theta-function sum

    E_r = sum over {i_1<...<i_r} disjoint-union {j_1<...<j_(n-r)} = {1..n} of
      prod_k theta(b t^(i_k-k) z_(i_k)^{+-1}) / theta(b t^(i_k-k) (a t^(k-1))^{+-1})
    * prod_l theta(a t^(j_l-l) z_(j_l)^{+-1}) / theta(a t^(j_l-l) (b t^(l-1))^{+-1})

with all thetas at nome p.  Each term is one kernel description (see
:mod:`.kernel`) of n factors theta(c z_i^{+-1}; p), divided by the product
of its constant denominators.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import DegenerateParameterError, DomainError
from .kernel import THETA, Factor, Kernel
from .qseries import Nomes, theta, theta_pm

# Below this magnitude a denominator theta counts as degenerate.
THETA_FLOOR = 1e-14

BALANCE_RTOL = 1e-14


class BalancingMode(Enum):
    """Target for the product a_1 ... a_6 t^(2n-2)."""

    PQ = "pq"
    P = "p"
    ONE = "one"


@dataclass(frozen=True)
class ParameterSet:
    """Six coupled parameters with their coupling t and balancing convention.

    ``balancing_mode`` may be None for off-shell intermediates (e.g. a single
    parameter multiplied by q while checking shift ratios); whenever a mode is
    set, :meth:`validate` enforces the product constraint to 1e-14 relative.
    The solved entry may be exactly 0 only in the PQ mode with p q = 0
    (trigonometric degeneration, where the solved parameter's limit is 0).
    A set is immutable, so what the kernels resolve from it is held with
    it, in ``_held`` (see integrand._held).
    """

    n: int
    t: complex
    a: tuple[complex, complex, complex, complex, complex, complex]
    balancing_mode: BalancingMode | None = None

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("n must be a positive integer")
        if not (0 < abs(self.t) < 1):
            raise DomainError(f"|t| must lie in (0, 1), got {abs(self.t)}")
        if len(self.a) != 6:
            raise DomainError("exactly six parameters a_1..a_6 are required")
        object.__setattr__(self, "a", tuple(complex(v) for v in self.a))
        object.__setattr__(self, "t", complex(self.t))
        object.__setattr__(self, "_held", {})

    def balancing_product(self) -> complex:
        prod = 1.0 + 0.0j
        for v in self.a:
            prod *= v
        return prod * self.t ** (2 * self.n - 2)

    def target(self, nomes: Nomes) -> complex:
        return _target(self.balancing_mode, nomes)

    def balancing_residual(self, nomes: Nomes) -> float:
        """|product - target|, relative to |target| when the target is nonzero."""
        tgt = self.target(nomes)
        diff = abs(self.balancing_product() - tgt)
        return diff / abs(tgt) if tgt != 0 else diff

    def validate(self, nomes: Nomes) -> "ParameterSet":
        zero_ok = self.balancing_mode is BalancingMode.PQ and nomes.pq == 0
        for m, v in enumerate(self.a, start=1):
            if v == 0 and not (zero_ok and m == 6):
                raise DomainError(f"a_{m} must be nonzero")
        if self.balancing_mode is not None:
            res = self.balancing_residual(nomes)
            if res > BALANCE_RTOL:
                raise DomainError(
                    f"balancing residual {res:.3e} exceeds {BALANCE_RTOL} for mode "
                    f"{self.balancing_mode.value}"
                )
        return self

    @classmethod
    def solved(
        cls, n: int, t: complex, a_free, nomes: Nomes, mode: BalancingMode
    ) -> "ParameterSet":
        """Build a balanced set from a_1..a_5 by solving a_6."""
        a_free = [complex(v) for v in a_free]
        if len(a_free) != 5:
            raise DomainError("five free parameters are required")
        tgt = _target(mode, nomes)
        denom = complex(t) ** (2 * n - 2)
        for v in a_free:
            denom *= v
        if denom == 0:
            raise DomainError("free parameters must be nonzero")
        return cls(n=n, t=t, a=(*a_free, tgt / denom), balancing_mode=mode).validate(nomes)

    def shifted_pair(self, k: int, factor: complex) -> "ParameterSet":
        """Multiply a_k by factor and the solved a_6 by 1/factor (stays on-shell)."""
        if k == 6:
            raise DomainError("k must differ from 6, the solved entry")
        a = list(self.a)
        a[k - 1] *= factor
        a[5] /= factor
        return replace(self, a=tuple(a))

    def with_entry(self, m: int, value: complex) -> "ParameterSet":
        """Replace a_m, dropping the balancing mode (off-shell variant)."""
        a = list(self.a)
        a[m - 1] = complex(value)
        return replace(self, a=tuple(a), balancing_mode=None)


def _target(mode: BalancingMode | None, nomes: Nomes) -> complex:
    """The value of a_1 ... a_6 t^(2n-2) under mode; DomainError for None."""
    if mode is BalancingMode.PQ:
        return nomes.pq
    if mode is BalancingMode.P:
        return nomes.p
    if mode is BalancingMode.ONE:
        return 1.0 + 0.0j
    raise DomainError("parameter set carries no balancing mode")


def complementary_index_pairs(n: int, r: int):
    """All pairs (I, J) of increasing index tuples with I ∪ J = {1..n}, |I| = r."""
    if not 0 <= r <= n:
        raise DomainError(f"need 0 <= r <= n, got r={r}, n={n}")
    out = []
    universe = range(1, n + 1)
    for comb in itertools.combinations(universe, r):
        rest = tuple(j for j in universe if j not in comb)
        out.append((comb, rest))
    assert len(out) == math.comb(n, r)
    return out


def _theta_den(val: complex, label: str, where: str | None = None) -> complex:
    """val, a denominator theta(label); DegenerateParameterError (saying
    where, else |val|) when |val| < THETA_FLOOR."""
    if abs(val) < THETA_FLOOR:
        where = where or f"(|value| = {abs(val):.3e})"
        raise DegenerateParameterError(f"theta({label}) vanishes {where}")
    return val


def fundamental_invariant(
    r: int,
    a: complex,
    b: complex,
    z,
    t: complex,
    p: complex,
    coords=None,
):
    """E_r(a, b; z): the r-th fundamental invariant in the coordinates
    ``coords`` of z (all of them by default), n = len(coords) variables.

    ``z`` is a sequence of values, of equal-shape arrays (elementwise
    evaluation) or a Lattice, on which each term, a list of factors
    theta(c z_i^{+-1}; p), is summed in log space like any kernel.  The sum
    runs over the binomial(n, r) complementary index pairs.
    """
    return _invariant(r, a, b, t, p, range(len(z)) if coords is None else coords)(z)


def _invariant(r, a, b, t, p, coords):
    """E_r(a, b; .) in the coordinates ``coords`` as a function of z, its
    terms resolved once: each a Kernel of theta(c z_i^{+-1}; p) factors,
    divided by the product of its constant denominators, which the first
    call computes and checks term by term, as it evaluates them."""
    nomes = Nomes(p, 0.0)
    terms = []
    for idx_i, idx_j in complementary_index_pairs(len(coords), r):
        factors, dens = [], []
        for k, ik in enumerate(idx_i, start=1):
            c = b * t ** (ik - k)
            dens.append((c, a * t ** (k - 1), f"b t^{ik - k} (a t^{k - 1})^(+-1)"))
            factors.append(Factor(THETA, c, ((coords[ik - 1], 1),), True))
        for l, jl in enumerate(idx_j, start=1):
            c = a * t ** (jl - l)
            dens.append((c, b * t ** (l - 1), f"a t^{jl - l} (b t^{l - 1})^(+-1)"))
            factors.append(Factor(THETA, c, ((coords[jl - 1], 1),), True))
        terms.append((Kernel(factors, nomes), dens))
    products = [None] * len(terms)

    def e_r(z):
        total = None
        for j, (kernel, dens) in enumerate(terms):
            if products[j] is None:
                den = 1.0 + 0.0j
                for c, x, label in dens:
                    den = den * _theta_den(theta_pm(c, x, p), label)
                products[j] = den
            term = kernel(z) / products[j]
            total = term if total is None else total + term
        return total

    return e_r


def coefficient_c(r: int, params: ParameterSet, nomes: Nomes) -> complex:
    """Proportionality coefficient C_r in <E_r> = C_r <E_(r-1)>, 1 <= r <= n.

    Only defined under the ONE balancing (a_1 ... a_6 t^(2n-2) = 1).
    """
    if params.balancing_mode is not BalancingMode.ONE:
        raise DomainError("coefficient_c requires the ONE balancing mode")
    if not 1 <= r <= params.n:
        raise DomainError(f"need 1 <= r <= n, got r={r}")
    n, t, p = params.n, params.t, nomes.p
    a, a1, a6 = params.a, params.a[0], params.a[5]
    # (argument, label) of every theta of C_r; a labelled one is a denominator
    factors = [
        (t ** (n - r + 1), None),
        (a6 / a1 * t ** (n - r + 1), None),
        (a1 / a6 * t ** (2 * r - n), None),
        (t**r, "t^r"),
        (a6 / a1 * t ** (n - 2 * r + 2), "a6/a1 t^(n-2r+2)"),
        (a1 / a6 * t**r, "a1/a6 t^r"),
    ]
    for m in range(2, 6):
        factors += [(a[m - 1] * a6 * t ** (n - r), None),
                    (a[m - 1] * a1 * t ** (r - 1), f"a_{m} a1 t^(r-1)")]
    th = _thetas(factors, p, where=f"in C_{r}")
    num = a1**2 * t ** (2 * r - 2) * th[0] * th[1] * th[2]
    den = a6**2 * t ** (2 * n - 2 * r) * th[3] * th[4] * th[5]
    out = -num / den
    for j in range(6, len(th), 2):
        out *= th[j] / th[j + 1]
    return out


def _thetas(factors, p, where: str) -> list:
    """theta(u; p) of each (u, label) of factors, in their order, by one array call.

    A value with a label is a denominator, checked by _theta_den.  Each
    value has the bits of its own scalar call.
    """
    values = theta(np.array([u for u, _ in factors], dtype=complex), p).tolist()
    return [v if label is None else _theta_den(v, label, where)
            for v, (_, label) in zip(values, factors)]


def boundary_expectation_ratio(params: ParameterSet, nomes: Nomes) -> complex:
    """Closed form of <E_n>/<E_0> under the ONE balancing:

    prod_{i=1}^n [ a_1^3 theta(a_6 a_1^-1 t^(i-1); p)
                 / (a_6^3 theta(a_1 a_6^-1 t^(i-1); p)) ]
               * prod_{m=2}^5 theta(a_m a_6 t^(i-1); p) / theta(a_m a_1 t^(i-1); p).

    Equals the telescoped product of coefficient_c over r = 1..n.
    """
    if params.balancing_mode is not BalancingMode.ONE:
        raise DomainError("boundary ratio is stated under the ONE balancing")
    a, t, p = params.a, params.t, nomes.p
    a1, a6 = a[0], a[5]
    # (argument, label) of every theta, ten per i; a labelled one is a denominator
    factors = []
    for i in range(params.n):
        ti = t**i
        factors += [(a6 / a1 * ti, None), (a1 / a6 * ti, "a1/a6 t^(i-1)")]
        for m in range(2, 6):
            factors += [(a[m - 1] * a6 * ti, None), (a[m - 1] * a1 * ti, "a_m a1 t^(i-1)")]
    th = _thetas(factors, p, where="in boundary ratio")
    out = 1.0 + 0.0j
    for i in range(0, len(th), 10):
        out *= (a1**3 * th[i]) / (a6**3 * th[i + 1])
        for j in range(i + 2, i + 10, 2):
            out *= th[j]
            out /= th[j + 1]
    return out
