"""Scenario runners and the scenario row table.

Every runner returns a ScenarioReport; numerical trouble (non-convergence,
pole proximity, rejected configurations) is recorded as a failed report
with the reason in ``detail`` instead of propagating, so batch runs always
produce one report per requested case.

Quadrature stopping tolerances are scaled by a coarse magnitude estimate of
the closed side; each runner states its stop where it calls the ladder.
A stalled ladder takes quadrature's 50x looser stop before being declared
non-convergent (the verdict always uses the measured error); :func:`_run`
reads a report's ``grid_N`` and retry note off the QuadResults it is given.

Each scenario name has one :class:`Scenario` record in :data:`SCENARIOS`.
:data:`SUITE_ROWS` is the default suite, :func:`run_row` samples one row
and :func:`cases` runs one parameter set's runs, numbering and timing each
report, so the runners only compute.  Sampled and explicit command-line
runs go through the same two functions.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from functools import partial

from .errors import (
    ConfigurationError, DomainError, EllSelbergError, NonConvergenceError, SampleRejectionError,
)
from .integrand import _bc_kernel, _z_list, c_constant, j_closed, psi
from .invariants import (
    BalancingMode,
    ParameterSet,
    boundary_expectation_ratio,
    _invariant,
    coefficient_c,
)
from .kernel import GAMMA, Kernel, pm
from .qseries import MAX_TERMS, TAIL_TOL, Nomes, _euler_pair, _gamma_product, theta
from .quadrature import (
    MIN_BUDGET,
    RETRY_NOTE,
    _key,
    _params_key,
    _weighted,
    nabla_quad,
    torus_integrate,
)
from .record import Record, _set
from .report import ScenarioReport, relative_error
from .residues import continued_integral_n1, lim_pinch_J
from .sampling import DEFAULT_BOX, SafeBox, sample_da_parameters, sample_parameters


def _run(scenario: str, echo: dict, tol: float, compute) -> ScenarioReport:
    """Report compute()'s (lhs, rhs, quads[, scale[, detail]]) against tol.

    An EllSelbergError raised by compute becomes a failed report that gives
    the reason.  grid_N is the largest N_used of quads (0 if none), and
    RETRY_NOTE follows the detail when one of them retried or compute raised
    NonConvergenceError, which a ladder raises only after retrying.  The
    report has seed_index 0 and no runtime_ms; :func:`cases` stamps both.
    """
    try:
        outcome = compute()
    except EllSelbergError as exc:
        lhs, rhs, quads = 0j, 0j, ()
        abs_err = rel_err = math.inf
        detail = f"{type(exc).__name__}: {exc}"
        retried = isinstance(exc, NonConvergenceError)
    else:
        lhs, rhs, quads, scale, detail = (*outcome, None, "")[:5]
        abs_err, rel_err = relative_error(lhs, rhs)
        if scale is not None:
            rel_err = abs_err / scale if scale > 0 else abs_err
        retried = any(quad.retried for quad in quads)
    return ScenarioReport(
        scenario=scenario,
        **{"seed_index": 0, "k": None, "r": None, "i": None, **echo},
        grid_N=max((quad.N_used for quad in quads), default=0),
        lhs=complex(lhs),
        rhs=complex(rhs),
        abs_err=float(abs_err),
        rel_err=float(rel_err),
        tol=float(tol),
        passed=bool(rel_err <= tol),
        runtime_ms=None,
        tail_tol=TAIL_TOL,
        max_terms=MAX_TERMS,
        detail="; ".join(filter(None, [detail, retried and RETRY_NOTE])),
    )


def _echo(params: ParameterSet, nomes: Nomes, **indices) -> dict:
    """The report fields that identify a case: its parameters and indices."""
    mode = params.balancing_mode
    return dict(
        n=params.n,
        p=nomes.p,
        q=nomes.q,
        t=params.t,
        a=tuple(params.a),
        balancing=mode.value if mode is not None else None,
        **indices,
    )


def _scaled(f, n, tol, budget, floor, key):
    """f's ladder stopped at tol * scale, and scale = max(|I_32|, floor), read
    off a two-rung ladder with no stop whose rungs the full one reads back
    from the rung cache.  f must be W(BC_n)-invariant: its rungs are orbit
    sums.  ``key`` names the integral for the rung cache."""
    scale = max(abs(torus_integrate(f, n, math.inf, MIN_BUDGET, range(n), key).value), floor)
    return torus_integrate(f, n, tol * scale, budget, range(n), key), scale


def scenario_eval_formula(
    n: int,
    params: ParameterSet,
    nomes: Nomes,
    tol: float,
    budget: int | None = None,
) -> ScenarioReport:
    """Torus integral of Psi against c_n J under the PQ balancing.

    At n = 1 a single parameter may leave the unit disk; the lhs is then
    the holomorphically continued contour (plain quadrature plus the
    residue pair).  At n >= 2 such parameters are rejected: no
    continuation is implemented there.
    """

    def compute():
        rhs = c_constant(n, nomes, params.t) * j_closed(params, nomes)
        scale = max(abs(rhs), 1.0)
        outside = any(abs(v) > 1 for v in params.a)
        if outside and n != 1:
            raise SampleRejectionError(
                "n >= 2 needs every parameter inside the unit circle"
            )
        if outside:
            lhs, quad = continued_integral_n1(params, nomes, 0.1 * tol * scale, budget)
            return lhs, rhs, (quad,), None, "continued contour (one parameter outside)"
        quad = torus_integrate(
            lambda z: psi(z, params, nomes), n, 0.1 * tol * scale, budget,
            fold=range(n), key=_params_key("psi", (), params, nomes),
        )
        return quad.value, rhs, (quad,)

    return _run("eval_formula", _echo(params, nomes), tol, compute)


def _qde_theta_ratio(params, nomes, k, shift_a6):
    """prod_{i, m<=5, m!=k} theta(a_m a_6' t^(i-1); p) / theta(a_m a_k t^(i-1); p)."""
    ratio = 1.0 + 0.0j
    a6s = params.a[5] * shift_a6
    for i in range(1, params.n + 1):
        ti = params.t ** (i - 1)
        for m in range(1, 6):
            if m == k:
                continue
            ratio *= theta(params.a[m - 1] * a6s * ti, nomes.p)
            ratio /= theta(params.a[m - 1] * params.a[k - 1] * ti, nomes.p)
    return ratio


def _in_qde_window(params: ParameterSet, nomes: Nomes) -> bool:
    """|a_6| < 0.95 |q|: the PQ q-shift moves a_6 to a_6 / q, which must stay inside the disk."""
    return abs(params.a[5]) < 0.95 * abs(nomes.q)


def scenario_qde(
    n: int,
    k: int,
    params: ParameterSet,
    nomes: Nomes,
    tol: float,
    budget: int | None = None,
) -> ScenarioReport:
    """One equation of the q-difference system, chosen by the balancing mode.

    PQ mode (needs |a_6| < |q|):
      I(a) = I(.., q a_k, .., q^-1 a_6) * prod theta(q^-1 a_m a_6 t^(i-1))
                                               / theta(a_m a_k t^(i-1)).
    P mode:
      I(a_1..a_5, q a_6) = I(.., q a_k, .., a_6) * prod theta(a_m a_6 t^(i-1))
                                                        / theta(a_m a_k t^(i-1)).
    """

    def compute():
        if not 1 <= k <= 5:
            raise SampleRejectionError(f"shift index k={k} outside 1..5")
        mode = params.balancing_mode
        if mode is BalancingMode.PQ:
            if not _in_qde_window(params, nomes):
                raise SampleRejectionError(
                    f"|a_6|={abs(params.a[5]):.4f} not inside |q|={abs(nomes.q):.4f}"
                )
            left = params
            right = params.shifted_pair(k, nomes.q)
            ratio = _qde_theta_ratio(params, nomes, k, 1.0 / nomes.q)
        elif mode is BalancingMode.P:
            if abs(nomes.q * params.a[5]) >= 0.9:
                raise SampleRejectionError("q a_6 leaves the safe disk")
            left = params.with_entry(6, nomes.q * params.a[5])
            right = params.with_entry(k, nomes.q * params.a[k - 1])
            ratio = _qde_theta_ratio(params, nomes, k, 1.0)
        else:
            raise SampleRejectionError(
                "q-difference scenarios need the PQ or P balancing"
            )
        lhs_quad, scale = _scaled(lambda z: psi(z, left, nomes), n, 0.1 * tol, budget, 1.0,
                                  _params_key("psi", (), left, nomes))
        rhs_quad = torus_integrate(
            lambda z: psi(z, right, nomes), n, 0.1 * tol * (scale / max(abs(ratio), 1e-6)),
            budget, fold=range(n), key=_params_key("psi", (), right, nomes),
        )
        return lhs_quad.value, rhs_quad.value * ratio, (lhs_quad, rhs_quad)

    return _run("qde", _echo(params, nomes, k=k), tol, compute)


def _expect_invariant(r, params, nomes, tol, budget):
    """<E_r> = integral of E_r Psi~, refined against its own coarse magnitude."""
    n = params.n
    e_r = _invariant(r, params.a[0], params.a[5], params.t, nomes.p, range(n))

    def phi(z):
        return e_r(_z_list(z, n))

    key = _params_key("E", (r,), params, nomes)
    return _scaled(_weighted(phi, params, nomes), n, 0.1 * tol, budget, 1e-12, key)[0]


def scenario_recurrence(
    n: int,
    r: int,
    params: ParameterSet,
    nomes: Nomes,
    tol: float,
    budget: int | None = None,
) -> ScenarioReport:
    """<E_r> against C_r <E_(r-1)> under the ONE balancing."""

    def compute():
        c_r = coefficient_c(r, params, nomes)
        lhs = _expect_invariant(r, params, nomes, tol, budget)
        prev = _expect_invariant(r - 1, params, nomes, tol, budget)
        return lhs.value, c_r * prev.value, (lhs, prev)

    return _run("recurrence", _echo(params, nomes, r=r), tol, compute)


def scenario_recurrence_telescope(
    n: int,
    params: ParameterSet,
    nomes: Nomes,
    tol: float,
    budget: int | None = None,
) -> ScenarioReport:
    """<E_n>/<E_0> against the closed boundary ratio (the telescoped system)."""

    def compute():
        rhs = boundary_expectation_ratio(params, nomes)
        top = _expect_invariant(n, params, nomes, tol, budget)
        bot = _expect_invariant(0, params, nomes, tol, budget)
        return top.value / bot.value, rhs, (top, bot)

    return _run("recurrence_telescope", _echo(params, nomes), tol, compute)


def scenario_nabla(
    n: int,
    r: int,
    i: int,
    params: ParameterSet,
    nomes: Nomes,
    tol: float,
    budget: int | None = None,
) -> ScenarioReport:
    """|<nabla phi_(r,i)>| against 0, scaled by the magnitude <|phi Psi~|>."""

    def compute():
        res, reference = nabla_quad(r, i, params, nomes, 0.01 * tol, budget)
        return res.value, 0j, (res,), reference, f"reference={reference!r}"

    return _run("nabla", _echo(params, nomes, r=r, i=i), tol, compute)


def _da_closed(a, n, nomes):
    """2^n n! / ((p;p)(q;q))^n * prod_{j<k} Gamma(a_j a_k)."""
    pairs = [a[j] * a[k] for j in range(len(a)) for k in range(j + 1, len(a))]
    out = 2.0**n * math.factorial(n) / _euler_pair(nomes) ** n
    return out * _gamma_product(pairs, nomes)


def scenario_dixon_anderson(
    n: int,
    a,
    nomes: Nomes,
    tol: float,
    budget: int | None = None,
) -> ScenarioReport:
    """The coupling-free 2n+4 parameter integral against its Gamma product.

    The balancing prod a_m = p q is checked, not assumed; the report's
    constraint_exponent is always 1, the power of p q that makes the
    identity hold (verified for n <= 2, and forced at n = 1 by the t-free
    case of the main formula).
    """
    a = tuple(complex(v) for v in a)

    def compute():
        if len(a) != 2 * n + 4:
            raise SampleRejectionError(f"need 2n+4={2 * n + 4} parameters, got {len(a)}")
        prod = 1.0 + 0.0j
        for v in a:
            prod *= v
        target = nomes.pq
        if abs(prod - target) > 1e-10 * max(abs(target), 1.0):
            raise SampleRejectionError(f"prod a_m = {prod!r} violates p q = {target!r}")
        rhs = _da_closed(a, n, nomes)
        scale = max(abs(rhs), 1.0)
        kernel = Kernel(_bc_kernel([pm(GAMMA, am) for am in a], None, range(n)), nomes)
        quad = torus_integrate(
            lambda z: kernel(_z_list(z, n)),
            n, 0.1 * tol * scale, budget, fold=range(n),
            key=_key("da", (n,), (*a, nomes.p, nomes.q)),
        )
        return quad.value, rhs, (quad,)

    echo = dict(n=n, p=nomes.p, q=nomes.q, t=None, a=a, balancing=None, constraint_exponent=1)
    return _run("dixon_anderson", echo, tol, compute)


def make_pinched(params: ParameterSet, nomes: Nomes) -> ParameterSet:
    """Pinched companion of a PQ-balanced set: a_2 -> 1/a_1, a_6 re-solved
    so that a_3 a_4 a_5 a_6 t^(2n-2) = p q."""
    a = params.a
    residual = a[2] * a[3] * a[4] * params.t ** (2 * params.n - 2)
    return ParameterSet(
        params.n, params.t, (a[0], 1.0 / a[0], a[2], a[3], a[4], nomes.pq / residual)
    )


def scenario_pinch(
    params: ParameterSet,
    nomes: Nomes,
    tol: float,
    check: str = "limit",
    budget: int | None = None,
) -> ScenarioReport:
    """Residue and pinch checks; ``check`` selects which statement.

    The pinch checks take params pinched (a_2 = 1/a_1), where the one
    singular factor (1 - a_1 a_2) Gamma(a_1 a_2) is its exact residue limit
    1/((p;p)(q;q)); no numerical limit is taken.

    "limit": J_n with the pair Gamma(a_1 a_2) replaced by that limit against
      lim_pinch_J, which cancels the reflected pairs.
    "integral": the n -> n-1 step at n = 1 (I_0 = 1): the pinched residue
      pair 2 prod_{m>=3} Gamma(a_m a_1^{+-1}) / ((p;p)(q;q))^2 against
      c_1 lim_pinch_J.
    "continued": n=1 continued integral with one parameter outside the unit
    circle against c_1 J_1.
    """

    def compute():
        a, t, n = params.a, params.t, params.n
        if check == "limit":
            rhs = lim_pinch_J(params, nomes)
            pairs = [
                a[j] * a[k] * t ** (i - 1)
                for i in range(1, n + 1)
                for j in range(6)
                for k in range(j + 1, 6)
                if (i, j, k) != (1, 0, 1)
            ]
            return _gamma_product(pairs, nomes) / _euler_pair(nomes), rhs, ()
        if check == "integral":
            if n != 1:
                raise DomainError("the pinched integral check is n = 1 only")
            rhs = c_constant(1, nomes, t) * lim_pinch_J(params, nomes)
            lhs = 2.0 / _euler_pair(nomes) ** 2 * _gamma_product(
                [x for m in range(2, 6) for x in (a[m] * a[0], a[m] / a[0])], nomes
            )
            return lhs, rhs, ()
        if check == "continued":
            rhs = c_constant(1, nomes, t) * j_closed(params, nomes)
            lhs, quad = continued_integral_n1(params, nomes, 5e-5 * max(abs(rhs), 1.0), budget)
            return lhs, rhs, (quad,)
        raise SampleRejectionError(f"unknown pinch check {check!r}")

    return _run(f"pinch_{check}", _echo(params, nomes), tol, compute)


# |a_1| of the continued-integral check's companion: just outside the unit
# circle, well inside the continuation window |a_1| < |q|^(-1/2).
CONTINUED_MODULUS = 1.05


def make_continued(params: ParameterSet, nomes: Nomes) -> ParameterSet:
    """PQ-balanced companion with |a_1| moved to CONTINUED_MODULUS (phase
    kept), a_6 re-solved; feeds the continued-integral check at n = 1."""
    a = list(params.a[:5])
    a[0] = CONTINUED_MODULUS * a[0] / abs(a[0])
    return ParameterSet.solved(params.n, params.t, a, nomes, BalancingMode.PQ)


class Scenario(Record):
    """What a scenario name means.

    ``balancing`` is the mode its draws take unless a row says otherwise;
    None marks the coupling-free Dixon-Anderson integral, which draws 2n+4
    entries and reads no t.  ``tols`` are the suite tolerances of ranks
    1, 2, ... (a higher rank takes the last).  A draw under ``balancing``
    is kept only where ``window(ps, nomes)`` holds.  ``runs(n, ps, nomes,
    ks)`` lists one draw's runs, each a runner short of (tol, budget).
    """

    __slots__ = ("balancing", "tols", "runs", "window")

    def __init__(
        self, balancing: BalancingMode | None, tols: tuple, runs: Callable, window: Callable | None = None
    ):
        _set(self, "balancing", balancing)
        _set(self, "tols", tols)
        _set(self, "runs", runs)
        _set(self, "window", window)

    def tol(self, n: int) -> float:
        """The suite tolerance at rank n."""
        return self.tols[min(max(n, 1), len(self.tols)) - 1]


def _pinch_runs(n, ps, nomes, ks):
    """The pinch limit, and at n = 1 the pinched integral and the continued contour."""
    pinched = make_pinched(ps, nomes)
    checks = [(pinched, "limit")]
    if n == 1:
        checks += [(pinched, "integral"), (make_continued(ps, nomes), "continued")]
    return [partial(scenario_pinch, at, nomes, check=check) for at, check in checks]


# The runs look their runners up when called, so a runner replaced in this
# module (as the benchmark's tracer does) is the one that runs.
SCENARIOS = {
    "eval_formula": Scenario(
        BalancingMode.PQ, (1e-8, 1e-6),
        lambda n, ps, nomes, ks: [partial(scenario_eval_formula, n, ps, nomes)],
    ),
    "qde": Scenario(
        BalancingMode.PQ, (1e-7, 1e-6),
        lambda n, ps, nomes, ks: [partial(scenario_qde, n, k, ps, nomes) for k in ks],
        window=_in_qde_window,
    ),
    "recurrence": Scenario(
        BalancingMode.ONE, (1e-7, 1e-6),
        lambda n, ps, nomes, ks: [partial(scenario_recurrence, n, r, ps, nomes) for r in range(1, n + 1)],
    ),
    "recurrence_telescope": Scenario(
        BalancingMode.ONE, (1e-7, 1e-6),
        lambda n, ps, nomes, ks: [partial(scenario_recurrence_telescope, n, ps, nomes)],
    ),
    "nabla": Scenario(
        BalancingMode.ONE, (1e-7,),
        lambda n, ps, nomes, ks: [
            partial(scenario_nabla, n, r, i, ps, nomes) for r in range(1, n + 1) for i in range(1, n + 1)
        ],
    ),
    "dixon_anderson": Scenario(
        None, (1e-8, 1e-6),
        lambda n, ps, nomes, ks: [partial(scenario_dixon_anderson, n, ps, nomes)],
    ),
    "pinch": Scenario(BalancingMode.PQ, (1e-6,), _pinch_runs),
}

SCENARIO_NAMES = tuple(SCENARIOS)

QDE_SHIFTS = (1, 2, 3, 4, 5)  # every shift index k of the q-difference system


def _scenario(name: str) -> Scenario:
    """The record of a scenario name (ConfigurationError for an unknown one)."""
    if name not in SCENARIOS:
        raise ConfigurationError(
            f"unknown scenario {name!r}; expected one of {', '.join(SCENARIO_NAMES)}"
        )
    return SCENARIOS[name]


class Row(Record):
    """One row of the scenario table: what to sample and which sweep to run.

    Draws are sampled at seed + ``seed_offset``; ``mode`` None means the
    scenario's balancing; the draws' reports are numbered from
    ``seed_index``; ``ks`` are the qde shift indices.
    """

    __slots__ = ("scenario", "n", "nomes", "seed_offset", "mode", "box", "t", "count", "seed_index", "ks")

    def __init__(
        self, scenario: str, n: int, nomes: Nomes, seed_offset: int = 0,
        mode: BalancingMode | None = None, box: SafeBox = DEFAULT_BOX, t: complex | None = None,
        count: int = 1, seed_index: int = 0, ks: tuple = QDE_SHIFTS,
    ):
        _set(self, "scenario", scenario)
        _set(self, "n", n)
        _set(self, "nomes", nomes)
        _set(self, "seed_offset", seed_offset)
        _set(self, "mode", mode)
        _set(self, "box", box)
        _set(self, "t", t)
        _set(self, "count", count)
        _set(self, "seed_index", seed_index)
        _set(self, "ks", ks)


# Default suite rows.  Nomes and boxes are chosen so the solved entry lands
# inside the safe disk at a workable rate: the PQ-balanced |a_6| shrinks with
# the free product, the ONE-balanced |a_6| grows with it, and the q-shift
# window |a_6| < |q| needs both nomes small and the free moduli large.
_EVAL_NOMES = Nomes(0.05, 0.12)
_ONE_NOMES = Nomes(0.015, 0.12)
_QDE_BOX = SafeBox(a_min=0.5, a_max=0.7)
_ONE_BOX = SafeBox(a_min=0.55, a_max=0.7)
_DA_BOX = SafeBox(a_min=0.4, a_max=0.6)

SUITE_ROWS = (
    Row("eval_formula", 1, _EVAL_NOMES, 11, count=3),
    Row("eval_formula", 2, _EVAL_NOMES, 22, count=2),
    # trigonometric limit: p = 0 with the solved entry at its limit 0
    Row("eval_formula", 1, Nomes(0.0, 0.12), 13, seed_index=100),
    Row("qde", 1, _EVAL_NOMES, 21, box=_QDE_BOX),
    Row("qde", 2, Nomes(0.01, 0.12), 42, box=_QDE_BOX, ks=(1, 3)),
    # the shifted-balancing variant
    Row("qde", 1, _EVAL_NOMES, 23, BalancingMode.P, _QDE_BOX, seed_index=100, ks=(2,)),
    Row("recurrence", 1, _ONE_NOMES, 31, box=_ONE_BOX, t=0.5),
    Row("recurrence", 2, _ONE_NOMES, 62, box=_ONE_BOX, t=0.5),
    Row("recurrence_telescope", 1, _ONE_NOMES, 31, box=_ONE_BOX, t=0.5),
    Row("recurrence_telescope", 2, _ONE_NOMES, 62, box=_ONE_BOX, t=0.5),
    Row("nabla", 1, _ONE_NOMES, 31, box=_ONE_BOX, t=0.5),
    Row("nabla", 2, _ONE_NOMES, 62, box=_ONE_BOX, t=0.5),
    Row("dixon_anderson", 1, _EVAL_NOMES, 41, box=_DA_BOX),
    Row("dixon_anderson", 2, _EVAL_NOMES, 82, box=_DA_BOX),
    Row("pinch", 1, _EVAL_NOMES, 51, box=_QDE_BOX),
    # rank 2: the closed-form pinch limit only (no quadrature involved)
    Row("pinch", 2, _EVAL_NOMES, 52, box=_QDE_BOX, seed_index=100),
)


def cases(
    name: str, n: int, ps, nomes: Nomes, tol: float | None = None, ks=QDE_SHIFTS,
    budget: int | None = None, timing: bool = False, seed_index: int = 0,
) -> list[ScenarioReport]:
    """Every report of one parameter set: the scenario's runs (see Scenario).

    ``ps`` is a ParameterSet, or the 2n+4 tuple for dixon_anderson; ``tol``
    None is the suite tolerance at rank n.  Each report is numbered
    ``seed_index`` and, with ``timing``, gives its run's time in runtime_ms.
    """
    spec = _scenario(name)
    tol = spec.tol(n) if tol is None else tol
    reports = []
    for run in spec.runs(n, ps, nomes, ks):
        started = time.monotonic()
        rep = run(tol, budget=budget)
        ms = int(round((time.monotonic() - started) * 1000)) if timing else None
        reports.append(rep.replace(seed_index=seed_index, runtime_ms=ms))
    return reports


def run_row(
    row: Row, seed: int, count: int | None = None, tol: float | None = None, **kw
) -> list[ScenarioReport]:
    """Sample ``row``'s draws at ``seed`` and run every case of each.

    ``count`` and ``tol`` override the row's draw count and the suite
    tolerance; ``kw`` (budget, timing) goes to :func:`cases`.
    """
    spec = _scenario(row.scenario)
    count = row.count if count is None else count
    seed = seed + row.seed_offset
    if spec.balancing is None:
        draws = sample_da_parameters(row.n, row.nomes, seed, count, box=row.box)
    else:
        mode = spec.balancing if row.mode is None else row.mode
        in_window = spec.window is not None and mode is spec.balancing
        predicate = partial(spec.window, nomes=row.nomes) if in_window else None
        draws = sample_parameters(
            mode, row.n, row.nomes, seed, count, t=row.t, box=row.box, predicate=predicate
        )
    return [
        rep
        for idx, ps in enumerate(draws)
        for rep in cases(
            row.scenario, row.n, ps, row.nomes, tol, row.ks, seed_index=row.seed_index + idx, **kw
        )
    ]


def run_suite(
    seed: int = 42,
    scenario: str | None = None,
    count: int | None = None,
    tol: float | None = None,
    grid: int | None = None,
    timing: bool = False,
    n: int | None = None,
) -> list[ScenarioReport]:
    """Run the default verification suite: every row of SUITE_ROWS.

    ``scenario`` restricts to one scenario name and ``n`` to one rank
    (ConfigurationError where no row has it); ``count``/``tol``/``grid``
    override the per-row defaults.  Reports are sorted by
    (scenario, n, seed_index, k, r, i) regardless of execution order.
    """
    if scenario is not None:
        _scenario(scenario)
    rows = [row for row in SUITE_ROWS if scenario in (None, row.scenario) and n in (None, row.n)]
    if not rows:
        raise ConfigurationError(
            f"no suite row has rank n={n}" + (f" in scenario {scenario!r}" if scenario else "")
        )
    reports = [rep for row in rows for rep in run_row(row, seed, count, tol, budget=grid, timing=timing)]

    def sort_key(rep: ScenarioReport):
        return (
            rep.scenario,
            rep.n,
            rep.seed_index,
            rep.k if rep.k is not None else -1,
            rep.r if rep.r is not None else -1,
            rep.i if rep.i is not None else -1,
        )

    return sorted(reports, key=sort_key)
