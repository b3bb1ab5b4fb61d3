"""Scenario runners: each wires quadrature against a closed form and verdicts.

Every runner returns a ScenarioReport; numerical trouble (non-convergence,
pole proximity, rejected configurations) is recorded as a failed report
with the reason in ``detail`` instead of propagating, so batch runs always
produce one report per requested case.

Quadrature stopping tolerances are scaled by a coarse magnitude estimate of
the closed side; since the refinement error estimate lags the true error by
one doubling, a stalled ladder is retried once with a 50x looser stop before
being declared non-convergent (the verdict always uses the measured error).
"""

from __future__ import annotations

import math
import time

from .errors import (
    ConfigurationError,
    EllSelbergError,
    NonConvergenceError,
    SampleRejectionError,
)
from .integrand import _bc_kernel, _z_list, c_constant, j_closed, psi
from .invariants import (
    BalancingMode,
    ParameterSet,
    boundary_expectation_ratio,
    coefficient_c,
    fundamental_invariant,
)
from .kernel import GAMMA, evaluate, pm
from .qseries import (
    DEFAULT_POLICY,
    Nomes,
    TruncationPolicy,
    elliptic_gamma,
    gamma_pm,
    qpoch_inf,
    theta,
)
from .quadrature import default_budget, expectation, nabla_quad, torus_integrate
from .report import ScenarioReport, relative_error
from .residues import continued_integral_n1, lim_pinch_J, richardson_limit
from .sampling import SafeBox, sample_da_parameters, sample_parameters

ROUGH_TOL = 1e30  # accepts the first refinement step: a magnitude probe


def _policy_echo(policy: TruncationPolicy | None) -> TruncationPolicy:
    return policy if policy is not None else DEFAULT_POLICY


def _elapsed_ms(started: float | None) -> int | None:
    if started is None:
        return None
    return int(round((time.monotonic() - started) * 1000))


def _report(
    scenario: str,
    params_echo: dict,
    lhs: complex,
    rhs: complex,
    tol: float,
    grid_N: int,
    policy: TruncationPolicy | None,
    started: float | None,
    scale: float | None = None,
    detail: str = "",
) -> ScenarioReport:
    abs_err, rel_err = relative_error(lhs, rhs)
    if scale is not None:
        rel_err = abs_err / scale if scale > 0 else abs_err
    pol = _policy_echo(policy)
    return ScenarioReport(
        scenario=scenario,
        seed_index=params_echo.get("seed_index", 0),
        n=params_echo["n"],
        p=params_echo["p"],
        q=params_echo["q"],
        t=params_echo.get("t"),
        a=tuple(params_echo["a"]),
        balancing=params_echo.get("balancing"),
        k=params_echo.get("k"),
        r=params_echo.get("r"),
        i=params_echo.get("i"),
        grid_N=grid_N,
        lhs=complex(lhs),
        rhs=complex(rhs),
        abs_err=float(abs_err),
        rel_err=float(rel_err),
        tol=float(tol),
        passed=bool(rel_err <= tol),
        runtime_ms=_elapsed_ms(started),
        tail_tol=pol.tail_tol,
        max_terms=pol.max_terms,
        constraint_exponent=params_echo.get("constraint_exponent"),
        detail=detail,
    )


def _failed(
    scenario: str,
    params_echo: dict,
    tol: float,
    policy: TruncationPolicy | None,
    started: float | None,
    exc: Exception,
) -> ScenarioReport:
    pol = _policy_echo(policy)
    return ScenarioReport(
        scenario=scenario,
        seed_index=params_echo.get("seed_index", 0),
        n=params_echo["n"],
        p=params_echo["p"],
        q=params_echo["q"],
        t=params_echo.get("t"),
        a=tuple(params_echo["a"]),
        balancing=params_echo.get("balancing"),
        k=params_echo.get("k"),
        r=params_echo.get("r"),
        i=params_echo.get("i"),
        grid_N=0,
        lhs=0j,
        rhs=0j,
        abs_err=math.inf,
        rel_err=math.inf,
        tol=float(tol),
        passed=False,
        runtime_ms=_elapsed_ms(started),
        tail_tol=pol.tail_tol,
        max_terms=pol.max_terms,
        constraint_exponent=params_echo.get("constraint_exponent"),
        detail=f"{type(exc).__name__}: {exc}",
    )


def _echo(params: ParameterSet, nomes: Nomes, **extra) -> dict:
    mode = params.balancing_mode
    echo = {
        "n": params.n,
        "p": nomes.p,
        "q": nomes.q,
        "t": params.t,
        "a": params.a,
        "balancing": mode.value if mode is not None else None,
    }
    echo.update(extra)
    return echo


def _integrate_scaled(f, n, tol_rel, scale, budget, offset=0.0):
    """Refine to a stop threshold of tol_rel*scale/10, retrying 50x looser."""
    try:
        return torus_integrate(f, n, 0.1 * tol_rel * scale, budget, offset)
    except NonConvergenceError:
        return torus_integrate(f, n, 5.0 * tol_rel * scale, budget, offset)


def scenario_eval_formula(
    n: int,
    params: ParameterSet,
    nomes: Nomes,
    tol: float,
    budget: int | None = None,
    policy: TruncationPolicy | None = None,
    timing: bool = False,
    seed_index: int = 0,
) -> ScenarioReport:
    """Torus integral of Psi against c_n J under the PQ balancing.

    At n = 1 a single parameter may leave the unit disk; the lhs is then
    the holomorphically continued contour (plain quadrature plus the
    residue pair).  At n >= 2 such parameters are rejected: no
    continuation is implemented there.
    """
    started = time.monotonic() if timing else None
    echo = _echo(params, nomes, seed_index=seed_index)
    try:
        rhs = c_constant(n, nomes, params.t, policy) * j_closed(params, nomes, policy)
        scale = max(abs(rhs), 1.0)
        outside = any(abs(v) > 1 for v in params.a)
        if outside and n != 1:
            raise SampleRejectionError(
                "n >= 2 needs every parameter inside the unit circle"
            )
        if outside:
            try:
                lhs = continued_integral_n1(
                    params, nomes, 0.1 * tol * scale, budget, policy=policy
                )
            except NonConvergenceError:
                lhs = continued_integral_n1(
                    params, nomes, 5.0 * tol * scale, budget, policy=policy
                )
            return _report(
                "eval_formula", echo, lhs, rhs, tol,
                budget if budget is not None else default_budget(1),
                policy, started, detail="continued contour (one parameter outside)",
            )
        quad = _integrate_scaled(
            lambda z: psi(z, params, nomes, policy), n, tol, scale, budget
        )
        return _report(
            "eval_formula", echo, quad.value, rhs, tol, quad.N_used, policy, started
        )
    except EllSelbergError as exc:
        return _failed("eval_formula", echo, tol, policy, started, exc)


def _qde_theta_ratio(params, nomes, k, shift_a6, policy):
    """prod_{i, m<=5, m!=k} theta(a_m a_6' t^(i-1); p) / theta(a_m a_k t^(i-1); p)."""
    ratio = 1.0 + 0.0j
    a6s = params.a[5] * shift_a6
    for i in range(1, params.n + 1):
        ti = params.t ** (i - 1)
        for m in range(1, 6):
            if m == k:
                continue
            ratio *= theta(params.a[m - 1] * a6s * ti, nomes.p, policy)
            ratio /= theta(params.a[m - 1] * params.a[k - 1] * ti, nomes.p, policy)
    return ratio


def scenario_qde(
    n: int,
    k: int,
    params: ParameterSet,
    nomes: Nomes,
    tol: float,
    budget: int | None = None,
    policy: TruncationPolicy | None = None,
    timing: bool = False,
    seed_index: int = 0,
) -> ScenarioReport:
    """One equation of the q-difference system, chosen by the balancing mode.

    PQ mode (needs |a_6| < |q|):
      I(a) = I(.., q a_k, .., q^-1 a_6) * prod theta(q^-1 a_m a_6 t^(i-1))
                                               / theta(a_m a_k t^(i-1)).
    P mode:
      I(a_1..a_5, q a_6) = I(.., q a_k, .., a_6) * prod theta(a_m a_6 t^(i-1))
                                                        / theta(a_m a_k t^(i-1)).
    """
    started = time.monotonic() if timing else None
    echo = _echo(params, nomes, seed_index=seed_index, k=k)
    try:
        if not 1 <= k <= 5:
            raise SampleRejectionError(f"shift index k={k} outside 1..5")
        mode = params.balancing_mode
        if mode is BalancingMode.PQ:
            if abs(params.a[5]) >= 0.95 * abs(nomes.q):
                raise SampleRejectionError(
                    f"|a_6|={abs(params.a[5]):.4f} not inside |q|={abs(nomes.q):.4f}"
                )
            left = params
            right = params.shifted_pair(k, nomes.q)
            ratio = _qde_theta_ratio(params, nomes, k, 1.0 / nomes.q, policy)
        elif mode is BalancingMode.P:
            if abs(nomes.q * params.a[5]) >= 0.9:
                raise SampleRejectionError("q a_6 leaves the safe disk")
            left = params.with_entry(6, nomes.q * params.a[5])
            right = params.with_entry(k, nomes.q * params.a[k - 1])
            ratio = _qde_theta_ratio(params, nomes, k, 1.0, policy)
        else:
            raise SampleRejectionError(
                "q-difference scenarios need the PQ or P balancing"
            )
        rough = torus_integrate(
            lambda z: psi(z, left, nomes, policy), n, ROUGH_TOL, budget
        )
        scale = max(abs(rough.value), 1.0)
        lhs_quad = _integrate_scaled(
            lambda z: psi(z, left, nomes, policy), n, tol, scale, budget
        )
        rhs_quad = _integrate_scaled(
            lambda z: psi(z, right, nomes, policy), n, tol, scale / max(abs(ratio), 1e-6), budget
        )
        return _report(
            "qde",
            echo,
            lhs_quad.value,
            rhs_quad.value * ratio,
            tol,
            max(lhs_quad.N_used, rhs_quad.N_used),
            policy,
            started,
        )
    except EllSelbergError as exc:
        return _failed("qde", echo, tol, policy, started, exc)


def _expect_invariant(r, params, nomes, tol, budget, policy):
    """<E_r> refined against its own coarse magnitude."""
    a1, a6, t, n = params.a[0], params.a[5], params.t, params.n

    def phi(z):
        return fundamental_invariant(r, a1, a6, _z_list(z, n), t, nomes.p, policy)

    rough = expectation(phi, params, nomes, ROUGH_TOL, budget, policy=policy)
    scale = max(abs(rough.value), 1e-12)
    try:
        res = expectation(phi, params, nomes, 0.1 * tol * scale, budget, policy=policy)
    except NonConvergenceError:
        res = expectation(phi, params, nomes, 5.0 * tol * scale, budget, policy=policy)
    return res


def scenario_recurrence(
    n: int,
    r: int,
    params: ParameterSet,
    nomes: Nomes,
    tol: float,
    budget: int | None = None,
    policy: TruncationPolicy | None = None,
    timing: bool = False,
    seed_index: int = 0,
) -> ScenarioReport:
    """<E_r> against C_r <E_(r-1)> under the ONE balancing."""
    started = time.monotonic() if timing else None
    echo = _echo(params, nomes, seed_index=seed_index, r=r)
    try:
        c_r = coefficient_c(r, params, nomes, policy)
        lhs = _expect_invariant(r, params, nomes, tol, budget, policy)
        prev = _expect_invariant(r - 1, params, nomes, tol, budget, policy)
        return _report(
            "recurrence",
            echo,
            lhs.value,
            c_r * prev.value,
            tol,
            max(lhs.N_used, prev.N_used),
            policy,
            started,
        )
    except EllSelbergError as exc:
        return _failed("recurrence", echo, tol, policy, started, exc)


def scenario_recurrence_telescope(
    n: int,
    params: ParameterSet,
    nomes: Nomes,
    tol: float,
    budget: int | None = None,
    policy: TruncationPolicy | None = None,
    timing: bool = False,
    seed_index: int = 0,
) -> ScenarioReport:
    """<E_n>/<E_0> against the closed boundary ratio (the telescoped system)."""
    started = time.monotonic() if timing else None
    echo = _echo(params, nomes, seed_index=seed_index)
    try:
        rhs = boundary_expectation_ratio(params, nomes, policy)
        top = _expect_invariant(n, params, nomes, tol, budget, policy)
        bot = _expect_invariant(0, params, nomes, tol, budget, policy)
        return _report(
            "recurrence_telescope",
            echo,
            top.value / bot.value,
            rhs,
            tol,
            max(top.N_used, bot.N_used),
            policy,
            started,
        )
    except EllSelbergError as exc:
        return _failed("recurrence_telescope", echo, tol, policy, started, exc)


def scenario_nabla(
    n: int,
    r: int,
    i: int,
    params: ParameterSet,
    nomes: Nomes,
    tol: float,
    budget: int | None = None,
    policy: TruncationPolicy | None = None,
    timing: bool = False,
    seed_index: int = 0,
) -> ScenarioReport:
    """|<nabla phi_(r,i)>| against 0, scaled by the magnitude <|phi Psi~|>."""
    started = time.monotonic() if timing else None
    echo = _echo(params, nomes, seed_index=seed_index, r=r, i=i)
    try:
        res, reference = nabla_quad(r, i, params, nomes, 0.01 * tol, budget, policy=policy)
        return _report(
            "nabla",
            echo,
            res.value,
            0j,
            tol,
            res.N_used,
            policy,
            started,
            scale=reference,
            detail=f"reference={reference!r}",
        )
    except EllSelbergError as exc:
        return _failed("nabla", echo, tol, policy, started, exc)


def _da_closed(a, n, nomes, policy):
    pp = qpoch_inf(nomes.p, nomes.p, policy)
    qq = qpoch_inf(nomes.q, nomes.q, policy)
    out = 2.0**n * math.factorial(n) / (pp * qq) ** n
    for j in range(len(a)):
        for k in range(j + 1, len(a)):
            out *= elliptic_gamma(a[j] * a[k], nomes, policy)
    return out


def scenario_dixon_anderson(
    n: int,
    a,
    nomes: Nomes,
    tol: float,
    budget: int | None = None,
    policy: TruncationPolicy | None = None,
    timing: bool = False,
    seed_index: int = 0,
    constraint_exponent: int = 1,
) -> ScenarioReport:
    """The coupling-free 2n+4 parameter integral against its Gamma product.

    The balancing prod a_m = (p q)^constraint_exponent is checked, not
    assumed; exponent 1 is the value that makes the identity hold (verified
    for n <= 2, and forced at n = 1 by the t-free case of the main formula).
    """
    started = time.monotonic() if timing else None
    a = tuple(complex(v) for v in a)
    echo = {
        "n": n,
        "p": nomes.p,
        "q": nomes.q,
        "t": None,
        "a": a,
        "balancing": None,
        "seed_index": seed_index,
        "constraint_exponent": constraint_exponent,
    }
    try:
        if len(a) != 2 * n + 4:
            raise SampleRejectionError(f"need 2n+4={2 * n + 4} parameters, got {len(a)}")
        prod = 1.0 + 0.0j
        for v in a:
            prod *= v
        target = nomes.pq**constraint_exponent
        if abs(prod - target) > 1e-10 * max(abs(target), 1.0):
            raise SampleRejectionError(
                f"prod a_m = {prod!r} violates (p q)^{constraint_exponent} = {target!r}"
            )
        rhs = _da_closed(a, n, nomes, policy)
        scale = max(abs(rhs), 1.0)
        kernel = _bc_kernel([pm(GAMMA, am) for am in a], None, range(n))
        quad = _integrate_scaled(
            lambda z: evaluate(kernel, _z_list(z, n), nomes, policy), n, tol, scale, budget
        )
        return _report(
            "dixon_anderson", echo, quad.value, rhs, tol, quad.N_used, policy, started
        )
    except EllSelbergError as exc:
        return _failed("dixon_anderson", echo, tol, policy, started, exc)


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
    policy: TruncationPolicy | None = None,
    timing: bool = False,
    seed_index: int = 0,
) -> ScenarioReport:
    """Residue and pinch checks; ``check`` selects which statement.

    "limit": closed lim (1-a_1 a_2) J_n against the Richardson-extrapolated
      numeric limit (params must be pinched: a_2 = 1/a_1).
    "integral": n=1 pinch of the continued integral against
      2 prod_{m>=3} Gamma(a_m a_1^{+-1}) / ((p;p)^2 (q;q)^2).
    "continued": n=1 continued integral with one parameter outside the unit
    circle against c_1 J_1.

    The extrapolation runs at (3e-4, 3e-5) rather than the residue-module
    defaults: the leftover error |C_2| eps_c eps_f must clear tol for
    sampled draws, whose curvature C_2 is not hand-picked.
    """
    eps_pair = {"eps_coarse": 3e-4, "eps_fine": 3e-5}
    started = time.monotonic() if timing else None
    name = f"pinch_{check}"
    echo = _echo(params, nomes, seed_index=seed_index)
    try:
        if check == "limit":
            rhs = lim_pinch_J(params, nomes, policy)

            def f(eps):
                ps_eps = params.with_entry(2, (1 - eps) / params.a[0])
                return (1 - ps_eps.a[0] * ps_eps.a[1]) * j_closed(ps_eps, nomes, policy)

            lhs = richardson_limit(f, **eps_pair)
            return _report(name, echo, lhs, rhs, tol, 0, policy, started)
        if check == "integral":
            if params.n != 1:
                raise SampleRejectionError("integral pinch check is n = 1 only")
            pp = qpoch_inf(nomes.p, nomes.p, policy)
            qq = qpoch_inf(nomes.q, nomes.q, policy)
            rhs = 2.0 / (pp * qq) ** 2
            for m in range(2, 6):
                rhs *= gamma_pm(params.a[m], params.a[0], nomes, policy)

            def g(eps):
                ps_eps = params.with_entry(2, (1 - eps) / params.a[0])
                return (1 - ps_eps.a[0] * ps_eps.a[1]) * continued_integral_n1(
                    ps_eps, nomes, 1e-9 / eps, budget, policy=policy
                )

            lhs = richardson_limit(g, **eps_pair)
            return _report(
                name, echo, lhs, rhs, tol, budget or default_budget(1), policy, started
            )
        if check == "continued":
            if params.n != 1:
                raise SampleRejectionError("continued check is n = 1 only")
            rhs = c_constant(1, nomes, params.t, policy) * j_closed(params, nomes, policy)
            lhs = continued_integral_n1(
                params, nomes, 5e-5 * max(abs(rhs), 1.0), budget, policy=policy
            )
            return _report(
                name, echo, lhs, rhs, tol, budget or default_budget(1), policy, started
            )
        raise SampleRejectionError(f"unknown pinch check {check!r}")
    except EllSelbergError as exc:
        return _failed(name, echo, tol, policy, started, exc)


def make_continued(
    params: ParameterSet, nomes: Nomes, modulus: float = 1.05
) -> ParameterSet:
    """PQ-balanced companion with |a_1| moved to ``modulus`` (phase kept),
    a_6 re-solved; feeds the continued-integral check at n = 1."""
    a = list(params.a[:5])
    a[0] = modulus * a[0] / abs(a[0])
    return ParameterSet.solved(params.n, params.t, a, nomes, BalancingMode.PQ)


# Default suite rows.  Nomes and boxes are chosen so the solved entry lands
# inside the safe disk at a workable rate: the PQ-balanced |a_6| shrinks with
# the free product, the ONE-balanced |a_6| grows with it, and the q-shift
# window |a_6| < |q| needs both nomes small and the free moduli large.
_EVAL_NOMES = Nomes(0.05, 0.12)
_EVAL_P0_NOMES = Nomes(0.0, 0.12)
_QDE_NOMES = {1: Nomes(0.05, 0.12), 2: Nomes(0.01, 0.12)}
_ONE_NOMES = Nomes(0.015, 0.12)
_QDE_BOX = SafeBox(a_min=0.5, a_max=0.7)
_ONE_BOX = SafeBox(a_min=0.55, a_max=0.7)
_DA_BOX = SafeBox(a_min=0.4, a_max=0.6)

_SUITE_TOL = {
    ("eval_formula", 1): 1e-8,
    ("eval_formula", 2): 1e-6,
    ("qde", 1): 1e-7,
    ("qde", 2): 1e-6,
    ("recurrence", 1): 1e-7,
    ("recurrence", 2): 1e-6,
    ("recurrence_telescope", 1): 1e-7,
    ("recurrence_telescope", 2): 1e-6,
    ("nabla", 1): 1e-7,
    ("nabla", 2): 1e-7,
    ("dixon_anderson", 1): 1e-8,
    ("dixon_anderson", 2): 1e-6,
    ("pinch", 1): 1e-6,
}

_SUITE_COUNT = {("eval_formula", 1): 3, ("eval_formula", 2): 2}

SCENARIO_NAMES = (
    "eval_formula",
    "qde",
    "recurrence",
    "recurrence_telescope",
    "nabla",
    "dixon_anderson",
    "pinch",
)


def _suite_tol(name: str, n: int, override: float | None) -> float:
    return override if override is not None else _SUITE_TOL[(name, n)]


def _suite_count(name: str, n: int, override: int | None) -> int:
    return override if override is not None else _SUITE_COUNT.get((name, n), 1)


def _qde_predicate(nomes):
    return lambda ps: abs(ps.a[5]) < 0.95 * abs(nomes.q)


def run_suite(
    seed: int = 42,
    scenario: str | None = None,
    count: int | None = None,
    tol: float | None = None,
    grid: int | None = None,
    timing: bool = False,
    policy: TruncationPolicy | None = None,
) -> list[ScenarioReport]:
    """Run the default verification suite (all scenarios, n <= 2).

    ``scenario`` restricts to one scenario name; ``count``/``tol``/``grid``
    override the per-row defaults.  Reports are sorted by
    (scenario, n, seed_index, k, r, i) regardless of execution order.
    """
    if scenario is not None and scenario not in SCENARIO_NAMES:
        raise ConfigurationError(
            f"unknown scenario {scenario!r}; expected one of {', '.join(SCENARIO_NAMES)}"
        )
    want = lambda name: scenario is None or scenario == name
    common = dict(budget=grid, policy=policy, timing=timing)
    reports: list[ScenarioReport] = []

    if want("eval_formula"):
        for n in (1, 2):
            c = _suite_count("eval_formula", n, count)
            t = _suite_tol("eval_formula", n, tol)
            sets = sample_parameters(
                BalancingMode.PQ, n, _EVAL_NOMES, seed + 11 * n, c
            )
            for idx, ps in enumerate(sets):
                reports.append(
                    scenario_eval_formula(
                        n, ps, _EVAL_NOMES, t, seed_index=idx, **common
                    )
                )
        # trigonometric limit: p = 0 with the solved entry at its limit 0
        t = _suite_tol("eval_formula", 1, tol)
        for idx, ps in enumerate(
            sample_parameters(BalancingMode.PQ, 1, _EVAL_P0_NOMES, seed + 13, 1)
        ):
            reports.append(
                scenario_eval_formula(
                    1, ps, _EVAL_P0_NOMES, t, seed_index=100 + idx, **common
                )
            )

    if want("qde"):
        for n, ks in ((1, (1, 2, 3, 4, 5)), (2, (1, 3))):
            nm = _QDE_NOMES[n]
            t = _suite_tol("qde", n, tol)
            sets = sample_parameters(
                BalancingMode.PQ, n, nm, seed + 21 * n,
                _suite_count("qde", n, count),
                box=_QDE_BOX, predicate=_qde_predicate(nm),
            )
            for idx, ps in enumerate(sets):
                for k in ks:
                    reports.append(
                        scenario_qde(n, k, ps, nm, t, seed_index=idx, **common)
                    )
        # the shifted-balancing variant, n = 1
        t = _suite_tol("qde", 1, tol)
        sets = sample_parameters(
            BalancingMode.P, 1, _QDE_NOMES[1], seed + 23,
            _suite_count("qde", 1, count), box=_QDE_BOX,
        )
        for idx, ps in enumerate(sets):
            reports.append(
                scenario_qde(1, 2, ps, _QDE_NOMES[1], t, seed_index=100 + idx, **common)
            )

    needs_one = want("recurrence") or want("recurrence_telescope") or want("nabla")
    if needs_one:
        for n in (1, 2):
            sets = sample_parameters(
                BalancingMode.ONE, n, _ONE_NOMES, seed + 31 * n,
                _suite_count("recurrence", n, count), t=0.5, box=_ONE_BOX,
            )
            for idx, ps in enumerate(sets):
                if want("recurrence"):
                    t = _suite_tol("recurrence", n, tol)
                    for r in range(1, n + 1):
                        reports.append(
                            scenario_recurrence(
                                n, r, ps, _ONE_NOMES, t, seed_index=idx, **common
                            )
                        )
                if want("recurrence_telescope"):
                    t = _suite_tol("recurrence_telescope", n, tol)
                    reports.append(
                        scenario_recurrence_telescope(
                            n, ps, _ONE_NOMES, t, seed_index=idx, **common
                        )
                    )
                if want("nabla"):
                    t = _suite_tol("nabla", n, tol)
                    for r in range(1, n + 1):
                        for i in range(1, n + 1):
                            reports.append(
                                scenario_nabla(
                                    n, r, i, ps, _ONE_NOMES, t, seed_index=idx, **common
                                )
                            )

    if want("dixon_anderson"):
        for n in (1, 2):
            t = _suite_tol("dixon_anderson", n, tol)
            tuples = sample_da_parameters(
                n, _EVAL_NOMES, seed + 41 * n,
                _suite_count("dixon_anderson", n, count), box=_DA_BOX,
            )
            for idx, a in enumerate(tuples):
                reports.append(
                    scenario_dixon_anderson(
                        n, a, _EVAL_NOMES, t, seed_index=idx, **common
                    )
                )

    if want("pinch"):
        t = _suite_tol("pinch", 1, tol)
        base = sample_parameters(
            BalancingMode.PQ, 1, _EVAL_NOMES, seed + 51,
            _suite_count("pinch", 1, count), box=_QDE_BOX,
        )
        for idx, ps in enumerate(base):
            pinched = make_pinched(ps, _EVAL_NOMES)
            reports.append(
                scenario_pinch(
                    pinched, _EVAL_NOMES, t, check="limit", seed_index=idx, **common
                )
            )
            reports.append(
                scenario_pinch(
                    pinched, _EVAL_NOMES, t, check="integral", seed_index=idx, **common
                )
            )
            reports.append(
                scenario_pinch(
                    make_continued(ps, _EVAL_NOMES), _EVAL_NOMES, t,
                    check="continued", seed_index=idx, **common
                )
            )
        # rank 2 closed-form pinch (no quadrature involved)
        base2 = sample_parameters(
            BalancingMode.PQ, 2, _EVAL_NOMES, seed + 52, 1, box=_QDE_BOX
        )
        for idx, ps in enumerate(base2):
            reports.append(
                scenario_pinch(
                    make_pinched(ps, _EVAL_NOMES), _EVAL_NOMES, t,
                    check="limit", seed_index=100 + idx, **common
                )
            )

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
