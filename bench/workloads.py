"""The benchmark's workloads: inputs made from the seed, a batch of cases,
and the checks on the batch's outputs.

Each workload is a closed loop with one caller: the next case starts when
the previous one has returned.  ``generate`` is the input generation that
counts as set-up; ``groups`` splits the timed batch into groups of cases,
each a callable returning its outcomes, which the harness times one by one.
Both look the program's functions up on the imported package at call time,
so the tracer's wrappers are seen.  The nomes, boxes and tolerances below
are those of the default suite, copied here so the benchmark stays fixed
while the program changes.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import random
import sys
from dataclasses import dataclass

# The default suite's sampling rows: nomes and safe-box moduli.
EVAL_NOMES = (0.05, 0.12)
QDE_NOMES = (0.05, 0.12)
ONE_NOMES = (0.015, 0.12)
QDE_BOX = dict(a_min=0.5, a_max=0.7)
ONE_BOX = dict(a_min=0.55, a_max=0.7)
DA_BOX = dict(a_min=0.4, a_max=0.6)
# n = 3 draws need a larger coupling: with t in [0.3, 0.5] the PQ sampler
# cannot solve a_6 inside the disk.
N3_BOX = dict(a_min=0.5, a_max=0.75)
N3_T = 0.7

# The default suite's rank-1 tolerances.
TOL_N1 = {
    "eval_formula": 1e-8,
    "qde": 1e-7,
    "recurrence": 1e-7,
    "recurrence_telescope": 1e-7,
    "nabla": 1e-7,
    "dixon_anderson": 1e-8,
    "pinch": 1e-6,
}

# Bars of the closed-form checks (acceptance criteria 1 and 6).
FE_TOL = 1e-11
RATIO_TOL = 1e-11
CN_TOL = 1e-12

# ``verify`` with no seed runs the default suite at this seed.
SUITE_SEED = 42
# Reports of the default suite, per scenario (30 in all).
SUITE_REPORTS = {
    "eval_formula": 6,
    "qde": 8,
    "recurrence": 3,
    "recurrence_telescope": 2,
    "nabla": 5,
    "dixon_anderson": 2,
    "pinch": 4,
}


@dataclass(frozen=True)
class Outcome:
    """One case of a batch.

    ``passed`` is False for a failed report, a raised exception or a missed
    benchmark check.  ``checked`` is False only for a missed benchmark check:
    an output the benchmark itself found wrong, as opposed to a failure the
    program reported.  ``tol`` is None for cases without a tolerance.
    """

    case: str
    passed: bool
    rel_err: float | None = None
    tol: float | None = None
    checked: bool = True


def _pkg():
    return sys.modules["ellselberg"]


def _rel(a, b) -> float:
    a, b = complex(a), complex(b)
    d = max(abs(a), abs(b))
    return abs(a - b) / d if d > 1e-12 else abs(a - b)


def _report_outcome(rep, case: str) -> Outcome:
    """A scenario report as an outcome; its verdict must agree with its error."""
    consistent = rep.passed == (rep.rel_err <= rep.tol)
    return Outcome(
        case, bool(rep.passed and consistent), rep.rel_err, rep.tol, checked=consistent
    )


def _raised(case: str, exc: Exception) -> Outcome:
    return Outcome(f"{case} raised {type(exc).__name__}: {exc}", False, checked=False)


def _seeds(seed: int, count: int) -> list[int]:
    """Independent sampler seeds for one workload seed."""
    rng = random.Random(seed)
    return [rng.randrange(1 << 30) for _ in range(count)]


class Suite:
    """The default verification suite, through the command line's ``verify``.

    Its inputs are those of the default ``ellselberg verify`` run: the suite
    at seed 42.  The workload seed does not change them, because the
    suite's work changes up to fourfold with its sampling seed (rank-2
    ``nabla`` stops at N = 128 or N = 256), which no fixed bound can follow.
    The batch runs ``verify --scenario NAME`` once per scenario: together
    the seven calls produce the default suite's 30 reports.
    """

    def __init__(self, out_dir, smoke: bool = False):
        self.out_dir = out_dir
        self.smoke = smoke

    def generate(self, seed: int):
        cli = sys.modules["ellselberg.cli"]
        cli.build_parser()
        if self.smoke:
            # the smoke run keeps one sampled set of the pinch rows
            return [("pinch", ["--count", "1"], 4)]
        return [(name, [], count) for name, count in SUITE_REPORTS.items()]

    def groups(self, inputs):
        return [
            lambda name=name, extra=extra, count=count: self._verify(name, extra, count)
            for name, extra, count in inputs
        ]

    def _verify(self, scenario: str, extra: list, expected: int) -> list[Outcome]:
        cli = sys.modules["ellselberg.cli"]
        path = self.out_dir / f"suite-{scenario}.json"
        argv = ["verify", "--seed", str(SUITE_SEED), "--scenario", scenario,
                "--report", str(path), "--format", "json"] + extra
        if path.exists():
            path.unlink()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            with open(path, encoding="utf-8") as fh:
                reports = json.load(fh)
        except Exception as exc:  # the batch must report, not stop the run
            return [_raised(scenario, exc)] + [
                Outcome(f"{scenario} report {k}", False, checked=False) for k in range(expected)
            ]
        out = []
        for rep in reports:
            case = f"{rep['scenario']}.n{rep['n']}#{rep['seed_index']}"
            consistent = rep["passed"] == (rep["rel_err"] <= rep["tol"])
            out.append(
                Outcome(case, bool(rep["passed"] and consistent), rep["rel_err"], rep["tol"], consistent)
            )
        if len(reports) != expected:
            out.append(Outcome(f"{scenario}: {len(reports)} reports, expected {expected}",
                               False, checked=False))
        want = 0 if all(rep["passed"] for rep in reports) else 1
        if code != want:
            out.append(Outcome(f"{scenario}: exit code {code}, expected {want}", False, checked=False))
        return out


class SweepN1:
    """Rank-1 scenarios over sampled draws, with the default suite's nomes,
    boxes and tolerances.  Each draw runs 14 cases: eval_formula, qde for
    k = 1..5 and the P-balanced variant, recurrence, recurrence_telescope,
    nabla (1, 1), dixon_anderson, and the pinch limit, integral and
    continued checks."""

    def __init__(self, draws: int = 8):
        self.draws = draws

    def generate(self, seed: int):
        es = _pkg()
        pq, p_mode, one = es.BalancingMode.PQ, es.BalancingMode.P, es.BalancingMode.ONE
        ev, qn, on = es.Nomes(*EVAL_NOMES), es.Nomes(*QDE_NOMES), es.Nomes(*ONE_NOMES)
        qde_box, one_box, da_box = es.SafeBox(**QDE_BOX), es.SafeBox(**ONE_BOX), es.SafeBox(**DA_BOX)
        s = _seeds(seed, 6)
        d = self.draws
        in_q = lambda ps: abs(ps.a[5]) < 0.95 * abs(qn.q)  # the suite's q-shift window
        base = es.sample_parameters(pq, 1, ev, s[5], d, box=qde_box)
        return {
            "nomes": (ev, qn, on),
            "eval": es.sample_parameters(pq, 1, ev, s[0], d),
            "qde": es.sample_parameters(pq, 1, qn, s[1], d, box=qde_box, predicate=in_q),
            "qde_p": es.sample_parameters(p_mode, 1, qn, s[2], d, box=qde_box),
            "one": es.sample_parameters(one, 1, on, s[3], d, t=0.5, box=one_box),
            "da": es.sample_da_parameters(1, ev, s[4], d, box=da_box),
            "pinched": [es.make_pinched(ps, ev) for ps in base],
            "continued": [es.make_continued(ps, ev) for ps in base],
        }

    def groups(self, inp):
        ev, qn, on = inp["nomes"]
        tol = TOL_N1

        def case(j, runner, *args, **kwargs):
            def run():
                rep = getattr(_pkg(), runner)(*args, **kwargs)
                label = f"{rep.scenario}.k{rep.k}#{j}" if rep.k else f"{rep.scenario}#{j}"
                return [_report_outcome(rep, label)]

            return run

        out = []
        for j in range(self.draws):
            one, pinched = inp["one"][j], inp["pinched"][j]
            out.append(case(j, "scenario_eval_formula", 1, inp["eval"][j], ev, tol["eval_formula"]))
            out += [case(j, "scenario_qde", 1, k, inp["qde"][j], qn, tol["qde"]) for k in range(1, 6)]
            out.append(case(j, "scenario_qde", 1, 2, inp["qde_p"][j], qn, tol["qde"]))
            out.append(case(j, "scenario_recurrence", 1, 1, one, on, tol["recurrence"]))
            out.append(case(j, "scenario_recurrence_telescope", 1, one, on, tol["recurrence_telescope"]))
            out.append(case(j, "scenario_nabla", 1, 1, 1, one, on, tol["nabla"]))
            out.append(case(j, "scenario_dixon_anderson", 1, inp["da"][j], ev, tol["dixon_anderson"]))
            for check in ("limit", "integral"):
                out.append(case(j, "scenario_pinch", pinched, ev, tol["pinch"], check=check))
            out.append(case(j, "scenario_pinch", inp["continued"][j], ev, tol["pinch"], check="continued"))
        return out


class ClosedForms:
    """Scalar closed forms, no quadrature: c_n J and the pinch limit of J
    (n = 1, 2, 3), the recurrence coefficients against the boundary ratio
    (n = 1, 2), the c_n recurrence (n <= 5) and the functional equations of
    the elliptic gamma function at random points."""

    def __init__(self, sets: int = 60, points: int = 600):
        self.sets = sets
        self.points = points

    def generate(self, seed: int):
        es = _pkg()
        pq, one = es.BalancingMode.PQ, es.BalancingMode.ONE
        ev, on = es.Nomes(*EVAL_NOMES), es.Nomes(*ONE_NOMES)
        s = _seeds(seed, 7)
        k = self.sets
        pq_sets = {
            1: es.sample_parameters(pq, 1, ev, s[0], k, box=es.SafeBox(**QDE_BOX)),
            2: es.sample_parameters(pq, 2, ev, s[1], k, box=es.SafeBox(**QDE_BOX)),
            3: es.sample_parameters(pq, 3, ev, s[2], k, t=N3_T, box=es.SafeBox(**N3_BOX)),
        }
        one_sets = {
            n: es.sample_parameters(one, n, on, s[2 + n], k, t=0.5, box=es.SafeBox(**ONE_BOX))
            for n in (1, 2)
        }
        rng = random.Random(s[5])
        couplings = [rng.uniform(0.3, 0.5) for _ in range(k)]
        rng = random.Random(s[6])
        points = []
        for _ in range(self.points):
            p = rng.uniform(0.02, 0.25) * cmath.exp(2j * cmath.pi * rng.random())
            q = rng.uniform(0.02, 0.25) * cmath.exp(2j * cmath.pi * rng.random())
            u = rng.uniform(0.3, 1.5) * cmath.exp(2j * cmath.pi * rng.random())
            points.append((es.Nomes(p, q), u))
        return {
            "nomes": (ev, on),
            "pq": [(n, ps, es.make_pinched(ps, ev)) for n, sets in pq_sets.items() for ps in sets],
            "one": [ps for sets in one_sets.values() for ps in sets],
            "couplings": couplings,
            "points": points,
        }

    def groups(self, inp):
        ev, on = inp["nomes"]

        def c_n_j(es, n, ps, _pinched):
            return [_finite(f"cnJ.n{n}", es.c_constant(n, ev, ps.t) * es.j_closed(ps, ev))]

        def pinch_j(es, n, _ps, pinched):
            return [_finite(f"pinchJ.n{n}", es.lim_pinch_J(pinched, ev))]

        def telescoped(es, ps):
            prod = 1.0 + 0.0j
            for r in range(1, ps.n + 1):
                prod *= es.coefficient_c(r, ps, on)
            err = _rel(prod, es.boundary_expectation_ratio(ps, on))
            return [_within(f"ratio.n{ps.n}", err, RATIO_TOL)]

        def cn_recurrence(es, t):
            return [
                _within(f"cn_rec.n{n}", es.cn_recurrence_check(n, t, ev), CN_TOL)
                for n in range(1, 6)
            ]

        def equations(es, nm, u):
            gamma, theta = es.elliptic_gamma, es.theta
            shift = _rel(gamma(nm.q * u, nm), theta(u, nm.p) * gamma(u, nm))
            reflect = _rel(gamma(u, nm) * gamma(nm.pq / u, nm), 1.0)
            return [_within("fe.shift", shift, FE_TOL), _within("fe.reflect", reflect, FE_TOL)]

        groups = []
        for n in (1, 2, 3):
            items = [item for item in inp["pq"] if item[0] == n]
            groups += _groups(c_n_j, items) + _groups(pinch_j, items)
        for n in (1, 2):
            groups += _groups(telescoped, [(ps,) for ps in inp["one"] if ps.n == n])
        groups += _groups(cn_recurrence, [(t,) for t in inp["couplings"]])
        groups += _groups(equations, inp["points"])
        return groups


def _finite(label: str, value) -> Outcome:
    ok = cmath.isfinite(value) and value != 0
    return Outcome(label, ok, checked=ok)


def _within(label: str, err: float, tol: float) -> Outcome:
    ok = err < tol
    return Outcome(label, ok, err, tol, checked=ok)


def _groups(check, items, size: int = 10):
    """Groups of up to ``size`` cases: check(es, *item) for each item; a
    raised case fails."""
    return [_group(check, items[k:k + size]) for k in range(0, len(items), size)]


def _group(check, items):
    def run() -> list[Outcome]:
        es = _pkg()
        out = []
        for item in items:
            try:
                out.extend(check(es, *item))
            except Exception as exc:  # a raised case is a failed case
                out.append(_raised(f"{check.__name__}{item}", exc))
        return out

    return run


def headroom(outcome: Outcome) -> float | None:
    """log10(tol / rel_err) for a passing case with a tolerance."""
    if not outcome.passed or outcome.tol is None or outcome.rel_err is None:
        return None
    return math.log10(outcome.tol / max(outcome.rel_err, 1e-16))
