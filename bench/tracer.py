"""Outside-in tracer: wraps a package's public functions and records spans.

Nothing inside the traced package changes.  :meth:`Tracer.install` replaces
every public module-level function of each layer module by a wrapper, in
every namespace of the package that holds the function (so
``from .qseries import elliptic_gamma`` in another module is traced too).
Each wrapped call appends one :class:`Span` to an in-memory list; spans are
written out only when :meth:`Tracer.write` is called at the end of a run.

Self time of a span is its duration minus the durations of its direct
children.  Calls are counted at *entry from another layer*: a span whose
parent belongs to the same layer (``elliptic_gamma`` -> ``double_poch_inf``)
adds its self time to the layer but is not counted as a new call.
"""

from __future__ import annotations

import inspect
import os
import sys
import time

import numpy as np

# Layer modules of the traced package, named after the modules.
LAYERS = (
    "qseries",
    "invariants",
    "integrand",
    "quadrature",
    "residues",
    "sampling",
    "scenarios",
    "report",
    "cli",
)

# Scenario rows timed separately: (report scenario name, rank).
ROWS = (
    ("eval_formula", 1),
    ("eval_formula", 2),
    ("qde", 1),
    ("qde", 2),
    ("recurrence", 1),
    ("recurrence", 2),
    ("recurrence_telescope", 1),
    ("recurrence_telescope", 2),
    ("nabla", 1),
    ("nabla", 2),
    ("dixon_anderson", 1),
    ("dixon_anderson", 2),
    ("pinch_limit", 1),
    ("pinch_limit", 2),
    ("pinch_integral", 1),
    ("pinch_continued", 1),
)

# Arrays up to this many elements count as "small" q-series calls.
SMALL_ARRAY = 8192


class Span:
    """One wrapped call: parent is the index of the enclosing span or -1."""

    __slots__ = ("parent", "layer", "name", "case", "start", "end", "points", "info", "error")

    def __init__(self, parent, layer, name, case, points):
        self.parent = parent
        self.layer = layer
        self.name = name
        self.case = case
        self.start = self.end = 0.0
        self.points = points
        self.info = None
        self.error = None


def _points(args) -> int:
    """Largest array size among the arguments; 0 for an all-scalar call."""
    best = 0
    for a in args:
        kind = type(a)
        if kind is np.ndarray:
            size = a.size
        elif (kind is list or kind is tuple) and a and type(a[0]) is np.ndarray:
            size = a[0].size
        else:
            continue
        if size > best:
            best = size
    return best


class Tracer:
    """Span recorder for the public functions of ``package``'s layer modules."""

    def __init__(self, package: str = "ellselberg", layers=LAYERS, clock=time.perf_counter):
        self.package = package
        self.layers = tuple(layers)
        self.clock = clock
        self.spans: list[Span] = []
        self.case = "glue"
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- installation -----------------------------------------------------

    def _namespaces(self):
        pkg = self.package
        return [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == pkg or name.startswith(pkg + "."))
        ]

    def install(self) -> None:
        namespaces = self._namespaces()
        for layer in self.layers:
            module = sys.modules.get(f"{self.package}.{layer}")
            if module is None:
                continue
            for name, fn in sorted(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(layer, name, fn)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._saved.append((ns, attr, fn))
                            setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, fn in reversed(self._saved):
            setattr(ns, attr, fn)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, layer, name, fn):
        hook = self._hook(layer, name, fn)
        spans, stack, clock = self.spans, self._stack, self.clock

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = Span(parent, layer, name, self.case, _points(args))
            spans.append(span)
            stack.append(len(spans) - 1)
            if hook is not None:
                args, kwargs, finish = hook(span, args, kwargs)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = clock()
                span.error = type(exc).__name__
                stack.pop()
                if hook is not None:
                    finish(None)
                raise
            span.end = clock()
            stack.pop()
            if hook is not None:
                finish(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _hook(self, layer, name, fn):
        """Per-function bookkeeping: returns hook(span, args, kwargs) or None.

        A hook returns (args, kwargs, finish); finish(result) runs after the
        call (result is None when the call raised).
        """
        if layer == "integrand" and name in ("psi", "psi_tilde"):

            def integrand_hook(span, args, kwargs):
                z = args[0]
                span.info = z.n if hasattr(z, "n") else len(z)
                return args, kwargs, _noop

            return integrand_hook

        if layer == "quadrature" and name == "torus_integrate":

            def quadrature_hook(span, args, kwargs):
                f, n = args[0], args[1]
                span.info = {"rungs": 0, "points": 0, "final": 0}

                def counted(z):
                    span.info["rungs"] += 1
                    span.info["points"] += np.asarray(z[0]).size
                    return f(z)

                def finish(result):
                    if result is not None:
                        span.info["final"] = result.N_used**n

                return (counted,) + tuple(args[1:]), kwargs, finish

            return quadrature_hook

        if layer == "sampling" and name.startswith("sample_"):
            pos = list(inspect.signature(fn).parameters).index("stats")
            stats_class = vars(sys.modules[fn.__module__])["SampleStats"]

            def sampling_hook(span, args, kwargs):
                stats = args[pos] if len(args) > pos else kwargs.get("stats")
                if stats is None:
                    stats = stats_class()
                    kwargs = dict(kwargs, stats=stats)
                before = (stats.accepted, stats.rejected)

                def finish(_result):
                    span.info = (stats.accepted - before[0], stats.rejected - before[1])

                return args, kwargs, finish

            return sampling_hook

        if layer == "scenarios" and name.startswith("scenario_"):

            def scenario_hook(span, args, kwargs):
                outer = self.case
                self.case = f"{name}#{len(self.spans) - 1}"

                def finish(report):
                    self.case = outer
                    if report is not None:
                        span.info = (report.scenario, report.n, bool(report.passed))

                return args, kwargs, finish

            return scenario_hook

        if layer == "report" and name == "write_report":

            def report_hook(span, args, kwargs):
                path = args[1] if len(args) > 1 else kwargs["path"]

                def finish(_result):
                    span.info = 0 if span.error else os.path.getsize(path)

                return args, kwargs, finish

            return report_hook

        return None

    # -- output -------------------------------------------------------------

    def write(self, path) -> None:
        """Write spans as tab-separated rows: id, parent, layer, name, case,
        start, end, points, error."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tlayer\tname\tcase\tstart_s\tend_s\tpoints\terror\n")
            for idx, s in enumerate(self.spans):
                fh.write(
                    f"{idx}\t{s.parent}\t{s.layer}\t{s.name}\t{s.case}\t"
                    f"{s.start - t0:.9f}\t{s.end - t0:.9f}\t{s.points}\t{s.error or ''}\n"
                )


def _noop(_result):
    return None


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def entries(spans) -> list[bool]:
    """True for spans entered from another layer (or from outside any span)."""
    return [s.parent < 0 or spans[s.parent].layer != s.layer for s in spans]


def layer_self_times(spans, layers=LAYERS) -> dict:
    totals = dict.fromkeys(layers, 0.0)
    for s, own in zip(spans, self_times(spans)):
        totals[s.layer] = totals.get(s.layer, 0.0) + own
    return totals


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, wall_s: float) -> dict:
    """Per-layer counts and times from the spans of one traced region.

    ``wall_s`` is the traced region's wall time; the time not covered by
    any top-level span is the benchmark's own glue.
    """
    own = self_times(spans)
    entry = entries(spans)
    incl = [s.end - s.start for s in spans]
    under_quad = [False] * len(spans)
    for idx, s in enumerate(spans):
        if s.parent >= 0:
            par = spans[s.parent]
            under_quad[idx] = under_quad[s.parent] or par.name == "torus_integrate"

    m: dict[str, float] = {}
    selfs = layer_self_times(spans)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = selfs[layer]

    def entered(layer):
        return [i for i, s in enumerate(spans) if s.layer == layer and entry[i]]

    # qseries
    q = entered("qseries")
    scalar = [i for i in q if spans[i].points == 0]
    small = [i for i in q if 0 < spans[i].points <= SMALL_ARRAY]
    large = [i for i in q if spans[i].points > SMALL_ARRAY]
    m["qseries.calls"] = len(q)
    m["qseries.scalar_calls"] = len(scalar)
    m["qseries.points"] = sum(max(spans[i].points, 1) for i in q)
    m["qseries.scalar_us_per_call"] = 1e6 * _ratio(sum(incl[i] for i in scalar), len(scalar))
    m["qseries.ns_per_point.small"] = 1e9 * _ratio(
        sum(incl[i] for i in small), sum(spans[i].points for i in small)
    )
    m["qseries.ns_per_point.large"] = 1e9 * _ratio(
        sum(incl[i] for i in large), sum(spans[i].points for i in large)
    )
    m["qseries.pole_errors"] = sum(spans[i].error == "PoleProximityError" for i in q)

    # integrand
    kern = [i for i in entered("integrand") if spans[i].name in ("psi", "psi_tilde")]
    m["integrand.calls"] = len(entered("integrand"))
    m["integrand.points"] = sum(max(spans[i].points, 1) for i in kern)
    for n in (1, 2):
        sel = [i for i in kern if spans[i].info == n]
        m[f"integrand.ns_per_point.n{n}"] = 1e9 * _ratio(
            sum(incl[i] for i in sel), sum(max(spans[i].points, 1) for i in sel)
        )

    # invariants
    inv = entered("invariants")
    m["invariants.calls"] = len(inv)
    m["invariants.degenerate"] = sum(spans[i].error == "DegenerateParameterError" for i in inv)

    # quadrature: every ladder counts, including ladders nested in quadrature
    ladders = [s for s in spans if s.name == "torus_integrate" and s.layer == "quadrature"]
    quad_points = sum(s.info["points"] for s in ladders)
    m["quadrature.integrals"] = len(ladders)
    m["quadrature.rungs"] = sum(s.info["rungs"] for s in ladders)
    m["quadrature.points"] = quad_points
    m["quadrature.final_rung_frac"] = _ratio(sum(s.info["final"] for s in ladders), quad_points)
    m["quadrature.nonconverged"] = sum(s.error == "NonConvergenceError" for s in ladders)
    m["quadrature.gamma_args_per_point"] = _ratio(
        sum(max(spans[i].points, 1) for i in q if under_quad[i]), quad_points
    )

    # residues
    m["residues.calls"] = len(entered("residues"))

    # sampling
    draws = [s for s in spans if s.layer == "sampling" and s.info is not None]
    accepted = sum(s.info[0] for s in draws)
    rejected = sum(s.info[1] for s in draws)
    m["sampling.accepted"] = accepted
    m["sampling.rejected"] = rejected
    m["sampling.accept_frac"] = _ratio(accepted, accepted + rejected)

    # scenarios
    rows = dict.fromkeys(ROWS, 0.0)
    reports = [(i, s.info) for i, s in enumerate(spans) if s.layer == "scenarios" and isinstance(s.info, tuple)]
    for i, (scenario, n, _passed) in reports:
        if (scenario, n) in rows:
            rows[(scenario, n)] += incl[i]
    m["scenarios.reports"] = len(reports)
    m["scenarios.failed"] = sum(not info[2] for _, info in reports)
    for (scenario, n), total in rows.items():
        m[f"scenarios.{scenario}.n{n}.ms"] = 1e3 * total

    # report / cli
    writes = [i for i, s in enumerate(spans) if s.name == "write_report" and s.layer == "report"]
    m["report.bytes"] = sum(spans[i].info or 0 for i in writes)
    m["report.write_s"] = sum(incl[i] for i in writes)

    # accounting: layer self times plus glue must add up to the wall time
    covered = sum(incl[i] for i, s in enumerate(spans) if s.parent < 0)
    glue = wall_s - covered
    m["trace.spans"] = len(spans)
    m["trace.glue_s"] = glue
    m["trace.accounted_frac"] = _ratio(sum(own) + glue, wall_s)
    return m
