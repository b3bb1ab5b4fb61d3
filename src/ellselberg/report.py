"""Scenario reports and their JSON/CSV serialization.

Reports are plain records with a fixed field order; complex values are
serialized as two-element [re, im] arrays.  Writers are deterministic:
identical report lists produce identical bytes.
"""

from __future__ import annotations

import csv
import io
import json

from .record import Record, _set

ABS_FALLBACK = 1e-12


class ScenarioReport(Record):
    """One verdict: an identity's two sides, their distance, and pass/fail.

    rel_err is |lhs-rhs| / max(|lhs|, |rhs|), falling back to the absolute
    error when both sides are below 1e-12; scenarios comparing against an
    exact zero (rhs = 0) divide by their own reference scale instead and
    say so in ``detail``.  ``passed`` is rel_err <= tol.  runtime_ms is None
    when timing is disabled (the byte-reproducible default).
    """

    __slots__ = (
        "scenario", "seed_index", "n", "p", "q", "t", "a", "balancing", "k", "r", "i", "grid_N",
        "lhs", "rhs", "abs_err", "rel_err", "tol", "passed", "runtime_ms", "tail_tol", "max_terms",
        "constraint_exponent", "detail",
    )

    def __init__(
        self, scenario: str, seed_index: int, n: int, p: complex, q: complex,
        t: complex | None, a: tuple, balancing: str | None,
        k: int | None, r: int | None, i: int | None, grid_N: int,
        lhs: complex, rhs: complex, abs_err: float, rel_err: float, tol: float, passed: bool,
        runtime_ms: int | None, tail_tol: float, max_terms: int,
        constraint_exponent: int | None = None, detail: str = "",
    ):
        _set(self, "scenario", scenario)
        _set(self, "seed_index", seed_index)
        _set(self, "n", n)
        _set(self, "p", p)
        _set(self, "q", q)
        _set(self, "t", t)
        _set(self, "a", a)
        _set(self, "balancing", balancing)
        _set(self, "k", k)
        _set(self, "r", r)
        _set(self, "i", i)
        _set(self, "grid_N", grid_N)
        _set(self, "lhs", lhs)
        _set(self, "rhs", rhs)
        _set(self, "abs_err", abs_err)
        _set(self, "rel_err", rel_err)
        _set(self, "tol", tol)
        _set(self, "passed", passed)
        _set(self, "runtime_ms", runtime_ms)
        _set(self, "tail_tol", tail_tol)
        _set(self, "max_terms", max_terms)
        _set(self, "constraint_exponent", constraint_exponent)
        _set(self, "detail", detail)


# The documented field order for both JSON objects and CSV columns.
FIELD_ORDER = ScenarioReport.field_names


def relative_error(lhs: complex, rhs: complex) -> tuple[float, float]:
    """(abs_err, rel_err) with the absolute fallback below 1e-12 magnitude."""
    abs_err = abs(lhs - rhs)
    scale = max(abs(lhs), abs(rhs))
    return abs_err, abs_err / scale if scale > ABS_FALLBACK else abs_err


COMPLEX_FIELDS = ("p", "q", "t", "lhs", "rhs")


def _encode(name, value):
    if name == "a":
        return [[complex(v).real, complex(v).imag] for v in value]
    if name in COMPLEX_FIELDS and value is not None:
        v = complex(value)
        return [v.real, v.imag]
    return value


def report_to_dict(rep: ScenarioReport) -> dict:
    return {name: _encode(name, getattr(rep, name)) for name in FIELD_ORDER}


def to_json(reports: list[ScenarioReport]) -> str:
    """A bare JSON array of report objects in fixed field order."""
    return json.dumps([report_to_dict(r) for r in reports], indent=2) + "\n"


def _columns(name, a_width):
    if name == "a":
        return [f"a{idx}_{part}" for idx in range(1, a_width + 1) for part in ("re", "im")]
    if name in COMPLEX_FIELDS:
        return [f"{name}_re", f"{name}_im"]
    return [name]


def _cells(name, value, a_width):
    if name == "a":
        vals = list(value)
        for idx in range(a_width):
            v = vals[idx] if idx < len(vals) else None
            yield "" if v is None else repr(complex(v).real)
            yield "" if v is None else repr(complex(v).imag)
    elif name in COMPLEX_FIELDS:
        v = None if value is None else complex(value)
        yield "" if v is None else repr(v.real)
        yield "" if v is None else repr(v.imag)
    elif value is None:
        yield ""
    elif isinstance(value, bool):
        yield "true" if value else "false"
    elif isinstance(value, float):
        yield repr(value)
    else:
        yield str(value)


def to_csv(reports: list[ScenarioReport]) -> str:
    """The same fields flattened; complex columns split into _re/_im.

    The header row is always written; the ``a`` columns cover the widest
    parameter tuple, 6 entries for an empty list.
    """
    a_width = max((len(r.a) for r in reports), default=6)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([col for name in FIELD_ORDER for col in _columns(name, a_width)])
    for rep in reports:
        writer.writerow(
            [cell for name in FIELD_ORDER for cell in _cells(name, getattr(rep, name), a_width)]
        )
    return buf.getvalue()


def write_report(reports: list[ScenarioReport], path: str, fmt: str = "json"):
    text = to_json(reports) if fmt == "json" else to_csv(reports)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
