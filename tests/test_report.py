"""Report records and their deterministic JSON/CSV serialization."""

import json

import numpy as np
import pytest

from ellselberg import ScenarioReport, relative_error, write_report
from ellselberg.report import FIELD_ORDER, report_to_dict, to_csv, to_json


def make_report(**overrides):
    base = dict(
        scenario="eval",
        seed_index=0,
        n=1,
        p=0.05 + 0.0j,
        q=0.12 + 0.0j,
        t=0.4 + 0.0j,
        a=(0.3, 0.4 + 0.1j, -0.5, 0.6, 0.25, 0.1 - 0.2j),
        balancing="pq",
        k=None,
        r=None,
        i=None,
        grid_N=256,
        lhs=1.5 - 0.25j,
        rhs=1.5 - 0.25j,
        abs_err=0.0,
        rel_err=0.0,
        tol=1e-8,
        passed=True,
        runtime_ms=None,
        tail_tol=1e-13,
        max_terms=512,
    )
    base.update(overrides)
    return ScenarioReport(**base)


class TestRelativeError:
    def test_scales_by_larger_side(self):
        abs_err, rel_err = relative_error(2.0, 1.0)
        assert abs_err == 1.0
        assert rel_err == 0.5

    def test_absolute_fallback_near_zero(self):
        abs_err, rel_err = relative_error(1e-15, -1e-15)
        assert rel_err == abs_err == 2e-15

    def test_complex_inputs(self):
        abs_err, rel_err = relative_error(1j, 1.0)
        assert abs_err == pytest.approx(2**0.5)
        assert rel_err == pytest.approx(2**0.5)


class TestJson:
    def test_field_order_preserved(self):
        # the order the README documents
        documented = (
            "scenario, seed_index, n, p, q, t, a, balancing, k, r, i, grid_N, lhs, rhs, "
            "abs_err, rel_err, tol, passed, runtime_ms, tail_tol, max_terms, "
            "constraint_exponent, detail"
        ).split(", ")
        obj = json.loads(to_json([make_report()]))[0]
        assert list(obj.keys()) == documented == list(FIELD_ORDER)

    def test_complex_as_re_im_pairs(self):
        obj = json.loads(to_json([make_report()]))[0]
        assert obj["lhs"] == [1.5, -0.25]
        assert obj["p"] == [0.05, 0.0]
        assert obj["a"][1] == [0.4, 0.1]
        assert len(obj["a"]) == 6

    def test_none_fields_are_null(self):
        obj = json.loads(to_json([make_report(t=None, k=None)]))[0]
        assert obj["t"] is None
        assert obj["runtime_ms"] is None

    def test_trailing_newline(self):
        assert to_json([]).endswith("\n")

    def test_round_trip_is_deterministic(self):
        reports = [make_report(seed_index=i) for i in range(3)]
        assert to_json(reports) == to_json(reports)


class TestCsv:
    def test_header_schema(self):
        header = to_csv([make_report()]).splitlines()[0].split(",")
        assert header[:8] == [
            "scenario", "seed_index", "n",
            "p_re", "p_im", "q_re", "q_im", "t_re",
        ]
        assert "a1_re" in header and "a6_im" in header
        assert header[-1] == "detail"

    def test_empty_list_writes_the_header(self):
        lines = to_csv([]).splitlines()
        assert lines == [to_csv([make_report()]).splitlines()[0]]
        header = lines[0].split(",")
        assert header[:5] == ["scenario", "seed_index", "n", "p_re", "p_im"]
        assert "a6_im" in header and "a7_re" not in header

    def test_none_t_gives_empty_cells(self):
        lines = to_csv([make_report(t=None)]).splitlines()
        header = lines[0].split(",")
        row = lines[1].split(",")
        assert row[header.index("t_re")] == ""
        assert row[header.index("t_im")] == ""

    def test_a_width_padding(self):
        # mixed report lists pad to the widest parameter tuple
        short = make_report()
        wide = make_report(scenario="dixon-anderson", t=None, a=tuple([0.5] * 8))
        lines = to_csv([short, wide]).splitlines()
        header = lines[0].split(",")
        assert "a8_re" in header
        row_short = lines[1].split(",")
        assert row_short[header.index("a7_re")] == ""

    def test_bool_lowercase(self):
        lines = to_csv([make_report(passed=False)]).splitlines()
        header = lines[0].split(",")
        assert lines[1].split(",")[header.index("passed")] == "false"

    def test_float_repr_round_trips(self):
        rep = make_report(rel_err=3.141592653589793e-09)
        lines = to_csv([rep]).splitlines()
        header = lines[0].split(",")
        cell = lines[1].split(",")[header.index("rel_err")]
        assert float(cell) == rep.rel_err


class TestWriteReport:
    def test_json_file(self, tmp_path):
        path = tmp_path / "out.json"
        write_report([make_report()], str(path), fmt="json")
        assert json.loads(path.read_text())[0]["scenario"] == "eval"

    def test_csv_file(self, tmp_path):
        path = tmp_path / "out.csv"
        write_report([make_report()], str(path), fmt="csv")
        assert path.read_text().startswith("scenario,")

    def test_dict_covers_every_field(self):
        d = report_to_dict(make_report())
        assert set(d.keys()) == set(FIELD_ORDER)


def dumped(reports):
    """The text json.dumps writes for the reports, to_json's contract."""
    return json.dumps([report_to_dict(r) for r in reports], indent=2) + "\n"


class TestJsonIsJsonDumps:
    # to_json writes its text directly; it must be json.dumps' byte for byte

    def test_default_suite(self):
        from ellselberg.scenarios import run_suite

        reports = run_suite()
        assert to_json(reports) == dumped(reports)

    @pytest.mark.parametrize("reports", [
        [],
        [make_report()],
        # a failed report: no finite error, or none at all
        [make_report(passed=False, rel_err=float("inf"), abs_err=float("nan"), lhs=complex("nan"),
                     rhs=complex(float("-inf"), 0.0), grid_N=0, detail="NonConvergenceError: stalled")],
        # every optional field None, and no parameters
        [make_report(t=None, balancing=None, k=None, r=None, i=None, runtime_ms=None,
                     constraint_exponent=None, a=(), p=None)],
        # non-ASCII, quotes, backslashes and control characters in the detail
        [make_report(detail='é ∇ \U0001F600 "q" \\ \x00\x01\x1f\x7f\t\n\r\x08\x0c ')],
        # ints and floats of numpy's subclasses, and signed zeros
        [make_report(k=2, r=1, i=1, runtime_ms=12, constraint_exponent=-3, tol=np.float64(1e-7),
                     abs_err=-0.0, lhs=complex(-0.0, 0.0), rhs=complex(0.0, -0.0), a=(1e-310, -5e-324j))],
        [make_report(seed_index=s, rel_err=10.0 ** -s) for s in range(4)],
    ], ids=["empty", "one", "failed", "none_fields", "detail", "subclasses", "several"])
    def test_reports(self, reports):
        assert to_json(reports) == dumped(reports)

    def test_unserializable_field_raises_type_error(self):
        with pytest.raises(TypeError):
            json.dumps(report_to_dict(make_report(detail=object())))
        with pytest.raises(TypeError):
            to_json([make_report(detail=object())])
