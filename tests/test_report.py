"""Report records and their deterministic JSON/CSV serialization."""

import json

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
