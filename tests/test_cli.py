"""Command-line interface: literal grammar, eval targets, verify paths."""

import errno
import inspect
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellselberg import (
    SCENARIO_NAMES, BalancingMode, Nomes, ParameterSet, TruncationError, elliptic_gamma, scenarios,
    theta,
)
from ellselberg import cli
from ellselberg.cli import format_complex, main, parse_complex
from ellselberg.scenarios import SUITE_ROWS, run_row


class TestComplexGrammar:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("0.3", 0.3 + 0j),
            ("-0.12", -0.12 + 0j),
            ("0.3-0.12i", 0.3 - 0.12j),
            ("0.3+0.12i", 0.3 + 0.12j),
            ("-1.5e-2+3i", -0.015 + 3j),
            (".5+.25i", 0.5 + 0.25j),
            ("2e3-1E-4i", 2000 - 1e-4j),
            ("  0.7+0.1i ", 0.7 + 0.1j),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_complex(text) == expected

    @pytest.mark.parametrize("text", ["", "i", "0.3i", "1+2", "1 + 2i", "1+2j", "abc"])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            parse_complex(text)

    def test_format_bare_real(self):
        assert format_complex(0.25 + 0j) == "0.25"
        assert format_complex(-3.0) == "-3.0"

    def test_format_with_imaginary(self):
        assert format_complex(0.3 - 0.12j) == "0.3-0.12i"
        assert format_complex(-1 + 2j) == "-1.0+2.0i"

    @settings(max_examples=80, deadline=None)
    @given(
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    )
    def test_round_trip(self, re_part, im_part):
        z = complex(re_part, im_part)
        assert parse_complex(format_complex(z)) == z


class TestEvalTargets:
    def run(self, argv, capsys):
        code = main(argv)
        out = capsys.readouterr().out.strip()
        return code, out

    def test_gamma(self, capsys):
        code, out = self.run(
            ["eval", "gamma", "--u", "0.4+0.2i", "--p", "0.05", "--q", "0.07"], capsys
        )
        assert code == 0
        assert parse_complex(out) == pytest.approx(
            elliptic_gamma(0.4 + 0.2j, Nomes(0.05, 0.07))
        )

    # oracles.ogamma(0.4+0.2i, 0.9, 0.85, side=420) at 40 digits; the factors
    # it leaves out move it by under 0.9^420 / 0.15, about 4e-19
    LARGE_NOMES_GAMMA = 4.633704994954818e-34 - 1.7014382595609723e-32j

    def test_gamma_at_large_nomes(self, capsys):
        # the series keeps 461 terms at beta = sqrt(0.85), within max_terms
        code, out = self.run(
            ["eval", "gamma", "--u", "0.4+0.2i", "--p", "0.9", "--q", "0.85"], capsys
        )
        assert code == 0
        want = self.LARGE_NOMES_GAMMA
        assert abs(parse_complex(out) - want) <= 1e-12 * abs(want)

    def test_gamma_at_large_nomes_past_max_terms(self, capsys):
        # at beta = sqrt(0.9) the series would need more than 512 terms
        with pytest.raises(TruncationError):
            elliptic_gamma(0.4 + 0.2j, Nomes(0.93, 0.9))
        code = main(["eval", "gamma", "--u", "0.4+0.2i", "--p", "0.93", "--q", "0.9"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: cannot certify")
        assert "within max_terms=512" in captured.err

    def test_gamma_outside_the_double_range(self, capsys):
        # Gamma(38 e^2i; 0.9, 0.85) is about 2e-322 by the oracle, a subnormal,
        # and its theta corrections overflow: a usage error naming the argument
        code = main(["eval", "gamma", "--u=-15.813579788791412+34.55330221937591i",
                     "--p", "0.9", "--q", "0.85"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: elliptic_gamma: argument (-15.81")
        assert "outside the double range" in captured.err

    @pytest.mark.parametrize("argv", [["theta", "--p", "0.9"], ["gamma", "--p", "0", "--q", "0.9"]],
                             ids=["theta", "gamma_p0"])
    def test_single_product_outside_the_double_range(self, capsys, argv):
        # at u = 1e6 e^i the single product (u; 0.9)_inf passes 1e308: a
        # usage error naming the argument, not nan
        u = "540302.3058681398+841470.9848078965i"
        code = main(["eval", argv[0], "--u", u, *argv[1:]])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ")
        assert "argument (540302.3058681398+841470.9848078965j)" in captured.err
        assert "outside the double range" in captured.err

    def test_theta(self, capsys):
        code, out = self.run(["eval", "theta", "--u", "0.3-0.12i", "--p", "0.05"], capsys)
        assert code == 0
        assert parse_complex(out) == pytest.approx(theta(0.3 - 0.12j, 0.05))

    @pytest.mark.parametrize("p", ["1", "2", "0.9+0.5i"])
    def test_theta_nome_outside_the_unit_disk_exits_2(self, capsys, p):
        # not a ZeroDivisionError traceback at |p| = 1, nor a truncation
        # message past it
        code = main(["eval", "theta", "--u", "0.5", "--p", p])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: theta requires |p| < 1, got |p|=")

    def test_C_reads_the_one_balancing_by_default(self, capsys):
        # C_r is defined under the ONE balancing only, which --balancing one names
        argv = ["eval", "C", "--r", "1", "--n", "2", "--t", "0.5",
                "--a", "0.6,0.6+0.1i,0.65,-0.6,0.62", "--p", "0.015", "--q", "0.12"]
        code, out = self.run(argv, capsys)
        assert code == 0
        assert (code, out) == self.run(argv + ["--balancing", "one"], capsys)

    def test_c_n(self, capsys):
        code, out = self.run(
            ["eval", "c_n", "--n", "1", "--t", "0.4", "--p", "0.05", "--q", "0.12"],
            capsys,
        )
        assert code == 0
        assert parse_complex(out).imag == 0

    def test_psi_solves_sixth_entry(self, capsys):
        code, out = self.run(
            ["eval", "psi", "--z", "0.9+0.1i",
             "--n", "1", "--t", "0.45",
             "--a", "0.63,0.58,-0.61,0.64,0.55",
             "--p", "0.05", "--q", "0.12"],
            capsys,
        )
        assert code == 0
        parse_complex(out)

    def test_invariant_E(self, capsys):
        code, out = self.run(
            ["eval", "E", "--r", "1", "--a", "0.66", "--b", "0.62",
             "--z", "0.9+0.1i", "--t", "0.5", "--p", "0.05"],
            capsys,
        )
        assert code == 0
        parse_complex(out)

    def test_pole_is_a_clean_error(self, capsys):
        code = main(["eval", "gamma", "--u", "1", "--p", "0.05", "--q", "0.07"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:")

    def test_bad_literal_exits_with_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["eval", "theta", "--u", "1+2j", "--p", "0.05"])

    @pytest.mark.parametrize(
        "argv,flag",
        [
            # not the one-variable E_1 at the last z
            (["eval", "E", "--r", "1", "--a", "0.6", "--b", "0.7", "--z", "0.9+0.1i",
              "--z", "0.3-0.8i", "--t", "0.4", "--p", "0.05"], "--z"),
            # not Gamma(0.5)
            (["eval", "gamma", "--u", "0.4", "--u", "0.5", "--p", "0.05", "--q", "0.07"], "--u"),
            (["verify", "--scenario", "eval_formula", "--n", "1", "--p", "0.05", "--q", "0.07",
              "--t", "0.45", "--a", "0.3,0.4,0.5,-0.2,0.25", "--a", "0.3,0.4,0.5,-0.2,0.3"],
             "--a"),
        ],
        ids=["eval-E-z", "eval-gamma-u", "verify-a"],
    )
    def test_repeated_option_is_a_usage_error(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        captured = capsys.readouterr()
        assert exit_info.value.code == 2
        assert f"argument {flag}: given more than once" in captured.err
        assert captured.out == ""

    def test_parser_reused_across_calls_keeps_no_state(self, capsys):
        # the parser is built once per process; a repeated option is refused
        # on every call, and an option given once still parses after that
        argv = ["eval", "gamma", "--u", "0.4", "--p", "0.05", "--q", "0.07"]
        for _ in range(2):
            with pytest.raises(SystemExit) as exit_info:
                main(argv + ["--u", "0.5"])
            assert exit_info.value.code == 2
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out == format_complex(elliptic_gamma(0.4, Nomes(0.05, 0.07))) + "\n"


class TestVerifyExplicit:
    def test_reference_evaluation(self, capsys):
        code = main([
            "verify", "--scenario", "eval_formula", "--n", "1",
            "--p", "0.05", "--q", "0.07", "--t", "0.45",
            "--a", "0.3,0.4,0.5,-0.2,0.25", "--tol", "1e-8",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out

    def test_failing_tolerance_sets_exit_code(self, capsys):
        code = main([
            "verify", "--scenario", "eval_formula", "--n", "1",
            "--p", "0.05", "--q", "0.07", "--t", "0.45",
            "--a", "0.3,0.4,0.5,-0.2,0.25", "--tol", "1e-16",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out

    @pytest.mark.parametrize(
        "argv,config,error",
        [pytest.param(["verify", "--count", c], "", "error: count must", id=c) for c in ("0", "-2")]
        + [pytest.param(["verify", "--tol", v], "", "error: tol must", id=f"tol={v}")
           for v in ("inf", "nan", "0", "-1")]
        # truncation has no knob: neither a loose one (3 of 30 PASS at
        # tail_tol = 0.9) nor a tighter one, which buys nothing in double
        # precision
        + [pytest.param(["verify", "--tol", "1e-3"], f"{key} = {v}\n",
                        f"error: unknown config key {key!r}", id=f"config-{key}={v}")
           for key, v in (("tail_tol", "nan"), ("tail_tol", "0.9"), ("tail_tol", "1e-7"),
                          ("tail_tol", "1e-8"), ("tail_tol", "1e-12"), ("max_terms", "1024"))]
        + [pytest.param(["eval", "gamma", "--u", "0.4+0.2i", "--p", "0.05", "--q", "0.07",
                         flag, v], "", f"error: unrecognized arguments: {flag}", id=f"eval{flag[1:]}={v}")
           for flag, v in (("--tail-tol", "inf"), ("--tail-tol", "1e-12"), ("--max-terms", "1024"))],
    )
    def test_count_below_one_is_a_usage_error(self, capsys, tmp_path, argv, config, error):
        # not "0 reports, 0 passed, 0 failed" and exit 0; nor 30 of 30 PASS
        # at tol = inf; nor a run under another truncation; each before any work
        if config:
            path = tmp_path / "verify.cfg"
            path.write_text(config)
            argv = argv + ["--config", str(path)]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses an unknown flag itself
            code = exc.code
        captured = capsys.readouterr()
        assert code == 2
        assert error in captured.err and captured.out == ""

    @pytest.mark.parametrize("via_file", [False, True], ids=["option", "config_file"])
    def test_grid_below_the_minimum_is_a_usage_error(self, capsys, tmp_path, via_file):
        # not "6 reports, 0 passed, 6 failed", each on a budget below N = 16
        args = ["verify", "--scenario", "eval_formula"]
        if via_file:
            cfg = tmp_path / "verify.cfg"
            cfg.write_text("grid = 8\n")
            args += ["--config", str(cfg)]
        else:
            args += ["--grid", "8"]
        code = main(args)
        captured = capsys.readouterr()
        assert code == 2
        assert "grid" in captured.err and "reports" not in captured.out

    def test_grid_of_one_rung_is_a_usage_error(self, capsys):
        # not "6 reports, 0 passed, 6 failed", each stalled at N = 16
        code = main(["verify", "--scenario", "eval_formula", "--grid", "16"])
        captured = capsys.readouterr()
        assert code == 2
        assert "grid must be at least 32" in captured.err and "reports" not in captured.out

    def test_explicit_needs_scenario(self, capsys):
        code = main([
            "verify", "--n", "1", "--p", "0.05", "--q", "0.07",
            "--t", "0.45", "--a", "0.3,0.4,0.5,-0.2,0.25",
        ])
        assert code == 2
        assert "scenario" in capsys.readouterr().err

    def test_qde_sweeps_every_k(self, capsys, tmp_path):
        path = tmp_path / "qde.json"
        code = main([
            "verify", "--scenario", "qde", "--n", "1",
            "--p", "0.05", "--q", "0.12", "--t", "0.45",
            "--a", "0.63,0.58,-0.61,0.64,0.55",
            "--report", str(path),
        ])
        assert code == 0
        ks = [row["k"] for row in json.loads(path.read_text())]
        assert ks == [1, 2, 3, 4, 5]


class TestVerifySampled:
    def test_sampled_run_writes_report(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code = main([
            "verify", "--scenario", "dixon_anderson",
            "--p", "0.05", "--q", "0.12",
            "--count", "1", "--seed", "3",
            "--report", str(path),
        ])
        assert code == 0
        rows = json.loads(path.read_text())
        assert rows and all(row["passed"] for row in rows)

    def test_csv_format(self, capsys, tmp_path):
        path = tmp_path / "out.csv"
        code = main([
            "verify", "--scenario", "dixon_anderson",
            "--p", "0.05", "--q", "0.12",
            "--count", "1", "--seed", "3",
            "--report", str(path), "--format", "csv",
        ])
        assert code == 0
        assert path.read_text().startswith("scenario,")

    def test_seeded_runs_are_byte_identical(self, capsys, tmp_path):
        argv = [
            "verify", "--scenario", "dixon_anderson",
            "--p", "0.05", "--q", "0.12", "--count", "1", "--seed", "3",
        ]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(argv + ["--report", str(a)]) == 0
        assert main(argv + ["--report", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_values_apply(self, capsys, tmp_path):
        cfg = tmp_path / "verify.cfg"
        cfg.write_text("seed = 3\ncount = 1\n")
        path = tmp_path / "out.json"
        code = main([
            "verify", "--scenario", "dixon_anderson",
            "--p", "0.05", "--q", "0.12",
            "--config", str(cfg), "--report", str(path),
        ])
        assert code == 0
        assert json.loads(path.read_text())

    def test_timing_flag_populates_runtime(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code = main([
            "verify", "--scenario", "dixon_anderson",
            "--p", "0.05", "--q", "0.12",
            "--count", "1", "--seed", "3",
            "--timing", "on", "--report", str(path),
        ])
        assert code == 0
        rows = json.loads(path.read_text())
        assert all(isinstance(row["runtime_ms"], int) for row in rows)

    def test_summary_lines_on_stdout(self, capsys):
        code = main([
            "verify", "--scenario", "dixon_anderson",
            "--p", "0.05", "--q", "0.12", "--count", "1", "--seed", "3",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "dixon_anderson" in out
        assert "PASS" in out


class TestScenarioTable:
    @pytest.mark.parametrize("name", ["recurrence", "dixon_anderson"])
    def test_explicit_run_repeats_a_suite_draw(self, capsys, tmp_path, name):
        row = next(r for r in SUITE_ROWS if r.scenario == name and r.n == 1)
        sampled = run_row(row, 42)
        first = sampled[0]
        path = tmp_path / "explicit.json"
        argv = [
            "verify", "--scenario", name, "--n", "1",
            f"--p={format_complex(first.p)}", f"--q={format_complex(first.q)}",
            "--a=" + ",".join(format_complex(v) for v in first.a),
            "--report", str(path),
        ]
        if first.t is not None:
            argv.append(f"--t={format_complex(first.t)}")
        assert main(argv) == 0
        explicit = [
            (rep["k"], rep["r"], rep["i"], complex(*rep["lhs"]), complex(*rep["rhs"]))
            for rep in json.loads(path.read_text())
        ]
        assert explicit == [(rep.k, rep.r, rep.i, rep.lhs, rep.rhs) for rep in sampled]

    def test_count_applies_to_every_pinch_row(self, capsys, tmp_path):
        path = tmp_path / "pinch.json"
        assert main(["verify", "--scenario", "pinch", "--count", "2", "--report", str(path)]) == 0
        reports = json.loads(path.read_text())
        assert len(reports) == 8
        rank2 = sorted((rep["scenario"], rep["seed_index"]) for rep in reports if rep["n"] == 2)
        assert rank2 == [("pinch_limit", 100), ("pinch_limit", 101)]

    def test_sampled_pinch_draws_need_no_continuation_window(self, capsys, tmp_path):
        # the pinch checks are closed forms, so a small a_1 (the pinched
        # a_2 = 1/a_1 far outside |q|^(-1/2)) is kept, not redrawn
        path = tmp_path / "pinch.json"
        code = main([
            "verify", "--scenario", "pinch", "--p", "0.05", "--q", "0.12",
            "--count", "2", "--seed", "11", "--report", str(path),
        ])
        assert code == 0
        reports = json.loads(path.read_text())
        assert len(reports) == 6
        assert all(rep["passed"] for rep in reports)
        pinched = [rep for rep in reports if rep["scenario"] != "pinch_continued"]
        assert min(abs(complex(*rep["a"][0])) for rep in pinched) < 0.12**0.5

    def test_pinch_at_pq_zero_fails_with_the_reason(self, capsys, tmp_path):
        # at p = 0 the solved a_6 is 0; neither the pinch limit nor the
        # residue pair takes that dual-parameter limit
        path = tmp_path / "pinch.json"
        code = main([
            "verify", "--scenario", "pinch", "--p", "0", "--q", "0.12",
            "--count", "1", "--seed", "1", "--report", str(path),
        ])
        assert code == 1
        reports = json.loads(path.read_text())
        assert sorted(rep["scenario"] for rep in reports) == [
            "pinch_continued", "pinch_integral", "pinch_limit",
        ]
        for rep in reports:
            assert not rep["passed"]
            assert rep["detail"].startswith("DomainError")
            assert "p q = 0" in rep["detail"]

    def test_box_keys_reach_sampled_runs(self, capsys, tmp_path):
        cfg = tmp_path / "box.cfg"
        cfg.write_text("a_min = 0.45\na_max = 0.5\n")
        path = tmp_path / "out.json"
        code = main([
            "verify", "--scenario", "dixon_anderson", "--p", "0.05", "--q", "0.12",
            "--count", "1", "--seed", "3", "--config", str(cfg), "--report", str(path),
        ])
        assert code == 0
        (rep,) = json.loads(path.read_text())
        assert all(0.45 <= abs(complex(*a)) <= 0.5 for a in rep["a"][:5])

    def test_box_without_free_moduli_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "box.cfg"
        cfg.write_text("a_min = 0\n")
        path = tmp_path / "out.json"
        code = main([
            "verify", "--scenario", "dixon_anderson", "--p", "0.05", "--q", "0.12",
            "--config", str(cfg), "--report", str(path),
        ])
        assert code == 2
        assert "a_min" in capsys.readouterr().err
        assert not path.exists()

    @pytest.mark.parametrize(
        "text,key",
        [("a_max = nan\n", "a_max"), ("solved_clearance = nan\n", "solved_clearance"),
         ("nome_max = nan\n", "nome_max"), ("t_min = 0.6\nt_max = 0.2\n", "t_min")],
        ids=["a_max=nan", "solved_clearance=nan", "nome_max=nan", "t_min>t_max"],
    )
    def test_box_bound_that_checks_nothing_exits_2(self, capsys, tmp_path, text, key):
        # not a report failed on a nan tail bound, nor one drawn with a
        # clearance or nome bound switched off
        cfg = tmp_path / "box.cfg"
        cfg.write_text(text)
        path = tmp_path / "out.json"
        code = main([
            "verify", "--scenario", "eval_formula", "--p", "0.05", "--q", "0.12",
            "--count", "1", "--config", str(cfg), "--report", str(path),
        ])
        assert code == 2
        assert key in capsys.readouterr().err
        assert not path.exists()

    @pytest.mark.parametrize(
        "extra",
        [
            [],
            ["--scenario", "eval_formula", "--n", "1", "--p", "0.05", "--q", "0.07",
             "--t", "0.45", "--a", "0.3,0.4,0.5,-0.2,0.25"],
        ],
        ids=["suite", "explicit"],
    )
    def test_box_key_outside_sampled_runs_is_an_error(self, capsys, tmp_path, extra):
        cfg = tmp_path / "box.cfg"
        cfg.write_text("seed = 3\na_min = 0.45\n")
        code = main(["verify", "--config", str(cfg)] + extra)
        assert code == 2
        err = capsys.readouterr().err
        assert "a_min" in err and "seed" not in err

    def test_suite_rank_selects_its_rows(self, capsys, tmp_path):
        path = tmp_path / "pinch.json"
        assert main(["verify", "--scenario", "pinch", "--n", "2", "--report", str(path)]) == 0
        (rep,) = json.loads(path.read_text())
        (row,) = [r for r in SUITE_ROWS if r.scenario == "pinch" and r.n == 2]
        (want,) = run_row(row, 42)
        assert (rep["scenario"], rep["n"], rep["seed_index"]) == (want.scenario, 2, want.seed_index)

    @pytest.mark.parametrize("extra", [["--scenario", "dixon_anderson"], []], ids=["scenario", "suite"])
    def test_suite_rank_without_a_row_exits_2(self, capsys, extra):
        code = main(["verify", "--n", "7"] + extra)
        captured = capsys.readouterr()
        assert code == 2
        assert "n=7" in captured.err and "reports" not in captured.out

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["--scenario", "dixon_anderson", "--n", "7", "--t", "5", "--balancing", "one",
              "--a6", "0.3"], "--t"),
            (["--scenario", "dixon_anderson", "--n", "1", "--balancing", "one"], "--balancing"),
            (["--n", "1", "--a6", "0.3"], "--a6"),
            (["--scenario", "dixon_anderson", "--p", "0.05", "--q", "0.12", "--a6", "0.3"], "--a6"),
        ],
        ids=["suite-t", "suite-balancing", "suite-a6", "sampled-a6"],
    )
    def test_flag_the_run_does_not_read_exits_2(self, capsys, argv, flag):
        # not the reports of a run that ignored it
        code = main(["verify"] + argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith(f"{flag} is read only by") and "reports" not in captured.out


# What each kind of verify run reads, stated independently of the command
# line's own table: a flag named here for a kind is read, every other one is
# refused.  "format" and "timing" act only with --report; dixon_anderson has
# no coupling and no balancing.
_KINDS = {
    "suite": [],
    "sampled": ["--p", "0.05", "--q", "0.12"],
    "explicit": ["--p", "0.05", "--q", "0.07", "--n", "1", "--a", "0.3,0.4,0.5,-0.2,0.25"],
}
_READ = {
    "suite": {"n", "seed", "count", "grid", "tol", "format+report", "timing+report"},
    "sampled": {"n", "t", "balancing", "seed", "count", "grid", "tol", "format+report",
                "timing+report"},
    "explicit": {"n", "t", "balancing", "a6", "grid", "tol", "format+report", "timing+report"},
}
# each flag's argv and how its value shows in the work the run hands on
_FLAGS = {
    "n": (["--n", "2"], lambda call, path: call["n"] == 2),
    "t": (["--t", "0.3"], lambda call, path: call["t"] == 0.3),
    "balancing": (["--balancing", "p"], lambda call, path: call["mode"] is BalancingMode.P),
    "a6": (["--a6", "0.25"], lambda call, path: call["a"][4] == 0.25),
    "seed": (["--seed", "9"], lambda call, path: call["seed"] == 9),
    "count": (["--count", "5"], lambda call, path: call["count"] == 5),
    "grid": (["--grid", "64"], lambda call, path: call["grid"] == 64),
    "tol": (["--tol", "0.5"], lambda call, path: call["tol"] == 0.5),
    "format": (["--format", "csv"], None),
    "timing": (["--timing", "on"], None),
    "format+report": (["--format", "csv", "--report"],
                      lambda call, path: path.read_text().startswith("scenario,")),
    "timing+report": (["--timing", "on", "--report"], lambda call, path: call["timing"] is True),
}


def _work_seen(monkeypatch):
    """Replace the work verify hands on by recorders of what reaches it."""
    seen = []

    def recorder(fn):
        signature = inspect.signature(fn)

        def record(*args, **kwargs):
            call = dict(signature.bind(*args, **kwargs).arguments)
            call.update(call.pop("kw", {}))
            call.setdefault("grid", call.get("budget"))
            if (row := call.pop("row", None)) is not None:
                call.update(n=row.n, t=row.t, mode=row.mode)
            if isinstance(ps := call.get("ps"), ParameterSet):
                call.update(t=ps.t, mode=ps.balancing_mode, a=ps.a)
            elif ps is not None:
                call.update(a=ps)
            seen.append(call)
            return []

        return record

    for name in ("run_suite", "run_row", "cases"):
        monkeypatch.setattr(scenarios, name, recorder(getattr(scenarios, name)))
    return seen


class TestEveryFlagIsReadOrRefused:
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    @pytest.mark.parametrize("flag", _FLAGS)
    @pytest.mark.parametrize("kind", _KINDS)
    def test_flag(self, capsys, monkeypatch, tmp_path, kind, flag, name):
        seen = _work_seen(monkeypatch)
        coupled = name != "dixon_anderson"
        argv = ["verify", "--scenario", name, *_KINDS[kind]]
        if kind == "explicit" and coupled and flag != "t":
            argv += ["--t", "0.45"]
        if flag == "n" and "--n" in argv:
            del argv[argv.index("--n") : argv.index("--n") + 2]
        if flag == "a6" and "--a" in argv:
            argv[argv.index("--a") + 1] = "0.3,0.4,0.5,-0.2"
        flag_argv, read = _FLAGS[flag]
        path = tmp_path / "out"
        argv += flag_argv + ([str(path)] if flag.endswith("+report") else [])
        expected = flag in _READ[kind] and (coupled or flag not in ("t", "balancing"))
        code = main(argv)
        captured = capsys.readouterr()
        if expected:
            assert code == 0, captured.err
            (call,) = seen
            assert read(call, path)
        else:
            assert code == 2
            assert f"--{flag_argv[0][2:]} is read only by" in captured.err
            assert seen == []


class TestRankAndConfigKeys:
    """A rank below 1 is refused on every kind of run, and a config key
    follows its flag's rule: each refusal exits 2, names what it refuses
    and runs no work."""

    @pytest.mark.parametrize("n", ["0", "-1"])
    @pytest.mark.parametrize("name", ["dixon_anderson", "eval_formula"])
    @pytest.mark.parametrize("kind", _KINDS)
    def test_rank_below_one_exits_2(self, capsys, monkeypatch, kind, name, n):
        seen = _work_seen(monkeypatch)
        argv = ["verify", "--scenario", name, *_KINDS[kind]]
        if "--n" in argv:
            del argv[argv.index("--n") : argv.index("--n") + 2]
        if kind == "explicit" and name != "dixon_anderson":
            argv += ["--t", "0.45"]
        code = main(argv + ["--n", n])
        captured = capsys.readouterr()
        assert code == 2
        assert f"--n must be at least 1, got {n}" in captured.err and "Traceback" not in captured.err
        assert seen == []

    @pytest.mark.parametrize(
        "kind,text,report,refused",
        [
            ("explicit", "count = 5\n", False, "count"),
            ("explicit", "seed = 3\n", False, "seed"),
            ("explicit", "tol = 1e-3\ncount = 5\nseed = 3\n", False, "count"),
            ("suite", "timing = on\n", False, "timing"),
            ("sampled", "timing = off\n", False, "timing"),
            ("suite", "seed = 3\ncount = 2\n", False, None),
            ("sampled", "seed = 3\ncount = 2\ntiming = on\n", True, None),
            ("explicit", "tol = 1e-3\ngrid = 64\ntiming = on\n", True, None),
        ],
    )
    def test_config_key_follows_its_flags_rule(self, capsys, monkeypatch, tmp_path, kind, text, report, refused):
        seen = _work_seen(monkeypatch)
        cfg = tmp_path / "verify.cfg"
        cfg.write_text(text)
        argv = ["verify", "--scenario", "eval_formula", *_KINDS[kind], "--config", str(cfg)]
        if kind == "explicit":
            argv += ["--t", "0.45"]
        if report:
            argv += ["--report", str(tmp_path / "out.json")]
        code = main(argv)
        captured = capsys.readouterr()
        if refused is None:
            assert code == 0, captured.err
            (call,) = seen
            for line in text.splitlines():
                key, value = (part.strip() for part in line.split("="))
                want = {"on": True, "off": False}.get(value, value)
                assert str(call[key]) == str(want) or call[key] == float(want), (key, call[key])
        else:
            assert code == 2
            assert f"config key {refused} is read only by" in captured.err
            assert seen == []


class TestUnusableFiles:
    """A report path that cannot be written, or a config file that cannot be
    read, exits 2 with one line naming it, and runs no work."""

    @pytest.mark.parametrize("kind", _KINDS)
    @pytest.mark.parametrize("where", ["missing-directory", "directory", "empty"])
    def test_unwritable_report_exits_2_before_any_work(self, capsys, monkeypatch, tmp_path, kind, where):
        # an empty path was taken as no --report: nothing written, exit 0
        seen = _work_seen(monkeypatch)
        path = {"missing-directory": tmp_path / "absent" / "out.json", "directory": tmp_path, "empty": ""}[where]
        argv = ["verify", "--scenario", "eval_formula", *_KINDS[kind], "--report", str(path)]
        if kind == "explicit":
            argv += ["--t", "0.45"]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and seen == []
        assert captured.err.startswith(f"error: cannot write report {path}: ")
        assert "Traceback" not in captured.err and captured.out == ""

    def test_report_check_leaves_the_path_as_it_was(self, capsys, tmp_path):
        # this explicit run is refused after the check (four free
        # parameters), so the check must leave no file and touch none
        path = tmp_path / "out.json"
        argv = ["verify", "--scenario", "eval_formula", "--p", "0.05", "--q", "0.07", "--n", "1",
                "--t", "0.45", "--a", "0.3,0.4,0.5,-0.2", "--report", str(path)]
        assert main(argv) == 2 and "expected 5 free parameters" in capsys.readouterr().err
        assert not path.exists()
        path.write_text("kept")
        assert main(argv) == 2 and path.read_text() == "kept"

    def test_write_failure_exits_2(self, capsys, monkeypatch, tmp_path):
        seen = _work_seen(monkeypatch)

        def full(reports, path, fmt):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(cli, "write_report", full)
        path = tmp_path / "out.json"
        code = main(["verify", "--report", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and len(seen) == 1
        assert captured.err == f"error: cannot write report {path}: No space left on device\n"

    def test_config_that_is_not_utf8_exits_2(self, capsys, monkeypatch, tmp_path):
        seen = _work_seen(monkeypatch)
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"\xff\xfe")
        code = main(["verify", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 2 and seen == []
        assert captured.err.startswith(f"error: cannot read config file {cfg}: ")
        assert "Traceback" not in captured.err
