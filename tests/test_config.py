"""Configuration parsing and its box projection."""

import pytest

from ellselberg import Config, ConfigurationError, SafeBox, load_config, parse_config


class TestDefaults:
    def test_seed_and_switches(self):
        cfg = Config()
        assert cfg.seed == 42
        assert cfg.count is None and cfg.tol is None and cfg.grid is None
        assert cfg.timing is False

    def test_box_projection(self):
        box = Config(box=SafeBox(a_min=0.4, a_max=0.6)).box
        assert box.a_min == 0.4
        assert box.a_max == 0.6


class TestParse:
    def test_key_values_with_comments(self):
        cfg = parse_config(
            """
            # quadrature budget
            seed = 7
            grid = 128

            tol = 1e-9   # per-report tolerance
            timing = on
            """,
            Config(),
        )
        assert cfg.seed == 7
        assert cfg.grid == 128
        assert cfg.tol == 1e-9
        assert cfg.timing is True

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            parse_config("budget = 3", Config())
        # the safe box no longer has a theta floor (coefficient_c has its own)
        with pytest.raises(ConfigurationError, match="unknown"):
            parse_config("theta_floor = 1e-10", Config())

    def test_pole_clearance_is_an_unknown_key(self, tmp_path):
        # no draw was ever checked against it, so the box no longer has it
        path = tmp_path / "run.cfg"
        path.write_text("seed = 3\npole_clearance = 0.1\n")
        with pytest.raises(ConfigurationError, match="unknown config key 'pole_clearance'"):
            load_config(str(path))

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_config("seed", Config())

    def test_none_and_default_reset_optionals(self):
        base = Config(count=9, grid=64, tol=1e-5)
        cfg = parse_config("count = none\ngrid = default\ntol = none", base)
        assert cfg.count is None and cfg.grid is None and cfg.tol is None

    @pytest.mark.parametrize(
        "text,expected",
        [("timing = on", True), ("timing = off", False),
         ("timing = true", True), ("timing = 0", False),
         ("timing = yes", True), ("timing = no", False)],
    )
    def test_timing_spellings(self, text, expected):
        assert parse_config(text, Config()).timing is expected

    def test_bad_timing_value(self):
        with pytest.raises(ConfigurationError):
            parse_config("timing = maybe", Config())

    def test_integer_keys_reject_floats(self):
        with pytest.raises(ConfigurationError):
            parse_config("seed = 1.5", Config())

    def test_float_keys(self):
        cfg = parse_config("a_min = 0.45\nnome_max = 0.15\ntol = 1e-9", Config())
        assert cfg.box.a_min == 0.45
        assert cfg.box.nome_max == 0.15
        assert cfg.tol == 1e-9

    def test_base_is_untouched(self):
        base = Config()
        parse_config("seed = 9", base)
        assert base.seed == 42


class TestLoad:
    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "verify.cfg"
        path.write_text("seed = 5\ntol = 1e-7\n")
        cfg = load_config(str(path), Config())
        assert cfg.seed == 5 and cfg.tol == 1e-7

    def test_file_with_a_byte_order_mark(self, tmp_path):
        # editors may save UTF-8 with a leading BOM; it is not part of the first key
        path = tmp_path / "verify.cfg"
        path.write_bytes(b"\xef\xbb\xbfseed = 3\n")
        assert load_config(str(path), Config()).seed == 3

    @pytest.mark.parametrize(
        "key,value",
        [pytest.param("count", c, id=c) for c in ("0", "-2")]
        + [pytest.param("tol", v, id=f"tol={v}") for v in ("inf", "nan", "0", "-1")],
    )
    def test_count_below_one_rejected(self, tmp_path, key, value):
        # a run of zero reports would pass having checked nothing, and so
        # would one at tol = inf; tol = 0, -1 or nan fails every report
        path = tmp_path / "verify.cfg"
        path.write_text(f"{key} = {value}\n")
        with pytest.raises(ConfigurationError, match=f"^{key} must"):
            load_config(str(path), Config())

    @pytest.mark.parametrize("grid", ["8", "15", "0", "16", "31"])
    def test_grid_below_the_minimum_rejected(self, tmp_path, grid):
        # every quadrature report of the run would fail: below 16 on its
        # budget, below 32 on a ladder of one rung
        path = tmp_path / "verify.cfg"
        path.write_text(f"grid = {grid}\n")
        with pytest.raises(ConfigurationError, match="grid must be at least 32"):
            load_config(str(path), Config())

    def test_grid_at_the_minimum_accepted(self):
        assert parse_config("grid = 32", Config()).grid == 32

    @pytest.mark.parametrize(
        "text,key",
        [
            ("a_max = nan\n", "a_max"),
            ("solved_clearance = nan\n", "solved_clearance"),
            ("nome_max = nan\n", "nome_max"),
            ("t_min = nan\n", "t_min"),
            ("t_max = nan\n", "t_max"),
            ("t_min = 0.6\nt_max = 0.2\n", "t_min"),
            ("solved_clearance = -0.1\n", "solved_clearance"),
            ("solved_clearance = 1\n", "solved_clearance"),
            ("max_rejections = -1\n", "max_rejections"),
        ],
        ids=["a_max=nan", "solved_clearance=nan", "nome_max=nan", "t_min=nan", "t_max=nan",
             "t_min>t_max", "solved_clearance<0", "solved_clearance=1", "max_rejections<0"],
    )
    def test_box_bounds_refuse_nan_and_inverted_ranges(self, tmp_path, text, key):
        # nan compares false, so a check written as x > bound let it through:
        # a nan a_max failed every report, a nan clearance or nome_max
        # switched its check off; a negative max_rejections exited 2 before
        # the first draw, as "sampler exceeded -1 rejections"
        path = tmp_path / "box.cfg"
        path.write_text(text)
        with pytest.raises(ConfigurationError, match=key):
            load_config(str(path), Config())

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_config(str(tmp_path / "absent.cfg"), Config())

    def test_file_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"\xff\xfe")
        with pytest.raises(ConfigurationError, match="cannot read config file"):
            load_config(str(path), Config())
