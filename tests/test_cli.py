import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ratespde.sparse as sparse_mod
from ratespde import (
    AmfrW2Config,
    ConfigError,
    THETA_ORDER3,
    black_caplet_price,
    count_points,
    parse_config,
    run,
    serialize_config,
    solve_component_grids,
    standard_plan,
)
from ratespde.cli import main

MINIMAL_CAPLET = """
# smallest complete run
[market]
tenor_dates = 0.0, 0.5, 1.0
initial_forwards = 0.0112, 0.0118
alphas = 0.0, 0.2366
sigma = 0.0
beta = 1.0

[product]
kind = caplet
a = 1
strike = 0.011

[domain]
f_max = 0.04
v_max = 3.5

[solver]
technique = full
levels = 4
steps = 4
"""

SPARSE_CAPLET = MINIMAL_CAPLET.replace("technique = full", "technique = sparse").replace(
    "levels = 4", "levels = 5"
)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter whose import path holds the package source, not the tests."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )


class TestParse:
    def test_minimal_caplet_defaults(self):
        cfg = parse_config(MINIMAL_CAPLET)
        assert cfg.product.kind == "caplet"
        assert cfg.product.end_index == 2
        assert cfg.market.lam == 0.1
        assert cfg.market.phis == (0.0, 0.0)
        assert cfg.market.strike == 0.011
        assert cfg.theta == pytest.approx(THETA_ORDER3)
        assert cfg.nu is None
        assert cfg.threads is None
        assert cfg.psi == 0
        assert cfg.reference is None
        assert cfg.domain.horizon == 0.5
        assert cfg.domain.eval_point == (0.0118, 1.0)

    def test_psi_outside_modified_rejected(self):
        text = MINIMAL_CAPLET + "psi = 1\n"
        with pytest.raises(ConfigError, match="psi"):
            parse_config(text)

    def test_modified_requires_psi(self):
        text = MINIMAL_CAPLET.replace("technique = full", "technique = modified")
        with pytest.raises(ConfigError, match="psi"):
            parse_config(text)

    def test_unknown_key_reports_line(self):
        text = MINIMAL_CAPLET.replace("sigma = 0.0", "sigma = 0.0\nvolvol = 0.3")
        with pytest.raises(ConfigError, match=r"line \d+: unknown key 'volvol'"):
            parse_config(text)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(MINIMAL_CAPLET + "[extra]\nx = 1\n")

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="missing required key 'levels'"):
            parse_config(MINIMAL_CAPLET.replace("levels = 4", "# levels"))

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config(MINIMAL_CAPLET + "\n[solver]\nlevels = 5\n")

    def test_type_errors_report_line(self):
        with pytest.raises(ConfigError, match=r"line \d+: expected a comma-separated list of integers"):
            parse_config(MINIMAL_CAPLET.replace("steps = 4", "steps = fast"))
        with pytest.raises(ConfigError, match=r"line \d+: expected a number"):
            parse_config(MINIMAL_CAPLET.replace("sigma = 0.0", "sigma = zero"))

    def test_empty_value_rejected(self):
        with pytest.raises(ConfigError, match="empty value"):
            parse_config(MINIMAL_CAPLET.replace("levels = 4", "levels ="))

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="outside any section"):
            parse_config("a = 1\n" + MINIMAL_CAPLET)

    # each edit of the minimal caplet and the message that names its fault
    @pytest.mark.parametrize("old, new, cause", [
        pytest.param("alphas = 0.0, 0.2366", "alphas = ,",
                     r"line 6: expected a comma-separated list of numbers$", id="empty-list"),
        pytest.param("[product]", "[product", "line 10: malformed section header", id="header"),
        pytest.param("beta = 1.0", "beta = 1.0\nphi = 0.1\nphis = 0.1, 0.1",
                     "line 9: give either 'phi' or 'phis'", id="phi-and-phis"),
        pytest.param("kind = caplet", "kind = swaption", r"swaptions need 'b' in section \[product\]",
                     id="swaption-without-b"),
        pytest.param("kind = caplet\na = 1", "kind = caplet\na = 1\nb = 3",
                     "invalid product: a caplet covers exactly one forward", id="product"),
        pytest.param("technique = full", "technique = dense", "line 20: unknown technique 'dense'",
                     id="technique"),
        pytest.param("technique = full", "technique = modified\npsi = -1",
                     "line 21: psi must be nonnegative", id="psi"),
    ])
    def test_bad_value_rejected_with_cause(self, old, new, cause):
        assert MINIMAL_CAPLET.count(old) == 1
        with pytest.raises(ConfigError, match=cause):
            parse_config(MINIMAL_CAPLET.replace(old, new))

    def test_black_reference_needs_flat_caplet(self):
        ok = MINIMAL_CAPLET + "\n[output]\nreference = black\n"
        assert parse_config(ok).reference == "black"
        with pytest.raises(ConfigError, match="black"):
            parse_config(ok.replace("sigma = 0.0", "sigma = 0.3"))

    def test_numeric_reference(self):
        cfg = parse_config(MINIMAL_CAPLET + "\n[output]\nreference = 13.002003\n")
        assert cfg.reference == 13.002003

    def test_nonpositive_threads_rejected_with_line(self):
        for threads in ("0", "-3"):
            text = SPARSE_CAPLET + f"threads = {threads}\n"
            line = len(text.splitlines())
            with pytest.raises(ConfigError, match=f"line {line}: threads must be at least 1"):
                parse_config(text)

    @pytest.mark.parametrize("key", ["theta", "nu"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1"])
    def test_bad_theta_nu_rejected_with_line(self, key, value):
        text = MINIMAL_CAPLET + f"{key} = {value}\n"
        line = len(text.splitlines())
        with pytest.raises(ConfigError, match=f"line {line}: {key} must be positive and finite"):
            parse_config(text)

    @pytest.mark.parametrize(
        "base, old, bad",
        [
            (MINIMAL_CAPLET, "steps = 4", "steps = 4\nmax_nodes = 0"),
            (MINIMAL_CAPLET, "steps = 4", "steps = 4\nmax_nodes = -5"),
            (MINIMAL_CAPLET, "steps = 4", "steps = 0"),
            (MINIMAL_CAPLET, "levels = 4", "levels = -1"),
            (SPARSE_CAPLET, "levels = 5", "levels = 0"),
        ],
        ids=["max_nodes=0", "max_nodes=-5", "steps=0", "full-levels=-1", "sparse-levels=0"],
    )
    def test_solver_range_errors_name_their_line(self, base, old, bad):
        text = base.replace(old, bad)
        line = text.splitlines().index(bad.splitlines()[-1]) + 1
        with pytest.raises(ConfigError, match=f"^line {line}: "):
            parse_config(text)

    def test_sparse_level_must_fit_dimension(self):
        text = SPARSE_CAPLET.replace("levels = 5", "levels = 0")
        with pytest.raises(ConfigError, match="too small"):
            parse_config(text)

    def test_round_trip_identity(self):
        black = MINIMAL_CAPLET + "\n[output]\nreference = black\n"  # a caplet with sigma = 0
        for text in (MINIMAL_CAPLET, SPARSE_CAPLET, black):
            cfg = parse_config(text)
            assert parse_config(serialize_config(cfg)) == cfg

    def test_round_trip_swaption_modified(self):
        text = """
[market]
tenor_dates = 0.0, 0.5, 1.0, 1.5
initial_forwards = 0.0112, 0.0118, 0.0122
alphas = 0.0, 0.2366, 0.2145
phi = 0.4
sigma = 0.3
lambda = 0.2
beta = 1.0
[product]
kind = swaption
a = 1
b = 3
strike = 0.011
[domain]
f_max = 0.04
v_max = 3.5
v_eval = 1.25
[solver]
technique = modified
levels = 4, 5
steps = 2, 4
psi = 1
theta = 0.8
nu = 2.5
threads = 2
max_nodes = 100000
[output]
csv = out.csv
reference = 21.5
"""
        cfg = parse_config(text)
        assert cfg.market.phis == (0.4, 0.4, 0.4)
        assert parse_config(serialize_config(cfg)) == cfg


class TestRun:
    def test_full_rows_match_component_solver(self, tmp_path):
        cfg = parse_config(MINIMAL_CAPLET + "\n[output]\nreference = black\n")
        rows = run(cfg, quiet=True)
        assert len(rows) == 1
        row = rows[0]
        direct = solve_component_grids(
            [(4, 4)], cfg.market, cfg.product, cfg.domain, AmfrW2Config(num_steps=4)
        )[0]
        assert row.solution_bps == direct
        assert row.grid_points == 17**2
        reference = black_caplet_price(cfg.market, 1)
        assert row.error_bps == pytest.approx(abs(direct - reference), rel=1e-15)

    def test_numeric_reference_fills_error(self):
        cfg = parse_config(MINIMAL_CAPLET + "\n[output]\nreference = 6.0\n")
        row = run(cfg, quiet=True)[0]
        assert row.error_bps == abs(row.solution_bps - 6.0)
        assert row.error_bps > 0.0

    def test_full_grid_never_starts_a_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a one-term plan must not start a process pool")

        monkeypatch.setattr(sparse_mod, "ProcessPoolExecutor", no_pool)
        cfg = parse_config(MINIMAL_CAPLET + "threads = 2\n")
        rows = run(cfg, quiet=True)
        direct = solve_component_grids(
            [(4, 4)], cfg.market, cfg.product, cfg.domain, AmfrW2Config(num_steps=4)
        )[0]
        assert rows[0].solution_bps == direct

    def test_sparse_rows_report_union_points(self):
        cfg = parse_config(SPARSE_CAPLET)
        rows = run(cfg, quiet=True)
        assert rows[0].grid_points == count_points(standard_plan(5, 2))
        assert rows[0].error_bps is None

    def test_csv_written_and_reproducible(self, tmp_path):
        path = tmp_path / "table.csv"
        cfg = parse_config(
            MINIMAL_CAPLET + f"\n[output]\ncsv = {path}\nreference = black\n"
        )
        run(cfg, quiet=True)
        first = path.read_text().splitlines()
        run(cfg, quiet=True)
        second = path.read_text().splitlines()
        assert first[0] == "level,steps,solution_bps,error_bps,time_s,grid_points"

        def strip_time(line):
            cells = line.split(",")
            return cells[:4] + cells[5:]

        assert [strip_time(l) for l in first] == [strip_time(l) for l in second]

    def test_table_printed_unless_quiet(self, capsys):
        cfg = parse_config(MINIMAL_CAPLET)
        run(cfg)
        text = capsys.readouterr().out
        assert "level" in text and "grid points" in text
        assert len(text.strip().splitlines()) == 2

    def test_domain_warnings_printed_but_not_fatal(self, capsys):
        text = (
            MINIMAL_CAPLET.replace("beta = 1.0", "beta = 0.5")
            .replace("f_max = 0.04", "f_max = 3.0")
            .replace("levels = 4", "levels = 3")
        )
        cfg = parse_config(text)
        rows = run(cfg, quiet=True)
        assert len(rows) == 1
        assert "warning:" in capsys.readouterr().err


class TestMain:
    def test_missing_file(self, capsys):
        assert main(["/nonexistent/config.txt"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_bad_config_reports_path(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("nonsense\n")
        assert main([str(path)]) == 2
        assert "bad.txt" in capsys.readouterr().err

    def test_successful_run_with_overrides(self, tmp_path, capsys):
        config = tmp_path / "run.txt"
        config.write_text(MINIMAL_CAPLET)
        csv_path = tmp_path / "out.csv"
        assert main([str(config), "--csv", str(csv_path), "--threads", "1", "--quiet"]) == 0
        assert csv_path.exists()
        assert capsys.readouterr().out == ""

    def test_zero_threads_option_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.txt"
        config.write_text(SPARSE_CAPLET)
        with pytest.raises(SystemExit) as exit_info:
            main([str(config), "--threads", "0", "--quiet"])
        assert exit_info.value.code == 2
        assert "--threads: must be at least 1" in capsys.readouterr().err

    def test_nonfinite_theta_exits_before_pricing(self, tmp_path, capsys):
        config = tmp_path / "run.txt"
        config.write_text(MINIMAL_CAPLET + "theta = nan\n")
        assert main([str(config)]) == 2
        assert "theta must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_reference_exits_before_pricing(self, tmp_path, capsys, value):
        text = MINIMAL_CAPLET + f"\n[output]\nreference = {value}\n"
        config = tmp_path / "run.txt"
        config.write_text(text)
        assert main([str(config)]) == 2
        line = len(text.splitlines())
        assert f"line {line}: reference must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new",
        [
            ("sigma = 0.0", "sigma = nan"),
            ("beta = 1.0", "beta = 1.0\nlambda = nan"),
            ("f_max = 0.04", "f_max = inf"),
        ],
        ids=["sigma=nan", "lambda=nan", "f_max=inf"],
    )
    def test_nonfinite_market_or_domain_exits_before_pricing(self, tmp_path, capsys, old, new):
        config = tmp_path / "run.txt"
        config.write_text(MINIMAL_CAPLET.replace(old, new))
        assert main([str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be" in captured.err and "finite" in captured.err

    def test_infeasible_grid_fails_cleanly(self, tmp_path, capsys):
        config = tmp_path / "run.txt"
        config.write_text(MINIMAL_CAPLET + "max_nodes = 10\n")
        assert main([str(config)]) == 1
        assert "exceeds the cap" in capsys.readouterr().err

    def test_later_level_over_the_cap_fails_before_any_level_is_priced(self, tmp_path, capsys):
        # level 6 has 4,225 nodes and level 9 has 263,169
        config = tmp_path / "run.txt"
        text = MINIMAL_CAPLET.replace("levels = 4", "levels = 6, 9")
        config.write_text(text + "max_nodes = 100000\n")
        assert main([str(config), "--threads", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "component grid (9, 9) failed" in captured.err
        assert "exceeds the cap of 100000" in captured.err

    def test_underflowing_diffusion_exits_without_price(self, tmp_path, capsys):
        config = tmp_path / "run.txt"
        config.write_text(MINIMAL_CAPLET.replace("alphas = 0.0, 0.2366", "alphas = 0.0, 1e-160"))
        assert main([str(config), "--threads", "1"]) == 1
        captured = capsys.readouterr()
        assert "diffusion coefficient of direction 1 underflows" in captured.err
        assert [line.split()[0] for line in captured.out.splitlines()] == ["level"]

    def test_tiny_normal_diffusion_prices(self, tmp_path, capsys):
        # alpha^2 F^2 V^2 / h^2 is normal but nu*dt times it is subnormal
        config = tmp_path / "run.txt"
        text = MINIMAL_CAPLET.replace("alphas = 0.0, 0.2366", "alphas = 0.0, 5e-153")
        config.write_text(text.replace("steps = 4", "steps = 256"))
        assert main([str(config), "--threads", "1"]) == 0
        row = capsys.readouterr().out.splitlines()[1].split()
        assert row[:2] == ["4", "256"] and math.isfinite(float(row[2]))

    def test_csv_into_missing_directory_exits_before_pricing(self, tmp_path, capsys):
        config = tmp_path / "run.txt"
        config.write_text(MINIMAL_CAPLET)
        target = tmp_path / "missing" / "out.csv"
        assert main([str(config), "--csv", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(target) in captured.err
        assert f"directory {target.parent} does not exist" in captured.err

    def test_empty_csv_path_exits_before_pricing(self, tmp_path, capsys):
        config = tmp_path / "run.txt"
        config.write_text(MINIMAL_CAPLET)
        assert main([str(config), "--csv", ""]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "the path is empty" in captured.err

    @pytest.mark.parametrize("via_option", [True, False])
    def test_csv_naming_a_directory_exits_before_pricing(self, tmp_path, capsys, via_option):
        config = tmp_path / "run.txt"
        target = tmp_path / "table"
        target.mkdir()
        if via_option:
            config.write_text(MINIMAL_CAPLET)
            assert main([str(config), "--csv", str(target)]) == 2
        else:
            config.write_text(MINIMAL_CAPLET + f"\n[output]\ncsv = {target}\n")
            assert main([str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(target) in captured.err and "is a directory" in captured.err

    def test_unusable_reference_fails_cleanly(self, tmp_path, capsys):
        config = tmp_path / "run.txt"
        for old, new, cause in [("alphas = 0.0, 0.2366", "alphas = 0.0, 0.0", "positive volatility"),
                                ("strike = 0.011", "strike = 0.0", "positive forward and strike")]:
            text = MINIMAL_CAPLET.replace(old, new) + "\n[output]\nreference = black\n"
            config.write_text(text)
            assert main([str(config)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"line {len(text.splitlines())}: Black formula needs {cause}" in captured.err

    def test_config_with_byte_order_mark_runs(self, tmp_path, capsys):
        text = (CONFIGS / "caplet_full.txt").read_text(encoding="utf-8")
        text = text.replace("levels = 6, 7, 8, 9", "levels = 4").replace("steps = 16", "steps = 4")
        config = tmp_path / "run.txt"
        config.write_text(text, encoding="utf-8-sig")
        assert config.read_bytes().startswith(b"\xef\xbb\xbf")
        assert main([str(config), "--csv", str(tmp_path / "out.csv"), "--quiet"]) == 0
        assert (tmp_path / "out.csv").exists()

    def test_module_entry_point_runs_without_warning(self):
        proc = _python("-W", "error::RuntimeWarning", "-m", "ratespde.cli", "--help")
        assert proc.returncode == 0, proc.stderr
        assert "found in sys.modules" not in proc.stderr

    def test_import_leaves_test_oracles_out(self):
        # one step of a small sparse plan, solved in this process, and of a
        # full grid over CSR_MAX_NODES (129^2 nodes) reach every compiled
        # routine, yet load neither scipy subpackage
        sparse = SPARSE_CAPLET.replace("steps = 4", "steps = 1\nthreads = 1")
        full = MINIMAL_CAPLET.replace("levels = 4", "levels = 7").replace("steps = 4", "steps = 1")
        code = (
            "import importlib.util, sys\n"
            "import ratespde\n"
            f"ratespde.parse_config({MINIMAL_CAPLET!r})\n"
            f"ratespde.run(ratespde.parse_config({sparse!r}), quiet=True)\n"
            f"ratespde.run(ratespde.parse_config({full!r}), quiet=True)\n"
            "for name in ('scipy.linalg', 'scipy.sparse'):\n"
            "    assert name not in sys.modules, f'{name} was imported'\n"
            "assert importlib.util.find_spec('ratespde.reference') is None\n"
        )
        proc = _python("-c", code)
        assert proc.returncode == 0, proc.stderr
