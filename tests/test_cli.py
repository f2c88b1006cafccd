import csv
import dataclasses
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hones import cli, driver

from test_driver import rebuilding_every

GOLDEN_DIR = Path(__file__).parent / "golden"

# columns whose values are time measurements and therefore nondeterministic
TIMING_COLUMNS = {"wall_ns", "wall_opt_ns", "a_update_ns"}


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def strip_timing(rows):
    header = rows[0]
    keep = [i for i, name in enumerate(header) if name not in TIMING_COLUMNS]
    return [[row[i] for i in keep] for row in rows]


class TestRunSynthetic:
    def test_writes_csv_and_json(self, tmp_path):
        code = cli.main(
            [
                "run-synthetic",
                "--n", "30",
                "--steps", "50",
                "--seed", "7",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        rows = read_csv(tmp_path / "synthetic-hones-n30-s50-seed7.csv")
        assert rows[0] == cli.CSV_COLUMNS
        assert len(rows) == 51
        summary = json.loads((tmp_path / "synthetic-hones-n30-s50-seed7.json").read_text())
        assert summary["steps"] == 50
        assert summary["schema_version"] == cli.SCHEMA_VERSION
        assert summary["mult_bound_violations"] == 0

    def test_epoch_zero_exits_2_before_any_run(self, tmp_path, capsys):
        argv = ["run-synthetic", "--n", "8", "--steps", "5", "--epoch", "0", "--out-dir", str(tmp_path)]
        with pytest.raises(SystemExit) as stop:
            cli.main(argv)
        assert stop.value.code == 2
        assert "--epoch: must be at least 1" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("value, ok", [("-1", False), ("0", True)])
    def test_pg_max_iter_must_be_nonnegative(self, tmp_path, capsys, value, ok):
        argv = ["run-synthetic", "--n", "8", "--steps", "3", "--solver", "pg-warm", "--pg-max-iter", value]
        argv += ["--out-dir", str(tmp_path)]
        if ok:
            assert cli.main(argv) == 0
            rows = read_csv(tmp_path / "synthetic-pg-warm-n8-s3-seed0.csv")
            col = rows[0].index("iterations")
            assert all(row[col] == "0" and float(row[rows[0].index("kkt_residual")]) < np.inf for row in rows[1:])
            return
        with pytest.raises(SystemExit) as stop:
            cli.main(argv)
        assert stop.value.code == 2
        assert "--pg-max-iter: must be at least 0" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_epoching(self, tmp_path):
        code = cli.main(
            [
                "run-synthetic",
                "--n", "20",
                "--steps", "500",
                "--epoch", "250",
                "--seed", "1",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        summary = json.loads((tmp_path / "synthetic-hones-n20-s500-seed1.json").read_text())
        assert len(summary["epoch_wall_s"]) == 2

    def test_golden_non_timing_columns(self, tmp_path, monkeypatch):
        # One test over all three flows, so that each flow's path is pinned.
        # A rebuild forced after every 10th step puts rebuild() on the ons
        # and markowitz paths too.
        runs = [
            (["run-synthetic", "--steps", "30"], driver.step, "synthetic-hones-n20-s30-seed7"),
            (["run-ons", "--steps", "40"], rebuilding_every(10), "ons-hones-n20-s40-seed7"),
            (["run-markowitz", "--steps", "40"], rebuilding_every(10), "markowitz-hones-n20-s40-seed7"),
        ]
        for argv, stepped, name in runs:
            monkeypatch.setattr(cli, "step", stepped)
            code = cli.main(argv + ["--n", "20", "--seed", "7", "--out-dir", str(tmp_path)])
            assert code == 0
            got = strip_timing(read_csv(tmp_path / f"{name}.csv"))
            want = strip_timing(read_csv(GOLDEN_DIR / f"{name}.csv"))
            assert got == want, name

    def test_golden_reference_solvers(self, tmp_path):
        # The oracle twin (with its agreement file) and pg-warm on the
        # synthetic and the closed-loop ons flow, pinned like the hones runs.
        runs = [
            (["run-synthetic", "--steps", "30", "--solver", "oracle"], "synthetic-oracle-n20-s30-seed7"),
            (["run-synthetic", "--steps", "30", "--solver", "pg-warm"], "synthetic-pg-warm-n20-s30-seed7"),
            (["run-ons", "--steps", "40", "--solver", "pg-warm"], "ons-pg-warm-n20-s40-seed7"),
        ]
        for argv, name in runs:
            assert cli.main(argv + ["--n", "20", "--seed", "7", "--out-dir", str(tmp_path)]) == 0
            for file in [f"{name}.csv"] + [f"{name}-agreement.csv"] * ("oracle" in name):
                got = strip_timing(read_csv(tmp_path / file))
                want = strip_timing(read_csv(GOLDEN_DIR / file))
                assert got == want, file

    def test_repeat_runs_bitwise_identical(self, tmp_path):
        argv = ["run-synthetic", "--n", "15", "--steps", "40", "--seed", "3"]
        cli.main(argv + ["--out-dir", str(tmp_path / "a")])
        cli.main(argv + ["--out-dir", str(tmp_path / "b")])
        rows_a = strip_timing(read_csv(tmp_path / "a" / "synthetic-hones-n15-s40-seed3.csv"))
        rows_b = strip_timing(read_csv(tmp_path / "b" / "synthetic-hones-n15-s40-seed3.csv"))
        assert rows_a == rows_b


    def test_hones_solver_builds_no_dense_matrix(self, tmp_path):
        # Only the oracle twin and pg-warm keep the n x n matrix current; at
        # n = 3000 it would be 72 MB.
        n = 3000
        tracemalloc.start()
        try:
            code = cli.main(["run-synthetic", "--n", str(n), "--steps", "5", "--out-dir", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 8 * n * n / 4

class TestTimingColumns:
    @pytest.mark.parametrize("solver", ["hones", "pg-warm", "oracle"])
    def test_every_mode_keeps_the_documented_identity(self, tmp_path, solver):
        # The timing columns describe the solver the file is named for:
        # wall_ns = a_update_ns + wall_opt_ns on every row, and the JSON's
        # wall and epoch seconds sum those columns.
        argv = ["run-synthetic", "--n", "10", "--steps", "25", "--seed", "2", "--epoch", "20", "--solver", solver]
        if solver == "pg-warm":
            argv += ["--pg-max-iter", "200"]  # a short pg-warm run; its timings are what is checked
        assert cli.main(argv + ["--out-dir", str(tmp_path)]) == 0
        name = f"synthetic-{solver}-n10-s25-seed2"
        rows = read_csv(tmp_path / f"{name}.csv")
        wall, opt, upd = (
            np.array([int(row[rows[0].index(col)]) for row in rows[1:]])
            for col in ("wall_ns", "wall_opt_ns", "a_update_ns")
        )
        assert (wall == upd + opt).all() and (upd > 0).all() and (opt > 0).all()
        summary = json.loads((tmp_path / f"{name}.json").read_text())
        for key, ns in (("wall_s", wall), ("wall_opt_s", opt)):
            assert summary[key] == pytest.approx(ns.sum() / 1e9, rel=1e-12)
            assert summary[f"epoch_{key}"] == pytest.approx([ns[:20].sum() / 1e9, ns[20:].sum() / 1e9], rel=1e-12)


class TestSolverFlags:
    # Each run flag changes the run it is given to: pg-warm keeps no session,
    # so --eager would do nothing there, and only pg-warm reads --pg-max-iter.
    @pytest.mark.parametrize(
        "solver, flags, message",
        [
            ("pg-warm", ["--eager"], "--eager does not apply to --solver pg-warm"),
            ("hones", ["--pg-max-iter", "200"], "--pg-max-iter does not apply to --solver hones"),
            ("oracle", ["--pg-max-iter", "0"], "--pg-max-iter does not apply to --solver oracle"),
        ],
    )
    def test_refused_before_any_file(self, tmp_path, capsys, solver, flags, message):
        argv = ["run-synthetic", "--n", "8", "--steps", "3", "--solver", solver, *flags, "--out-dir", str(tmp_path)]
        with pytest.raises(SystemExit) as stop:
            cli.main(argv)
        assert stop.value.code == 2
        assert message in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_grid_entry_with_a_flag_its_solver_ignores_fails_alone(self, tmp_path, capsys):
        grid = [
            {"kind": "synthetic", "n": 8, "steps": 3, "seed": 1, "solver": "pg-warm", "pg_max_iter": 50},
            {"kind": "synthetic", "n": 8, "steps": 3, "seed": 2, "solver": "pg-warm", "eager": True},
            {"kind": "ons", "n": 8, "steps": 3, "seed": 3, "pg_max_iter": 50},
            {"kind": "synthetic", "n": 8, "steps": 3, "seed": 4, "eager": True},
        ]
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps(grid))
        assert cli.main(["run-grid", "--file", str(grid_file), "--threads", "1", "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "--eager does not apply to --solver pg-warm" in err
        assert "--pg-max-iter does not apply to --solver hones" in err
        assert (tmp_path / "synthetic-pg-warm-n8-s3-seed1.csv").exists()
        assert (tmp_path / "synthetic-hones-n8-s3-seed4.csv").exists()
        assert not list(tmp_path.glob("*-seed2.*")) and not list(tmp_path.glob("*-seed3.*"))

    def test_pg_max_iter_defaults_to_20000_for_pg_warm(self, monkeypatch, tmp_path):
        caps, solve = [], cli.pg_warmstart_solve

        def recording(problem, x0, tol, max_iter):
            caps.append(max_iter)
            return solve(problem, x0, tol=tol, max_iter=max_iter)

        monkeypatch.setattr(cli, "pg_warmstart_solve", recording)
        argv = ["run-synthetic", "--n", "8", "--steps", "3", "--solver", "pg-warm", "--out-dir", str(tmp_path)]
        assert cli.main(argv) == 0
        assert caps == [20000] * 3


class TestOracleTwin:
    def test_agreement_file(self, tmp_path):
        code = cli.main(
            [
                "run-synthetic",
                "--n", "20",
                "--steps", "40",
                "--seed", "5",
                "--solver", "oracle",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        dev_rows = read_csv(tmp_path / "synthetic-oracle-n20-s40-seed5-agreement.csv")
        assert dev_rows[0] == ["t", "max_abs_deviation"]
        devs = [float(r[1]) for r in dev_rows[1:]]
        assert len(devs) == 40
        assert max(devs) <= 1e-7
        summary = json.loads((tmp_path / "synthetic-oracle-n20-s40-seed5.json").read_text())
        assert summary["x_agreement_max"] <= 1e-7


class TestPgWarm:
    def test_runs_and_reports_iterations(self, tmp_path):
        code = cli.main(
            [
                "run-synthetic",
                "--n", "20",
                "--steps", "30",
                "--seed", "2",
                "--solver", "pg-warm",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        rows = read_csv(tmp_path / "synthetic-pg-warm-n20-s30-seed2.csv")
        idx = cli.CSV_COLUMNS.index("iterations")
        iters = [int(r[idx]) for r in rows[1:]]
        assert sum(iters) > 0
        summary = json.loads((tmp_path / "synthetic-pg-warm-n20-s30-seed2.json").read_text())
        # the ridge-dominated transient can stall the baseline below tol;
        # that is reported, not fatal, and must stay the exception
        assert summary["unconverged_steps"] <= 2

    def test_summary_has_every_key_of_a_hones_run(self, tmp_path):
        argv = ["run-synthetic", "--n", "12", "--steps", "20", "--seed", "4", "--out-dir", str(tmp_path)]
        for solver in ("hones", "pg-warm"):
            assert cli.main(argv + ["--solver", solver]) == 0
        hones, pg = (
            json.loads((tmp_path / f"synthetic-{solver}-n12-s20-seed4.json").read_text())
            for solver in ("hones", "pg-warm")
        )
        assert set(pg) == set(hones) - {"mult_bound_violations"} | {"iterations_total", "unconverged_steps"}
        rows = read_csv(tmp_path / "synthetic-pg-warm-n12-s20-seed4.csv")
        col = rows[0].index("kkt_residual")
        assert pg["kkt_residual_max"] == max(float(row[col]) for row in rows[1:])
        assert (pg["mult_total"], pg["rebuilds"], pg["excess_turning_points"]["max"]) == (0, 0, 0)


class TestPriceFlows:
    def test_run_ons_with_generated_prices(self, tmp_path):
        code = cli.main(
            ["run-ons", "--n", "10", "--steps", "40", "--seed", "4", "--out-dir", str(tmp_path)]
        )
        assert code == 0
        rows = read_csv(tmp_path / "ons-hones-n10-s40-seed4.csv")
        assert len(rows) == 41

    def test_ons_takes_no_epsilon(self, tmp_path, capsys):
        # The ons A0 is I whatever the ridge, so run-ons has no --epsilon,
        # and its JSON echoes none.
        with pytest.raises(SystemExit) as stop:
            cli.main(["run-ons", "--n", "8", "--steps", "5", "--epsilon", "1e-3", "--out-dir", str(tmp_path)])
        assert stop.value.code == 2
        assert "unrecognized arguments: --epsilon 1e-3" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())
        assert cli.main(["run-ons", "--n", "8", "--steps", "5", "--out-dir", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "ons-hones-n8-s5-seed0.json").read_text())
        assert summary["scenario"]["epsilon"] is None

    def test_run_markowitz_with_price_file(self, tmp_path):
        from hones.flows import save_prices, synthetic_prices

        prices_path = tmp_path / "prices.csv"
        save_prices(prices_path, synthetic_prices(6, 51, seed=9))
        code = cli.main(
            [
                "run-markowitz",
                "--n", "6",
                "--steps", "50",
                "--seed", "9",
                "--prices", str(prices_path),
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        rows = read_csv(tmp_path / "markowitz-hones-n6-s50-seed9.csv")
        assert len(rows) == 51

    def test_short_price_file_exits_2(self, tmp_path, capsys):
        from hones.flows import save_prices, synthetic_prices

        prices_path = tmp_path / "prices.csv"
        save_prices(prices_path, synthetic_prices(5, 11, seed=3))
        for command in ("run-ons", "run-markowitz"):
            code = cli.main(
                [command, "--n", "5", "--steps", "50", "--prices", str(prices_path), "--out-dir", str(tmp_path)]
            )
            assert code == 2
            assert "11 usable price rows" in capsys.readouterr().err
        assert not list(tmp_path.glob("*-hones-*"))

    def test_output_name_follows_price_file_n(self, tmp_path):
        from hones.flows import save_prices, synthetic_prices

        prices_path = tmp_path / "prices.csv"
        save_prices(prices_path, synthetic_prices(6, 21, seed=9))
        code = cli.main(
            [
                "run-markowitz",
                "--n", "9",
                "--steps", "20",
                "--seed", "9",
                "--prices", str(prices_path),
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        summary = json.loads((tmp_path / "markowitz-hones-n6-s20-seed9.json").read_text())
        assert summary["scenario"]["n"] == 6
        assert len(read_csv(tmp_path / "markowitz-hones-n6-s20-seed9.csv")) == 21
        assert not list(tmp_path.glob("*-n9-*"))

    def test_missing_price_file_fails_cleanly(self, tmp_path):
        code = cli.main(
            [
                "run-markowitz",
                "--n", "5",
                "--steps", "10",
                "--prices", str(tmp_path / "absent.csv"),
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 2


class TestGrid:
    def test_two_scenarios(self, tmp_path):
        grid = [
            {"kind": "synthetic", "n": 10, "steps": 20, "seed": 1},
            {"kind": "synthetic", "n": 12, "steps": 20, "seed": 2, "c_factor": 0.01},
        ]
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps(grid))
        code = cli.main(
            ["run-grid", "--file", str(grid_file), "--threads", "2", "--out-dir", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "synthetic-hones-n10-s20-seed1.csv").exists()
        assert (tmp_path / "synthetic-hones-n12-s20-seed2.csv").exists()

    def test_boolean_keys(self, tmp_path):
        # A true key turns its flag on; a false key leaves it off.
        grid = [
            {"kind": "synthetic", "n": 8, "steps": 5, "seed": 1, "eager": False},
            {"kind": "synthetic", "n": 8, "steps": 5, "seed": 2, "eager": True},
        ]
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps(grid))
        assert cli.main(["run-grid", "--file", str(grid_file), "--out-dir", str(tmp_path)]) == 0
        for seed, lazy in ((1, True), (2, False)):
            summary = json.loads((tmp_path / f"synthetic-hones-n8-s5-seed{seed}.json").read_text())
            assert summary["scenario"]["lazy_a"] is lazy

    def test_bad_grid_file(self, tmp_path):
        bad = tmp_path / "grid.json"
        for text in ("{not json", "[1, 2]"):
            bad.write_text(text)
            assert cli.main(["run-grid", "--file", str(bad)]) == 2

    def test_bad_scenario_fails_alone(self, tmp_path, capsys):
        # A value the run refuses and a key for a flag that does not exist
        # each fail their own scenario with exit 2; the good one still runs.
        grid = [
            {"kind": "synthetic", "n": 8, "steps": 5, "seed": 1},
            {"kind": "synthetic", "n": 8, "steps": 5, "seed": 2, "tol": -1},
            {"kind": "synthetic", "n": 8, "steps": 5, "seed": 3, "cycle_cap": -1},
        ]
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps(grid))
        assert cli.main(["run-grid", "--file", str(grid_file), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "error: tol must be finite and positive" in err
        assert "unrecognized arguments: --cycle-cap -1" in err
        assert (tmp_path / "synthetic-hones-n8-s5-seed1.csv").exists()
        assert not list(tmp_path.glob("*-seed2.*")) and not list(tmp_path.glob("*-seed3.*"))

    def test_threads_zero_exits_2(self, tmp_path, capsys):
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps([{"kind": "synthetic", "n": 8, "steps": 5, "seed": 1}]))
        with pytest.raises(SystemExit) as stop:
            cli.main(["run-grid", "--file", str(grid_file), "--threads", "0", "--out-dir", str(tmp_path)])
        assert stop.value.code == 2
        assert "--threads: must be at least 1" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))


class TestVerify:
    def test_default_passes(self):
        assert cli.main(["verify", "--steps", "30", "--seeds", "10"]) == 0

    def test_fault_injection_fails(self):
        assert cli.main(["verify", "--steps", "30", "--seeds", "5", "--inject-fault", "m-corruption"]) == 1

    def test_turning_point_check_reads_the_support(self, monkeypatch, capsys):
        # A report whose k_t undercounts the support change by one still has
        # k_t >= 2 e_t >= 0, but the check counts the change itself.
        real_step = cli.step

        def undercounting_step(session, g, c):
            rep = real_step(session, g, c)
            return dataclasses.replace(rep, k_t=rep.k_t - 1) if rep.k_t > 2 * rep.e_t else rep

        monkeypatch.setattr(cli, "step", undercounting_step)
        assert cli.main(["verify", "--steps", "30", "--seeds", "5"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] turning-point-lower-bound" in out and out.count("[FAIL]") == 1

    def test_diverging_eager_twin_fails_only_the_twin_check(self, monkeypatch, capsys):
        # The twin is compared with the x's of the lazy run the other checks
        # read, so a fault in the eager run shows in its row alone.
        real_run = cli.run_sequence

        def diverging_run(session, flow, steps):
            out = real_run(session, flow, steps)
            return [(x + (0.0 if session.config.lazy_a else 1e-6), rep) for x, rep in out]

        monkeypatch.setattr(cli, "run_sequence", diverging_run)
        assert cli.main(["verify", "--steps", "30", "--seeds", "5"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] lazy-vs-eager-twin" in out and out.count("[FAIL]") == 1

    def test_oracle_vs_exact_up_to_n_12(self, capsys):
        assert cli.main(["verify", "--n", "12", "--seeds", "11", "--steps", "20"]) == 0
        assert "[pass] oracle-vs-exact" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--n", "--seeds", "--steps"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_non_positive_counts_exit_2(self, capsys, flag, value):
        with pytest.raises(SystemExit) as stop:
            cli.main(["verify", flag, value])
        assert stop.value.code == 2
        err = capsys.readouterr().err
        assert f"{flag}: must be at least 1, got {value}" in err
