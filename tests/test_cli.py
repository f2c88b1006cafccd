import csv
import json
from pathlib import Path

import numpy as np
import pytest

from hones import cli

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

    def test_negative_cycle_cap_exits_2(self, tmp_path):
        argv = ["run-synthetic", "--n", "8", "--steps", "5", "--cycle-cap", "-1", "--out-dir", str(tmp_path)]
        assert cli.main(argv) == 2
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

    def test_golden_non_timing_columns(self, tmp_path):
        # One test over all three flows, so that each flow's path is pinned.
        # The periodic rebuild every 10 steps puts rebuild() on the ons and
        # markowitz paths too.
        runs = [
            (["run-synthetic", "--steps", "30"], "synthetic-hones-n20-s30-seed7"),
            (["run-ons", "--steps", "40", "--rebuild-every", "10"], "ons-hones-n20-s40-seed7"),
            (["run-markowitz", "--steps", "40", "--rebuild-every", "10"], "markowitz-hones-n20-s40-seed7"),
        ]
        for argv, name in runs:
            code = cli.main(argv + ["--n", "20", "--seed", "7", "--out-dir", str(tmp_path)])
            assert code == 0
            got = strip_timing(read_csv(tmp_path / f"{name}.csv"))
            want = strip_timing(read_csv(GOLDEN_DIR / f"{name}.csv"))
            assert got == want, name

    def test_repeat_runs_bitwise_identical(self, tmp_path):
        argv = ["run-synthetic", "--n", "15", "--steps", "40", "--seed", "3"]
        cli.main(argv + ["--out-dir", str(tmp_path / "a")])
        cli.main(argv + ["--out-dir", str(tmp_path / "b")])
        rows_a = strip_timing(read_csv(tmp_path / "a" / "synthetic-hones-n15-s40-seed3.csv"))
        rows_b = strip_timing(read_csv(tmp_path / "b" / "synthetic-hones-n15-s40-seed3.csv"))
        assert rows_a == rows_b


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


class TestPriceFlows:
    def test_run_ons_with_generated_prices(self, tmp_path):
        code = cli.main(
            ["run-ons", "--n", "10", "--steps", "40", "--seed", "4", "--out-dir", str(tmp_path)]
        )
        assert code == 0
        rows = read_csv(tmp_path / "ons-hones-n10-s40-seed4.csv")
        assert len(rows) == 41

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
        bad.write_text("{not json")
        assert cli.main(["run-grid", "--file", str(bad)]) == 2


class TestVerify:
    def test_default_passes(self):
        assert cli.main(["verify", "--steps", "30", "--seeds", "10"]) == 0

    def test_fault_injection_fails(self):
        assert cli.main(["verify", "--steps", "30", "--seeds", "5", "--inject-fault", "m-corruption"]) == 1

    def test_exhaustive_mode(self):
        assert cli.main(["verify", "--n", "12", "--seeds", "6", "--steps", "20", "--exhaustive"]) == 0
