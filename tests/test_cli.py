import argparse
import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baeqnd import __version__, cli, measurement, setup_model
from baeqnd.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, EXIT_TRUNCATION, main
from baeqnd.errors import InvalidParameterError

from oracles import rowform_payload_texts, swapped_arms

REPO = Path(__file__).resolve().parent.parent


def read_envelope(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_csv_columns(path: Path) -> dict:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], rows[1:]
    return {name: [row[i] for row in data] for i, name in enumerate(header)}


class TestDistribution:
    def test_scaled_peaks_and_column_sums(self, tmp_path):
        out = tmp_path / "dist.json"
        code = main(["distribution", "--delta-x", "10", "--dim", "32",
                     "--out", str(out)])
        assert code == EXIT_OK
        payload = read_envelope(out)["payload"]
        table = payload["table"]
        cols = {name: np.array([row[i] for row in table["rows"]])
                for i, name in enumerate(table["columns"])}
        peak_row = np.argmax(cols["p1_scaled"] * (cols["x_scaled"] > 0))
        step = cols["x_scaled"][1] - cols["x_scaled"][0]
        assert abs(cols["x_scaled"][peak_row] - np.sqrt(2.0)) <= step
        assert cols["p1_scaled"][peak_row] == pytest.approx(
            np.exp(-1.0) / (8.0 * np.sqrt(2.0 * np.pi)), rel=0.02
        )
        total = sum(cols[f"p_{n}"] for n in range(5))
        np.testing.assert_allclose(total, cols["density"], atol=1e-8)

    def test_csv_and_json_agree(self, tmp_path):
        json_out = tmp_path / "dist.json"
        csv_out = tmp_path / "dist.csv"
        assert main(["distribution", "--delta-x", "2", "--dim", "16",
                     "--grid-count", "101", "--out", str(json_out)]) == EXIT_OK
        assert main(["distribution", "--delta-x", "2", "--dim", "16",
                     "--grid-count", "101", "--out", str(csv_out),
                     "--format", "csv"]) == EXIT_OK
        table = read_envelope(json_out)["payload"]["table"]
        csv_cols = read_csv_columns(csv_out)
        assert list(csv_cols) == table["columns"]
        for i, name in enumerate(table["columns"]):
            json_vals = [row[i] for row in table["rows"]]
            csv_vals = [float(v) for v in csv_cols[name]]
            np.testing.assert_array_equal(json_vals, csv_vals)
            # Each cell is the shortest round-trip text, the JSON number token.
            assert csv_cols[name] == [json.dumps(v) for v in json_vals]
        sidecar = read_envelope(Path(str(csv_out) + ".meta.json"))
        assert sidecar["checksum"] == read_envelope(json_out)["checksum"]

    def test_meta_version_is_the_package_version(self, tmp_path):
        out = tmp_path / "dist.json"
        assert main(["distribution", "--delta-x", "2", "--dim", "8", "--grid-count", "11",
                     "--out", str(out)]) == EXIT_OK
        assert read_envelope(out)["meta"]["version"] == __version__
        pyproject = (REPO / "pyproject.toml").read_text(encoding="utf-8")
        assert re.search(r'^version = "(.*)"$', pyproject, re.M).group(1) == __version__

    def test_requires_delta_x(self, tmp_path, capsys):
        code = main(["distribution", "--out", str(tmp_path / "x.json")])
        assert code == EXIT_CONFIG
        assert "delta-x" in capsys.readouterr().err

    def test_kernel_leak_exits_truncation(self, tmp_path, capsys):
        # At dx 0.05 the kernel sends 0.26 of the vacuum above level 31.
        out = tmp_path / "dist.json"
        code = main(["distribution", "--delta-x", "0.05", "--dim", "32", "--out", str(out)])
        assert code == EXIT_TRUNCATION
        assert not out.exists()
        assert "leaks mass" in capsys.readouterr().err

    def test_outcomes_are_linspace_nodes(self, tmp_path):
        out = tmp_path / "dist.json"
        assert main(["distribution", "--delta-x", "1", "--dim", "16", "--grid-count", "201",
                     "--out", str(out)]) == EXIT_OK
        table = read_envelope(out)["payload"]["table"]
        x_m = [row[table["columns"].index("x_m")] for row in table["rows"]]
        assert x_m == np.linspace(-6.0 * math.sqrt(2.0), 6.0 * math.sqrt(2.0), 201).tolist()

    def test_p1_scaled_does_not_depend_on_n_max(self, tmp_path):
        # The table holds level 1 at every dim, so p1_scaled = dx^3 p_1 is
        # tabulated whatever --n-max is; at --n-max 0 it read 0.0 in every row.
        columns = {}
        for n_max in (0, 4):
            out = tmp_path / f"dist-{n_max}.json"
            assert main(["distribution", "--delta-x", "10", "--dim", "16", "--grid-count", "5",
                         "--n-max", str(n_max), "--out", str(out)]) == EXIT_OK
            table = read_envelope(out)["payload"]["table"]
            columns[n_max] = [row[table["columns"].index("p1_scaled")] for row in table["rows"]]
        assert columns[0] == columns[4]
        assert columns[0][1] > 0.0

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("flag, value, message", [
        ("--grid-count", "1", "grid count must be an integer >= 2, got 1"),
        ("--grid-count", "0", "grid count must be an integer >= 2, got 0"),
        ("--grid-count", "-5", "grid count must be an integer >= 2, got -5"),
        ("--n-max", "16", "n_max 16 outside 0..15"),
        ("--n-max", "-1", "n_max -1 outside 0..15"),
    ])
    def test_refused_table_writes_no_file(self, tmp_path, capsys, fmt, flag, value, message):
        out = tmp_path / f"dist.{fmt}"
        code = main(["distribution", "--delta-x", "1", "--dim", "16", flag, value,
                     "--format", fmt, "--out", str(out)])
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestJumpSweep:
    def test_ratio_column(self, tmp_path):
        out = tmp_path / "sweep.json"
        argv = ["jump-sweep", "--out", str(out)]
        for dx in (2, 4, 5, 10, 20):
            argv += ["--delta-x", str(dx)]
        assert main(argv) == EXIT_OK
        rows = read_envelope(out)["payload"]["table"]["rows"]
        assert rows[1][2] == pytest.approx(0.00390625, abs=0)
        ratios = [row[3] for row in rows]
        assert ratios == sorted(ratios)
        assert ratios[-1] == pytest.approx(1.0, abs=1e-3)

    def test_kernel_leak_exits_truncation(self, tmp_path, capsys):
        # At dx 0.1 the kernel sends 2.7e-2 of the vacuum above level 31.
        out = tmp_path / "sweep.json"
        code = main(["jump-sweep", "--delta-x", "0.1", "--dim", "32", "--out", str(out)])
        assert code == EXIT_TRUNCATION
        assert not out.exists()
        assert "--dim 48" in capsys.readouterr().err

    def test_dim_past_the_outcome_rule_is_config_error(self, tmp_path, capsys):
        # dim 1500 needs a 1502-node rule; the rule ends at 1400 nodes, which
        # used to surface as an unexplained grid-validation error.
        out = tmp_path / "sweep.json"
        code = main(["jump-sweep", "--delta-x", "1", "--dim", "1500", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()
        assert "1400-node limit" in capsys.readouterr().err


class TestCorrelation:
    def test_exact_only_when_shots_omitted(self, tmp_path):
        out = tmp_path / "corr.json"
        assert main(["correlation", "--delta-x", "10", "--dim", "32",
                     "--out", str(out)]) == EXIT_OK
        report = read_envelope(out)["payload"]["report"]
        assert report["operator_c"] == pytest.approx(0.125, abs=1e-12)
        assert report["exact_c_integral"] == pytest.approx(0.125, rel=0.01)
        assert report["measured_c"] is None
        assert report["shots"] is None

    def test_sampled_fields_present_with_shots(self, tmp_path):
        out = tmp_path / "corr.json"
        assert main(["correlation", "--delta-x", "5", "--dim", "16",
                     "--shots", "20000", "--seed", "3",
                     "--out", str(out)]) == EXIT_OK
        report = read_envelope(out)["payload"]["report"]
        assert report["shots"] == 20000
        assert report["measured_c"] is not None
        assert report["standard_errors"]["measured_c"] > 0

    def test_kernel_leak_exits_truncation(self, tmp_path):
        out = tmp_path / "corr.json"
        code = main(["correlation", "--delta-x", "0.05", "--dim", "32", "--out", str(out)])
        assert code == EXIT_TRUNCATION
        assert not out.exists()

    def test_shots_without_seed_is_config_error(self, tmp_path):
        code = main(["correlation", "--delta-x", "5", "--shots", "100",
                     "--out", str(tmp_path / "c.json")])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_seed_without_shots_is_config_error(self, tmp_path, capsys, fmt):
        # The exact report draws nothing, so a seed would be recorded in
        # meta.config without shaping the payload.
        code = main(["correlation", "--delta-x", "1", "--dim", "16", "--seed", "7",
                     "--format", fmt, "--out", str(tmp_path / f"c.{fmt}")])
        assert code == EXIT_CONFIG
        assert "--seed requires --shots" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["correlation", "simulate"])
    def test_negative_seed_is_config_error(self, tmp_path, capsys, command):
        out = tmp_path / "c.json"
        code = main([command, "--delta-x", "5", "--dim", "16", "--shots", "100",
                     "--seed", "-1", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()
        assert "seed" in capsys.readouterr().err


class TestPovmCheck:
    def test_defect_reported(self, tmp_path):
        out = tmp_path / "povm.json"
        assert main(["povm-check", "--delta-x", "1", "--dim", "16",
                     "--out", str(out)]) == EXIT_OK
        payload = read_envelope(out)["payload"]
        assert payload["report"]["max_defect"] < 1e-8
        dims = [row[0] for row in payload["table"]["rows"]]
        assert dims == sorted(dims)

    def test_recorded_span_reproduces_payload(self, tmp_path):
        # The rules follow from --delta-x and --dim, so the settings in
        # meta.config rerun the same audit.  The report keeps the span
        # 6 sqrt(dx^2 + dim) under both keys the benchmark's check reads.
        out, rerun = tmp_path / "povm.json", tmp_path / "rerun.json"
        assert main(["povm-check", "--delta-x", "1", "--dim", "24",
                     "--out", str(out)]) == EXIT_OK
        envelope = read_envelope(out)
        config = envelope["meta"]["config"]
        assert "grid_span" not in config and "grid_count" not in config
        report = envelope["payload"]["report"]
        assert sorted(report) == ["delta_x", "grid_span", "max_defect", "required_span"]
        assert report["grid_span"] == report["required_span"] == 6.0 * math.sqrt(1.0 + 24.0)
        assert main(["povm-check", "--delta-x", repr(config["delta_x"][0]),
                     "--dim", str(config["dim"]), "--out", str(rerun)]) == EXIT_OK
        assert read_envelope(rerun)["checksum"] == envelope["checksum"]

    def test_every_defect_exact(self, tmp_path):
        # The uniform grid read 1.6e-11 to 3.4e-11 at dx 10, dim 32: its own
        # error.  On the exact rules only rounding is left.
        out = tmp_path / "povm.json"
        assert main(["povm-check", "--delta-x", "10", "--dim", "32", "--out", str(out)]) == EXIT_OK
        rows = read_envelope(out)["payload"]["table"]["rows"]
        assert [row[0] for row in rows] == [16, 24, 32]
        assert all(row[2] <= 1e-14 for row in rows), rows

    @pytest.mark.parametrize("dim", [2, 7])
    def test_dim_below_eight_is_config_error(self, tmp_path, capsys, dim):
        out = tmp_path / "povm.json"
        code = main(["povm-check", "--delta-x", "1", "--dim", str(dim), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()
        assert "--dim" in capsys.readouterr().err

    def test_dim_past_the_rule_limit_is_config_error(self, tmp_path, capsys, monkeypatch):
        # The truncated square's rule of 2 dim nodes passes MAX_RULE_NODES
        # (1,400) above dim 700: exit 2 before any ladder work, and no file.
        def refuse(*args, **kwargs):
            raise AssertionError("ladder started")

        monkeypatch.setattr(measurement, "_kernel_rows", refuse)
        out = tmp_path / "povm.json"
        code = main(["povm-check", "--delta-x", "1", "--dim", "701", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert list(tmp_path.iterdir()) == []
        assert "dims 8..700, got --dim 701" in capsys.readouterr().err

    def test_one_ladder_per_chunk_and_integral(self, tmp_path, monkeypatch):
        # Each integral runs the ladder once per chunk of its rule at --dim,
        # however many dims it audits: dim + 1 nodes for the exact P^2 and
        # 2 dim for the truncated square.  A chunk holds _CHUNK_ELEMENTS
        # ladder-row entries, so at dim 200 it is many outcomes, not one.
        started = {True: 0, False: 0}
        kernel_rows = measurement._kernel_rows
        square = measurement._kernel_gaussian(measurement.MeasurementModel(0.05, 200), squared=True)

        def spy(gaussian, x, width, count):
            assert count == width == 200
            assert x.size > 1
            started[gaussian == square] += 1
            return kernel_rows(gaussian, x, width, count)

        monkeypatch.setattr(measurement, "_kernel_rows", spy)
        out = tmp_path / "povm.json"
        assert main(["povm-check", "--delta-x", "0.05", "--dim", "200",
                     "--out", str(out)]) == EXIT_OK
        assert [row[0] for row in read_envelope(out)["payload"]["table"]["rows"]] == [184, 192, 200]
        assert started[True] == math.ceil(201 * 200 / measurement._CHUNK_ELEMENTS)
        assert started[False] == math.ceil(400 * 200 / measurement._CHUNK_ELEMENTS)


class TestSetupCheck:
    def test_matched_parameters_reported(self, tmp_path):
        out = tmp_path / "setup.json"
        gain = repr(float(np.sqrt(2.0)))
        assert main(["setup-check", "--gain-a", gain, "--dim", "40",
                     "--out", str(out)]) == EXIT_OK
        report = read_envelope(out)["payload"]["report"]
        assert report["reflectivity"] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert report["delta_x"] == pytest.approx(0.7071067811865472, abs=1e-12)
        assert report["equivalence_defect"]["vacuum"] < 1e-3
        assert report["equivalence_defect"]["one_photon"] < 1e-3
        assert report["calibration_residual"] < 1e-3

    def test_overflowing_table_dim_reported_as_note(self, tmp_path):
        # At gain 2 the dim-20 row of the convergence table trips the
        # truncation guard; the command must still succeed with a null cell.
        out = tmp_path / "setup.json"
        assert main(["setup-check", "--gain-a", "2.0", "--dim", "40",
                     "--out", str(out)]) == EXIT_OK
        rows = read_envelope(out)["payload"]["table"]["rows"]
        assert rows[0][0] == 20 and rows[0][1] is None
        assert "overflow" in rows[0][2]
        assert rows[2][1] < 1e-3

    def test_exact_calibration_and_converging_sweep(self, tmp_path):
        # Matched second moments give the analytic scale -2 dx to rounding, and
        # with mode 0 untruncated every swept dim agrees with the kernel to rounding.
        out = tmp_path / "setup.json"
        assert main(["setup-check", "--gain-a", "1.5", "--dim", "48",
                     "--out", str(out)]) == EXIT_OK
        payload = read_envelope(out)["payload"]
        report = payload["report"]
        assert abs(report["calibration_scale"] + 1.2) < 1e-14
        assert report["calibration_residual"] < 1e-12
        assert max(report["equivalence_defect"].values()) < 1e-12
        assert report["triple_defect"] == setup_model.triple_defect(setup_model.SetupCircuit(1.5, 48))
        assert report["triple_defect"] < 1e-14
        dims, defects, _ = zip(*payload["table"]["rows"])
        assert dims == (24, 36, 48)
        assert max(defects) <= 1e-12

    def test_calibration_mismatch_exit_code(self, tmp_path, capsys, monkeypatch):
        # With the amplifier arms exchanged the one-photon density matches no
        # rescaled kernel density: exit 3, and no file.
        monkeypatch.setattr(setup_model, "_bogoliubov", swapped_arms(setup_model._bogoliubov))
        out = tmp_path / "setup.json"
        code = main(["setup-check", "--gain-a", "1.5", "--dim", "16", "--out", str(out)])
        assert code == EXIT_NUMERIC
        assert not out.exists()
        assert "calibration residual" in capsys.readouterr().err

    def test_overflowing_row_is_empty_csv_cell(self, tmp_path):
        # The JSON null of an overflowed sweep row is an empty CSV cell, not "None".
        out = tmp_path / "setup.csv"
        assert main(["setup-check", "--gain-a", "1.8", "--dim", "32",
                     "--format", "csv", "--out", str(out)]) == EXIT_OK
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "dim,vacuum_defect,note"
        assert lines[1] == "16,,truncation-overflow at this dim"
        assert "None" not in out.read_text(encoding="utf-8")

    def test_nothing_to_compare_exit_code(self, tmp_path, capsys):
        # At dx 2.5e6 the vacuum's peak density, 1.6e-7, is below the
        # equivalence floor everywhere: every defect read 0.0 with exit 0.
        out = tmp_path / "setup.json"
        code = main(["setup-check", "--gain-a", "1.0000001", "--dim", "8", "--out", str(out)])
        assert code == EXIT_NUMERIC
        assert list(tmp_path.iterdir()) == []
        assert "nothing to compare" in capsys.readouterr().err

    def test_overflow_exit_code(self, tmp_path, capsys):
        code = main(["setup-check", "--gain-a", "3", "--dim", "40",
                     "--out", str(tmp_path / "s.json")])
        assert code == EXIT_TRUNCATION
        assert "dim" in capsys.readouterr().err

    def test_gain_and_delta_x_clash(self, tmp_path):
        code = main(["setup-check", "--gain-a", "1.5", "--delta-x", "1",
                     "--out", str(tmp_path / "s.json")])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("dim, swept", [(5, [3, 5]), (6, [4, 6]), (12, [8, 9, 12]),
                                            (16, [8, 12, 16])])
    def test_sweep_stays_within_dim(self, tmp_path, dim, swept):
        # max(8, dim // 2) swept dim 8 at --dim 6, past the requested truncation.
        out = tmp_path / "setup.json"
        assert main(["setup-check", "--gain-a", "1.05", "--dim", str(dim),
                     "--out", str(out)]) == EXIT_OK
        assert [row[0] for row in read_envelope(out)["payload"]["table"]["rows"]] == swept

    def test_dim_beyond_the_homodyne_is_config_error(self, tmp_path, capsys, monkeypatch):
        # Dims 258 and 1000 were refused while the point map read the signal
        # output on wavefunction levels up to 256.  The ladder has no level
        # cap: the one-photon input's outcome rule of --dim + 3 nodes sets the
        # limit, 1,397, and the refusal comes before the circuit is built.
        def build(params):
            raise AssertionError("circuit built")

        args = cli._build_parser()[0].parse_args(
            ["setup-check", "--gain-a", "1.5", "--dim", "258", "--out", "unused.json"])
        cli._check_dim(args)
        monkeypatch.setattr(setup_model, "_bogoliubov", build)
        for dim in (1398, 100000):
            code = main(["setup-check", "--gain-a", "1.5", "--dim", str(dim),
                         "--out", str(tmp_path / "s.json")])
            assert code == EXIT_CONFIG
            assert list(tmp_path.iterdir()) == []
            err = capsys.readouterr().err
            assert f"dims 2..1397, got --dim {dim}" in err and "--dim + 3 nodes" in err

    def test_high_gain_audit_at_rounding(self, tmp_path):
        # The forward Fock recurrence read defects of 3.7e-5 and 1.2e-4 here,
        # and sweep rows of 9.4e-6 and 2.6e-8: its own rounding.
        out = tmp_path / "setup.json"
        assert main(["setup-check", "--gain-a", "3", "--dim", "200",
                     "--out", str(out)]) == EXIT_OK
        payload = read_envelope(out)["payload"]
        assert max(payload["report"]["equivalence_defect"].values()) < 1e-12
        dims, defects, _ = zip(*payload["table"]["rows"])
        assert dims == (100, 150, 200)
        assert max(defects) < 1e-12

    def test_high_gain_overflow_names_the_signal_mode(self, tmp_path, capsys):
        # The exact mode-1 occupation is 1.26e-6; the recurrence reported a
        # mode-0 occupation of 5.3e5, its own norm growth.
        code = main(["setup-check", "--gain-a", "5", "--dim", "200",
                     "--out", str(tmp_path / "s.json")])
        assert code == EXIT_TRUNCATION
        assert list(tmp_path.iterdir()) == []
        err = capsys.readouterr().err
        assert "of mode 1 exceeds" in err
        assert 1e-6 < float(err.split("occupation ")[1].split()[0]) < 2e-6


class TestSimulate:
    def test_requires_seed(self, tmp_path):
        code = main(["simulate", "--delta-x", "5", "--shots", "10",
                     "--out", str(tmp_path / "sim.json")])
        assert code == EXIT_CONFIG

    def test_payload_deterministic(self, tmp_path):
        args = ["simulate", "--delta-x", "5", "--dim", "16", "--shots", "30000",
                "--seed", "42", "--record-limit", "100"]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        env1, env2 = read_envelope(out1), read_envelope(out2)
        bytes1 = json.dumps(env1["payload"], sort_keys=True).encode()
        bytes2 = json.dumps(env2["payload"], sort_keys=True).encode()
        assert bytes1 == bytes2
        assert env1["checksum"] == env2["checksum"]

    def test_csv_records_deterministic(self, tmp_path):
        args = ["simulate", "--delta-x", "5", "--dim", "16", "--shots", "5000",
                "--seed", "11", "--format", "csv"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_record_limit(self, tmp_path):
        out = tmp_path / "sim.json"
        assert main(["simulate", "--delta-x", "5", "--dim", "16", "--shots", "5000",
                     "--seed", "1", "--record-limit", "7", "--out", str(out)]) == EXIT_OK
        payload = read_envelope(out)["payload"]
        assert payload["records_emitted"] == 7
        assert len(payload["table"]["rows"]) == 7
        assert payload["report"]["shots"] == 5000

    @pytest.mark.parametrize("limit", ["-1", "-5"])
    def test_negative_record_limit_is_config_error(self, tmp_path, capsys, limit):
        out = tmp_path / "sim.json"
        code = main(["simulate", "--delta-x", "5", "--dim", "16", "--shots", "100",
                     "--seed", "1", "--record-limit", limit, "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()
        assert "--record-limit" in capsys.readouterr().err


class TestGridFlags:
    COMMANDS = {
        "correlation": ["correlation", "--delta-x", "2", "--dim", "16"],
        "jump-sweep": ["jump-sweep", "--delta-x", "2", "--dim", "16"],
        "simulate": ["simulate", "--delta-x", "2", "--dim", "16", "--shots", "100",
                     "--seed", "1"],
        "povm-check": ["povm-check", "--delta-x", "1", "--dim", "8"],
        "setup-check": ["setup-check", "--gain-a", "1.5", "--dim", "16"],
    }

    # distribution takes only a node count: its span follows from the
    # resolution, so no span can narrow a table.
    SPAN_COMMANDS = {
        **COMMANDS,
        "distribution": ["distribution", "--delta-x", "2", "--dim", "16", "--grid-count", "101"],
    }

    # No command takes --grid-span; the jump integrals and povm-check use
    # exact rules and setup-check fixed outcome sets, so their commands take
    # no --grid-count either: argparse refuses them before a file is opened.
    @pytest.mark.parametrize("command", sorted(SPAN_COMMANDS))
    @pytest.mark.parametrize("span", ["nan", "inf", "-3", "0", "5"])
    def test_invalid_span_is_config_error(self, tmp_path, capsys, command, span):
        out = tmp_path / "out.json"
        code = main(self.SPAN_COMMANDS[command] + ["--grid-span", span, "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()
        assert f"unrecognized arguments: --grid-span {span}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_grid_count_is_config_error(self, tmp_path, capsys, command):
        out = tmp_path / "out.json"
        code = main(self.COMMANDS[command] + ["--grid-count", "1501", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()
        assert "unrecognized arguments: --grid-count 1501" in capsys.readouterr().err

    def test_simulate_and_correlation_reports_agree(self, tmp_path):
        flags = ["--delta-x", "5", "--dim", "16", "--shots", "1000", "--seed", "3"]
        corr, sim = tmp_path / "corr.json", tmp_path / "sim.json"
        assert main(["correlation", *flags, "--out", str(corr)]) == EXIT_OK
        assert main(["simulate", *flags, "--out", str(sim)]) == EXIT_OK
        report = read_envelope(corr)["payload"]["report"]
        assert report == read_envelope(sim)["payload"]["report"]


class TestUnreadFlags:
    """Each command registers only the flags it reads; argparse refuses the rest."""

    COMMANDS = {
        "distribution": ["distribution", "--delta-x", "2", "--dim", "16", "--grid-count", "101"],
        "jump-sweep": ["jump-sweep", "--delta-x", "2", "--dim", "16"],
        "correlation": ["correlation", "--delta-x", "2", "--dim", "16"],
        "povm-check": ["povm-check", "--delta-x", "1", "--dim", "8"],
        "setup-check": ["setup-check", "--gain-a", "1.5", "--dim", "16"],
        "simulate": ["simulate", "--delta-x", "2", "--dim", "16", "--shots", "100", "--seed", "1"],
    }
    UNREAD = [
        ("distribution", ["--shots", "5"]),
        ("distribution", ["--seed", "3"]),
        ("distribution", ["--record-limit", "2"]),
        ("jump-sweep", ["--n-max", "9"]),
        ("jump-sweep", ["--shots", "5"]),
        ("jump-sweep", ["--seed", "3"]),
        ("jump-sweep", ["--record-limit", "2"]),
        ("correlation", ["--n-max", "9"]),
        ("correlation", ["--record-limit", "2"]),
        ("povm-check", ["--n-max", "9"]),
        ("povm-check", ["--shots", "5"]),
        ("povm-check", ["--seed", "3"]),
        ("povm-check", ["--record-limit", "2"]),
        ("setup-check", ["--n-max", "9"]),
        ("setup-check", ["--shots", "5"]),
        ("setup-check", ["--seed", "3"]),
        ("setup-check", ["--record-limit", "2"]),
        ("simulate", ["--n-max", "9"]),
        ("distribution", ["--gain-a", "1.5"]),
        ("jump-sweep", ["--gain-a", "1.5"]),
        ("povm-check", ["--gain-a", "1.5"]),
    ]

    @pytest.mark.parametrize("command, flag", UNREAD, ids=[f"{c}{f[0]}" for c, f in UNREAD])
    def test_unread_flag_is_config_error(self, tmp_path, capsys, command, flag):
        out = tmp_path / "out.json"
        code = main(self.COMMANDS[command] + flag + ["--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    def test_refusal_shows_the_command_usage(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        code = main(["jump-sweep", "--delta-x", "1", "--shots", "5", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()
        assert capsys.readouterr().err.startswith("usage: bae-qnd-sim jump-sweep")


class TestEnvelope:
    def test_checksum_definition(self, tmp_path):
        # checksum = SHA-256 of the payload with sorted keys and no whitespace;
        # the CSV twin carries the same checksum and the SHA-256 of its bytes.
        args = ["simulate", "--delta-x", "5", "--dim", "16", "--shots", "300",
                "--seed", "4"]
        json_out, csv_out = tmp_path / "sim.json", tmp_path / "sim.csv"
        assert main(args + ["--out", str(json_out)]) == EXIT_OK
        assert main(args + ["--out", str(csv_out), "--format", "csv"]) == EXIT_OK
        envelope = read_envelope(json_out)
        canonical = json.dumps(envelope["payload"], sort_keys=True, separators=(",", ":"))
        assert envelope["checksum"] == "sha256:" + hashlib.sha256(canonical.encode()).hexdigest()
        sidecar = read_envelope(Path(str(csv_out) + ".meta.json"))
        assert sidecar["csv_sha256"] == "sha256:" + hashlib.sha256(csv_out.read_bytes()).hexdigest()
        assert sidecar["checksum"] == envelope["checksum"]

    def test_metadata_suffices_to_reproduce(self, tmp_path):
        out = tmp_path / "corr.json"
        assert main(["correlation", "--delta-x", "2", "--dim", "16",
                     "--out", str(out)]) == EXIT_OK
        envelope = read_envelope(out)
        config = envelope["meta"]["config"]
        assert "grid_span" not in config and "grid_count" not in config
        rerun = tmp_path / "rerun.json"
        assert main(["correlation", "--delta-x", str(config["delta_x"][0]),
                     "--dim", str(config["dim"]),
                     "--out", str(rerun)]) == EXIT_OK
        assert read_envelope(rerun)["checksum"] == envelope["checksum"]

    def test_seed_recorded(self, tmp_path):
        out = tmp_path / "sim.json"
        assert main(["simulate", "--delta-x", "5", "--dim", "16", "--shots", "100",
                     "--seed", "99", "--record-limit", "0", "--out", str(out)]) == EXIT_OK
        assert read_envelope(out)["meta"]["seed"] == 99

    def test_console_entry_point(self, tmp_path):
        out = tmp_path / "sweep.json"
        proc = subprocess.run(
            [sys.executable, "-m", "baeqnd.cli", "jump-sweep", "--delta-x", "4",
             "--dim", "16", "--out", str(out)],
            capture_output=True,
            text=True,
            cwd=str(Path(__file__).resolve().parent.parent),
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin:/usr/local/bin"},
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert out.exists()


#: Floats at the edges of repr's output: signed zero, the smallest subnormal
#: and normal, the largest finite value, and both sides of the switches to
#: exponent form at 1e16 and 1e-4.
_EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                -1.7976931348623157e308, 1e16, 9999999999999998.0, -1e16, 1e-4,
                9.999999999999999e-05, 1.0000000000000002e-04, 0.1, 1.0, 123456789.0]
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_NEAR_2_62 = st.one_of(st.integers(2**62 - 3, 2**62 + 3), st.integers(-2**62 - 3, -2**62 + 3))


@st.composite
def _column(draw, rows):
    kind = draw(st.sampled_from(["float", "int", "bool", "list-numbers", "list-mixed"]))
    if kind == "bool":
        return np.array(draw(st.lists(st.booleans(), min_size=rows, max_size=rows)), dtype=bool)
    if kind == "float":
        values = draw(st.lists(st.one_of(st.sampled_from(_EDGE_FLOATS), _FINITE),
                               min_size=rows, max_size=rows))
        return np.array(values, dtype=np.float64)
    if kind == "int":
        values = draw(st.lists(st.one_of(_NEAR_2_62, st.integers(-2**63, 2**63 - 1)),
                               min_size=rows, max_size=rows))
        return np.array(values, dtype=np.int64)
    cell = st.one_of(st.sampled_from(_EDGE_FLOATS), _FINITE, _NEAR_2_62, st.integers(-9, 9))
    if kind == "list-mixed":
        cell = st.one_of(cell, st.none(), st.text(max_size=6), st.booleans(),
                         _FINITE.map(np.float64))
    return draw(st.lists(cell, min_size=rows, max_size=rows))


def _sha256(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def block_texts(payload: dict) -> tuple[str, str]:
    """(canonical text, CSV text) as the block writer makes them, its checksums read against them."""
    checksum, no_csv, chunks = cli._payload_bytes(payload, csv=False)
    canonical = b"".join(chunks)
    assert (checksum, no_csv) == (_sha256(canonical), None)
    csv_checksum, csv_sha256, chunks = cli._payload_bytes(payload, csv=True)
    csv_bytes = b"".join(chunks)
    assert (csv_checksum, csv_sha256) == (checksum, _sha256(csv_bytes))
    return canonical.decode(), csv_bytes.decode()


def _run_payload(command: str, **flags) -> dict:
    return cli._COMMANDS[command].run(argparse.Namespace(command=command, **flags))


#: The writer's largest payloads: the 20,000-shot simulate records and the
#: 20,001-row distribution table.
_LARGE_PAYLOADS = {
    "simulate": dict(delta_x=[5.0], dim=32, shots=20_000, seed=9, record_limit=None),
    "distribution": dict(delta_x=[10.0], dim=32, grid_count=20_001, n_max=4),
}


class TestEnvelopeWriter:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_matches_the_rowform_writer(self, data):
        # Columns in, the same canonical payload and CSV bytes as the
        # row-by-row writer: numbers at repr's edges, int64 near +-2^62,
        # null/text/bool cells, bool arrays, zero rows and a single column.
        # Blocks of 1, 2 and 3 rows end the tables on, just before and just
        # after a block edge.
        rows = data.draw(st.sampled_from([0, 1, 2, 7]), label="rows")
        width = data.draw(st.integers(1, 4), label="width")
        names = [f"c{i}" for i in range(width)]
        columns = [data.draw(_column(rows), label=name) for name in names]
        extras = data.draw(st.fixed_dictionaries({}, optional={
            "records_emitted": st.integers(0, 9),
            "report": st.dictionaries(st.text(max_size=4), _FINITE, max_size=3),
        }), label="extras")
        values = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
        rowform = {**extras, "table": {"columns": names, "rows": [list(r) for r in zip(*values)]}}
        expected = rowform_payload_texts(rowform)
        payload = {**extras, "table": {"columns": names, "data": columns}}
        for block_rows in (cli._BLOCK_ROWS, 1, 2, 3):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(cli, "_BLOCK_ROWS", block_rows)
                assert block_texts(payload) == expected, block_rows

    def test_numeric_table_formats_no_cell_alone(self, tmp_path, monkeypatch):
        # simulate's records are formatted row by row from the columns; no
        # per-cell call is left on the CSV path.
        calls = []
        original = cli._format_cell

        def spy(value):
            calls.append(value)
            return original(value)

        monkeypatch.setattr(cli, "_format_cell", spy)
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--delta-x", "5", "--dim", "16", "--shots", "2000", "--seed", "1",
                     "--format", "csv", "--out", str(out)]) == EXIT_OK
        assert len(out.read_text(encoding="utf-8").splitlines()) == 2001
        assert calls == []

    def test_numeric_columns_skip_the_cell_formatters(self, monkeypatch):
        # Each column picks its formatter once: beside a null/text column, a
        # numeric column's cells go through neither _compact_json nor
        # _format_cell, and only the other column's cells do, once per format.
        calls = []
        for name in ("_compact_json", "_format_cell"):
            original = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda v, f=original: calls.append(v) or f(v))
        numeric = [np.array([0.1, -2.5e-300, 7.0]), np.array([3, -4, 2**62], dtype=np.int64)]
        other = [None, "overflow", 1.5]
        [(json_rows, csv_lines)] = cli._row_blocks([numeric[0], other, numeric[1]], csv=True)
        assert calls == other + other
        assert json_rows == ["0.1,null,3", '-2.5e-300,"overflow",-4', f"7.0,1.5,{2**62}"]
        assert csv_lines == ["0.1,,3", "-2.5e-300,overflow,-4", f"7.0,1.5,{2**62}"]

    @pytest.mark.parametrize("column", [
        np.array([-3, -3, -2, -3, -3, -2, -2], dtype=np.int64),
        np.full(7, -42, dtype=np.int64),
        np.array([2**64 - 1, 2**64 - 1, 2**64 - 2, 2**64 - 2, 2**64 - 2, 5, 5], dtype=np.uint64),
    ])
    def test_narrow_integer_blocks_format_each_value_once(self, column, monkeypatch):
        # An integer block spanning fewer values than it has cells formats each
        # value of its span once and looks its cells up; the texts stay repr's.
        calls = []
        monkeypatch.setattr(cli, "repr", lambda v: calls.append(v) or repr(v), raising=False)
        for block_rows in (1, 2, 3):
            monkeypatch.setattr(cli, "_BLOCK_ROWS", block_rows)
            calls.clear()
            texts = [line for _, csv_lines in cli._row_blocks([column], csv=True)
                     for line in csv_lines]
            assert texts == [repr(v) for v in column.tolist()], block_rows
            blocks = [column[i:i + block_rows].tolist() for i in range(0, column.size, block_rows)]
            spans = [max(b) - min(b) + 1 for b in blocks]
            assert len(calls) == sum(min(s, len(b)) for s, b in zip(spans, blocks)), block_rows
            assert len(calls) < column.size or block_rows == 1

    def test_null_and_text_rows_match_the_rowform_writer(self, tmp_path):
        # setup-check at dim 16 overflows at dims 8 and 12: their rows hold
        # null and a note.  Both files carry the row-by-row writer's bytes.
        argv = ["setup-check", "--gain-a", "1.5", "--dim", "16"]
        json_out, csv_out = tmp_path / "setup.json", tmp_path / "setup.csv"
        assert main(argv + ["--out", str(json_out)]) == EXIT_OK
        assert main(argv + ["--format", "csv", "--out", str(csv_out)]) == EXIT_OK
        payload = read_envelope(json_out)["payload"]
        assert payload["table"]["rows"][:2] == [[8, None, "truncation-overflow at this dim"],
                                                [12, None, "truncation-overflow at this dim"]]
        canonical, csv_text = rowform_payload_texts(payload)
        assert json_out.read_text(encoding="utf-8").endswith(f',"payload":{canonical}}}\n')
        assert csv_out.read_bytes() == csv_text.encode()
        sidecar = read_envelope(Path(str(csv_out) + ".meta.json"))
        assert sidecar["checksum"] == "sha256:" + hashlib.sha256(canonical.encode()).hexdigest()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--delta-x", "5", "--dim", "16", "--shots", "5000", "--seed", "3"],
        ["distribution", "--delta-x", "10", "--dim", "32", "--grid-count", "5001"],
    ])
    def test_three_block_tables_match_the_rowform_writer(self, tmp_path, argv):
        # At the real block size both tables fill two blocks and part of a
        # third; both files, the checksum and the CSV's SHA-256 are the
        # row-by-row writer's.
        json_out, csv_out = tmp_path / "out.json", tmp_path / "out.csv"
        assert main(argv + ["--out", str(json_out)]) == EXIT_OK
        assert main(argv + ["--format", "csv", "--out", str(csv_out)]) == EXIT_OK
        envelope = read_envelope(json_out)
        assert 2 * cli._BLOCK_ROWS < len(envelope["payload"]["table"]["rows"]) < 3 * cli._BLOCK_ROWS
        canonical, csv_text = rowform_payload_texts(envelope["payload"])
        assert json_out.read_text(encoding="utf-8").endswith(f',"payload":{canonical}}}\n')
        assert envelope["checksum"] == _sha256(canonical.encode())
        assert csv_out.read_bytes() == csv_text.encode()
        sidecar = read_envelope(Path(str(csv_out) + ".meta.json"))
        assert sidecar["checksum"] == envelope["checksum"]
        assert sidecar["csv_sha256"] == _sha256(csv_text.encode())

    @pytest.mark.parametrize("command", sorted(_LARGE_PAYLOADS))
    @pytest.mark.parametrize("csv", [True, False])
    def test_writer_peak_stays_within_two_and_a_half_outputs(self, command, csv):
        # Rows are formatted, encoded and hashed in blocks, and only the
        # file's bytes are kept: the tracemalloc peak reads 1.26 (distribution)
        # to 1.76 (simulate CSV) times the bytes written.  Holding every row's
        # text, the joined text and its encoded copy read 6.7 times.
        payload = _run_payload(command, **_LARGE_PAYLOADS[command])
        tracemalloc.start()
        try:
            chunks = cli._payload_bytes(payload, csv=csv)[2]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        written = sum(map(len, chunks))
        assert peak <= 2.5 * written, (peak, written)

    def test_distribution_payload_holds_its_columns_alone(self):
        # The payload's columns are copies: no column keeps the 20,001 x 32
        # density table (5 MiB) alive through the writer.  Its eleven columns
        # take 1.7 MiB.
        tracemalloc.start()
        try:
            payload = _run_payload("distribution", **_LARGE_PAYLOADS["distribution"])
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(payload["table"]["data"]) == 11
        assert retained <= 2 * 2**20, retained

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("column", ["array", "list"])
    def test_nan_column_refused_without_a_file(self, tmp_path, monkeypatch, capsys, fmt, column):
        # A NaN in an array column (distribution's asymptote) or in a list
        # column (jump-sweep's, in the last of three blocks): exit 2, no file,
        # and files already at --out and its sidecar keep their bytes.
        out = tmp_path / f"out.{fmt}"
        files = (out, Path(str(out) + ".meta.json"))
        if column == "array":
            def asymptote_with_nan(delta_x, x_m):
                values = np.zeros(np.shape(x_m))
                values[3] = np.nan
                return values

            monkeypatch.setattr(cli, "asymptotic_p1", asymptote_with_nan)
            argv = ["distribution", "--delta-x", "2", "--dim", "16", "--grid-count", "11"]
        else:
            exact = cli.jump_probability
            monkeypatch.setattr(cli, "_BLOCK_ROWS", 2)
            monkeypatch.setattr(cli, "jump_probability", lambda state, model: (
                math.nan if model.delta_x == 5.0 else exact(state, model)))
            argv = ["jump-sweep", *(a for dx in "12345" for a in ("--delta-x", dx)), "--dim", "16"]
            for path in files:
                path.write_bytes(b"written before: " + path.name.encode())
        before = {path: path.read_bytes() for path in files if path.exists()}
        assert main(argv + ["--format", fmt, "--out", str(out)]) == EXIT_CONFIG
        assert {path: path.read_bytes() for path in files if path.exists()} == before
        assert "JSON cannot write" in capsys.readouterr().err


class TestOutOfMemory:
    @pytest.mark.parametrize("message, shown", [
        ("Unable to allocate 22.4 GiB for an array with shape (3000000000,) and data type float64",
         "Unable to allocate 22.4 GiB"),
        ("", "an allocation failed"),
    ])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_allocation_failure_is_config_error(self, tmp_path, monkeypatch, capsys, message,
                                                shown, fmt):
        # A grid too large to allocate ends in one error line and exit 2, not
        # a traceback and exit 1; no file is written.
        def no_memory(state, model, x_m):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "outcome_density_table", no_memory)
        out = tmp_path / f"dist.{fmt}"
        assert main(["distribution", "--delta-x", "1", "--grid-count", "11", "--format", fmt,
                     "--out", str(out)]) == EXIT_CONFIG
        assert list(tmp_path.iterdir()) == []
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ") and shown in err
        assert err.count("\n") == 1, err


class TestExtremeResolution:
    @pytest.mark.parametrize("argv", [
        ["jump-sweep", "--delta-x", "1e200"],
        ["jump-sweep", "--delta-x", "1e-200"],
        ["jump-sweep", "--delta-x", "1e-160"],
        ["distribution", "--delta-x", "1e200"],
        ["correlation", "--delta-x", "1e-160"],
        ["simulate", "--delta-x", "1e200", "--shots", "10", "--seed", "1"],
        ["povm-check", "--delta-x", "1e200"],
        ["setup-check", "--gain-a", "1e200"],
        ["setup-check", "--gain-a", "1e154"],
    ])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_outside_the_normal_range_is_config_error(self, tmp_path, capsys, argv, fmt):
        # dx^2 or 1/(4 dx^2) would leave the normal floats; these used to end
        # in tracebacks or in messages about grids or a zero delta_x.
        out = tmp_path / f"out.{fmt}"
        assert main([*argv, "--dim", "16", "--format", fmt, "--out", str(out)]) == EXIT_CONFIG
        assert list(tmp_path.iterdir()) == []
        assert "outside [1.49e-154, 3.35e+153]" in capsys.readouterr().err

    def test_distribution_past_the_asymptote_is_config_error(self, tmp_path, capsys):
        # (4 dx^2)^2 of the wide-kernel column overflows from dx ~ 2.9e76.
        out = tmp_path / "dist.json"
        assert main(["distribution", "--delta-x", "1e100", "--dim", "16", "--grid-count", "11",
                     "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()
        assert "overflows" in capsys.readouterr().err

    def test_rare_jump_keeps_its_digits(self, tmp_path):
        # The jump probability at dx 1e100 is 6.25e-202, not a cancelled 0.
        out = tmp_path / "sweep.json"
        assert main(["jump-sweep", "--delta-x", "1e100", "--dim", "8", "--out", str(out)]) == EXIT_OK
        (row,) = read_envelope(out)["payload"]["table"]["rows"]
        assert row[1] == pytest.approx(6.25e-202, rel=1e-13)
        assert row[3] == pytest.approx(1.0, rel=1e-13)

    @pytest.mark.parametrize("argv", [
        ["jump-sweep", "--delta-x", "1e150"],
        ["jump-sweep", "--delta-x", "1e110"],
        ["correlation", "--delta-x", "1e110"],
        ["correlation", "--delta-x", "1e110", "--shots", "100", "--seed", "1"],
    ])
    def test_underflowing_jump_density_is_config_error(self, tmp_path, capsys, argv):
        # jump-sweep --delta-x 1e150 wrote ratio 0.0: past dx ~ 9.4e101 the
        # vacuum's joint density off n = 0 is subnormal, and the integrals read 0.
        out = tmp_path / "out.json"
        assert main([*argv, "--dim", "8", "--out", str(out)]) == EXIT_CONFIG
        assert list(tmp_path.iterdir()) == []
        assert "underflow" in capsys.readouterr().err


class TestDimCaps:
    @pytest.mark.parametrize("argv", [
        ["distribution", "--delta-x", "1"],
        ["jump-sweep", "--delta-x", "1"],
        ["correlation", "--delta-x", "1"],
        ["simulate", "--delta-x", "1", "--shots", "10", "--seed", "1"],
        ["povm-check", "--delta-x", "1"],
        ["setup-check", "--gain-a", "1.5"],
    ])
    def test_dim_past_memory_is_config_error(self, tmp_path, capsys, argv):
        # The four kernel commands allocated the state first and ended in a
        # bare MemoryError traceback.
        out = tmp_path / "out.json"
        assert main([*argv, "--dim", "1000000000000", "--out", str(out)]) == EXIT_CONFIG
        assert list(tmp_path.iterdir()) == []
        assert "got --dim 1000000000000" in capsys.readouterr().err

    @pytest.mark.parametrize("command, high", [
        ("distribution", 1398), ("jump-sweep", 1398), ("correlation", 1398),
        ("simulate", 1398), ("povm-check", 700), ("setup-check", 1397),
    ])
    def test_one_cap_refuses_and_bounds_the_suggestion(self, command, high):
        # The suggestion used to be --dim * 3 / 2 whatever the command took.
        assert cli._COMMANDS[command].dims[1] == high
        for dim, suggested in ((high - 1, f"--dim {high}"), (high, "no --dim")):
            args = cli._build_parser()[0].parse_args(
                [command, "--delta-x" if command != "setup-check" else "--gain-a", "2",
                 "--dim", str(dim), "--out", "unused.json"])
            cli._check_dim(args)
            assert suggested in cli._dim_suggestion(args)
        args.dim = high + 1
        with pytest.raises(InvalidParameterError, match=re.escape(f"{high}, got --dim {high + 1}")):
            cli._check_dim(args)

    def test_setup_check_suggests_no_dim_it_refuses(self, tmp_path, capsys):
        # The kernel leaks 3.7e-6 at gain 7, dim 257.  The suggested --dim 385
        # exited 2 while setup-check stopped at 257; now each suggestion is
        # taken, and following them ends in exit 0: 385 still exits 4 (the
        # circuit's top-quarter occupation reads 1.4e-6), 577 holds the mass.
        out = tmp_path / "setup.json"
        dim, tried = 257, []
        while (code := main(["setup-check", "--gain-a", "7", "--dim", str(dim),
                             "--out", str(out)])) == EXIT_TRUNCATION:
            assert not out.exists()
            tried.append(dim)
            dim = int(re.search(r"retry with --dim (\d+)\)", capsys.readouterr().err).group(1))
            assert dim <= 1397
        assert code == EXIT_OK
        assert tried == [257, 385] and dim == 577
        assert read_envelope(out)["payload"]["report"]["triple_defect"] < 1e-12

    def test_parser_built_once_per_process(self, tmp_path, monkeypatch):
        # Each main() built the parser again, about 1 ms and 39 terminal-size calls.
        argv = ["jump-sweep", "--delta-x", "1", "--dim", "8", "--out", str(tmp_path / "j.json")]
        assert main(argv) == EXIT_OK
        built = []
        init = argparse.ArgumentParser.__init__
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            lambda self, *a, **k: built.append(a) or init(self, *a, **k))
        assert main(argv) == EXIT_OK
        assert built == []

    def test_correlation_suggests_its_largest_dim(self, tmp_path, capsys):
        # --dim 1500 needs a rule of 1502 nodes and exits 2.
        out = tmp_path / "corr.json"
        assert main(["correlation", "--delta-x", "0.02", "--dim", "1000",
                     "--out", str(out)]) == EXIT_TRUNCATION
        assert not out.exists()
        assert "retry with --dim 1398)" in capsys.readouterr().err


def _run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, cwd=str(REPO), env=env)


class TestRuntimeWithoutScipy:
    """The package runs on numpy alone; scipy is a test-only dependency."""

    def test_cli_import_loads_no_scipy(self):
        proc = _run_python(
            "import sys, baeqnd.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_every_command_runs_with_scipy_blocked(self, tmp_path):
        runs = [
            ["distribution", "--delta-x", "1", "--dim", "16", "--grid-count", "201"],
            ["jump-sweep", "--delta-x", "1", "--delta-x", "4", "--dim", "16"],
            ["correlation", "--delta-x", "2", "--dim", "16", "--shots", "200", "--seed", "1"],
            ["povm-check", "--delta-x", "1", "--dim", "8"],
            ["setup-check", "--gain-a", "1.5", "--dim", "16"],
            ["simulate", "--delta-x", "5", "--dim", "16", "--shots", "200", "--seed", "1"],
        ]
        runs = [argv + ["--out", str(tmp_path / f"{argv[0]}.json")] for argv in runs]
        proc = _run_python(
            "import json, sys\n"
            "sys.modules['scipy'] = None\n"
            "from baeqnd.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    code = main(argv)\n"
            "    if code:\n"
            "        sys.exit(f'{argv[0]} exited {code}')\n",
            json.dumps(runs),
        )
        assert proc.returncode == 0, proc.stderr
        for argv in runs:
            assert Path(argv[-1]).exists()

    def test_readme_quick_start_runs(self):
        # The python block under "Library quick start" is the documented library surface.
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Library quick start", 1)[1]
        block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
        proc = _run_python("import sys\nsys.modules['scipy'] = None\n" + block)
        assert proc.returncode == 0, proc.stderr
