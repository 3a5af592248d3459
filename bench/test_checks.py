"""The benchmark's checks accept real outputs and reject corrupted ones.

Run from the root of a checkout:  python3 -m pytest bench/test_checks.py

The program is run once per operation, at smaller sizes than the workloads;
each corruption then changes one field of a copy of the outputs, re-stamps the
checksums where the field is covered by one, and expects the named check to
report it.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
from workloads import SMALL_DX_FAULT, Op

ROOT = Path(__file__).resolve().parent.parent
SEED = 4242

OPS = {
    "simulate-json": Op("simulate-json", "simulate-json",
                        ("simulate", "--delta-x", "5", "--dim", "32", "--shots", "4000", "--seed", str(SEED)),
                        "records.json", {"dx": 5.0, "dim": 32, "shots": 4000, "seed": SEED}),
    "simulate-csv": Op("simulate-csv", "simulate-csv",
                       ("simulate", "--delta-x", "5", "--dim", "32", "--shots", "4000", "--seed", str(SEED),
                        "--format", "csv"),
                       "records.csv", {"dx": 5.0, "dim": 32, "shots": 4000, "seed": SEED, "json_twin": "records.json"}),
    "correlation": Op("correlation", "correlation",
                      ("correlation", "--delta-x", "0.2", "--dim", "64", "--shots", "4000", "--seed", str(SEED)),
                      "correlation.json", {"dx": 0.2, "dim": 64, "shots": 4000, "seed": SEED}),
    "povm-check": Op("povm-check", "povm-check", ("povm-check", "--delta-x", "1", "--dim", "32"), "povm.json",
                     {"dx": 1.0, "dim": 32}),
    "setup-check": Op("setup-check", "setup-check", ("setup-check", "--gain-a", "1.5", "--dim", "48"), "setup.json",
                      {"gain": 1.5, "dim": 48}),
    "distribution": Op("distribution", "distribution",
                       ("distribution", "--delta-x", "10", "--dim", "32", "--grid-count", "4001"),
                       "distribution.json", {"dx": 10.0, "dim": 32, "count": 4001, "n_max": 4}),
    "jump-sweep": Op("jump-sweep", "jump-sweep", ("jump-sweep", "--delta-x", "0.5", "--delta-x", "5", "--dim", "32"),
                     "sweep.json", {"dxs": [0.5, 5.0], "dim": 32}),
    "jump-sweep-small-dx": Op("jump-sweep-small-dx", "jump-sweep", ("jump-sweep", "--delta-x", "0.1", "--dim", "32"),
                              "sweep-small.json", {"dxs": [0.1], "dim": 32, "truncation_exit_allowed": True},
                              known_fault=SMALL_DX_FAULT),
}


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    """Real outputs of every operation, and each operation's exit code."""
    out = tmp_path_factory.mktemp("pass")
    env = dict(os.environ, BAE_QND_THREADS="1", OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    results = {}
    for name, op in OPS.items():
        done = subprocess.run([sys.executable, "-m", "baeqnd.cli", *op.command_line(str(out / op.out))],
                              env=env, capture_output=True, text=True, timeout=120)
        results[name] = {"name": name, "exit_code": done.returncode, "stderr": done.stderr}
    return out, results


@pytest.fixture
def outputs(produced, tmp_path):
    """A private copy of the outputs that a test may corrupt."""
    source, results = produced
    target = tmp_path / "pass"
    shutil.copytree(source, target)
    return target, copy.deepcopy(results)


def _edit_envelope(path: Path, mutate) -> None:
    envelope = json.loads(path.read_text())
    mutate(envelope["payload"])
    envelope["checksum"] = checks.checksum(envelope["payload"])
    path.write_text(json.dumps(envelope))


def _scale_unjumped_x(payload):
    for row in payload["table"]["rows"]:
        if row[3] == 0:
            row[2] *= 1.2


def _shift_fraction(payload):
    report = payload["report"]
    report["jump_fraction"] += 10.0 * report["standard_errors"]["jump_fraction"] + 0.01


def _shift_measured_c(payload):
    report = payload["report"]
    report["measured_c"] += 10.0 * report["standard_errors"]["measured_c"]


def _set(path, value):
    def mutate(payload):
        node = payload
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value(node[path[-1]]) if callable(value) else value
    return mutate


def _table_cell(row, column, factor):
    def mutate(payload):
        payload["table"]["rows"][row][column] *= factor
    return mutate


ENVELOPE_CORRUPTIONS = [
    ("simulate-json", _set(("report", "jump_probability"), lambda v: v * 1.001), "jump_probability"),
    ("simulate-json", _set(("report", "exact_c_integral"), lambda v: v * 1.001), "exact_c_integral"),
    ("simulate-json", _set(("report", "operator_c"), 0.126), "operator_c"),
    ("simulate-json", _shift_fraction, "standard errors from"),
    ("simulate-json", _shift_measured_c, "measured_c"),
    ("simulate-json", _table_cell(3, 0, 2), "shot_index"),
    ("simulate-json", _set(("table", "rows", 5, 3), 32), "photon_n"),
    ("simulate-json", _scale_unjumped_x, "variance of x_m"),
    ("simulate-json", _set(("records_emitted",), 3999), "records_emitted"),
    ("correlation", _set(("report", "jump_probability"), lambda v: v * 0.99), "jump_probability"),
    ("correlation", _shift_fraction, "standard errors from"),
    ("correlation", _shift_measured_c, "measured_c"),
    ("povm-check", _set(("table", "rows", 1, 2), 2e-8), "completeness defect"),
    ("povm-check", _set(("table", "rows", 0, 1), 8), "trusted levels"),
    ("povm-check", _set(("report", "required_span"), lambda v: v * 1.01), "required_span"),
    ("setup-check", _set(("report", "calibration_scale"), lambda v: v * 1.001), "calibration_scale"),
    ("setup-check", _set(("report", "reflectivity"), 0.5), "reflectivity"),
    ("setup-check", _set(("report", "calibration_residual"), 1e-3), "calibration_residual"),
    ("setup-check", _set(("report", "equivalence_defect", "one_photon"), 1e-3), "equivalence_defect"),
    ("setup-check", _set(("table", "rows", 1, 1), 1e-3), "vacuum defect"),
    ("distribution", _table_cell(2000, 1, 1.0001), "density"),
    ("distribution", _table_cell(2500, 3, 1.0001), "p_1"),
    ("distribution", _table_cell(2500, 9, 1.0001), "p1_scaled"),
    ("distribution", _table_cell(2500, 7, 1.0001), "p1_asymptotic"),
    ("jump-sweep", _table_cell(0, 1, 0.999), "jump_exact"),
    ("jump-sweep", _table_cell(1, 3, 1.001), "ratio"),
]


def test_real_outputs_pass(outputs):
    pass_dir, results = outputs
    for name, op in OPS.items():
        problem = checks.check_op(op, pass_dir, results[name])
        if op.known_fault is None:
            assert problem is None, f"{name}: {problem}"


@pytest.mark.parametrize("name,mutate,expected", ENVELOPE_CORRUPTIONS,
                         ids=[f"{c[0]}-{c[2]}" for c in ENVELOPE_CORRUPTIONS])
def test_corrupted_envelope_is_rejected(outputs, name, mutate, expected):
    pass_dir, results = outputs
    op = OPS[name]
    _edit_envelope(pass_dir / op.out, mutate)
    problem = checks.check_op(op, pass_dir, results[name])
    assert problem is not None and expected in problem, problem


def test_stale_checksum_is_rejected(outputs):
    pass_dir, results = outputs
    path = pass_dir / OPS["correlation"].out
    envelope = json.loads(path.read_text())
    envelope["payload"]["report"]["measured_covariance"] += 1e-9
    path.write_text(json.dumps(envelope))
    problem = checks.check_op(OPS["correlation"], pass_dir, results["correlation"])
    assert problem is not None and "checksum" in problem


def _rewrite_csv(pass_dir: Path, restamp_checksum: bool) -> None:
    op = OPS["simulate-csv"]
    path = pass_dir / op.out
    rows = list(csv.reader(path.read_text().splitlines()))
    rows[7][2] = repr(float(rows[7][2]) * 1.5)
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    path.write_text(buffer.getvalue())
    sidecar_path = pass_dir / (op.out + ".meta.json")
    sidecar = json.loads(sidecar_path.read_text())
    sidecar["csv_sha256"] = "sha256:" + hashlib.sha256(buffer.getvalue().encode()).hexdigest()
    if restamp_checksum:
        body = [[int(i), int(s), float(x), int(n)] for i, s, x, n in rows[1:]]
        payload = dict(sidecar["payload_without_table"], table={"columns": rows[0], "rows": body})
        sidecar["checksum"] = checks.checksum(payload)
    sidecar_path.write_text(json.dumps(sidecar))


def test_csv_checks_reject_changed_values(outputs):
    pass_dir, results = outputs
    op = OPS["simulate-csv"]
    _rewrite_csv(pass_dir, restamp_checksum=False)
    assert "checksum of the CSV values" in checks.check_op(op, pass_dir, results[op.name])
    _rewrite_csv(pass_dir, restamp_checksum=True)
    assert "differ from the JSON" in checks.check_op(op, pass_dir, results[op.name])
    (pass_dir / op.out).write_text("shot_index\n")
    assert "csv_sha256" in checks.check_op(op, pass_dir, results[op.name])


def test_nonzero_exit_is_rejected(outputs):
    pass_dir, results = outputs
    result = dict(results["povm-check"], exit_code=3, stderr="error: grid too narrow")
    assert "exit code 3" in checks.check_op(OPS["povm-check"], pass_dir, result)


def test_small_dx_passes_only_on_closed_form_or_truncation_exit(outputs):
    pass_dir, results = outputs
    op = OPS["jump-sweep-small-dx"]
    path = pass_dir / op.out
    if results[op.name]["exit_code"] == 0:
        envelope = json.loads(path.read_text())
        reported = envelope["payload"]["table"]["rows"][0][1]
        if abs(reported / checks.cf.jump_probability(0.1) - 1.0) > checks.EXACT_REL:
            assert "jump_exact at dx 0.1" in checks.check_op(op, pass_dir, results[op.name])

        def closed_form(payload):
            row = payload["table"]["rows"][0]
            row[1] = checks.cf.jump_probability(0.1)
            row[3] = row[1] / row[2]

        _edit_envelope(path, closed_form)
        assert checks.check_op(op, pass_dir, results[op.name]) is None
    truncated = dict(results[op.name], exit_code=4)
    assert "output was written" in checks.check_op(op, pass_dir, truncated)
    path.unlink()
    assert checks.check_op(op, pass_dir, truncated) is None
    assert checks.check_op(OPS["jump-sweep"], pass_dir, dict(results["jump-sweep"], exit_code=4)) is not None
