"""Checks of every output of a pass against closed forms and method properties.

Nothing here imports the program or compares against a stored output: the
expected values come from closed_forms.py, from the checksum definition
(SHA-256 of the payload serialised with sorted keys and no whitespace), and
from properties the method guarantees (shot indices, photon range, CSV and
JSON carrying the same values, trusted-level defects).  ``check_op`` returns
the first mismatch found, or None.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

import closed_forms as cf

#: Deterministic integrals (Gauss-Hermite kernel, uniform grid) against the closed forms.
EXACT_REL = 1e-6
#: Columns the CLI derives from other columns by a formula.
FORMULA_REL = 1e-12
#: Sampled estimators: allowed distance from the closed form, in standard errors.
SAMPLED_SE = 6.0
#: Completeness defect of the squared kernel on the trusted levels.
POVM_DEFECT = 1e-8
#: Circuit calibration scale, calibration residual and circuit/kernel defects.
SETUP_TOL = 1e-5
#: Density-table columns against the closed forms, relative to the column's peak.
TABLE_REL = 1e-9

RECORD_COLUMNS = ["shot_index", "rng_stream_id", "x_m", "photon_n"]
SWEEP_COLUMNS = ["delta_x", "jump_exact", "jump_asymptotic", "ratio"]
POVM_COLUMNS = ["dim", "trusted_levels", "defect", "truncated_square_defect_trusted",
                "truncated_square_defect_full"]


class Mismatch(Exception):
    """An output disagrees with what the checks expect."""


def expect(condition, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def close(actual, expected, rel: float, what: str) -> None:
    ok = isinstance(actual, (int, float)) and abs(actual - expected) <= rel * abs(expected)
    expect(ok, f"{what} = {actual!r}, expected {expected!r} (relative tolerance {rel:g})")


def checksum(payload) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return "sha256:" + hashlib.sha256(canonical.encode()).hexdigest()


def _load_envelope(path: Path, command: str) -> dict:
    expect(path.is_file(), f"{path.name} was not written")
    with open(path, encoding="utf-8") as fh:
        envelope = json.load(fh)
    expect(set(envelope) == {"meta", "payload", "checksum"}, f"{path.name}: envelope keys {sorted(envelope)}")
    expect(envelope["meta"].get("command") == command, f"{path.name}: meta.command {envelope['meta'].get('command')!r}")
    expect(envelope["checksum"] == checksum(envelope["payload"]),
           f"{path.name}: checksum is not the SHA-256 of the canonical payload")
    return envelope


def _check_report(report: dict, dx: float, shots: int) -> None:
    """Exact fields against the closed forms; sampled ones within SAMPLED_SE standard errors."""
    expect(abs(report["operator_c"] - cf.OPERATOR_C) <= 1e-12, f"operator_c = {report['operator_c']!r}, expected 1/8")
    p = cf.jump_probability(dx)
    c = cf.correlation(dx)
    close(report["jump_probability"], p, EXACT_REL, "jump_probability")
    close(report["exact_c_integral"], c, EXACT_REL, "exact_c_integral")
    expect(report["shots"] == shots, f"shots = {report['shots']!r}, expected {shots}")
    se = report["standard_errors"]
    fraction = report["jump_fraction"]
    se_fraction = math.sqrt(p * (1.0 - p) / shots)
    expect(abs(fraction - p) <= SAMPLED_SE * se_fraction,
           f"jump_fraction {fraction!r} is {abs(fraction - p) / se_fraction:.1f} standard errors from {p!r}")
    close(se["jump_fraction"], math.sqrt(fraction * (1.0 - fraction) / shots), 1e-9, "standard error of jump_fraction")
    expect(se["measured_c"] > 0.0, "standard error of measured_c is not positive")
    expect(abs(report["measured_c"] - c) <= SAMPLED_SE * se["measured_c"],
           f"measured_c {report['measured_c']!r} is more than {SAMPLED_SE:g} standard errors from {c!r}")


def _check_records(rows: list, report: dict, dx: float, dim: int, shots: int) -> None:
    """Per-shot records: indices, photon range, and the summary recomputed from them."""
    expect(len(rows) == shots, f"{len(rows)} records, expected {shots}")
    index, stream, x_m, photon = (list(c) for c in zip(*rows))
    expect(index == list(range(shots)), "shot_index does not run 0..N-1")
    expect(all(type(s) is int and s >= 0 for s in stream), "rng_stream_id is not a non-negative integer")
    expect(all(a <= b for a, b in zip(stream, stream[1:])), "rng_stream_id decreases in shot order")
    expect(all(type(n) is int and 0 <= n < dim for n in photon), f"photon_n outside [0, {dim})")
    x = np.asarray(x_m, dtype=float)
    n = np.asarray(photon, dtype=float)
    expect(np.all(np.isfinite(x)), "x_m is not finite")
    close(report["jump_fraction"], float(np.count_nonzero(n)) / shots, 1e-12, "jump_fraction against the records")
    close(report["measured_c"], float(np.mean(n * (x * x - dx * dx))), 1e-9, "measured_c against the records")
    var = cf.outcome_variance(dx)
    expect(abs(x.mean()) <= SAMPLED_SE * math.sqrt(var / shots), f"mean of x_m {x.mean()!r} is not 0")
    expect(abs(x.var() - var) <= SAMPLED_SE * var * math.sqrt(2.0 / shots),
           f"variance of x_m {x.var()!r}, expected dx^2 + 1/4 = {var!r}")


def check_simulate_json(op, pass_dir: Path, result: dict) -> None:
    p = op.params
    env = _load_envelope(pass_dir / op.out, "simulate")
    expect(env["meta"].get("seed") == p["seed"], f"meta.seed {env['meta'].get('seed')!r}, expected {p['seed']}")
    payload = env["payload"]
    expect(payload["table"]["columns"] == RECORD_COLUMNS, f"columns {payload['table']['columns']!r}")
    expect(payload["records_emitted"] == p["shots"], f"records_emitted {payload['records_emitted']!r}")
    _check_report(payload["report"], p["dx"], p["shots"])
    _check_records(payload["table"]["rows"], payload["report"], p["dx"], p["dim"], p["shots"])


def check_simulate_csv(op, pass_dir: Path, result: dict) -> None:
    path = pass_dir / op.out
    sidecar_path = pass_dir / (op.out + ".meta.json")
    expect(path.is_file() and sidecar_path.is_file(), "CSV or its .meta.json sidecar was not written")
    raw = path.read_bytes()
    with open(sidecar_path, encoding="utf-8") as fh:
        sidecar = json.load(fh)
    expect(set(sidecar) == {"meta", "payload_without_table", "checksum", "csv_sha256"},
           f"sidecar keys {sorted(sidecar)}")
    expect(sidecar["csv_sha256"] == "sha256:" + hashlib.sha256(raw).hexdigest(), "csv_sha256 does not match the CSV")
    lines = list(csv.reader(raw.decode().splitlines()))
    header, body = lines[0], lines[1:]
    expect(header == RECORD_COLUMNS, f"CSV header {header!r}")
    rows = [[int(i), int(s), float(x), int(n)] for i, s, x, n in body]
    payload = dict(sidecar["payload_without_table"], table={"columns": header, "rows": rows})
    expect(sidecar["checksum"] == checksum(payload), "sidecar checksum is not the checksum of the CSV values")
    with open(pass_dir / op.params["json_twin"], encoding="utf-8") as fh:
        twin = json.load(fh)["payload"]
    expect(rows == twin["table"]["rows"], "CSV values differ from the JSON values of the same seed")
    expect(sidecar["checksum"] == checksum(twin), "CSV and JSON checksums differ for the same seed")


def check_correlation(op, pass_dir: Path, result: dict) -> None:
    p = op.params
    env = _load_envelope(pass_dir / op.out, "correlation")
    expect(env["meta"].get("seed") == p["seed"], f"meta.seed {env['meta'].get('seed')!r}, expected {p['seed']}")
    expect(set(env["payload"]) == {"report"}, f"payload keys {sorted(env['payload'])}")
    _check_report(env["payload"]["report"], p["dx"], p["shots"])


def check_povm(op, pass_dir: Path, result: dict) -> None:
    dx, dim = op.params["dx"], op.params["dim"]
    payload = _load_envelope(pass_dir / op.out, "povm-check")["payload"]
    table, report = payload["table"], payload["report"]
    expect(table["columns"] == POVM_COLUMNS, f"columns {table['columns']!r}")
    expect([r[0] for r in table["rows"]] == [dim - 16, dim - 8, dim], "audited dims")
    for d, trusted, defect, square_trusted, square_full in table["rows"]:
        expect(trusted == d - d // 4, f"dim {d}: {trusted} trusted levels, expected {d - d // 4}")
        expect(0.0 <= defect < POVM_DEFECT, f"dim {d}: completeness defect {defect!r} >= {POVM_DEFECT:g}")
        expect(0.0 <= square_trusted <= square_full,
               f"dim {d}: truncated-square defect on trusted levels exceeds the full one")
    required = 6.0 * math.sqrt(dx * dx + dim)
    close(report["required_span"], required, FORMULA_REL, "required_span")
    expect(report["grid_span"] >= report["required_span"], "grid_span below required_span")
    expect(report["max_defect"] == max(r[2] for r in table["rows"]), "max_defect is not the largest defect")


def check_setup(op, pass_dir: Path, result: dict) -> None:
    gain, dim = op.params["gain"], op.params["dim"]
    payload = _load_envelope(pass_dir / op.out, "setup-check")["payload"]
    report, table = payload["report"], payload["table"]
    dx = cf.setup_delta_x(gain)
    close(report["reflectivity"], cf.setup_reflectivity(gain), FORMULA_REL, "reflectivity")
    close(report["delta_x"], dx, FORMULA_REL, "delta_x")
    close(report["calibration_scale"], -2.0 * dx, SETUP_TOL, "calibration_scale")
    expect(report["calibration_offset"] == 0.0, "calibration_offset is not 0")
    expect(0.0 <= report["calibration_residual"] <= SETUP_TOL,
           f"calibration_residual {report['calibration_residual']!r} > {SETUP_TOL:g}")
    for name in ("vacuum", "one_photon"):
        close(report["scale_by_input"][name], -2.0 * dx, SETUP_TOL, f"scale_by_input.{name}")
        defect = report["equivalence_defect"][name]
        expect(0.0 <= defect <= SETUP_TOL, f"equivalence_defect.{name} {defect!r} > {SETUP_TOL:g}")
    expect([r[0] for r in table["rows"]] == sorted({max(8, dim // 2), (3 * dim) // 4, dim}), "swept dims")
    for d, defect, note in table["rows"]:
        if defect is None:
            expect("truncation" in note, f"dim {d}: no defect and no truncation note")
        else:
            expect(0.0 <= defect <= SETUP_TOL, f"dim {d}: vacuum defect {defect!r} > {SETUP_TOL:g}")


def check_distribution(op, pass_dir: Path, result: dict) -> None:
    p = op.params
    dx, n_max = p["dx"], p["n_max"]
    table = _load_envelope(pass_dir / op.out, "distribution")["payload"]["table"]
    columns = (["x_m", "density"] + [f"p_{n}" for n in range(n_max + 1)]
               + ["p1_asymptotic", "x_scaled", "p1_scaled", "p1_asymptotic_scaled"])
    expect(table["columns"] == columns, f"columns {table['columns']!r}")
    expect(len(table["rows"]) == p["count"], f"{len(table['rows'])} rows, expected {p['count']}")
    col = dict(zip(columns, np.asarray(table["rows"], dtype=float).T))
    x = col["x_m"]
    step = np.diff(x)
    expect(np.allclose(step, step[0], rtol=1e-9, atol=0.0) and x[0] == -x[-1], "x_m is not a symmetric uniform grid")
    expect(x[-1] >= 6.0 * math.sqrt(cf.outcome_variance(dx)), "grid does not cover 6 sigma of the outcome density")

    def table_close(name, expected):
        scale = float(np.max(np.abs(expected)))
        worst = float(np.max(np.abs(col[name] - expected)))
        expect(worst <= TABLE_REL * scale, f"{name}: largest deviation {worst:.3g} from the closed form "
               f"(tolerance {TABLE_REL:g} of its peak {scale:.3g})")

    table_close("density", cf.vacuum_density(dx, x))
    table_close("p_1", cf.p1(dx, x))
    table_close("p1_asymptotic", cf.p1_asymptotic(dx, x))
    weights = np.full(x.size, step[0])
    weights[[0, -1]] *= 0.5
    close(float(weights @ col["density"]), 1.0, EXACT_REL, "integral of the density")
    close(float(weights @ (col["density"] - col["p_0"])), cf.jump_probability(dx), 1e-5,
          "integral of density - p_0 (jump probability)")
    photon_sum = sum(col[f"p_{n}"] for n in range(n_max + 1))
    expect(np.all(photon_sum <= col["density"] * (1.0 + 1e-9)) and all(np.all(col[f"p_{n}"] >= 0.0)
           for n in range(n_max + 1)), "per-photon densities are negative or exceed the density")
    peak = cf.p1_peak(dx)
    for side in (1.0, -1.0):
        half = side * x > 0.0
        at = float(x[half][np.argmax(col["p_1"][half])])
        expect(abs(at - side * peak) <= step[0], f"p_1 peaks at {at!r}, closed form {side * peak!r}")
        expect(abs(abs(at) / (math.sqrt(2.0) * dx) - 1.0) <= 1e-3, f"p_1 peak {at!r} is not near sqrt(2) dx")
    table_close("x_scaled", x / dx)
    table_close("p1_scaled", dx**3 * col["p_1"])
    table_close("p1_asymptotic_scaled", dx**3 * col["p1_asymptotic"])


def check_jump_sweep(op, pass_dir: Path, result: dict) -> None:
    p = op.params
    path = pass_dir / op.out
    if p.get("truncation_exit_allowed") and result["exit_code"] == 4:
        expect(not path.exists(), "exit 4 (truncation overflow) but an output was written")
        return
    table = _load_envelope(path, "jump-sweep")["payload"]["table"]
    expect(table["columns"] == SWEEP_COLUMNS, f"columns {table['columns']!r}")
    expect([r[0] for r in table["rows"]] == p["dxs"], "swept delta_x values")
    for dx, exact, asymptotic, ratio in table["rows"]:
        close(exact, cf.jump_probability(dx), EXACT_REL, f"jump_exact at dx {dx}")
        close(asymptotic, 1.0 / (16.0 * dx * dx), FORMULA_REL, f"jump_asymptotic at dx {dx}")
        close(ratio, exact / asymptotic, FORMULA_REL, f"ratio at dx {dx}")


CHECKS = {
    "simulate-json": check_simulate_json,
    "simulate-csv": check_simulate_csv,
    "correlation": check_correlation,
    "povm-check": check_povm,
    "setup-check": check_setup,
    "distribution": check_distribution,
    "jump-sweep": check_jump_sweep,
}

def check_op(op, pass_dir: Path, result: dict) -> str | None:
    """First mismatch between an operation's output and its checks, or None."""
    code = result["exit_code"]
    if code != 0 and not (code == 4 and op.params.get("truncation_exit_allowed")):
        return f"exit code {code}: {result.get('stderr', '').strip()}"
    try:
        CHECKS[op.check](op, pass_dir, result)
    except Mismatch as exc:
        return str(exc)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    return None
