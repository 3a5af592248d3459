"""Command-line front end: seeded runs, CSV/JSON tables and reports.

Every command writes a result envelope whose metadata (tool version, fully
resolved configuration, seed) suffices to reproduce the payload exactly.
JSON output is a single file {meta, payload, checksum}; CSV output writes the
tabular payload to the requested path plus a ``<path>.meta.json`` sidecar
carrying the metadata, any non-tabular payload, and the checksums.  Payload
bytes are deterministic for a fixed configuration and seed; only the
timestamp in the metadata varies between runs.

A command hands its table to the writer as columns.  Each row is formatted
once: for a table of ints and floats, the repr of each cell is the token json
writes, so one text per row is both the JSON row between its brackets and the
CSV line.  setup-check's table, which holds null and text, is formatted cell by
cell (null is an empty CSV cell).  The canonical payload is the compact,
sorted JSON of the other keys with the table's text appended last.

Each command registers only the flags it reads (_COMMAND_FLAGS), so argparse
refuses any other with exit 2 before a file is opened, and meta.config holds
exactly the settings that shaped the payload.  Only distribution and
setup-check tabulate on a uniform outcome grid, so only they take
--grid-count.  The grid's span is not a setting: it follows from --delta-x
(or --gain-a) as measurement.outcome_span.  jump-sweep, correlation, simulate
and povm-check integrate with exact Gauss-Hermite rules whose node counts
follow from --dim and the input; povm-check's truncated-square rule takes
2 --dim nodes, so it audits dims up to fock.MAX_RULE_NODES // 2 = 700.

Exit codes: 0 success, 2 configuration error (also a payload value JSON
cannot write, such as NaN, refused before any file is opened), 3 numeric
precondition failure (degenerate conditioning, calibration mismatch),
4 truncation overflow (circuit occupation or measurement-kernel leak above
--dim).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .errors import (
    BaeQndError,
    DegenerateConditioningError,
    InvalidParameterError,
    SetupMismatchError,
    TruncationOverflowError,
)
from .fock import MAX_RULE_NODES, FockState, make_grid, trusted_levels
from .jumps import exact_report, jump_probability, run_experiment, summarize
from .measurement import (
    DEFAULT_N_MAX,
    MeasurementModel,
    asymptotic_p1,
    completeness_defect,
    outcome_density_table,
    outcome_span,
    truncated_square_defect,
)
from .setup_model import SetupCircuit, SetupParams, calibrate_outcome_map, equivalence_defect

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_TRUNCATION = 4

#: Command -> (help text, the flags it reads beyond --dim, --out and --format).
#: "shots" stands for --shots and --seed.
_COMMAND_FLAGS = {
    "distribution": ("tabulate outcome and per-photon densities on a grid",
                     ("delta-x", "grid-count", "n-max")),
    "jump-sweep": ("exact jump probability against the wide-kernel 1/(16 dx^2) law",
                   ("delta-x",)),
    "correlation": ("jump/outcome correlation report (exact, optionally sampled)",
                    ("delta-x", "shots")),
    "povm-check": ("completeness audit of the squared measurement kernel",
                   ("delta-x",)),
    "setup-check": ("two-mode circuit vs measurement kernel equivalence",
                    ("gain-a", "grid-count")),
    "simulate": ("seeded Monte Carlo shots plus summary report",
                 ("delta-x", "shots", "record-limit")),
}

_COMMANDS = {}


def _command(name):
    def register(fn):
        _COMMANDS[name] = fn
        return fn

    return register


def _env_threads() -> int:
    raw = os.environ.get("BAE_QND_THREADS")
    if raw is None:
        return min(4, os.cpu_count() or 1)
    try:
        value = int(raw)
    except ValueError as exc:
        raise InvalidParameterError(f"BAE_QND_THREADS must be an integer, got {raw!r}") from exc
    if value < 1:
        raise InvalidParameterError(f"BAE_QND_THREADS must be >= 1, got {value}")
    return value


def _compact_json(obj) -> str:
    # NaN and infinity are not JSON: refuse them rather than write an invalid file.
    try:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
    except ValueError as exc:
        raise BaeQndError(f"the payload holds a value JSON cannot write ({exc})") from exc


def _format_cell(value) -> str:
    if type(value) is float:
        # The shortest round-trip text, the token json writes for the value.
        return repr(value)
    # JSON null (a setup-check row that overflowed) is an empty cell; a numpy
    # scalar's str (not its repr) is its shortest text too.
    return "" if value is None else str(value)


def _finite_numbers(column) -> bool:
    """Whether every cell is a finite int or float, whose repr is its JSON token."""
    if isinstance(column, np.ndarray):
        kind = column.dtype.kind
        return kind in "iu" or (kind == "f" and bool(np.isfinite(column).all()))
    return all(type(v) is int or (type(v) is float and math.isfinite(v)) for v in column)


def _row_texts(columns) -> tuple[list, list]:
    """Each row's JSON text between its brackets, and its CSV line.

    A table of finite ints and floats is formatted once, row by row from the
    columns: repr is the token json writes, so one text is both the JSON row
    and the CSV line.  Any other table (null or text cells, or a value JSON
    refuses) takes JSON tokens from _compact_json and CSV cells from
    _format_cell, cell by cell.
    """
    values = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    if all(_finite_numbers(c) for c in columns):
        lines = list(map(",".join(["{!r}"] * len(values)).format, *values))
        return lines, lines
    rows = list(zip(*values))
    json_rows = [",".join(_compact_json(v) for v in row) for row in rows]
    return json_rows, [",".join(_format_cell(v) for v in row) for row in rows]


def _report_csv(report: dict) -> str:
    lines = ["key,value"]

    def walk(prefix, node):
        if isinstance(node, dict):
            for key, value in node.items():
                walk(f"{prefix}{key}.", value)
        else:
            lines.append(f"{prefix.rstrip('.')},{_format_cell(node)}")

    walk("", report)
    return "\n".join(lines) + "\n"


def _payload_texts(payload: dict, csv: bool) -> tuple[str, str | None]:
    """The canonical payload text, and the CSV text when csv is set.

    A command hands its table over as columns, {"columns": names, "data":
    [column, ...]}; the canonical text holds it as {"columns", "rows"}, so
    the rows are written and hashed as if json had serialised them.  Every
    other payload key sorts before "table", so the table text goes last.
    """
    table = payload.get("table")
    if table is None:
        report_csv = _report_csv(payload.get("report", payload)) if csv else None
        return _compact_json(payload), report_csv
    rest = {k: v for k, v in payload.items() if k != "table"}
    assert all(key < "table" for key in rest), sorted(rest)
    json_rows, csv_lines = _row_texts(table["data"])
    rows = ["[[", "],[".join(json_rows), "]]"] if json_rows else ["[]"]
    canonical = "".join([
        _compact_json(rest)[:-1],
        "," if rest else "",
        '"table":{"columns":',
        _compact_json(table["columns"]),
        ',"rows":',
        *rows,
        "}}",
    ])
    if not csv:
        return canonical, None
    return canonical, "\n".join([",".join(table["columns"]), *csv_lines]) + "\n"


def _write_envelope(args, payload: dict, seed) -> None:
    # The canonical payload text is hashed and written as is: one serialisation.
    canonical, csv_text = _payload_texts(payload, csv=args.format == "csv")
    canonical = canonical.encode()
    checksum = "sha256:" + hashlib.sha256(canonical).hexdigest()
    meta = {
        "tool": "bae-qnd-sim",
        "version": __version__,
        "command": args.command,
        "config": vars(args).copy(),
        "seed": seed,
        "threads": _env_threads(),
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    out = args.out
    if csv_text is None:
        # Keys sort as checksum, meta, payload, so the payload text goes last.
        head = _compact_json({"checksum": checksum, "meta": meta})[:-1]
        with open(out, "wb") as fh:
            fh.writelines([head.encode(), b',"payload":', canonical, b"}\n"])
        print(f"wrote {out}")
        return
    sidecar = {
        "meta": meta,
        "payload_without_table": {k: v for k, v in payload.items() if k != "table"},
        "checksum": checksum,
        "csv_sha256": "sha256:" + hashlib.sha256(csv_text.encode()).hexdigest(),
    }
    sidecar_text = _compact_json(sidecar) + "\n"
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(csv_text)
    with open(out + ".meta.json", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(sidecar_text)
    print(f"wrote {out} and {out}.meta.json")


def _require_delta_x(args, count=1):
    if count == 1 and len(args.delta_x) != 1:
        raise InvalidParameterError(
            f"command {args.command!r} takes exactly one --delta-x value"
        )
    for dx in args.delta_x:
        if not np.isfinite(dx) or dx <= 0:
            raise InvalidParameterError(f"--delta-x must be positive, got {dx}")
    return args.delta_x[0] if count == 1 else list(args.delta_x)


@_command("distribution")
def _cmd_distribution(args):
    delta_x = _require_delta_x(args)
    model = MeasurementModel(delta_x, args.dim)
    grid = make_grid(outcome_span(delta_x), args.grid_count)
    state = FockState.vacuum(args.dim)
    table = outcome_density_table(state, model, grid, n_max=args.n_max)
    asym = asymptotic_p1(delta_x, grid.nodes)
    columns = (
        ["x_m", "density"]
        + [f"p_{n}" for n in range(args.n_max + 1)]
        + ["p1_asymptotic", "x_scaled", "p1_scaled", "p1_asymptotic_scaled"]
    )
    p1 = table.per_photon[1] if args.n_max >= 1 else np.zeros(grid.count)
    x = grid.nodes
    cube = delta_x**3
    data = [x, table.density, *table.per_photon, asym, x / delta_x, cube * p1, cube * asym]
    return {"table": {"columns": columns, "data": data}}, None


@_command("jump-sweep")
def _cmd_jump_sweep(args):
    sweep = _require_delta_x(args, count=None)
    rows = []
    for dx in sweep:
        exact = jump_probability(FockState.vacuum(args.dim), MeasurementModel(dx, args.dim))
        asym = 1.0 / (16.0 * dx * dx)
        rows.append([float(dx), float(exact), float(asym), float(exact / asym)])
    return {
        "table": {
            "columns": ["delta_x", "jump_exact", "jump_asymptotic", "ratio"],
            "data": list(zip(*rows)),
        }
    }, None


@_command("correlation")
def _cmd_correlation(args):
    delta_x = _require_delta_x(args)
    model = MeasurementModel(delta_x, args.dim)
    state = FockState.vacuum(args.dim)
    if args.shots is None:
        report = exact_report(state, model)
        seed = None
    else:
        if args.seed is None:
            raise InvalidParameterError("--shots requires --seed (no silent default seed)")
        shots = run_experiment(state, model, args.shots, args.seed, threads=_env_threads())
        report = summarize(shots, state, model)
        seed = args.seed
    return {"report": report.to_dict()}, seed


@_command("povm-check")
def _cmd_povm_check(args):
    delta_x = _require_delta_x(args)
    if not 8 <= args.dim <= MAX_RULE_NODES // 2:
        # The truncated square integrates on a rule of 2 --dim nodes.
        raise InvalidParameterError(
            f"povm-check audits dims 8..{MAX_RULE_NODES // 2}, got --dim {args.dim}"
        )
    model = MeasurementModel(delta_x, args.dim)
    dims = sorted({d for d in (args.dim - 16, args.dim - 8, args.dim) if d >= 8})
    # Exact-kernel defect is the audit; the truncated-square pair shows that
    # what truncation breaks stays localized at the top levels.  Each makes
    # one ladder pass at --dim over an exact Gauss-Hermite rule and reads the
    # smaller dims as leading blocks.
    defects = completeness_defect(model, dims)
    squares = truncated_square_defect(model, dims)
    rows = [
        [dim, trusted_levels(dim), defect, trusted, full]
        for dim, defect, (trusted, full) in zip(dims, defects, squares)
    ]
    # The exact rules need no span.  The benchmark's povm check still reads
    # required_span and grid_span (6 sigma of every trusted level, the span
    # of the uniform grid the audits used before), so both stay until that
    # check changes.
    span = 6.0 * math.sqrt(delta_x**2 + args.dim)
    return {
        "table": {
            "columns": [
                "dim",
                "trusted_levels",
                "defect",
                "truncated_square_defect_trusted",
                "truncated_square_defect_full",
            ],
            "data": list(zip(*rows)),
        },
        "report": {
            "delta_x": delta_x,
            "required_span": span,
            "grid_span": span,
            "max_defect": max(r[2] for r in rows),
        },
    }, None


@_command("setup-check")
def _cmd_setup_check(args):
    # Refuse a bad count before the circuit is built and calibrated.
    if args.grid_count < 2:
        raise InvalidParameterError(f"--grid-count must be >= 2, got {args.grid_count}")
    gain = args.gain_a
    dims = sorted({max(8, args.dim // 2), (3 * args.dim) // 4, args.dim})
    params = SetupParams(gain, args.dim)
    circuit = SetupCircuit(params)
    calibration = calibrate_outcome_map(params, circuit=circuit)
    inputs = {"vacuum": FockState.vacuum(args.dim), "one_photon": FockState.number(args.dim, 1)}
    defects = {}
    # The report's calibration is the vacuum one; only other inputs need their own.
    scales = {"vacuum": float(calibration.scale)}
    for name, state in inputs.items():
        defects[name] = float(
            equivalence_defect(state, params, args.grid_count,
                               circuit=circuit, calibration=calibration)
        )
        if name != "vacuum":
            scales[name] = float(
                calibrate_outcome_map(params, circuit=circuit, signal_in=state).scale
            )
    rows = []
    for dim in dims:
        # Same circuit, outcomes and calibration as the vacuum defect above.
        if dim == args.dim:
            rows.append([int(dim), defects["vacuum"], ""])
            continue
        sub = SetupParams(gain, dim)
        try:
            sub_defect = float(equivalence_defect(FockState.vacuum(dim), sub, args.grid_count))
            rows.append([int(dim), sub_defect, ""])
        except TruncationOverflowError:
            rows.append([int(dim), None, "truncation-overflow at this dim"])
    return {
        "table": {"columns": ["dim", "vacuum_defect", "note"], "data": list(zip(*rows))},
        "report": {
            "gain_a": gain,
            "reflectivity": params.reflectivity,
            "delta_x": params.delta_x,
            "calibration_scale": calibration.scale,
            "calibration_offset": 0.0,
            "calibration_residual": calibration.residual,
            "scale_by_input": scales,
            "equivalence_defect": defects,
        },
    }, None


@_command("simulate")
def _cmd_simulate(args):
    delta_x = _require_delta_x(args)
    if args.shots is None or args.seed is None:
        raise InvalidParameterError("simulate requires --shots and --seed")
    if args.record_limit is not None and args.record_limit < 0:
        raise InvalidParameterError(f"--record-limit must be >= 0, got {args.record_limit}")
    model = MeasurementModel(delta_x, args.dim)
    state = FockState.vacuum(args.dim)
    shots = run_experiment(state, model, args.shots, args.seed, threads=_env_threads())
    report = summarize(shots, state, model)
    emit = slice(args.record_limit)
    data = [c[emit] for c in (shots.shot_index, shots.rng_stream_id, shots.x_m, shots.photon_n)]
    return {
        "table": {"columns": ["shot_index", "rng_stream_id", "x_m", "photon_n"], "data": data},
        "report": report.to_dict(),
        "records_emitted": data[0].size,
    }, args.seed


def _build_parser():
    """The root parser and its subparsers by command name."""
    parser = argparse.ArgumentParser(
        prog="bae-qnd-sim",
        description=(
            "Simulator of backaction-evasion quadrature measurements: outcome "
            "distributions, quantum-jump statistics, and the two-mode optical "
            "setup that realizes the measurement."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags) in _COMMAND_FLAGS.items():
        p = sub.add_parser(name, help=help_text)
        if "delta-x" in flags:
            p.add_argument("--delta-x", type=float, action="append", required=True,
                           help="measurement resolution (repeatable for jump-sweep)")
        if "gain-a" in flags:
            p.add_argument("--gain-a", type=float, required=True, help="amplifier gain")
        p.add_argument("--dim", type=int, default=32, help="Fock truncation dimension")
        if "grid-count" in flags:
            p.add_argument("--grid-count", type=int, default=2001, help="outcome grid nodes")
        if "n-max" in flags:
            p.add_argument("--n-max", type=int, default=DEFAULT_N_MAX,
                           help="highest tabulated photon number")
        if "shots" in flags:
            p.add_argument("--shots", type=int, default=None, help="Monte Carlo shots")
            p.add_argument("--seed", type=int, default=None,
                           help="random seed (required for shots)")
        if "record-limit" in flags:
            p.add_argument("--record-limit", type=int, default=None,
                           help="emit at most this many per-shot records")
        p.add_argument("--out", required=True, help="output file path")
        p.add_argument("--format", choices=("csv", "json"), default="json",
                       help="output format (default json)")
    return parser, sub.choices


def main(argv=None) -> int:
    parser, commands = _build_parser()
    try:
        args, unread = parser.parse_known_args(argv)
        if unread:
            # The command's own usage shows the flags it does read.
            commands[args.command].error(f"unrecognized arguments: {' '.join(unread)}")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload, seed = _COMMANDS[args.command](args)
        _write_envelope(args, payload, seed)
    except TruncationOverflowError as exc:
        print(f"error: {exc} (suggestion: retry with --dim {args.dim + args.dim // 2})",
              file=sys.stderr)
        return EXIT_TRUNCATION
    except (DegenerateConditioningError, SetupMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (InvalidParameterError, BaeQndError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
