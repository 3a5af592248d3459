"""Command-line front end: seeded runs, CSV/JSON tables and reports.

Every command writes a result envelope whose metadata (tool version, fully
resolved configuration, seed) suffices to reproduce the payload exactly.
JSON output is a single file {meta, payload, checksum}; CSV output writes the
tabular payload to the requested path plus a ``<path>.meta.json`` sidecar
carrying the metadata, any non-tabular payload, and the checksums.  Payload
bytes are deterministic for a fixed configuration and seed; only the
timestamp in the metadata varies between runs.

A command hands its table to the writer as columns, and each column picks
its formatter once.  In a column of finite ints and floats the repr of each
cell is the token json writes, so one text serves both the JSON row and the
CSV line; a column that holds null or text (setup-check's) takes json's token
for the JSON row and an empty cell for null, the bare text otherwise, for the
CSV line.  The rows are formatted in blocks of _BLOCK_ROWS: a block's cells
are made lazily, column by column, and joined once per row, and its text is
encoded once and fed to the canonical SHA-256 (in CSV mode to the CSV one
too).  Only the encoded bytes of the file being written are kept, and they
are written at once after the last block, so no file is opened before every
cell is formatted and the writer holds those bytes and one block's texts.  The
canonical payload is the compact, sorted JSON of the other keys with the
table's text appended last; its bytes are those json writes for the rows.

Each command registers once (@_command: help, the flags it reads, --dim
range), so argparse refuses any other flag with exit 2 before a file is
opened, and meta.config holds exactly the settings that shaped the payload.
A command returns its payload alone, and the writer takes meta.seed from
--seed.  Only simulate and correlation take --seed, and only to draw shots:
simulate requires both --shots and --seed, and correlation refuses either
one without the other with exit 2, so meta.seed is set exactly when shots
were drawn.

Only distribution tabulates on uniform outcomes, np.linspace(-span, span,
--grid-count) with span = measurement.outcome_span(--delta-x), so only it
takes --grid-count; it refuses a --grid-count below 2 and an --n-max outside
0..--dim - 1 with exit 2 before the kernel runs.  setup-check compares on
fixed outcome sets, and jump-sweep, correlation, simulate and povm-check
integrate with exact Gauss-Hermite rules whose node counts follow from --dim
and the input; povm-check's truncated-square rule takes 2 --dim nodes, so it
audits dims up to fock.MAX_RULE_NODES // 2 = 700.

Each command takes --dim within its registered range: up to 1,398 where
the vacuum's outcome rule of --dim + 2 nodes bounds it, 8..700 for
povm-check, and up to 1,397 for setup-check, whose one-photon input's
outcome rule has --dim + 3 nodes (the circuit's own raw rules have --dim + 1
and --dim + 2).  A --dim outside is refused with exit 2 before any work, and
the exit-4 suggestion of a larger --dim never passes the range's top: at the
top it says that no --dim the command takes holds the mass.

setup-check builds one SetupCircuit per audited dim.  The circuit computes
its vacuum calibration once, and the report and every equivalence defect on
that circuit read it; only the one-photon scale takes a calibration of its own.
Its report's triple_defect compares the circuit's Gaussian triple with the
kernel's (setup_model.triple_defect), with no outcome sampled.

Exit codes: 0 success, 2 configuration error (also a payload value JSON
cannot write, such as NaN, refused before any file is opened, and an
allocation that fails, such as a --grid-count too large to hold), 3 numeric
precondition failure (degenerate conditioning, calibration mismatch, and a
setup-check whose kernel density passes the equivalence floor at no outcome),
4 truncation overflow (circuit occupation or measurement-kernel leak above
--dim).

The parser is built once per process and reused by every main() call.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
from collections import namedtuple
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .errors import (
    BaeQndError,
    DegenerateConditioningError,
    InvalidParameterError,
    OutOfRangeError,
    SetupMismatchError,
    TruncationOverflowError,
)
from .fock import MAX_RULE_NODES, FockState, _integer, trusted_levels
from .jumps import exact_report, jump_probability, run_experiment, summarize
from .measurement import (
    MeasurementModel,
    asymptotic_p1,
    completeness_defect,
    outcome_density_table,
    outcome_span,
    truncated_square_defect,
)
from .setup_model import SetupCircuit, calibrate_outcome_map, equivalence_defect, triple_defect

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_TRUNCATION = 4

#: Highest photon number distribution tabulates by default; for vacuum-like
#: inputs at dx >= 1 only the lowest few photon numbers carry any weight.
DEFAULT_N_MAX = 4

#: Table rows formatted, encoded and hashed together by the envelope writer.
_BLOCK_ROWS = 2048

#: Flag -> its add_argument keywords, in usage order.  Every command takes
#: --dim, --out and --format; the others only where it registers them.
_FLAGS = {
    "delta-x": dict(type=float, action="append", required=True,
                    help="measurement resolution (repeatable for jump-sweep)"),
    "gain-a": dict(type=float, required=True, help="amplifier gain"),
    "dim": dict(type=int, default=32, help="Fock truncation dimension"),
    "grid-count": dict(type=int, default=2001, help="outcome grid nodes"),
    "n-max": dict(type=int, default=DEFAULT_N_MAX, help="highest tabulated photon number"),
    "shots": dict(type=int, default=None, help="Monte Carlo shots"),
    "seed": dict(type=int, default=None, help="random seed (required for shots)"),
    "record-limit": dict(type=int, default=None, help="emit at most this many per-shot records"),
    "out": dict(required=True, help="output file path"),
    "format": dict(choices=("csv", "json"), default="json", help="output format (default json)"),
}
_COMMON_FLAGS = ("dim", "out", "format")

#: The --dim range where the vacuum's outcome rule of --dim + 2 nodes fits MAX_RULE_NODES.
_RULE_DIMS = (2, MAX_RULE_NODES - 2, "its outcome rule of --dim + 2 nodes must stay within "
              f"the {MAX_RULE_NODES}-node limit of double precision")

#: Command name -> (function, help, flags read beyond _COMMON_FLAGS, --dim range).
_COMMANDS = {}
_Command = namedtuple("_Command", "run help flags dims")


def _command(name, help, flags, dims=_RULE_DIMS):
    def register(fn):
        _COMMANDS[name] = _Command(fn, help, flags, dims)
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
    return _integer(value, "BAE_QND_THREADS", 1)


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


def _number_texts(block):
    """The repr of each cell of a block of finite ints and floats, lazily.

    An integer array whose values span fewer integers than it has cells
    (rng_stream_id, photon_n) formats each integer of its span once, and its
    cells look their texts up.  Their offsets from the lowest value are taken
    modulo 2**64, exact below the span whatever the integer dtype.
    """
    if isinstance(block, np.ndarray):
        if block.dtype.kind in "iu" and block.size:
            low = block.min()
            span = int(block.max()) - int(low) + 1
            if span < block.size:
                texts = [repr(value) for value in range(int(low), int(low) + span)]
                offsets = np.subtract(block, low, dtype=np.uint64, casting="unsafe")
                return map(texts.__getitem__, offsets.tolist())
        block = block.tolist()
    return map(repr, block)


def _row_blocks(columns, csv: bool):
    """Each block of _BLOCK_ROWS rows: its JSON texts between brackets, and its CSV lines.

    Each column picks its formatter once, over the whole column.  A column of
    finite ints and floats takes repr, the token json writes (_number_texts),
    so its cells serve the JSON row and the CSV line alike; any other column
    takes JSON tokens from _compact_json and CSV cells from _format_cell.  The
    CSV lines are None unless csv is set.  Only one block's cells are made at
    a time.
    """
    numeric = [_finite_numbers(c) for c in columns]

    def rows(values, cell):
        cells = [_number_texts(v) if n else map(cell, v) for n, v in zip(numeric, values)]
        return list(map(",".join, zip(*cells)))

    for start in range(0, len(columns[0]) if columns else 0, _BLOCK_ROWS):
        values = [c[start:start + _BLOCK_ROWS] for c in columns]
        values = [v if n or not isinstance(v, np.ndarray) else v.tolist()
                  for n, v in zip(numeric, values)]
        json_rows = rows(values, _compact_json)
        csv_lines = None
        if csv:
            csv_lines = json_rows if all(numeric) else rows(values, _format_cell)
        # Only the block's row texts are held while the writer encodes them.
        del values
        yield json_rows, csv_lines


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


def _payload_bytes(payload: dict, csv: bool) -> tuple[str, str | None, list]:
    """The payload's checksum, the CSV text's when csv is set, and the file's bytes.

    The bytes are the canonical payload text's, or the CSV text's when csv is
    set; only they are kept.  A command hands its table over as columns,
    {"columns": names, "data": [column, ...]}; the canonical text holds it as
    {"columns", "rows"}, so the rows are written and hashed as if json had
    serialised them.  Every other payload key sorts before "table", so the
    table text goes last.  Each text is encoded once, block by block, and fed
    to its hash.
    """
    canonical, csv_hash, kept = hashlib.sha256(), hashlib.sha256(), []

    def feed(json_text, csv_text=None):
        data = json_text.encode()
        canonical.update(data)
        if csv:
            data = csv_text.encode()
            csv_hash.update(data)
        kept.append(data)

    table = payload.get("table")
    if table is None:
        feed(_compact_json(payload), _report_csv(payload.get("report", payload)) if csv else None)
    else:
        rest = {k: v for k, v in payload.items() if k != "table"}
        assert all(key < "table" for key in rest), sorted(rest)
        head = "".join([_compact_json(rest)[:-1], "," if rest else "", '"table":{"columns":',
                        _compact_json(table["columns"]), ',"rows":'])
        feed(head, ",".join(table["columns"]) + "\n")
        opening = "[["
        for json_rows, csv_lines in _row_blocks(table["data"], csv):
            feed(opening + "],[".join(json_rows), "\n".join(csv_lines) + "\n" if csv else None)
            opening = "],["
        feed("[]}}" if opening == "[[" else "]]}}", "")
    return ("sha256:" + canonical.hexdigest(),
            "sha256:" + csv_hash.hexdigest() if csv else None, kept)


def _write_envelope(args, payload: dict) -> None:
    # Every cell is formatted and hashed before a file is opened.
    checksum, csv_sha256, chunks = _payload_bytes(payload, csv=args.format == "csv")
    meta = {
        "tool": "bae-qnd-sim",
        "version": __version__,
        "command": args.command,
        "config": vars(args).copy(),
        # Set exactly where shots were drawn: no command takes --seed without them.
        "seed": getattr(args, "seed", None),
        "threads": _env_threads(),
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    out = args.out
    if csv_sha256 is None:
        # Keys sort as checksum, meta, payload, so the payload text goes last.
        head = _compact_json({"checksum": checksum, "meta": meta})[:-1]
        with open(out, "wb") as fh:
            fh.writelines([head.encode(), b',"payload":', *chunks, b"}\n"])
        print(f"wrote {out}")
        return
    sidecar = {
        "meta": meta,
        "payload_without_table": {k: v for k, v in payload.items() if k != "table"},
        "checksum": checksum,
        "csv_sha256": csv_sha256,
    }
    sidecar_text = _compact_json(sidecar) + "\n"
    with open(out, "wb") as fh:
        fh.writelines(chunks)
    with open(out + ".meta.json", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(sidecar_text)
    print(f"wrote {out} and {out}.meta.json")


def _require_delta_x(args):
    if len(args.delta_x) != 1:
        raise InvalidParameterError(f"command {args.command!r} takes exactly one --delta-x value")
    return args.delta_x[0]


@_command("distribution", "tabulate outcome and per-photon densities on a grid",
          ("delta-x", "grid-count", "n-max"))
def _cmd_distribution(args):
    delta_x = _require_delta_x(args)
    model = MeasurementModel(delta_x, args.dim)
    _integer(args.grid_count, "grid count", 2)
    _integer(args.n_max, "n_max", 0, args.dim - 1, OutOfRangeError)
    span = outcome_span(delta_x)
    x = np.linspace(-span, span, args.grid_count)
    table = outcome_density_table(FockState.vacuum(args.dim), model, x)
    asym = asymptotic_p1(delta_x, x)
    columns = (
        ["x_m", "density"]
        + [f"p_{n}" for n in range(args.n_max + 1)]
        + ["p1_asymptotic", "x_scaled", "p1_scaled", "p1_asymptotic_scaled"]
    )
    # Level 1 is in every table (dim >= 2), whatever --n-max tabulates.
    p1 = table[:, 1]
    cube = delta_x**3
    # Copied out, so that no column keeps the --dim-wide table alive through the writer.
    per_photon = table[:, : args.n_max + 1].T.copy()
    data = [x, table.sum(axis=1), *per_photon, asym, x / delta_x, cube * p1, cube * asym]
    return {"table": {"columns": columns, "data": data}}


@_command("jump-sweep", "exact jump probability against the wide-kernel 1/(16 dx^2) law",
          ("delta-x",))
def _cmd_jump_sweep(args):
    # Every --delta-x is checked, by its model, before the first integral.
    models = [MeasurementModel(dx, args.dim) for dx in args.delta_x]
    rows = []
    for dx, model in zip(args.delta_x, models):
        exact = jump_probability(FockState.vacuum(args.dim), model)
        asym = 1.0 / (16.0 * dx * dx)
        rows.append([float(dx), float(exact), float(asym), float(exact / asym)])
    return {
        "table": {
            "columns": ["delta_x", "jump_exact", "jump_asymptotic", "ratio"],
            "data": list(zip(*rows)),
        }
    }


def _sampled(args, model):
    """The vacuum's seeded shots at --shots and --seed, and their correlation report."""
    state = FockState.vacuum(args.dim)
    shots = run_experiment(state, model, args.shots, args.seed, threads=_env_threads())
    return shots, summarize(shots, state, model)


@_command("correlation", "jump/outcome correlation report (exact, optionally sampled)",
          ("delta-x", "shots", "seed"))
def _cmd_correlation(args):
    model = MeasurementModel(_require_delta_x(args), args.dim)
    if args.shots is None:
        if args.seed is not None:
            raise InvalidParameterError("--seed requires --shots (the seed shapes only sampled shots)")
        report = exact_report(FockState.vacuum(args.dim), model)
    else:
        if args.seed is None:
            raise InvalidParameterError("--shots requires --seed (no silent default seed)")
        report = _sampled(args, model)[1]
    return {"report": report.to_dict()}


@_command("povm-check", "completeness audit of the squared measurement kernel",
          ("delta-x",), dims=(8, MAX_RULE_NODES // 2, "the truncated square's rule of 2 --dim "
                             f"nodes must stay within the {MAX_RULE_NODES}-node limit"))
def _cmd_povm_check(args):
    delta_x = _require_delta_x(args)
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
    }


@_command("setup-check", "two-mode circuit vs measurement kernel equivalence", ("gain-a",),
          dims=(2, MAX_RULE_NODES - 3, "the one-photon input's outcome rule of --dim + 3 nodes "
                f"must stay within the {MAX_RULE_NODES}-node limit of double precision"))
def _cmd_setup_check(args):
    gain = args.gain_a
    dims = sorted({min(max(8, args.dim // 2), args.dim), max(2, 3 * args.dim // 4), args.dim})
    circuit = SetupCircuit(gain, args.dim)
    inputs = {"vacuum": FockState.vacuum(args.dim), "one_photon": FockState.number(args.dim, 1)}
    defects = {}
    # The report's calibration is the circuit's vacuum one; only other inputs need their own.
    scales = {"vacuum": float(circuit.calibration.scale)}
    for name, state in inputs.items():
        defects[name] = float(equivalence_defect(state, circuit))
        if name != "vacuum":
            scales[name] = float(calibrate_outcome_map(circuit, state).scale)
    rows = []
    for dim in dims:
        # Same circuit, outcomes and calibration as the vacuum defect above.
        if dim == args.dim:
            rows.append([int(dim), defects["vacuum"], ""])
            continue
        try:
            sub_defect = float(equivalence_defect(FockState.vacuum(dim), SetupCircuit(gain, dim)))
            rows.append([int(dim), sub_defect, ""])
        except TruncationOverflowError:
            rows.append([int(dim), None, "truncation-overflow at this dim"])
    return {
        "table": {"columns": ["dim", "vacuum_defect", "note"], "data": list(zip(*rows))},
        "report": {
            "gain_a": gain,
            "reflectivity": circuit.reflectivity,
            "delta_x": circuit.delta_x,
            "calibration_scale": circuit.calibration.scale,
            "calibration_offset": 0.0,
            "calibration_residual": circuit.calibration.residual,
            "scale_by_input": scales,
            "equivalence_defect": defects,
            "triple_defect": triple_defect(circuit),
        },
    }


@_command("simulate", "seeded Monte Carlo shots plus summary report",
          ("delta-x", "shots", "seed", "record-limit"))
def _cmd_simulate(args):
    delta_x = _require_delta_x(args)
    if args.shots is None or args.seed is None:
        raise InvalidParameterError("simulate requires --shots and --seed")
    if args.record_limit is not None:
        _integer(args.record_limit, "--record-limit", 0)
    shots, report = _sampled(args, MeasurementModel(delta_x, args.dim))
    emit = slice(args.record_limit)
    data = [c[emit] for c in (shots.shot_index, shots.rng_stream_id, shots.x_m, shots.photon_n)]
    return {
        "table": {"columns": ["shot_index", "rng_stream_id", "x_m", "photon_n"], "data": data},
        "report": report.to_dict(),
        "records_emitted": data[0].size,
    }


@functools.cache
def _build_parser():
    """The root parser and its subparsers by command name, built once per process."""
    parser = argparse.ArgumentParser(
        prog="bae-qnd-sim",
        description=(
            "Simulator of backaction-evasion quadrature measurements: outcome "
            "distributions, quantum-jump statistics, and the two-mode optical "
            "setup that realizes the measurement."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag, keywords in _FLAGS.items():
            if flag in command.flags or flag in _COMMON_FLAGS:
                p.add_argument(f"--{flag}", **keywords)
    return parser, sub.choices


def _check_dim(args) -> None:
    low, high, why = _COMMANDS[args.command].dims
    if not low <= args.dim <= high:
        reason = f": {why.format(dim=args.dim, last=args.dim - 1)}" if args.dim > high else ""
        raise InvalidParameterError(
            f"{args.command} takes dims {low}..{high}, got --dim {args.dim}{reason}"
        )


def _dim_suggestion(args) -> str:
    """Half as many levels again, up to the command's largest --dim."""
    high = _COMMANDS[args.command].dims[1]
    larger = min(args.dim + args.dim // 2, high)
    if larger > args.dim:
        return f"suggestion: retry with --dim {larger}"
    return f"no --dim that {args.command} takes, {high} at most, holds the mass"


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
        _check_dim(args)
        _write_envelope(args, _COMMANDS[args.command].run(args))
    except TruncationOverflowError as exc:
        print(f"error: {exc} ({_dim_suggestion(args)})", file=sys.stderr)
        return EXIT_TRUNCATION
    except (DegenerateConditioningError, SetupMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (BaeQndError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        # numpy names the allocation it could not make; a bare MemoryError names none.
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
