"""Runs the passes of one workload in-process and records their timings.

Started by run.py in a fresh process with the thread settings of the
workload, so that the peak memory it reports belongs to the passes alone and
not to the checks.  Each pass runs the workload's CLI commands through
``baeqnd.cli.main``; the reference computation runs just before and just
after each pass, while no program thread is alive.  With --trace 1 the passes
alternate untraced and traced.  Passes are numbered, and draw their program
seeds, from --first-pass on, so that several workers can share one run.
Results go to <out-dir>/worker-<first-pass>.json and, when traced, the spans
to <out-dir>/trace.jsonl.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import reference
from workloads import WORKLOADS, pass_seeds


def _run_op(cli, op, pass_dir: Path) -> dict:
    out_path = pass_dir / op.out
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(op.command_line(str(out_path)))
        except Exception:
            # An exception main does not map to an exit code is a failed
            # operation; the checks report it and the passes go on.
            code = None
            traceback.print_exc()
    elapsed = time.perf_counter() - start
    return {"name": op.name, "exit_code": code, "seconds": elapsed, "stderr": stderr.getvalue()}


def _bytes_under(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-pass", type=int, default=0)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)

    out_dir = Path(args.out_dir)
    ops_of = WORKLOADS[args.workload]
    import baeqnd.cli as cli

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()

    seeds = pass_seeds(args.seed)
    for _ in range(args.first_pass):
        next(seeds)
    passes = []
    reference.run()
    began = time.perf_counter()
    ref_before = reference.timed()
    while True:
        index = args.first_pass + len(passes)
        traced = tracer is not None and len(passes) % 2 == 1
        seed = next(seeds)
        ops = ops_of(seed)
        pass_dir = out_dir / f"pass-{index:03d}"
        pass_dir.mkdir(parents=True)
        gc.collect()
        if traced:
            tracer.install(index)
        start = time.perf_counter()
        results = [_run_op(cli, op, pass_dir) for op in ops]
        raw = time.perf_counter() - start
        if traced:
            tracer.uninstall()
        ref_after = reference.timed()
        passes.append({
            "index": index,
            "seed": seed,
            "traced": traced,
            "raw_s": raw,
            "ref_before_s": ref_before,
            "ref_after_s": ref_after,
            "wall_s": reference.corrected(raw, ref_before, ref_after),
            "bytes_written": _bytes_under(pass_dir),
            "ops": results,
        })
        ref_before = ref_after
        elapsed = time.perf_counter() - began
        whole = tracer is None or len(passes) % 2 == 0
        if whole and elapsed + raw + ref_after > args.seconds:
            break

    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.write(out_dir / "trace.jsonl")
    record = {
        "passes": passes,
        "measured_s": time.perf_counter() - began,
        "peak_rss_mb": peak_kib / 1024.0,
    }
    with open(out_dir / f"worker-{args.first_pass}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
