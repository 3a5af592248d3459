"""Benchmark of the baeqnd CLI: one workload, one seed, one result line.

    python3 bench/run.py --workload audit --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ./src.  With
--trace 0 the last line of standard output is a JSON object with the
end-to-end metrics (wall_s, setup_s, peak_rss_mb); with --trace 1 it holds
the per-layer metrics of a traced run.  Outputs, the run record and the spans
go to .bench_out/<workload>/.  See bench/README.md.
"""

from __future__ import annotations

import os

# Every workload runs BLAS and OpenMP on one thread; set before numpy loads.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
from workloads import PROGRAM_THREADS, WORKLOADS  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
#: Fresh interpreter starts per run whose median is setup_s; one more start
#: before them fills the byte-code and page caches.
SETUP_STARTS = 5
SETUP_COMMAND = "import time, baeqnd.cli; print(repr(time.perf_counter()))"
#: Worker processes per untraced run.  One process's speed stays within a few
#: percent from pass to pass but differed by up to 13 % between processes
#: started seconds apart, so a run spreads its passes over several.
WORKERS = 3
WORKER_TIMEOUT_S = 45


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["BAE_QND_THREADS"] = str(PROGRAM_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    return env


def _start_to_ready(env: dict) -> float:
    """Seconds from spawning a fresh interpreter until it has imported baeqnd.cli.

    The child reports the monotonic clock (shared by all processes) once the
    import is done, so the interpreter's shutdown is not counted.
    """
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", SETUP_COMMAND], env=env, check=True, timeout=60,
                          capture_output=True, text=True)
    return float(done.stdout) - start


def measure_setup(env: dict) -> dict:
    """Median corrected start-up time over SETUP_STARTS fresh interpreters."""
    _start_to_ready(env)
    reference.run()
    ref_before = reference.timed()
    raw, corrected, refs = [], [], [ref_before]
    for _ in range(SETUP_STARTS):
        elapsed = _start_to_ready(env)
        ref_after = reference.timed()
        raw.append(elapsed)
        corrected.append(reference.corrected(elapsed, ref_before, ref_after))
        refs.append(ref_after)
        ref_before = ref_after
    return {"setup_s": statistics.median(corrected), "raw_s": raw, "corrected_s": corrected, "ref_s": refs}


def run_workers(args, env: dict, out_dir: Path) -> dict | None:
    """Run the passes in WORKERS fresh processes (one when traced), sharing --seconds."""
    count = 1 if args.trace else WORKERS
    passes, peak, measured = [], 0.0, 0.0
    for k in range(count):
        budget = (args.seconds - measured) / (count - k)
        command = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", repr(budget), "--trace", str(args.trace),
                   "--first-pass", str(len(passes)), "--out-dir", str(out_dir)]
        first = len(passes)
        done = subprocess.run(command, env=env, stdout=subprocess.DEVNULL, timeout=WORKER_TIMEOUT_S)
        if done.returncode != 0:
            print(f"error: worker exited with code {done.returncode}", file=sys.stderr)
            return None
        with open(out_dir / f"worker-{first}.json", encoding="utf-8") as fh:
            worker = json.load(fh)
        passes += worker["passes"]
        peak = max(peak, worker["peak_rss_mb"])
        measured += worker["measured_s"]
    return {"passes": passes, "peak_rss_mb": peak, "workers": count}


def check_passes(ops_of, passes: list, out_dir: Path) -> tuple[int, int, list]:
    """Check every operation of every pass: (attempted, failed, failures)."""
    attempted, failures = 0, []
    for record in passes:
        pass_dir = out_dir / f"pass-{record['index']:03d}"
        for op, result in zip(ops_of(record["seed"]), record["ops"], strict=True):
            attempted += 1
            problem = checks.check_op(op, pass_dir, result)
            if problem is not None:
                failures.append({"pass": record["index"], "op": op.name, "problem": problem,
                                 "known_fault": op.known_fault})
    return attempted, len(failures), failures


def _machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    import scipy

    return {
        "platform": platform.platform(),
        "cpu": model or platform.processor(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_metrics(worker: dict, setup: dict) -> dict:
    return {
        "wall_s": _metric(statistics.median(p["wall_s"] for p in worker["passes"]), "s"),
        "setup_s": _metric(setup["setup_s"], "s"),
        "peak_rss_mb": _metric(worker["peak_rss_mb"], "MiB"),
    }


def per_layer_metrics(worker: dict, span_list: list) -> dict:
    plain = [p for p in worker["passes"] if not p["traced"]]
    traced = [p for p in worker["passes"] if p["traced"]]
    per_pass = spans.layer_metrics(span_list)
    metrics = {name: _metric(statistics.median(per_pass[name]) if per_pass[name] else 0.0, unit)
               for name, (unit, _, _) in spans.LAYER_METRICS.items()}
    metrics["cli.bytes_written"] = _metric(statistics.median(p["bytes_written"] for p in plain), "bytes")
    metrics["run.raw_wall_s"] = _metric(statistics.median(p["raw_s"] for p in plain), "s")
    metrics["run.ref_s"] = _metric(statistics.median(r for p in worker["passes"] for r in (p["ref_before_s"], p["ref_after_s"])), "s")
    overhead = statistics.median(p["wall_s"] for p in traced) - statistics.median(p["wall_s"] for p in plain)
    metrics["trace.overhead_s"] = _metric(overhead, "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "baeqnd" / "cli.py").is_file():
        print(f"error: no program source at {root / 'src' / 'baeqnd'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    out_dir = root / ".bench_out" / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    env = _child_env(root)

    setup = None if args.trace else measure_setup(env)
    worker = run_workers(args, env, out_dir)
    if worker is None:
        return 1

    attempted, failed, failures = check_passes(WORKLOADS[args.workload], worker["passes"], out_dir)
    unexpected = [f for f in failures if f["known_fault"] is None]
    for failure in unexpected[:5]:
        print(f"check failed: pass {failure['pass']} {failure['op']}: {failure['problem']}", file=sys.stderr)

    if args.trace:
        metrics = per_layer_metrics(worker, spans.read_spans(out_dir / "trace.jsonl"))
    else:
        metrics = end_to_end_metrics(worker, setup)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": _machine(),
        "threads": {**THREAD_ENV, "BAE_QND_THREADS": str(PROGRAM_THREADS)},
        "workers": worker["workers"],
        "reference": {"nominal_s": reference.NOMINAL_S,
                      "pass_refs_s": [[p["ref_before_s"], p["ref_after_s"]] for p in worker["passes"]],
                      "setup_refs_s": setup["ref_s"] if setup else None},
        "pass_seeds": [p["seed"] for p in worker["passes"]],
        "passes": [{k: p[k] for k in ("index", "traced", "raw_s", "wall_s", "bytes_written")}
                   | {"op_seconds": {o["name"]: o["seconds"] for o in p["ops"]}} for p in worker["passes"]],
        "setup": setup,
        "peak_rss_mb": worker["peak_rss_mb"],
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "metrics": metrics,
    }
    with open(out_dir / "record.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    result = {"correct": not unexpected, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
