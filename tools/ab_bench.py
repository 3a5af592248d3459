"""Paired A/B runs of bench/run.py on two trees, written as one BENCH_<n>.json.

    python3 tools/ab_bench.py --parent HEAD --out BENCH_31.json --first-seed 3121

Run from the root of a checkout.  The parent is a commit, exported with
``git archive``; the change is a commit too (``--change <rev>``) or, by
default, the working tree's tracked and untracked, not ignored, files, so
that the record can be committed with the change it measures.  Each side is
exported once into a fresh directory and runs ``bench/run.py`` there under
PYTHONDONTWRITEBYTECODE=1 with no ``__pycache__`` (the benchmark's peak
memory moves with the byte-code cache state).

Every workload of BENCHMARK.json is run, each for its run_seconds.  Pair k
of PAIRS runs both sides on seed first-seed + k - 1, the parent first in odd
pairs and the change first in even ones.  Then each side makes TRACED
``--trace 1`` runs, alternating the same way, whose per-layer metrics are
summarised by their medians.  Each run has a timeout, and its process group
(the benchmark and its workers) is killed when it runs out.  A run that
fails, times out or leaves no readable result is kept with correct false
and its error.
The record's schema is SCHEMA; tests/test_bench_records.py checks the newest
BENCH_*.json against it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SCHEMA = "baeqnd-ab-bench/1"
SIDES = ("parent", "change")
#: Untraced pairs per workload: the fewest that the claim rule accepts.
PAIRS = 10
#: ``--trace 1`` runs per side and workload.
TRACED = 3
#: Seconds a run may take beyond --seconds for its start-up timing and checks.
RUN_SLACK_S = 180


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True,
                          timeout=60).stdout


def export_commit(rev: str, dest: Path) -> None:
    """Write the tree of rev into dest, as git archive holds it."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], check=True,
                             capture_output=True, timeout=120).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True, timeout=120)


def export_worktree(dest: Path) -> None:
    """Copy the working tree's tracked and untracked, not ignored, files into dest."""
    listed = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listed.split("\0")):
        source = Path(name)
        if source.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def program_sha256(root: Path) -> str:
    """SHA-256 over the paths and bytes of src/, to tie a record to the trees it measured."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return "sha256:" + digest.hexdigest()


def pair_order(pair: int) -> tuple[str, str]:
    """The sides of pair 1, 2, ... in run order: the parent first in odd pairs."""
    return SIDES if pair % 2 else SIDES[::-1]


def run_bench(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One bench/run.py run in root: its result line and record, or the error."""
    for cache in list(root.rglob("__pycache__")):
        shutil.rmtree(cache)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--trace", str(trace)]
    # A session of its own, so that a timeout ends the benchmark's workers too.
    proc = subprocess.Popen(command, cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        stdout, stderr = "", f"timed out after {seconds + RUN_SLACK_S} s"
    finally:
        # Whatever is left of the run's session: its workers after a timeout,
        # or every process of it after an interrupt.
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
    run = {"seed": seed, "trace": trace, "correct": False, "attempted": 0, "failed": 0,
           "metrics": {}}
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {**run, "error": (stderr.strip().splitlines() or [f"exit {proc.returncode}"])[-1]}
    try:
        result = json.loads(lines[-1])
        with open(root / ".bench_out" / workload / "record.json", encoding="utf-8") as fh:
            record = json.load(fh)
        op_seconds = {}
        for p in record["passes"]:
            for op, value in p["op_seconds"].items():
                op_seconds.setdefault(op, []).append(value)
        return {
            **run,
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()},
            # The fastest in-process time of each operation over the run's passes.
            "op_min_s": {op: min(values) for op, values in op_seconds.items()},
            "machine": record["machine"],
            "threads": record["threads"],
        }
    except (OSError, ValueError, LookupError, TypeError, AttributeError) as exc:
        return {**run, "error": f"unreadable result: {exc!r}"}


def _spread(values: list) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def summarize(runs: list, better: dict, bounds: dict | None = None) -> dict:
    """Per metric: each side's median and quartiles, and the pairs the change wins.

    A pair is won when the change's value is better than the parent's in the
    metric's direction (better[name], "lower" unless named); ties count for
    neither.  gain applies the claim rule: at least PAIRS pairs, the change
    wins at least nine tenths of them, and the medians differ, in its favour,
    by more than the distance between the parent's quartiles.  So a traced
    summary, of TRACED pairs, never reads a gain.

    A metric with a bound (bounds[name], BENCHMARK.json's relative bound)
    also reads worse, when the change's median is worse than the parent's by
    more than bound times the parent's median, and unresolved, when the
    parent's quartile distance is wider than that, unless every change run
    beats every parent run.  Both are None for a metric without a bound.
    """
    names = sorted({name for run in runs for name in run["metrics"]})
    summary = {}
    for name in names:
        sign = -1.0 if better.get(name, "lower") == "higher" else 1.0
        by_pair = {}
        for run in runs:
            if name in run["metrics"]:
                by_pair.setdefault(run["pair"], {})[run["side"]] = run["metrics"][name]
        sides = {side: _spread([v[side] for v in by_pair.values() if side in v]) for side in SIDES
                 if any(side in v for v in by_pair.values())}
        if len(sides) < 2:
            continue
        both = [v for v in by_pair.values() if len(v) == 2]
        wins = sum(sign * (v["change"] - v["parent"]) < 0 for v in both)
        parent, change = sides["parent"], sides["change"]
        margin = sign * (parent["median"] - change["median"])
        worse = unresolved = None
        if name in (bounds or {}):
            allowed = bounds[name] * abs(parent["median"])
            worse = -margin > allowed
            values = {side: [sign * v[side] for v in by_pair.values() if side in v] for side in SIDES}
            unresolved = (parent["q3"] - parent["q1"] > allowed
                          and not max(values["change"]) < min(values["parent"]))
        summary[name] = {
            **sides,
            "relative": change["median"] / parent["median"] - 1.0 if parent["median"] else None,
            "change_wins": wins,
            "pairs": len(both),
            "gain": (len(both) >= PAIRS and wins >= 0.9 * len(both)
                     and margin > parent["q3"] - parent["q1"]),
            "worse": worse,
            "unresolved": unresolved,
        }
    return summary


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _stop(signum, frame):
    # Raised inside the wait for a run, so that its session is killed and the
    # exports are removed on the way out.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    repo = Path.cwd()
    if not (repo / "bench" / "run.py").is_file():
        print("error: run from the root of a checkout", file=sys.stderr)
        return 2
    # The workloads, the run length and each metric's direction are the benchmark's.
    with open(repo / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    better = {m["name"]: m["better"] for m in declared["end_to_end"] + declared["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent commit (any git revision)")
    parser.add_argument("--change", default=None,
                        help="change commit; the working tree's files when left out")
    parser.add_argument("--out", required=True, help="path of the BENCH_<n>.json to write")
    parser.add_argument("--first-seed", type=int, required=True, help="seed of the first pair")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _stop)

    workloads = [w["name"] for w in declared["workloads"]]
    seconds = declared["run_seconds"]
    parent_commit = _git("rev-parse", "--verify", args.parent + "^{commit}").strip()
    change_commit = (_git("rev-parse", "--verify", args.change + "^{commit}").strip()
                     if args.change else None)
    load_start = os.getloadavg()

    with tempfile.TemporaryDirectory(prefix="ab_bench-") as scratch:
        roots = {side: Path(scratch) / side for side in SIDES}
        for root in roots.values():
            root.mkdir()
        export_commit(parent_commit, roots["parent"])
        if change_commit:
            export_commit(change_commit, roots["change"])
        else:
            export_worktree(roots["change"])
        sources = {
            "parent": {"commit": parent_commit, "source": "git archive",
                       "program_sha256": program_sha256(roots["parent"])},
            "change": {"commit": change_commit,
                       "source": "git archive" if change_commit else "working tree",
                       "base": None if change_commit else _git("rev-parse", "HEAD").strip(),
                       "program_sha256": program_sha256(roots["change"])},
        }
        results, environment = {}, {}
        for workload in workloads:
            runs, traced = [], []
            plan = [(pair, 0, args.first_seed + pair - 1, runs) for pair in range(1, PAIRS + 1)]
            plan += [(pair, 1, args.first_seed + PAIRS + pair - 1, traced)
                     for pair in range(1, TRACED + 1)]
            for pair, trace, seed, into in plan:
                for side in pair_order(pair):
                    run = run_bench(roots[side], workload, seed, seconds, trace)
                    environment.update({k: run.pop(k) for k in ("machine", "threads") if k in run})
                    into.append({"pair": pair, "side": side, **run})
                    shown = {k: round(v, 4) for k, v in run["metrics"].items()
                             if k in ("wall_s", "setup_s", "peak_rss_mb", "cli.self_s")}
                    _log(f"{workload} pair {pair} trace {trace} {side}: correct={run['correct']} "
                         f"{shown or run.get('error')}")
            results[workload] = {
                "runs": runs,
                "summary": summarize(runs, better, bounds),
                "op_min_summary": summarize([{**r, "metrics": r.get("op_min_s", {})} for r in runs],
                                            better),
                "traced_runs": traced,
                "traced_summary": summarize(traced, better, bounds),
            }

    record = {
        "schema": SCHEMA,
        "command": ["python3", "tools/ab_bench.py", *(argv if argv is not None else sys.argv[1:])],
        "parent": sources["parent"],
        "change": sources["change"],
        "settings": {"pairs": PAIRS, "traced": TRACED, "seconds": seconds,
                     "first_seed": args.first_seed, "workloads": workloads},
        "machine": {**environment.get("machine", {}), "driver_python": platform.python_version(),
                    "loadavg_start": list(load_start), "loadavg_end": list(os.getloadavg())},
        "threads": {**environment.get("threads", {}), "PYTHONDONTWRITEBYTECODE": "1"},
        "workloads": results,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    _log(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
