"""The newest BENCH_*.json follows the schema of tools/ab_bench.py, the A/B driver that writes it."""

import importlib.util
import json
import re
import statistics
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("ab_bench", REPO / "tools" / "ab_bench.py")
ab_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_bench)

_COMMIT = re.compile(r"[0-9a-f]{40}")
_DIGEST = re.compile(r"sha256:[0-9a-f]{64}")


def newest_record() -> Path:
    return max(REPO.glob("BENCH_*.json"), key=lambda p: int(p.stem.split("_")[1]))


def _number(value) -> bool:
    return type(value) in (int, float)


def check_summary(summary: dict, runs: list) -> None:
    for name, entry in summary.items():
        for side in ab_bench.SIDES:
            values = [r["metrics"][name] for r in runs if r["side"] == side and name in r["metrics"]]
            spread = entry[side]
            assert spread["n"] == len(values), (name, side)
            assert spread["median"] == pytest.approx(statistics.median(values), rel=1e-12, abs=1e-15)
            assert spread["q1"] <= spread["median"] <= spread["q3"], (name, side, spread)
        assert entry["relative"] is None or _number(entry["relative"]), name
        assert 0 <= entry["change_wins"] <= entry["pairs"], (name, entry)
        assert type(entry["gain"]) is bool, name
        assert not entry["gain"] or entry["pairs"] >= ab_bench.PAIRS, (name, entry)
        for key in ("worse", "unresolved"):
            assert entry[key] in (True, False, None), (name, key, entry)


def check_runs(runs: list, pairs: int, trace: int) -> None:
    order = [(r["pair"], r["side"]) for r in runs]
    assert order == [(k, side) for k in range(1, pairs + 1) for side in ab_bench.pair_order(k)]
    for run in runs:
        assert run["trace"] == trace and type(run["seed"]) is int, run
        assert type(run["correct"]) is bool, run
        assert type(run["attempted"]) is int and 0 <= run["failed"] <= run["attempted"], run
        assert all(type(k) is str and _number(v) for k, v in run["metrics"].items()), run
        if run["correct"]:
            assert run["metrics"], run


class TestNewestRecord:
    def test_parses_against_the_driver_schema(self):
        record = json.loads(newest_record().read_text(encoding="utf-8"))
        assert record["schema"] == ab_bench.SCHEMA
        assert record["command"][:2] == ["python3", "tools/ab_bench.py"]
        assert _COMMIT.fullmatch(record["parent"]["commit"])
        change = record["change"]
        assert change["commit"] is None or _COMMIT.fullmatch(change["commit"])
        if change["commit"] is None:
            assert change["source"] == "working tree" and _COMMIT.fullmatch(change["base"])
        for side in ab_bench.SIDES:
            assert _DIGEST.fullmatch(record[side]["program_sha256"]), side
        settings = record["settings"]
        declared = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
        assert (settings["pairs"], settings["traced"]) == (ab_bench.PAIRS, ab_bench.TRACED)
        assert settings["seconds"] == declared["run_seconds"]
        # Every workload the benchmark declares, in its order: none left out.
        assert settings["workloads"] == [w["name"] for w in declared["workloads"]]
        assert {"python", "numpy", "cpus"} <= set(record["machine"])
        assert record["threads"]["PYTHONDONTWRITEBYTECODE"] == "1"
        assert record["threads"]["BAE_QND_THREADS"] == "1"
        assert list(record["workloads"]) == settings["workloads"]
        for workload in record["workloads"].values():
            check_runs(workload["runs"], settings["pairs"], 0)
            check_runs(workload["traced_runs"], settings["traced"], 1)
            check_summary(workload["summary"], workload["runs"])
            check_summary(workload["traced_summary"], workload["traced_runs"])
            assert {"wall_s", "setup_s", "peak_rss_mb"} <= set(workload["summary"])
            # Every end-to-end metric has a bound, so it reads worse or not, resolved or not.
            for metric in declared["end_to_end"]:
                entry = workload["summary"][metric["name"]]
                assert type(entry["worse"]) is bool and type(entry["unresolved"]) is bool, entry


class TestSummary:
    @staticmethod
    def runs(parent, change):
        return [{"pair": k, "side": side, "metrics": {"m": value}}
                for k, pair in enumerate(zip(parent, change), 1)
                for side, value in zip(ab_bench.SIDES, pair)]

    def test_wins_and_the_claim_rule(self):
        # Lower is better unless BENCHMARK.json says higher; ties count for
        # neither side.  Nine wins of ten and a median gap wider than the
        # parent's quartile distance make a gain.
        parent = [10.0 + 0.1 * k for k in range(10)]
        change = [p - 1.0 for p in parent[:9]] + [parent[9]]
        entry = ab_bench.summarize(self.runs(parent, change), {})["m"]
        assert (entry["change_wins"], entry["pairs"], entry["gain"]) == (9, 10, True)
        flipped = ab_bench.summarize(self.runs(parent, change), {"m": "higher"})["m"]
        assert (flipped["change_wins"], flipped["gain"]) == (0, False)
        close = [p - 0.01 for p in parent]
        assert ab_bench.summarize(self.runs(parent, close), {})["m"]["gain"] is False

    def test_fewer_pairs_than_the_rule_asks_make_no_gain(self):
        # Three wins of three, by far more than the parent's spread: the claim
        # rule still asks for at least ten pairs.
        entry = ab_bench.summarize(self.runs([10.0, 10.1, 10.2], [5.0, 5.1, 5.2]), {})["m"]
        assert (entry["change_wins"], entry["pairs"], entry["gain"]) == (3, 3, False)

    def test_worse_by_more_than_the_bound(self):
        # A 10 % bound on a parent median of 10.45: the change may read up to
        # 1.045 worse.  Worse is read in the metric's direction.
        parent = [10.0 + 0.1 * k for k in range(10)]
        bounds = {"m": 0.1}
        for shift, worse in ((2.0, True), (1.0, False), (-2.0, False)):
            entry = ab_bench.summarize(self.runs(parent, [p + shift for p in parent]), {}, bounds)
            assert (entry["m"]["worse"], entry["m"]["unresolved"]) == (worse, False), shift
        entry = ab_bench.summarize(self.runs(parent, [p - 2.0 for p in parent]), {"m": "higher"},
                                   bounds)["m"]
        assert entry["worse"] is True

    def test_spread_wider_than_the_bound_is_unresolved(self):
        # The parent's quartiles lie 4.5 apart around a median of 14.5: wider
        # than a 10 % bound, so no verdict, unless every change run beats
        # every parent run.
        parent = [10.0 + k for k in range(10)]
        bounds = {"m": 0.1}
        close = ab_bench.summarize(self.runs(parent, [p - 0.5 for p in parent]), {}, bounds)["m"]
        assert (close["worse"], close["unresolved"]) == (False, True)
        clear = ab_bench.summarize(self.runs(parent, [p - 10.5 for p in parent]), {}, bounds)["m"]
        assert (clear["worse"], clear["unresolved"]) == (False, False)
        # Beating every parent run in the wrong direction does not resolve it.
        higher = ab_bench.summarize(self.runs(parent, [p - 10.5 for p in parent]),
                                    {"m": "higher"}, bounds)["m"]
        assert (higher["worse"], higher["unresolved"]) == (True, True)

    def test_a_metric_without_a_bound_reads_neither(self):
        entry = ab_bench.summarize(self.runs([10.0, 11.0], [20.0, 21.0]), {})["m"]
        assert (entry["worse"], entry["unresolved"]) == (None, None)

    def test_a_run_without_a_readable_result_is_a_failed_run(self, tmp_path):
        # bench/run.py exits 0 but prints no JSON and writes no record.
        (tmp_path / "bench").mkdir()
        (tmp_path / "bench" / "run.py").write_text("print('no result')\n", encoding="utf-8")
        run = ab_bench.run_bench(tmp_path, "shots-records", 1, 1.0, 0)
        assert (run["correct"], run["attempted"], run["metrics"]) == (False, 0, {})
        assert run["error"].startswith("unreadable result")

    def test_pairs_alternate_which_side_runs_first(self):
        assert [ab_bench.pair_order(k)[0] for k in range(1, 5)] == ["parent", "change"] * 2
