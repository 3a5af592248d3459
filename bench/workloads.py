"""The benchmark's workloads: the CLI commands of one pass and their settings.

A pass is one round of a workload's operations; every pass of a workload runs
the same operations, so the failed share of attempted operations is fixed.
Only the program seed of the shot workloads changes from pass to pass.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its checks need to know."""

    name: str
    check: str
    argv: tuple[str, ...]
    out: str
    params: dict = field(default_factory=dict)
    #: Set on an operation that fails today because of a named program fault.
    known_fault: str | None = None

    def command_line(self, out_path: str) -> list[str]:
        return [*self.argv, "--out", out_path]


#: Program threads (BAE_QND_THREADS) of every workload.  With two sampler
#: threads the worker's peak memory depended on how the shards' temporaries
#: overlapped (530 to 642 MiB for one command), so the shot workloads run on one.
PROGRAM_THREADS = 1


RECORD_SHOTS = 20_000
WIDE_SHOTS = 25_000
SWEEP_DX = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0)
SMALL_DX_FAULT = (
    "small-dx kernel truncation: the Gauss-Hermite kernel loses the mass above --dim "
    "and jump-sweep returns a jump probability below the closed form without an error"
)


def _records_ops(seed: int) -> list[Op]:
    argv = ("simulate", "--delta-x", "5", "--dim", "32", "--shots", str(RECORD_SHOTS), "--seed", str(seed))
    params = {"dx": 5.0, "dim": 32, "shots": RECORD_SHOTS, "seed": seed}
    return [
        Op("simulate-json", "simulate-json", argv, "records.json", params),
        Op("simulate-csv", "simulate-csv", argv + ("--format", "csv"), "records.csv",
           {**params, "json_twin": "records.json"}),
    ]


def _wide_ops(seed: int) -> list[Op]:
    argv = ("correlation", "--delta-x", "0.2", "--dim", "64", "--shots", str(WIDE_SHOTS), "--seed", str(seed))
    return [Op("correlation", "correlation", argv, "correlation.json",
               {"dx": 0.2, "dim": 64, "shots": WIDE_SHOTS, "seed": seed})]


def _audit_ops(seed: int) -> list[Op]:
    sweep = tuple(a for dx in SWEEP_DX for a in ("--delta-x", repr(dx)))
    return [
        Op("povm-check", "povm-check", ("povm-check", "--delta-x", "1", "--dim", "64"), "povm.json",
           {"dx": 1.0, "dim": 64}),
        Op("setup-check", "setup-check", ("setup-check", "--gain-a", "1.5", "--dim", "48"), "setup.json",
           {"gain": 1.5, "dim": 48}),
        Op("distribution", "distribution",
           ("distribution", "--delta-x", "10", "--dim", "32", "--grid-count", "20001"), "distribution.json",
           {"dx": 10.0, "dim": 32, "count": 20001, "n_max": 4}),
        Op("jump-sweep", "jump-sweep", ("jump-sweep", *sweep, "--dim", "32"), "sweep.json",
           {"dxs": list(SWEEP_DX), "dim": 32}),
        Op("jump-sweep-small-dx", "jump-sweep", ("jump-sweep", "--delta-x", "0.1", "--dim", "32"),
           "sweep-small.json", {"dxs": [0.1], "dim": 32, "truncation_exit_allowed": True},
           known_fault=SMALL_DX_FAULT),
    ]


#: Workload name -> the operations of one pass, given its program seed.
WORKLOADS = {"shots-records": _records_ops, "shots-wide-dim": _wide_ops, "audit": _audit_ops}


def pass_seeds(run_seed: int):
    """Endless stream of program seeds for the passes of one run."""
    rng = random.Random(run_seed)
    while True:
        yield rng.randrange(2**31)
