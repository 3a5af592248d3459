"""Fixed reference computation that measures the machine's current speed.

The machine this benchmark was built on drifts in speed by tens of percent
over minutes, in CPU time as well as wall time.  Each pass is therefore timed
between two runs of this computation, and the pass time is reported in units
of the reference: raw / reference * NOMINAL_S.

The computation imports nothing from the program and mixes the kinds of work
the workloads do, about a quarter of its time each: a vectorised numpy
three-term recurrence like the kernel's Hermite rows, once on arrays that fit
a core's L2 cache and once on 5 MB arrays that stream through the shared L3
cache like the sampler's per-shot batches; small BLAS/LAPACK calls like the
circuit and the POVM contractions; and a pure-Python loop that builds rows,
formats floats and serialises them with ``json`` and SHA-256 like the CLI
output.  It holds under 40 MB at a time, less than any workload's pass, so it
never sets a worker's peak memory.
"""

from __future__ import annotations

import hashlib
import json
import time

import numpy as np

#: Median reference time on the machine the nominal figures were taken on
#: (2 vCPU Intel Xeon, Python 3.11, numpy 2.4, one BLAS thread).
NOMINAL_S = 0.30



def _recurrence(xi: np.ndarray, steps: int) -> float:
    prev = np.exp(-0.5 * xi * xi)
    cur = np.sqrt(2.0) * xi * prev
    acc = prev + cur
    for n in range(1, steps):
        prev, cur = cur, np.sqrt(2.0 / (n + 1)) * xi * cur - np.sqrt(n / (n + 1.0)) * prev
        acc += cur * (1.0 / (n + 1))
    return float(acc.sum())


def _vector_part(rng) -> float:
    in_cache = _recurrence(rng.standard_normal((1_500, 48)), 160)
    streamed = _recurrence(rng.standard_normal((10_000, 64)), 9)
    return in_cache + streamed


def _linalg_part(rng) -> float:
    total = 0.0
    for _ in range(12):
        a = rng.standard_normal((160, 160))
        s = a @ a.T + 160.0 * np.eye(160)
        w, v = np.linalg.eigh(s)
        total += float(w[0]) + float(np.linalg.solve(s, v[:, 0]).sum())
        batch = rng.standard_normal((200, 24, 24))
        total += float(np.einsum("bnk,bmk->nm", batch, batch, optimize=True).trace())
    return total


def _python_part(rng) -> float:
    values = rng.standard_normal(3_000).tolist()
    rows = []
    checksum = 0
    for i, v in enumerate(values):
        rows.append({"shot_index": i, "x_m": v, "photon_n": int(abs(v) * 3.0) % 5})
        for j in range(150):
            checksum = (checksum * 31 + i * j) % 1_000_003
    text = json.dumps({"rows": rows}, indent=1, sort_keys=True)
    canonical = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode()).hexdigest()
    csv_lines = [",".join(format(c, ".17g") if isinstance(c, float) else str(c) for c in r.values()) for r in rows]
    return float(len(text) + len(csv_lines) + int(digest[:6], 16) % 7 + checksum)


def run() -> float:
    """Run the reference once; the returned value only keeps the work alive.

    Call it once untimed before timing it: the first call pays for lazy
    set-up in numpy and the allocator.
    """
    rng = np.random.default_rng(20000505)
    return _vector_part(rng) + _linalg_part(rng) + _python_part(rng)


def timed() -> float:
    """Wall time of one reference run, in seconds."""
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


def corrected(raw_s: float, ref_before_s: float, ref_after_s: float) -> float:
    """Pass time in nominal-machine seconds, from the references around it."""
    return raw_s * NOMINAL_S / (0.5 * (ref_before_s + ref_after_s))
