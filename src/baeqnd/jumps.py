"""Quantum-jump statistics: Monte Carlo sampling and deterministic integrals.

A vacuum input has zero photons, yet conditioning on the measurement outcome
creates them: the joint density of outcome x_m and finding n >= 1 photons is
a double-peaked function whose total area is the jump probability, close to
1/(16 dx^2) for wide kernels.  The jumps correlate with the squared outcome:
for a vacuum input the integral of the one-photon density against
(x_m^2 - dx^2) approaches the resolution-independent constant 1/8, which is
the vacuum's operator-ordering correlation
(<x^2 n + 2 x n x + n x^2>/4 - <x^2><n>).  That limit holds for the vacuum
only.  exact_c_integral is the raw moment E[n (x_m^2 - dx^2)]; it exceeds
the covariance by E[n] E[x_m^2 - dx^2], a term that tends to 0 only for an
input without photons: for number(48, 1) at dx 10 it reads 0.8755 against
operator_c 0.125.

Monte Carlo shots are sharded into fixed-size blocks, each drawn from its
own deterministic random stream seeded by (seed, shard index).  Within a
shard, outcome uniforms are drawn first and photon uniforms second, so the
shot table is byte-identical no matter how many workers execute the shards.

run_experiment is the only sampler.  It evaluates the measurement kernel once
per (state, model): the joint table |<n|P(x_i)|psi>|^2 on SAMPLING_GRID_COUNT
nodes x_i, kept level-major as the kernel writes it, shape (dim, nodes), and
squared in place.  Each node's level sum (taken on C-ordered (node, level)
copies of blocks of the table, whose row order fixes the rounding) gives the
outcome CDF, which is inverted by linear interpolation to draw x_m, bit for
bit as np.interp(u, cdf, xs) would.  The cell of the CDF holding a shot's
uniform u comes from a guide table (Chen & Asau, AIIE Transactions 6 (1974)
163), built once per table: one read at u's bucket, kept where the cell's two
CDF values bracket u, and a binary search only for the shots where they do
not.  The table then becomes its cumulative sum over the photon number, one
vector add per level in place, and the shot's photon CDF is the same linear
interpolation between the two cumulative columns around x_m, adjacent in
memory.  x_m is read in the node cell of u's CDF cell: the draw puts it at
or past the cell's left node, and a shot that rounds onto the right node
reads that node's column alone, its weight clipped to 1.  The photon number
is the first level whose interpolated CDF reaches the shot's uniform: 0 after
one read where level 0 already does (most shots at wide dx), otherwise found
by bisection over the levels, so each shot costs O(log dim) and no kernel
call.  The table is the sampler's one array of nodes x dim entries.
Over dx 0.1-20, dim 8-96 and vacuum or one-photon inputs the interpolated
conditional photon CDF stays within 2e-5 of the exact one at x_m.

The deterministic integrals (jump probability, correlation integral and the
captured mass behind the truncation guard) take no grid.  Each joint density
|<n|P(x_m)|psi>|^2 is exp(-g x_m^2) times a polynomial in x_m of degree at
most 2 (n + top), where g = 4 kappa / (2 + kappa), kappa = 1/(4 dx^2), and top
is the input's highest nonzero level.  With n <= dim - 1 and the correlation's
extra x_m^2 weight the degree stays at most 2 (dim + top), so a Gauss-Hermite
rule with N = dim + top + 2 nodes (exact to degree 2N - 1), scaled by
1/sqrt(g), integrates all three exactly (Golub & Welsch, Math. Comp. 23
(1969) 221) as values @ weights on its plain node and weight arrays; see
measurement._outcome_rule.

At small dx the measurement lifts part of the input above the truncation.
The deterministic integrals and the sampling table raise
TruncationOverflowError when that lost probability exceeds
TRUNCATION_OCCUPATION_LIMIT (the photon draw normalises each shot's
probabilities and would hide it).  The sampler and the statistics refuse an
input whose squared norm is more than 1e-12 away from 1: its exact
probabilities would come out scaled by it, and its samples would not.  At
wide dx the joint density off the baseline photon number falls as dx^-3; the
deterministic integrals raise OutOfRangeError where its peak leaves the
normal float range (dx ~ 9.4e101 for the vacuum), where they would lose
digits and then read 0.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import (
    DegenerateConditioningError,
    DimensionMismatchError,
    InvalidParameterError,
    OutOfRangeError,
)
from .fock import FockState, _finite_reals, _integer, _numeric_array, _real, _x_action
from .fock import require_normalized, x_second_moment
from .measurement import MeasurementModel, _amplitude_levels, _check_captured, _chunks, _exact_joint

#: Shots per random stream; fixed so that shard boundaries, and therefore the
#: sampled shots, do not depend on how many workers run them.
SHARD_SIZE = 50_000

#: Node count of the inverse-CDF sampling table.
SAMPLING_GRID_COUNT = 8193


@dataclass(frozen=True)
class ShotTable:
    """Monte Carlo shots in shot order: outcome x_m and detected photon number.

    Shot s was drawn from random stream s // SHARD_SIZE, so the lineage
    columns shot_index and rng_stream_id are derived, not stored.
    """

    x_m: np.ndarray
    photon_n: np.ndarray

    def __post_init__(self):
        x_m = _finite_reals(self.x_m, "x_m").copy()
        photon_n = _numeric_array(self.photon_n, "iu", "photon_n").astype(np.int64)
        if x_m.ndim != 1 or x_m.shape != photon_n.shape:
            raise DimensionMismatchError("x_m and photon_n must be 1-D columns of equal length")
        if np.any(photon_n < 0):
            raise InvalidParameterError("photon_n must be >= 0")
        for name, column in (("x_m", x_m), ("photon_n", photon_n)):
            column.setflags(write=False)
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return self.x_m.size

    @property
    def shot_index(self) -> np.ndarray:
        return np.arange(len(self))

    @property
    def rng_stream_id(self) -> np.ndarray:
        return self.shot_index // SHARD_SIZE


@dataclass(frozen=True)
class CorrelationReport:
    """Deterministic and sampled jump/correlation statistics.

    Exact quantities carry no error bars; standard_errors has one entry per
    sampled estimator.  Sampled fields are None when no shots were taken.
    """

    exact_c_integral: float
    operator_c: float
    jump_probability: float
    shots: int | None = None
    measured_c: float | None = None
    measured_covariance: float | None = None
    jump_fraction: float | None = None
    standard_errors: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        for name in ("exact_c_integral", "operator_c", "jump_probability"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
        for name in ("measured_c", "measured_covariance", "jump_fraction"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _real(getattr(self, name), name))
        if self.shots is not None:
            object.__setattr__(self, "shots", _integer(self.shots, "shots", 1))
        if any(_real(v, f"standard error of {k}") < 0 for k, v in self.standard_errors.items()):
            raise InvalidParameterError("standard errors must be nonnegative")

    def to_dict(self) -> dict:
        return asdict(self)


def sampling_span(state: FockState, model: MeasurementModel) -> float:
    """Half-width of the adaptive sampling grid: 6 sigma of the outcome spread."""
    return 6.0 * np.sqrt(model.delta_x**2 + x_second_moment(state) + 1.0)


def _sampling_table(state: FockState, model: MeasurementModel):
    """Sampling nodes xs, the outcome CDF on them and the photon CDF table.

    The photon CDF table is level-major, shape (dim, len(xs)): entry [k, i]
    is the sum over n <= k of the joint density |<n|P(xs[i])|psi>|^2,
    unnormalised.
    """
    span = sampling_span(state, model)
    xs = np.linspace(-span, span, SAMPLING_GRID_COUNT)
    joint = _amplitude_levels(state, model, xs)
    if joint.dtype.kind == "f":
        np.square(joint, out=joint)
    else:
        joint = np.abs(joint) ** 2
    # Each node's density sums its levels as a C-ordered (node, level) row,
    # the order measurement_amplitudes' rows are summed in elsewhere, so the
    # outcome CDF does not depend on the table's layout.
    density = np.empty(xs.size)
    for sl in _chunks(xs.size, model.dim):
        density[sl] = joint[:, sl].T.copy().sum(axis=1)
    increments = 0.5 * (density[1:] + density[:-1]) * np.diff(xs)
    cdf = np.concatenate(([0.0], np.cumsum(increments)))
    _check_captured(state, model, float(cdf[-1]))
    # Strictly increasing CDF so the inverse is single valued in the tails;
    # the tilt shifts probability by ~1e-12, far below sampling noise.
    cdf += np.arange(cdf.size) * 1e-16
    cdf /= cdf[-1]
    # One vector add per level, in place: the same sequential sums as a
    # cumulative sum along each node's levels.
    for n in range(1, model.dim):
        joint[n] += joint[n - 1]
    return xs, cdf, joint


def _photon_draw(cum: np.ndarray, i: np.ndarray, w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Photon numbers drawn from the level-major photon CDF table, one per shot.

    Shot s reads the CDF F_s(k) = (1 - w_s) cum[k, i_s] + w_s cum[k, i_s + 1]
    and draws the smallest level k with F_s(k) >= u_s F_s(dim - 1), that is
    the count of levels with F_s(k) < u_s F_s(dim - 1).  Both columns are
    nondecreasing and rounding is monotone, so F_s is nondecreasing: a shot
    whose F_s(0) already reaches its target draws 0, and every other shot's
    count is found by bisection, a branchless binary search over the levels,
    about log2(dim) gathers of two adjacent entries per shot.
    """
    dim, count = cum.shape
    flat = cum.reshape(-1)

    def level_cdf(k, left, keep, w):
        at = left + k * count
        return keep * flat[at] + w * flat[at + 1]

    keep = 1.0 - w
    totals = level_cdf(dim - 1, i, keep, w)
    if np.any(totals <= 0.0):
        raise DegenerateConditioningError("sampled an outcome with zero conditional weight")
    target = u * totals
    n = np.zeros(i.shape, dtype=np.int64)
    rest = np.flatnonzero(level_cdf(0, i, keep, w) < target)
    i, keep, w, target = i[rest], keep[rest], w[rest], target[rest]
    # Every other shot draws at least 1.  Level dim - 1 holds the total,
    # never below the target, so a probe clamped to it never advances the count.
    found = np.ones(rest.size, dtype=np.int64)
    step = 1 << (dim - 2).bit_length()
    while step > 1:
        step >>= 1
        probe = np.minimum(found + (step - 1), dim - 1)
        found += step * (level_cdf(probe, i, keep, w) < target)
    n[rest] = found
    return n


def _outcome_guide(cdf: np.ndarray) -> np.ndarray:
    """Guide table of the outcome CDF: entry b is the last cell j with cdf[j] <= b / M.

    M = cdf.size - 1 buckets, cells j = 0..cdf.size - 2 (Chen & Asau, AIIE
    Transactions 6 (1974) 163), from one search of the sorted bucket edges: a
    counting pass over the nodes (bincount of ceil(cdf M)) is faster, but
    its counts array raised simulate's peak RSS.
    """
    buckets = cdf.size - 1
    guide = np.searchsorted(cdf[:-1], np.arange(buckets + 1) / buckets, "right")
    guide -= 1
    return guide


def _outcome_draw(xs, cdf, slopes, guide, u):
    """(x, j): outcomes x = np.interp(u, cdf, xs) bit for bit, and their CDF cells j.

    The guide's bucket of u gives a guessed cell; a shot keeps it where
    cdf[j] <= u < cdf[j + 1], and the others find theirs by searchsorted, so j
    is the cell np.interp finds, whatever the guide holds.  x is the
    expression np.interp evaluates in that cell: slopes[j] (u - cdf[j]) + xs[j],
    or xs[j] where u == cdf[j].
    """
    j = guide[(u * (guide.size - 1)).astype(np.intp)]
    below = cdf[j]
    miss = np.flatnonzero((u < below) | (u >= cdf[j + 1]))
    if miss.size:
        j[miss] = np.searchsorted(cdf, u[miss], "right") - 1
        below[miss] = cdf[j[miss]]
    offset = u - below
    at_node = xs[j]
    x = slopes[j] * offset + at_node
    np.copyto(x, at_node, where=offset == 0.0)
    return x, j


def _run_shard(xs, cdf, slopes, guide, cum, seed, stream_id, count):
    rng = np.random.default_rng([seed, stream_id])
    x, j = _outcome_draw(xs, cdf, slopes, guide, rng.random(count))
    u_n = rng.random(count)
    # x = xs[j] + slopes[j] (u - cdf[j]) with both terms >= 0, so x >= xs[j].
    # Where it rounds onto xs[j + 1], w clips to 1 and reads that node's
    # column alone, as the next cell would at w = 0.
    w = np.clip((x - xs[j]) / (xs[j + 1] - xs[j]), 0.0, 1.0)
    return x, _photon_draw(cum, j, w, u_n)


def run_experiment(
    state: FockState,
    model: MeasurementModel,
    shots: int,
    seed: int,
    *,
    threads: int = 1,
) -> ShotTable:
    """Independent measurement shots: sample x_m, then the photon number at x_m.

    Both draws read one sampling table, shared read-only by the threads.
    Deterministic for a fixed seed: shard s draws from default_rng([seed, s]),
    and shards are concatenated in shot order, so serial and threaded
    execution produce identical tables.
    """
    shots, seed = _integer(shots, "shots", 1), _integer(seed, "seed", 0)
    threads = _integer(threads, "threads", 1)
    require_normalized(state)
    xs, cdf, cum = _sampling_table(state, model)
    # np.interp's slopes and the guide, once per table.  Where the tilt is
    # absorbed the CDF is flat and its slope infinite; no u falls in such a cell.
    with np.errstate(divide="ignore"):
        slopes = np.diff(xs) / np.diff(cdf)
    guide = _outcome_guide(cdf)

    def work(start):
        count = min(SHARD_SIZE, shots - start)
        return _run_shard(xs, cdf, slopes, guide, cum, seed, start // SHARD_SIZE, count)

    starts = range(0, shots, SHARD_SIZE)
    if threads > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=int(threads)) as pool:
            parts = list(pool.map(work, starts))
    else:
        parts = [work(s) for s in starts]
    x, n = (np.concatenate(column) for column in zip(*parts))
    return ShotTable(x_m=x, photon_n=n)


def _baseline_photon(state: FockState) -> int:
    return int(np.argmax(state.probabilities()))


def _require_finite(delta_x: float, *values: float) -> None:
    # x_m^2 - dx^2 leaves float64 near the top of the accepted resolution range.
    if not np.all(np.isfinite(values)):
        raise InvalidParameterError(
            f"the correlation statistics overflow at delta_x {delta_x!r}: "
            "x_m^2 - dx^2 leaves the float range"
        )


def _exact_integrals(state: FockState, model: MeasurementModel, correlation: bool = True):
    """(correlation integral, jump probability) on the exact outcome rule.

    The correlation integral is None when not asked for.  Off the baseline
    the joint density falls as dx^-3 (the vacuum's peaks at about
    0.018 dx^-3); where it leaves the normal float range, from dx ~ 9.4e101
    for the vacuum, both integrals lose digits and then read 0, so that
    raises OutOfRangeError.
    """
    require_normalized(state)
    nodes, weights, probs, _ = _exact_joint(state, model)
    value = None
    # The correlation first: where x_m^2 - dx^2 overflows, that is the error.
    if correlation:
        weighted = probs @ np.arange(probs.shape[1])
        with np.errstate(over="ignore", invalid="ignore"):
            value = float((weighted * (nodes**2 - model.delta_x**2)) @ weights)
        _require_finite(model.delta_x, value)
    baseline = _baseline_photon(state)
    # Summed over the other columns, not the row total minus the baseline:
    # that difference cancels when the jump is rare (wide dx).
    off = probs[:, :baseline].sum(axis=1) + probs[:, baseline + 1 :].sum(axis=1)
    peak = off.max()
    if peak < np.finfo(np.float64).tiny:
        raise OutOfRangeError(
            f"the exact jump integrals underflow at delta_x {model.delta_x!r}: the joint "
            f"density off photon number {baseline} peaks at {peak:.3g}, below the normal "
            "float range"
        )
    return value, float(off @ weights)


def jump_probability(state: FockState, model: MeasurementModel) -> float:
    """Total probability that the detected photon number leaves the baseline.

    The baseline is the input's most probable photon number (0 for vacuum,
    so this is the total weight of all n >= 1 columns).
    """
    return _exact_integrals(state, model, correlation=False)[1]


def measured_correlation(state: FockState, model: MeasurementModel) -> float:
    """Deterministic jump/outcome correlation integral.

    Sum over n >= 1 of n times the integral of the joint photon/outcome
    density against (x_m^2 - dx^2); uses the exact matrix elements, not the
    wide-kernel approximation.  For a vacuum input this approaches 1/8, the
    vacuum's operator_correlation, as the resolution grows; for other inputs
    it does not tend to operator_correlation (0.8755 against 0.125 for
    number(48, 1) at dx 10).
    """
    return _exact_integrals(state, model)[0]


def operator_correlation(state: FockState) -> float:
    """Operator-ordering correlation <x^2 n + 2 x n x + n x^2>/4 - <x^2><n>.

    Exactly 1/8 for the vacuum at any state dim >= 4: only the sandwiched
    term contributes because n annihilates the vacuum on either side, and
    x|0> is the one-photon state with amplitude 0.5.
    """
    _integer(state.dim, "state dim", 4)
    require_normalized(state)
    # <x^2 n> + <n x^2> = 2 Re<x psi, x n psi> and <x n x> = <x psi, n x psi>
    # hold exactly for the truncated Hermitian x, so no matrix is formed.
    amps = state.amplitudes
    levels = np.arange(state.dim, dtype=np.float64)
    phi = _x_action(amps)
    value = 0.5 * (np.vdot(phi, _x_action(levels * amps)).real + np.vdot(phi, levels * phi).real)
    value -= np.vdot(phi, phi).real * np.vdot(amps, levels * amps).real
    return float(value)


def summarize(table: ShotTable, state: FockState, model: MeasurementModel) -> CorrelationReport:
    """exact_report's report with the sampled estimators filled in.

    Sampled quantities: the jump fraction, the correlation estimator
    mean of n (x_m^2 - dx^2), and the sample covariance of (n, x_m^2), each
    with a shot-noise standard error.  Raises DimensionMismatchError for a
    photon number that is not a level of the model.
    """
    shots = len(table)
    if shots == 0:
        raise InvalidParameterError("the shot table must be nonempty")
    top = int(table.photon_n.max())
    if top >= model.dim:
        raise DimensionMismatchError(f"photon number {top} is not a level of model dim {model.dim}")
    exact = exact_report(state, model)

    x = table.x_m
    n = table.photon_n.astype(np.float64)
    baseline = _baseline_photon(state)

    jumped = (n != baseline).astype(np.float64)
    jump_fraction = float(jumped.mean())
    se_jump = float(np.sqrt(jump_fraction * (1.0 - jump_fraction) / shots))

    with np.errstate(over="ignore", invalid="ignore"):
        values = n * (x**2 - model.delta_x**2)
        measured_c = float(values.mean())
        se_c = float(values.std(ddof=1) / np.sqrt(shots)) if shots > 1 else 0.0

        influence = (n - n.mean()) * (x**2 - (x**2).mean())
        measured_cov = float(influence.mean())
        se_cov = float(influence.std(ddof=1) / np.sqrt(shots)) if shots > 1 else 0.0
    _require_finite(model.delta_x, measured_c, se_c, measured_cov, se_cov)

    return replace(
        exact,
        shots=shots,
        measured_c=measured_c,
        measured_covariance=measured_cov,
        jump_fraction=jump_fraction,
        standard_errors={
            "measured_c": se_c,
            "measured_covariance": se_cov,
            "jump_fraction": se_jump,
        },
    )


def exact_report(state: FockState, model: MeasurementModel) -> CorrelationReport:
    """Deterministic quantities only; sampled fields are absent."""
    correlation, jump = _exact_integrals(state, model)
    return CorrelationReport(
        exact_c_integral=correlation,
        operator_c=operator_correlation(state),
        jump_probability=jump,
    )
