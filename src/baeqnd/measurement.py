"""Gaussian quadrature-measurement kernel on a truncated Fock space.

The measurement of the x quadrature with resolution dx at outcome x_m is
represented by the positive operator

    P(x_m) = (2 pi dx^2)^(-1/4) exp(-(x_m - x)^2 / (4 dx^2)),

a Gaussian function of the quadrature operator x.  Squaring it gives the
outcome probability density of an input state, and its action followed by
normalization gives the conditional post-measurement state.

The kernel is built in the Fock basis by the matrix-element recurrence for
Gaussian operators (Miatto & Quesada, "Fast optimization of parametrized
quantum optical circuits", Quantum 4, 366 (2020), arXiv:2004.11002).
Commuting the ladder operator through P gives
P a P^-1 = (1 + kappa/2) a + (kappa/2) a* - kappa x_m with kappa = 1/(4 dx^2),
a three-term recurrence in the photon index whose seed
<0|P(x_m)|0> = (2 pi dx^2)^(-1/4) sqrt(2/(2+kappa)) exp(-2 kappa x_m^2/(2+kappa))
is a Gaussian in x_m.  Each step is one vector operation over a batch of
outcomes, every entry is an exact matrix element of the untruncated operator,
and no Hermite polynomial is evaluated at a large argument.  The seed
underflows from |x_m| ~ 19.5 at dx 0.05 while the rows near the turning point
n ~ x_m^2 are of order one, so each outcome's rows are carried in units of
their own power of two and scaled back as they leave the recurrence.  The
exact square P^2 is the same Gaussian with kappa -> 2 kappa and the squared
prefactor.

There are two routes through the recurrence.  operator_batch fills whole rows
of P(x) (or of P(x)^2) for a batch of outcomes; the completeness audits read
the same rows a chunk of rule nodes at a time (sum_b w_b P(x_b)^2 row by row,
and sum_n q_n^T q_n over the weighted rows q_n for the squared truncated
matrix), so no (nodes, dim, dim) stack is ever built.  The rows do not
depend on the truncation, so one pass at the largest audited dim gives every
smaller dim's integrals as leading blocks.  measurement_amplitudes gives
<n|P(x)|state> without forming a matrix: it runs the recurrence on the
columns 0..top only, top the state's last nonzero level, and contracts them
with the state, at cost O(count dim (top + 1)).  Densities, conditional states, the density table,
the sampler and the jump integrals all read it.

Every entry of the kernel, of its square and of the squared amplitudes is a
Gaussian times a polynomial in x_m, so every integral over the outcome has an
exact Gauss-Hermite rule (_scaled_rule), built from numpy alone
(fock._gh_rule) and limited to fock.MAX_RULE_NODES nodes.  The outcome rule
(_outcome_rule) measures the mass the kernel loses above the truncation,
which outcome_density, conditional_state, the density table and the jump
integrals refuse above TRUNCATION_OCCUPATION_LIMIT.  The completeness audits
integrate on rules of dim + 1 nodes (the exact P^2) and 2 dim nodes (the
truncated square), so they carry no quadrature error and end at dim 700.

Diagonalizing the truncated x operator and applying the scalar Gaussian to
its eigenvalues is deliberately not offered: truncated-x eigenvalues are
distorted and the approach is inexact in a way that is hard to bound.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    TRUNCATION_OCCUPATION_LIMIT,
    DegenerateConditioningError,
    DimensionMismatchError,
    InvalidParameterError,
    OutOfRangeError,
    TruncationOverflowError,
)
from .fock import FockState, QuadratureGrid, _gh_rule, trusted_levels

#: Densities below this are treated as degenerate conditioning, never divided by.
UNDERFLOW_DENSITY = 1e-300

#: Number of photon-number columns tabulated by default; for vacuum-like
#: inputs at dx >= 1 only the lowest few photon numbers carry any weight.
DEFAULT_N_MAX = 4

#: Ladder-row entries per chunk of outcomes (256 KiB), on every route through
#: the recurrence: a chunk's rows stay in cache however wide they are, and
#: their memory does not grow with the batch.
_CHUNK_ELEMENTS = 1 << 15

#: Kernel rows start at or above about 2**-_SEED_EXPONENT, still normal for
#: any prefactor, and are rescaled before a bound on them passes
#: _RESCALE_ABOVE.  One ladder step grows a row by at most about
#: 2 |x_m| + sqrt(dim), so the next step cannot overflow.
_SEED_EXPONENT = 900
_RESCALE_ABOVE = 2.0**500
_LN2 = math.log(2.0)


def _require_resolution(delta_x: float, source: str | None = None) -> float:
    """delta_x itself when dx^2 and kappa = 1/(4 dx^2) are finite normal floats.

    That holds for dx in about [1.49e-154, 3.35e153].  Raises
    InvalidParameterError otherwise, naming source (such as the gain the
    resolution was derived from) when one is given.
    """
    tiny = sys.float_info.min
    square = delta_x * delta_x
    if not (tiny <= square <= sys.float_info.max and tiny <= 1.0 / (4.0 * square)):
        low, high = math.sqrt(tiny), 0.5 / math.sqrt(tiny)
        given = f"delta_x {delta_x!r} is" if source is None else f"{source} gives delta_x {delta_x!r},"
        raise InvalidParameterError(
            f"{given} outside [{low:.3g}, {high:.3g}], where dx^2 and 1/(4 dx^2) "
            "are finite normal floats"
        )
    return delta_x


@dataclass(frozen=True)
class MeasurementModel:
    """Measurement resolution plus truncation dimension."""

    delta_x: float
    dim: int

    def __post_init__(self):
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 2:
            raise InvalidParameterError(f"model dim must be an integer >= 2, got {self.dim!r}")
        object.__setattr__(self, "dim", int(self.dim))
        dx = self.delta_x
        if not isinstance(dx, (int, float, np.floating)) or not np.isfinite(dx) or dx <= 0:
            raise InvalidParameterError(f"delta_x must be positive and finite, got {dx!r}")
        object.__setattr__(self, "delta_x", _require_resolution(float(dx)))

    @property
    def kappa(self) -> float:
        """Exponent coefficient 1/(4 dx^2) of the measurement kernel."""
        return 1.0 / (4.0 * self.delta_x**2)


@dataclass(frozen=True, eq=False)
class OutcomeDensityTable:
    """Outcome density sampled on a grid, with its per-photon split."""

    grid: QuadratureGrid
    density: np.ndarray
    per_photon: tuple[np.ndarray, ...]

    def __post_init__(self):
        density = np.asarray(self.density, dtype=np.float64).copy()
        if density.shape != (self.grid.count,):
            raise DimensionMismatchError("density must have one value per grid node")
        density.setflags(write=False)
        object.__setattr__(self, "density", density)
        rows = []
        for row in self.per_photon:
            row = np.asarray(row, dtype=np.float64).copy()
            if row.shape != (self.grid.count,):
                raise DimensionMismatchError("per-photon rows must match the grid")
            row.setflags(write=False)
            rows.append(row)
        object.__setattr__(self, "per_photon", tuple(rows))


def _top_level(amps: np.ndarray) -> int:
    """Highest level with a nonzero amplitude (0 for the zero vector)."""
    support = np.flatnonzero(amps)
    return int(support[-1]) if support.size else 0


def _scaled_rule(count: int, g: float) -> QuadratureGrid:
    """Gauss-Hermite rule of count nodes for integrals of exp(-g x^2) times a polynomial.

    The rule is exact for polynomial degree up to 2 count - 1.  The nodes are
    scaled by 1/sqrt(g) and the Gaussian is factored into the weights, so the
    rule integrates plain samples.  The factored weights w_k exp(u_k^2) come
    from _gh_rule, which keeps them finite where w_k itself underflows and
    raises OutOfRangeError past MAX_RULE_NODES.
    """
    scale = 1.0 / np.sqrt(g)
    u, _, factored = _gh_rule(count)
    return QuadratureGrid(scale * u, scale * factored)


def _outcome_rule(state: FockState, model: MeasurementModel) -> QuadratureGrid:
    """Gauss-Hermite rule in the outcome variable, exact for the jump integrals.

    Each |<n|P(x)|state>|^2 is exp(-g x^2) times a polynomial of degree at
    most 2 (n + top), with g = 4 kappa / (2 + kappa) and top the state's
    highest nonzero level; an extra x^2 weight adds degree 2.  N = dim + top + 2
    nodes integrate degree 2N - 1 > 2 (dim + top) exactly, so the captured
    mass, the jump probability and the correlation integral carry no
    quadrature error.  The exact integrals end at dim + top + 2 = MAX_RULE_NODES.
    """
    kappa = model.kappa
    count = model.dim + _top_level(state.amplitudes) + 2
    return _scaled_rule(count, 4.0 * kappa / (2.0 + kappa))


def _check_captured(state: FockState, model: MeasurementModel, mass: float) -> None:
    """Raise when the outcome density integrates to less than the input's squared norm."""
    if not np.isfinite(mass):
        # The ladder entries are bounded by the kernel's norm, so a non-finite
        # mass means an input left double-precision range; never pass it as small.
        raise OutOfRangeError(
            f"measurement kernel overflows at dim {model.dim}, delta_x {model.delta_x:g}"
        )
    leaked = state.norm() ** 2 - mass
    if leaked > TRUNCATION_OCCUPATION_LIMIT:
        raise TruncationOverflowError(
            f"measurement kernel leaks mass {leaked:.3e} above level {model.dim - 1} at "
            f"delta_x {model.delta_x:g}; increase the truncation dimension"
        )


def _exact_joint(state: FockState, model: MeasurementModel):
    """The exact outcome rule and |<n|P(x)|state>|^2 on its nodes, checked for leaked mass."""
    rule = _outcome_rule(state, model)
    joint = np.abs(measurement_amplitudes(state, model, rule.nodes)) ** 2
    _check_captured(state, model, rule.integrate(joint.sum(axis=1)))
    return rule, joint


def _ladder(kappa: float, x: np.ndarray, first: np.ndarray, exponent: np.ndarray):
    """Yield the rows P[n, :width], n = 0, 1, ..., of the Gaussian kernel with exponent kappa.

    x holds a batch of outcomes and first the row P[0, :width], shape
    (len(x), width), in units of 2**exponent per outcome.  Commuting the
    ladder operator through P = N exp(-kappa (x_m - x)^2) gives
    P a P^-1 = (1 + kappa/2) a + (kappa/2) a* - kappa x_m; taking <n| . |m>
    of P a = (P a P^-1) P,

        (1 + kappa/2) sqrt(n+1) P[n+1, m]
            = sqrt(m) P[n, m-1] - (kappa/2) sqrt(n) P[n-1, m] + kappa x_m P[n, m],

    one vector operation per row.  Towards the classical turning point
    n ~ x_m^2 the rows grow by up to exp(2 kappa x_m^2 / (2 + kappa)), more
    than double precision spans.  A step grows the larger of the last two
    rows by at most the factor grow, so once that bound passes
    _RESCALE_ABOVE every outcome whose last two rows pass 1 has both divided
    by a power of two, which exponent, updated in place, takes up.  Yielded
    rows are never changed.
    """
    drive = kappa * x[:, None]
    lower = 1.0 + 0.5 * kappa
    width = first.shape[1]
    shift = np.sqrt(np.arange(1.0, width))
    grow = (kappa * np.max(np.abs(x), initial=0.0) + math.sqrt(width)) / lower + 1.0
    reach = np.max(np.abs(first), initial=0.0)
    prev, row = 0.0, first
    for n in itertools.count():
        yield row
        step = drive * row - (0.5 * kappa * math.sqrt(n)) * prev
        if shift.size:  # column 0 alone has no sqrt(m) term
            step[:, 1:] += shift * row[:, :-1]
        step /= lower * math.sqrt(n + 1)
        reach *= grow
        if reach > _RESCALE_ABOVE:
            peak = np.maximum(np.max(np.abs(step), axis=1), np.max(np.abs(row), axis=1))
            high = np.flatnonzero(peak > 1.0)
            drop = np.frexp(peak[high])[1]
            step[high] = np.ldexp(step[high], -drop[:, None])
            row = row.copy()
            row[high] = np.ldexp(row[high], -drop[:, None])
            exponent[high] += drop
            reach = min(np.max(peak), 1.0)
        prev, row = row, step


def _kernel_rows(model: MeasurementModel, x: np.ndarray, width: int, squared: bool = False):
    """The rows P[n, :width] (or of the exact P^2), n = 0..dim-1, for a batch of outcomes.

    P[0, 0] = N sqrt(2 / (2 + kappa)) exp(-g) with g = 2 kappa x_m^2 / (2 + kappa)
    and N = (2 pi dx^2)^(-1/4); P^2 is the same Gaussian with kappa -> 2 kappa
    and N -> N^2.  Row 0 is column 0 (P is symmetric), which the recurrence
    builds from P[0, 0] alone since its sqrt(m) term vanishes.

    The corner underflows once g passes about 745 (|x_m| ~ 19.5 at dx 0.05)
    while the rows near the turning point are still of order one, so where
    g / ln 2 exceeds _SEED_EXPONENT the recurrence starts from the corner
    times 2**k, k = ceil(g / ln 2 - _SEED_EXPONENT), with exponent -k, and
    every row leaves scaled back by its outcome's 2**exponent.  Elsewhere the
    exponent stays 0 and the rows are the recurrence's own.
    """
    kappa = 2.0 * model.kappa if squared else model.kappa
    norm = (2.0 * np.pi * model.delta_x**2) ** (-0.5 if squared else -0.25)
    gauss = 2.0 * kappa * x * x / (2.0 + kappa)
    lift = np.ceil(np.clip(gauss / _LN2 - _SEED_EXPONENT, 0.0, 2.0**30))
    corner = norm * np.sqrt(2.0 / (2.0 + kappa)) * np.exp(lift * _LN2 - gauss)
    # int32, not int64: numpy's ldexp loop is about 15 times faster for it.
    # Past a lift of 2**30 every row is 0 anyway.
    exponent = -lift.astype(np.int32)
    column = _ladder(kappa, x, corner[:, None], exponent)
    parts, units = [], []
    for _ in range(width):
        parts.append(next(column))
        units.append(exponent.copy())
    first = np.hstack(parts)
    if np.any(units[-1] != units[0]):  # bring the columns to the last one's units
        first = np.ldexp(first, np.stack(units, axis=1) - exponent[:, None])
    for row in itertools.islice(_ladder(kappa, x, first, exponent), model.dim):
        yield np.ldexp(row, exponent[:, None]) if exponent.any() else row


def _check_outcomes(x_values) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(x_values, dtype=np.float64))
    if arr.ndim != 1:
        raise InvalidParameterError("outcome values must be scalar or 1-D")
    if not np.all(np.isfinite(arr)):
        raise InvalidParameterError("outcome values must be finite")
    return arr


def operator_batch(model: MeasurementModel, x_values, squared: bool = False) -> np.ndarray:
    """Entries of P(x) (or the exact P(x)^2) for a batch of outcomes.

    Returns an array of shape (len(x), dim, dim).
    """
    x = _check_outcomes(x_values)
    out = np.empty((x.size, model.dim, model.dim))
    chunk = max(1, _CHUNK_ELEMENTS // model.dim)
    for start in range(0, x.size, chunk):
        sl = slice(start, min(start + chunk, x.size))
        for n, row in enumerate(_kernel_rows(model, x[sl], model.dim, squared)):
            out[sl, n] = row
    return out


def measurement_amplitudes(state: FockState, model: MeasurementModel, x_values) -> np.ndarray:
    """Amplitudes <n|P(x)|state> for a batch of outcomes, shape (len(x), dim)."""
    if state.dim != model.dim:
        raise DimensionMismatchError(f"state dim {state.dim} != model dim {model.dim}")
    x = _check_outcomes(x_values)
    amps = state.amplitudes
    if np.all(amps.imag == 0.0):
        amps = amps.real
    dim = model.dim
    out = np.empty((x.size, dim), dtype=amps.dtype)
    top = _top_level(amps)
    source = amps[: top + 1]
    chunk = max(1, _CHUNK_ELEMENTS // (top + 1))
    for start in range(0, x.size, chunk):
        sl = slice(start, min(start + chunk, x.size))
        for n, row in enumerate(_kernel_rows(model, x[sl], top + 1)):
            out[sl, n] = row @ source
    return out


def outcome_density(state: FockState, model: MeasurementModel, x_m: float) -> float:
    """Probability density of outcome x_m, the squared norm of P(x_m)|state>.

    For the vacuum this is a centered Gaussian with variance dx^2 + 1/4.
    Raises TruncationOverflowError when the kernel loses more than
    TRUNCATION_OCCUPATION_LIMIT of the input above the truncation.
    """
    _exact_joint(state, model)
    amps = measurement_amplitudes(state, model, x_m)
    return float(np.sum(np.abs(amps[0]) ** 2))


def conditional_state(state: FockState, model: MeasurementModel, x_m: float) -> FockState:
    """Normalized post-measurement state P(x_m)|state> / sqrt(density).

    Raises TruncationOverflowError like outcome_density: the conditioned
    state would miss the mass the kernel sends above the truncation.
    """
    _exact_joint(state, model)
    amps = measurement_amplitudes(state, model, x_m)[0]
    density = float(np.sum(np.abs(amps) ** 2))
    if density < UNDERFLOW_DENSITY:
        raise DegenerateConditioningError(
            f"outcome density {density:.3e} at x_m={float(np.asarray(x_m)):.6g} underflows"
        )
    return FockState(amps / np.sqrt(density))


def asymptotic_p1(delta_x: float, x_m) -> np.ndarray | float:
    """Wide-kernel one-photon density for a vacuum input.

    (2 pi dx^2)^(-1/2) * x_m^2/(4 dx^2)^2 * exp(-x_m^2/(2 dx^2)); a double
    peak at x_m = +-sqrt(2) dx whose total area is 1/(16 dx^2).
    """
    if not np.isfinite(delta_x) or delta_x <= 0:
        raise InvalidParameterError(f"delta_x must be positive and finite, got {delta_x!r}")
    delta_x = float(delta_x)
    try:
        quartic = (4.0 * delta_x**2) ** 2
    except OverflowError as exc:
        raise InvalidParameterError(f"(4 dx^2)^2 overflows at delta_x {delta_x!r}") from exc
    x = np.asarray(x_m, dtype=np.float64)
    val = (
        (2.0 * np.pi * delta_x**2) ** -0.5
        * x**2
        / quartic
        * np.exp(-(x**2) / (2.0 * delta_x**2))
    )
    if np.ndim(x_m) == 0:
        return float(val)
    return val


def outcome_span(delta_x: float) -> float:
    """Half-width 6 sqrt(dx^2 + 1) of the density table's and the setup audit's outcomes."""
    return 6.0 * np.sqrt(delta_x**2 + 1.0)


def _audit_dims(model: MeasurementModel, dims) -> tuple[list[int], MeasurementModel]:
    """The audited dims (default model.dim alone) and the model at the largest of them.

    Raises InvalidParameterError for an empty list or a dim outside 2..model.dim.
    """
    dims = [model.dim] if dims is None else list(dims)
    if not dims:
        raise InvalidParameterError("no dim to audit")
    for d in dims:
        if not isinstance(d, (int, np.integer)) or not 2 <= d <= model.dim:
            raise InvalidParameterError(f"audited dim {d!r} outside 2..{model.dim}")
    dims = [int(d) for d in dims]
    return dims, MeasurementModel(model.delta_x, max(dims))


def _rule_chunks(rule: QuadratureGrid, dim: int):
    """Yield the rule's nodes and weights in chunks of _CHUNK_ELEMENTS / dim outcomes.

    A chunk's ladder row (outcomes x dim) then holds about _CHUNK_ELEMENTS
    entries, so every ladder step is one vector operation over many outcomes
    at any dim.
    """
    chunk = max(1, _CHUNK_ELEMENTS // dim)
    for start in range(0, rule.count, chunk):
        yield rule.nodes[start : start + chunk], rule.weights[start : start + chunk]


def _deviation(block: np.ndarray, levels: int) -> float:
    """Max-entry deviation of block[:levels, :levels] from the identity."""
    return float(np.max(np.abs(block[:levels, :levels] - np.eye(levels))))


def completeness_defect(model: MeasurementModel, dims=None) -> tuple[float, ...]:
    """Max-entry deviation of the integral of P^2 from the identity on the trusted subspace.

    One value per audited dim in dims (default model.dim alone), each at most
    model.dim.  Each entry P(x)^2[n, m] is exp(-g x^2) with g = 4 kappa / (2 + 2 kappa)
    times a polynomial of degree n + m <= 2 (dim - 1), so the Gauss-Hermite
    rule of dim + 1 nodes at the largest audited dim integrates every entry
    exactly: the defect is the kernel's own, with no quadrature error.  The
    integral is sum_b w_b P(x_b)^2, accumulated row by row from the ladder
    rows of a chunk of nodes, so no (nodes, dim, dim) stack is built.  The
    ladder rows are exact matrix elements of the untruncated operator, so one
    pass at the largest audited dim serves all of them: a smaller dim's
    integral is the leading block of the largest one's.
    """
    dims, top = _audit_dims(model, dims)
    kappa = top.kappa
    rule = _scaled_rule(top.dim + 1, 4.0 * kappa / (2.0 + 2.0 * kappa))
    total = np.zeros((top.dim, top.dim))
    for nodes, weights in _rule_chunks(rule, top.dim):
        for n, row in enumerate(_kernel_rows(top, nodes, top.dim, squared=True)):
            total[n] += weights @ row
    return tuple(_deviation(total, trusted_levels(d)) for d in dims)


def truncated_square_defect(model: MeasurementModel, dims=None) -> tuple[tuple[float, float], ...]:
    """Completeness defects (trusted, full) when the truncated operator matrix is squared.

    One pair per audited dim in dims (default model.dim alone), each at most
    model.dim.  Squaring the truncated matrix drops the contributions routed
    through levels above the truncation, so this defect concentrates at the
    truncation edge: large on the full space (the second value), small on the
    trusted subspace (the first) at moderate resolution.  With q_n the ladder
    row P[n, :] of a chunk of nodes scaled by sqrt(w_b), the truncated square
    at dim d integrates to sum_{n < d} q_n^T q_n restricted to its leading
    d x d block, because every P_b is symmetric.  Each product P[i, n] P[n, j]
    is exp(-g x^2) with g = 4 kappa / (2 + kappa) times a polynomial of degree
    at most 4 (dim - 1), so the rule of 2 dim nodes integrates it exactly;
    2 dim passes MAX_RULE_NODES above dim 700, where _gh_rule raises
    OutOfRangeError before any ladder work.  One ladder pass at the largest
    audited dim sums the rows between consecutive audited dims into one part
    each; a dim's integral is the sum of the parts up to it.
    """
    dims, top = _audit_dims(model, dims)
    kappa = top.kappa
    rule = _scaled_rule(2 * top.dim, 4.0 * kappa / (2.0 + kappa))
    ends = sorted(set(dims))
    part_of_row = np.searchsorted(ends, np.arange(top.dim), side="right")
    parts = np.zeros((len(ends), top.dim, top.dim))
    for nodes, weights in _rule_chunks(rule, top.dim):
        root = np.sqrt(weights)[:, None]
        for n, row in enumerate(_kernel_rows(top, nodes, top.dim)):
            q = root * row
            parts[part_of_row[n]] += q.T @ q
    totals = dict(zip(ends, np.cumsum(parts, axis=0)))
    return tuple(
        (_deviation(totals[d], trusted_levels(d)), _deviation(totals[d], d)) for d in dims
    )


def outcome_density_table(
    state: FockState,
    model: MeasurementModel,
    grid: QuadratureGrid,
    n_max: int = DEFAULT_N_MAX,
) -> OutcomeDensityTable:
    """Tabulate the outcome density and the first n_max+1 per-photon rows.

    Raises TruncationOverflowError when the kernel loses more than
    TRUNCATION_OCCUPATION_LIMIT of the input above the truncation, which
    would leave the tabulated density short of its true mass.
    """
    if not isinstance(n_max, (int, np.integer)) or not 0 <= n_max < model.dim:
        raise OutOfRangeError(f"n_max {n_max!r} outside 0..{model.dim - 1}")
    _exact_joint(state, model)
    amps = measurement_amplitudes(state, model, grid.nodes)
    joint = np.abs(amps) ** 2
    density = joint.sum(axis=1)
    per_photon = tuple(joint[:, n] for n in range(n_max + 1))
    return OutcomeDensityTable(grid=grid, density=density, per_photon=per_photon)
