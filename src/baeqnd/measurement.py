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
prefactor.  The recurrence takes a Gaussian triple (_Gaussian), so the
kernel, its square and the setup circuit's read-out (setup_model) share the
seed lift, the power-of-two units and the chunks.

There are two routes through the recurrence.  operator_batch fills whole rows
of P(x) (or of P(x)^2) for a batch of outcomes; the completeness audits read
the same rows a chunk of rule nodes at a time (sum_b w_b P(x_b)^2 row by row,
and sum_n q_n^T q_n over the weighted rows q_n for the squared truncated
matrix), so no (nodes, dim, dim) stack is ever built.  The rows do not
depend on the truncation, so one pass at the largest audited dim gives every
smaller dim's integrals as leading blocks.  measurement_amplitudes gives
<n|P(x)|state> without forming a matrix: it runs the recurrence on the
columns 0..top only, top the state's last nonzero level, and contracts them
with the state, at cost O(count dim (top + 1)).  Densities, conditional
states, outcome_density_table and the jump integrals read it through
_exact_joint, the sampler through _amplitude_levels, and the circuit reads
its own triple through _levels, the contraction both share.
_amplitude_levels fills a level-major (dim, count) buffer, level n as one
contiguous row np.dot(rows, state) (a strided column of a (count, dim) array
costs several times the recurrence), and the sampler keeps that layout: its
photon CDF is one vector add per level, in place, and a shot's draw reads
two adjacent entries per level.  measurement_amplitudes returns one
C-ordered (count, dim) copy of the buffer's transpose.  That C-row order now
serves only the density sums: numpy sums the rows of a Fortran-ordered array
in another order, so a transposed view would round every density, and with
it every sampled outcome and payload, differently.  The sampler sums its
nodes' levels on C-ordered (node, level) copies of blocks of its table for
the same reason.

Every entry of the kernel, of its square and of the squared amplitudes is a
Gaussian times a polynomial in x_m, so every integral over the outcome has an
exact Gauss-Hermite rule.  _scaled_rule, the one rule builder (the circuit's
guard and calibration use it too), returns it as plain arrays (nodes,
weights), built from numpy alone (fock._gh_rule) and limited to
fock.MAX_RULE_NODES nodes; an integral is values @ weights.  The outcome rule
(_outcome_rule) measures the mass the kernel loses above the truncation,
which every guarded read refuses above TRUNCATION_OCCUPATION_LIMIT.
_exact_joint, the one caller of measurement_amplitudes, makes a guarded read
one ladder pass, the requested outcomes first and the rule's nodes last, as
the circuit reads its guard rule with its raw values.  The completeness
audits integrate on rules of dim + 1 nodes (the exact P^2) and 2 dim nodes
(the truncated square), so they carry no quadrature error and end at dim 700.

Diagonalizing the truncated x operator and applying the scalar Gaussian to
its eigenvalues is deliberately not offered: truncated-x eigenvalues are
distorted and the approach is inexact in a way that is hard to bound.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    TRUNCATION_OCCUPATION_LIMIT,
    DegenerateConditioningError,
    DimensionMismatchError,
    InvalidParameterError,
    OutOfRangeError,
    TruncationOverflowError,
)
from .fock import FockState, _finite_reals, _gh_rule, _integer, _real, trusted_levels

#: Densities below this are treated as degenerate conditioning, never divided by.
UNDERFLOW_DENSITY = 1e-300

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
        object.__setattr__(self, "dim", _integer(self.dim, "model dim", 2))
        dx = _require_resolution(_real(self.delta_x, "delta_x", above=0.0))
        object.__setattr__(self, "delta_x", dx)

    @property
    def kappa(self) -> float:
        """Exponent coefficient 1/(4 dx^2) of the measurement kernel."""
        return 1.0 / (4.0 * self.delta_x**2)


def _top_level(amps: np.ndarray) -> int:
    """Highest level with a nonzero amplitude (0 for the zero vector)."""
    support = np.flatnonzero(amps)
    return int(support[-1]) if support.size else 0


def _scaled_rule(count: int, g: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite rule (nodes, weights) of count nodes for exp(-g x^2) times a polynomial.

    The rule is exact for polynomial degree up to 2 count - 1.  The nodes are
    scaled by 1/sqrt(g) and the Gaussian is factored into the weights, so
    values @ weights integrates plain samples at the nodes.  The factored
    weights w_k exp(u_k^2) come from _gh_rule, which keeps them finite where
    w_k itself underflows and raises OutOfRangeError past MAX_RULE_NODES.
    """
    scale = 1.0 / np.sqrt(g)
    u, factored = _gh_rule(count)
    return scale * u, scale * factored


def _outcome_rule(state: FockState, model: MeasurementModel) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite rule (nodes, weights) in the outcome variable, exact for the jump integrals.

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


def _exact_joint(state: FockState, model: MeasurementModel, x_values=()):
    """(nodes, weights, joint, amps): outcome rule, |<n|P(x)|state>|^2 on it, amps at x_values.

    One kernel read takes the requested outcomes first, so they keep their
    chunks, and the rule's nodes last.  Raises like _check_captured when the
    joint misses mass above the truncation.
    """
    x = _check_outcomes(x_values)
    nodes, weights = _outcome_rule(state, model)
    rows = measurement_amplitudes(state, model, np.concatenate([x, nodes]))
    joint = np.abs(rows[x.size :]) ** 2
    _check_captured(state, model, joint.sum(axis=1) @ weights)
    return nodes, weights, joint, rows[: x.size]


class _Gaussian(NamedTuple):
    """A Gaussian operator G(x) on the Fock levels: its recurrence and its corner G[0, 0].

    lower sqrt(n+1) G[n+1, m] = drive[0] x G[n, m] + diag[0] sqrt(n) G[n-1, m]
    + cross sqrt(m) G[n, m-1] along the rows (s, the output level n), the same
    in m with drive[1] and diag[1] along the columns (t, the input level m),
    |diag| <= lower, and G[0, 0] = norm exp(-gauss[0] x^2 / gauss[1]).
    """

    lower: float
    diag: tuple[float, float]
    drive: tuple[float, float]
    cross: float
    norm: float
    gauss: tuple[float, float]


def _kernel_gaussian(model: MeasurementModel, squared: bool = False) -> _Gaussian:
    """The triple of P (or of P^2), symmetric, in the form its rows have always rounded in."""
    kappa = 2.0 * model.kappa if squared else model.kappa
    norm = (2.0 * np.pi * model.delta_x**2) ** (-0.5 if squared else -0.25)
    diag = -0.5 * kappa
    return _Gaussian(1.0 + 0.5 * kappa, (diag, diag), (kappa, kappa), 1.0,
                     norm * np.sqrt(2.0 / (2.0 + kappa)), (2.0 * kappa, 2.0 + kappa))


def _ladder(gaussian: _Gaussian, axis: int, x: np.ndarray, first: np.ndarray, exponent: np.ndarray):
    """Yield G[0, :width], G[1, :width], ... along axis 0 (rows) or 1 (columns, at width 1).

    first is the starting row for the batch of outcomes x, shape (len(x),
    width), in units of 2**exponent per outcome; each step is one vector
    operation.  Towards the turning point the rows grow by more than double
    precision spans.  A step grows the larger of the last two rows by at most
    the factor grow, so once that bound passes _RESCALE_ABOVE every outcome
    whose last two rows pass 1 has both divided by a power of two, which
    exponent, updated in place, takes up.  Yielded rows are never changed.
    """
    lower, diag, cross = gaussian.lower, gaussian.diag[axis], gaussian.cross
    drive = gaussian.drive[axis] * x[:, None]
    width = first.shape[1]
    shift = cross * np.sqrt(np.arange(1.0, width))
    grow = ((abs(gaussian.drive[axis]) * np.max(np.abs(x), initial=0.0)
             + abs(cross) * math.sqrt(width)) / lower + 1.0)
    reach = np.max(np.abs(first), initial=0.0)
    prev, row = 0.0, first
    for n in itertools.count():
        yield row
        step = drive * row + (diag * math.sqrt(n)) * prev
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


def _kernel_rows(gaussian: _Gaussian, x: np.ndarray, width: int, count: int):
    """The rows G[n, :width], n = 0..count-1, of a Gaussian operator for a batch of outcomes.

    Row 0 comes from the corner by the column recurrence (at width 1 its
    sqrt(n) term vanishes), the rows from row 0.  The corner underflows once
    its exponent g passes about 745 (|x_m| ~ 19.5 for the kernel at dx 0.05)
    while the rows near the turning point are of order one, so where
    g / ln 2 exceeds _SEED_EXPONENT the recurrence starts from the corner
    times 2**k, k = ceil(g / ln 2 - _SEED_EXPONENT), with exponent -k, and
    every row leaves scaled back by its outcome's 2**exponent.
    """
    with np.errstate(over="ignore"):  # an infinite g lifts the outcome to 2**30 below
        gauss = gaussian.gauss[0] * x * x / gaussian.gauss[1]
    lift = np.ceil(np.clip(gauss / _LN2 - _SEED_EXPONENT, 0.0, 2.0**30))
    corner = gaussian.norm * np.exp(lift * _LN2 - gauss)
    # int32, not int64: numpy's ldexp loop is about 15 times faster for it.
    # Past a lift of 2**30 every row is 0 anyway, so its ladder runs at x_m = 0.
    exponent = -lift.astype(np.int32)
    x = np.where(lift < 2.0**30, x, 0.0)
    column = _ladder(gaussian, 1, x, corner[:, None], exponent)
    parts, units = [], []
    for _ in range(width):
        parts.append(next(column))
        units.append(exponent.copy())
    first = np.hstack(parts)
    if np.any(units[-1] != units[0]):  # bring the columns to the last one's units
        first = np.ldexp(first, np.stack(units, axis=1) - exponent[:, None])
    for row in itertools.islice(_ladder(gaussian, 0, x, first, exponent), count):
        yield np.ldexp(row, exponent[:, None]) if exponent.any() else row


def _check_outcomes(x_values) -> np.ndarray:
    arr = np.atleast_1d(_finite_reals(x_values, "outcome values"))
    if arr.ndim != 1:
        raise InvalidParameterError("outcome values must be scalar or 1-D")
    return arr


def _chunks(count: int, width: int):
    """Yield slices of range(count) of about _CHUNK_ELEMENTS / width outcomes each.

    A chunk's ladder row (outcomes x width) then holds about _CHUNK_ELEMENTS
    entries, so every ladder step is one vector operation over many outcomes
    at any width.
    """
    chunk = max(1, _CHUNK_ELEMENTS // width)
    for start in range(0, count, chunk):
        yield slice(start, min(start + chunk, count))


def operator_batch(model: MeasurementModel, x_values, squared: bool = False) -> np.ndarray:
    """Entries of P(x) (or the exact P(x)^2) for a batch of outcomes.

    Returns an array of shape (len(x), dim, dim).
    """
    x = _check_outcomes(x_values)
    gaussian = _kernel_gaussian(model, squared)
    out = np.empty((x.size, model.dim, model.dim))
    for sl in _chunks(x.size, model.dim):
        for n, row in enumerate(_kernel_rows(gaussian, x[sl], model.dim, model.dim)):
            out[sl, n] = row
    return out


def _amplitude_levels(state: FockState, model: MeasurementModel, x_values) -> np.ndarray:
    """Amplitudes <n|P(x)|state> for a batch of outcomes, level-major: shape (dim, len(x))."""
    if state.dim != model.dim:
        raise DimensionMismatchError(f"state dim {state.dim} != model dim {model.dim}")
    return _levels(_kernel_gaussian(model), state, _check_outcomes(x_values))


def _levels(gaussian: _Gaussian, state: FockState, x: np.ndarray) -> np.ndarray:
    """<n|G(x)|state>, n < state.dim, level-major: shape (state.dim, len(x)).

    The rows run on the columns 0..top only, top the state's last nonzero
    level; real when the state's amplitudes are, complex otherwise.
    """
    amps = state.amplitudes
    if np.all(amps.imag == 0.0):
        amps = amps.real
    levels = np.empty((state.dim, x.size), dtype=amps.dtype)
    top = _top_level(amps)
    source = amps[: top + 1]
    for sl in _chunks(x.size, top + 1):
        for n, row in enumerate(_kernel_rows(gaussian, x[sl], top + 1, state.dim)):
            levels[n, sl] = np.dot(row, source)
    return levels


def measurement_amplitudes(state: FockState, model: MeasurementModel, x_values) -> np.ndarray:
    """Amplitudes <n|P(x)|state> for a batch of outcomes, shape (len(x), dim), C-ordered."""
    return np.ascontiguousarray(_amplitude_levels(state, model, x_values).T)


def outcome_density(state: FockState, model: MeasurementModel, x_m: float) -> float:
    """Probability density of outcome x_m, the squared norm of P(x_m)|state>.

    For the vacuum this is a centered Gaussian with variance dx^2 + 1/4.
    Raises TruncationOverflowError when the kernel loses more than
    TRUNCATION_OCCUPATION_LIMIT of the input above the truncation, and
    InvalidParameterError unless x_m is a scalar.
    """
    amps = _exact_joint(state, model, _real(x_m, "x_m"))[3][0]
    return float(np.sum(np.abs(amps) ** 2))


def conditional_state(state: FockState, model: MeasurementModel, x_m: float) -> FockState:
    """Normalized post-measurement state P(x_m)|state> / sqrt(density).

    Raises like outcome_density: the conditioned state would miss the mass
    the kernel sends above the truncation.
    """
    amps = _exact_joint(state, model, _real(x_m, "x_m"))[3][0]
    density = float(np.sum(np.abs(amps) ** 2))
    if density < UNDERFLOW_DENSITY:
        raise DegenerateConditioningError(
            f"outcome density {density:.3e} at x_m={float(x_m):.6g} underflows"
        )
    return FockState(amps / np.sqrt(density))


def asymptotic_p1(delta_x: float, x_m) -> np.ndarray | float:
    """Wide-kernel one-photon density for a vacuum input.

    (2 pi dx^2)^(-1/2) * x_m^2/(4 dx^2)^2 * exp(-x_m^2/(2 dx^2)); a double
    peak at x_m = +-sqrt(2) dx whose total area is 1/(16 dx^2).
    """
    delta_x = _require_resolution(_real(delta_x, "delta_x", above=0.0))
    try:
        quartic = (4.0 * delta_x**2) ** 2
    except OverflowError:
        quartic = math.inf
    if not sys.float_info.min <= quartic < math.inf:
        raise InvalidParameterError(f"(4 dx^2)^2 overflows or underflows at delta_x {delta_x!r}")
    x = _finite_reals(x_m, "x_m")
    with np.errstate(over="ignore", invalid="ignore"):  # x^2 / (4 dx^2)^2 where exp gives 0
        gauss = np.exp(-(x**2) / (2.0 * delta_x**2))
        val = (2.0 * np.pi * delta_x**2) ** -0.5 * x**2 / quartic * gauss
    val = np.where(gauss == 0.0, 0.0, val)
    if np.ndim(x_m) == 0:
        return float(val)
    return val


def outcome_span(delta_x: float) -> float:
    """Half-width 6 sqrt(dx^2 + 1) of the density table's and the setup audit's outcomes."""
    return 6.0 * np.sqrt(delta_x**2 + 1.0)


def _audit_dims(model: MeasurementModel, dims) -> tuple[list[int], MeasurementModel]:
    """The audited dims (default model.dim alone) and the model at the largest of them.

    Raises InvalidParameterError for dims not a list, empty, or with a dim outside 2..model.dim.
    """
    try:
        dims = [model.dim] if dims is None else list(dims)
    except TypeError as exc:
        raise InvalidParameterError(f"dims must be a list of dims, got {dims!r}") from exc
    if not dims:
        raise InvalidParameterError("no dim to audit")
    dims = [_integer(d, "audited dim", 2, model.dim) for d in dims]
    return dims, MeasurementModel(model.delta_x, max(dims))


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
    nodes, weights = _scaled_rule(top.dim + 1, 4.0 * kappa / (2.0 + 2.0 * kappa))
    gaussian = _kernel_gaussian(top, squared=True)
    total = np.zeros((top.dim, top.dim))
    for sl in _chunks(nodes.size, top.dim):
        for n, row in enumerate(_kernel_rows(gaussian, nodes[sl], top.dim, top.dim)):
            total[n] += weights[sl] @ row
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
    nodes, weights = _scaled_rule(2 * top.dim, 4.0 * kappa / (2.0 + kappa))
    ends = sorted(set(dims))
    part_of_row = np.searchsorted(ends, np.arange(top.dim), side="right")
    parts = np.zeros((len(ends), top.dim, top.dim))
    gaussian = _kernel_gaussian(top)
    for sl in _chunks(nodes.size, top.dim):
        root = np.sqrt(weights[sl])[:, None]
        for n, row in enumerate(_kernel_rows(gaussian, nodes[sl], top.dim, top.dim)):
            q = root * row
            parts[part_of_row[n]] += q.T @ q
    totals = dict(zip(ends, np.cumsum(parts, axis=0)))
    return tuple(
        (_deviation(totals[d], trusted_levels(d)), _deviation(totals[d], d)) for d in dims
    )


def outcome_density_table(state: FockState, model: MeasurementModel, x_values) -> np.ndarray:
    """The joint table |<n|P(x)|state>|^2 at the outcomes x, shape (len(x), dim).

    A row sums to the outcome density at its outcome, and column n is the
    density of outcome and photon number n.  Raises TruncationOverflowError
    when the kernel loses more than TRUNCATION_OCCUPATION_LIMIT of the input
    above the truncation, which would leave the tabulated density short of
    its true mass.
    """
    return np.abs(_exact_joint(state, model, x_values)[3]) ** 2
