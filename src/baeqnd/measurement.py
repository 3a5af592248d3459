"""Gaussian quadrature-measurement kernel on a truncated Fock space.

The measurement of the x quadrature with resolution dx at outcome x_m is
represented by the positive operator

    P(x_m) = (2 pi dx^2)^(-1/4) exp(-(x_m - x)^2 / (4 dx^2)),

a Gaussian function of the quadrature operator x.  Squaring it gives the
outcome probability density of an input state, and its action followed by
normalization gives the conditional post-measurement state.

Each matrix element <n|P(x_m)|m> is a Gaussian-Hermite integral.
Completing the square analytically reduces it to the integral of a
polynomial of degree n+m against exp(-u^2), which a Gauss-Hermite rule with
dim nodes evaluates exactly, so every result is exact up to floating point.
The rule (_gh_rule) is built here from numpy alone: Golub-Welsch nodes, the
eigenvalues of the Hermite Jacobi matrix polished by one Newton step, and
Christoffel weights summed over the same orthonormal levels, with the
Gaussian factored out so they stay finite for rules of a thousand nodes.
The Hermite levels come from the single recurrence in :mod:`baeqnd.fock`.
There are two routes through the kernel.  operator_batch builds the matrices
P(x) (or the exact squares P(x)^2) for a batch of outcomes from a factor
table as M M^T with a positive prefactor, symmetric positive semidefinite by
construction.  The completeness audits read the same factor tables a chunk of
outcomes at a time and integrate over the grid with one GEMM per chunk
(F F^T of the P^2 factors, Q^T Q of the stacked P matrices), so no
(grid count, dim, dim) stack is ever built.  measurement_amplitudes gives
<n|P(x)|state> for a batch of outcomes without forming a matrix: it streams
the levels twice, once to contract the state (up to its last nonzero level)
and once to project onto every level.  Densities, conditional states, the
density table, the sampler and the jump integrals all read it.

The squared amplitudes are in turn a Gaussian times a polynomial in x_m, so
integrals over the outcome have an exact Gauss-Hermite rule too
(_outcome_rule).  It measures the mass the kernel loses above the
truncation, which outcome_density, conditional_state, the density table and
the jump integrals refuse above TRUNCATION_OCCUPATION_LIMIT.

Diagonalizing the truncated x operator and applying the scalar Gaussian to
its eigenvalues is deliberately not offered: truncated-x eigenvalues are
distorted and the approach is inexact in a way that is hard to bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    TRUNCATION_OCCUPATION_LIMIT,
    DegenerateConditioningError,
    DimensionMismatchError,
    GridTooNarrowError,
    InvalidParameterError,
    OutOfRangeError,
    TruncationOverflowError,
)
from .fock import FockState, QuadratureGrid, _hermite_levels, trusted_levels

#: Densities below this are treated as degenerate conditioning, never divided by.
UNDERFLOW_DENSITY = 1e-300

#: Number of photon-number columns tabulated by default; for vacuum-like
#: inputs at dx >= 1 only the lowest few photon numbers carry any weight.
DEFAULT_N_MAX = 4

_CHUNK_ELEMENTS = 4_000_000

#: Factor-table entries per chunk of the completeness audits (2 MiB, about a
#: core's L2 cache), so their memory does not grow with the grid.
_AUDIT_CHUNK_ELEMENTS = 1 << 18


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
        object.__setattr__(self, "delta_x", float(dx))

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


@lru_cache(maxsize=64)
def _gh_rule(count: int):
    """Gauss-Hermite rule for the weight exp(-u^2): nodes u, weights w, factored w exp(u^2).

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    orthonormal Hermite recurrence (off-diagonal sqrt(k/2)), polished by one
    Newton step on h_count (h_count' = sqrt(2 count) h_{count-1}) and made
    exactly antisymmetric.  The weights come in Christoffel form,
    w_k = 1 / sum_j h_j(u_k)^2 over the count orthonormal levels, with the
    Gaussian factored out: exp(u_k^2) w_k = 1 / sum_j (h_j(u_k) exp(-u_k^2 / 2))^2
    stays finite where w_k itself underflows (count above ~360).  The levels
    run on a quarter Gaussian, squared once more, so neither the recurrence
    overflows nor its seed underflows below count ~1400.
    """
    off = np.sqrt(np.arange(1.0, count) / 2.0)
    u = np.linalg.eigvalsh(np.diag(off, -1))
    *_, before, last = _hermite_levels(count + 1, u, np.exp(-0.25 * u * u))
    u = u - last / (np.sqrt(2.0 * count) * before)
    u = 0.5 * (u - u[::-1])
    quarter = np.exp(-0.25 * u * u)
    factored = 1.0 / sum((level * quarter) ** 2 for level in _hermite_levels(count, u, quarter))
    w = factored * np.exp(-u * u)
    for arr in (u, w, factored):
        arr.setflags(write=False)
    return u, w, factored


def _top_level(amps: np.ndarray) -> int:
    """Highest level with a nonzero amplitude (0 for the zero vector)."""
    support = np.flatnonzero(amps)
    return int(support[-1]) if support.size else 0


def _outcome_rule(state: FockState, model: MeasurementModel) -> QuadratureGrid:
    """Gauss-Hermite rule in the outcome variable, exact for the jump integrals.

    Each |<n|P(x)|state>|^2 is exp(-g x^2) times a polynomial of degree at
    most 2 (n + top), with g = 4 kappa / (2 + kappa) and top the state's
    highest nonzero level; an extra x^2 weight adds degree 2.  N = dim + top + 2
    nodes integrate degree 2N - 1 > 2 (dim + top) exactly, so the captured
    mass, the jump probability and the correlation integral carry no
    quadrature error.  The nodes are scaled by 1/sqrt(g) and the Gaussian is
    factored into the weights, so the rule integrates plain samples.

    The factored weights w_k exp(u_k^2) come from _gh_rule, which keeps them
    finite where w_k itself underflows.
    """
    kappa = model.kappa
    scale = 1.0 / np.sqrt(4.0 * kappa / (2.0 + kappa))
    count = model.dim + _top_level(state.amplitudes) + 2
    u, _, factored = _gh_rule(count)
    return QuadratureGrid(scale * u, scale * factored)


def _check_captured(state: FockState, model: MeasurementModel, mass: float) -> None:
    """Raise when the outcome density integrates to less than the input's squared norm."""
    if not np.isfinite(mass):
        # The kernel's recurrence overflows at extreme outcomes once dim reaches ~600.
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


def _closed_form_factors(model: MeasurementModel, x_values: np.ndarray, squared: bool = False):
    """Factor matrix G and prefactor c with <n|P(x_b)|m> = c * (G_b G_b^T)_{nm}.

    Completing the square in the position integral leaves the weight
    exp(-alpha (x - x0)^2) with alpha = 2 + kappa and x0 = kappa x_m / alpha,
    plus the constant exp(-2 kappa x_m^2 / alpha), split evenly between the
    two factors of G so extreme outcomes underflow gracefully instead of
    overflowing.

    With squared=True the exact operator P^2 is built instead: the same
    Gaussian with doubled exponent, kappa -> 2 kappa, and squared prefactor.
    """
    dim = model.dim
    kappa = 2.0 * model.kappa if squared else model.kappa
    alpha = 2.0 + kappa
    u, w, _ = _gh_rule(dim)
    x0 = kappa * x_values / alpha
    xi = np.sqrt(2.0) * (x0[:, None] + u[None, :] / np.sqrt(alpha))
    half_const = np.exp(-kappa * x_values**2 / alpha)
    rows = np.empty((dim,) + xi.shape)
    for n, level in enumerate(_hermite_levels(dim, xi, half_const[:, None])):
        rows[n] = level
    rows *= np.sqrt(w)[None, None, :]
    norm = (2.0 * np.pi * model.delta_x**2) ** (-0.5 if squared else -0.25)
    pref = norm * np.sqrt(2.0 / alpha)
    return rows, pref


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
    chunk = max(1, _CHUNK_ELEMENTS // (model.dim * model.dim))
    for start in range(0, x.size, chunk):
        sl = slice(start, min(start + chunk, x.size))
        rows, pref = _closed_form_factors(model, x[sl], squared)
        np.einsum("nbk,mbk->bnm", rows, rows, optimize=True, out=out[sl])
        out[sl] *= pref
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

    kappa = model.kappa
    alpha = 2.0 + kappa
    u, w, _ = _gh_rule(dim)
    pref = (2.0 * np.pi * model.delta_x**2) ** -0.25 * np.sqrt(2.0 / alpha)
    chunk = max(1, _CHUNK_ELEMENTS // dim)
    for start in range(0, x.size, chunk):
        sl = slice(start, min(start + chunk, x.size))
        xb = x[sl]
        xi = np.sqrt(2.0) * ((kappa * xb / alpha)[:, None] + u[None, :] / np.sqrt(alpha))
        seed = np.exp(-kappa * xb**2 / alpha)[:, None]
        # Contract the state: sum_n amps[n] * seed * h_n(xi), skipping the
        # zero amplitudes and stopping at the last nonzero one.
        levels = _hermite_levels(top + 1, xi, seed)
        contracted = amps[0] * next(levels)
        for n, level in enumerate(levels, start=1):
            if amps[n] != 0.0:
                contracted = contracted + amps[n] * level
        source = contracted * (w[None, :] * seed)
        # Project onto every level; the seed is already folded into source.
        for n, level in enumerate(_hermite_levels(dim, xi, 1.0)):
            out[sl, n] = pref * (level * source).sum(axis=1)
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
    x = np.asarray(x_m, dtype=np.float64)
    val = (
        (2.0 * np.pi * delta_x**2) ** -0.5
        * x**2
        / (4.0 * delta_x**2) ** 2
        * np.exp(-(x**2) / (2.0 * delta_x**2))
    )
    if np.ndim(x_m) == 0:
        return float(val)
    return val


def completeness_required_span(model: MeasurementModel) -> float:
    """Grid half-width needed for the completeness integral at this dim."""
    return 6.0 * np.sqrt(model.delta_x**2 + model.dim)


def _audit_chunks(model: MeasurementModel, grid: QuadratureGrid):
    """Yield the grid's nodes and square-root weights, _AUDIT_CHUNK_ELEMENTS / dim^2 outcomes at a time.

    Raises GridTooNarrowError, before the first chunk, when the grid does not
    cover 6 sigma of every trusted level's outcome distribution.
    """
    required = completeness_required_span(model)
    if grid.span < required:
        raise GridTooNarrowError(
            f"grid span {grid.span:.3g} < required {required:.3g} "
            f"(use span >= 6*sqrt(delta_x^2 + dim))"
        )
    chunk = max(1, _AUDIT_CHUNK_ELEMENTS // model.dim**2)
    for start in range(0, grid.count, chunk):
        yield grid.nodes[start : start + chunk], np.sqrt(grid.weights[start : start + chunk])


def completeness_defect(model: MeasurementModel, grid: QuadratureGrid) -> float:
    """Max-entry deviation of the integral of P^2 from the identity on the trusted subspace.

    Uses the exact squared kernel, so the only error sources are the grid
    (span and spacing) and the wavefunction tails of each level.  P(x_b)^2 is
    c G_b G_b^T, so the integral is c F F^T with F the squared-kernel factor
    tables scaled by sqrt(w_b) and laid side by side as (dim, chunk * dim):
    one GEMM per chunk of outcomes, and no (grid.count, dim, dim) stack.
    Raises GridTooNarrowError when the grid does not cover 6 sigma of every
    trusted level's outcome distribution.
    """
    dim = model.dim
    total = np.zeros((dim, dim))
    for nodes, root in _audit_chunks(model, grid):
        rows, pref = _closed_form_factors(model, nodes, squared=True)
        rows *= root[None, :, None]
        factor = rows.reshape(dim, -1)
        total += pref * (factor @ factor.T)
    t = trusted_levels(dim)
    return float(np.max(np.abs(total[:t, :t] - np.eye(t))))


def truncated_square_defect(model: MeasurementModel, grid: QuadratureGrid) -> tuple[float, float]:
    """Completeness defects (trusted, full) when the truncated operator matrix is squared.

    Squaring the truncated matrix drops the contributions routed through
    levels above the truncation, so this defect concentrates at the
    truncation edge: large on the full space (the second value), small on the
    trusted subspace (the first) at moderate resolution.  Both come from one
    integral: the operator_batch matrices of a chunk of outcomes, scaled by
    sqrt(w_b) and stacked as Q of shape (chunk * dim, dim), give
    Q^T Q = sum_b w_b P_b P_b because every P_b is symmetric.
    Raises GridTooNarrowError like completeness_defect.
    """
    dim = model.dim
    total = np.zeros((dim, dim))
    for nodes, root in _audit_chunks(model, grid):
        ops = operator_batch(model, nodes)
        ops *= root[:, None, None]
        stacked = ops.reshape(-1, dim)
        total += stacked.T @ stacked
    deviation = np.abs(total - np.eye(dim))
    t = trusted_levels(dim)
    return float(np.max(deviation[:t, :t])), float(np.max(deviation))


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
