"""Independent reference implementations used as test oracles.

Everything here is computed by a different route than the library: explicit
Hermite polynomials from scipy.special instead of the in-package recurrence,
adaptive quadrature instead of Gauss-Hermite rules, scipy's Pade matrix
exponential of a full generator instead of per-sector rotations, per-sector
rotations instead of the circuit's point map, and closed-form
Gaussian integrals worked out by completing the square.  Values asserted in the tests
are frozen from these, never from the code under test.
fidelity, is_hermitian and quadrature_y are helpers only the tests need.
trapezoid_grid is the uniform trapezoid grid, (nodes, weights), on the
np.linspace nodes that distribution tabulates on, for the tests' own
uniform-grid integrals.
ladder, quadrature_x and number_operator are the dense truncated matrices
the library used to build, and operator_correlation_dense is its matrix
route for the operator-ordering correlation, kept as the reference for the
library's ladder action on the amplitude vector.
completeness_integrals_stacked is the completeness audit's whole-grid
route, and grid_audit_defects the uniform-grid route the audits took before
their exact Gauss-Hermite rules (2001 nodes over 6 sqrt(dx^2 + dim) by
default), kept as the reference for those rules.  kernel_factor_tables is
the Gauss-Hermite factor-table route the library's kernel used before its
Fock-ladder recurrence, kept as the reference for that recurrence.
amplitudes_column_fill is measurement_amplitudes' row-major fill, one
strided column per ladder row, kept as the reference for its level-major fill.
guarded_read_two_pass is the guarded kernel read's earlier route, the leak
guard on the outcome rule in one kernel call and the requested outcomes in a
second, kept as the reference for the read that does both in one pass.
photon_draw_interpolated is the O(dim) photon draw the sampler used before
its bisection on the cumulative table, kept as the reference for that
bisection.  sampler_reference is run_experiment's earlier route, a
(count, dim) joint table from measurement_amplitudes, its cumulative sum
along each row, the cell found by search and bisection over the levels for
every shot, kept as the byte-for-byte reference for the sampler that reads
the kernel's level-major rows.  rowform_payload_texts is the envelope writer's row-by-row route
(one json dump of the row payload, then one formatting call per CSV cell),
the reference for the writer that formats each row once from the columns.
SpongeCircuit is the circuit route the library used before its Gaussian Fock
recurrence, since replaced by the point map (beam-splitter rotations per
photon-number sector and squeezer rotations per parity chain, each from one
eigh, on a padded working space, read out through the homodyne's
wavefunction table), kept as the reference for the point map; rotation,
sector_blocks, apply_sectors and squeeze_matrix are its parts, checked
against scipy's expm.
swapped_arms gives the Bogoliubov map of the circuit with its two amplifier
arms exchanged, the negative control of the setup audits.
"""

import json
import math

import numpy as np
from scipy.integrate import quad
from scipy.linalg import expm
from scipy.special import eval_hermite, roots_hermite

from baeqnd.errors import (
    TRUNCATION_OCCUPATION_LIMIT,
    DegenerateConditioningError,
    InvalidParameterError,
    TruncationOverflowError,
)
from baeqnd.fock import FockState, trusted_levels, wavefunction_table
from baeqnd.jumps import SAMPLING_GRID_COUNT, SHARD_SIZE, sampling_span
from baeqnd.measurement import (
    _CHUNK_ELEMENTS,
    MeasurementModel,
    _kernel_rows,
    _outcome_rule,
    _top_level,
    measurement_amplitudes,
    operator_batch,
)


def psi_reference(n: int, x):
    """psi_n(x) = (2/pi)^(1/4) (2^n n!)^(-1/2) H_n(sqrt(2) x) exp(-x^2)."""
    x = np.asarray(x, dtype=float)
    norm = math.sqrt(2.0**n * math.factorial(n))
    return (2.0 / np.pi) ** 0.25 * eval_hermite(n, np.sqrt(2.0) * x) * np.exp(-x * x) / norm


def trapezoid_grid(span: float, count: int) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, weights) over [-span, span]: np.linspace nodes, trapezoid weights summing to 2 span."""
    nodes = np.linspace(-span, span, count)
    step = 2.0 * span / (count - 1)
    weights = np.full(count, step)
    weights[0] = weights[-1] = step / 2.0
    return nodes, weights


def kernel_element_quad(n: int, m: int, delta_x: float, x_m: float) -> float:
    """<n|P(x_m)|m> by adaptive quadrature of the position-space integral."""
    kappa = 1.0 / (4.0 * delta_x**2)
    pref = (2.0 * np.pi * delta_x**2) ** -0.25

    def integrand(x):
        return psi_reference(n, x) * psi_reference(m, x) * np.exp(-kappa * (x - x_m) ** 2)

    val, _ = quad(integrand, -np.inf, np.inf, limit=400)
    return pref * val


def kernel_operator_dense(dim: int, delta_x: float, x_m: float, count: int = 4001) -> np.ndarray:
    """Matrix <n|P(x_m)|m>, n, m < dim, by the trapezoid rule on a dense uniform grid."""
    span = np.sqrt(dim - 0.5) + 8.0
    x = np.linspace(-span, span, count)
    weights = np.full(count, x[1] - x[0])
    weights[0] = weights[-1] = weights[1] / 2.0
    table = np.array([psi_reference(n, x) for n in range(dim)])
    kernel = np.exp(-((x - x_m) ** 2) / (4.0 * delta_x**2))
    pref = (2.0 * np.pi * delta_x**2) ** -0.25
    return pref * (table * (kernel * weights)) @ table.T


def kernel_factor_tables(model, x_values, squared: bool = False) -> np.ndarray:
    """Stack of the matrices <n|P(x_b)|m> (or of P(x_b)^2), shape (len(x), dim, dim).

    Completing the square in the position integral leaves the weight
    exp(-alpha (x - x0)^2), alpha = 2 + kappa, x0 = kappa x_m / alpha, times
    the constant exp(-2 kappa x_m^2 / alpha), split evenly between the two
    factors.  psi_n psi_m is then a polynomial of degree n + m < 2 dim, which
    scipy's dim-node Gauss-Hermite rule integrates exactly, so
    P(x_b) = c G_b G_b^T with G_b[n, k] = sqrt(w_k) h_n(xi_bk) exp(-kappa x_b^2 / alpha)
    from the orthonormal Hermite recurrence.  P^2 is the same Gaussian with
    kappa -> 2 kappa and the squared prefactor.  The levels overflow near
    dim 600, so keep dim in the low hundreds.
    """
    dim = model.dim
    kappa = (2.0 if squared else 1.0) / (4.0 * model.delta_x**2)
    alpha = 2.0 + kappa
    u, w = roots_hermite(dim)
    x = np.atleast_1d(np.asarray(x_values, dtype=float))
    xi = np.sqrt(2.0) * (kappa * x[:, None] / alpha + u[None, :] / np.sqrt(alpha))
    levels = np.empty((dim,) + xi.shape)
    levels[0] = np.pi**-0.25 * np.exp(-kappa * x**2 / alpha)[:, None]
    levels[1] = np.sqrt(2.0) * xi * levels[0]
    for n in range(1, dim - 1):
        levels[n + 1] = np.sqrt(2.0 / (n + 1)) * xi * levels[n] - np.sqrt(n / (n + 1.0)) * levels[n - 1]
    levels *= np.sqrt(w)
    norm = (2.0 * np.pi * model.delta_x**2) ** (-0.5 if squared else -0.25)
    return norm * np.sqrt(2.0 / alpha) * np.einsum("nbk,mbk->bnm", levels, levels)


def vacuum_diag_element(delta_x: float) -> float:
    """<0|P(0)|0> = (2 pi dx^2)^(-1/4) (2/pi)^(1/2) sqrt(pi/alpha), alpha = 2 + 1/(4 dx^2)."""
    alpha = 2.0 + 1.0 / (4.0 * delta_x**2)
    return (2.0 * np.pi * delta_x**2) ** -0.25 * np.sqrt(2.0 / np.pi) * np.sqrt(np.pi / alpha)


def vacuum_density(delta_x: float, x_m) -> np.ndarray:
    """Vacuum outcome density: the normal density with variance dx^2 + 1/4."""
    var = delta_x**2 + 0.25
    x_m = np.asarray(x_m, dtype=float)
    return np.exp(-(x_m**2) / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)


def p1_exact(delta_x: float, x_m) -> np.ndarray:
    """|<1|P(x_m)|0>|^2 in closed form by completing the square.

    <1|P|0> = pref (2/pi)^(1/2) 2 x0 exp(-2 k x^2/alpha) sqrt(pi/alpha) with
    x0 = k x / alpha, k = 1/(4 dx^2), alpha = 2 + k.
    """
    x_m = np.asarray(x_m, dtype=float)
    kappa = 1.0 / (4.0 * delta_x**2)
    alpha = 2.0 + kappa
    x0 = kappa * x_m / alpha
    amp = (
        (2.0 * np.pi * delta_x**2) ** -0.25
        * np.sqrt(2.0 / np.pi)
        * 2.0
        * x0
        * np.sqrt(np.pi / alpha)
        * np.exp(-2.0 * kappa * x_m**2 / alpha)
    )
    return amp**2


def p1_asymptotic(delta_x: float, x_m) -> np.ndarray:
    x_m = np.asarray(x_m, dtype=float)
    return (
        (2.0 * np.pi * delta_x**2) ** -0.5
        * x_m**2
        / (4.0 * delta_x**2) ** 2
        * np.exp(-(x_m**2) / (2.0 * delta_x**2))
    )


def jump_probability_exact(delta_x: float) -> float:
    """1 - integral of |<0|P|0>|^2 = 1 - (1 + 1/(8 dx^2))^(-1/2), closed form.

    Evaluated as -expm1(-log1p(1/(8 dx^2))/2), which does not cancel at wide dx.
    """
    return -math.expm1(-0.5 * math.log1p(1.0 / (8.0 * delta_x**2)))


def trapezoid_jump_integrals(joint, delta_x: float, span: float, count: int = 4001,
                             baseline: int = 0) -> tuple[float, float]:
    """(jump probability, correlation integral) by the trapezoid rule on [-span, span].

    joint(x) returns the table |<n|P(x)|psi>|^2 of shape (len(x), dim).  The
    outcome variable is integrated on a dense uniform grid instead of an exact
    Gauss-Hermite rule; with span = 8 sqrt(dx^2 + <x^2> + 1) and 4001 nodes
    the grid error stays below 3e-12 relative for dx 0.5-20 (vacuum, dim 32).
    """
    x = np.linspace(-span, span, count)
    weights = np.full(count, x[1] - x[0])
    weights[0] = weights[-1] = weights[1] / 2.0
    probs = joint(x)
    # The off-baseline columns summed, not the row total minus the baseline,
    # which cancels when the jump is rare.
    off = probs[:, :baseline].sum(axis=1) + probs[:, baseline + 1 :].sum(axis=1)
    jump = weights @ off
    correlation = weights @ ((probs @ np.arange(probs.shape[1])) * (x**2 - delta_x**2))
    return float(jump), float(correlation)


def correlation_exact(delta_x: float) -> float:
    """Closed-form sum over n >= 1 of n * integral of P_n (x^2 - dx^2).

    The conditioned vacuum is the Gaussian exp(-k(x - x_m)^2) psi_0, a
    displaced squeezed state with center k x_m/(1+k) and squeezed width
    1/(4(1+k)), so sum_n n P_n(x_m) = P(x_m) (x_c^2 + k^2/(4(1+k))).
    Integrating against the outcome density moments (E x^2 = V,
    E x^4 = 3 V^2 with V = dx^2 + 1/4) gives the displacement term
    k^2 V (2 dx^2 + 3/4) / (1 + k)^2 = (2 + 3k) / (16 (1 + k)) and the
    squeeze term k^2 / (16 (1 + k)), whose sum is (2 + k) / 16 =
    1/8 + 1/(64 dx^2); it tends to 1/8 as dx grows.  In that form no
    intermediate underflows, up to the widest accepted dx.
    """
    return 0.125 + 1.0 / (64.0 * delta_x**2)


def beam_splitter_dense(reflectivity: float, dims: tuple[int, int]) -> np.ndarray:
    """Two-mode beam splitter exp(theta (a* b - a b*)), sin^2 theta = R, on the full space.

    scipy's expm of the whole (d0 d1)-dim generator built from truncated ladder
    matrices; rows and columns are indexed by the flat n_mode0 * d1 + n_mode1.
    """
    d0, d1 = dims
    theta = np.arcsin(np.sqrt(reflectivity))
    a = np.diag(np.sqrt(np.arange(1.0, d0)), k=1)
    b = np.diag(np.sqrt(np.arange(1.0, d1)), k=1)
    return expm(theta * (np.kron(a.T, b) - np.kron(a, b.T)))


_SQUEEZE_DIRECTIONS = ("amplify-x", "amplify-y")


def rotation(off: np.ndarray) -> np.ndarray:
    """exp(G) for the real antisymmetric tridiagonal G with G[j+1, j] = -G[j, j+1] = off[j].

    With P = diag(i^j) and T the real symmetric tridiagonal matrix with the
    same off-diagonal, G = -i P T P^-1, so one real eigendecomposition
    T = Q diag(lam) Q^T gives exp(G) = Re(P Q e^{-i lam} Q^T P^-1).  T has a
    zero diagonal, so Q cos(lam) Q^T only couples even distances j - k and
    Q sin(lam) Q^T only odd ones; the real part is then
    (-1)^floor((j - k) / 2) (Q (cos lam + sin lam) Q^T)[j, k].
    """
    lam, q = np.linalg.eigh(np.diag(off, -1))
    index = np.arange(off.size + 1)
    sign = 1.0 - 2.0 * (np.subtract.outer(index, index) // 2 % 2)
    return sign * ((q * (np.cos(lam) + np.sin(lam))) @ q.T)


def sector_blocks(reflectivity: float, dims: tuple[int, int]):
    """Beam-splitter rotations per total-photon-number sector.

    The generator theta (a* b - a b*) conserves the total photon number, so
    the unitary splits into one real rotation per sector; sectors that fit
    inside the truncation are exponentiated exactly.
    """
    d0, d1 = dims
    theta = float(np.arcsin(np.sqrt(reflectivity)))
    blocks = []
    for total in range(d0 + d1 - 1):
        lo = max(0, total - d1 + 1)
        hi = min(d0 - 1, total)
        n0 = np.arange(lo, hi + 1)
        # Generator entry between n0 = k and k + 1 in this sector.
        off = theta * np.sqrt(n0[1:] * (total - n0[:-1]))
        blocks.append((n0, total - n0, rotation(off)))
    return blocks


def apply_sectors(joint: np.ndarray, blocks) -> np.ndarray:
    out = np.zeros_like(joint)
    for n0, n1, block in blocks:
        out[n0, n1] = block @ joint[n0, n1]
    return out


def squeeze_matrix(gain_a: float, direction: str, dim: int) -> np.ndarray:
    """Single-mode squeezer exp(r (a*^2 - a^2)/2) with r = ln(a) (amplify-x).

    Heisenberg action: x -> a x, y -> y/a for "amplify-x"; the reciprocal
    scaling for "amplify-y".  Real matrix, unitary on the truncated space.
    """
    if not np.isfinite(gain_a) or gain_a <= 0.0:
        raise InvalidParameterError(f"gain_a must be positive, got {gain_a!r}")
    if direction not in _SQUEEZE_DIRECTIONS:
        raise InvalidParameterError(
            f"direction must be one of {_SQUEEZE_DIRECTIONS}, got {direction!r}"
        )
    if not isinstance(dim, (int, np.integer)) or dim < 2:
        raise InvalidParameterError(f"dim must be an integer >= 2, got {dim!r}")
    r = float(np.log(gain_a))
    if direction == "amplify-y":
        r = -r
    # The generator couples n to n + 2 only: one tridiagonal rotation per parity chain.
    out = np.zeros((dim, dim))
    for chain in (np.arange(0, dim, 2), np.arange(1, dim, 2)):
        n = chain[:-1].astype(np.float64)
        out[np.ix_(chain, chain)] = rotation(0.5 * r * np.sqrt((n + 1.0) * (n + 2.0)))
    return out


class SpongeCircuit:
    """The circuit by per-sector beam-splitter rotations and per-chain squeezers.

    The unitaries act on a padded working space (a sponge layer of one extra
    space above each rail, 2 dim + 29 levels) so that amplitude flowing
    through levels just above the truncation during the squeeze-recombine
    sequence is not reflected back into the kept levels; each rotation comes
    from one real symmetric eigendecomposition.  The padding is the smallest
    that keeps the reference within 1e-12 of the exact point map for inputs
    on levels 0-2 at gain 1.552, dim 16, at the guard's limit: 8.9e-13 at
    most over 3,000 such inputs, against 3.1e-10 with 2 dim + 16 levels.
    homodyne_amplitudes reads the whole working space after the top-quarter
    occupation guard on both modes.
    """

    def __init__(self, params):
        self.params = params
        self._work = 2 * params.dim + 29
        self._blocks = sector_blocks(params.reflectivity, (self._work, self._work))
        self._squeeze0 = squeeze_matrix(params.gain_a, "amplify-y", self._work)
        self._squeeze1 = squeeze_matrix(params.gain_a, "amplify-x", self._work)

    def _evolve_work(self, signal_in: FockState) -> np.ndarray:
        joint = np.zeros((self._work, self._work), dtype=np.complex128)
        joint[: signal_in.dim, 0] = signal_in.amplitudes
        joint = apply_sectors(joint, self._blocks)
        joint = self._squeeze0 @ joint @ self._squeeze1.T
        joint = apply_sectors(joint, self._blocks)
        self._check_truncation(joint)
        return joint

    def _check_truncation(self, joint: np.ndarray) -> None:
        probs = np.abs(joint) ** 2
        dim = self.params.dim
        for mode in (0, 1):
            occ = probs.sum(axis=1 - mode)
            top = float(occ[dim - dim // 4 :].sum())
            if top > TRUNCATION_OCCUPATION_LIMIT:
                raise TruncationOverflowError(
                    f"top-quarter occupation {top:.3e} of mode {mode} exceeds "
                    f"{TRUNCATION_OCCUPATION_LIMIT:g}; increase the truncation dimension"
                )

    def homodyne_amplitudes(self, signal_in: FockState, raw_values) -> np.ndarray:
        """Signal-output amplitudes (len(raw_values), dim) after reading mode 0 at raw values.

        Mode 0 of the whole working space is projected onto the x-quadrature
        eigenfunctions (wavefunction_table) and the parity (-1)^n undoes the
        circuit's signal-frame inversion.
        """
        dim = self.params.dim
        joint = self._evolve_work(signal_in)[:, :dim]
        table = wavefunction_table(self._work, np.atleast_1d(raw_values))
        return np.einsum("ab,ai->ib", joint, table) * np.where(np.arange(dim) % 2 == 0, 1.0, -1.0)


def swapped_arms(bogoliubov):
    """bogoliubov's circuit with its two amplifier arms exchanged, as a (W, V) map.

    Exchanging the arms flips the sign of both squeezing parameters, which is
    the circuit conjugated by a quarter-turn phase a -> i a on both modes: the
    beam splitters commute with it and each squeezer's V changes sign, so the
    whole circuit's map becomes (W, -V).  Monkeypatch setup_model._bogoliubov
    with swapped_arms(setup_model._bogoliubov) to build the swapped circuit.
    """

    def swapped(params):
        w, v = bogoliubov(params)
        return w, -v

    return swapped


def completeness_integrals_stacked(model, nodes, weights) -> tuple[np.ndarray, np.ndarray]:
    """(integral of P^2, integral of the squared truncated matrix P P) from whole-grid stacks.

    operator_batch builds the (len(nodes), dim, dim) stacks of P(x)^2 and P(x)
    over all the nodes, and einsum contracts them with the weights, instead
    of the library's chunked GEMMs.
    """
    squares = operator_batch(model, nodes, squared=True)
    exact = np.einsum("bnm,b->nm", squares, weights, optimize=True)
    ops = operator_batch(model, nodes)
    truncated = np.einsum("bnm,bml,b->nl", ops, ops, weights, optimize=True)
    return exact, truncated


def grid_audit_defects(model, count: int = 2001, dims=None) -> list[tuple[float, float, float]]:
    """(defect, truncated-square trusted, truncated-square full) per dim, on a uniform grid.

    The grid has count nodes over 6 sqrt(dx^2 + dim) at the largest audited
    dim (6 sigma of every trusted level) with trapezoid weights; each dim's
    integrals are leading blocks of the largest dim's, summed over chunks of
    64 outcomes so no whole-grid stack is built.  Its error is the grid's:
    the spacing, and the tails beyond 6 sigma (about 2e-9 of a level's mass
    at wide dx, where the outcome sigma approaches sqrt(dx^2 + dim)).
    """
    dims = [model.dim] if dims is None else list(dims)
    top = MeasurementModel(model.delta_x, max(dims))
    nodes, weights = trapezoid_grid(6.0 * math.sqrt(top.delta_x**2 + top.dim), count)
    exact = np.zeros((top.dim, top.dim))
    parts = np.zeros((top.dim, top.dim, top.dim))  # parts[n] = sum_b w_b P[:, n] P[n, :]
    for start in range(0, count, 64):
        x, w = nodes[start : start + 64], weights[start : start + 64]
        exact += np.einsum("bnm,b->nm", operator_batch(top, x, squared=True), w)
        ops = operator_batch(top, x)
        parts += np.einsum("bin,bnj,b->nij", ops, ops, w, optimize=True)
    eye = np.eye(top.dim)
    out = []
    for d in dims:
        t = trusted_levels(d)
        square = np.abs(parts[:d, :d, :d].sum(axis=0) - eye[:d, :d])
        out.append((
            float(np.abs(exact[:t, :t] - eye[:t, :t]).max()),
            float(square[:t, :t].max()),
            float(square.max()),
        ))
    return out


def amplitudes_column_fill(state, model, x_values) -> np.ndarray:
    """<n|P(x)|state>, shape (len(x), dim), written one level column at a time.

    The same ladder rows as measurement_amplitudes, in the same chunks of
    _CHUNK_ELEMENTS // (top + 1) outcomes, each contracted with the state by
    row @ source and stored as column n of a row-major array.
    """
    x = np.atleast_1d(np.asarray(x_values, dtype=np.float64))
    amps = state.amplitudes
    if np.all(amps.imag == 0.0):
        amps = amps.real
    out = np.empty((x.size, model.dim), dtype=amps.dtype)
    top = _top_level(amps)
    source = amps[: top + 1]
    chunk = max(1, _CHUNK_ELEMENTS // (top + 1))
    for start in range(0, x.size, chunk):
        sl = slice(start, min(start + chunk, x.size))
        for n, row in enumerate(_kernel_rows(model, x[sl], top + 1)):
            out[sl, n] = row @ source
    return out


def guarded_read_two_pass(state, model, x_values) -> tuple[np.ndarray, np.ndarray]:
    """(joint on the outcome rule, amplitudes at x_values), one kernel call each.

    The guard reads |<n|P(x)|state>|^2 on the outcome rule's nodes alone and
    raises TruncationOverflowError when its integral falls short of the
    squared norm by more than TRUNCATION_OCCUPATION_LIMIT; only then are the
    requested outcomes read, on their own.
    """
    nodes, weights = _outcome_rule(state, model)
    joint = np.abs(measurement_amplitudes(state, model, nodes)) ** 2
    leaked = state.norm() ** 2 - joint.sum(axis=1) @ weights
    if leaked > TRUNCATION_OCCUPATION_LIMIT:
        raise TruncationOverflowError(f"the outcome rule misses mass {leaked:.3e}")
    return joint, measurement_amplitudes(state, model, x_values)


def photon_draw_interpolated(joint, i, w, u) -> np.ndarray:
    """Photon numbers drawn by interpolating the joint table's rows, then counting.

    Shot s takes the row (1 - w_s) joint[i_s] + w_s joint[i_s + 1], its
    cumulative sum cum, and draws the count of levels with
    cum_k < u_s cum_(dim-1), one (shots, dim) pass per step.  Raises
    DegenerateConditioningError when a shot's row sums to zero.
    """
    w = np.asarray(w)[:, None]
    cum = np.cumsum((1.0 - w) * joint[i] + w * joint[i + 1], axis=1)
    totals = cum[:, -1]
    if np.any(totals <= 0.0):
        raise DegenerateConditioningError("sampled an outcome with zero conditional weight")
    return np.sum(cum < (u * totals)[:, None], axis=1)


def sampler_reference(state, model, shots: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(x_m, photon_n) of shots drawn on a (count, dim) joint table, shard after shard.

    The joint |<n|P(x_i)|state>|^2 on SAMPLING_GRID_COUNT nodes over
    +-sampling_span is summed along its rows into the outcome density, whose
    trapezoid CDF (tilted by 1e-16 per node, then normalised) is inverted by
    np.interp.  Shard s draws its outcome uniforms and then its photon
    uniforms from default_rng([seed, s]); each shot's cell comes from
    np.searchsorted, and its photon number is the count of levels whose
    interpolated row cumsum stays below u times the row total, found by
    bisection for every shot.  Raises TruncationOverflowError when the
    trapezoid mass falls short of the squared norm by more than
    TRUNCATION_OCCUPATION_LIMIT.
    """
    span = sampling_span(state, model)
    xs = np.linspace(-span, span, SAMPLING_GRID_COUNT)
    joint = np.abs(measurement_amplitudes(state, model, xs)) ** 2
    density = joint.sum(axis=1)
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (density[1:] + density[:-1]) * np.diff(xs))))
    leaked = state.norm() ** 2 - cdf[-1]
    if leaked > TRUNCATION_OCCUPATION_LIMIT:
        raise TruncationOverflowError(f"the sampling table misses mass {leaked:.3e}")
    cdf += np.arange(cdf.size) * 1e-16
    cdf /= cdf[-1]
    cum = np.cumsum(joint, axis=1)
    dim = model.dim
    x_parts, n_parts = [], []
    for start in range(0, shots, SHARD_SIZE):
        rng = np.random.default_rng([seed, start // SHARD_SIZE])
        count = min(SHARD_SIZE, shots - start)
        x = np.interp(rng.random(count), cdf, xs)
        u = rng.random(count)
        i = np.clip(np.searchsorted(xs, x, "right") - 1, 0, xs.size - 2)
        w = np.clip((x - xs[i]) / (xs[i + 1] - xs[i]), 0.0, 1.0)

        def row_cdf(k):
            return (1.0 - w) * cum[i, k] + w * cum[i + 1, k]

        totals = row_cdf(dim - 1)
        if np.any(totals <= 0.0):
            raise DegenerateConditioningError("sampled an outcome with zero conditional weight")
        n = np.zeros(count, dtype=np.int64)
        step = 1 << (dim - 1).bit_length()
        while step > 1:
            step >>= 1
            n += step * (row_cdf(np.minimum(n + (step - 1), dim - 1)) < u * totals)
        x_parts.append(x)
        n_parts.append(n)
    return np.concatenate(x_parts), np.concatenate(n_parts)


def rowform_payload_texts(payload: dict) -> tuple[str, str]:
    """(canonical payload text, CSV text) of a payload whose table is {"columns", "rows"}.

    The canonical text is json's sorted, compact dump of the whole payload,
    refusing NaN and infinity.  The CSV is the header and one line per row,
    each cell formatted on its own: a float as its repr (json's token), null
    as an empty cell, anything else as its str.
    """
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)

    def cell(value):
        if type(value) is float:
            return repr(value)
        return "" if value is None else str(value)

    table = payload["table"]
    lines = [",".join(table["columns"])]
    lines += [",".join(cell(v) for v in row) for row in table["rows"]]
    return canonical, "\n".join(lines) + "\n"


def fidelity(a: FockState, b: FockState) -> float:
    """|<a|b>|^2 for normalized states."""
    return abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2


def is_hermitian(op: np.ndarray, atol: float = 1e-12) -> bool:
    return bool(np.max(np.abs(op - op.conj().T)) <= atol)


def ladder(dim: int) -> np.ndarray:
    """Truncated annihilation operator a: entries (n-1, n) = sqrt(n); a* is its transpose."""
    return np.diag(np.sqrt(np.arange(1.0, dim)), k=1)


def quadrature_x(dim: int) -> np.ndarray:
    """x = (a + a*)/2 as a dense matrix.  Applied to the vacuum it gives 0.5 |1>."""
    a = ladder(dim)
    return (a + a.T) / 2.0


def quadrature_y(dim: int) -> np.ndarray:
    """y = (a - a*)/(2i), conjugate to x with [x, y] = i/2, from the explicit ladder matrices."""
    a = ladder(dim)
    return (a - a.T) / 2.0j


def number_operator(dim: int) -> np.ndarray:
    """n = a*a, diagonal with entries 0..dim-1."""
    return np.diag(np.arange(dim, dtype=np.float64))


def operator_correlation_dense(state: FockState) -> float:
    """<x^2 n + 2 x n x + n x^2>/4 - <x^2><n> from products of the dense truncated matrices."""
    amps = state.amplitudes
    x = quadrature_x(state.dim)
    n = number_operator(state.dim)
    xx = x @ x
    sandwich = xx @ n + 2.0 * (x @ n @ x) + n @ xx
    expect = lambda op: np.vdot(amps, op @ amps)
    return float(np.real(0.25 * expect(sandwich) - expect(xx) * expect(n)))
