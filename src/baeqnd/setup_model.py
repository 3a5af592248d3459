"""Two-mode optical circuit realizing the quadrature measurement.

The circuit is: a beam splitter of reflectivity R mixes the signal with a
vacuum meter mode, one arm passes a phase-sensitive amplifier scaling
x -> x/a (and y -> a y), the other arm one scaling x -> a x (and
y -> y/a), and a second identical beam splitter recombines the arms.
An ideal homodyne detection of the x quadrature on the meter output then
measures the signal's x quadrature without absorbing it.

With R = a^2/(a^2+1) the Heisenberg transforms work out to

    x_meter_out  = x_meter_in - k x_signal_in,      k = (a^2 - 1)/a,
    x_signal_out = -x_signal_in,
    y_signal_out = -y_signal_in - k y_meter_in,

so the signal x survives untouched (backaction evasion), the meter reads it
against vacuum noise of variance 1/4 (resolution dx = 1/(2k) = a/(2(a^2-1))),
and the mandatory backaction lands in the signal y.  The overall sign flip
of the signal frame after the two mostly-reflecting splitters is undone by
a parity correction on the output, making the conditional output state equal
to the single-mode measurement-kernel prediction for all inputs.

Mode layout: index 0 is the rail fed by the signal input and read out by the
meter homodyne; index 1 is fed by the meter vacuum and carries the signal
output.  Joint states are (dim_signal, dim_meter) amplitude matrices.

Truncation policy.  The requested dimensions define the I/O contract: input
states, reported conditional outputs, and the truncation-overflow guard.
Internally the unitaries act on a padded working space (a sponge layer of
one extra space above each rail) so that amplitude flowing through levels
just above the truncation during the squeeze-recombine sequence is not
reflected back into the trusted region; the detection step then keeps one
extra quarter of levels, mirroring the trusted-subspace policy.  Without the
sponge, conditioning on rare outcomes amplifies the edge error far above the
per-amplitude level (measured: three orders of magnitude at a = 2).

Numerics.  Every unitary is a product of real rotations exp(G) with G
antisymmetric and tridiagonal: the beam splitter per total-photon-number
sector, each squeezer per parity chain (its generator couples n to n +- 2
only).  _rotation takes them from one real symmetric eigendecomposition.
No two-mode unitary is formed as a dense matrix: SetupCircuit builds the
rotations once per parameter set, applies the sector blocks to the joint
amplitude matrix and the squeezers from the left and right, and
homodyne_amplitudes reads the meter out at a whole batch of raw outcomes.
calibrate_outcome_map takes its scale from the ratio of the two outcome
densities' second moments.  Each density is a Gaussian times a polynomial,
so Gauss-Hermite rules integrate both exactly.  The module needs numpy only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    TRUNCATION_OCCUPATION_LIMIT,
    DimensionMismatchError,
    InvalidParameterError,
    SetupMismatchError,
    TruncationOverflowError,
)
from .fock import FockState, QuadratureGrid, _gh_rule, wavefunction_table
from .measurement import (
    MeasurementModel,
    _exact_joint,
    _require_resolution,
    measurement_amplitudes,
)

#: Calibration residual above which the setup/kernel comparison is aborted:
#: a residual this large signals a convention bug, not a tolerance issue.
CALIBRATION_RESIDUAL_LIMIT = 1e-2

#: Kernel density above which an outcome enters the equivalence comparison;
#: below it the conditional states are normalised by a vanishing density.
EQUIVALENCE_DENSITY_FLOOR = 1e-6

_SQUEEZE_DIRECTIONS = ("amplify-x", "amplify-y")


@dataclass(frozen=True)
class SetupParams:
    """Amplifier gain and truncation dimensions of the two-mode circuit."""

    gain_a: float
    dim_signal: int = 40
    dim_meter: int = 40
    swap_arms: bool = False

    def __post_init__(self):
        a = self.gain_a
        if not isinstance(a, (int, float, np.floating)) or not np.isfinite(a) or a <= 1.0:
            raise InvalidParameterError(
                f"gain_a must be > 1 (the resolution diverges at a = 1), got {a!r}"
            )
        a = float(a)
        object.__setattr__(self, "gain_a", a)
        # The delta_x property, with a * a so that a huge gain gives 0, not an OverflowError.
        _require_resolution(a / (2.0 * (a * a - 1.0)), f"gain_a {a!r}")
        for name in ("dim_signal", "dim_meter"):
            d = getattr(self, name)
            if not isinstance(d, (int, np.integer)) or d < 2:
                raise InvalidParameterError(f"{name} must be an integer >= 2, got {d!r}")
            object.__setattr__(self, name, int(d))

    @property
    def reflectivity(self) -> float:
        """Beam-splitter reflectivity R = a^2/(a^2+1) matched to the gain."""
        a2 = self.gain_a**2
        return a2 / (a2 + 1.0)

    @property
    def delta_x(self) -> float:
        """Measurement resolution a/(2(a^2-1)) realized by the circuit."""
        return self.gain_a / (2.0 * (self.gain_a**2 - 1.0))


def _rotation(off: np.ndarray) -> np.ndarray:
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


def _sector_blocks(reflectivity: float, dims: tuple[int, int]):
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
        blocks.append((n0, total - n0, _rotation(off)))
    return blocks


def _apply_sectors(joint: np.ndarray, blocks) -> np.ndarray:
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
        out[np.ix_(chain, chain)] = _rotation(0.5 * r * np.sqrt((n + 1.0) * (n + 2.0)))
    return out


class SetupCircuit:
    """Prebuilt circuit for one parameter set, reused across inputs and outcomes."""

    def __init__(self, params: SetupParams):
        self.params = params
        d0, d1 = params.dim_signal, params.dim_meter
        # Sponge layer: evolve on twice the contract space so edge reflections
        # cannot contaminate the reported levels; detection keeps one extra
        # quarter, the same margin the trusted-subspace policy excludes.
        self._work0 = 2 * d0 + 16
        self._work1 = 2 * d1 + 16
        self._keep0 = min(self._work0, d0 + d0 // 4)
        self._keep1 = min(self._work1, d1 + d1 // 4)
        self._blocks = _sector_blocks(params.reflectivity, (self._work0, self._work1))
        dir0, dir1 = "amplify-y", "amplify-x"
        if params.swap_arms:
            dir0, dir1 = dir1, dir0
        self._squeeze0 = squeeze_matrix(params.gain_a, dir0, self._work0)
        self._squeeze1 = squeeze_matrix(params.gain_a, dir1, self._work1)
        self._parity1 = np.where(np.arange(self._keep1) % 2 == 0, 1.0, -1.0)
        self._cache_key = None
        self._cache_joint = None

    def _evolve_work(self, signal_in: FockState) -> np.ndarray:
        if signal_in.dim != self.params.dim_signal:
            raise DimensionMismatchError(
                f"signal dim {signal_in.dim} != circuit dim {self.params.dim_signal}"
            )
        key = signal_in.amplitudes.tobytes()
        if self._cache_key == key:
            return self._cache_joint
        joint = np.zeros((self._work0, self._work1), dtype=np.complex128)
        joint[: signal_in.dim, 0] = signal_in.amplitudes
        joint = _apply_sectors(joint, self._blocks)
        joint = self._squeeze0 @ joint @ self._squeeze1.T
        joint = _apply_sectors(joint, self._blocks)
        self._check_truncation(joint)
        self._cache_key = key
        self._cache_joint = joint
        return joint

    def _check_truncation(self, joint: np.ndarray) -> None:
        probs = np.abs(joint) ** 2
        for mode, dim in ((0, self.params.dim_signal), (1, self.params.dim_meter)):
            occ = probs.sum(axis=1 - mode)
            top = float(occ[dim - dim // 4 :].sum())
            if top > TRUNCATION_OCCUPATION_LIMIT:
                raise TruncationOverflowError(
                    f"top-quarter occupation {top:.3e} of mode {mode} exceeds "
                    f"{TRUNCATION_OCCUPATION_LIMIT:g}; increase the truncation dimension"
                )

    def homodyne_amplitudes(self, signal_in: FockState, raw_values) -> np.ndarray:
        """Signal-output amplitudes after reading mode 0 at raw outcome values.

        Projects mode 0 onto the x-quadrature eigenfunction at each raw value
        and applies the parity frame correction that undoes the circuit's
        signal-frame inversion.  Shape (len(raw_values), keep1) with
        keep1 >= dim_meter; squared row norms are the outcome density in the
        raw homodyne variable.
        """
        raw = np.atleast_1d(np.asarray(raw_values, dtype=np.float64))
        if not np.all(np.isfinite(raw)):
            raise InvalidParameterError("homodyne outcomes must be finite")
        joint = self._evolve_work(signal_in)[: self._keep0, : self._keep1]
        table = wavefunction_table(self._keep0, raw)
        projected = np.einsum("ab,ai->ib", joint, table, optimize=True)
        return projected * self._parity1[None, :]


@dataclass(frozen=True)
class Calibration:
    """Affine map x_m = scale * raw (offset fixed to 0 by circuit parity)."""

    scale: float
    offset: float
    residual: float


def calibrate_outcome_map(
    params: SetupParams,
    *,
    circuit: SetupCircuit | None = None,
    signal_in: FockState | None = None,
) -> Calibration:
    """Map raw homodyne values to measurement outcomes by matching second moments.

    Both outcome densities are a Gaussian times a polynomial, so their
    variances are exact on Gauss-Hermite rules: the kernel's on the outcome
    rule of the jump integrals (which also checks it for leaked mass), the
    raw homodyne density, exp(-2 raw^2) times a polynomial of degree
    2 (keep0 - 1), on keep0 + 1 nodes at raw = u / sqrt(2).  The magnitude is
    sqrt(var_kernel / var_raw); the sign is resolved by comparing conditional
    output states at one probe outcome.  The residual is the largest density
    mismatch over 51 probe outcomes spanning 6 sqrt(dx^2 + 1), relative to
    the largest probe density.  The analytic expectation is scale = -2 dx.
    A residual above CALIBRATION_RESIDUAL_LIMIT raises SetupMismatchError.
    """
    circuit = circuit or SetupCircuit(params)
    if signal_in is None:
        signal_in = FockState.vacuum(params.dim_signal)
    model = MeasurementModel(params.delta_x, params.dim_signal)
    rule, joint = _exact_joint(signal_in, model)
    density_kernel = joint.sum(axis=1)
    var_kernel = rule.integrate(density_kernel * rule.nodes**2) / rule.integrate(density_kernel)

    u, _, factored = _gh_rule(circuit._keep0 + 1)
    raw = QuadratureGrid(u / np.sqrt(2.0), factored)
    density_raw = np.sum(np.abs(circuit.homodyne_amplitudes(signal_in, raw.nodes)) ** 2, axis=1)
    var_raw = raw.integrate(density_raw * raw.nodes**2) / raw.integrate(density_raw)
    scale = float(np.sqrt(var_kernel / var_raw))

    probe = np.linspace(-1.0, 1.0, 51) * (6.0 * np.sqrt(params.delta_x**2 + 1.0))
    kernel_probe = np.sum(np.abs(measurement_amplitudes(signal_in, model, probe)) ** 2, axis=1)
    setup_amps = circuit.homodyne_amplitudes(signal_in, probe / scale)
    mapped = np.sum(np.abs(setup_amps) ** 2, axis=1) / scale
    residual = float(np.max(np.abs(mapped - kernel_probe)) / np.max(kernel_probe))

    # Sign: compare conditional states at a probe outcome on the positive side.
    probe_raw = 0.8 * float(np.sqrt(var_raw))
    probe_amp = circuit.homodyne_amplitudes(signal_in, probe_raw)[0]
    nrm = np.linalg.norm(probe_amp)
    if nrm > 0.0:
        probe_state = probe_amp[: params.dim_meter] / nrm
        overlaps = []
        for sign in (1.0, -1.0):
            ref = measurement_amplitudes(signal_in, model, sign * scale * probe_raw)[0]
            ref_nrm = np.linalg.norm(ref)
            if ref_nrm > 0.0:
                overlaps.append(abs(np.vdot(ref / ref_nrm, probe_state)))
            else:
                overlaps.append(0.0)
        if overlaps[1] > overlaps[0]:
            scale = -scale

    if residual > CALIBRATION_RESIDUAL_LIMIT:
        raise SetupMismatchError(
            f"calibration residual {residual:.3e} exceeds {CALIBRATION_RESIDUAL_LIMIT:g}; "
            "the circuit does not reduce to the measurement kernel"
        )
    return Calibration(scale=scale, offset=0.0, residual=residual)


def equivalence_defect(
    signal_in: FockState,
    params: SetupParams,
    grid: QuadratureGrid,
    *,
    circuit: SetupCircuit | None = None,
    calibration: Calibration | None = None,
) -> float:
    """Worst-case disagreement between the circuit and the measurement kernel.

    For every grid outcome whose kernel density exceeds
    EQUIVALENCE_DENSITY_FLOOR the defect is |density_setup - density_kernel|
    plus the trace distance between the conditional output states; the
    maximum over outcomes is returned.
    """
    if params.dim_signal != params.dim_meter:
        raise DimensionMismatchError(
            "equivalence comparison requires equal signal and meter dimensions"
        )
    circuit = circuit or SetupCircuit(params)
    calibration = calibration or calibrate_outcome_map(params, circuit=circuit)

    model = MeasurementModel(params.delta_x, params.dim_signal)
    kernel_amps = measurement_amplitudes(signal_in, model, grid.nodes)
    density_kernel = np.sum(np.abs(kernel_amps) ** 2, axis=1)

    raw = grid.nodes / calibration.scale
    setup_amps = circuit.homodyne_amplitudes(signal_in, raw)
    density_setup = np.sum(np.abs(setup_amps) ** 2, axis=1) / abs(calibration.scale)

    keep = density_kernel > EQUIVALENCE_DENSITY_FLOOR
    gap = np.abs(density_setup[keep] - density_kernel[keep])
    out = setup_amps[keep, : params.dim_meter]
    out_norm = np.linalg.norm(out, axis=1)
    ref = kernel_amps[keep] / np.sqrt(density_kernel[keep])[:, None]
    # An outcome the circuit cannot produce at all counts as fully distinct.
    distance = np.ones_like(gap)
    live = out_norm > 0.0
    distance[live] = _trace_distance(out[live] / out_norm[live, None], ref[live])
    return float(np.max(gap + distance, initial=0.0))


def _trace_distance(a: np.ndarray, b: np.ndarray):
    """Trace distance sqrt(1 - |<a|b>|^2) between normalised pure states, row by row.

    Evaluated from the phase-aligned difference d2 = |a - e^{i phi} b|^2 =
    2 (1 - |<a|b>|), which keeps its relative precision for nearly equal
    states where 1 - |<a|b>|^2 cancels to rounding noise.  a and b hold one
    state per row along their last axis.
    """
    inner = np.sum(np.conj(a) * b, axis=-1)
    mag = np.abs(inner)
    phase = np.ones_like(inner)
    np.divide(np.conj(inner), mag, out=phase, where=mag != 0.0)
    half = 0.5 * np.sum(np.abs(a - phase[..., None] * b) ** 2, axis=-1)
    return np.sqrt(np.maximum(0.0, half * (2.0 - half)))
