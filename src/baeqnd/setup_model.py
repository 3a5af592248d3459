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
output, reported on its levels 0..SetupCircuit.dim - 1.

Gaussian ladder.  The circuit is a Gaussian unitary U with the Bogoliubov
map U^dag a U = W a + V a^dag on a = (a_0, a_1) (_bogoliubov, its physics'
one entry), and U^dag x U = A x with A = W + V.  Reading mode 0 at raw value
r gives a Gaussian operator G(r) from the input (mode 0) to the signal
output (mode 1), on the kernel's recurrence (measurement._Gaussian).  With
B = A^-1, alpha = 1 + B01^2 + B11^2, c = B00 B01 + B10 B11, s the output
level and t the input level:

    A_ss = 2/alpha - 1,  A_tt = 2 B01^2/alpha - 1,  A_st = 2 B01/alpha,
    b_s = -2 c r/alpha,  b_t = 2 (B00 - B01 c/alpha) r,
    G[0, 0] = (2/pi)^(3/4) |det A|^(-1/2) (pi/alpha)^(1/2) exp(-g r^2),

g = B00^2 + B10^2 - c^2/alpha, summed as (B00^2 + B10^2 + det(B)^2)/alpha
without cancellation.  The triple holds the parity (-1)^n that undoes the
signal-frame inversion, which flips A_st and b_s, and then equals the
kernel's at x_m = -2 dx r, its corner sqrt(2 dx) times the kernel's:
triple_defect reads the gap.  Mode 0 is never truncated.  The reads share
the kernel's contraction (measurement._levels) and rule builder
(measurement._scaled_rule, at g -> 2 g for the raw rules).

Truncation guard.  Every amplitude is exp(-g r^2) times a polynomial of
degree top + n in r, top the input's highest level, so each read also
evaluates them, in the same ladder pass, on a raw rule of top + dim nodes
matched to exp(-2 g r^2), on which the output mass below the signal mode's
top quarter is exact.  ||psi||^2 minus that mass is the exact occupation of
levels dim - dim // 4 and above, and TruncationOverflowError is raised when
it exceeds TRUNCATION_OCCUPATION_LIMIT.  Past fock.MAX_RULE_NODES =
top + dim the rule raises OutOfRangeError before any ladder work.

SetupCircuit(gain_a, dim) is the one description of a setup: it validates
both, derives the reflectivity and the resolution once, and computes its
vacuum calibration on first use (SetupCircuit.calibration), so the audits
take the circuit alone.  calibrate_outcome_map takes its scale from the
ratio of the two outcome densities' second moments.  Each density is a
Gaussian times a polynomial, so Gauss-Hermite rules integrate both exactly.
One pass over 51 probes gives its sign and residual, and equivalence_defect
compares on EQUIVALENCE_OUTCOMES outcomes at the circuit's calibration, both
over measurement.outcome_span.  Each reads the kernel once, its leak guard's
rule included (measurement._exact_joint).  The module needs numpy only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    TRUNCATION_OCCUPATION_LIMIT,
    DegenerateConditioningError,
    DimensionMismatchError,
    InvalidParameterError,
    OutOfRangeError,
    SetupMismatchError,
    TruncationOverflowError,
)
from .fock import FockState, _integer, _real
from .measurement import (
    MeasurementModel,
    _check_outcomes,
    _exact_joint,
    _Gaussian,
    _kernel_gaussian,
    _levels,
    _require_resolution,
    _scaled_rule,
    _top_level,
    outcome_span,
)

#: Calibration residual above which the setup/kernel comparison is aborted:
#: a residual this large signals a convention bug, not a tolerance issue.
CALIBRATION_RESIDUAL_LIMIT = 1e-2

#: Kernel density above which an outcome enters the equivalence comparison;
#: below it the conditional states are normalised by a vanishing density.
EQUIVALENCE_DENSITY_FLOOR = 1e-6

#: Equally spaced outcomes over outcome_span(dx) on which equivalence_defect compares.
EQUIVALENCE_OUTCOMES = 2001


def _bogoliubov(circuit: SetupCircuit) -> tuple[np.ndarray, np.ndarray]:
    """(W, V) of the circuit's Heisenberg map U^dag a U = W a + V a^dag.

    Every stage is real, so the complex form [[W, V], [V*, W*]] of each is
    [[W, V], [V, W]] and the circuit's is the product splitter, squeezers,
    splitter.
    """
    theta = float(np.arcsin(np.sqrt(circuit.reflectivity)))
    c, s = np.cos(theta), np.sin(theta)
    rotation = np.array([[c, s], [-s, c]])
    zero = np.zeros((2, 2))
    splitter = np.block([[rotation, zero], [zero, rotation]])
    r = np.log(circuit.gain_a) * np.array([-1.0, 1.0])
    cosh, sinh = np.diag(np.cosh(r)), np.diag(np.sinh(r))
    total = splitter @ np.block([[cosh, sinh], [sinh, cosh]]) @ splitter
    return total[:2, :2], total[:2, 2:]


class SetupCircuit:
    """The circuit for one amplifier gain and the truncation dimension of both modes.

    gain_a, dim, the matched reflectivity R = a^2/(a^2+1) and the resolution
    delta_x = a/(2(a^2-1)) are fixed at construction, and so is the Gaussian
    triple of the read-out, reused across inputs and outcomes.
    """

    def __init__(self, gain_a, dim: int = 40):
        self.gain_a = gain = _real(gain_a, "gain_a", above=1.0)
        # gain**2 is the square every payload has used (gain * gain differs from
        # it in the last bit at gains such as 2.759).  It overflows past about
        # 1.34e154, where the resolution is below its range anyway.
        try:
            square = gain**2
        except OverflowError:
            square = np.inf
        self.delta_x = _require_resolution(gain / (2.0 * (square - 1.0)), f"gain_a {gain!r}")
        self.reflectivity = square / (square + 1.0)
        self.dim = _integer(dim, "dim", 2)
        w, v = _bogoliubov(self)
        b = np.linalg.inv(w + v)
        det, alpha = np.linalg.det(b), 1.0 + b[0, 1] ** 2 + b[1, 1] ** 2
        c = b[0, 0] * b[0, 1] + b[1, 0] * b[1, 1]
        # The raw density's Gaussian is exp(-2 g r^2), g = B00^2 + B10^2 - c^2 / alpha
        # summed without cancellation (Lagrange's identity).
        self._gauss = (b[0, 0] ** 2 + b[1, 0] ** 2 + det**2) / alpha
        # The triple holds the parity (-1)^n on the output levels: A_st and b_s flip sign.
        self._gaussian = _Gaussian(
            lower=1.0, cross=-2.0 * b[0, 1] / alpha,
            diag=(2.0 / alpha - 1.0, 2.0 * b[0, 1] ** 2 / alpha - 1.0),
            drive=(2.0 * c / alpha, 2.0 * (b[0, 0] - b[0, 1] * c / alpha)),
            norm=(2.0 / np.pi) ** 0.75 * (np.pi * abs(det) / alpha) ** 0.5, gauss=(self._gauss, 1.0))

    def homodyne_amplitudes(self, signal_in: FockState, raw_values) -> np.ndarray:
        """Signal-output amplitudes after reading mode 0 at raw outcome values.

        Shape (len(raw_values), dim), parity-corrected, real for an input whose
        imaginary parts are all zero; squared row norms are the outcome density
        in the raw homodyne variable.  Raises TruncationOverflowError on the
        guard's verdict, InvalidParameterError unless raw_values are finite and
        scalar or 1-D, and OutOfRangeError past MAX_RULE_NODES or where the
        input's mass leaves the float range.
        """
        raw = _check_outcomes(raw_values)
        dim = self.dim
        if signal_in.dim != dim:
            raise DimensionMismatchError(f"signal dim {signal_in.dim} != circuit dim {dim}")
        psi = signal_in.amplitudes
        nodes, weights = _scaled_rule(_top_level(psi) + dim, 2.0 * self._gauss)
        amps = _levels(self._gaussian, signal_in, np.concatenate([raw, nodes])).T
        below = np.sum(np.abs(amps[raw.size :, : dim - dim // 4]) ** 2, axis=1)
        occupation = float(np.vdot(psi, psi).real) - below @ weights
        if not np.isfinite(occupation):
            raise OutOfRangeError("the circuit's output mass leaves the float range for this input")
        if occupation > TRUNCATION_OCCUPATION_LIMIT:
            raise TruncationOverflowError(
                f"top-quarter occupation {occupation:.3e} of mode 1 exceeds "
                f"{TRUNCATION_OCCUPATION_LIMIT:g}; increase the truncation dimension"
            )
        return amps[: raw.size]

    @cached_property
    def calibration(self) -> Calibration:
        """The vacuum calibration, calibrate_outcome_map(self), computed on first use."""
        return calibrate_outcome_map(self)


@dataclass(frozen=True)
class Calibration:
    """Outcome map x_m = scale * raw; the circuit's parity leaves no offset."""

    scale: float
    residual: float

    def __post_init__(self):
        if _real(self.scale, "calibration scale") == 0.0:
            raise InvalidParameterError("calibration scale must be nonzero")


def calibrate_outcome_map(circuit: SetupCircuit, signal_in: FockState | None = None) -> Calibration:
    """Map raw homodyne values to measurement outcomes by matching second moments.

    Both outcome densities are a Gaussian times a polynomial, so their
    variances are exact on Gauss-Hermite rules: the kernel's on the outcome
    rule of the jump integrals (which also checks it for leaked mass), the
    raw homodyne density, exp(-2 g raw^2) times a polynomial of degree
    2 (top + dim - 1), on the raw rule of top + dim + 1 nodes.  The magnitude is
    sqrt(var_kernel / var_raw).  51 probes span outcome_span(dx): the kernel
    reads them at +-probe in the same pass as its rule, and the circuit once
    at probe / magnitude.  The sign is the one whose conditional states are
    closer (trace distance weighted by the circuit's density), and the
    residual the largest density mismatch at that sign over the largest
    probe density.  The analytic scale is -2 dx.  A residual above
    CALIBRATION_RESIDUAL_LIMIT raises SetupMismatchError.  signal_in defaults
    to the vacuum; the circuit's own calibration is that one.
    """
    if signal_in is None:
        signal_in = FockState.vacuum(circuit.dim)
    model = MeasurementModel(circuit.delta_x, circuit.dim)
    probe = np.linspace(-1.0, 1.0, 51) * outcome_span(circuit.delta_x)
    nodes, weights, joint, kernel_amps = _exact_joint(
        signal_in, model, np.concatenate([probe, -probe]))
    density_kernel = joint.sum(axis=1)
    var_kernel = (density_kernel * nodes**2) @ weights / (density_kernel @ weights)

    count = _top_level(signal_in.amplitudes) + circuit.dim + 1
    raw, raw_weights = _scaled_rule(count, 2.0 * circuit._gauss)
    density_raw = np.sum(np.abs(circuit.homodyne_amplitudes(signal_in, raw)) ** 2, axis=1)
    var_raw = (density_raw * raw**2) @ raw_weights / (density_raw @ raw_weights)
    scale = float(np.sqrt(var_kernel / var_raw))

    setup_amps = circuit.homodyne_amplitudes(signal_in, probe / scale)
    mapped = np.sum(np.abs(setup_amps) ** 2, axis=1) / scale
    kernel_density = np.sum(np.abs(kernel_amps) ** 2, axis=1)
    halves = (slice(probe.size), slice(probe.size, None))
    distances = [_state_distance(setup_amps, kernel_amps[h], kernel_density[h]) for h in halves]
    negative = bool(np.sum(mapped * distances[1]) < np.sum(mapped * distances[0]))
    kernel_probe = kernel_density[halves[negative]]
    residual = float(np.max(np.abs(mapped - kernel_probe)) / np.max(kernel_probe))

    if residual > CALIBRATION_RESIDUAL_LIMIT:
        raise SetupMismatchError(
            f"calibration residual {residual:.3e} exceeds {CALIBRATION_RESIDUAL_LIMIT:g}; "
            "the circuit does not reduce to the measurement kernel"
        )
    return Calibration(scale=-scale if negative else scale, residual=residual)


def equivalence_defect(signal_in: FockState, circuit: SetupCircuit) -> float:
    """Worst-case disagreement between the circuit and the measurement kernel.

    The outcomes are EQUIVALENCE_OUTCOMES equally spaced over outcome_span(dx),
    mapped to raw values by the circuit's vacuum calibration; at each whose
    kernel density exceeds EQUIVALENCE_DENSITY_FLOOR the defect is
    |density_setup - density_kernel| plus the trace distance between the
    conditional output states, and the largest is returned.  The kernel read
    raises TruncationOverflowError like outcome_density_table, and
    DegenerateConditioningError is raised when no outcome passes the floor,
    where there would be nothing to compare.
    """
    calibration = circuit.calibration
    span = outcome_span(circuit.delta_x)
    nodes = np.linspace(-span, span, EQUIVALENCE_OUTCOMES)
    model = MeasurementModel(circuit.delta_x, circuit.dim)
    kernel_amps = _exact_joint(signal_in, model, nodes)[3]
    density_kernel = np.sum(np.abs(kernel_amps) ** 2, axis=1)

    keep = density_kernel > EQUIVALENCE_DENSITY_FLOOR
    if not keep.any():
        raise DegenerateConditioningError(
            f"no outcome's kernel density exceeds {EQUIVALENCE_DENSITY_FLOOR:g} "
            f"(largest {density_kernel.max():.3e}): there is nothing to compare"
        )
    setup_amps = circuit.homodyne_amplitudes(signal_in, nodes[keep] / calibration.scale)
    density_setup = np.sum(np.abs(setup_amps) ** 2, axis=1) / abs(calibration.scale)
    gap = np.abs(density_setup - density_kernel[keep])
    distance = _state_distance(setup_amps, kernel_amps[keep], density_kernel[keep])
    return float(np.max(gap + distance))


def triple_defect(circuit: SetupCircuit) -> float:
    """Largest relative gap between the circuit's triple and the kernel's at x_m = -2 dx r.

    Both are read at lower 1: the five recurrence scalars (diag, cross,
    drive), the corner's norm over sqrt(2 dx) and its exponent.  Equal, they
    make homodyne_amplitudes(r) exactly sqrt(2 dx) <n|P(-2 dx r)|psi>.
    """
    scale = 2.0 * circuit.delta_x
    kernel = _kernel_gaussian(MeasurementModel(circuit.delta_x, circuit.dim))
    setup = circuit._gaussian
    got = [*setup.diag, setup.cross, *setup.drive, setup.norm, setup.gauss[0] / setup.gauss[1]]
    want = [*kernel.diag, kernel.cross, *(-scale * d for d in kernel.drive)]
    want = [w / kernel.lower for w in want]
    want += [np.sqrt(scale) * kernel.norm, scale**2 * kernel.gauss[0] / kernel.gauss[1]]
    return float(np.max(np.abs(np.subtract(got, want)) / np.abs(want)))


def _state_distance(out: np.ndarray, ref: np.ndarray, ref_density: np.ndarray) -> np.ndarray:
    """Trace distance sqrt(1 - |<a|b>|^2) between the states of matching rows.

    a is row i of out over its norm, b row i of ref over sqrt(ref_density[i]),
    its squared norm; a zero row of out (an outcome the circuit cannot produce)
    counts as 1.  The phase-aligned difference d2 = |a - e^{i phi} b|^2 =
    2 (1 - |<a|b>|) keeps its relative precision for nearly equal states,
    where 1 - |<a|b>|^2 cancels to rounding noise.
    """
    out_norm = np.linalg.norm(out, axis=1)
    live = out_norm > 0.0
    a = out[live] / out_norm[live, None]
    b = ref[live] / np.sqrt(ref_density[live])[:, None]
    inner = np.sum(np.conj(a) * b, axis=-1)
    mag = np.abs(inner)
    phase = np.ones_like(inner)
    np.divide(np.conj(inner), mag, out=phase, where=mag != 0.0)
    half = 0.5 * np.sum(np.abs(a - phase[:, None] * b) ** 2, axis=-1)
    distance = np.ones(out.shape[0])
    distance[live] = np.sqrt(np.maximum(0.0, half * (2.0 - half)))
    return distance
