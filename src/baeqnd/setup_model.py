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
output.  Both modes are truncated at the one dimension SetupParams.dim, so
joint states are (dim, dim) amplitude matrices.

Circuit entries.  The circuit is a Gaussian unitary U, so it is fixed by
its Bogoliubov map U^dag a U = W a + V a^dag on a = (a_0, a_1), composed
from the three stages as 4x4 matrices [[W, V], [V*, W*]] (all real here).
Each beam splitter has W = [[c, s], [-s, c]] and V = 0, with
theta = arcsin sqrt(R); the squeezers have W = diag(cosh r) and
V = diag(sinh r), with r = (-ln a, +ln a): mode 0 amplifies y and mode 1
amplifies x.  The entries
G[n0, n1, k] = <n0, n1|U|k, 0> have the generating function
c exp(z^T A z / 2), one variable z_i per index (n0, n1, k), with
c = det(W)^(-1/2) and the symmetric 3x3 A assembled from

    A_out = V W*^-1,  A_cross = (W^dag^-1)[:, 0],  A_in = -(V^dag W^dag^-1)[0, 0],

so they follow the three-term recurrence (Miatto & Quesada, Quantum 4, 366
(2020))

    sqrt(k_i + 1) G[k + e_i] = sum_j A_ij sqrt(k_j) G[k - e_j].

SetupCircuit runs it in n0 for the seed column, in n1 vectorised over n0,
then in the input level k vectorised over the (n0, n1) plane.  No entry
depends on a level outside the box, so nothing reflects at its edge, and the
joint output state is G psi.

Accuracy limit.  The recurrence in k amplifies rounding.  Against the same
recurrence in np.longdouble, the largest entry error of column k at gain 2,
dim 96 is 1.1e-12 at k = 40, 4.3e-10 at k = 60 and 2.0e-7 at k = 80; at
gain 2, dim 160 the column norms (at most 1 exactly) pass 1 from k = 117 and
reach 5.9e5 (3.5e11 squared) at k = 159.  setup-check reads only k <= 1.

Truncation guard.  The requested dimensions define the I/O contract: input
states, reported conditional outputs and the guard.  The box keeps one
extra quarter of levels per mode, mirroring the trusted-subspace policy,
and the homodyne reads all of them.  With exact entries the mass that leaves
the box is ||psi||^2 - ||G psi||^2, and a norm that grew instead counts
with its magnitude; each mode's top-quarter occupation inside the box plus
that mass bounds the mode's true top-quarter occupation from above, and
TruncationOverflowError is raised when it exceeds
TRUNCATION_OCCUPATION_LIMIT.  The homodyne reads mode 0 up to level
dim + dim // 4 - 1, so dim above 206 is refused with OutOfRangeError before
the entries are built.

calibrate_outcome_map takes its scale from the ratio of the two outcome
densities' second moments.  Each density is a Gaussian times a polynomial,
so Gauss-Hermite rules integrate both exactly.  Its probes and
equivalence_defect compare the circuit with the kernel on outcomes spanning
measurement.outcome_span.  The module needs numpy only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    TRUNCATION_OCCUPATION_LIMIT,
    DimensionMismatchError,
    InvalidParameterError,
    OutOfRangeError,
    SetupMismatchError,
    TruncationOverflowError,
)
from .fock import MAX_WAVEFUNCTION_LEVEL, FockState, QuadratureGrid, _gh_rule, make_grid
from .fock import wavefunction_table
from .measurement import (
    MeasurementModel,
    _exact_joint,
    _require_resolution,
    measurement_amplitudes,
    outcome_span,
)

#: Calibration residual above which the setup/kernel comparison is aborted:
#: a residual this large signals a convention bug, not a tolerance issue.
CALIBRATION_RESIDUAL_LIMIT = 1e-2

#: Kernel density above which an outcome enters the equivalence comparison;
#: below it the conditional states are normalised by a vanishing density.
EQUIVALENCE_DENSITY_FLOOR = 1e-6


@dataclass(frozen=True)
class SetupParams:
    """Amplifier gain and the truncation dimension of both circuit modes."""

    gain_a: float
    dim: int = 40

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
        d = self.dim
        if not isinstance(d, (int, np.integer)) or d < 2:
            raise InvalidParameterError(f"dim must be an integer >= 2, got {d!r}")
        object.__setattr__(self, "dim", int(d))

    @property
    def reflectivity(self) -> float:
        """Beam-splitter reflectivity R = a^2/(a^2+1) matched to the gain."""
        a2 = self.gain_a**2
        return a2 / (a2 + 1.0)

    @property
    def delta_x(self) -> float:
        """Measurement resolution a/(2(a^2-1)) realized by the circuit."""
        return self.gain_a / (2.0 * (self.gain_a**2 - 1.0))


def _bogoliubov(params: SetupParams) -> tuple[np.ndarray, np.ndarray]:
    """(W, V) of the circuit's Heisenberg map U^dag a U = W a + V a^dag.

    Every stage is real, so the complex form [[W, V], [V*, W*]] of each is
    [[W, V], [V, W]] and the circuit's is the product splitter, squeezers,
    splitter.
    """
    theta = float(np.arcsin(np.sqrt(params.reflectivity)))
    c, s = np.cos(theta), np.sin(theta)
    rotation = np.array([[c, s], [-s, c]])
    zero = np.zeros((2, 2))
    splitter = np.block([[rotation, zero], [zero, rotation]])
    r = np.log(params.gain_a) * np.array([-1.0, 1.0])
    cosh, sinh = np.diag(np.cosh(r)), np.diag(np.sinh(r))
    total = splitter @ np.block([[cosh, sinh], [sinh, cosh]]) @ splitter
    return total[:2, :2], total[:2, 2:]


def _circuit_entries(params: SetupParams, shape: tuple[int, int, int]) -> np.ndarray:
    """G[n0, n1, k] = <n0, n1|U|k, 0> on the box `shape`, by the Gaussian recurrence."""
    w, v = _bogoliubov(params)
    w_inv_t = np.linalg.inv(w).T
    # Index 0 and 1 are the output modes, 2 the input level of mode 0.
    a = np.empty((3, 3))
    a[:2, :2] = v @ np.linalg.inv(w)
    a[:2, 2] = a[2, :2] = w_inv_t[:, 0]
    a[2, 2] = -(v.T @ w_inv_t)[0, 0]
    keep0, keep1, levels = shape
    root = np.sqrt(np.arange(max(shape), dtype=np.float64))
    g = np.zeros(shape)
    g[0, 0, 0] = np.linalg.det(w) ** -0.5
    for n in range(1, keep0 - 1):
        g[n + 1, 0, 0] = a[0, 0] * root[n] * g[n - 1, 0, 0] / root[n + 1]
    # At n = 0 and k = 0, root[0] = 0 cancels the (still empty) wrapped slice.
    for n in range(keep1 - 1):
        step = a[1, 1] * root[n] * g[:, n - 1, 0]
        step[1:] += a[1, 0] * root[1:keep0] * g[:-1, n, 0]
        g[:, n + 1, 0] = step / root[n + 1]
    for k in range(levels - 1):
        step = a[2, 2] * root[k] * g[:, :, k - 1]
        step[1:] += a[2, 0] * root[1:keep0, None] * g[:-1, :, k]
        step[:, 1:] += a[2, 1] * root[1:keep1] * g[:, :-1, k]
        g[:, :, k + 1] = step / root[k + 1]
    return g


class SetupCircuit:
    """Prebuilt circuit for one parameter set, reused across inputs and outcomes."""

    def __init__(self, params: SetupParams):
        self.params = params
        dim = params.dim
        keep = dim + dim // 4
        # Detection keeps one extra quarter of levels per mode, the same
        # margin the trusted-subspace policy excludes.  The homodyne reads every
        # kept level of mode 0, so refuse a box it cannot read before building
        # it: the entries grow as dim^3.
        if keep - 1 > MAX_WAVEFUNCTION_LEVEL:
            raise OutOfRangeError(
                f"dim {dim} needs homodyne levels up to {keep - 1}, above the "
                f"supported {MAX_WAVEFUNCTION_LEVEL}"
            )
        self._entries = _circuit_entries(params, (keep, keep, dim))

    def _evolve(self, signal_in: FockState) -> np.ndarray:
        """Joint output amplitudes G psi on the kept box, after the truncation guard."""
        dim = self.params.dim
        if signal_in.dim != dim:
            raise DimensionMismatchError(f"signal dim {signal_in.dim} != circuit dim {dim}")
        psi = signal_in.amplitudes
        joint = self._entries @ psi
        probs = np.abs(joint) ** 2
        # Exact entries cannot raise the norm, so growth counts as damage too.
        leak = abs(float(np.vdot(psi, psi).real) - float(probs.sum()))
        for mode in (0, 1):
            top = float(probs.sum(axis=1 - mode)[dim - dim // 4 :].sum()) + leak
            if top > TRUNCATION_OCCUPATION_LIMIT:
                raise TruncationOverflowError(
                    f"top-quarter occupation {top:.3e} of mode {mode} exceeds "
                    f"{TRUNCATION_OCCUPATION_LIMIT:g}; increase the truncation dimension"
                )
        return joint

    def homodyne_amplitudes(self, signal_in: FockState, raw_values) -> np.ndarray:
        """Signal-output amplitudes after reading mode 0 at raw outcome values.

        Projects mode 0 onto the x-quadrature eigenfunction at each raw value
        and applies the parity frame correction that undoes the circuit's
        signal-frame inversion.  Shape (len(raw_values), keep1) with
        keep1 >= dim; squared row norms are the outcome density in the
        raw homodyne variable.
        """
        raw = np.atleast_1d(np.asarray(raw_values, dtype=np.float64))
        if not np.all(np.isfinite(raw)):
            raise InvalidParameterError("homodyne outcomes must be finite")
        joint = self._evolve(signal_in)
        keep0, keep1 = joint.shape
        table = wavefunction_table(keep0, raw)
        projected = np.einsum("ab,ai->ib", joint, table, optimize=True)
        return projected * np.where(np.arange(keep1) % 2 == 0, 1.0, -1.0)


@dataclass(frozen=True)
class Calibration:
    """Outcome map x_m = scale * raw; the circuit's parity leaves no offset."""

    scale: float
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
    mismatch over 51 probe outcomes spanning outcome_span(dx), relative to
    the largest probe density.  The analytic expectation is scale = -2 dx.
    A residual above CALIBRATION_RESIDUAL_LIMIT raises SetupMismatchError.
    """
    circuit = circuit or SetupCircuit(params)
    if signal_in is None:
        signal_in = FockState.vacuum(params.dim)
    model = MeasurementModel(params.delta_x, params.dim)
    rule, joint = _exact_joint(signal_in, model)
    density_kernel = joint.sum(axis=1)
    var_kernel = rule.integrate(density_kernel * rule.nodes**2) / rule.integrate(density_kernel)

    u, _, factored = _gh_rule(circuit._entries.shape[0] + 1)
    raw = QuadratureGrid(u / np.sqrt(2.0), factored)
    density_raw = np.sum(np.abs(circuit.homodyne_amplitudes(signal_in, raw.nodes)) ** 2, axis=1)
    var_raw = raw.integrate(density_raw * raw.nodes**2) / raw.integrate(density_raw)
    scale = float(np.sqrt(var_kernel / var_raw))

    probe = np.linspace(-1.0, 1.0, 51) * outcome_span(params.delta_x)
    kernel_probe = np.sum(np.abs(measurement_amplitudes(signal_in, model, probe)) ** 2, axis=1)
    setup_amps = circuit.homodyne_amplitudes(signal_in, probe / scale)
    mapped = np.sum(np.abs(setup_amps) ** 2, axis=1) / scale
    residual = float(np.max(np.abs(mapped - kernel_probe)) / np.max(kernel_probe))

    # Sign: compare conditional states at a probe outcome on the positive side.
    probe_raw = 0.8 * float(np.sqrt(var_raw))
    probe_amp = circuit.homodyne_amplitudes(signal_in, probe_raw)[0]
    nrm = np.linalg.norm(probe_amp)
    if nrm > 0.0:
        probe_state = probe_amp[: params.dim] / nrm
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
    return Calibration(scale=scale, residual=residual)


def equivalence_defect(
    signal_in: FockState,
    params: SetupParams,
    count: int,
    *,
    circuit: SetupCircuit | None = None,
    calibration: Calibration | None = None,
) -> float:
    """Worst-case disagreement between the circuit and the measurement kernel.

    The outcomes are a uniform grid of count nodes over outcome_span(dx).
    For every one whose kernel density exceeds EQUIVALENCE_DENSITY_FLOOR the
    defect is |density_setup - density_kernel| plus the trace distance
    between the conditional output states; the maximum over outcomes is
    returned.
    """
    grid = make_grid(outcome_span(params.delta_x), count)
    circuit = circuit or SetupCircuit(params)
    calibration = calibration or calibrate_outcome_map(params, circuit=circuit)

    model = MeasurementModel(params.delta_x, params.dim)
    kernel_amps = measurement_amplitudes(signal_in, model, grid.nodes)
    density_kernel = np.sum(np.abs(kernel_amps) ** 2, axis=1)

    raw = grid.nodes / calibration.scale
    setup_amps = circuit.homodyne_amplitudes(signal_in, raw)
    density_setup = np.sum(np.abs(setup_amps) ** 2, axis=1) / abs(calibration.scale)

    keep = density_kernel > EQUIVALENCE_DENSITY_FLOOR
    gap = np.abs(density_setup[keep] - density_kernel[keep])
    out = setup_amps[keep, : params.dim]
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
