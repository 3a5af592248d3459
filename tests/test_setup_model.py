import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from baeqnd import cli, measurement, setup_model
from baeqnd.errors import (
    DegenerateConditioningError,
    DimensionMismatchError,
    InvalidParameterError,
    OutOfRangeError,
    SetupMismatchError,
    TruncationOverflowError,
)
from baeqnd.fock import FockState
from baeqnd.measurement import MeasurementModel, conditional_state, outcome_density, outcome_span
from baeqnd.setup_model import (
    EQUIVALENCE_OUTCOMES,
    SetupCircuit,
    _state_distance,
    calibrate_outcome_map,
    equivalence_defect,
)

from oracles import (
    SpongeCircuit,
    apply_sectors,
    beam_splitter_dense,
    fidelity,
    quadrature_x,
    quadrature_y,
    sector_blocks,
    squeeze_matrix,
    swapped_arms,
    trapezoid_grid,
)


def _sector_generator(theta, lo, total, size):
    """Beam-splitter generator theta (a* b - a b*) on one total-photon-number sector."""
    gen = np.zeros((size, size))
    for j in range(size - 1):
        amp = theta * np.sqrt((lo + j + 1.0) * (total - lo - j))
        gen[j + 1, j] = amp
        gen[j, j + 1] = -amp
    return gen


class TestRotations:
    """The reference circuit's eigendecomposition rotations against scipy's Pade expm."""

    @pytest.mark.parametrize("work_dim", [64, 112])
    def test_sector_blocks_match_expm(self, work_dim):
        reflectivity = SetupCircuit(1.5).reflectivity
        theta = float(np.arcsin(np.sqrt(reflectivity)))
        for n0, n1, block in sector_blocks(reflectivity, (work_dim, work_dim)):
            total = int(n0[0] + n1[0])
            ref = expm(_sector_generator(theta, int(n0[0]), total, n0.size))
            np.testing.assert_allclose(block, ref, rtol=0, atol=1e-11)
            np.testing.assert_allclose(block @ block.T, np.eye(n0.size), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("gain, dim", [(1.5, 112), (5.0, 176)])
    def test_squeeze_matrix_matches_expm(self, gain, dim):
        ladder = np.diag(np.sqrt(np.arange(1.0, dim)), k=1)
        gen = 0.5 * np.log(gain) * (ladder.T @ ladder.T - ladder @ ladder)
        for direction, sign in (("amplify-x", 1.0), ("amplify-y", -1.0)):
            s = squeeze_matrix(gain, direction, dim)
            np.testing.assert_allclose(s, expm(sign * gen), rtol=0, atol=1e-11)
            np.testing.assert_allclose(s @ s.T, np.eye(dim), rtol=0, atol=1e-13)


class TestCircuitParameters:
    def test_matched_reflectivity(self):
        circuit = SetupCircuit(np.sqrt(2.0))
        assert circuit.reflectivity == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert circuit.delta_x == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-15)

    def test_resolution_formula(self):
        assert SetupCircuit(1.5).delta_x == pytest.approx(0.6, abs=1e-15)
        assert SetupCircuit(2.0).delta_x == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_reflectivity_range(self):
        for a in (1.01, 1.5, 4.0, 25.0):
            r = SetupCircuit(a).reflectivity
            assert 0.5 < r < 1.0

    @pytest.mark.parametrize("bad", [1.0, 0.5, 0.0, -2.0, np.inf])
    def test_gain_must_exceed_one(self, bad):
        with pytest.raises(InvalidParameterError):
            SetupCircuit(bad)

    @pytest.mark.parametrize("dim", [1, 0, 2.0, "40", None])
    def test_dim_must_be_an_integer_of_at_least_two(self, dim):
        with pytest.raises(InvalidParameterError, match="dim must be an integer"):
            SetupCircuit(1.5, dim)

    @pytest.mark.parametrize("gain", [1e154, 1e200])
    def test_gain_past_the_resolution_range(self, gain):
        # The resolution a/(2(a^2 - 1)) underflows to 0 (or a^2 overflows).
        with pytest.raises(InvalidParameterError, match="gain_a .* gives delta_x"):
            SetupCircuit(gain)

    @pytest.mark.parametrize("gain", [1.3, 2.759, 4.536])
    def test_resolution_and_reflectivity_use_gain_squared(self, gain):
        # The resolution was validated with gain * gain but returned with
        # gain**2, which differ in the last bit at 2.759 and 4.536.  One value
        # now serves both, from the gain**2 the payloads have always used.
        circuit = SetupCircuit(gain)
        assert circuit.delta_x == gain / (2.0 * (gain**2 - 1.0))
        assert circuit.reflectivity == gain**2 / (gain**2 + 1.0)


def _beam_splitter(reflectivity, dims):
    """The reference sector rotations as a matrix on the flat index n_mode0 * dims[1] + n_mode1."""
    blocks = sector_blocks(reflectivity, dims)
    size = dims[0] * dims[1]
    basis = np.eye(size).reshape(size, *dims)
    return np.stack([apply_sectors(joint, blocks).reshape(-1) for joint in basis], axis=1)


class TestBeamSplitter:
    """The reference sector rotations applied to a joint state against the dense expm oracle."""

    def test_zero_reflectivity_is_identity(self):
        np.testing.assert_allclose(beam_splitter_dense(0.0, (4, 4)), np.eye(16), atol=1e-14)
        np.testing.assert_allclose(_beam_splitter(0.0, (4, 4)), np.eye(16), atol=1e-14)

    def test_full_reflection_swaps_modes(self):
        joint = np.zeros((4, 4))
        joint[1, 0] = 1.0
        out = apply_sectors(joint, sector_blocks(1.0, (4, 4)))
        assert abs(out[0, 1]) == pytest.approx(1.0, abs=1e-12)
        assert np.sum(np.abs(out) ** 2) == pytest.approx(1.0, abs=1e-12)
        dense = beam_splitter_dense(1.0, (4, 4)) @ joint.reshape(-1)
        np.testing.assert_allclose(out.reshape(-1), dense, atol=1e-12)

    @pytest.mark.parametrize("reflectivity", [0.0, 0.25, 2.0 / 3.0, 1.0])
    def test_orthogonal(self, reflectivity):
        bs = _beam_splitter(reflectivity, (6, 5))
        np.testing.assert_allclose(bs.T @ bs, np.eye(30), atol=1e-10)
        np.testing.assert_allclose(bs, beam_splitter_dense(reflectivity, (6, 5)), atol=1e-12)

    def test_heisenberg_mixing(self):
        # Mode quadratures rotate by theta with sin^2(theta) = R.  Truncation
        # lives in the total-photon sectors, so the check masks to entries
        # whose row and column sectors both fit inside the space.
        dim = 14
        reflectivity = 0.3
        theta = np.arcsin(np.sqrt(reflectivity))
        bs = _beam_splitter(reflectivity, (dim, dim))
        np.testing.assert_allclose(bs, beam_splitter_dense(reflectivity, (dim, dim)), atol=1e-12)
        x0 = np.kron(quadrature_x(dim), np.eye(dim))
        x1 = np.kron(np.eye(dim), quadrature_x(dim))
        totals = (np.arange(dim)[:, None] + np.arange(dim)[None, :]).reshape(-1)
        keep = np.outer(totals <= dim - 2, totals <= dim - 2)
        rotated = bs.T @ x0 @ bs
        expected = np.cos(theta) * x0 + np.sin(theta) * x1
        np.testing.assert_allclose(rotated * keep, expected * keep, atol=1e-10)


class TestSqueezer:
    """The reference circuit's squeezer against the quadrature algebra."""

    def test_gain_one_is_identity(self):
        np.testing.assert_allclose(squeeze_matrix(1.0, "amplify-x", 8), np.eye(8), atol=1e-14)

    def test_vacuum_variance_amplified(self):
        # Heisenberg transform of the vacuum variance: <x^2> -> a^2/4.
        s = squeeze_matrix(1.5, "amplify-x", 60)
        x = quadrature_x(60)
        assert (s.T @ x @ x @ s)[0, 0] == pytest.approx(0.5625, abs=1e-6)

    def test_conjugate_variance_shrinks(self):
        s = squeeze_matrix(1.5, "amplify-x", 60)
        y = quadrature_y(60)
        value = np.real((s.T @ (y @ y).real @ s)[0, 0])
        assert value == pytest.approx(0.25 / 1.5**2, abs=1e-6)

    def test_heisenberg_transform_on_low_levels(self):
        # Entry-wise U^T x U = a x can only hold where the squeezed levels
        # still fit in the space (squeezing |n> spreads support by ~a^2), so
        # the check runs on the low block.
        a, dim, block = 1.5, 40, 8
        s = squeeze_matrix(a, "amplify-x", dim)
        x = quadrature_x(dim)
        y = quadrature_y(dim)
        np.testing.assert_allclose(
            (s.T @ x @ s)[:block, :block], a * x[:block, :block], atol=1e-6
        )
        np.testing.assert_allclose(
            (s.T @ y @ s)[:block, :block], y[:block, :block] / a, atol=1e-6
        )

    def test_amplify_y_inverts_amplify_x(self):
        forward = squeeze_matrix(1.7, "amplify-x", 30)
        backward = squeeze_matrix(1.7, "amplify-y", 30)
        np.testing.assert_allclose(backward @ forward, np.eye(30), atol=1e-8)

    def test_orthogonal(self):
        s = squeeze_matrix(2.0, "amplify-x", 40)
        np.testing.assert_allclose(s.T @ s, np.eye(40), atol=1e-10)

    def test_invalid_arguments(self):
        with pytest.raises(InvalidParameterError):
            squeeze_matrix(-1.0, "amplify-x", 8)
        with pytest.raises(InvalidParameterError):
            squeeze_matrix(1.5, "sideways", 8)


def _compare_with_the_rotation_route(circuit, amps, atol):
    """The point map's read-out against the reference's on 81 raw values.

    Returns False, comparing nothing, when the reference's guard refuses the input.
    """
    state = FockState(amps).normalize()
    raw = np.linspace(-4.0, 4.0, 81)
    try:
        reference = SpongeCircuit(circuit).homodyne_amplitudes(state, raw)
    except TruncationOverflowError:
        return False
    got = circuit.homodyne_amplitudes(state, raw)
    assert got.shape == reference.shape == (81, circuit.dim)
    np.testing.assert_allclose(got, reference, rtol=0, atol=atol)
    return True


class TestCircuitEvolution:
    def test_two_mode_norm_preserved(self):
        # The raw density integrates to the input's norm on a fine trapezoid
        # grid, less the mass above the signal output's 24 levels.
        circuit = SetupCircuit(1.5, 24)
        nodes, weights = trapezoid_grid(10.0, 4001)
        for level in (0, 1):
            amps = circuit.homodyne_amplitudes(FockState.number(24, level), nodes)
            assert np.sum(np.abs(amps) ** 2, axis=1) @ weights == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("gain, dim, level, raises", [
        (1.8, 20, 0, False),  # bound 7.46e-7
        (2.0, 32, 1, False),  # bound 9.25e-7
        (1.8, 20, 1, True),
        (3.0, 40, 0, True),
        (3.0, 40, 1, True),
    ])
    def test_truncation_overflow_at_high_gain(self, gain, dim, level, raises):
        # Near the 1e-6 limit the guard decides as the reference route does.
        point_map = SetupCircuit(gain, dim)
        state = FockState.number(dim, level)
        for circuit in (point_map, SpongeCircuit(point_map)):
            if raises:
                with pytest.raises(TruncationOverflowError):
                    circuit.homodyne_amplitudes(state, 0.0)
            else:
                circuit.homodyne_amplitudes(state, 0.0)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(gain=st.floats(1.05, 1.8), dim=st.sampled_from([16, 24, 32, 48]),
           data=st.data())
    def test_matches_the_rotation_route(self, gain, dim, data):
        # The point map's read-out against the eigh/sponge reference's, on a
        # random complex input over levels 0-3.
        top = data.draw(st.integers(0, 3))
        parts = st.floats(-1.0, 1.0)
        amps = np.zeros(dim, dtype=np.complex128)
        for level in range(top + 1):
            amps[level] = complex(data.draw(parts), data.draw(parts))
        if np.linalg.norm(amps) < 1e-3:
            amps[top] = 1.0
        _compare_with_the_rotation_route(SetupCircuit(gain, dim), amps, atol=1e-10)

    def test_rotation_route_at_the_guard_limit(self):
        # Near the guard's limit the reference's own truncation can set the
        # difference: 3.1e-10 here with a working space of 2 dim + 16 levels.
        amps = np.zeros(16, dtype=np.complex128)
        amps[:3] = [0.2 + 0.4j, 0.2, 0.1]
        assert _compare_with_the_rotation_route(SetupCircuit(1.552, 16), amps, atol=1e-12)

    def test_swapped_arms_match_the_rotation_route(self, monkeypatch):
        # The negative control's map (W, -V) is the circuit whose amplifiers
        # swap directions, here built by per-sector and per-chain rotations.
        monkeypatch.setattr(setup_model, "_bogoliubov", swapped_arms(setup_model._bogoliubov))
        circuit = SetupCircuit(1.3, 24)
        reference = SpongeCircuit(circuit)
        reference._squeeze0 = squeeze_matrix(1.3, "amplify-x", reference._work)
        reference._squeeze1 = squeeze_matrix(1.3, "amplify-y", reference._work)
        state = FockState.number(24, 1)
        raw = np.linspace(-4.0, 4.0, 81)
        np.testing.assert_allclose(circuit.homodyne_amplitudes(state, raw),
                                   reference.homodyne_amplitudes(state, raw), rtol=0, atol=1e-12)

    def test_small_gain_large_resolution_is_fine(self):
        circuit = SetupCircuit(1.05, 40)
        defect = equivalence_defect(FockState.vacuum(40), circuit)
        assert circuit.delta_x > 5.0
        assert defect < 1e-3

    def test_signal_dimension_checked(self):
        with pytest.raises(DimensionMismatchError):
            SetupCircuit(1.5, 24).homodyne_amplitudes(FockState.vacuum(16), 0.0)

    def test_outcomes_must_be_finite_and_one_dimensional(self):
        circuit = SetupCircuit(1.5, 16)
        for raw in (np.zeros((2, 3)), [[0.0]], [0.0, np.nan], np.inf):
            with pytest.raises(InvalidParameterError, match="outcome values must be"):
                circuit.homodyne_amplitudes(FockState.vacuum(16), raw)

    def test_non_real_outcomes_are_refused(self):
        # A complex array used to be read at its real part with only a ComplexWarning.
        circuit = SetupCircuit(1.5, 16)
        for raw in (np.array([1 + 2j]), 1 + 2j, "abc", [1.0, "x"]):
            with pytest.raises(InvalidParameterError, match="outcome values must be numeric"):
                circuit.homodyne_amplitudes(FockState.vacuum(16), raw)

    def test_dim_past_the_wavefunction_levels_is_refused(self):
        # The signal output's levels 0..dim-1 are validated up to level 256.
        assert SetupCircuit(1.5, 257).dim == 257
        for dim in (258, 1000):
            with pytest.raises(OutOfRangeError, match=f"up to {dim - 1}"):
                SetupCircuit(1.5, dim)


def _readout(circuit, signal_in, x_m):
    """Outcome density and signal-output amplitudes of the circuit at calibrated outcomes x_m."""
    scale = circuit.calibration.scale
    amps = circuit.homodyne_amplitudes(signal_in, np.asarray(x_m) / scale)
    return np.sum(np.abs(amps) ** 2, axis=1) / abs(scale), amps[:, : circuit.dim]


class TestRunSetup:
    """The circuit read out at calibrated outcomes against the measurement kernel."""

    def test_density_symmetric_for_vacuum(self):
        densities, _ = _readout(SetupCircuit(1.5, 40), FockState.vacuum(40), [0.7, -0.7])
        assert densities[0] == pytest.approx(densities[1], rel=1e-12)

    def test_conditional_state_matches_kernel(self):
        circuit = SetupCircuit(1.2, 40)
        model = MeasurementModel(circuit.delta_x, 40)
        vac = FockState.vacuum(40)
        (density,), (out,) = _readout(circuit, vac, [1.1])
        state = FockState(out).normalize()
        assert fidelity(state, conditional_state(vac, model, 1.1)) >= 1.0 - 1e-3
        assert density == pytest.approx(outcome_density(vac, model, 1.1), rel=1e-3)

    def test_outcome_variance(self):
        circuit = SetupCircuit(1.5, 40)
        nodes, weights = trapezoid_grid(outcome_span(circuit.delta_x), 801)
        densities, _ = _readout(circuit, FockState.vacuum(40), nodes)
        variance = (densities * nodes**2) @ weights / (densities @ weights)
        assert variance == pytest.approx(circuit.delta_x**2 + 0.25, abs=1e-3)


class TestCalibration:
    def test_offset_zero_and_small_residual(self):
        # The map x_m = scale * raw has no offset: the circuit's parity makes
        # the raw density of an even input symmetric, so its mean is 0.
        circuit = SetupCircuit(1.2, 40)
        calibration = calibrate_outcome_map(circuit)
        assert not hasattr(calibration, "offset")
        raw = np.linspace(-6.0, 6.0, 1201)
        density = np.sum(np.abs(circuit.homodyne_amplitudes(FockState.vacuum(40), raw)) ** 2, axis=1)
        np.testing.assert_allclose(density, density[::-1], rtol=1e-12, atol=0)
        assert calibration.residual < 1e-3

    def test_scale_matches_analytic_value(self):
        # The Heisenberg analysis gives x_m = -2 dx * raw exactly.
        for gain in (1.2, 1.5, 2.0):
            circuit = SetupCircuit(gain, 40)
            calibration = calibrate_outcome_map(circuit)
            assert calibration.scale == pytest.approx(-2.0 * circuit.delta_x, rel=1e-12)

    def test_scale_independent_of_input_state(self):
        circuit = SetupCircuit(1.5, 40)
        scale_vac = calibrate_outcome_map(circuit).scale
        scale_one = calibrate_outcome_map(circuit, signal_in=FockState.number(40, 1)).scale
        assert abs(scale_vac - scale_one) / abs(scale_vac) < 1e-10

    @pytest.mark.parametrize("gain", [1.2, 1.5])
    def test_residual_at_rounding_level(self, gain):
        # Matched second moments give the exact scale, so the probe densities
        # agree to rounding.
        assert calibrate_outcome_map(SetupCircuit(gain, 40)).residual < 1e-10

    def test_uneven_input_calibrates(self):
        # (|0> + |1>)/sqrt(2) has an outcome density that is not even, so a
        # residual taken before the sign read 0.73 and raised.
        amps = np.zeros(24)
        amps[:2] = np.sqrt(0.5)
        circuit = SetupCircuit(1.5, 24)
        calibration = calibrate_outcome_map(circuit, signal_in=FockState(amps))
        assert calibration.residual <= 1e-10
        assert calibration.scale == pytest.approx(-2.0 * circuit.delta_x, rel=1e-12)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        parts=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8),
        gain=st.floats(1.2, 3.0),
        dim=st.sampled_from([24, 32, 40]),
    )
    def test_inputs_on_the_lowest_levels_calibrate(self, parts, gain, dim):
        # Over 3,000 random inputs the worst of those inside the guard read
        # |scale / (-2 dx) - 1| = 8.0e-10 and a residual of 3.7e-8.
        levels = np.array(parts[:4]) + 1j * np.array(parts[4:])
        norm = np.linalg.norm(levels)
        assume(norm > 1e-3)
        amps = np.zeros(dim, dtype=complex)
        amps[:4] = levels / norm
        circuit = SetupCircuit(gain, dim)
        try:
            calibration = calibrate_outcome_map(circuit, signal_in=FockState(amps))
        except TruncationOverflowError:
            return
        assert calibration.scale == pytest.approx(-2.0 * circuit.delta_x, rel=5e-9)
        assert calibration.residual <= 2e-7

    def test_one_probe_pass(self, monkeypatch):
        # The circuit is read on the variance rule and once on the probes;
        # the kernel once, on the probes, their negatives and the outcome rule.
        circuit = SetupCircuit(1.5, 24)
        reads, kernel = [], []
        read = circuit.homodyne_amplitudes
        amplitudes = measurement.measurement_amplitudes
        monkeypatch.setattr(circuit, "homodyne_amplitudes",
                            lambda state, raw: reads.append(np.size(raw)) or read(state, raw))
        monkeypatch.setattr(measurement, "measurement_amplitudes",
                            lambda state, model, x: kernel.append(np.size(x))
                            or amplitudes(state, model, x))
        calibrate_outcome_map(circuit)
        # The variance rule's top + dim + 1 nodes and the outcome rule's
        # dim + top + 2, at top 0.
        assert reads == [25, 51]
        assert kernel == [102 + 26]

    def test_swapped_arms_detected(self, monkeypatch):
        # Swapping the amplifier arms destroys the readout; the one-photon
        # outcome density no longer matches any rescaled kernel density.
        monkeypatch.setattr(setup_model, "_bogoliubov", swapped_arms(setup_model._bogoliubov))
        with pytest.raises(SetupMismatchError):
            calibrate_outcome_map(SetupCircuit(1.5, 40), signal_in=FockState.number(40, 1))


class TestEquivalence:
    def test_trace_distance_resolves_tiny_rotations(self):
        # 1 - overlap^2 cancels to 0 here; the phase-aligned difference does not.
        angle = 1e-10

        def distance(a, b):
            (value,) = _state_distance(a[None], b[None], np.sum(np.abs(b) ** 2, keepdims=True))
            return value

        a = np.array([1.0, 0.0, 0.0], dtype=np.complex128)
        b = np.exp(0.7j) * np.array([np.cos(angle), np.sin(angle), 0.0])
        assert distance(a, b) == pytest.approx(angle, rel=0.01)
        assert distance(a, a) == 0.0
        assert distance(a, np.array([0.0, 1j, 0.0])) == pytest.approx(1.0)
        c = np.array([0.6, 0.8j, 0.0])
        assert distance(a, c) == pytest.approx(np.sqrt(1.0 - 0.36), rel=1e-12)

    def test_trace_distance_row_by_row(self):
        # Rows are normalised first, and a row of zeros in out counts as 1.
        rng = np.random.default_rng(5)
        a = rng.normal(size=(7, 5)) + 1j * rng.normal(size=(7, 5))
        b = a + 1e-3 * rng.normal(size=(7, 5))
        b[2] = 0.0
        b[2, 0] = 1.0
        a *= rng.uniform(0.1, 10.0, size=(7, 1))
        a[6] = 0.0
        density = np.sum(np.abs(b) ** 2, axis=1)
        rows = _state_distance(a, b, density)
        assert rows.shape == (7,)
        assert rows[6] == 1.0
        for i in range(6):
            assert rows[i] == _state_distance(a[i : i + 1], b[i : i + 1], density[i : i + 1])[0]
            overlap = abs(np.vdot(a[i], b[i])) / (np.linalg.norm(a[i]) * np.linalg.norm(b[i]))
            assert rows[i] == pytest.approx(np.sqrt(1.0 - overlap**2), rel=1e-6)

    def test_unreachable_outcome_counts_as_fully_distinct(self, monkeypatch):
        # Where the circuit leaves no meter amplitude, the defect is the density gap plus 1.
        circuit = SetupCircuit(1.5, 24)
        circuit.calibration  # computed before the circuit's reads are replaced
        nodes, _ = trapezoid_grid(outcome_span(circuit.delta_x), EQUIVALENCE_OUTCOMES)
        monkeypatch.setattr(circuit, "homodyne_amplitudes",
                            lambda state, raw: np.zeros((np.size(raw), 24), complex))
        vac = FockState.vacuum(24)
        density = np.array([outcome_density(vac, MeasurementModel(circuit.delta_x, 24), x)
                            for x in nodes])
        defect = equivalence_defect(vac, circuit)
        assert defect == pytest.approx(density.max() + 1.0, rel=1e-12)

    @pytest.mark.parametrize("gain", [1.2, 1.5, 2.0])
    def test_defect_small_for_both_inputs(self, gain):
        circuit = SetupCircuit(gain, 40)
        for state in (FockState.vacuum(40), FockState.number(40, 1)):
            defect = equivalence_defect(state, circuit)
            assert defect < 1e-3

    def test_defect_at_rounding_for_every_dim(self):
        # Mode 0 is not truncated, so no dim leaves a truncation error.
        for dim in (20, 30, 40):
            assert equivalence_defect(FockState.vacuum(dim), SetupCircuit(1.8, dim)) <= 1e-12

    def test_swapped_arms_fail_equivalence(self, monkeypatch):
        monkeypatch.setattr(setup_model, "_bogoliubov", swapped_arms(setup_model._bogoliubov))
        defect = equivalence_defect(FockState.vacuum(40), SetupCircuit(1.5, 40))
        assert defect > 0.1

    def test_no_count_parameter(self):
        with pytest.raises(TypeError):
            equivalence_defect(FockState.vacuum(24), SetupCircuit(1.5, 24), 201)

    def test_overflow_propagates(self):
        circuit = SetupCircuit(3.0, 40)
        with pytest.raises(TruncationOverflowError):
            equivalence_defect(FockState.vacuum(40), circuit)

    @pytest.mark.parametrize("gain, state", [
        (1.0000001, FockState.vacuum(8)),  # dx 2.5e6: the peak density is 1.6e-7
        (1.5, FockState([1e-3] + [0.0] * 15)),  # squared norm 1e-6
    ])
    def test_nothing_above_the_floor_is_refused(self, gain, state):
        # No outcome's kernel density passed the floor, and the defect read 0.0.
        with pytest.raises(DegenerateConditioningError, match="nothing to compare"):
            equivalence_defect(state, SetupCircuit(gain, state.dim))

    def test_one_calibration_per_circuit(self, monkeypatch):
        # Both inputs read the circuit's vacuum calibration, made on first use.
        calls = []
        calibrate = setup_model.calibrate_outcome_map
        monkeypatch.setattr(setup_model, "calibrate_outcome_map",
                            lambda *args: calls.append(args) or calibrate(*args))
        circuit = SetupCircuit(1.5, 24)
        for state in (FockState.vacuum(24), FockState.number(24, 1)):
            assert equivalence_defect(state, circuit) < 1e-12
        assert calls == [(circuit,)]
        assert circuit.calibration == calibrate(circuit)


def _count_calls(monkeypatch, owner, name, counts):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


class TestWorkCounts:
    def test_setup_check_work(self, tmp_path, monkeypatch):
        # setup-check 1.5/48 audits dims 24, 36 and 48: one circuit each, the
        # vacuum calibration of each and the one-photon one, and one kernel
        # read per calibration and per defect.  Each calibration reads the
        # circuit twice and each defect once.
        counts = {}
        for owner, name in ((SetupCircuit, "__init__"), (SetupCircuit, "homodyne_amplitudes"),
                            (setup_model, "calibrate_outcome_map"),
                            (cli, "calibrate_outcome_map"),
                            (measurement, "measurement_amplitudes")):
            _count_calls(monkeypatch, owner, name, counts)
        out = tmp_path / "setup.json"
        assert cli.main(["setup-check", "--gain-a", "1.5", "--dim", "48",
                         "--out", str(out)]) == cli.EXIT_OK
        assert counts == {"__init__": 3, "calibrate_outcome_map": 4,
                          "measurement_amplitudes": 8, "homodyne_amplitudes": 12}
