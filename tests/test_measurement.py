import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_hermite

from baeqnd import measurement
from baeqnd.errors import (
    DegenerateConditioningError,
    DimensionMismatchError,
    InvalidParameterError,
    OutOfRangeError,
    SetupMismatchError,
    TruncationOverflowError,
)
from baeqnd.fock import MAX_RULE_NODES, FockState, _gh_rule, trusted_levels
from baeqnd.measurement import (
    MeasurementModel,
    _check_captured,
    _outcome_rule,
    _scaled_rule,
    asymptotic_p1,
    completeness_defect,
    conditional_state,
    measurement_amplitudes,
    operator_batch,
    outcome_density,
    outcome_density_table,
    outcome_span,
    truncated_square_defect,
)
from baeqnd.setup_model import Calibration, SetupCircuit, calibrate_outcome_map, equivalence_defect

from oracles import (
    amplitudes_column_fill,
    completeness_integrals_stacked,
    fidelity,
    grid_audit_defects,
    guarded_read_two_pass,
    kernel_element_quad,
    kernel_factor_tables,
    kernel_operator_dense,
    p1_asymptotic,
    p1_exact,
    trapezoid_grid,
    vacuum_density,
    vacuum_diag_element,
)


def _operator(model, x_m, squared=False):
    """The matrix P(x_m) (or the exact P(x_m)^2) for one outcome."""
    return operator_batch(model, [x_m], squared)[0]


def _joint(state, model, x_m, n):
    """Joint density of outcome x_m and n photons afterwards, |<n|P(x_m)|state>|^2."""
    return float(np.abs(measurement_amplitudes(state, model, x_m)[0, n]) ** 2)


class TestGaussHermiteRule:
    @pytest.mark.parametrize("count", [*range(2, 200), 300, 400, 700])
    def test_matches_scipy_roots(self, count):
        u, factored = _gh_rule(count)
        w = factored * np.exp(-u * u)
        ref_u, ref_w = roots_hermite(count)
        assert np.all(np.isfinite(w))
        assert np.all(np.isfinite(factored)) and np.all(factored > 0.0)
        np.testing.assert_allclose(u, ref_u, rtol=0, atol=1e-12)
        kept = ref_w > 1e-250
        np.testing.assert_allclose(w[kept], ref_w[kept], rtol=1e-11, atol=0)

    def test_largest_rule_is_finite_and_larger_ones_are_refused(self):
        # Past the limit the outermost levels leave double precision and the
        # rule turns NaN, which used to surface as a grid-validation error.
        u, factored = _gh_rule(MAX_RULE_NODES)
        assert np.all(np.isfinite(u)) and np.all(factored > 0.0) and np.all(np.isfinite(factored))
        assert np.sum(factored * np.exp(-u * u)) == pytest.approx(np.sqrt(np.pi), rel=1e-13)
        with pytest.raises(OutOfRangeError, match="1400-node limit"):
            _gh_rule(MAX_RULE_NODES + 1)
        with pytest.raises(OutOfRangeError, match="1400-node limit"):
            outcome_density(FockState.vacuum(1500), MeasurementModel(1.0, 1500), 0.0)

    @pytest.mark.parametrize("g", [0.01, 1.0, 50.0])
    @pytest.mark.parametrize("count", [2, 3, 10, 50, 360, 361, 700, 1400])
    def test_scaled_rule_is_exact_in_factored_form(self, count, g):
        # The reference roots drop weights below 1e-250 (counts past about
        # 360), so the factored weights are checked on the even moments of
        # exp(-g x^2): Gamma(j + 1/2) g^-(j + 1/2), exact for 2 j < 2 count.
        nodes, weights = _scaled_rule(count, g)
        assert nodes.shape == weights.shape == (count,)
        assert np.all(np.isfinite(nodes)) and np.all(np.diff(nodes) > 0.0)
        np.testing.assert_array_equal(nodes, -nodes[::-1])
        assert np.all(np.isfinite(weights)) and np.all(weights > 0.0)
        gauss = weights * np.exp(-g * nodes**2)
        for j in range(min(count, 25)):
            moment = gauss @ nodes ** (2 * j)
            exact = math.gamma(j + 0.5) * g ** -(j + 0.5)
            assert moment == pytest.approx(exact, rel=1e-13, abs=0.0), j


class TestMeasurementOperator:
    def test_odd_element_vanishes_at_zero(self):
        for dx in (0.5, 1.0, 7.0):
            op = _operator(MeasurementModel(dx, 8), 0.0)
            assert abs(op[1, 0]) < 1e-15

    def test_vacuum_diagonal_against_completed_square(self):
        # Frozen from the closed form (2 pi)^(-1/4) sqrt(2/pi) sqrt(pi/2.25).
        op = _operator(MeasurementModel(1.0, 16), 0.0)
        assert op[0, 0] == pytest.approx(0.5954958944920017, abs=1e-12)
        assert op[0, 0] == pytest.approx(vacuum_diag_element(1.0), abs=1e-12)

    @pytest.mark.parametrize("dx,x_m", [(0.5, 0.7), (1.0, -1.3), (5.0, 4.0)])
    def test_elements_against_adaptive_quadrature(self, dx, x_m):
        op = _operator(MeasurementModel(dx, 10), x_m)
        for n, m in ((0, 0), (1, 0), (2, 1), (3, 3), (5, 2)):
            assert op[n, m] == pytest.approx(
                kernel_element_quad(n, m, dx, x_m), abs=1e-12
            )

    def test_hermitian_and_psd(self):
        op = _operator(MeasurementModel(0.7, 24), 1.9)
        assert op.dtype == np.float64
        np.testing.assert_allclose(op, op.T, rtol=0, atol=1e-12)
        eigs = np.linalg.eigvalsh(op)
        assert eigs.min() > -1e-14

    def test_parity_relation(self):
        model = MeasurementModel(1.3, 12)
        plus = _operator(model, 0.8)
        minus = _operator(model, -0.8)
        signs = np.array([(-1.0) ** (n + m) for n in range(12) for m in range(12)])
        np.testing.assert_allclose(plus.ravel(), signs * minus.ravel(), atol=1e-14)

    def test_asymptotic_one_photon_element(self):
        dx = 10.0
        x_m = dx * np.sqrt(2.0)
        element = _operator(MeasurementModel(dx, 8), x_m)[1, 0]
        assert element**2 == pytest.approx(float(p1_asymptotic(dx, x_m)), rel=0.01)

    @pytest.mark.parametrize("dx", [0.5, 1.0, 2.0, 5.0, 10.0])
    def test_strategy_equivalence(self, dx):
        # Gauss-Hermite closed form against a dense-grid position integral.
        model = MeasurementModel(dx, 16)
        t = trusted_levels(16)
        for x_m in (-6.0, -0.4, 0.0, 2.2, 9.0):
            a = _operator(model, x_m)[:t, :t]
            b = kernel_operator_dense(16, dx, x_m)[:t, :t]
            np.testing.assert_allclose(a, b, atol=1e-8)

    def test_invalid_model(self):
        with pytest.raises(InvalidParameterError):
            MeasurementModel(0.0, 8)
        with pytest.raises(InvalidParameterError):
            _operator(MeasurementModel(1.0, 8), np.nan)

    @pytest.mark.parametrize("dx", [1e-200, 1e-160, 1.49e-154, 3.4e153, 1e200])
    def test_resolution_outside_the_normal_range(self, dx):
        # dx^2 or kappa = 1/(4 dx^2) would underflow, overflow or be subnormal.
        with pytest.raises(InvalidParameterError, match=r"outside \[1.49e-154, 3.35e\+153\]"):
            MeasurementModel(dx, 8)

    @pytest.mark.parametrize("dx", [1.5e-154, 3.3e153])
    def test_resolution_at_the_range_ends(self, dx):
        kappa = MeasurementModel(dx, 8).kappa
        assert sys.float_info.min <= kappa <= sys.float_info.max


class TestMeasurementAmplitudes:
    @pytest.mark.parametrize("dx, dim", [(0.3, 48), (1.0, 16), (5.0, 32)])
    def test_low_support_state_matches_operator_batch(self, dx, dim):
        # The contraction stops at the last nonzero level (here 2); the
        # projection still covers every level.
        amps = np.zeros(dim, dtype=np.complex128)
        amps[:3] = [0.6, 0.48j, -0.64]
        model = MeasurementModel(dx, dim)
        x = np.linspace(-6.0 * np.sqrt(dx**2 + 1.0), 6.0 * np.sqrt(dx**2 + 1.0), 61)
        expected = operator_batch(model, x) @ amps
        got = measurement_amplitudes(FockState(amps), model, x)
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("x", [np.array([1 + 2j]), 1 + 2j, "abc", [1.0, "x"], [[1.0], [1.0, 2.0]]])
    def test_non_real_outcomes_are_refused(self, x):
        # A complex array used to be read at its real part with only a
        # ComplexWarning; text and ragged lists raised bare numpy errors.
        model = MeasurementModel(2.0, 16)
        with pytest.raises(InvalidParameterError, match="outcome values must be"):
            measurement_amplitudes(FockState.vacuum(16), model, x)
        with pytest.raises(InvalidParameterError, match="outcome values must be"):
            operator_batch(model, x)

    @pytest.mark.parametrize("route, dim, top, count", [
        ("amplitudes", 64, 0, 8193), ("amplitudes", 400, 390, 200), ("operator_batch", 64, 0, 2001),
    ])
    def test_chunks_bound_the_ladder_row_entries(self, monkeypatch, route, dim, top, count):
        # Every ladder row of a chunk (outcomes x width) holds at most 2**15
        # entries (256 KiB) however wide the state, and the vacuum's 8193-node
        # sampling table stays one chunk.
        chunks = []
        kernel_rows = measurement._kernel_rows

        def spy(model, x, width, squared=False):
            chunks.append((x.size, width))
            return kernel_rows(model, x, width, squared)

        monkeypatch.setattr(measurement, "_kernel_rows", spy)
        model = MeasurementModel(1.0, dim)
        x = np.linspace(-8.0, 8.0, count)
        if route == "amplitudes":
            measurement_amplitudes(FockState.number(dim, top), model, x)
        else:
            operator_batch(model, x)
        assert sum(size for size, _ in chunks) == count
        assert all(size * width <= 2**15 for size, width in chunks)
        if route == "amplitudes" and top == 0:
            assert len(chunks) == 1

    @pytest.mark.parametrize("top", [0, 1, 2, 3])
    @pytest.mark.parametrize("past_chunk", [-1, 0, 1])
    def test_level_major_fill_matches_the_column_fill(self, top, past_chunk):
        # Outcome counts one below, at and one past a chunk.  For a real
        # input every entry is the same float, and the array is row-major:
        # a Fortran-ordered copy would round row sums differently.
        count = measurement._CHUNK_ELEMENTS // (top + 1) + past_chunk
        rng = np.random.default_rng(top)
        amps = np.zeros(8)
        amps[: top + 1] = rng.normal(size=top + 1)
        state = FockState(amps).normalize()
        model = MeasurementModel(0.7, 8)
        x = np.linspace(-9.0, 9.0, count)
        got = measurement_amplitudes(state, model, x)
        assert got.flags.c_contiguous
        assert np.array_equal(got, amplitudes_column_fill(state, model, x))

    def test_complex_fill_matches_the_column_fill(self):
        # A complex contraction may sum in another order: the entries agree
        # within 1e-14 of the largest amplitude.
        rng = np.random.default_rng(5)
        amps = np.zeros(24, dtype=np.complex128)
        amps[:4] = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = FockState(amps).normalize()
        model = MeasurementModel(0.4, 24)
        x = np.linspace(-6.0, 6.0, measurement._CHUNK_ELEMENTS // 4 + 1)
        got = measurement_amplitudes(state, model, x)
        reference = amplitudes_column_fill(state, model, x)
        assert got.flags.c_contiguous and got.dtype == np.complex128
        np.testing.assert_allclose(got, reference, rtol=0,
                                   atol=1e-14 * np.max(np.abs(reference)))


class TestLadderKernel:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(dx=st.floats(0.05, 20.0), dim=st.sampled_from([8, 16, 32, 64, 128]),
           top=st.integers(0, 5), seed=st.integers(0, 2**32 - 1))
    def test_matches_factor_tables(self, dx, dim, top, seed):
        # Outcomes reach the outermost node of the exact outcome rule.
        rng = np.random.default_rng(seed)
        amps = np.zeros(dim, dtype=np.complex128)
        amps[: top + 1] = rng.normal(size=top + 1) + 1j * rng.normal(size=top + 1)
        state = FockState(amps).normalize()
        model = MeasurementModel(dx, dim)
        edge = float(np.max(np.abs(_outcome_rule(state, model)[0])))
        x = np.concatenate([rng.uniform(-edge, edge, 5), [0.0, -edge, edge]])
        for squared in (False, True):
            np.testing.assert_allclose(operator_batch(model, x, squared),
                                       kernel_factor_tables(model, x, squared), rtol=0, atol=1e-13)
        np.testing.assert_allclose(measurement_amplitudes(state, model, x),
                                   kernel_factor_tables(model, x) @ state.amplitudes,
                                   rtol=0, atol=1e-13)

    @pytest.mark.parametrize("dx", [0.3, 1.0, 10.0])
    def test_underflowing_corner_at_the_outer_rule_nodes(self, dx):
        # P[0, 0] = N sqrt(2/(2+k)) exp(-2 k x^2/(2+k)) underflows at the
        # outermost nodes of the dim-1000 rule; the vacuum density there is
        # below double range too, and at every node the kernel matches it.
        model = MeasurementModel(dx, 1000)
        vac = FockState.vacuum(1000)
        nodes, _ = _outcome_rule(vac, model)
        kappa = model.kappa
        lost = np.exp(-2.0 * kappa * nodes**2 / (2.0 + kappa)) == 0.0
        assert lost[[0, -1]].all() and not lost.all()
        density = np.sum(np.abs(measurement_amplitudes(vac, model, nodes)) ** 2, axis=1)
        assert np.all(vacuum_density(dx, nodes[lost]) < 1e-300)
        np.testing.assert_allclose(density, vacuum_density(dx, nodes), rtol=1e-12, atol=1e-300)

    def test_high_level_state_where_the_corner_underflows(self):
        # Level 400 has its turning point at x ~ 20, where the rows are of
        # order 0.1 but P[0, 0] is below double range from |x| ~ 19.5 at
        # dx 0.05; the rows must not be lost with it.
        model = MeasurementModel(0.05, 450)
        state = FockState.number(450, 400)
        x = np.array([0.0, 15.0, 19.4, 19.8, -20.0, 20.5, 23.0])
        lost = np.exp(-2.0 * model.kappa * x**2 / (2.0 + model.kappa)) == 0.0
        assert lost.sum() >= 3
        reference = kernel_factor_tables(model, x)
        np.testing.assert_allclose(operator_batch(model, x), reference, rtol=0, atol=1e-13)
        np.testing.assert_allclose(operator_batch(model, x, squared=True),
                                   kernel_factor_tables(model, x, squared=True), rtol=0, atol=1e-13)
        amps = measurement_amplitudes(state, model, x)
        assert np.max(np.abs(amps[lost])) > 1e-2
        np.testing.assert_allclose(amps, reference @ state.amplitudes, rtol=0, atol=1e-13)


class TestOutcomeDensity:
    def test_vacuum_gaussian_value(self):
        # Convolution of N(0, 1/4) with N(0, 1): density 1/sqrt(2 pi 1.25) at 0.
        value = outcome_density(FockState.vacuum(16), MeasurementModel(1.0, 16), 0.0)
        assert value == pytest.approx(0.3568248232305542, abs=1e-10)

    @pytest.mark.parametrize("dx", [0.5, 1.0, 3.0])
    def test_vacuum_density_curve(self, dx):
        model = MeasurementModel(dx, 24)
        xs = np.linspace(-4.0 * dx, 4.0 * dx, 9)
        vac = FockState.vacuum(24)
        got = [outcome_density(vac, model, float(x)) for x in xs]
        np.testing.assert_allclose(got, vacuum_density(dx, xs), rtol=1e-8)

    def test_parity_symmetry(self):
        model = MeasurementModel(2.0, 16)
        vac = FockState.vacuum(16)
        for x in (0.3, 1.7, 5.0):
            assert outcome_density(vac, model, x) == pytest.approx(
                outcome_density(vac, model, -x), rel=1e-12
            )

    def test_total_probability_one(self):
        model = MeasurementModel(1.0, 16)
        nodes, weights = trapezoid_grid(6.0 * np.sqrt(2.0), 2001)
        table = outcome_density_table(FockState.vacuum(16), model, nodes)
        assert table.sum(axis=1) @ weights == pytest.approx(1.0, abs=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            outcome_density(FockState.vacuum(8), MeasurementModel(1.0, 16), 0.0)

    def test_finite_at_extreme_outcome_of_wide_truncation(self):
        # The Hermite route overflowed here and returned NaN.
        value = outcome_density(FockState.vacuum(600), MeasurementModel(1.0, 600), 51.0)
        assert np.isfinite(value) and value < 1e-300

    def test_kernel_leak_raises(self):
        # At dx 0.05 the kernel sends 0.26 of the vacuum above level 31: the
        # density at 0 would read 0.584 where the closed form gives 0.794.
        with pytest.raises(TruncationOverflowError, match="leaks mass 2.6"):
            outcome_density(FockState.vacuum(32), MeasurementModel(0.05, 32), 0.0)

    @pytest.mark.parametrize("x_m", [[1.0, 2.0], np.array([1.0]), [[0.5]]])
    def test_only_one_outcome_accepted(self, x_m):
        # A batch read only its first outcome: [1.0, 2.0] gave the density at 1.0.
        with pytest.raises(InvalidParameterError, match="scalar"):
            outcome_density(FockState.vacuum(16), MeasurementModel(1.0, 16), x_m)
        with pytest.raises(InvalidParameterError, match="scalar"):
            conditional_state(FockState.vacuum(16), MeasurementModel(1.0, 16), x_m)

    def test_zero_dim_array_is_one_outcome(self):
        model = MeasurementModel(1.0, 16)
        vac = FockState.vacuum(16)
        assert outcome_density(vac, model, np.float64(0.5)) == outcome_density(vac, model, 0.5)
        assert outcome_density(vac, model, np.array(0.5)) == outcome_density(vac, model, 0.5)


class TestConditionalState:
    def test_unit_norm(self):
        state = conditional_state(FockState.vacuum(16), MeasurementModel(1.0, 16), 1.2)
        assert state.norm() == pytest.approx(1.0, abs=1e-12)

    def test_no_one_photon_amplitude_at_zero(self):
        state = conditional_state(FockState.vacuum(16), MeasurementModel(0.8, 16), 0.0)
        assert abs(state.amplitudes[1]) < 1e-15

    def test_consistency_with_joint_density(self):
        vac = FockState.vacuum(32)
        model = MeasurementModel(10.0, 32)
        x_m = 14.14
        density = outcome_density(vac, model, x_m)
        state = conditional_state(vac, model, x_m)
        for n in range(trusted_levels(32)):
            lhs = density * abs(state.amplitudes[n]) ** 2
            rhs = _joint(vac, model, x_m, n)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_weak_measurement_keeps_one_photon(self):
        one = FockState.number(16, 1)
        state = conditional_state(one, MeasurementModel(100.0, 16), 3.0)
        assert fidelity(state, one) >= 1.0 - 1e-3

    def test_degenerate_outcome_raises(self):
        with pytest.raises(DegenerateConditioningError):
            conditional_state(FockState.vacuum(16), MeasurementModel(0.5, 16), 300.0)

    def test_kernel_leak_raises(self):
        with pytest.raises(TruncationOverflowError, match="leaks mass 2.6"):
            conditional_state(FockState.vacuum(32), MeasurementModel(0.05, 32), 0.0)


def _input(kind, dim, top, seed):
    """The vacuum, |top>, or a real or complex superposition of levels 0..top."""
    if kind == "vacuum":
        return FockState.vacuum(dim)
    if kind == "number":
        return FockState.number(dim, top)
    rng = np.random.default_rng(seed)
    amps = np.zeros(dim, dtype=np.complex128)
    amps[: top + 1] = rng.normal(size=top + 1)
    if kind == "complex":
        amps[: top + 1] += 1j * rng.normal(size=top + 1)
    return FockState(amps).normalize()


class TestOneKernelRead:
    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(gain=st.floats(1.1, 4.0), dim=st.sampled_from([8, 16, 24, 32]),
           kind=st.sampled_from(["vacuum", "number", "complex"]), x_m=st.floats(-5.0, 5.0))
    def test_each_guarded_read_is_one_kernel_call(self, gain, dim, kind, x_m):
        # The leak guard's outcome rule is read in the same call as the
        # requested outcomes, whether the guard passes or raises.
        calls = []
        amplitudes = measurement.measurement_amplitudes
        circuit = SetupCircuit(gain, dim)
        # The analytic calibration, set before counting, so that the defect's
        # read is counted alone.
        circuit.calibration = Calibration(-2.0 * circuit.delta_x, 0.0)
        model = MeasurementModel(circuit.delta_x, dim)
        state = _input(kind, dim, 1, dim)
        reads = {
            "outcome_density": lambda: outcome_density(state, model, x_m),
            "conditional_state": lambda: conditional_state(state, model, x_m),
            "outcome_density_table": lambda: outcome_density_table(state, model, [x_m, -x_m]),
            "calibrate_outcome_map": lambda: calibrate_outcome_map(circuit, signal_in=state),
            "equivalence_defect": lambda: equivalence_defect(state, circuit),
        }
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(measurement, "measurement_amplitudes",
                          lambda state, model, x: calls.append(np.size(x))
                          or amplitudes(state, model, x))
            for name, read in reads.items():
                calls.clear()
                try:
                    read()
                except (TruncationOverflowError, DegenerateConditioningError, SetupMismatchError):
                    pass
                assert len(calls) == 1, (name, calls)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(dx=st.floats(0.1, 30.0), dim=st.sampled_from([8, 16, 32, 64]),
           kind=st.sampled_from(["vacuum", "number", "real", "complex"]),
           top=st.integers(0, 5), count=st.integers(1, 7000), reach=st.floats(0.5, 3.0),
           seed=st.integers(0, 2**32 - 1))
    def test_one_read_equals_guard_then_read(self, dx, dim, kind, top, count, reach, seed):
        # Outcome counts on both sides of a chunk.  The vacuum's and a number
        # state's contractions multiply by 0 and 1 only, so their values keep
        # every bit; a superposition may round within an ulp of its largest entry.
        state = _input(kind, dim, top, seed)
        model = MeasurementModel(dx, dim)
        x = np.linspace(-1.0, 1.0, count) * reach * outcome_span(dx)
        try:
            joint, amps = guarded_read_two_pass(state, model, x)
        except TruncationOverflowError:
            with pytest.raises(TruncationOverflowError):
                measurement._exact_joint(state, model, x)
            return
        nodes, weights, got_joint, got_amps = measurement._exact_joint(state, model, x)
        np.testing.assert_array_equal((nodes, weights), _outcome_rule(state, model))
        if kind in ("vacuum", "number"):
            np.testing.assert_array_equal(got_amps, amps)
            np.testing.assert_array_equal(got_joint, joint)
        else:
            assert np.max(np.abs(got_amps - amps)) <= 1e-15 * np.max(np.abs(amps))
            assert np.max(np.abs(got_joint - joint)) <= 1e-15 * np.max(joint)

    def test_requested_outcomes_keep_their_chunks(self, monkeypatch):
        # The requested outcomes come first, so they fill the same chunks as
        # a read of them alone, and the rule's nodes follow.
        chunks = []
        kernel_rows = measurement._kernel_rows

        def spy(model, x, width, squared=False):
            chunks.append(x.copy())
            return kernel_rows(model, x, width, squared)

        monkeypatch.setattr(measurement, "_kernel_rows", spy)
        state = FockState.number(16, 3)
        model = MeasurementModel(1.0, 16)
        x = np.linspace(-8.0, 8.0, measurement._CHUNK_ELEMENTS // 4 + 5)
        nodes, *_ = measurement._exact_joint(state, model, x)
        assert [c.size for c in chunks] == [x.size - 5, 5 + nodes.size]
        np.testing.assert_array_equal(np.concatenate(chunks), np.concatenate([x, nodes]))


class TestJointPhotonDensity:
    def test_zero_at_origin_for_odd_photon(self):
        assert _joint(
            FockState.vacuum(16), MeasurementModel(1.0, 16), 0.0, 1
        ) == pytest.approx(0.0, abs=1e-30)

    def test_peaks_at_sqrt_two_delta_x(self):
        dx = 10.0
        model = MeasurementModel(dx, 32)
        vac = FockState.vacuum(32)
        nodes, _ = trapezoid_grid(6.0 * np.sqrt(dx**2 + 1.0), 2001)
        p1 = np.abs(measurement_amplitudes(vac, model, nodes)[:, 1]) ** 2
        step = nodes[1] - nodes[0]
        positive = nodes > 0
        peak_pos = nodes[positive][np.argmax(p1[positive])]
        peak_neg = nodes[~positive][np.argmax(p1[~positive])]
        assert abs(peak_pos - np.sqrt(2.0) * dx) <= step
        assert abs(peak_neg + np.sqrt(2.0) * dx) <= step

    def test_scaled_peak_height(self):
        # dx^3 P_1 at the peak: e^(-1)/(8 sqrt(2 pi)) ~ 0.0183456 for wide kernels.
        dx = 10.0
        value = _joint(
            FockState.vacuum(32), MeasurementModel(dx, 32), dx * np.sqrt(2.0), 1
        )
        assert dx**3 * value == pytest.approx(np.exp(-1.0) / (8.0 * np.sqrt(2.0 * np.pi)),
                                              rel=0.01)

    def test_sums_to_density(self):
        model = MeasurementModel(1.0, 24)
        vac = FockState.vacuum(24)
        for x_m in (0.0, 0.9, -2.4):
            total = sum(_joint(vac, model, x_m, n) for n in range(24))
            assert total == pytest.approx(outcome_density(vac, model, x_m), abs=1e-8)

    def test_matches_closed_form(self):
        dx = 5.0
        model = MeasurementModel(dx, 32)
        vac = FockState.vacuum(32)
        for x_m in (1.0, 4.0, 7.5):
            assert _joint(vac, model, x_m, 1) == pytest.approx(
                float(p1_exact(dx, x_m)), rel=1e-10
            )


class TestAsymptoticP1:
    def test_zero_at_origin(self):
        assert asymptotic_p1(3.0, 0.0) == 0.0

    def test_matches_reference_form(self):
        xs = np.linspace(-30.0, 30.0, 101)
        np.testing.assert_allclose(asymptotic_p1(10.0, xs), p1_asymptotic(10.0, xs), rtol=1e-14)

    def test_total_area_is_jump_probability(self):
        # Analytically the area is exactly 1/(16 dx^2).
        dx = 7.0
        nodes, weights = trapezoid_grid(8.0 * dx, 4001)
        area = asymptotic_p1(dx, nodes) @ weights
        assert area == pytest.approx(1.0 / (16.0 * dx**2), rel=1e-9)

    def test_exact_vs_asymptotic_convergence_is_monotone(self):
        deviations = []
        for dx in (2.0, 5.0, 10.0, 20.0):
            model = MeasurementModel(dx, 32)
            vac = FockState.vacuum(32)
            xs = np.linspace(-3.0 * dx, 3.0 * dx, 301)
            exact = np.abs(measurement_amplitudes(vac, model, xs)[:, 1]) ** 2
            approx = asymptotic_p1(dx, xs)
            mask = approx > approx.max() * 1e-6
            deviations.append(np.max(np.abs(exact[mask] - approx[mask]) / approx[mask]))
        assert deviations[0] > deviations[1] > deviations[2] > deviations[3]

    def test_agreement_at_peaks_within_one_percent(self):
        dx = 10.0
        x_m = np.sqrt(2.0) * dx
        exact = _joint(FockState.vacuum(32), MeasurementModel(dx, 32), x_m, 1)
        assert exact == pytest.approx(float(asymptotic_p1(dx, x_m)), rel=0.01)

    def test_invalid_delta_x(self):
        with pytest.raises(InvalidParameterError):
            asymptotic_p1(-1.0, 0.0)
        with pytest.raises(InvalidParameterError, match="overflows"):
            asymptotic_p1(1e100, 0.0)

    def test_non_numeric_arguments_are_refused(self):
        # These raised a bare ValueError and TypeError.
        with pytest.raises(InvalidParameterError, match="x_m must be numeric"):
            asymptotic_p1(1.0, "a")
        with pytest.raises(InvalidParameterError, match="delta_x must be numeric"):
            asymptotic_p1("1", 0.1)


def _audit_rules(model):
    """The rules of the exact P^2 (dim + 1 nodes) and of the truncated square (2 dim nodes)."""
    kappa = model.kappa
    return (
        _scaled_rule(model.dim + 1, 4.0 * kappa / (2.0 + 2.0 * kappa)),
        _scaled_rule(2 * model.dim, 4.0 * kappa / (2.0 + kappa)),
    )


def _stacked_defects(model) -> list[float]:
    """(defect, truncated-square trusted, truncated-square full) from whole-rule stacks."""
    exact_rule, square_rule = _audit_rules(model)
    exact, _ = completeness_integrals_stacked(model, *exact_rule)
    _, truncated = completeness_integrals_stacked(model, *square_rule)
    t = trusted_levels(model.dim)
    exact_dev = np.abs(exact - np.eye(model.dim))
    truncated_dev = np.abs(truncated - np.eye(model.dim))
    return [exact_dev[:t, :t].max(), truncated_dev[:t, :t].max(), truncated_dev.max()]


def _audit(model, dims=None) -> list[tuple[float, float, float]]:
    """(defect, truncated-square trusted, truncated-square full) per dim from the library."""
    squares = truncated_square_defect(model, dims)
    return [(d, *pair) for d, pair in zip(completeness_defect(model, dims), squares)]


class TestCompleteness:
    @pytest.mark.parametrize("dx", [0.5, 1.0, 2.0, 5.0, 10.0])
    @pytest.mark.parametrize("dim", [16, 32])
    def test_defect_small(self, dx, dim):
        (defect,) = completeness_defect(MeasurementModel(dx, dim))
        assert defect < 1e-8

    def test_squared_operator_matches_squared_matrix_on_trusted_block(self):
        # At wide resolution the conditioned states stay low, so squaring the
        # truncated matrix agrees with the exact squared kernel.
        model = MeasurementModel(5.0, 32)
        op = _operator(model, 1.3)
        sq = _operator(model, 1.3, squared=True)
        t = trusted_levels(32)
        np.testing.assert_allclose((op @ op)[:t, :t], sq[:t, :t], atol=1e-12)

    def test_truncation_damage_localizes_at_the_edge(self):
        # Squaring the truncated matrix loses probability at the top levels;
        # the loss stays there instead of leaking into the trusted block.
        ((trusted, full),) = truncated_square_defect(MeasurementModel(2.0, 24))
        assert trusted < 1e-3
        assert full > 0.1

    @pytest.mark.parametrize("dx, dim", [(0.5, 16), (1.0, 32), (2.0, 24), (10.0, 48), (1.0, 64)])
    def test_matches_whole_grid_operator_stacks(self, dx, dim):
        # The chunked ladder passes against whole (nodes, dim, dim) stacks on
        # the same two rules.
        model = MeasurementModel(dx, dim)
        np.testing.assert_allclose(_audit(model)[0], _stacked_defects(model), rtol=0, atol=1e-13)


class TestAuditRules:
    def test_exact_where_the_grid_read_its_own_error(self):
        # The 2001-node grid read defects of 1.6e-11 to 3.4e-11 here, all of
        # it the grid's tails; the rules integrate every entry exactly.
        defects = completeness_defect(MeasurementModel(10.0, 32), (16, 24, 32))
        assert max(defects) <= 1e-14

    @pytest.mark.parametrize("audit, nodes", [
        (completeness_defect, lambda dim: dim + 1),
        (truncated_square_defect, lambda dim: 2 * dim),
    ], ids=["completeness_defect", "truncated_square_defect"])
    @pytest.mark.parametrize("dim", [8, 40])
    def test_rule_node_count(self, monkeypatch, audit, nodes, dim):
        counts = []
        rule = measurement._scaled_rule

        def spy(count, g):
            counts.append(count)
            return rule(count, g)

        monkeypatch.setattr(measurement, "_scaled_rule", spy)
        audit(MeasurementModel(1.0, dim))
        assert counts == [nodes(dim)]

    def test_truncated_square_refuses_past_the_node_limit_before_the_ladder(self, monkeypatch):
        # 2 dim nodes pass MAX_RULE_NODES above dim 700.
        def refuse(*args, **kwargs):
            raise AssertionError("ladder started")

        monkeypatch.setattr(measurement, "_kernel_rows", refuse)
        with pytest.raises(OutOfRangeError, match="1402 nodes"):
            truncated_square_defect(MeasurementModel(1.0, MAX_RULE_NODES // 2 + 1))

    # The grid route's error is its tails: its span is 6 sqrt(dx^2 + dim),
    # and a level's outcome spread sqrt(dx^2 + (2 n + 1) / 4) approaches
    # sqrt(dx^2 + dim) at wide dx, so up to erfc(6 / sqrt(2)) = 2.0e-9 of a
    # level's mass falls outside (1.5e-9 measured at dx 20, dim 8).
    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(
        dx=st.floats(0.05, 20.0),
        dim=st.sampled_from([8, 16, 24, 32, 48, 64]),
    )
    def test_rules_match_the_fine_grid_oracle(self, dx, dim):
        model = MeasurementModel(dx, dim)
        dims = sorted({d for d in (dim - 16, dim - 8, dim) if d >= 8})
        np.testing.assert_allclose(
            _audit(model, dims), grid_audit_defects(model, 4001, dims), rtol=0, atol=4e-9
        )


class TestAuditLeadingBlocks:
    @pytest.mark.parametrize("dx, dims", [
        (1.0, (8, 16, 24)),
        (1.0, (48, 56, 64)),
        (0.1, (48, 56, 64)),
    ])
    def test_one_pass_matches_each_dim_on_its_own(self, dx, dims):
        # Every dim is read from the largest one's ladder pass, on its rules;
        # on its own it has smaller rules, which are exact too.
        got = _audit(MeasurementModel(dx, max(dims)), dims)
        assert len(got) == len(dims)
        for dim, row in zip(dims, got):
            (expected,) = _audit(MeasurementModel(dx, dim))
            np.testing.assert_allclose(row, expected, rtol=0, atol=1e-13)

    def test_ladder_rescales_at_the_grid_edge(self):
        # At dx 0.05, dim 336 the exact-P^2 rule's outer node has
        # 2 kappa' x^2 / (2 + kappa') = u^2 past _SEED_EXPONENT ln 2 (kappa' =
        # 2 kappa), so the ladder starts those outcomes' rows in their own
        # power-of-two units; the integral stays exact.
        model = MeasurementModel(0.05, 336)
        (nodes, _), _ = _audit_rules(model)
        kappa = 2.0 * model.kappa
        edge = nodes[-1]
        assert 2.0 * kappa * edge**2 / (2.0 + kappa) > measurement._SEED_EXPONENT * np.log(2.0)
        (defect,) = completeness_defect(model)
        assert defect <= 1e-13

    def test_values_follow_the_order_of_dims(self):
        model = MeasurementModel(2.0, 24)
        forward = completeness_defect(model, (8, 16, 24))
        backward = completeness_defect(model, (24, 8, 16, 8))
        assert backward == (forward[2], forward[0], forward[1], forward[0])
        forward = truncated_square_defect(model, (8, 16, 24))
        backward = truncated_square_defect(model, (24, 8, 16, 8))
        assert backward == (forward[2], forward[0], forward[1], forward[0])

    @pytest.mark.parametrize("audit", [completeness_defect, truncated_square_defect])
    @pytest.mark.parametrize("dims", [(8, 17), (1,), (0, 8), (), (8.0,)])
    def test_dims_outside_the_model_rejected(self, audit, dims):
        with pytest.raises(InvalidParameterError):
            audit(MeasurementModel(1.0, 16), dims)

    @pytest.mark.parametrize("audit", [completeness_defect, truncated_square_defect])
    @pytest.mark.parametrize("dims", [2001, 16.0])
    def test_dims_that_is_not_a_list_rejected(self, audit, dims):
        # The grid count of the old signature, audit(model, 2001), reads as dims.
        with pytest.raises(InvalidParameterError, match="dims must be a list"):
            audit(MeasurementModel(1.0, 16), dims)


class TestAuditMemory:
    @pytest.mark.parametrize("audit", [completeness_defect, truncated_square_defect])
    def test_peak_bounded(self, audit):
        # The whole-grid operator stack peaked at 154 MiB for dx 1, dim 64 on
        # 2001 nodes; the chunked passes keep a chunk's rows and the dim x dim
        # sums, well below one (nodes, dim, dim) stack of the rule (4 MiB).
        model = MeasurementModel(1.0, 64)
        tracemalloc.start()
        try:
            audit(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestDensityTable:
    def test_rows_sum_to_density(self):
        # Each row sums to the closed-form vacuum density at its outcome, and
        # at dx 10 the photon numbers 0..4 carry all of it.
        model = MeasurementModel(10.0, 32)
        x = np.linspace(-6.0 * np.sqrt(101.0), 6.0 * np.sqrt(101.0), 801)
        table = outcome_density_table(FockState.vacuum(32), model, x)
        assert table.shape == (801, 32)
        np.testing.assert_allclose(table.sum(axis=1), vacuum_density(10.0, x), rtol=1e-10)
        np.testing.assert_allclose(table[:, :5].sum(axis=1), table.sum(axis=1), atol=1e-8)

    def test_matches_the_one_photon_density(self):
        model = MeasurementModel(2.0, 24)
        x = np.linspace(-6.0, 6.0, 13)
        table = outcome_density_table(FockState.vacuum(24), model, x)
        np.testing.assert_allclose(table[:, 1], p1_exact(2.0, x), rtol=1e-10, atol=1e-16)

    def test_kernel_leak_raises(self):
        # At dx 0.05 the kernel sends 0.26 of the vacuum above level 31, so the
        # tabulated density would integrate to 0.74.
        model = MeasurementModel(0.05, 32)
        x = np.linspace(-6.0 * np.sqrt(0.05**2 + 1.0), 6.0 * np.sqrt(0.05**2 + 1.0), 2001)
        with pytest.raises(TruncationOverflowError, match="leaks mass 2.6"):
            outcome_density_table(FockState.vacuum(32), model, x)

    def test_non_finite_mass_is_an_error(self):
        # An overflowing kernel must not pass the leak check as NaN.
        with pytest.raises(OutOfRangeError, match="overflows"):
            _check_captured(FockState.vacuum(8), MeasurementModel(1.0, 8), float("nan"))

