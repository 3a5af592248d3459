import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baeqnd.errors import (
    DimensionMismatchError,
    GridTooNarrowError,
    InvalidParameterError,
    TruncationOverflowError,
)
from baeqnd.fock import FockState, make_grid, number_operator, quadrature_x
from baeqnd.jumps import (
    CorrelationReport,
    OutcomeRecord,
    default_grid,
    exact_report,
    jump_probability,
    measured_correlation,
    operator_correlation,
    run_experiment,
    sample_outcome,
    sample_photon_number,
    summarize,
)
from baeqnd.measurement import MeasurementModel, conditional_state

from oracles import correlation_exact, jump_probability_exact, p1_asymptotic


class TestSampling:
    def test_moments_of_sampled_outcomes(self):
        vac = FockState.vacuum(32)
        model = MeasurementModel(1.0, 32)
        rng = np.random.default_rng(2024)
        draws = sample_outcome(vac, model, rng, size=100_000)
        se_mean = np.sqrt(1.25 / draws.size)
        assert abs(draws.mean()) < 3.0 * se_mean
        se_var = 1.25 * np.sqrt(2.0 / draws.size)
        assert abs(draws.var() - 1.25) < 3.0 * se_var

    def test_fixed_seed_reproduces_sequence(self):
        vac = FockState.vacuum(16)
        model = MeasurementModel(2.0, 16)
        a = sample_outcome(vac, model, np.random.default_rng(9), size=1000)
        b = sample_outcome(vac, model, np.random.default_rng(9), size=1000)
        np.testing.assert_array_equal(a, b)

    def test_photon_sampler_respects_zero_amplitude(self):
        # Conditioning at the origin kills the one-photon amplitude.
        state = conditional_state(FockState.vacuum(16), MeasurementModel(1.0, 16), 0.0)
        rng = np.random.default_rng(3)
        draws = {sample_photon_number(state, rng) for _ in range(500)}
        assert 1 not in draws

    def test_photon_sampler_on_eigenstate(self):
        rng = np.random.default_rng(4)
        assert all(
            sample_photon_number(FockState.vacuum(8), rng) == 0 for _ in range(50)
        )

    def test_jump_fraction_matches_exact(self):
        vac = FockState.vacuum(32)
        model = MeasurementModel(2.0, 32)
        records = run_experiment(vac, model, 200_000, seed=5)
        fraction = np.mean([r.photon_n >= 1 for r in records])
        exact = jump_probability(vac, model, default_grid(vac, model))
        sigma = np.sqrt(exact * (1.0 - exact) / len(records))
        assert abs(fraction - exact) < 3.0 * sigma


class TestRunExperiment:
    def test_shots_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            run_experiment(FockState.vacuum(8), MeasurementModel(1.0, 8), 0, seed=1)

    def test_records_carry_lineage(self):
        records = run_experiment(FockState.vacuum(16), MeasurementModel(5.0, 16),
                                 1000, seed=11)
        assert [r.shot_index for r in records] == list(range(1000))
        assert all(r.rng_stream_id == 0 for r in records)
        assert all(0 <= r.photon_n < 16 for r in records)

    def test_identical_seeds_identical_records(self):
        args = (FockState.vacuum(16), MeasurementModel(5.0, 16), 2000)
        assert run_experiment(*args, seed=7) == run_experiment(*args, seed=7)

    def test_parallel_equals_serial(self):
        vac = FockState.vacuum(32)
        model = MeasurementModel(5.0, 32)
        serial = run_experiment(vac, model, 120_000, seed=3, threads=1)
        threaded = run_experiment(vac, model, 120_000, seed=3, threads=4)
        assert serial == threaded

    def test_jump_shots_concentrate_near_peaks(self):
        # Conditional mean of x^2 among jump shots tends to 3 dx^2.
        vac = FockState.vacuum(32)
        model = MeasurementModel(5.0, 32)
        records = run_experiment(vac, model, 400_000, seed=21)
        jumps = np.array([r.x_m for r in records if r.photon_n >= 1])
        assert jumps.size > 500
        se = np.std(jumps**2) / np.sqrt(jumps.size)
        assert abs(np.mean(jumps**2) - 3.0 * model.delta_x**2) < 4.0 * se


class TestJumpProbability:
    def test_against_closed_form(self):
        vac = FockState.vacuum(32)
        for dx in (2.0, 4.0, 10.0):
            model = MeasurementModel(dx, 32)
            value = jump_probability(vac, model, default_grid(vac, model))
            assert value == pytest.approx(jump_probability_exact(dx), rel=1e-6)

    def test_wide_kernel_values(self):
        vac = FockState.vacuum(32)
        value4 = jump_probability(vac, MeasurementModel(4.0, 32),
                                  default_grid(vac, MeasurementModel(4.0, 32)))
        assert value4 == pytest.approx(1.0 / 256.0, rel=0.02)
        value10 = jump_probability(vac, MeasurementModel(10.0, 32),
                                   default_grid(vac, MeasurementModel(10.0, 32)))
        assert value10 == pytest.approx(1.0 / 1600.0, rel=0.005)

    def test_ratio_to_asymptote_monotone(self):
        vac = FockState.vacuum(32)
        ratios = []
        for dx in (2.0, 5.0, 10.0, 20.0):
            model = MeasurementModel(dx, 32)
            value = jump_probability(vac, model, default_grid(vac, model))
            ratios.append(value * 16.0 * dx * dx)
        assert ratios == sorted(ratios)
        assert ratios[-1] < 1.0

    def test_one_photon_input_stays_at_weak_measurement(self):
        one = FockState.number(16, 1)
        model = MeasurementModel(100.0, 16)
        away = jump_probability(one, model, default_grid(one, model))
        assert away < 1e-3

    def test_narrow_grid_rejected(self):
        vac = FockState.vacuum(16)
        model = MeasurementModel(10.0, 16)
        with pytest.raises(GridTooNarrowError):
            jump_probability(vac, model, make_grid("uniform", 10.0, 101))


class TestKernelTruncationGuard:
    def test_leak_below_limit_matches_closed_form(self):
        # The kernel leaks 2.6e-7 of the vacuum above level 47 at dx 0.2.
        vac = FockState.vacuum(48)
        model = MeasurementModel(0.2, 48)
        value = jump_probability(vac, model, default_grid(vac, model))
        assert value == pytest.approx(jump_probability_exact(0.2), abs=1e-6)

    def test_integrals_reject_leaking_kernel(self):
        vac = FockState.vacuum(32)
        model = MeasurementModel(0.1, 32)
        grid = default_grid(vac, model)
        with pytest.raises(TruncationOverflowError, match="leaks mass 2.7"):
            jump_probability(vac, model, grid)
        with pytest.raises(TruncationOverflowError):
            measured_correlation(vac, model, grid)

    def test_sampler_rejects_leaking_kernel(self):
        # Each shot's photon draw renormalises, so without the guard the
        # sampled jump fraction would come out far from the truth.
        with pytest.raises(TruncationOverflowError):
            run_experiment(FockState.vacuum(32), MeasurementModel(0.05, 32), 1000, seed=3)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(dx=st.floats(0.05, 20.0), dim=st.sampled_from([8, 16, 32, 48]))
    def test_matches_closed_form_or_raises(self, dx, dim):
        vac = FockState.vacuum(dim)
        model = MeasurementModel(dx, dim)
        try:
            value = jump_probability(vac, model, default_grid(vac, model))
        except TruncationOverflowError:
            return
        assert abs(value - jump_probability_exact(dx)) <= 2e-6


class TestMeasuredCorrelation:
    def test_near_one_eighth_at_wide_resolution(self):
        vac = FockState.vacuum(32)
        model = MeasurementModel(10.0, 32)
        value = measured_correlation(vac, model, default_grid(vac, model))
        assert value == pytest.approx(0.125, rel=0.01)

    @pytest.mark.parametrize("dx", [2.0, 5.0, 10.0, 20.0])
    def test_against_closed_form(self, dx):
        vac = FockState.vacuum(32)
        model = MeasurementModel(dx, 32)
        value = measured_correlation(vac, model, default_grid(vac, model))
        assert value == pytest.approx(correlation_exact(dx), rel=1e-6)

    def test_deviation_shrinks_with_resolution(self):
        vac = FockState.vacuum(32)
        deviations = []
        for dx in (5.0, 10.0, 20.0):
            model = MeasurementModel(dx, 32)
            value = measured_correlation(vac, model, default_grid(vac, model))
            deviations.append(abs(value - 0.125))
        assert deviations == sorted(deviations, reverse=True)

    def test_asymptotic_form_gives_exactly_one_eighth(self):
        # Gaussian moments: E x^4 = 3 dx^4 and E x^2 = dx^2 under the wide
        # kernel make the integral (3 - 1) dx^4/(16 dx^4) = 1/8 exactly.
        dx = 6.0
        grid = make_grid("uniform", 10.0 * dx, 8001)
        integrand = p1_asymptotic(dx, grid.nodes) * (grid.nodes**2 - dx**2)
        assert grid.integrate(integrand) == pytest.approx(0.125, rel=1e-9)


class TestOperatorCorrelation:
    @pytest.mark.parametrize("dim", [4, 6, 8, 16, 32, 64])
    def test_vacuum_is_exactly_one_eighth(self, dim):
        assert operator_correlation(FockState.vacuum(dim)) == pytest.approx(0.125, abs=1e-12)

    def test_only_sandwiched_term_contributes_for_vacuum(self):
        dim = 8
        x = quadrature_x(dim).entries
        n = number_operator(dim).entries
        vac = np.zeros(dim)
        vac[0] = 1.0
        assert abs(np.vdot(vac, x @ x @ n @ vac)) < 1e-15
        assert abs(np.vdot(vac, n @ x @ x @ vac)) < 1e-15
        assert np.vdot(vac, x @ n @ x @ vac).real == pytest.approx(0.25, abs=1e-15)

    def test_one_photon_value(self):
        # Ladder expansion by hand: x|1> = (|0> + sqrt(2)|2>)/2 gives
        # <x n x> = 1, <x^2 n> = <n x^2> = 3/4, <x^2> = 3/4, <n> = 1, so
        # C = (3/4 + 2 + 3/4)/4 - 3/4 = 1/8.
        assert operator_correlation(FockState.number(8, 1)) == pytest.approx(0.125, abs=1e-12)

    def test_explicit_dim_embedding(self):
        assert operator_correlation(FockState.vacuum(4), dim=16) == pytest.approx(
            0.125, abs=1e-12
        )

    def test_dim_too_small(self):
        with pytest.raises(InvalidParameterError):
            operator_correlation(FockState.vacuum(4), dim=3)
        with pytest.raises(DimensionMismatchError):
            operator_correlation(FockState.number(8, 6), dim=4)


class TestSummarize:
    def test_estimators_within_three_sigma(self):
        vac = FockState.vacuum(32)
        model = MeasurementModel(5.0, 32)
        records = run_experiment(vac, model, 200_000, seed=123)
        report = summarize(records, vac, model)
        assert abs(report.jump_fraction - report.jump_probability) <= (
            3.0 * report.standard_errors["jump_fraction"]
        )
        assert abs(report.measured_c - report.exact_c_integral) <= (
            3.0 * report.standard_errors["measured_c"]
        )

    def test_covariance_estimator_offset(self):
        # The covariance subtracts the full outcome variance, the correlation
        # estimator only dx^2; they differ by <n>/4 in expectation.
        vac = FockState.vacuum(32)
        model = MeasurementModel(5.0, 32)
        records = run_experiment(vac, model, 400_000, seed=8)
        report = summarize(records, vac, model)
        gap = report.measured_c - report.measured_covariance
        assert gap == pytest.approx(report.jump_probability / 4.0, abs=5e-4)

    def test_exact_fields_have_no_error_bars(self):
        vac = FockState.vacuum(16)
        model = MeasurementModel(2.0, 16)
        report = exact_report(vac, model)
        assert report.shots is None
        assert report.measured_c is None
        assert report.standard_errors == {}

    def test_report_round_trips(self):
        vac = FockState.vacuum(16)
        model = MeasurementModel(2.0, 16)
        records = run_experiment(vac, model, 1000, seed=2)
        report = summarize(records, vac, model)
        assert CorrelationReport.from_dict(report.to_dict()) == report

    def test_empty_records_rejected(self):
        with pytest.raises(InvalidParameterError):
            summarize([], FockState.vacuum(8), MeasurementModel(1.0, 8))

    def test_negative_standard_errors_rejected(self):
        with pytest.raises(InvalidParameterError):
            CorrelationReport(
                exact_c_integral=0.125,
                operator_c=0.125,
                jump_probability=0.01,
                standard_errors={"measured_c": -1.0},
            )

    def test_record_equality_for_serialization(self):
        record = OutcomeRecord(x_m=1.5, photon_n=1, shot_index=3, rng_stream_id=0)
        same = OutcomeRecord(x_m=1.5, photon_n=1, shot_index=3, rng_stream_id=0)
        assert record == same
