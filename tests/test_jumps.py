import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from baeqnd import jumps, measurement
from baeqnd.errors import (
    DegenerateConditioningError,
    DimensionMismatchError,
    InvalidParameterError,
    OutOfRangeError,
    TruncationOverflowError,
)
from baeqnd.fock import FockState, x_second_moment
from baeqnd.jumps import (
    SAMPLING_GRID_COUNT,
    SHARD_SIZE,
    CorrelationReport,
    ShotTable,
    exact_report,
    jump_probability,
    measured_correlation,
    operator_correlation,
    run_experiment,
    summarize,
)
from baeqnd.measurement import MeasurementModel, conditional_state, measurement_amplitudes

from oracles import (
    correlation_exact,
    jump_probability_exact,
    number_operator,
    operator_correlation_dense,
    p1_asymptotic,
    photon_draw_interpolated,
    quadrature_x,
    sampler_reference,
    trapezoid_grid,
    trapezoid_jump_integrals,
)


def _draw_from_row(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The sampler's photon draw on a level-major table whose two nodes both hold probs."""
    cum = np.tile(np.cumsum(probs)[:, None], (1, 2))
    w = np.random.default_rng(0).random(u.size)
    return jumps._photon_draw(cum, np.zeros(u.size, dtype=np.intp), w, u)


class TestSampling:
    def test_moments_of_sampled_outcomes(self):
        vac = FockState.vacuum(32)
        model = MeasurementModel(1.0, 32)
        draws = run_experiment(vac, model, 100_000, seed=2024).x_m
        se_mean = np.sqrt(1.25 / draws.size)
        assert abs(draws.mean()) < 3.0 * se_mean
        se_var = 1.25 * np.sqrt(2.0 / draws.size)
        assert abs(draws.var() - 1.25) < 3.0 * se_var

    def test_fixed_seed_reproduces_sequence(self):
        vac = FockState.vacuum(16)
        model = MeasurementModel(2.0, 16)
        a = run_experiment(vac, model, 1000, seed=9).x_m
        b = run_experiment(vac, model, 1000, seed=9).x_m
        np.testing.assert_array_equal(a, b)

    def test_photon_sampler_respects_zero_amplitude(self):
        # Conditioning at the origin kills the one-photon amplitude.
        state = conditional_state(FockState.vacuum(16), MeasurementModel(1.0, 16), 0.0)
        u = np.random.default_rng(3).random(500)
        draws = _draw_from_row(state.probabilities(), u)
        assert 1 not in set(draws.tolist())
        assert 0 in set(draws.tolist()) and 2 in set(draws.tolist())

    def test_photon_sampler_on_eigenstate(self):
        u = np.random.default_rng(4).random(50)
        draws = _draw_from_row(FockState.vacuum(8).probabilities(), u)
        np.testing.assert_array_equal(draws, np.zeros(50))

    def test_jump_fraction_matches_exact(self):
        vac = FockState.vacuum(32)
        model = MeasurementModel(2.0, 32)
        shots = run_experiment(vac, model, 200_000, seed=5)
        fraction = np.mean(shots.photon_n >= 1)
        exact = jump_probability(vac, model)
        sigma = np.sqrt(exact * (1.0 - exact) / len(shots))
        assert abs(fraction - exact) < 3.0 * sigma


class TestRunExperiment:
    def test_shots_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            run_experiment(FockState.vacuum(8), MeasurementModel(1.0, 8), 0, seed=1)

    @pytest.mark.parametrize("seed", [-1, 1.5, "7"])
    def test_seed_must_be_nonnegative_integer(self, seed):
        with pytest.raises(InvalidParameterError, match="seed"):
            run_experiment(FockState.vacuum(8), MeasurementModel(1.0, 8), 10, seed=seed)

    def test_records_carry_lineage(self):
        shots = run_experiment(FockState.vacuum(16), MeasurementModel(5.0, 16),
                               1000, seed=11)
        assert len(shots) == 1000
        np.testing.assert_array_equal(shots.shot_index, np.arange(1000))
        np.testing.assert_array_equal(shots.rng_stream_id, np.zeros(1000))
        assert shots.x_m.dtype == np.float64 and shots.photon_n.dtype == np.int64
        assert np.all((shots.photon_n >= 0) & (shots.photon_n < 16))
        with pytest.raises(ValueError):
            shots.x_m[0] = 0.0

    def test_identical_seeds_identical_records(self):
        args = (FockState.vacuum(16), MeasurementModel(5.0, 16), 2000)
        a, b = run_experiment(*args, seed=7), run_experiment(*args, seed=7)
        assert np.array_equal(a.x_m, b.x_m)
        assert np.array_equal(a.photon_n, b.photon_n)

    def test_parallel_equals_serial(self):
        vac = FockState.vacuum(32)
        model = MeasurementModel(5.0, 32)
        serial = run_experiment(vac, model, 120_000, seed=3, threads=1)
        threaded = run_experiment(vac, model, 120_000, seed=3, threads=4)
        assert np.array_equal(serial.x_m, threaded.x_m)
        assert np.array_equal(serial.photon_n, threaded.photon_n)

    def test_uneven_last_shard(self):
        vac = FockState.vacuum(8)
        model = MeasurementModel(5.0, 8)
        shots = SHARD_SIZE + 3
        serial = run_experiment(vac, model, shots, seed=13, threads=1)
        threaded = run_experiment(vac, model, shots, seed=13, threads=2)
        np.testing.assert_array_equal(serial.shot_index, np.arange(shots))
        stream = serial.rng_stream_id
        assert np.all(stream[:SHARD_SIZE] == 0) and np.all(stream[SHARD_SIZE:] == 1)
        assert np.array_equal(serial.x_m, threaded.x_m)
        assert np.array_equal(serial.photon_n, threaded.photon_n)
        # The first shard's stream does not depend on the total shot count.
        whole = run_experiment(vac, model, SHARD_SIZE, seed=13)
        assert np.array_equal(whole.x_m, serial.x_m[:SHARD_SIZE])
        assert np.array_equal(whole.photon_n, serial.photon_n[:SHARD_SIZE])

    def test_jump_shots_concentrate_near_peaks(self):
        # Conditional mean of x^2 among jump shots tends to 3 dx^2.
        vac = FockState.vacuum(32)
        model = MeasurementModel(5.0, 32)
        shots = run_experiment(vac, model, 400_000, seed=21)
        jumps = shots.x_m[shots.photon_n >= 1]
        assert jumps.size > 500
        se = np.std(jumps**2) / np.sqrt(jumps.size)
        assert abs(np.mean(jumps**2) - 3.0 * model.delta_x**2) < 4.0 * se


def _photon_cdf(probs: np.ndarray) -> np.ndarray:
    cum = np.cumsum(probs, axis=1)
    return cum / cum[:, -1:]


class TestTabulatedPhotonDraw:
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(dx=st.floats(0.15, 20.0), dim=st.sampled_from([8, 16, 32, 64, 96]),
           photons=st.sampled_from([0, 1]))
    def test_matches_exact_kernel_or_raises(self, dx, dim, photons):
        # Oracle: the exact per-shot kernel |<n|P(x_m)|psi>|^2 at each sampled x_m.
        state = FockState.number(dim, photons)
        model = MeasurementModel(dx, dim)
        tables = []
        build = jumps._sampling_table

        def kept(*args):
            tables.append(build(*args))
            return tables[-1]

        try:
            with mock.patch.object(jumps, "_sampling_table", kept):
                shots = run_experiment(state, model, 2000, seed=5)
        except TruncationOverflowError:
            return
        (xs, cdf, _), = tables
        rng = np.random.default_rng([5, 0])
        u_x = rng.random(2000)
        u_n = rng.random(2000)
        assert np.array_equal(shots.x_m, np.interp(u_x, cdf, xs))
        # The drawn n must be the exact conditional CDF's inverse at u_n:
        # F(n - 1) <= u_n <= F(n), up to the table's interpolation error.
        exact = _photon_cdf(np.abs(measurement_amplitudes(state, model, shots.x_m)) ** 2)
        below = np.hstack((np.zeros((2000, 1)), exact))
        n = shots.photon_n
        assert np.all(below[np.arange(2000), n] - 5e-5 <= u_n)
        assert np.all(u_n <= exact[np.arange(2000), n] + 5e-5)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_bisection_equals_interpolated_count(self, data):
        # Oracle: the O(dim) draw that interpolates the joint rows and counts
        # the levels whose cumulative sum stays below u * total.
        dim = data.draw(st.integers(2, 97), label="dim")
        rows = data.draw(st.integers(2, 5), label="rows")
        # Levels and weights stay far above underflow.  A product that rounds
        # into the subnormals loses bits the other route keeps: rows of
        # 5e-324 at w = 0.5 sum to 0 interpolated, but not cumulated.  The
        # sampler's rows sum to at least the outcome density at 6 sigma.
        level = st.one_of(st.just(0.0), st.floats(2.0**-200, 1e3))
        joint = data.draw(arrays(np.float64, (rows, dim), elements=level), label="joint")
        # Levels without weight inside every row, and an all-zero edge row.
        zero_levels = data.draw(st.lists(st.integers(0, dim - 1), max_size=4), label="zero_levels")
        joint[:, zero_levels] = 0.0
        edge = data.draw(st.sampled_from([None, 0, rows - 1]), label="edge")
        if edge is not None:
            joint[edge] = 0.0
        shots = data.draw(st.integers(1, 16), label="shots")
        i = data.draw(arrays(np.intp, shots, elements=st.integers(0, rows - 2)), label="i")
        weight = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(2.0**-200, 1.0))
        w = data.draw(arrays(np.float64, shots, elements=weight), label="w")
        # default_rng().random() draws multiples of 2**-53 in [0, 1 - 2**-53].
        k = st.one_of(st.integers(0, 4), st.integers(2**53 - 5, 2**53 - 1), st.integers(0, 2**53 - 1))
        u = data.draw(arrays(np.int64, shots, elements=k), label="k") * 2.0**-53
        # The sampler's table is level-major: level k of node i is cum[k, i].
        cum = np.ascontiguousarray(np.cumsum(joint, axis=1).T)
        try:
            expected = photon_draw_interpolated(joint, i, w, u)
        except DegenerateConditioningError:
            with pytest.raises(DegenerateConditioningError):
                jumps._photon_draw(cum, i, w, u)
            return
        np.testing.assert_array_equal(jumps._photon_draw(cum, i, w, u), expected)

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(nodes=st.sampled_from([2, 3, 17, 1000]), offset=st.sampled_from([0.0, 1.0, -1e3]),
           span=st.floats(-14.0, 3.0), decades=st.floats(0.0, 30.0), empty=st.sampled_from([0.0, 0.3]),
           dim=st.sampled_from([2, 3, 8, 33]), seed=st.integers(0, 2**32 - 1), stream=st.integers(0, 3))
    def test_shard_reads_the_searched_node_cell(self, nodes, offset, span, decades, empty, dim,
                                                seed, stream):
        # Oracle: the node cell np.searchsorted finds for each outcome.  The
        # shard reads the outcome draw's own CDF cell instead; a shot whose
        # outcome rounds onto the cell's right node reads that node's column
        # either way.  Cells a few ulps wide, around an offset node range,
        # make such shots common.
        width = 10.0**span * max(1.0, abs(offset))
        xs = offset + np.linspace(-width, width, nodes)
        assume(np.all(np.diff(xs) > 0.0))
        rng = np.random.default_rng(seed)
        mass = 10.0 ** (-decades * rng.random(nodes - 1))
        mass[rng.random(nodes - 1) < empty] = 0.0
        cdf = _tilted_cdf(mass)
        with np.errstate(divide="ignore"):
            slopes = np.diff(xs) / np.diff(cdf)
        cum = np.ascontiguousarray(np.cumsum(rng.random((nodes, dim)) ** 4, axis=1).T)
        count = 2000
        x, n = jumps._run_shard(xs, cdf, slopes, jumps._outcome_guide(cdf), cum, seed, stream, count)
        draws = np.random.default_rng([seed, stream])
        u_x, u_n = draws.random(count), draws.random(count)
        assert x.tobytes() == np.interp(u_x, cdf, xs).tobytes()
        i = np.clip(np.searchsorted(xs, x, "right") - 1, 0, nodes - 2)
        w = np.clip((x - xs[i]) / (xs[i + 1] - xs[i]), 0.0, 1.0)
        np.testing.assert_array_equal(n, jumps._photon_draw(cum, i, w, u_n))

    @pytest.mark.parametrize("shots, threads", [(1000, 1), (120_000, 1), (120_000, 2)])
    def test_kernel_rows_do_not_grow_with_shots(self, monkeypatch, shots, threads):
        # The sampling table is the sampler's only kernel evaluation.
        rows = []
        kernel = jumps._amplitude_levels

        def counting(state, model, x_values):
            rows.append(np.size(x_values))
            return kernel(state, model, x_values)

        monkeypatch.setattr(jumps, "_amplitude_levels", counting)
        run_experiment(FockState.vacuum(8), MeasurementModel(5.0, 8), shots, seed=1,
                       threads=threads)
        assert sum(rows) == SAMPLING_GRID_COUNT


def _tilted_cdf(mass: np.ndarray) -> np.ndarray:
    """The sampler's outcome CDF of per-cell masses: tilted by 1e-16 per node, then normalised."""
    cdf = np.concatenate(([0.0], np.cumsum(mass)))
    cdf += np.arange(cdf.size) * 1e-16
    cdf /= cdf[-1]
    return cdf


class TestGuidedOutcomeDraw:
    """The guide-table draw gives np.interp's outcomes and searchsorted's cells, bit for bit."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(nodes=st.sampled_from([2, 3, 17, 1000, SAMPLING_GRID_COUNT]),
           decades=st.floats(0.0, 300.0), empty=st.sampled_from([0.0, 0.3, 0.9]),
           tail=st.floats(0.0, 1.0), span=st.floats(-300.0, 250.0),
           fewer_shots=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_draw_equals_interp(self, nodes, decades, empty, tail, span, fewer_shots, seed):
        rng = np.random.default_rng(seed)
        # Cell masses from 1 down to 10**-decades, some cells empty, and a
        # right tail without mass, where only the tilt is left: it is
        # absorbed near 1 into flat runs of the CDF.  Spans from 1e-300 to
        # 1e250 give slopes from tiny to huge.
        mass = 10.0 ** (-decades * rng.random(nodes - 1))
        mass[rng.random(nodes - 1) < empty] = 0.0
        mass[int((1.0 - tail) * (nodes - 1)):] = 0.0
        cdf = _tilted_cdf(mass)
        xs = np.linspace(-(10.0**span), 10.0**span, nodes)
        with np.errstate(divide="ignore"):
            slopes = np.diff(xs) / np.diff(cdf)
        guide = jumps._outcome_guide(cdf)
        # default_rng().random() draws multiples of 2**-53 in [0, 1 - 2**-53];
        # add u = 0, every bucket edge b / M, every CDF node below 1 and its
        # float neighbours, and the largest draw.
        buckets = np.arange(nodes - 1) / (nodes - 1)
        inside = cdf[cdf < 1.0]
        special = np.concatenate([[0.0, 1.0 - 2.0**-53], buckets, inside,
                                  np.nextafter(inside, 0.0), np.nextafter(inside, 1.0)])
        special = rng.permutation(special[special < 1.0])
        # np.interp precomputes its slopes only for at least as many shots as nodes.
        shots = nodes - 1 if fewer_shots else nodes + 100
        u = np.concatenate([special, rng.random(max(0, shots - special.size))])[:shots]
        expected_x = np.interp(u, cdf, xs)
        expected_j = np.searchsorted(cdf, u, "right") - 1
        # The guide shifted by one bucket either way is wrong nearly
        # everywhere; the fallback search alone then gives the same bytes.
        for table in (guide, np.append(guide[1:], guide[-1]), np.insert(guide[:-1], 0, guide[0])):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                x, j = jumps._outcome_draw(xs, cdf, slopes, table, u)
            assert x.tobytes() == expected_x.tobytes()
            np.testing.assert_array_equal(j, expected_j)

    def test_shot_on_a_node_takes_the_node_value(self):
        # A u equal to a CDF node gets that node's outcome as it is, as in
        # np.interp: slope * 0 + (-0.0) would read +0.0.
        xs = np.array([-1.0, -0.0, 1.0])
        cdf = np.array([0.0, 0.5, 1.0])
        u = np.array([0.0, 0.5, 0.75])
        x, j = jumps._outcome_draw(xs, cdf, np.diff(xs) / np.diff(cdf), jumps._outcome_guide(cdf), u)
        assert x.tobytes() == np.interp(u, cdf, xs).tobytes()
        np.testing.assert_array_equal(j, [0, 1, 1])


def _sampler_input(kind: str, dim: int, seed: int) -> FockState:
    if kind == "superposition":
        amps = np.zeros(dim, dtype=np.complex128)
        amps[:4] = [1.0, 1j] @ np.random.default_rng(seed).normal(size=(2, 4))
        return FockState(amps).normalize()
    return FockState.number(dim, int(kind == "one-photon"))


class TestSamplerReference:
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(dx=st.floats(0.15, 20.0), dim=st.sampled_from([8, 16, 32, 64, 96]),
           kind=st.sampled_from(["vacuum", "one-photon", "superposition"]),
           seed=st.integers(0, 2**16))
    def test_shots_equal_the_reference_or_both_raise(self, dx, dim, kind, seed):
        # Oracle: the (count, dim) joint, its row cumsum and bisection for every shot.
        state = _sampler_input(kind, dim, seed)
        model = MeasurementModel(dx, dim)
        try:
            x_m, photon_n = sampler_reference(state, model, 3000, seed)
        except TruncationOverflowError:
            with pytest.raises(TruncationOverflowError):
                run_experiment(state, model, 3000, seed)
            return
        shots = run_experiment(state, model, 3000, seed)
        assert shots.x_m.tobytes() == x_m.tobytes()
        assert shots.photon_n.tobytes() == photon_n.tobytes()

    @pytest.mark.parametrize("dx, dim, shots, seed", [(0.2, 64, 25_000, 11), (5.0, 32, 20_000, 7)])
    def test_benchmark_shots_equal_the_reference(self, dx, dim, shots, seed):
        # The benchmark's two shot configurations draw more shots than the
        # table has nodes, where np.interp precomputes its slopes.
        state = FockState.vacuum(dim)
        model = MeasurementModel(dx, dim)
        table = run_experiment(state, model, shots, seed)
        x_m, photon_n = sampler_reference(state, model, shots, seed)
        assert shots > SAMPLING_GRID_COUNT
        assert table.x_m.tobytes() == x_m.tobytes()
        assert table.photon_n.tobytes() == photon_n.tobytes()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_shards_equal_the_reference(self, threads):
        state = _sampler_input("superposition", 32, 11)
        model = MeasurementModel(0.4, 32)
        shots = run_experiment(state, model, SHARD_SIZE + 2000, 17, threads=threads)
        x_m, photon_n = sampler_reference(state, model, SHARD_SIZE + 2000, 17)
        assert shots.x_m.tobytes() == x_m.tobytes()
        assert shots.photon_n.tobytes() == photon_n.tobytes()
        assert np.any(photon_n > 1)


class TestJumpProbability:
    def test_against_closed_form(self):
        vac = FockState.vacuum(32)
        for dx in (2.0, 4.0, 10.0):
            model = MeasurementModel(dx, 32)
            value = jump_probability(vac, model)
            assert value == pytest.approx(jump_probability_exact(dx), rel=1e-6)

    def test_wide_kernel_values(self):
        vac = FockState.vacuum(32)
        value4 = jump_probability(vac, MeasurementModel(4.0, 32))
        assert value4 == pytest.approx(1.0 / 256.0, rel=0.02)
        value10 = jump_probability(vac, MeasurementModel(10.0, 32))
        assert value10 == pytest.approx(1.0 / 1600.0, rel=0.005)

    def test_ratio_to_asymptote_monotone(self):
        vac = FockState.vacuum(32)
        ratios = []
        for dx in (2.0, 5.0, 10.0, 20.0):
            model = MeasurementModel(dx, 32)
            value = jump_probability(vac, model)
            ratios.append(value * 16.0 * dx * dx)
        assert ratios == sorted(ratios)
        assert ratios[-1] < 1.0

    @pytest.mark.parametrize("dx", [1e3, 1e5, 1e8, 1e100])
    def test_rare_jump_keeps_its_digits(self, dx):
        # The off-baseline mass is summed over the n >= 1 columns; the row
        # total minus the n = 0 column cancelled, to 0.96 relative at dx 1e8.
        value = jump_probability(FockState.vacuum(16), MeasurementModel(dx, 16))
        assert value == pytest.approx(jump_probability_exact(dx), rel=1e-13, abs=0)

    def test_one_photon_input_stays_at_weak_measurement(self):
        one = FockState.number(16, 1)
        model = MeasurementModel(100.0, 16)
        away = jump_probability(one, model)
        assert away < 1e-3


class TestExactOutcomeRule:
    @pytest.mark.parametrize("dx", [0.5, 1.0, 2.0, 5.0, 10.0, 20.0])
    def test_matches_trapezoid_oracle_and_closed_form(self, dx):
        vac = FockState.vacuum(32)
        model = MeasurementModel(dx, 32)
        report = exact_report(vac, model)
        span = 8.0 * np.sqrt(dx**2 + 0.25 + 1.0)
        grid_jump, grid_c = trapezoid_jump_integrals(
            lambda x: np.abs(measurement_amplitudes(vac, model, x)) ** 2, dx, span)
        assert report.jump_probability == pytest.approx(grid_jump, rel=1e-10, abs=0)
        assert report.exact_c_integral == pytest.approx(grid_c, rel=1e-10, abs=0)
        assert report.jump_probability == pytest.approx(jump_probability_exact(dx), rel=1e-12, abs=0)
        assert report.exact_c_integral == pytest.approx(correlation_exact(dx), rel=1e-12, abs=0)

    def test_dim_400_matches_closed_form(self):
        # The rule has 402 nodes here; a Gauss-Hermite rule whose weights turn
        # NaN above ~370 nodes makes this raise instead.
        value = jump_probability(FockState.vacuum(400), MeasurementModel(1.0, 400))
        assert value == pytest.approx(jump_probability_exact(1.0), rel=1e-12, abs=0)

    @pytest.mark.parametrize("dim", [600, 1000])
    @pytest.mark.parametrize("dx, correlation", [(1.0, 0.140625), (0.3, 0.2986111111111111)])
    def test_wide_truncation_matches_closed_form(self, dim, dx, correlation):
        # The Hermite-table kernel overflowed from dim ~600 on; the correlation
        # values are those of dim 400, where it still held.
        vac = FockState.vacuum(dim)
        model = MeasurementModel(dx, dim)
        closed = 1.0 - np.sqrt(8.0 * dx**2 / (8.0 * dx**2 + 1.0))
        assert jump_probability(vac, model) == pytest.approx(closed, rel=1e-12, abs=0)
        assert measured_correlation(vac, model) == pytest.approx(correlation, rel=1e-12, abs=0)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(dx=st.floats(0.15, 20.0), dim=st.sampled_from([8, 16, 32, 64]),
           kind=st.sampled_from(["vacuum", "one-photon", "levels-0-2"]),
           seed=st.integers(0, 2**16))
    def test_unchanged_with_more_nodes_or_raises(self, dx, dim, kind, seed):
        if kind == "levels-0-2":
            amps = np.zeros(dim, dtype=np.complex128)
            amps[:3] = [1.0, 1j] @ np.random.default_rng(seed).normal(size=(2, 3))
            state = FockState(amps).normalize()
        else:
            state = FockState.number(dim, int(kind == "one-photon"))
        model = MeasurementModel(dx, dim)
        try:
            value = exact_report(state, model)
        except TruncationOverflowError:
            return
        rule = measurement._outcome_rule
        # The rule's node count is dim + top + 2; the same rule for 2 dim has dim more nodes.
        wider = lambda s, m: rule(s, MeasurementModel(m.delta_x, 2 * m.dim))
        with mock.patch.object(measurement, "_outcome_rule", wider):
            assert measurement._outcome_rule(state, model)[0].size == rule(state, model)[0].size + dim
            again = exact_report(state, model)
        for field in ("jump_probability", "exact_c_integral"):
            assert getattr(value, field) == pytest.approx(getattr(again, field), rel=1e-12, abs=1e-15)


class TestKernelTruncationGuard:
    def test_leak_below_limit_matches_closed_form(self):
        # The kernel leaks 2.6e-7 of the vacuum above level 47 at dx 0.2.
        vac = FockState.vacuum(48)
        model = MeasurementModel(0.2, 48)
        value = jump_probability(vac, model)
        assert value == pytest.approx(jump_probability_exact(0.2), abs=1e-6)

    def test_integrals_reject_leaking_kernel(self):
        vac = FockState.vacuum(32)
        model = MeasurementModel(0.1, 32)
        with pytest.raises(TruncationOverflowError, match="leaks mass 2.7"):
            jump_probability(vac, model)
        with pytest.raises(TruncationOverflowError):
            measured_correlation(vac, model)

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
            value = jump_probability(vac, model)
        except TruncationOverflowError:
            return
        assert abs(value - jump_probability_exact(dx)) <= 2e-6


class TestMeasuredCorrelation:
    def test_near_one_eighth_at_wide_resolution(self):
        vac = FockState.vacuum(32)
        model = MeasurementModel(10.0, 32)
        value = measured_correlation(vac, model)
        assert value == pytest.approx(0.125, rel=0.01)

    @pytest.mark.parametrize("dx", [2.0, 5.0, 10.0, 20.0])
    def test_against_closed_form(self, dx):
        vac = FockState.vacuum(32)
        model = MeasurementModel(dx, 32)
        value = measured_correlation(vac, model)
        assert value == pytest.approx(correlation_exact(dx), rel=1e-6)

    def test_deviation_shrinks_with_resolution(self):
        vac = FockState.vacuum(32)
        deviations = []
        for dx in (5.0, 10.0, 20.0):
            model = MeasurementModel(dx, 32)
            value = measured_correlation(vac, model)
            deviations.append(abs(value - 0.125))
        assert deviations == sorted(deviations, reverse=True)

    def test_asymptotic_form_gives_exactly_one_eighth(self):
        # Gaussian moments: E x^4 = 3 dx^4 and E x^2 = dx^2 under the wide
        # kernel make the integral (3 - 1) dx^4/(16 dx^4) = 1/8 exactly.
        dx = 6.0
        nodes, weights = trapezoid_grid(10.0 * dx, 8001)
        integrand = p1_asymptotic(dx, nodes) * (nodes**2 - dx**2)
        assert integrand @ weights == pytest.approx(0.125, rel=1e-9)


class TestUnderflowingJointDensity:
    """Past dx ~ 9.4e101 the vacuum's joint density off n = 0 is subnormal: a typed error, not 0."""

    @pytest.mark.parametrize("dim", [8, 32])
    @pytest.mark.parametrize("dx", [*np.geomspace(10.0, 3e153, 16), 9.3e101, 9.4e101, 1e103, 1e110])
    def test_closed_form_or_out_of_range(self, dx, dim):
        # Each exact integral matches its closed form within 1e-12 or raises.
        # At dx 1e110 both read 0.0, against 6.25e-222 and 1/8.
        vac = FockState.vacuum(dim)
        model = MeasurementModel(dx, dim)
        for compute, closed in ((jump_probability, jump_probability_exact),
                                (measured_correlation, correlation_exact)):
            try:
                value = compute(vac, model)
            except OutOfRangeError:
                assert dx > 9.3e101
            except InvalidParameterError:
                # x_m^2 - dx^2 leaves float64 first (TestOverflowingResolution).
                assert compute is measured_correlation and dx > 1e153
            else:
                assert value == pytest.approx(closed(dx), rel=1e-12, abs=0)

    @pytest.mark.parametrize("state", [FockState.vacuum(32), FockState.number(32, 1)])
    def test_report_and_summary_refuse(self, state):
        model = MeasurementModel(1e110, 32)
        with pytest.raises(OutOfRangeError, match="delta_x 1e\\+110"):
            exact_report(state, model)
        with pytest.raises(OutOfRangeError, match="delta_x 1e\\+110"):
            summarize(run_experiment(state, model, 200, seed=1), state, model)


class TestOverflowingResolution:
    """At dx 3.3e153 x_m^2 - dx^2 leaves float64: a typed error naming dx, no warning."""

    DX = 3.3e153

    def _raises(self, compute):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError, match="delta_x 3.3e\\+153"):
                compute(FockState.vacuum(16), MeasurementModel(self.DX, 16))

    def test_measured_correlation(self):
        self._raises(measured_correlation)

    def test_exact_report(self):
        self._raises(exact_report)

    def test_summarize(self):
        self._raises(lambda state, model: summarize(
            run_experiment(state, model, 200, seed=1), state, model))


class TestOperatorCorrelation:
    @pytest.mark.parametrize("dim", [4, 6, 8, 16, 32, 64])
    def test_vacuum_is_exactly_one_eighth(self, dim):
        assert operator_correlation(FockState.vacuum(dim)) == pytest.approx(0.125, abs=1e-12)

    def test_only_sandwiched_term_contributes_for_vacuum(self):
        dim = 8
        x = quadrature_x(dim)
        n = number_operator(dim)
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

    def test_dim_too_small(self):
        with pytest.raises(InvalidParameterError):
            operator_correlation(FockState.vacuum(3))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(dim=st.integers(4, 64), data=st.data())
    def test_ladder_action_matches_the_dense_matrices(self, dim, data):
        # A random complex input on levels 0..top, any top, normalised: the
        # ladder route against products of the dense truncated matrices.
        top = data.draw(st.integers(0, dim - 1), label="top")
        parts = st.floats(-1.0, 1.0)
        amps = np.zeros(dim, dtype=np.complex128)
        for level in range(top + 1):
            amps[level] = complex(data.draw(parts), data.draw(parts))
        if np.linalg.norm(amps) < 1e-3:
            amps[top] = 1.0
        state = FockState(amps).normalize()
        x = quadrature_x(dim)
        expected_c = operator_correlation_dense(state)
        expected_x2 = np.linalg.norm(x @ state.amplitudes) ** 2
        for value, expected in ((operator_correlation(state), expected_c),
                                (x_second_moment(state), expected_x2)):
            assert abs(value - expected) <= 1e-13 * max(1.0, abs(expected))


class TestUnnormalizedInput:
    """Each statistic refuses an input whose squared norm is not 1 to 1e-12.

    For 2 |0> at dx 1, dim 8 the jump probability would read 0.2288, four
    times the vacuum's, next to a sampled jump fraction near the vacuum's.
    """

    MODEL = MeasurementModel(1.0, 8)
    DOUBLED = FockState(2.0 * FockState.vacuum(8).amplitudes)

    @pytest.mark.parametrize("entry", [
        lambda state, model: operator_correlation(state),
        jump_probability,
        measured_correlation,
        exact_report,
        lambda state, model: summarize(run_experiment(FockState.vacuum(8), model, 100, seed=1),
                                       state, model),
        lambda state, model: run_experiment(state, model, 100, seed=1),
    ], ids=["operator_correlation", "jump_probability", "measured_correlation",
            "exact_report", "summarize", "run_experiment"])
    def test_refused(self, entry):
        with pytest.raises(InvalidParameterError, match="normalized"):
            entry(self.DOUBLED, self.MODEL)
        # 1e-13 off in the squared norm is rounding, not a different state.
        nearly = FockState(np.sqrt(1.0 + 1e-13) * FockState.vacuum(8).amplitudes)
        entry(nearly, self.MODEL)
        with pytest.raises(InvalidParameterError, match="normalized"):
            entry(FockState(np.sqrt(1.0 + 1e-11) * FockState.vacuum(8).amplitudes), self.MODEL)


class TestSummarize:
    def test_estimators_within_three_sigma(self):
        vac = FockState.vacuum(32)
        model = MeasurementModel(5.0, 32)
        shots = run_experiment(vac, model, 200_000, seed=123)
        report = summarize(shots, vac, model)
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
        shots = run_experiment(vac, model, 400_000, seed=8)
        report = summarize(shots, vac, model)
        gap = report.measured_c - report.measured_covariance
        assert gap == pytest.approx(report.jump_probability / 4.0, abs=5e-4)

    def test_covariance_estimates_the_operator_correlation(self):
        # On the exact outcome rule E[n (x_m^2 - dx^2)] - E[n] E[x_m^2 - dx^2]
        # equals operator_correlation for any input, so the sampled covariance
        # estimates operator_c itself, not the vacuum's 1/8 limit.  At dx 2
        # exact_c_integral reads 0.887 for one photon, far from operator_c.
        one = FockState.number(32, 1)
        model = MeasurementModel(2.0, 32)
        shots = run_experiment(one, model, 200_000, seed=3)
        report = summarize(shots, one, model)
        assert report.operator_c == pytest.approx(0.125, abs=1e-12)
        assert abs(report.exact_c_integral - report.operator_c) > 0.5
        gap = abs(report.measured_covariance - report.operator_c)
        assert gap <= 6.0 * report.standard_errors["measured_covariance"]

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
        shots = run_experiment(vac, model, 1000, seed=2)
        report = summarize(shots, vac, model)
        assert CorrelationReport(**report.to_dict()) == report

    def test_empty_records_rejected(self):
        empty = ShotTable(x_m=np.empty(0), photon_n=np.empty(0, dtype=np.int64))
        with pytest.raises(InvalidParameterError):
            summarize(empty, FockState.vacuum(8), MeasurementModel(1.0, 8))

    @pytest.mark.parametrize("photon_n", [[0, 99, 1], [16, 0, 0], [0, 0, 2**40]])
    def test_photon_numbers_past_the_model_rejected(self, photon_n):
        # [0, 99, 1] read measured_c -33.3 from a photon number no dim-16 model has.
        table = ShotTable(np.zeros(3), np.array(photon_n))
        with pytest.raises(DimensionMismatchError, match="not a level of model dim 16"):
            summarize(table, FockState.vacuum(16), MeasurementModel(1.0, 16))

    def test_shot_table_columns_must_match(self):
        with pytest.raises(DimensionMismatchError):
            ShotTable(x_m=np.zeros(3), photon_n=np.zeros(2, dtype=np.int64))

    def test_negative_standard_errors_rejected(self):
        with pytest.raises(InvalidParameterError):
            CorrelationReport(
                exact_c_integral=0.125,
                operator_c=0.125,
                jump_probability=0.01,
                standard_errors={"measured_c": -1.0},
            )
