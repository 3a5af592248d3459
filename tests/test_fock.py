import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baeqnd.errors import InvalidDimensionError, InvalidParameterError, OutOfRangeError
from baeqnd.fock import (
    FockState,
    _x_action,
    require_normalized,
    trusted_levels,
    wavefunction_table,
    x_second_moment,
)
from baeqnd.measurement import MeasurementModel, _outcome_rule

from oracles import (
    is_hermitian,
    ladder,
    number_operator,
    psi_reference,
    quadrature_x,
    quadrature_y,
    trapezoid_grid,
)


class TestLadderOperators:
    def test_annihilation_lowers_one_photon(self):
        out = ladder(2) @ FockState.number(2, 1).amplitudes
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-15)

    def test_annihilation_kills_vacuum(self):
        out = ladder(4) @ FockState.vacuum(4).amplitudes
        np.testing.assert_allclose(out, np.zeros(4), atol=0)

    def test_sqrt_n_entry(self):
        assert ladder(4)[1, 2] == pytest.approx(np.sqrt(2.0), abs=1e-15)

    @pytest.mark.parametrize("dim", [2, 3, 8, 17, 32])
    def test_commutation_on_all_but_top_level(self, dim):
        a = ladder(dim)
        comm = a @ a.T - a.T @ a
        np.testing.assert_allclose(comm[: dim - 1, : dim - 1], np.eye(dim)[: dim - 1, : dim - 1],
                                   atol=1e-12)
        assert comm[dim - 1, dim - 1] == pytest.approx(-(dim - 1), abs=1e-12)

    @pytest.mark.parametrize("dim", [1, 0, -3])
    def test_dimension_validation(self, dim):
        with pytest.raises(InvalidDimensionError):
            FockState.vacuum(dim)


class TestQuadratures:
    def test_x_on_vacuum_is_half_one_photon(self):
        out = _x_action(FockState.vacuum(4).amplitudes)
        np.testing.assert_allclose(out, [0.0, 0.5, 0.0, 0.0], atol=1e-15)

    def test_vacuum_x_variance(self):
        assert x_second_moment(FockState.vacuum(4)) == pytest.approx(0.25, abs=1e-15)

    def test_one_photon_x_variance(self):
        # Oracle: direct matrix product at dim >= 3 gives <1|x^2|1> = 3/4.
        x = quadrature_x(8)
        expected = (x @ x)[1, 1]
        assert expected == pytest.approx(0.75, abs=1e-14)
        assert x_second_moment(FockState.number(8, 1)) == pytest.approx(0.75, abs=1e-13)

    def test_commutator_diagonal(self):
        x = quadrature_x(10)
        y = quadrature_y(10)
        comm = x @ y - y @ x
        assert comm[0, 0] == pytest.approx(0.5j, abs=1e-14)
        np.testing.assert_allclose(np.diag(comm)[:-1], np.full(9, 0.5j), atol=1e-13)

    def test_vacuum_y_moments(self):
        y = quadrature_y(8)
        vac = FockState.vacuum(8).amplitudes
        assert np.vdot(vac, y @ vac) == pytest.approx(0.0, abs=1e-15)
        assert np.real(np.vdot(vac, y @ y @ vac)) == pytest.approx(0.25, abs=1e-13)

    @pytest.mark.parametrize("dim", [2, 5, 16, 48])
    def test_hermitian(self, dim):
        assert is_hermitian(quadrature_x(dim), atol=1e-12)
        assert is_hermitian(quadrature_y(dim), atol=1e-12)


class TestNumberOperator:
    def test_diagonal(self):
        np.testing.assert_array_equal(np.diag(number_operator(5)), [0.0, 1.0, 2.0, 3.0, 4.0])

    def test_eigenvalues(self):
        n = number_operator(6)
        for level in (0, 1):
            amps = FockState.number(6, level).amplitudes
            assert np.vdot(amps, n @ amps) == pytest.approx(float(level), abs=0)

    def test_linearity_on_superposition(self):
        amps = np.array([1.0, 0.0, 1.0, 0.0]) / np.sqrt(2.0)
        assert np.vdot(amps, number_operator(4) @ amps) == pytest.approx(1.0, abs=1e-14)


def _psi(n, x):
    """psi_n(x), the last row of the wavefunction table up to level n."""
    return wavefunction_table(n + 1, x)[n]


class TestWavefunctions:
    def test_ground_state_value(self):
        assert _psi(0, 0.0) == pytest.approx((2.0 / np.pi) ** 0.25, abs=1e-14)

    def test_first_excited_is_odd(self):
        assert _psi(1, 0.0) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 12])
    def test_matches_explicit_hermite_form(self, n):
        x = np.linspace(-4.0, 4.0, 41)
        np.testing.assert_allclose(_psi(n, x), psi_reference(n, x), atol=1e-12)

    def test_orthonormality_by_quadrature(self):
        nodes, weights = trapezoid_grid(10.0, 4001)
        table = wavefunction_table(8, nodes)
        gram = np.einsum("ni,mi,i->nm", table, table, weights)
        np.testing.assert_allclose(gram, np.eye(8), atol=1e-10)

    def test_orthogonality_zero_two(self):
        nodes, weights = trapezoid_grid(10.0, 4001)
        overlap = (_psi(0, nodes) * _psi(2, nodes)) @ weights
        assert overlap == pytest.approx(0.0, abs=1e-10)

    def test_stable_to_level_64_and_beyond(self):
        nodes, weights = trapezoid_grid(14.0, 8001)
        for n in (64, 96):
            values = _psi(n, nodes)
            assert np.all(np.isfinite(values))
            assert (values * values) @ weights == pytest.approx(1.0, rel=1e-8)

    def test_position_number_consistency(self):
        # integral psi_n x psi_m equals the x-operator entry on low levels.
        dim = 16
        nodes, weights = trapezoid_grid(12.0, 8001)
        table = wavefunction_table(dim, nodes)
        xmat = np.einsum("ni,mi,i,i->nm", table, table, nodes, weights)
        half = dim // 2
        np.testing.assert_allclose(
            xmat[:half, :half], quadrature_x(dim)[:half, :half], atol=1e-9
        )

    def test_out_of_range_level(self):
        assert np.all(np.isfinite(wavefunction_table(257, 0.0)))
        with pytest.raises(OutOfRangeError):
            wavefunction_table(258, 0.0)
        for count in (0, -1, 2.0):
            with pytest.raises(InvalidParameterError):
                wavefunction_table(count, 0.0)

    def test_non_finite_argument(self):
        with pytest.raises(InvalidParameterError):
            wavefunction_table(1, np.inf)
        with pytest.raises(InvalidParameterError):
            wavefunction_table(3, [0.0, np.nan])


class TestGrids:
    def test_uniform_nodes(self):
        nodes, weights = trapezoid_grid(5.0, 11)
        np.testing.assert_allclose(nodes, np.arange(-5.0, 6.0), atol=1e-12)
        assert weights.sum() == pytest.approx(10.0, abs=1e-12)

    def test_gauss_hermite_symmetric(self):
        nodes, weights = _outcome_rule(FockState.number(8, 2), MeasurementModel(1.0, 8))
        assert nodes.size == weights.size == 8 + 2 + 2
        np.testing.assert_allclose(nodes, -nodes[::-1], atol=1e-12)
        assert np.all(weights > 0)

    def test_gaussian_integral(self):
        nodes, weights = trapezoid_grid(8.0, 2001)
        value = np.exp(-2.0 * nodes**2) @ weights
        assert value == pytest.approx(np.sqrt(np.pi / 2.0), abs=1e-9)


class TestStateAndOperator:
    def test_normalize_idempotent(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            raw = rng.normal(size=12) + 1j * rng.normal(size=12)
            state = FockState(raw).normalize()
            again = state.normalize()
            assert state.norm() == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(again.amplitudes, state.amplitudes, atol=1e-15)

    def test_unitary_preserves_norm(self):
        rng = np.random.default_rng(5)
        dim = 12
        herm = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        herm = herm + herm.conj().T
        from scipy.linalg import expm

        unitary = expm(1j * herm)
        for _ in range(10):
            state = FockState(rng.normal(size=dim) + 1j * rng.normal(size=dim)).normalize()
            assert FockState(unitary @ state.amplitudes).norm() == pytest.approx(1.0, abs=1e-12)

    def test_amplitudes_are_read_only(self):
        state = FockState.vacuum(4)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 2.0

    @pytest.mark.parametrize("amps", ["ab", ["a", "b"], [[1.0], [1.0, 0.0]]])
    def test_non_numeric_amplitudes_rejected(self, amps):
        # These raised a bare ValueError ("complex() arg is a malformed string").
        with pytest.raises(InvalidParameterError, match="state amplitudes must be"):
            FockState(amps)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(exponent=st.floats(-300.0, 300.0), dim=st.integers(2, 16), complex_=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_normalize_at_every_scale(self, exponent, dim, complex_, seed):
        # The squared sum underflowed or overflowed: norm 1.0000055 at 5e-160,
        # "zero-norm" at 1e-200, and an overflow warning at 1e200.
        rng = np.random.default_rng(seed)
        raw = rng.normal(size=dim) + (1j * rng.normal(size=dim) if complex_ else 0.0)
        state = FockState(raw * 10.0**exponent)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            unit = state.normalize()
            nrm = state.norm()
        assert abs(np.vdot(unit.amplitudes, unit.amplitudes).real - 1.0) <= 1e-15
        assert nrm == pytest.approx(np.linalg.norm(raw) * 10.0**exponent, rel=1e-14)

    @pytest.mark.parametrize("amps", [
        [3e-160, 4e-160] + [0.0] * 14, [1e-200, 0.0], [1e-170, 1e-170], [1e200, 1e200],
        [5e-324, 0.0], [1.5e308, -1.5e308j],
    ])
    def test_extreme_scales_normalize(self, amps):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = FockState(amps).normalize()
        require_normalized(state)

    def test_zero_norm_rejected(self):
        with pytest.raises(InvalidParameterError):
            FockState(np.zeros(4)).normalize()

    def test_number_state_validation(self):
        assert FockState.number(8, np.int64(7)).probabilities()[7] == 1.0
        for n in (-1, 8, 1.5, 1.0, "1"):
            with pytest.raises(OutOfRangeError):
                FockState.number(8, n)
        with pytest.raises(InvalidDimensionError):
            FockState.number(1, 0)

    @pytest.mark.parametrize("dim", [10**13, 2**62, 2**70])
    def test_dim_past_memory_is_out_of_range(self, dim):
        # A bare MemoryError or ValueError from numpy.  10**13 amplitudes
        # (160 TB) pass any 47-bit address space, so nothing is allocated.
        with pytest.raises(OutOfRangeError, match="no memory"):
            FockState.vacuum(dim)
        with pytest.raises(OutOfRangeError, match="no memory"):
            FockState.number(dim, 1)

    def test_trusted_levels(self):
        assert trusted_levels(16) == 12
        assert trusted_levels(40) == 30
        assert trusted_levels(2) == 2
