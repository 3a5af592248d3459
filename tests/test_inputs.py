"""The input policy: every numeric parameter is read as its plain number or refused.

An integer parameter takes a Python or numpy integer; a real one a finite
Python or numpy int or float, or a 0-d array of one; an array parameter an
array of such numbers.  Bools are refused everywhere: True would count as 1.
Complex values, text, None, NaN, infinities and ragged nesting raise a
BaeQndError subclass, never a bare numpy error, a warning or a wrong value.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baeqnd import (
    BaeQndError,
    Calibration,
    CorrelationReport,
    FockState,
    InvalidParameterError,
    MeasurementModel,
    OutOfRangeError,
    SetupCircuit,
    ShotTable,
    asymptotic_p1,
    completeness_defect,
    conditional_state,
    outcome_density,
    outcome_density_table,
    run_experiment,
    trusted_levels,
    truncated_square_defect,
    wavefunction_table,
)
from baeqnd.cli import EXIT_CONFIG, main
from baeqnd.measurement import measurement_amplitudes

VAC8, MODEL8 = FockState.vacuum(8), MeasurementModel(1.0, 8)
VAC16, MODEL16 = FockState.vacuum(16), MeasurementModel(1.0, 16)
CIRCUIT = SetupCircuit(1.5, 16)


def _gain_and_dim(circuit):
    return circuit.gain_a, circuit.dim


#: Site -> (the kind of number it reads, a call that feeds it one value).
#: "int" is a Python or numpy integer; "int_array", "real" and "complex" are
#: read through the dtype, so a 0-d array of the kind is the same number.
SITES = {
    "FockState.number dim": ("int", lambda v: FockState.number(v, 1)),
    "FockState.number n": ("int", lambda v: FockState.number(8, v)),
    "FockState.vacuum": ("int", FockState.vacuum),
    "FockState amplitudes": ("complex", lambda v: FockState([v, v])),
    "trusted_levels": ("int", trusted_levels),
    "wavefunction_table count": ("int", lambda v: wavefunction_table(v, [0.3, -1.2])),
    "wavefunction_table x": ("real", lambda v: wavefunction_table(5, v)),
    "MeasurementModel delta_x": ("real", lambda v: MeasurementModel(v, 8)),
    "MeasurementModel dim": ("int", lambda v: MeasurementModel(1.0, v)),
    "asymptotic_p1 delta_x": ("real", lambda v: asymptotic_p1(v, [0.5, 3.0])),
    "asymptotic_p1 x_m": ("real", lambda v: asymptotic_p1(2.0, v)),
    "outcome_density": ("real", lambda v: outcome_density(VAC16, MODEL16, v)),
    "conditional_state": ("real", lambda v: conditional_state(VAC16, MODEL16, v)),
    "outcome_density_table": ("real", lambda v: outcome_density_table(VAC16, MODEL16, v)),
    "completeness_defect dims": ("int", lambda v: completeness_defect(MODEL8, [v])),
    "truncated_square_defect dims": ("int", lambda v: truncated_square_defect(MODEL8, [v, 8])),
    "run_experiment shots": ("int", lambda v: run_experiment(VAC8, MODEL8, v, 3)),
    "run_experiment seed": ("int", lambda v: run_experiment(VAC8, MODEL8, 5, v)),
    "run_experiment threads": ("int", lambda v: run_experiment(VAC8, MODEL8, 5, 3, threads=v)),
    "ShotTable x_m": ("real", lambda v: ShotTable([v], [1])),
    "ShotTable photon_n": ("int_array", lambda v: ShotTable([0.5], [v])),
    "CorrelationReport exact_c_integral": ("real", lambda v: CorrelationReport(v, 0.125, 0.01)),
    "CorrelationReport operator_c": ("real", lambda v: CorrelationReport(0.1, v, 0.01)),
    "CorrelationReport jump_probability": ("real", lambda v: CorrelationReport(0.1, 0.125, v)),
    "CorrelationReport standard error": (
        "real", lambda v: CorrelationReport(0.1, 0.125, 0.01, standard_errors={"measured_c": v})),
    "SetupCircuit gain_a": ("real", lambda v: _gain_and_dim(SetupCircuit(v, 8))),
    "SetupCircuit dim": ("int", lambda v: _gain_and_dim(SetupCircuit(1.5, v))),
    "SetupCircuit.homodyne_amplitudes": ("real", lambda v: CIRCUIT.homodyne_amplitudes(VAC16, v)),
    "Calibration scale": ("real", lambda v: Calibration(v, 0.0)),
}

# Dims stay at most 16 so that every accepted call is quick.
_INTS = st.integers(-3, 16)
_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
_COMPLEX = st.complex_numbers(max_magnitude=4.0)
VALUES = st.one_of(
    _INTS,
    _FLOATS,
    _INTS.map(np.int64),
    _FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
    _INTS.map(np.array),
    _FLOATS.map(np.array),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.booleans().map(np.array),
    _COMPLEX,
    _COMPLEX.map(np.complex128),
    st.text(max_size=3),
    st.none(),
    st.just([[1.0], [1.0, 2.0]]),
)


def _plain(value, kind):
    """The plain number a site of this kind must read value as, or None if it must refuse it."""
    if kind == "int":
        integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
        return int(value) if integer else None
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        return None
    kinds, cast = {
        "int_array": ("iu", int), "real": ("iuf", float), "complex": ("iufc", complex),
    }[kind]
    if arr.ndim != 0 or arr.dtype.kind not in kinds:
        return None
    return cast(arr.item())


def _same(a, b) -> bool:
    if isinstance(a, FockState):
        return _same(a.amplitudes, b.amplitudes)
    if isinstance(a, ShotTable):
        return _same(a.x_m, b.x_m) and _same(a.photon_n, b.photon_n)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("site", sorted(SITES))
@settings(max_examples=30, deadline=None)
@given(value=VALUES)
def test_every_number_is_read_as_its_plain_value_or_refused(site, value):
    kind, call = SITES[site]
    plain = _plain(value, kind)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if plain is None:
            with pytest.raises(BaeQndError):
                call(value)
            return
        try:
            expected = call(plain)
        except BaeQndError as exc:
            with pytest.raises(type(exc)):
                call(value)
        else:
            assert _same(call(value), expected)


class TestNumpyScalars:
    def test_numpy_integer_resolution_is_the_plain_number(self):
        # Refused with "delta_x must be positive and finite" while a plain 2 passed.
        model = MeasurementModel(np.int64(2), 16)
        assert model == MeasurementModel(2.0, 16)
        assert type(model.delta_x) is float and model.delta_x == 2.0
        assert MeasurementModel(np.array(0.5), np.int64(16)) == MeasurementModel(0.5, 16)

    def test_numpy_integer_gain_is_the_plain_number(self):
        circuit = SetupCircuit(np.int64(2), np.int64(16))
        plain = SetupCircuit(2.0, 16)
        for name in ("gain_a", "dim", "delta_x", "reflectivity"):
            assert getattr(circuit, name) == getattr(plain, name)
        assert type(circuit.gain_a) is float and type(circuit.dim) is int

    def test_python_integer_beyond_int64_is_a_seed(self):
        big = 2**70
        table = run_experiment(VAC8, MODEL8, 5, big)
        assert _same(table, run_experiment(VAC8, MODEL8, 5, big))


class TestBoolsAreRefused:
    def test_photon_number_true_is_not_one(self):
        # number(8, True) indexed with a bool and returned the all-ones vector.
        with pytest.raises(OutOfRangeError, match="photon number True outside 0..7"):
            FockState.number(8, True)

    @pytest.mark.parametrize("call", [
        lambda: run_experiment(VAC8, MODEL8, True, 3),
        lambda: run_experiment(VAC8, MODEL8, 5, False),
        lambda: wavefunction_table(True, [0.0]),
        lambda: measurement_amplitudes(VAC8, MODEL8, [True, False]),
        lambda: outcome_density(VAC8, MODEL8, True),
        lambda: FockState([True, False]),
    ])
    def test_bools_raise(self, call):
        # Each of these read True as 1 (one shot, seed 0, one level, the
        # outcome 1.0, the amplitude 1).
        with pytest.raises(InvalidParameterError):
            call()


class TestNonRealInputs:
    @pytest.mark.parametrize("x", [[1 + 2j], np.array([1 + 2j]), "abc", [1.0, None]])
    def test_wavefunction_argument_must_be_real(self, x):
        # [1 + 2j] returned the values at x = 1 with a ComplexWarning; text
        # raised a bare ValueError.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError, match="wavefunction argument must be"):
                wavefunction_table(2, x)

    @pytest.mark.parametrize("kwargs, message", [
        ({"x_m": [np.nan], "photon_n": [1]}, "x_m must be finite"),
        ({"x_m": [1.0], "photon_n": [1.7]}, "photon_n must be numeric"),
        ({"x_m": [0.5, 1.0], "photon_n": [-3, 1]}, "photon_n must be >= 0"),
        ({"x_m": [1 + 1j], "photon_n": [1]}, "x_m must be numeric"),
    ])
    def test_shot_table_columns(self, kwargs, message):
        # These were stored as NaN, photon 1 and photon -3 (which summarize
        # read into measured_c 4.125), or raised a bare TypeError.
        with pytest.raises(InvalidParameterError, match=message):
            ShotTable(**kwargs)

    @pytest.mark.parametrize("error", [np.nan, -0.1, np.inf, "0.1", None])
    def test_report_standard_errors(self, error):
        # NaN passed, since nan < 0 is false.
        with pytest.raises(InvalidParameterError):
            CorrelationReport(0.1, 0.125, 0.01, standard_errors={"measured_c": error})

    def test_report_fields(self):
        # The report took text, None and a list as its exact fields and any
        # shot count; the JSON writer refused them only later.
        with pytest.raises(InvalidParameterError):
            CorrelationReport("a", None, [1.0], shots="many")
        with pytest.raises(InvalidParameterError, match="shots"):
            CorrelationReport(0.1, 0.125, 0.01, shots="many")

    @pytest.mark.parametrize("field", ["measured_c", "measured_covariance", "jump_fraction"])
    @pytest.mark.parametrize("value", ["0.1", [0.1], np.nan, -np.inf, 1 + 1j, True])
    def test_report_sampled_fields(self, field, value):
        with pytest.raises(InvalidParameterError, match=field):
            CorrelationReport(0.1, 0.125, 0.01, shots=10, **{field: value})

    @pytest.mark.parametrize("shots", [0, -1, 2.0, True, "many", [10]])
    def test_report_shots(self, shots):
        with pytest.raises(InvalidParameterError, match="shots"):
            CorrelationReport(0.1, 0.125, 0.01, shots=shots)

    def test_report_reads_numpy_numbers_as_plain(self):
        sampled = {"measured_c": np.float64(0.1), "measured_covariance": np.array(0.2),
                   "jump_fraction": np.int64(0)}
        report = CorrelationReport(np.float32(0.5), np.int64(0), 0.01, np.int64(10), **sampled)
        assert report == CorrelationReport(0.5, 0.0, 0.01, 10, 0.1, 0.2, 0.0)
        assert type(report.shots) is int and type(report.operator_c) is float
        assert CorrelationReport(0.1, 0.125, 0.01).measured_c is None

    @pytest.mark.parametrize("scale", [0.0, np.nan, "x", None, [1.0]])
    def test_calibration_scale(self, scale):
        # "x" made equivalence_defect raise a bare TypeError; 0 divided by zero.
        with pytest.raises(InvalidParameterError, match="calibration scale"):
            Calibration(scale, 0.0)


class TestAsymptoticP1Edges:
    def test_resolution_below_the_normal_range(self):
        # Raised a bare ZeroDivisionError.
        with pytest.raises(InvalidParameterError, match=r"outside \[1.49e-154"):
            asymptotic_p1(1e-200, 1.0)

    def test_resolution_whose_quartic_underflows(self):
        # (4 dx^2)^2 underflowed to 0: 0/0 read NaN with a RuntimeWarning.
        with pytest.raises(InvalidParameterError, match="underflows"):
            asymptotic_p1(1e-100, 0.0)

    @pytest.mark.parametrize("x_m", [np.nan, np.inf, -np.inf, [0.5, np.nan]])
    def test_outcome_must_be_finite(self, x_m):
        # NaN came back silently, and infinity as NaN with a RuntimeWarning.
        with pytest.raises(InvalidParameterError, match="x_m must be finite"):
            asymptotic_p1(1.0, x_m)

    @pytest.mark.parametrize("delta_x, x_m", [(1.0, 1e200), (1e-70, 1.0), (1.0, -1.7e308)])
    def test_far_tails_are_zero(self, delta_x, x_m):
        # x^2 / (4 dx^2)^2 overflowed where the Gaussian is 0: NaN or a warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert asymptotic_p1(delta_x, x_m) == 0.0

    def test_peak_at_the_smallest_resolution_is_finite(self):
        peak = asymptotic_p1(1e-70, np.sqrt(2.0) * 1e-70)
        assert np.isfinite(peak) and peak > 1e200


class TestHugeOutcomes:
    def test_kernel_reads_zero(self):
        # kappa x_m^2 overflowed with a RuntimeWarning, and at dx 0.001 the
        # outcome 1.7e308 gave NaN amplitudes from inf * 0.
        x = [1e200, -1.7e308, 0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            amps = measurement_amplitudes(VAC8, MeasurementModel(0.001, 8), x)
            assert outcome_density(VAC16, MODEL16, 1e200) == 0.0
        np.testing.assert_array_equal(amps[:2], 0.0)
        assert amps[2, 0] > 0.0

    def test_wavefunctions_read_zero(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = wavefunction_table(4, [1e200, -1.7e308, 30.0])
        np.testing.assert_array_equal(table, 0.0)

    def test_circuit_reads_zero_or_refuses(self):
        # The point map's squares overflowed with a RuntimeWarning; at gain
        # 1e7 the outcome 1.79e308 gave NaN amplitudes.
        far = [1e200, -1.79e308]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(CIRCUIT.homodyne_amplitudes(VAC16, far), 0.0)
            with pytest.raises(OutOfRangeError, match="float range"):
                SetupCircuit(1e7, 8).homodyne_amplitudes(VAC8, far)


class TestCliResolution:
    @pytest.mark.parametrize("bad", ["-1", "nan", "inf", "0"])
    def test_a_later_bad_sweep_value_is_refused_before_any_integral(
            self, tmp_path, capsys, monkeypatch, bad):
        def refuse(*args, **kwargs):
            raise AssertionError("an integral started")

        monkeypatch.setattr("baeqnd.cli.jump_probability", refuse)
        out = tmp_path / "sweep.json"
        code = main(["jump-sweep", "--delta-x", "1", "--delta-x", bad, "--dim", "16",
                     "--out", str(out)])
        assert code == EXIT_CONFIG
        assert list(tmp_path.iterdir()) == []
        assert "delta_x must be" in capsys.readouterr().err
