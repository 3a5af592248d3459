"""Acceptance suite: one test per headline claim, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines and
measured runtimes.
"""

import json
import time

import numpy as np
import pytest

from baeqnd.cli import EXIT_OK, main
from baeqnd.fock import FockState
from baeqnd.jumps import (
    jump_probability,
    measured_correlation,
    operator_correlation,
    run_experiment,
    summarize,
)
from baeqnd.measurement import (
    MeasurementModel,
    asymptotic_p1,
    completeness_defect,
)
from baeqnd.setup_model import SetupCircuit, calibrate_outcome_map, equivalence_defect

from oracles import number_operator, quadrature_x


class _Criterion:
    def __init__(self, number, label, budget_seconds):
        self.number = number
        self.label = label
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status} criterion {self.number} ({self.label}): {elapsed:.1f}s")
        if exc_type is None and elapsed > self.budget:
            raise AssertionError(
                f"criterion {self.number} exceeded its runtime budget: "
                f"{elapsed:.1f}s > {self.budget}s"
            )
        return False


def test_criterion_1_povm_completeness():
    with _Criterion(1, "POVM completeness", 10.0):
        for dim in (16, 32):
            for delta_x in (0.5, 1.0, 2.0, 5.0, 10.0):
                model = MeasurementModel(delta_x, dim)
                (defect,) = completeness_defect(model)
                assert defect < 1e-8, (dim, delta_x, defect)


def test_criterion_2_distribution_reproduction(tmp_path):
    with _Criterion(2, "double-peaked one-photon distribution", 5.0):
        out = tmp_path / "dist.json"
        assert main(["distribution", "--delta-x", "10", "--dim", "32",
                     "--out", str(out)]) == EXIT_OK
        table = json.load(open(out))["payload"]["table"]
        cols = {name: np.array([row[i] for row in table["rows"]])
                for i, name in enumerate(table["columns"])}
        x_scaled = cols["x_scaled"]
        p1_scaled = cols["p1_scaled"]
        step = x_scaled[1] - x_scaled[0]

        pos = x_scaled > 0
        neg = x_scaled < 0
        peak_pos = x_scaled[pos][np.argmax(p1_scaled[pos])]
        peak_neg = x_scaled[neg][np.argmax(p1_scaled[neg])]
        assert abs(peak_pos - np.sqrt(2.0)) <= step
        assert abs(peak_neg + np.sqrt(2.0)) <= step

        target = np.exp(-1.0) / (8.0 * np.sqrt(2.0 * np.pi))
        assert p1_scaled.max() == pytest.approx(target, rel=0.02)

        for peak in (peak_pos, peak_neg):
            row = np.argmin(np.abs(x_scaled - peak))
            exact = cols["p_1"][row]
            approx = float(asymptotic_p1(10.0, 10.0 * x_scaled[row]))
            assert exact == pytest.approx(approx, rel=0.01)


def test_criterion_3_jump_probability():
    with _Criterion(3, "jump probability vs 1/(16 dx^2)", 10.0):
        vac = FockState.vacuum(32)
        ratios = []
        for delta_x in (2.0, 4.0, 5.0, 10.0, 20.0):
            model = MeasurementModel(delta_x, 32)
            exact = jump_probability(vac, model)
            ratios.append((delta_x, exact * 16.0 * delta_x**2))
        by_dx = dict(ratios)
        assert by_dx[4.0] == pytest.approx(1.0, abs=0.02)
        assert by_dx[10.0] == pytest.approx(1.0, abs=0.005)
        sweep = [by_dx[dx] for dx in (2.0, 5.0, 10.0, 20.0)]
        assert sweep == sorted(sweep)


def test_criterion_4_correlation_constants():
    with _Criterion(4, "correlation constants", 5.0):
        for dim in (4, 8, 16, 32, 48):
            assert operator_correlation(FockState.vacuum(dim)) == pytest.approx(
                0.125, abs=1e-12
            )
        vac = FockState.vacuum(32)
        for delta_x in (5.0, 10.0, 20.0):
            model = MeasurementModel(delta_x, 32)
            value = measured_correlation(vac, model)
            assert value == pytest.approx(0.125, rel=0.01)
        # The two orderings with the photon-number operator on the outside
        # annihilate the vacuum; only the sandwiched term survives.
        x = quadrature_x(8)
        n = number_operator(8)
        vac8 = np.zeros(8)
        vac8[0] = 1.0
        assert abs(np.vdot(vac8, x @ x @ n @ vac8)) < 1e-15
        assert abs(np.vdot(vac8, n @ x @ x @ vac8)) < 1e-15


def test_criterion_5_monte_carlo_consistency():
    with _Criterion(5, "Monte Carlo consistency", 60.0):
        vac = FockState.vacuum(32)
        model = MeasurementModel(5.0, 32)
        records = run_experiment(vac, model, 1_000_000, seed=123, threads=4)
        report = summarize(records, vac, model)
        assert abs(report.jump_fraction - report.jump_probability) <= (
            3.0 * report.standard_errors["jump_fraction"]
        )
        assert abs(report.measured_c - report.exact_c_integral) <= (
            3.0 * report.standard_errors["measured_c"]
        )
        # 1/sqrt(shots) scaling: se * sqrt(shots) constant within a factor 2
        # (the error bars themselves carry sampling noise at 1e4 shots).
        scaled = []
        for shots in (10_000, 100_000, 1_000_000):
            sub = summarize(run_experiment(vac, model, shots, seed=77, threads=4),
                            vac, model)
            scaled.append(
                (
                    sub.standard_errors["measured_c"] * np.sqrt(shots),
                    sub.standard_errors["jump_fraction"] * np.sqrt(shots),
                )
            )
            assert abs(sub.measured_c - sub.exact_c_integral) <= (
                3.0 * sub.standard_errors["measured_c"]
            )
        for component in (0, 1):
            values = [s[component] for s in scaled]
            assert max(values) / min(values) < 2.0, values


def test_criterion_6_setup_equivalence():
    with _Criterion(6, "setup/kernel equivalence", 120.0):
        for gain in (1.2, 1.5, 2.0):
            circuit = SetupCircuit(gain, 40)
            assert circuit.reflectivity == pytest.approx(gain**2 / (gain**2 + 1.0), abs=1e-15)
            assert circuit.delta_x == pytest.approx(gain / (2.0 * (gain**2 - 1.0)), abs=1e-15)
            calibration = circuit.calibration
            for state in (FockState.vacuum(40), FockState.number(40, 1)):
                defect = equivalence_defect(state, circuit)
                assert defect < 1e-3, (gain, defect)
            scale_one = calibrate_outcome_map(circuit, signal_in=FockState.number(40, 1)).scale
            assert abs(calibration.scale - scale_one) / abs(calibration.scale) < 1e-3

        # Every dim agrees to rounding, run at the largest gain whose dim-20
        # circuit stays below the truncation guard so every point is evaluable.
        for dim in (20, 30, 40):
            defect = equivalence_defect(FockState.vacuum(dim), SetupCircuit(1.8, dim))
            assert defect <= 1e-12, (dim, defect)


def test_criterion_7_determinism(tmp_path, monkeypatch):
    with _Criterion(7, "determinism and parallel agreement", 30.0):
        args = ["simulate", "--delta-x", "5", "--dim", "32", "--shots", "120000",
                "--seed", "2026", "--record-limit", "1000"]
        payloads = []
        for threads, name in (("1", "a"), ("4", "b")):
            monkeypatch.setenv("BAE_QND_THREADS", threads)
            out = tmp_path / f"{name}.json"
            assert main(args + ["--out", str(out)]) == EXIT_OK
            payloads.append(
                json.dumps(json.load(open(out))["payload"], sort_keys=True).encode()
            )
        assert payloads[0] == payloads[1]

        monkeypatch.setenv("BAE_QND_THREADS", "1")
        repeat = tmp_path / "c.json"
        assert main(args + ["--out", str(repeat)]) == EXIT_OK
        repeat_bytes = json.dumps(
            json.load(open(repeat))["payload"], sort_keys=True
        ).encode()
        assert repeat_bytes == payloads[0]
