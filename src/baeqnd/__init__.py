"""Backaction-evasion quadrature-measurement simulator in truncated Fock space."""

__version__ = "0.14.0"

from .errors import (
    BaeQndError,
    DegenerateConditioningError,
    DimensionMismatchError,
    InvalidDimensionError,
    InvalidParameterError,
    OutOfRangeError,
    SetupMismatchError,
    TruncationOverflowError,
)
from .fock import (
    FockState,
    trusted_levels,
    wavefunction_table,
)
from .jumps import (
    CorrelationReport,
    ShotTable,
    jump_probability,
    measured_correlation,
    operator_correlation,
    run_experiment,
    summarize,
)
from .measurement import (
    MeasurementModel,
    asymptotic_p1,
    completeness_defect,
    conditional_state,
    outcome_density,
    outcome_density_table,
    truncated_square_defect,
)
from .setup_model import (
    Calibration,
    SetupCircuit,
    SetupParams,
    calibrate_outcome_map,
    equivalence_defect,
)

__all__ = [
    "BaeQndError",
    "Calibration",
    "CorrelationReport",
    "DegenerateConditioningError",
    "DimensionMismatchError",
    "FockState",
    "InvalidDimensionError",
    "InvalidParameterError",
    "MeasurementModel",
    "OutOfRangeError",
    "SetupCircuit",
    "SetupMismatchError",
    "SetupParams",
    "ShotTable",
    "TruncationOverflowError",
    "asymptotic_p1",
    "calibrate_outcome_map",
    "completeness_defect",
    "conditional_state",
    "equivalence_defect",
    "jump_probability",
    "measured_correlation",
    "operator_correlation",
    "outcome_density",
    "outcome_density_table",
    "run_experiment",
    "summarize",
    "truncated_square_defect",
    "trusted_levels",
    "wavefunction_table",
]
