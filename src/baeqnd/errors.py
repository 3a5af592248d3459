"""Exception types shared across the simulator, and the truncation limit."""


class BaeQndError(Exception):
    """Base class for all simulator errors."""


class InvalidDimensionError(BaeQndError, ValueError):
    """A Fock-space dimension is missing, too small, or inconsistent."""


class DimensionMismatchError(BaeQndError, ValueError):
    """Operands act on Fock spaces of different dimensions."""


class OutOfRangeError(BaeQndError, ValueError):
    """An index (photon number, wavefunction level) is outside the supported range."""


class InvalidParameterError(BaeQndError, ValueError):
    """A numeric parameter violates its documented precondition."""


class DegenerateConditioningError(BaeQndError):
    """Conditioning on an outcome whose probability density underflows."""


#: Probability allowed at or above a truncation edge (the circuit's top-quarter
#: occupation, or what the measurement kernel loses above the top level).
TRUNCATION_OCCUPATION_LIMIT = 1e-6


class TruncationOverflowError(BaeQndError):
    """More than TRUNCATION_OCCUPATION_LIMIT sits at or above a truncation edge."""


class SetupMismatchError(BaeQndError):
    """Calibration of the optical setup against the measurement kernel failed."""
