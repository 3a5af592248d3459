"""Truncated photon-number-basis states, quadrature moments and wavefunctions of one mode.

Conventions used throughout the package: the quadrature pair is

    x = (a + a*) / 2,        y = (a - a*) / (2i),

so [x, y] = i/2, the vacuum has <x^2> = 1/4, and x applied to the vacuum
yields 0.5 |1>.  Position-space wavefunctions follow the same scaling,
psi_0(x) = (2/pi)^(1/4) exp(-x^2), which makes the position and
number representations of x agree entry by entry.

No operator is stored as a matrix.  The quadrature acts on an amplitude
vector through the ladder (_x_action: two shifted slices times
sqrt(1..dim-1), O(dim)), truncated at the state's dim; that truncated x is
Hermitian, so <x^2> = ||x psi||^2 exactly.  Ladder truncation corrupts the
top levels, so identities should be checked on the "trusted subspace" that
excludes the top quarter of levels (see :func:`trusted_levels`).

The orthonormal Hermite recurrence (_hermite_levels) gives the position
wavefunctions and the Gauss-Hermite rules (_gh_rule) of the exact outcome
integrals; the measurement kernel itself needs neither.  A rule is a plain
pair of read-only arrays (nodes, factored weights), scaled to an outcome
Gaussian by measurement._scaled_rule; an integral over it is values @ weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidDimensionError, InvalidParameterError, OutOfRangeError

#: Highest wavefunction level for which the recurrence is validated.
MAX_WAVEFUNCTION_LEVEL = 256

#: Largest Gauss-Hermite rule _gh_rule builds: near 1,450 nodes the outermost
#: node's quarter Gaussian leaves double-precision range.
MAX_RULE_NODES = 1400


def _integer(value, what: str, low: int, high=None, error=InvalidParameterError) -> int:
    """int(value) for a Python or numpy integer, not a bool, in low..high; raises error otherwise.

    isinstance, not a dtype: Python ints beyond int64 (numpy's object dtype) pass.
    """
    if (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and low <= value and (high is None or value <= high)):
        return int(value)
    if high is None:
        raise error(f"{what} must be an integer >= {low}, got {value!r}")
    raise error(f"{what} {value!r} outside {low}..{high}")


def _numeric_array(values, kinds: str, what: str) -> np.ndarray:
    """np.asarray(values), refused with InvalidParameterError unless its dtype kind is in kinds.

    A cast to float64 or complex128 would silently drop an imaginary part or
    raise a bare ValueError or TypeError for text and ragged nesting.
    """
    try:
        arr = np.asarray(values)
    except ValueError as exc:
        raise InvalidParameterError(f"{what} must be a scalar or a regular array") from exc
    if arr.dtype.kind not in kinds:
        raise InvalidParameterError(
            f"{what} must be numeric (dtype kind in {kinds!r}), got dtype {arr.dtype}"
        )
    return arr


def _finite_reals(values, what: str) -> np.ndarray:
    """values as float64, refused with InvalidParameterError unless int or float and finite."""
    arr = _numeric_array(values, "iuf", what).astype(np.float64, copy=False)
    if not np.all(np.isfinite(arr)):
        raise InvalidParameterError(f"{what} must be finite")
    return arr


def _real(value, what: str, above: float | None = None) -> float:
    """float(value) for a finite real scalar (0-d), greater than above if given."""
    arr = _finite_reals(value, what)
    if arr.ndim != 0 or (above is not None and not arr > above):
        bound = "" if above is None else f" > {above:g}"
        raise InvalidParameterError(f"{what} must be a real scalar{bound}, got {value!r}")
    return float(arr)


def trusted_levels(dim: int) -> int:
    """Number of low-lying levels on which truncated-operator identities hold.

    The top quarter of a truncated Fock space is corrupted by the missing
    ladder couplings; results should only be trusted on levels
    0 .. trusted_levels(dim) - 1.
    """
    dim = _integer(dim, "dimension", 2, error=InvalidDimensionError)
    return dim - dim // 4


@dataclass(frozen=True, eq=False)
class FockState:
    """Pure single-mode state: complex amplitudes over photon numbers 0..dim-1."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _numeric_array(self.amplitudes, "iufc", "state amplitudes").astype(np.complex128)
        if amps.ndim != 1:
            raise InvalidDimensionError("state amplitudes must be a 1-D vector")
        _integer(amps.size, "dimension", 2, error=InvalidDimensionError)
        if not np.all(np.isfinite(amps)):
            raise InvalidParameterError("state amplitudes must be finite")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @classmethod
    def vacuum(cls, dim: int) -> "FockState":
        return cls.number(dim, 0)

    @classmethod
    def number(cls, dim: int, n: int) -> "FockState":
        """The photon-number eigenstate |n> in a dim-dimensional space."""
        dim = _integer(dim, "dimension", 2, error=InvalidDimensionError)
        n = _integer(n, "photon number", 0, dim - 1, OutOfRangeError)
        try:
            amps = np.zeros(dim, dtype=np.complex128)
        except (MemoryError, ValueError) as exc:  # ValueError: past numpy's largest array
            raise OutOfRangeError(f"dimension {dim} leaves no memory for its amplitudes") from exc
        amps[n] = 1.0
        return cls(amps)

    def _unit_scaled(self) -> tuple[np.ndarray, int]:
        """(amplitudes 2**-e, e), the largest |real| or |imag| part in [0.5, 1) (e = 0 at 0).

        A power of two scales exactly: the norm is the plain one, bit for bit,
        wherever that neither overflows nor loses digits to underflow.
        """
        parts = self.amplitudes.view(np.float64)
        e = int(np.frexp(np.max(np.abs(parts)))[1])
        return np.ldexp(parts, -e).view(np.complex128), e

    def norm(self) -> float:
        unit, e = self._unit_scaled()
        with np.errstate(over="ignore"):  # a norm past the float range is inf
            return float(np.ldexp(np.linalg.norm(unit), e))

    def normalize(self) -> "FockState":
        unit = self._unit_scaled()[0]
        nrm = np.linalg.norm(unit)
        if nrm == 0.0:
            raise InvalidParameterError("cannot normalize a zero-norm state")
        return FockState(unit / nrm)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def require_normalized(state: FockState) -> None:
    """Raise InvalidParameterError unless |<psi|psi> - 1| <= 1e-12.

    Probabilities read from an unnormalised input come out scaled by its squared norm.
    """
    norm2 = float(np.vdot(state.amplitudes, state.amplitudes).real)
    if not abs(norm2 - 1.0) <= 1e-12:
        raise InvalidParameterError(
            f"the input state must be normalized; its squared norm is {norm2!r}")


def _x_action(amps: np.ndarray) -> np.ndarray:
    """x amps = (a + a*) amps / 2 on the truncated space: two shifted slices, O(dim)."""
    root = np.sqrt(np.arange(1.0, amps.size))
    out = np.zeros_like(amps)
    out[:-1] = root * amps[1:]
    out[1:] += root * amps[:-1]
    return out / 2.0


def x_second_moment(state: FockState) -> float:
    """<x^2> = ||x psi||^2 of a state, with the truncated (Hermitian) quadrature x."""
    phi = _x_action(state.amplitudes)
    return float(np.vdot(phi, phi).real)


def _hermite_levels(count: int, xi: np.ndarray, seed):
    """Yield seed * h_n(xi), n = 0..count-1, for the orthonormal Hermite polynomials.

    h_0 = pi^(-1/4), h_{n+1} = sqrt(2/(n+1)) xi h_n - sqrt(n/(n+1)) h_{n-1}: no
    factorials, and a Gaussian folded into the seed keeps every level inside
    double-precision range.  Two levels are alive at a time; callers must not
    modify the yielded arrays.  This is the package's only Hermite recurrence.
    """
    prev = np.pi**-0.25 * seed
    yield prev
    if count == 1:
        return
    cur = np.sqrt(2.0) * xi * prev
    yield cur
    for n in range(1, count - 1):
        prev, cur = cur, np.sqrt(2.0 / (n + 1)) * xi * cur - np.sqrt(n / (n + 1.0)) * prev
        yield cur


@lru_cache(maxsize=64)
def _gh_rule(count: int):
    """Gauss-Hermite rule for the weight exp(-u^2): nodes u and factored weights w exp(u^2).

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    orthonormal Hermite recurrence (off-diagonal sqrt(k/2)), polished by one
    Newton step on h_count (h_count' = sqrt(2 count) h_{count-1}) and made
    exactly antisymmetric.  The weights come in Christoffel form,
    w_k = 1 / sum_j h_j(u_k)^2 over the count orthonormal levels, with the
    Gaussian factored out: exp(u_k^2) w_k = 1 / sum_j (h_j(u_k) exp(-u_k^2 / 2))^2
    stays finite where w_k itself underflows (count above ~360).  The levels
    run on a quarter Gaussian, squared once more, so neither the recurrence
    overflows nor its seed underflows up to MAX_RULE_NODES; beyond it the
    rule turns NaN, so larger counts raise OutOfRangeError.
    """
    if count > MAX_RULE_NODES:
        raise OutOfRangeError(
            f"a Gauss-Hermite rule of {count} nodes exceeds the {MAX_RULE_NODES}-node limit "
            "of double precision"
        )
    off = np.sqrt(np.arange(1.0, count) / 2.0)
    u = np.linalg.eigvalsh(np.diag(off, -1))
    *_, before, last = _hermite_levels(count + 1, u, np.exp(-0.25 * u * u))
    u = u - last / (np.sqrt(2.0 * count) * before)
    u = 0.5 * (u - u[::-1])
    quarter = np.exp(-0.25 * u * u)
    factored = 1.0 / sum((level * quarter) ** 2 for level in _hermite_levels(count, u, quarter))
    for arr in (u, factored):
        arr.setflags(write=False)
    return u, factored


def wavefunction_table(count: int, x: np.ndarray) -> np.ndarray:
    """Wavefunctions psi_0..psi_{count-1} evaluated at x, shape (count, *x.shape).

    psi_n(x) = 2^(1/4) exp(-x^2) h_n(sqrt(2) x), with h_n the orthonormal
    Hermite polynomials of :func:`_hermite_levels`; bounded up to
    MAX_WAVEFUNCTION_LEVEL.
    """
    count = _integer(count, "wavefunction count", 1)
    if count - 1 > MAX_WAVEFUNCTION_LEVEL:
        raise OutOfRangeError(
            f"wavefunction level {count - 1} exceeds supported maximum {MAX_WAVEFUNCTION_LEVEL}"
        )
    x = _finite_reals(x, "wavefunction argument")
    # Every level is 0 where exp(-x^2) is, from |x| = 27.3: the clip keeps x^2 finite.
    return np.stack(list(_wavefunction_levels(count, np.clip(x, -30.0, 30.0))))


def _wavefunction_levels(count: int, x: np.ndarray):
    """Yield psi_n(x) = 2^(1/4) exp(-x^2) h_n(sqrt(2) x), n = 0..count-1, as _hermite_levels."""
    return _hermite_levels(count, np.sqrt(2.0) * x, 2.0**0.25 * np.exp(-x * x))
