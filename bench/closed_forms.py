"""Closed forms for a vacuum input, written independently of the package.

They are the formulas of the test oracles (completed-square Gaussian
integrals), kept here so the benchmark checks the program's outputs without
importing it or its tests.  Conventions: x = (a + a*)/2, vacuum <x^2> = 1/4.
"""

import numpy as np


def jump_probability(dx):
    """1 - (1 + 1/(8 dx^2))^(-1/2): weight of every n >= 1 after the measurement."""
    return 1.0 - (1.0 + 1.0 / (8.0 * dx * dx)) ** -0.5


def correlation(dx):
    """Sum over n >= 1 of n times the integral of P_n(x) (x^2 - dx^2); tends to 1/8."""
    k = 1.0 / (4.0 * dx * dx)
    v = dx * dx + 0.25
    return k * k * v * (2.0 * dx * dx + 0.75) / (1.0 + k) ** 2 + (k * k / (4.0 * (1.0 + k))) * 0.25


#: Operator-ordering correlation of the vacuum, exact at any truncation >= 4.
OPERATOR_C = 0.125


def outcome_variance(dx):
    return dx * dx + 0.25


def vacuum_density(dx, x):
    """Outcome density of the vacuum: normal with variance dx^2 + 1/4."""
    var = outcome_variance(dx)
    x = np.asarray(x, dtype=float)
    return np.exp(-(x * x) / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)


def p1(dx, x):
    """|<1|P(x)|0>|^2 by completing the square; k = 1/(4 dx^2), alpha = 2 + k."""
    x = np.asarray(x, dtype=float)
    k = 1.0 / (4.0 * dx * dx)
    alpha = 2.0 + k
    amp = (
        (2.0 * np.pi * dx * dx) ** -0.25
        * np.sqrt(2.0 / np.pi)
        * 2.0
        * (k * x / alpha)
        * np.sqrt(np.pi / alpha)
        * np.exp(-2.0 * k * x * x / alpha)
    )
    return amp * amp


def p1_peak(dx):
    """Outcome where p1 peaks: x^2 = alpha/(4k) = 2 dx^2 + 1/4, near sqrt(2) dx."""
    return np.sqrt(2.0 * dx * dx + 0.25)


def p1_asymptotic(dx, x):
    """Wide-kernel p1: (2 pi dx^2)^(-1/2) x^2/(4 dx^2)^2 exp(-x^2/(2 dx^2))."""
    x = np.asarray(x, dtype=float)
    return (2.0 * np.pi * dx * dx) ** -0.5 * x * x / (4.0 * dx * dx) ** 2 * np.exp(-(x * x) / (2.0 * dx * dx))


def setup_reflectivity(gain):
    """Beam-splitter reflectivity a^2/(a^2 + 1) that makes the circuit evade backaction."""
    return gain * gain / (gain * gain + 1.0)


def setup_delta_x(gain):
    """Resolution a/(2(a^2 - 1)) of the two-mode circuit."""
    return gain / (2.0 * (gain * gain - 1.0))
