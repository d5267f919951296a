"""Closed-form transport laws for Bell-diagonal pairs under two-sided PDL.

For a Bell-diagonal state with correlation triple t and concurrence c0, local
PDL of magnitudes (gamma_a, gamma_b) along axes (a, b) gives

    C' = c0 / (cosh gA cosh gB + kappa sinh gA sinh gB),
    rate = e^{-(gA+gB)} (cosh gA cosh gB + kappa sinh gA sinh gB),

with the alignment factor kappa = sum_j a_j b_j t_j. Their product, the
average entanglement per emitted pair e^{-(gA+gB)} c0, depends only on the
total loss. `predicted_concurrence` and `predicted_rate` are the package's
one statement of these two laws. `kappa`, `predicted_concurrence` and
`predicted_rate` broadcast over leading axes, as `channels.propagate` does,
with scalars giving a 0-d result; every domain check holds element by
element, and NaN fails it.
`design_compensator` takes one arm-A element or a stack in the same way; its
C' is the law at the designed element, so it lies in [0, c0] by construction.
`magnitude_residual` and `conservation_residual` state the two laws the CLI
rows check (the `rate-conservation` verify suite calls the second): each gives
the worst residual over a stack.
"""

from dataclasses import dataclass

import numpy as np

from .channels import PdlElement, _check_gamma, _checked, unit_axis
from .qmath import TOL, _physical_weights

_TINY = np.finfo(float).tiny  # smallest normal double


def kappa(t, axis_a, axis_b) -> np.ndarray:
    """Alignment factor sum_j a_j b_j t_j, in [-1, 1], of triples and axes (..., 3)."""
    a = unit_axis(axis_a)
    b = unit_axis(axis_b)
    t = _checked(t, -1 - TOL, 1 + TOL, "correlation components must lie in [-1, 1]")
    return np.clip(np.sum(a * b * t, axis=-1), -1.0, 1.0)[()]


def _check_kappa(kap) -> np.ndarray:
    """The one kappa check of both laws: [-1, 1] within TOL, clipped onto it."""
    return np.clip(_checked(kap, -1 - TOL, 1 + TOL, "kappa must lie in [-1, 1]"), -1.0, 1.0)


def _scaled_rate(gamma_a, gamma_b, kap):
    """e^{-(gA+gB)} (cosh gA cosh gB + kappa sinh gA sinh gB), from terms that cannot overflow.

    Expanding cosh and sinh gives
    1/4 [(1+kappa)(1 + e^{-2(gA+gB)}) + (1-kappa)(e^{-2gA} + e^{-2gB})].
    """
    return 0.25 * (
        (1 + kap) * (1 + np.exp(-2 * (gamma_a + gamma_b)))
        + (1 - kap) * (np.exp(-2 * gamma_a) + np.exp(-2 * gamma_b))
    )


def predicted_concurrence(c0, gamma_a, gamma_b, kap) -> np.ndarray:
    """Concurrence after two-sided PDL on a Bell-diagonal state of concurrence c0."""
    c0 = _checked(c0, 0.0, 1 + TOL, "c0 must lie in [0, 1]")
    kap = _check_kappa(kap)
    gamma_a = _check_gamma(gamma_a, "gamma_a")
    gamma_b = _check_gamma(gamma_b, "gamma_b")
    # magnitudes near the float limit sum to inf, whose exponential is the
    # exact limit 0, so overflow there is no error
    with np.errstate(over="ignore"):
        rate = _scaled_rate(gamma_a, gamma_b, kap)
        # 1 + kappa is 0 or >= 2^-53 for a double, so only kappa = -1
        # underflows the rate; the denominator is then cosh(gA - gB)
        d = np.abs(gamma_a - gamma_b)
        at_minus1 = 2 * c0 * np.exp(-d) / (1 + np.exp(-2 * d))
        # C' = c0 e^{-(gA+gB)} / rate, with e^{-(gA+gB)} split in two so
        # that neither factor leaves the normal range while the result is in
        # it; the denominator is >= 1, so rounding past c0 is cut back to it
        half = np.exp(-(gamma_a + gamma_b) / 2)
    underflow = rate < _TINY
    rate = np.where(underflow, 1.0, rate)
    # a subnormal c0 * half would lose digits, so there half / rate * half goes first
    general = np.where(c0 * half < _TINY, c0 * (half / rate * half), c0 * half / rate * half)
    return np.where(underflow, at_minus1, np.minimum(general, c0))[()]


def predicted_rate(gamma_a, gamma_b, kap) -> np.ndarray:
    """Post-selection rate after two-sided PDL on a Bell-diagonal state."""
    gamma_a = _check_gamma(gamma_a, "gamma_a")
    gamma_b = _check_gamma(gamma_b, "gamma_b")
    kap = _check_kappa(kap)
    with np.errstate(over="ignore"):  # as in predicted_concurrence
        return _scaled_rate(gamma_a, gamma_b, kap)[()]


def magnitude_residual(c, gamma, c0) -> float:
    """Worst |c cosh(gamma) - c0| over a stack, 0.0 when empty.

    The single-channel law C' = c0 / cosh(gamma) at aggregate magnitude gamma.
    """
    return float(np.max(np.abs(c * np.cosh(gamma) - c0), initial=0.0))


def conservation_residual(rate, c, total, c0) -> float:
    """Worst |rate c - e^{-total} c0| over a stack, 0.0 when empty.

    Rate times concurrence depends only on the total loss of both arms.
    """
    return float(np.max(np.abs(rate * c - np.exp(-total) * c0), initial=0.0))


def equivalence_map(element: PdlElement, t) -> PdlElement:
    """Map PDL elements on arm A (one or a stack) to the equivalent elements on arm B.

    Valid for Bell states only (|t_j| = 1): conjugating through the perfect
    correlations sends the axis a to (t1 a1, t2 a2, t3 a3) at equal magnitude.
    For the singlet this inverts all three axes.
    """
    t = np.asarray(t, dtype=float)
    if not (np.abs(np.abs(t) - 1.0) <= TOL).all():  # fails for NaN
        raise ValueError(f"equivalence mapping requires a Bell correlation triple, got {t}")
    return PdlElement(element.gamma, np.sign(t) * element.axis)


@dataclass(frozen=True)
class CompensatorPlan:
    """Arm-B elements that maximize concurrence against given arm-A PDL.

    For one arm-A element the fields are numpy floats; for a stack `element`
    is the stacked arm-B element and the other fields are arrays of its shape.
    """

    element: PdlElement
    kappa: np.ndarray
    predicted_concurrence: np.ndarray
    predicted_rate: np.ndarray


def _designed_gamma_b(m, gamma_a) -> np.ndarray:
    """The designed arm-B magnitude artanh(m tanh gamma_a), m clamped to 1, without cancellation.

    gamma_a itself where m = 1; elsewhere (1/2) log1p(2x / (1 - x)) with
    x = m tanh gamma_a, and 1 - x formed as
    (1 - m) + 2m e^{-2 gamma_a} / (1 + e^{-2 gamma_a}), a sum of nonnegative
    terms, so it keeps its digits however close x comes to 1.
    """
    m = np.minimum(m, 1.0)
    with np.errstate(over="ignore"):  # -2 gamma_a overflows to -inf only where e is 0 anyway
        e = np.exp(-2 * gamma_a)
    below = m < 1
    one_minus_x = np.where(below, (1 - m) + 2 * m * e / (1 + e), 1.0)
    return np.where(below, 0.5 * np.log1p(2 * m * np.tanh(gamma_a) / one_minus_x), gamma_a)


def design_compensator(element_a: PdlElement, t) -> CompensatorPlan:
    """Optimal arm-B PDL against arm-A PDL `element_a` (one or a stack) on the Bell-diagonal state t.

    With m = |T a| and u = T a / m, the optimum is the anti-aligned axis -u at
    tanh(gamma_b) = m tanh(gamma_a) (formed by `_designed_gamma_b`), reaching
    C' = c0 / (cosh gamma_a sqrt(1 - m^2 tanh^2 gamma_a)). m = 1 (Bell states,
    or an axis on a unit-correlation direction) restores c0 completely. The
    plan's C' and rate are `predicted_concurrence` and `predicted_rate` at the
    designed element, so C' lies in [0, c0] by construction. t must have 3
    components and give nonnegative Bell weights within TOL, as
    `qmath.bell_diagonal` requires; every arm-A element needs m > 0. Either
    fault raises ValueError.
    """
    t = np.asarray(t, dtype=float)
    w = _physical_weights(t)
    c0 = max(0.0, 2 * w.max() - 1)
    ta = t * element_a.axis
    # row-wise |T a| by matmul, bit-equal to np.linalg.norm of each row
    m = np.sqrt((ta[..., None, :] @ ta[..., :, None])[..., 0, 0])
    if (m < 1e-12).any():
        raise ValueError(
            "no compensation direction: the correlation annihilates the arm-A axis"
        )
    g_a = np.asarray(element_a.gamma, dtype=float)
    g_b = _designed_gamma_b(m, g_a)
    element_b = PdlElement(g_b, -ta / m[..., None])
    kap = np.clip(np.sum(ta * element_b.axis, axis=-1), -1.0, 1.0)  # = -m
    return CompensatorPlan(element=element_b, kappa=kap,
                           predicted_concurrence=predicted_concurrence(c0, g_a, g_b, kap),
                           predicted_rate=predicted_rate(g_a, g_b, kap))
