"""Closed-form transport laws for Bell-diagonal pairs under two-sided PDL.

For a Bell-diagonal state with correlation triple t and concurrence c0, local
PDL of magnitudes (gamma_a, gamma_b) along axes (a, b) gives

    C' = c0 / (cosh gA cosh gB + kappa sinh gA sinh gB),
    rate = e^{-(gA+gB)} (cosh gA cosh gB + kappa sinh gA sinh gB),

with the alignment factor kappa = sum_j a_j b_j t_j. Their product, the
average entanglement per emitted pair, depends only on the total loss.
"""

from dataclasses import dataclass

import numpy as np

from .channels import PdlElement, unit_axis
from .qmath import bell_weights

_ONE_TOL = 1e-9
_TINY = np.finfo(float).tiny  # smallest normal double


def kappa(t, axis_a, axis_b) -> float:
    """Alignment factor sum_j a_j b_j t_j, in [-1, 1]."""
    a = unit_axis(axis_a)
    b = unit_axis(axis_b)
    t = np.asarray(t, dtype=float)
    if np.abs(t).max() > 1 + _ONE_TOL:
        raise ValueError(f"correlation components must lie in [-1, 1], got {t}")
    return float(np.clip(np.sum(a * b * t), -1.0, 1.0))


def _check_gamma(g: float, name: str) -> float:
    if not np.isfinite(g) or g < 0:
        raise ValueError(f"{name} must be finite and >= 0, got {g}")
    return float(g)


def _scaled_rate(gamma_a: float, gamma_b: float, kap: float) -> float:
    """e^{-(gA+gB)} (cosh gA cosh gB + kappa sinh gA sinh gB), from terms that cannot overflow.

    Expanding cosh and sinh gives
    1/4 [(1+kappa)(1 + e^{-2(gA+gB)}) + (1-kappa)(e^{-2gA} + e^{-2gB})].
    """
    return 0.25 * (
        (1 + kap) * (1 + np.exp(-2 * (gamma_a + gamma_b)))
        + (1 - kap) * (np.exp(-2 * gamma_a) + np.exp(-2 * gamma_b))
    )


def predicted_concurrence(c0: float, gamma_a: float, gamma_b: float, kap: float) -> float:
    """Concurrence after two-sided PDL on a Bell-diagonal state of concurrence c0."""
    if not 0 <= c0 <= 1 + _ONE_TOL:
        raise ValueError(f"c0 must lie in [0, 1], got {c0}")
    if abs(kap) > 1 + _ONE_TOL:
        raise ValueError(f"kappa must lie in [-1, 1], got {kap}")
    gamma_a = _check_gamma(gamma_a, "gamma_a")
    gamma_b = _check_gamma(gamma_b, "gamma_b")
    kap = np.clip(kap, -1.0, 1.0)
    rate = _scaled_rate(gamma_a, gamma_b, kap)
    if rate < _TINY:
        # 1 + kappa is 0 or >= 2^-53 for a double, so only kappa = -1 gets
        # here; the denominator is then cosh(gA - gB)
        d = abs(gamma_a - gamma_b)
        return float(2 * c0 * np.exp(-d) / (1 + np.exp(-2 * d)))
    # C' = c0 e^{-(gA+gB)} / rate, with e^{-(gA+gB)} split in two so that
    # neither factor leaves the normal range while the result is in it; the
    # denominator is >= 1, so rounding past c0 is cut back to it
    half = np.exp(-(gamma_a + gamma_b) / 2)
    return float(min(c0 * half / rate * half, c0))


def predicted_rate(gamma_a: float, gamma_b: float, kap: float) -> float:
    """Post-selection rate after two-sided PDL on a Bell-diagonal state."""
    gamma_a = _check_gamma(gamma_a, "gamma_a")
    gamma_b = _check_gamma(gamma_b, "gamma_b")
    return float(_scaled_rate(gamma_a, gamma_b, np.clip(kap, -1.0, 1.0)))


def average_entanglement(c0: float, gamma_a: float, gamma_b: float) -> float:
    """Conserved rate-concurrence product e^{-(gA+gB)} c0.

    Orientation drops out entirely: only the summed magnitude matters, so any
    split of a fixed total loss between the arms yields the same value.
    """
    return float(np.exp(-(_check_gamma(gamma_a, "gamma_a") + _check_gamma(gamma_b, "gamma_b"))) * c0)


def equivalence_map(element: PdlElement, t) -> PdlElement:
    """Map a PDL element on arm A to the equivalent element on arm B.

    Valid for Bell states only (|t_j| = 1): conjugating through the perfect
    correlations sends the axis a to (t1 a1, t2 a2, t3 a3) at equal magnitude.
    For the singlet this inverts all three axes.
    """
    t = np.asarray(t, dtype=float)
    if np.abs(np.abs(t) - 1.0).max() > _ONE_TOL:
        raise ValueError(f"equivalence mapping requires a Bell correlation triple, got {t}")
    return PdlElement(element.gamma, np.sign(t) * element.axis)


@dataclass(frozen=True)
class CompensatorPlan:
    """Arm-B element that maximizes concurrence against a given arm-A PDL."""

    element: PdlElement
    kappa: float
    predicted_concurrence: float
    predicted_rate: float


def design_compensator(element_a: PdlElement, t) -> CompensatorPlan:
    """Optimal arm-B PDL against arm-A PDL `element_a` on the Bell-diagonal state t.

    With m = |T a| and u = T a / m, the optimum is the anti-aligned axis -u at
    tanh(gamma_b) = m tanh(gamma_a), reaching
    C' = c0 / (cosh gamma_a sqrt(1 - m^2 tanh^2 gamma_a)). m = 1 (Bell states,
    or an axis on a unit-correlation direction) restores c0 completely.
    """
    t = np.asarray(t, dtype=float)
    w = bell_weights(t)
    if w.min() < -_ONE_TOL:
        raise ValueError(f"unphysical correlation triple {tuple(t)}")
    c0 = max(0.0, 2 * w.max() - 1)
    ta = t * element_a.axis
    m = float(np.linalg.norm(ta))
    if m < 1e-12:
        raise ValueError(
            "no compensation direction: the correlation annihilates the arm-A axis"
        )
    g_a = element_a.gamma
    g_b = float(np.arctanh(min(m * np.tanh(g_a), 1.0 - 1e-16)))
    element_b = PdlElement(g_b, -ta / m)
    kap = float(np.clip(np.sum(ta * element_b.axis), -1.0, 1.0))  # = -m
    c_best = c0 / (np.cosh(g_a) * np.sqrt(1.0 - (m * np.tanh(g_a)) ** 2))
    return CompensatorPlan(
        element=element_b,
        kappa=kap,
        predicted_concurrence=float(c_best),
        predicted_rate=predicted_rate(g_a, g_b, kap),
    )


@dataclass(frozen=True)
class RateBounds:
    """Envelope of the concurrence/rate tradeoff at fixed magnitudes.

    c_min and c_max_norm bound the concurrence normalized to its zero-PDL
    value; the rates bound the post-selection rate between the fully aligned
    (kappa = +1) and fully compensating (kappa = -1) orientations.
    """

    c_min: float
    c_max_norm: float
    rate_at_kappa_minus1: float
    rate_at_kappa_plus1: float


def rate_bounds(gamma_a: float, gamma_b: float) -> RateBounds:
    """Orientation envelope of normalized concurrence and rate for Bell inputs."""
    g_a = _check_gamma(gamma_a, "gamma_a")
    g_b = _check_gamma(gamma_b, "gamma_b")
    return RateBounds(
        # 1/cosh(x) as 2e^{-x}/(1 + e^{-2x}), which cannot overflow
        c_min=float(2 * np.exp(-(g_a + g_b)) / (1 + np.exp(-2 * (g_a + g_b)))),
        c_max_norm=1.0,
        rate_at_kappa_minus1=float((np.exp(-2 * g_a) + np.exp(-2 * g_b)) / 2),
        rate_at_kappa_plus1=float((1.0 + np.exp(-2 * (g_a + g_b))) / 2),
    )


def estimate_gamma_from_concurrence(c0: float, c_meas: float) -> float:
    """Infer a single-arm PDL magnitude from a measured concurrence drop.

    Inverts C = c0 / cosh(gamma). c_meas may exceed c0 by at most 1e-9
    (measurement jitter at zero PDL); anything larger is a domain error.
    """
    if not 0 < c0 <= 1 + _ONE_TOL:
        raise ValueError(f"c0 must lie in (0, 1], got {c0}")
    if c_meas <= 0:
        raise ValueError(f"c_meas must be > 0, got {c_meas}")
    if c_meas > c0 + _ONE_TOL:
        raise ValueError(f"measured concurrence {c_meas} exceeds the baseline {c0}")
    return float(np.arccosh(max(c0 / c_meas, 1.0)))
