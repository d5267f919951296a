"""Fiber channel elements: polarization-dependent loss and first-order PMD dephasing.

A PDL element of magnitude gamma (nepers) along unit Stokes axis n acts on Jones
space as P = e^{-gamma/2} (cosh(gamma/2) I + sinh(gamma/2) n.sigma), a positive
filter with singular values {1, e^{-gamma}} and det e^{-gamma}. First-order PMD
at the pair bandwidth acts as a phase flip channel of weight q about its axis.

`ChannelBatch` is the one states-plus-rates type: normalized states with one
post-selection rate each, from which it derives an extinction mask, Wootters
concurrences and qubit-A linear entropies. Exact rows (from `propagate`) and
measured rows (from `instrument.measure`) are read through it alike.
`propagate` is the one state-through-channel kernel: it sends a base state
through stacks of local filters, one row per candidate channel, and
renormalizes each row. `pdl_filters` builds those stacks from elements.
`apply_local` and `pdl_operator` are their one-row case, `apply_local`
giving a one-state batch; the search, the CLI sweeps and the verify suites
pass whole stacks. `concat_pdls` aggregates stacks of cascaded element pairs
the same way, `concat_pdl` being its one-row case.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .qmath import (
    PAULI,
    SIGMA0,
    TOL,
    check_state,
    check_states,
    concurrences,
    linear_entropies,
    reduced_qubit,
)

EXTINCTION_RATE = 1e-12  # post-selection rates below this extinguish the state

DB_PER_NEPER = 20.0 * np.log10(np.e)  # 8.685889638... dB of PDL per neper

CANONICAL_AXIS = np.array([0.0, 0.0, 1.0])
CANONICAL_AXIS.setflags(write=False)


class ExtinctionError(ValueError):
    """Raised when a channel extinguishes the state (post-selection rate ~ 0)."""


def gamma_from_db(db: float) -> float:
    """PDL magnitude in nepers from the usual dB figure 10*log10(Tmax/Tmin)."""
    if db < 0:
        raise ValueError(f"PDL in dB must be >= 0, got {db}")
    return db / DB_PER_NEPER


def db_from_gamma(gamma: float) -> float:
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    return gamma * DB_PER_NEPER


def unit_axis(axis) -> np.ndarray:
    """Validate a Stokes axis (unit norm within TOL) and return it renormalized."""
    a = np.asarray(axis, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"axis must have 3 components, got shape {a.shape}")
    nrm = np.sqrt(a.dot(a))  # np.linalg.norm's own route for a real vector
    if abs(nrm - 1.0) > TOL:
        raise ValueError(f"axis is not unit length: |a| = {nrm}")
    a = a / nrm
    a.setflags(write=False)
    return a


def axis_from_polar(theta: float, phi: float = 0.0) -> np.ndarray:
    """Unit Stokes axis at polar angle theta from s3, azimuth phi from s1."""
    return np.array(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
    )


@dataclass(frozen=True, eq=False)
class PdlElement:
    """One PDL element: magnitude gamma (nepers) along a unit Stokes axis."""

    gamma: float
    axis: np.ndarray = field(default_factory=lambda: CANONICAL_AXIS.copy())

    def __post_init__(self):
        if not np.isfinite(self.gamma) or self.gamma < 0:
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")
        object.__setattr__(self, "axis", unit_axis(self.axis))

    @property
    def gamma_db(self) -> float:
        return db_from_gamma(self.gamma)


@dataclass(frozen=True, eq=False)
class PmdElement:
    """First-order PMD dephasing: phase-flip weight q about a unit Stokes axis."""

    q: float
    axis: np.ndarray = field(default_factory=lambda: CANONICAL_AXIS.copy())

    def __post_init__(self):
        if not 0.0 <= self.q <= 0.5:
            raise ValueError(f"dephasing weight q must be in [0, 0.5], got {self.q}")
        object.__setattr__(self, "axis", unit_axis(self.axis))


@dataclass(frozen=True, eq=False)
class ChannelBatch:
    """Normalized states after local channels and the rates that produced them.

    rho holds the states (..., 4, 4) and rate the post-selection rates (...),
    with any leading batch axes, or none for one state. Rows whose rate falls
    below EXTINCTION_RATE are `extinct`: they carry a zero matrix and read 0
    in `concurrence` and `entropy_a`.
    """

    rho: np.ndarray
    rate: float | np.ndarray

    @cached_property
    def extinct(self) -> np.ndarray:
        """Mask of the rows whose rate falls below EXTINCTION_RATE."""
        return np.asarray(self.rate) < EXTINCTION_RATE

    @cached_property
    def concurrence(self) -> np.ndarray:
        """Wootters concurrence of each row."""
        return np.where(self.extinct, 0.0, concurrences(self.rho))

    @cached_property
    def entropy_a(self) -> np.ndarray:
        """Normalized linear entropy of each row's qubit-A marginal."""
        return np.where(self.extinct, 0.0, linear_entropies(reduced_qubit(self.rho, "A")))

    def require_live(self) -> "ChannelBatch":
        """This batch, or ExtinctionError quoting the rate of its first extinct row."""
        if self.extinct.any():
            rate = np.ravel(self.rate)[np.flatnonzero(self.extinct)[0]]
            raise ExtinctionError(f"channel extinguishes the state: rate {float(rate)}")
        return self


def pdl_filters(elements) -> np.ndarray:
    """Jones filters (N, 2, 2) of a sequence of PDL elements, in order."""
    half = np.array([e.gamma for e in elements], dtype=float).reshape(-1, 1, 1) / 2
    a = np.array([e.axis for e in elements], dtype=float).reshape(-1, 3, 1, 1)
    # summed left to right from 0, which fixes the sign of zero entries
    n_sigma = 0 + a[:, 0] * PAULI[0] + a[:, 1] * PAULI[1] + a[:, 2] * PAULI[2]
    return np.exp(-half) * (np.cosh(half) * SIGMA0 + np.sinh(half) * n_sigma)


def pdl_operator(element: PdlElement) -> np.ndarray:
    """Jones-space filter of a PDL element; Hermitian PSD, singular values {1, e^-gamma}."""
    return pdl_filters([element])[0]


def propagate(rho: np.ndarray, m_a: np.ndarray, m_b: np.ndarray) -> ChannelBatch:
    """Apply local filter stacks (m_a on qubit A, m_b on qubit B) and renormalize.

    m_a and m_b are (N, 2, 2) stacks, either of which may be a single (1, 2, 2)
    filter shared by every row; rho is one state (4, 4) or one per row
    (N, 4, 4). Every filter must be trace-nonincreasing (singular values
    <= 1), else ValueError. Each live row's normalized state passes
    check_state; rows whose rate falls below EXTINCTION_RATE are flagged
    rather than raised, see ChannelBatch.
    """
    m_a = np.asarray(m_a, dtype=complex)
    m_b = np.asarray(m_b, dtype=complex)
    for name, m in (("m_a", m_a), ("m_b", m_b)):
        sv = np.linalg.svd(m, compute_uv=False)
        if sv.size and sv.max() > 1 + 1e-9:
            raise ValueError(f"{name} is not trace-nonincreasing: max singular value {sv.max()}")
    # Kronecker product of each row pair, laid out as np.kron lays out one pair
    big = (m_a[:, :, None, :, None] * m_b[:, None, :, None, :]).reshape(-1, 4, 4)
    filtered = big @ rho @ np.swapaxes(big.conj(), -1, -2)
    rate = np.trace(filtered, axis1=-2, axis2=-1).real
    live = ~(rate < EXTINCTION_RATE)
    if live.all():
        return ChannelBatch(check_states(filtered / rate[:, None, None]), rate)
    states = np.zeros_like(filtered)
    states[live] = check_states(filtered[live] / rate[live, None, None])
    return ChannelBatch(states, rate)


def apply_local(rho: np.ndarray, m_a: np.ndarray, m_b: np.ndarray) -> ChannelBatch:
    """Apply local filters (m_a on qubit A, m_b on qubit B) and renormalize.

    The one-row case of `propagate`, returned as a one-state batch. Both
    filters must be trace-nonincreasing (singular values <= 1). Raises
    ExtinctionError when the post-selection rate falls below EXTINCTION_RATE.
    """
    batch = propagate(rho, np.asarray(m_a)[None], np.asarray(m_b)[None])
    return ChannelBatch(batch.rho[0], batch.rate[0]).require_live()


def pmd_dephase(rho: np.ndarray, element: PmdElement) -> np.ndarray:
    """Phase-flip channel (1-q) rho + q (n.sigma) rho (n.sigma) on qubit A."""
    n_sigma = sum(a * s for a, s in zip(element.axis, PAULI))
    u = np.kron(n_sigma, SIGMA0)
    return check_state((1 - element.q) * rho + element.q * (u @ rho @ u))


def dephasing_from_dgd(tau_ps: float, sigma_omega: float) -> float:
    """Dephasing weight for DGD tau (ps) at Gaussian spectral width sigma_omega (rad/s).

    q = (1 - exp(-sigma_omega^2 tau^2 / 2)) / 2, the first-order PMD average
    over the pair spectrum; q -> 1/2 as the delay exceeds the coherence time.
    """
    if tau_ps < 0 or sigma_omega < 0:
        raise ValueError("tau_ps and sigma_omega must be >= 0")
    x = sigma_omega * tau_ps * 1e-12
    return float((1.0 - np.exp(-(x**2) / 2)) / 2)


def _stokes(v: np.ndarray) -> np.ndarray:
    return np.array([(v.conj() @ s @ v).real for s in PAULI])


def concat_pdls(firsts, seconds) -> list[PdlElement]:
    """Aggregate PDL elements of cascades, row i being `firsts[i]` then `seconds[i]`.

    The product M = P2 P1 factors as (unitary) x (PDL of magnitude
    gamma_tot = ln(s_max/s_min)); the aggregate axis is the input-referred
    direction of maximum transmission, the Stokes image of the right singular
    vector for the larger singular value. Magnitudes satisfy
    cosh(gamma_tot) = cosh g1 cosh g2 + (a1.a2) sinh g1 sinh g2. The products
    and their singular value decompositions are computed as one stack.
    """
    _, sv, vh = np.linalg.svd(pdl_filters(seconds) @ pdl_filters(firsts))
    out = []
    for s, v in zip(sv, vh):
        gamma_tot = float(np.log(s[0] / s[1]))
        if gamma_tot < 1e-12:
            out.append(PdlElement(0.0))
        else:
            out.append(PdlElement(gamma_tot, _stokes(v[0].conj())))
    return out


def concat_pdl(first: PdlElement, second: PdlElement) -> PdlElement:
    """Aggregate PDL element equivalent to `first` followed by `second`.

    The one-row case of `concat_pdls`.
    """
    return concat_pdls([first], [second])[0]


def angle_from_aggregate(g1: float, g2: float, gamma_tot: float) -> float:
    """Angle between two PDL axes recovered from the aggregate magnitude.

    Inverts the concatenation law; raises when either magnitude is zero (the
    angle is undefined) or gamma_tot lies outside [|g1-g2|, g1+g2] beyond TOL.
    """
    if g1 <= 0 or g2 <= 0:
        raise ValueError("angle is undefined when either magnitude is zero")
    cos_theta = (np.cosh(gamma_tot) - np.cosh(g1) * np.cosh(g2)) / (
        np.sinh(g1) * np.sinh(g2)
    )
    if not -1 - TOL <= cos_theta <= 1 + TOL:
        raise ValueError(
            f"aggregate {gamma_tot} outside reachable range for ({g1}, {g2}):"
            f" cos theta = {cos_theta}"
        )
    return float(np.arccos(np.clip(cos_theta, -1.0, 1.0)))
