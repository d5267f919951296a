"""Fiber channel elements: polarization-dependent loss and first-order PMD dephasing.

A PDL element of magnitude gamma (nepers) along unit Stokes axis n acts on Jones
space as P = e^{-gamma/2} (cosh(gamma/2) I + sinh(gamma/2) n.sigma), a positive
filter with singular values {1, e^{-gamma}} and det e^{-gamma}. First-order PMD
at the pair bandwidth acts as a phase flip channel of weight q about its axis.

`PdlElement` holds one element or a stack (magnitudes (...), unit axes
(..., 3)); `pdl_operator` gives the filters (..., 2, 2) of either, and
`concat_pdl` aggregates cascaded pairs row by row, broadcasting as numpy does.

`ChannelBatch` is the one states-plus-rates type: normalized states with one
post-selection rate each, from which it derives an extinction mask,
concurrences (`qmath.concurrence` of its rows, one stacked call) and qubit-A
linear entropies. Exact rows (from `propagate`) and measured rows (from
`instrument.measure`) are read through it alike.
`propagate` is the one state-through-channel kernel: it sends a base state
through stacks of local filters, one row per candidate channel, and
renormalizes each row. A filter stack is checked, its (N, 2, 2) shape and
that it is trace-nonincreasing, once, when it is wrapped as a `FilterStack`:
`propagate` wraps bare arrays itself, and a caller that shares one filter
over many calls wraps it once. The base is a `ChannelBatch` or a bare state
(or stack of states), which it wraps as a rate-1 batch. Its result, a
`FilteredBatch`, keeps that base batch and takes each row's concurrence from
the local-filter identity C((A x B) rho (A x B)^dag / p) = |det A| |det B|
C(rho) / p, reading the base batch's cached concurrence: one Wootters call on
the base state (one per row for a stack of bases), however many kernel calls
share the batch. Every other batch, the measured ones included, takes
Wootters of its own rows.
`apply_local` is its one-row case, giving a one-state batch; the search, the
CLI sweeps and the verify suites pass whole stacks.
"""

from dataclasses import InitVar, dataclass, field
from functools import cached_property

import numpy as np

from .qmath import (
    PAULI,
    SIGMA0,
    TOL,
    check_state,
    concurrence,
    linear_entropies,
    reduced_qubit,
    traces,
)

EXTINCTION_RATE = 1e-12  # post-selection rates below this extinguish the state

DB_PER_NEPER = 20.0 * np.log10(np.e)  # 8.685889638... dB of PDL per neper

CANONICAL_AXIS = np.array([0.0, 0.0, 1.0])
CANONICAL_AXIS.setflags(write=False)

_PAULI_STACK = np.array(PAULI)  # (3, 2, 2)


class ExtinctionError(ValueError):
    """Raised when a channel extinguishes the state (post-selection rate ~ 0)."""


def _checked(x, lo: float, hi: float, error: str) -> np.ndarray:
    """A float copy of x, else ValueError `error` quoting its first element outside [lo, hi]."""
    x = np.array(x, dtype=float)  # NaN lies outside every range
    ok = (lo <= x) & (x <= hi)
    if not ok.all():
        raise ValueError(f"{error}, got {x[~ok][0]}")
    return x


def _check_gamma(g, name: str) -> np.ndarray:
    return _checked(g, 0.0, np.finfo(float).max, f"{name} must be finite and >= 0")


def gamma_from_db(db):
    """PDL magnitudes in nepers of the usual dB figures 10*log10(Tmax/Tmin), element by element."""
    return (_checked(db, 0.0, np.inf, "PDL in dB must be >= 0") / DB_PER_NEPER)[()]


def db_from_gamma(gamma):
    """PDL in dB of magnitudes in nepers, element by element."""
    return (_checked(gamma, 0.0, np.inf, "gamma must be >= 0") * DB_PER_NEPER)[()]


def unit_axis(axis) -> np.ndarray:
    """Validate Stokes axes (..., 3), each of unit norm within TOL, and return them renormalized."""
    a = np.asarray(axis, dtype=float)
    if a.shape[-1:] != (3,):
        raise ValueError(f"axis must have 3 components, got shape {a.shape}")
    # a row-wise matmul matches np.linalg.norm of each row bit for bit, einsum does not
    nrm = np.sqrt((a[..., None, :] @ a[..., :, None])[..., 0])
    off = ~(abs(nrm - 1.0) <= TOL)  # True for NaN
    if off.any():
        raise ValueError(f"axis is not unit length: |a| = {nrm[off][0]}")
    a = a / nrm
    a.setflags(write=False)
    return a


def axis_from_polar(theta, phi=0.0) -> np.ndarray:
    """Unit Stokes axes (..., 3) at polar angles theta from s3, azimuths phi from s1."""
    return np.stack(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)], axis=-1
    )


@dataclass(frozen=True, eq=False)
class PdlElement:
    """PDL elements: magnitudes gamma (nepers) along unit Stokes axes.

    gamma (...) and axis (..., 3) broadcast against each other; a scalar
    gamma with one (3,) axis is one element. Every magnitude must be finite
    and >= 0 and every axis unit within TOL; a bad element raises quoting the
    first one. Both are stored read-only, the axes renormalized, and
    `element[i]` gives row i of a stack as stored, without checking or
    renormalizing it again.
    """

    gamma: float | np.ndarray
    axis: np.ndarray = field(default_factory=lambda: CANONICAL_AXIS.copy())

    def __post_init__(self):
        gamma = _check_gamma(self.gamma, "gamma")
        axis = unit_axis(self.axis)
        if gamma.shape != axis.shape[:-1]:
            shape = np.broadcast_shapes(gamma.shape, axis.shape[:-1])
            gamma, axis = np.broadcast_to(gamma, shape), np.broadcast_to(axis, shape + (3,))
        gamma.setflags(write=False)
        object.__setattr__(self, "gamma", gamma[()])
        object.__setattr__(self, "axis", axis)

    @classmethod
    def _stored(cls, gamma, axis) -> "PdlElement":
        """Elements of magnitudes and unit axes already checked, taken as they are."""
        element = object.__new__(cls)
        object.__setattr__(element, "gamma", gamma)
        object.__setattr__(element, "axis", axis)
        return element

    def __getitem__(self, index) -> "PdlElement":
        """Row or sub-stack `index` as stored: neither checked nor renormalized again."""
        return PdlElement._stored(self.gamma[index], self.axis[index])

    @property
    def gamma_db(self) -> float | np.ndarray:
        return db_from_gamma(self.gamma)


@dataclass(frozen=True, eq=False)
class PmdElement:
    """First-order PMD dephasing: phase-flip weight q in [0, 0.5] about a unit Stokes axis."""

    q: float
    axis: np.ndarray = field(default_factory=lambda: CANONICAL_AXIS.copy())

    def __post_init__(self):
        if np.ndim(self.q) != 0:
            raise ValueError(f"dephasing weight q must be one number, got shape {np.shape(self.q)}")
        q = _checked(self.q, 0.0, 0.5, "dephasing weight q must be in [0, 0.5]")
        object.__setattr__(self, "q", float(q))
        object.__setattr__(self, "axis", unit_axis(self.axis))


@dataclass(frozen=True, eq=False)
class ChannelBatch:
    """Normalized states after local channels and the rates that produced them.

    rho holds the states (..., 4, 4) and rate the post-selection rates (...),
    with any leading batch axes, or none for one state. Rows whose rate falls
    below EXTINCTION_RATE are `extinct`: they carry a zero matrix and read 0
    in `concurrence` and `entropy_a`. `concurrence` is Wootters of each row.
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
        return np.where(self.extinct, 0.0, concurrence(self.rho))

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


@dataclass(frozen=True, eq=False)
class FilteredBatch(ChannelBatch):
    """A `ChannelBatch` of local filters applied to base states, as `propagate` gives it.

    base is the batch of the unfiltered state (4, 4), or of one per row, and
    det_ab the products |det m_a| |det m_b| of each row's filters. Each live
    row's concurrence is the local-filter identity det_ab C(base) / rate, with
    C(base) the base batch's concurrence; it is computed when first read.
    """

    base: ChannelBatch
    det_ab: np.ndarray

    @cached_property
    def concurrence(self) -> np.ndarray:
        """det_ab C(base) / rate on live rows, 0 on extinct ones."""
        c = self.det_ab * self.base.concurrence
        return np.divide(c, self.rate, out=np.zeros_like(c), where=~self.extinct)


def pdl_operator(element: PdlElement) -> np.ndarray:
    """Jones filters (..., 2, 2) of PDL elements: Hermitian PSD, singular values {1, e^-gamma}."""
    half = np.asarray(element.gamma, dtype=float)[..., None, None] / 2
    a = element.axis[..., None, None]  # (..., 3, 1, 1)
    # summed left to right from 0, which fixes the sign of zero entries
    n_sigma = (0 + a[..., 0, :, :] * PAULI[0] + a[..., 1, :, :] * PAULI[1]
               + a[..., 2, :, :] * PAULI[2])
    return np.exp(-half) * (np.cosh(half) * SIGMA0 + np.sinh(half) * n_sigma)


def _max_singular_values(m: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix [[a, b], [c, d]] of a stack (..., 2, 2).

    M^dag M = [[p, q], [q*, r]] with p = |a|^2 + |c|^2, r = |b|^2 + |d|^2 and
    q = a* b + c* d, so sigma_max^2 = (p + r)/2 + hypot((p - r)/2, |q|), here
    with the halving done last. Every term is nonnegative, so unlike the
    trace-and-determinant form it does not cancel when the two singular values
    nearly coincide.
    """
    a, b, c, d = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    sq = (m * m.conj()).real
    p = sq[..., 0, 0] + sq[..., 1, 0]
    r = sq[..., 0, 1] + sq[..., 1, 1]
    q = a.conj() * b + c.conj() * d
    return np.sqrt((p + r + np.hypot(p - r, 2 * np.abs(q))) / 2)


def _abs_dets(m: np.ndarray) -> np.ndarray:
    """|ad - bc| of each matrix [[a, b], [c, d]] of a stack (..., 2, 2)."""
    return np.abs(m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0])


@dataclass(frozen=True, eq=False)
class FilterStack:
    """Local filters (N, 2, 2), checked once, when built: the one check of a filter stack.

    m holds a read-only copy of the matrices and abs_det |ad - bc| of each.
    A shape other than (N, 2, 2), or a matrix with a singular value above
    1 + 1e-9 (not trace-nonincreasing), raises ValueError naming the stack
    `name` ("m_a" or "m_b" in `propagate`'s messages). `propagate` takes a
    stack as it is and wraps bare arrays itself, so a filter that many calls
    share (a search's arm-A filter) is wrapped, and checked, once.
    """

    m: np.ndarray
    name: InitVar[str]
    abs_det: np.ndarray = field(init=False)

    def __post_init__(self, name):
        m = np.array(self.m, dtype=complex)
        if m.ndim != 3 or m.shape[1:] != (2, 2):
            raise ValueError(f"{name} must be filters (N, 2, 2), got shape {m.shape}")
        sv = _max_singular_values(m)
        if sv.size and sv.max() > 1 + 1e-9:
            raise ValueError(f"{name} is not trace-nonincreasing: max singular value {sv.max()}")
        m.setflags(write=False)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "abs_det", _abs_dets(m))


def propagate(base, m_a, m_b) -> FilteredBatch:
    """Apply local filter stacks (m_a on qubit A, m_b on qubit B) and renormalize.

    m_a and m_b are (N, 2, 2) stacks, bare or as `FilterStack`s, either of
    which may be a single (1, 2, 2) filter shared by every row; base holds
    one state (4, 4) or one per row (N, 4, 4), as a `ChannelBatch` whose
    states are filtered (its rates are not carried over) or as a bare array,
    wrapped as a rate-1 batch. Calls given one batch share its one Wootters
    call. `FilterStack` checks each stack's shape and that its filters are
    trace-nonincreasing (singular values <= 1), here when it wraps a bare
    array; this function then checks the base's shape and the common length
    N, else ValueError quoting all three shapes. The live rows' normalized
    states pass one stacked check_state; rows whose rate falls below
    EXTINCTION_RATE are flagged rather than raised, see ChannelBatch.
    Concurrences come from the local-filter identity, see FilteredBatch. For
    a PDL filter |ad - bc| is e^-gamma after cancelling terms near 1, so its
    relative error grows as eps e^gamma: over 20 000 random axes at most
    4e-14 at 5 Np, 4e-12 at 10 Np and 1e-7 at 20 Np.
    """
    if not isinstance(base, ChannelBatch):
        base = np.asarray(base)
        base = ChannelBatch(base, np.ones(base.shape[:-2]))
    m_a, m_b = (m if isinstance(m, FilterStack) else FilterStack(m, name)
                for name, m in (("m_a", m_a), ("m_b", m_b)))
    rho = base.rho
    if not (rho.ndim in (2, 3) and rho.shape[-2:] == (4, 4)
            and len({len(m_a.m), len(m_b.m), *rho.shape[:-2]} - {1}) <= 1):
        raise ValueError(f"propagate needs base states (4, 4) or (N, 4, 4) and filters "
                         f"(N, 2, 2), each N 1 or one common length, got m_a {m_a.m.shape}, "
                         f"m_b {m_b.m.shape}, base {rho.shape}")
    # Kronecker product of each row pair, laid out as np.kron lays out one pair
    big = (m_a.m[:, :, None, :, None] * m_b.m[:, None, :, None, :]).reshape(-1, 4, 4)
    if rho.ndim == 2:  # one base state: one (4N, 4) @ (4, 4) product
        left = (big.reshape(-1, 4) @ rho).reshape(-1, 4, 4)
    else:
        left = big @ rho
    filtered = left @ np.swapaxes(big.conj(), -1, -2)
    rate = traces(filtered).real
    live = ~(rate < EXTINCTION_RATE)
    if live.all():
        states = check_state(filtered / rate[:, None, None])
    else:
        states = np.zeros_like(filtered)
        states[live] = check_state(filtered[live] / rate[live, None, None])
    return FilteredBatch(states, rate, base, m_a.abs_det * m_b.abs_det)


def apply_local(rho: np.ndarray, m_a: np.ndarray, m_b: np.ndarray) -> FilteredBatch:
    """Apply local filters (m_a on qubit A, m_b on qubit B) and renormalize.

    The one-row case of `propagate`, returned as a one-state batch. Both
    filters must be trace-nonincreasing (singular values <= 1). Raises
    ExtinctionError when the post-selection rate falls below EXTINCTION_RATE.
    """
    batch = propagate(rho, np.asarray(m_a)[None], np.asarray(m_b)[None])
    return FilteredBatch(batch.rho[0], batch.rate[0], batch.base, batch.det_ab[0]).require_live()


def pmd_dephase(rho: np.ndarray, element: PmdElement) -> np.ndarray:
    """Phase-flip channel (1-q) rho + q (n.sigma) rho (n.sigma) on qubit A."""
    n_sigma = sum(a * s for a, s in zip(element.axis, PAULI))
    u = np.kron(n_sigma, SIGMA0)
    return check_state((1 - element.q) * rho + element.q * (u @ rho @ u))


def concat_pdl(first: PdlElement, second: PdlElement) -> PdlElement:
    """Aggregate PDL elements equivalent to `first` followed by `second`, row by row.

    The product M = P2 P1 factors as (unitary) x (PDL of magnitude
    gamma_tot = ln(s_max/s_min)); the aggregate axis is the input-referred
    direction of maximum transmission, the Stokes image of the right singular
    vector for the larger singular value. Magnitudes satisfy
    cosh(gamma_tot) = cosh g1 cosh g2 + (a1.a2) sinh g1 sinh g2. Stacks
    broadcast, a single element against a stack included; the products and
    their singular value decompositions are computed as one stack.
    """
    _, sv, vh = np.linalg.svd(pdl_operator(second) @ pdl_operator(first))
    gamma_tot = np.log(sv[..., 0] / sv[..., 1])
    v = vh[..., 0, :].conj()
    # v^dag sigma_j v by stacked matmul, bit-equal to the 1-D products; einsum is not
    stokes = (v.conj()[..., None, None, :] @ _PAULI_STACK @ v[..., None, :, None])[..., 0, 0].real
    lossless = gamma_tot < 1e-12
    return PdlElement(np.where(lossless, 0.0, gamma_tot)[()],
                      np.where(lossless[..., None], CANONICAL_AXIS, stokes))


def angle_from_aggregate(g1, g2, gamma_tot) -> np.ndarray:
    """Angle between two PDL axes recovered from the aggregate magnitude.

    Inverts the concatenation law element by element over broadcast inputs;
    raises when either magnitude is zero (the angle is undefined) or
    gamma_tot lies outside [|g1-g2|, g1+g2] beyond TOL.
    """
    g1, g2, gamma_tot = (np.asarray(g, dtype=float) for g in (g1, g2, gamma_tot))
    if not ((g1 > 0) & (g2 > 0)).all():
        raise ValueError("angle is undefined when either magnitude is zero")
    cos_theta = (np.cosh(gamma_tot) - np.cosh(g1) * np.cosh(g2)) / (
        np.sinh(g1) * np.sinh(g2)
    )
    reachable = (-1 - TOL <= cos_theta) & (cos_theta <= 1 + TOL)
    if not reachable.all():
        g1, g2, gamma_tot, cos_theta = (np.broadcast_to(x, cos_theta.shape)[~reachable][0]
                                        for x in (g1, g2, gamma_tot, cos_theta))
        raise ValueError(
            f"aggregate {gamma_tot} outside reachable range for ({g1}, {g2}):"
            f" cos theta = {cos_theta}"
        )
    return np.arccos(np.clip(cos_theta, -1.0, 1.0))[()]
