"""Source, detector, and tomography emulation at coincidence-counting scale.

The entangled-pair source is modeled as a Werner state (isotropic noise on the
target Bell state) filtered by a fixed internal PDL along s3, calibrated so
back-to-back measurements reproduce a chosen concurrence and HH/VV imbalance.
Projective two-arm settings, Poissonian coincidence counts, and linear
least-squares state reconstruction mirror a standard polarization tomography
bench. The bench has one fixed analyzer schedule, the module constant
`SETTINGS_36` (the full 6x6 H/V/D/A/R/L product), built once at import with
its projector kets, model matrix, pseudo-inverse and basis groups. Counts are
plain arrays with one entry per setting, in schedule order:
`expected_coincidences` gives the means, `simulate_counts` draws integer
counts from them, and `reconstruct` inverts either. Each of
these functions takes one state or a stack of them (any leading batch axes,
one sub-seed per state), and each state's result is bit for bit the one its
own one-state call gives.

`measure(batch, rig, label, indices)` chains them into the one noisy route
from a `ChannelBatch` of exact states to the `ChannelBatch` of their
estimates, read the same way. A `Rig` holds the bench (source, detectors,
pulses per setting, master seed), and state k is measured on the sub-seed
`derive_seed(rig.seed, label, indices[k])`: this module is the only one that
derives sub-seeds or draws counts. With no rig (`None`) `measure` returns the
exact batch itself, so no caller branches around it.
"""

import hashlib
import operator
from dataclasses import dataclass
from itertools import product

import numpy as np

from .channels import ChannelBatch, PdlElement, apply_local, pdl_operator
from .qmath import SIGMA0, _PAULI_PRODUCTS, _check_unit_traces, bell_diagonal, check_state
from .qmath import symmetrize, traces

MU_RANGE = (0.001, 0.1)


def _check_count(name: str, value, least: int) -> None:
    """ValueError unless value is an integer >= least: ints and numpy ints, no floats or bools."""
    try:
        ok = not isinstance(value, bool) and operator.index(value) >= least
    except TypeError:
        ok = False
    if not ok:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def derive_seed(master_seed: int, *parts) -> int:
    """Deterministic 64-bit sub-seed keyed by (master seed, labels/indices).

    SHA-256 based so derived streams are stable across platforms and
    independent of evaluation order. The master seed must be an integer (a
    float raises TypeError rather than hashing as its truncation).
    """
    payload = ":".join([str(operator.index(master_seed)), *map(str, parts)]).encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


@dataclass(frozen=True, eq=False)
class SourceModel:
    """Calibrated pair source: Werner weight, internal PDL, and pair rate mu."""

    werner_v: float
    source_pdl: PdlElement
    mu: float = 0.01

    def __post_init__(self):
        if not 1 / 3 <= self.werner_v <= 1:
            raise ValueError(f"werner_v must lie in [1/3, 1], got {self.werner_v}")
        if not MU_RANGE[0] <= self.mu <= MU_RANGE[1]:
            raise ValueError(f"mu must lie in {MU_RANGE}, got {self.mu}")


@dataclass(frozen=True)
class DetectorModel:
    """Per-arm detection efficiency and dark-count probability."""

    efficiency: float = 0.20
    dark_prob: float = 4e-5

    def __post_init__(self):
        if not 0 < self.efficiency <= 1:
            raise ValueError(f"efficiency must lie in (0, 1], got {self.efficiency}")
        if not 0 <= self.dark_prob < 1:
            raise ValueError(f"dark_prob must lie in [0, 1), got {self.dark_prob}")


def calibrate_source(
    target_c: float,
    hh_vv_ratio: float,
    mu: float = 0.01,
) -> SourceModel:
    """Source model whose back-to-back state has the given concurrence and imbalance.

    The HH/VV ratio fixes the internal PDL at gamma_s = ln(ratio)/2 along s3;
    the Werner weight v = (2 target_c cosh(gamma_s) + 1)/3 then restores the
    target concurrence after that filtering.
    """
    if not 0.5 < target_c <= 1:
        raise ValueError(f"target_c must lie in (0.5, 1], got {target_c}")
    if not hh_vv_ratio >= 1:  # NaN fails here, not later as a gamma
        raise ValueError(f"hh_vv_ratio must be >= 1, got {hh_vv_ratio}")
    gamma_s = np.log(hh_vv_ratio) / 2
    v = (2 * target_c * np.cosh(gamma_s) + 1) / 3
    if v > 1:
        raise ValueError(
            f"target concurrence {target_c} unreachable at HH/VV ratio {hh_vv_ratio}"
        )
    return SourceModel(
        werner_v=float(v),
        source_pdl=PdlElement(float(gamma_s)),
        mu=mu,
    )


def source_state(model: SourceModel) -> ChannelBatch:
    """Emitted two-qubit state: Werner(v) filtered by the internal PDL on arm A."""
    v = model.werner_v
    werner = bell_diagonal([v, -v, v])
    return apply_local(werner, pdl_operator(model.source_pdl), SIGMA0)


_H = np.array([1, 0], dtype=complex)
_V = np.array([0, 1], dtype=complex)
ANALYZERS = {
    "H": _H,
    "V": _V,
    "D": (_H + _V) / np.sqrt(2),
    "A": (_H - _V) / np.sqrt(2),
    "R": (_H + 1j * _V) / np.sqrt(2),
    "L": (_H - 1j * _V) / np.sqrt(2),
}
for _vec in ANALYZERS.values():
    _vec.setflags(write=False)

@dataclass(frozen=True, eq=False)
class Schedule:
    """A fixed analyzer schedule and everything tomography derives from it.

    Row k is the setting `labels[k]` (arm-A then arm-B analyzer letter):
    `kets[k]` its two-photon projector ket, `model[k]` its row of the linear
    map from Pauli-product coefficients to projector probabilities. `pinv`
    (16, K) is the pseudo-inverse of `model`, the least-squares inversion.
    `groups[k]` numbers the complete product basis setting k belongs to. All
    arrays are read-only.
    """

    labels: tuple[str, ...]
    kets: np.ndarray
    model: np.ndarray
    pinv: np.ndarray
    groups: np.ndarray

    def __len__(self) -> int:
        return len(self.labels)


def _schedule(labels: list[str]) -> Schedule:
    kets = np.array([np.kron(ANALYZERS[a], ANALYZERS[b]) for a, b in labels])
    model = np.einsum("ki,mij,kj->km", kets.conj(), _PAULI_PRODUCTS, kets).real
    # "HVDARL" lists the analyzers as three orthogonal pairs, one per basis
    groups = np.array([3 * ("HVDARL".index(a) // 2) + "HVDARL".index(b) // 2
                       for a, b in labels])
    pinv = np.linalg.pinv(model)
    for arr in (kets, model, pinv, groups):
        arr.setflags(write=False)
    return Schedule(tuple(labels), kets, model, pinv, groups)


# Full 6x6 analyzer product over H, V, D, A, R, L: nine complete product bases.
SETTINGS_36 = _schedule([a + b for a, b in product("HVDARL", repeat=2)])


def expected_coincidences(
    batch: ChannelBatch,
    settings: Schedule,
    src: SourceModel,
    det: DetectorModel,
    pulses: int,
) -> np.ndarray:
    """Mean coincidences over `pulses` at each setting, in schedule order.

    pulses * (mu eta^2 rate <ab|rho|ab> + dark_prob^2): bright pairs thinned
    by both detectors and the channel rate, plus a flat dark-dark floor.
    `batch.rho` is one state (4, 4) or a stack (..., 4, 4) with one rate
    per state; the result is (..., K) for a schedule of K settings.
    """
    kets = settings.kets
    p_bright = np.einsum("ki,...ij,kj->...k", kets.conj(), batch.rho, kets).real
    rate = np.asarray(batch.rate)[..., None]
    per_pulse = src.mu * det.efficiency**2 * rate * p_bright + det.dark_prob**2
    return pulses * per_pulse


def simulate_counts(
    batch: ChannelBatch,
    settings: Schedule,
    src: SourceModel,
    det: DetectorModel,
    pulses: int,
    seed,
) -> np.ndarray:
    """Poissonian coincidence counts, one deterministic sub-stream per state.

    `seed` is one sub-seed per state of `batch`: an int for one state, else
    ints (a nested sequence or an integer array) of the stack's leading shape.
    State n draws its K counts, in schedule order, from one generator seeded
    by its own sub-seed, so its counts do not depend on the rest of the stack.
    """
    expected = expected_coincidences(batch, settings, src, det, pulses)
    # object dtype keeps 64-bit seeds exact; a float array would round them
    seeds = np.asarray(seed, dtype=object)
    if seeds.shape != expected.shape[:-1]:
        raise ValueError(f"need one seed per state, got shape {seeds.shape} "
                         f"for {expected.shape[:-1]} states")
    if not all(isinstance(s, (int, np.integer)) for s in seeds.flat):
        raise TypeError("sub-seeds must be integers")
    counts = np.empty(expected.shape, dtype=np.int64)
    for n in np.ndindex(seeds.shape):
        counts[n] = np.random.default_rng(int(seeds[n])).poisson(expected[n])
    return counts


def reconstruct(counts, settings: Schedule) -> np.ndarray:
    """Linear inversion of normalized count frequencies, row by row.

    Each count is normalized by its basis-group total, turning the fit into one
    over per-basis outcome probabilities; a row with an empty basis group is
    fitted on its raw counts instead, leaving the overall scale to the fit. The
    schedule's precomputed pseudo-inverse then gives the least-squares Pauli
    coefficients. Either way the result is trace normalized; it is Hermitian
    but may be unphysical under shot noise, see project_physical.

    `counts` holds one finite, nonnegative number per setting (an array or
    any sequence), as `simulate_counts` and `expected_coincidences` return,
    or a stack (..., K) of such rows; the result is (..., 4, 4).
    """
    counts = np.asarray(counts, dtype=float)
    if counts.shape[-1:] != (len(settings),):
        raise ValueError(f"need one count per setting, got shape {counts.shape}")
    if not (np.isfinite(counts) & (counts >= 0)).all():
        raise ValueError("counts must be finite and nonnegative")
    if (counts.sum(axis=-1) <= 0).any():
        raise ValueError("all counts are zero")
    groups = settings.groups
    members = groups == np.arange(groups.max() + 1)[:, None]
    group_tot = np.where(members, counts[..., None, :], 0.0).sum(axis=-1)
    normalize = (group_tot > 0).all(axis=-1, keepdims=True)
    counts = counts / np.where(normalize, group_tot[..., groups], 1.0)
    # stacked matrix-vector products keep each row's bits independent of the stack
    x = settings.pinv @ counts[..., None]
    op = np.swapaxes(x, -1, -2) @ _PAULI_PRODUCTS.reshape(16, 16)
    op = op.reshape(counts.shape[:-1] + (4, 4))
    trace = traces(op).real
    if (np.abs(trace) < 1e-12).any():
        raise ValueError("reconstructed operator has vanishing trace")
    return symmetrize(op / trace[..., None, None])


def project_physical(m: np.ndarray) -> np.ndarray:
    """Nearest-physical repair of a Hermitian unit-trace reconstruction.

    Takes one matrix (4, 4) or a stack (..., 4, 4). Eigendecompose once, then
    repeatedly zero the most negative eigenvalue and spread its deficit
    uniformly over the remaining nonzero eigenvalues until all are
    nonnegative. Physical inputs pass through unchanged; the operation is
    idempotent. Every trace must be 1 within TOL, checked as `check_state` checks it.
    """
    m = symmetrize(np.asarray(m, dtype=complex))
    _check_unit_traces(m)
    vals, vecs = np.linalg.eigh(m)
    bad = vals.min(axis=-1) < 0
    if not bad.any():
        return m
    vals, vecs = vals[bad], vecs[bad]
    while (negative := vals.min(axis=-1) < 0).any():
        rows = np.flatnonzero(negative)
        i = vals[rows].argmin(axis=-1)
        deficit = vals[rows, i]
        vals[rows, i] = 0.0
        alive = vals[rows] != 0
        n_alive = alive.sum(axis=-1)
        if (n_alive == 0).any():
            raise ValueError("projection exhausted all eigenvalues")
        vals[rows] = np.where(alive, vals[rows] + (deficit / n_alive)[:, None], vals[rows])
    repaired = m.copy()
    repaired[bad] = check_state((vecs * vals[:, None, :]) @ np.swapaxes(vecs.conj(), -1, -2))
    return repaired


@dataclass(frozen=True)
class Rig:
    """A tomography bench: calibrated source, detectors, pulses per setting, master seed.

    `_check_count`, the package's one count check, takes pulses >= 1 and seed >= 0.
    """

    source: SourceModel
    detector: DetectorModel
    pulses: int = 1_000_000
    seed: int = 0

    def __post_init__(self):
        _check_count("pulses", self.pulses, 1)
        _check_count("seed", self.seed, 0)


def measure(batch: ChannelBatch, rig: Rig | None, label: str, indices) -> ChannelBatch:
    """Tomographic estimates of a batch's states, the one noisy measurement route.

    No rig means exact: `batch` itself comes back, whatever the indices.
    Otherwise `indices` holds one int per state (an int for a one-state
    batch), and state k draws Poissonian counts on the 36-setting schedule
    from the sub-seed derive_seed(rig.seed, label, indices[k]), then goes
    through linear inversion and the nearest-physical repair. The live states
    are measured in one call; extinct rows stay zero matrices. The result
    carries the batch's rates, so it is read like the exact batch.
    """
    if rig is None:
        return batch
    live = ~batch.extinct
    indices = np.asarray(indices)
    if indices.shape != live.shape:
        raise ValueError(f"need one index per state, got shape {indices.shape} "
                         f"for {live.shape} states")
    rho = np.zeros_like(batch.rho)
    if live.any():
        # a float index raises TypeError rather than hashing as "0.0"
        seeds = [derive_seed(rig.seed, label, operator.index(k)) for k in indices[live].tolist()]
        counts = simulate_counts(ChannelBatch(batch.rho[live], np.asarray(batch.rate)[live]),
                                 SETTINGS_36, rig.source, rig.detector, rig.pulses, seed=seeds)
        rho[live] = project_physical(reconstruct(counts, SETTINGS_36))
    return ChannelBatch(rho, batch.rate)
