"""Source, detector, and tomography emulation at coincidence-counting scale.

The entangled-pair source is modeled as a Werner state (isotropic noise on the
target Bell state) filtered by a fixed internal PDL along s3, calibrated so
back-to-back measurements reproduce a chosen concurrence and HH/VV imbalance.
Projective two-arm settings, Poissonian coincidence counts, and linear
least-squares state reconstruction mirror a standard polarization tomography
bench; `measure` chains them into the one route from a channel outcome to its
estimated state.
"""

import hashlib
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .channels import CANONICAL_AXIS, ChannelOutcome, PdlElement, apply_local, pdl_operator
from .qmath import SIGMA0, PAULI, TOL, bell_diagonal, check_state, symmetrize

MU_RANGE = (0.001, 0.1)


def derive_seed(master_seed: int, *parts) -> int:
    """Deterministic 64-bit sub-seed keyed by (master seed, labels/indices).

    SHA-256 based so derived streams are stable across platforms and
    independent of evaluation order.
    """
    payload = ":".join([str(int(master_seed)), *map(str, parts)]).encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


def derive_rng(master_seed: int, *parts) -> np.random.Generator:
    return np.random.default_rng(derive_seed(master_seed, *parts))


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
    """Per-arm detection efficiency plus dark and accidental coincidence floors."""

    efficiency: float = 0.20
    dark_prob: float = 4e-5
    accidental_floor: float = 0.0

    def __post_init__(self):
        if not 0 < self.efficiency <= 1:
            raise ValueError(f"efficiency must lie in (0, 1], got {self.efficiency}")
        if not 0 <= self.dark_prob < 1:
            raise ValueError(f"dark_prob must lie in [0, 1), got {self.dark_prob}")
        if self.accidental_floor < 0:
            raise ValueError("accidental_floor must be >= 0")


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
    if hh_vv_ratio < 1:
        raise ValueError(f"hh_vv_ratio must be >= 1, got {hh_vv_ratio}")
    gamma_s = np.log(hh_vv_ratio) / 2
    v = (2 * target_c * np.cosh(gamma_s) + 1) / 3
    if v > 1:
        raise ValueError(
            f"target concurrence {target_c} unreachable at HH/VV ratio {hh_vv_ratio}"
        )
    return SourceModel(
        werner_v=float(v),
        source_pdl=PdlElement(float(gamma_s), CANONICAL_AXIS.copy()),
        mu=mu,
    )


def source_state(model: SourceModel) -> ChannelOutcome:
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

# Informationally complete 16-projector schedule (standard two-qubit set).
_SET16 = [
    ("H", "H"), ("H", "V"), ("V", "V"), ("V", "H"),
    ("R", "H"), ("R", "V"), ("D", "V"), ("D", "H"),
    ("D", "R"), ("D", "D"), ("R", "D"), ("H", "D"),
    ("V", "D"), ("V", "L"), ("H", "L"), ("R", "L"),
]


@dataclass(frozen=True, eq=False)
class ProjectorSetting:
    """One coincidence analyzer setting: Jones vectors for arms A and B.

    `ket` is the two-photon projector ket jones_a x jones_b, built once here.
    """

    jones_a: np.ndarray
    jones_b: np.ndarray
    label: str = ""
    ket: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for name, v in (("jones_a", self.jones_a), ("jones_b", self.jones_b)):
            v = np.asarray(v, dtype=complex)
            if v.shape != (2,) or abs(np.linalg.norm(v) - 1) > 1e-12:
                raise ValueError(f"{name} must be a normalized 2-vector")
            v.setflags(write=False)
            object.__setattr__(self, name, v)
        ket = np.kron(self.jones_a, self.jones_b)
        ket.setflags(write=False)
        object.__setattr__(self, "ket", ket)


def _setting(na: str, nb: str) -> ProjectorSetting:
    return ProjectorSetting(ANALYZERS[na].copy(), ANALYZERS[nb].copy(), label=na + nb)


# settings are immutable, so every schedule call hands out the same ones
_SETTINGS_36 = tuple(_setting(na, nb) for na, nb in product("HVDARL", repeat=2))
_SETTINGS_16 = tuple(_setting(na, nb) for na, nb in _SET16)


def settings_36() -> list[ProjectorSetting]:
    """Full 6x6 analyzer product over H, V, D, A, R, L."""
    return list(_SETTINGS_36)


def settings_16() -> list[ProjectorSetting]:
    """Minimal informationally complete subset (exact linear inversion)."""
    return list(_SETTINGS_16)


@dataclass(frozen=True)
class CountRecord:
    """Expected and observed coincidences for one setting index."""

    index: int
    expected: float
    observed: int

    def __post_init__(self):
        if self.observed < 0 or self.expected < 0:
            raise ValueError("counts must be nonnegative")


def _expected_vector(outcome, kets, src, det, pulses) -> np.ndarray:
    p_bright = np.einsum("ki,ij,kj->k", kets.conj(), outcome.rho, kets).real
    per_pulse = (
        src.mu * det.efficiency**2 * outcome.rate * p_bright
        + det.accidental_floor
        + det.dark_prob**2
    )
    return pulses * per_pulse


def expected_coincidences(
    outcome: ChannelOutcome,
    setting: ProjectorSetting,
    src: SourceModel,
    det: DetectorModel,
    pulses: int,
) -> float:
    """Mean coincidences over `pulses` at one setting.

    pulses * (mu eta^2 rate <ab|rho|ab> + accidental_floor + dark_prob^2):
    bright pairs thinned by both detectors and the channel rate, plus flat
    accidental and dark-dark floors.
    """
    return float(_expected_vector(outcome, setting.ket[None, :], src, det, pulses)[0])


def simulate_counts(
    outcome: ChannelOutcome,
    settings: list[ProjectorSetting],
    src: SourceModel,
    det: DetectorModel,
    pulses: int,
    seed: int,
) -> list[CountRecord]:
    """Poissonian coincidence counts, one deterministic sub-stream per setting."""
    expected = _expected_vector(
        outcome, _settings_plan(settings).kets, src, det, pulses
    )
    return [
        CountRecord(index=idx, expected=float(e), observed=int(derive_rng(seed, idx).poisson(e)))
        for idx, e in enumerate(expected)
    ]


_HERM_BASIS = np.array(
    [np.kron(si, sj) for si in (SIGMA0, *PAULI) for sj in (SIGMA0, *PAULI)]
)
_HERM_BASIS.setflags(write=False)


@dataclass(frozen=True, eq=False)
class _SettingsPlan:
    kets: np.ndarray
    model: np.ndarray
    rank: int
    groups: np.ndarray | None


_plan_cache: dict[bytes, _SettingsPlan] = {}


def _settings_plan(settings: list[ProjectorSetting]) -> _SettingsPlan:
    # derived quantities of a measurement schedule, cached across repeated use
    kets = np.array([s.ket for s in settings])
    key = kets.tobytes()
    plan = _plan_cache.get(key)
    if plan is None:
        model = np.einsum("ki,mij,kj->km", kets.conj(), _HERM_BASIS, kets).real
        plan = _SettingsPlan(
            kets=kets,
            model=model,
            rank=int(np.linalg.matrix_rank(model)),
            groups=_basis_groups(settings),
        )
        if len(_plan_cache) > 16:
            _plan_cache.clear()
        _plan_cache[key] = plan
    return plan


def _basis_groups(settings: list[ProjectorSetting]) -> np.ndarray | None:
    """Group indices when the schedule tiles into complete product bases.

    Two analyzers belong to one basis when orthogonal; a complete group is the
    2x2 product of an A-basis and a B-basis. Returns None unless every setting
    sits in a full group of four.
    """

    def basis_ids(kets):
        reps, ids = [], []
        for k in kets:
            for bid, r in enumerate(reps):
                ov = abs(r.conj() @ k)
                if ov > 1 - 1e-9 or ov < 1e-9:
                    ids.append(bid)
                    break
            else:
                ids.append(len(reps))
                reps.append(k)
        return ids

    ids_a = basis_ids([s.jones_a for s in settings])
    ids_b = basis_ids([s.jones_b for s in settings])
    keys = {}
    gid = np.empty(len(settings), dtype=int)
    for k, key in enumerate(zip(ids_a, ids_b)):
        gid[k] = keys.setdefault(key, len(keys))
    counts = np.bincount(gid)
    if (counts != 4).any():
        return None
    # a complete group's projectors must sum to the identity
    for g in range(len(counts)):
        tot = sum(np.outer(settings[k].ket, settings[k].ket.conj()) for k in np.flatnonzero(gid == g))
        if np.abs(tot - np.eye(4)).max() > 1e-9:
            return None
    return gid


def reconstruct(counts, settings: list[ProjectorSetting]) -> np.ndarray:
    """Least-squares linear inversion of normalized count frequencies.

    When the settings tile into complete product bases (the 6x6 schedule does)
    each count is normalized by its basis-group total, turning the fit into one
    over per-basis outcome probabilities. Otherwise the overall scale is left
    to the fit. Either way the result is trace normalized; it is Hermitian but
    may be unphysical under shot noise, see project_physical.

    Accepts CountRecord lists (observed counts are used) or a plain sequence of
    nonnegative reals.
    """
    if len(counts) > 0 and isinstance(counts[0], CountRecord):
        counts = [r.observed for r in counts]
    counts = np.asarray(counts, dtype=float)
    if counts.shape != (len(settings),):
        raise ValueError(f"need one count per setting, got shape {counts.shape}")
    if counts.sum() <= 0:
        raise ValueError("all counts are zero")
    plan = _settings_plan(settings)
    if plan.rank < 16:
        raise ValueError("settings are not informationally complete (rank-deficient)")
    if plan.groups is not None:
        group_tot = np.bincount(plan.groups, weights=counts)
        if (group_tot > 0).all():
            counts = counts / group_tot[plan.groups]
    x, *_ = np.linalg.lstsq(plan.model, counts, rcond=None)
    op = np.tensordot(x, _HERM_BASIS, axes=1)
    trace = np.trace(op).real
    if abs(trace) < 1e-12:
        raise ValueError("reconstructed operator has vanishing trace")
    return symmetrize(op / trace)


def project_physical(m: np.ndarray) -> np.ndarray:
    """Nearest-physical repair of a Hermitian unit-trace reconstruction.

    Eigendecompose once, then repeatedly zero the most negative eigenvalue and
    spread its deficit uniformly over the remaining nonzero eigenvalues until
    all are nonnegative. Physical inputs pass through unchanged; the operation
    is idempotent. The trace must be 1 within TOL.
    """
    m = symmetrize(np.asarray(m, dtype=complex))
    if abs(np.trace(m).real - 1) > TOL:
        raise ValueError(f"trace {np.trace(m).real} is not 1 within {TOL}")
    vals, vecs = np.linalg.eigh(m)
    if vals.min() >= 0:
        return m
    vals = vals.copy()
    while vals.min() < 0:
        i = int(vals.argmin())
        deficit = vals[i]
        vals[i] = 0.0
        alive = vals != 0
        if not alive.any():
            raise ValueError("projection exhausted all eigenvalues")
        vals[alive] += deficit / alive.sum()
    return check_state((vecs * vals) @ vecs.conj().T)


def measure(
    outcome: ChannelOutcome,
    src: SourceModel,
    det: DetectorModel,
    pulses: int,
    seed: int,
) -> np.ndarray:
    """Tomographic estimate of a channel outcome, the one noisy measurement route.

    Poissonian counts on the 36-setting schedule drawn from `seed`, linear
    inversion, then the nearest-physical repair.
    """
    settings = settings_36()
    counts = simulate_counts(outcome, settings, src, det, pulses, seed=seed)
    return project_physical(reconstruct(counts, settings))
