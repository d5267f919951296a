"""Two-qubit polarization state kernel.

Jones convention: |H> = (1, 0), |V> = (0, 1), so sigma_3 = diag(1, -1) and
Stokes components are ordered (s1, s2, s3) against (sigma_1, sigma_2, sigma_3).
Density matrices are plain complex ndarrays; validators return a symmetrized
canonical copy rather than wrapping arrays in a class. The state functions
with a stack form (`check_states`, `concurrences`, `reduced_qubit`,
`linear_entropies`, `trace_distances`, `correlation_of`) take any leading
batch axes and apply the single-state arithmetic row by row; the
single-state functions are their one-state case.
"""

from enum import Enum

import numpy as np

SIGMA0 = np.eye(2, dtype=complex)
SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = (SIGMA1, SIGMA2, SIGMA3)
for _m in (SIGMA0, SIGMA1, SIGMA2, SIGMA3):
    _m.setflags(write=False)

TOL = 1e-9  # slack on unit traces and norms, eigenvalue signs and imaginary parts
EIG_CLAMP = 1e-12  # eigenvalue magnitudes below this read as exact zeros

# sigma_j x sigma_j for j = 1, 2, 3: the Bell-diagonal correlators
_CORRELATORS = tuple(np.kron(s, s) for s in PAULI)
for _m in _CORRELATORS:
    _m.setflags(write=False)
_YY = _CORRELATORS[1]


class BellKind(Enum):
    """The four Bell states, keyed by their correlation signature (t1, t2, t3)."""

    PHI_PLUS = (1.0, -1.0, 1.0)
    PHI_MINUS = (-1.0, 1.0, 1.0)
    PSI_PLUS = (1.0, 1.0, -1.0)
    PSI_MINUS = (-1.0, -1.0, -1.0)

    @property
    def correlation(self) -> np.ndarray:
        return np.array(self.value)


_BELL_VECTORS = {
    BellKind.PHI_PLUS: np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2),
    BellKind.PHI_MINUS: np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2),
    BellKind.PSI_PLUS: np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2),
    BellKind.PSI_MINUS: np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2),
}
for _v in _BELL_VECTORS.values():
    _v.setflags(write=False)


def bell_vector(kind: BellKind) -> np.ndarray:
    """State vector of the given Bell state in the HH, HV, VH, VV basis."""
    return _BELL_VECTORS[kind].copy()


def bell_state(kind: BellKind) -> np.ndarray:
    """Density matrix of the given Bell state."""
    v = _BELL_VECTORS[kind]
    return np.outer(v, v.conj())


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Hermitian part (m + m^dag)/2 of a matrix or of each matrix in a stack."""
    return (m + np.swapaxes(m.conj(), -1, -2)) / 2


def check_state(m: np.ndarray) -> np.ndarray:
    """Validate a 4x4 density matrix and return its symmetrized canonical copy.

    Requires finite entries, unit trace within TOL, and eigenvalues >= -TOL.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got {m.shape}")
    return check_states(m)


def check_states(m: np.ndarray) -> np.ndarray:
    """check_state applied to every matrix of a stack (..., d, d).

    Raises on any bad row, quoting the worst trace or eigenvalue in the stack.
    """
    m = np.asarray(m, dtype=complex)
    if not np.isfinite(m).all():
        raise ValueError("density matrix has non-finite entries")
    m = symmetrize(m)
    if m.size == 0:
        return m
    tr = np.trace(m, axis1=-2, axis2=-1).real
    dev = np.abs(tr - 1.0)
    if dev.max() > TOL:
        raise ValueError(f"trace {tr.flat[dev.argmax()]} is not 1 within {TOL}")
    lo = np.linalg.eigvalsh(m).min()
    if lo < -TOL:
        raise ValueError(f"negative eigenvalue {lo} beyond tolerance")
    return m


def bell_weights(t) -> np.ndarray:
    """Bell-basis weights of the diagonal state with correlation triple t.

    Ordered (phi+, phi-, psi+, psi-): weights are (1 +- t1 -+ t2 +- t3)/4.
    """
    t1, t2, t3 = (float(x) for x in t)
    return np.array(
        [
            (1 + t1 - t2 + t3) / 4,
            (1 - t1 + t2 + t3) / 4,
            (1 + t1 + t2 - t3) / 4,
            (1 - t1 - t2 - t3) / 4,
        ]
    )


def bell_diagonal(t) -> np.ndarray:
    """Bell-diagonal density matrix (1/4)(I + sum_j t_j sigma_j x sigma_j).

    The triple t must give nonnegative Bell weights within TOL.
    """
    w = bell_weights(t)
    if w.min() < -TOL:
        raise ValueError(f"unphysical correlation triple {tuple(t)}: weight {w.min()}")
    rho = np.eye(4, dtype=complex)
    for tj, ss in zip(t, _CORRELATORS):
        rho = rho + float(tj) * ss
    return rho / 4


def correlation_of(rho: np.ndarray) -> np.ndarray:
    """Diagonal correlation triples t_j = Tr[rho (sigma_j x sigma_j)] of a stack (..., 4, 4).

    Gives (..., 3); every entry must be real within TOL.
    """
    rho = np.asarray(rho)
    t = np.stack([np.trace(rho @ ss, axis1=-2, axis2=-1) for ss in _CORRELATORS], axis=-1)
    real = np.abs(t.imag) <= TOL  # False for NaN
    if not real.all():
        k = np.flatnonzero(~real)[0]  # the first bad entry, entries running t1, t2, t3
        raise ValueError(f"correlation t{k % 3 + 1} has imaginary part {t.imag.flat[k]}")
    return t.real


def eigvals_desc(m: np.ndarray) -> np.ndarray:
    """Real eigenvalues of m (or of each matrix in a stack) in descending order.

    Raises if any spectrum is not real within TOL. Magnitudes below EIG_CLAMP
    are zeroed so downstream square roots stay exact on rank-deficient
    products.
    """
    lam = np.linalg.eigvals(np.asarray(m, dtype=complex))
    if lam.size and np.abs(lam.imag).max() > TOL:
        raise ValueError(f"spectrum is not real: max imag {np.abs(lam.imag).max()}")
    lam = np.sort(lam.real, axis=-1)[..., ::-1]
    lam[np.abs(lam) < EIG_CLAMP] = 0.0
    return lam


def concurrences(rho: np.ndarray) -> np.ndarray:
    """Wootters concurrence of every state in a stack (..., 4, 4).

    C = max(0, sqrt(l1) - sqrt(l2) - sqrt(l3) - sqrt(l4)) with l_i the
    descending eigenvalues of rho (sy x sy) rho* (sy x sy).
    """
    rho = np.asarray(rho)
    m = rho @ _YY @ rho.conj() @ _YY
    s = np.sqrt(np.clip(eigvals_desc(m), 0.0, None))
    c = np.subtract.reduce(s, axis=-1)  # s1 - s2 - s3 - s4, left to right
    return np.where(c > 0.0, c, 0.0)


def concurrence(rho: np.ndarray) -> float:
    """Wootters concurrence of a two-qubit density matrix (see `concurrences`)."""
    return float(concurrences(rho))


def purity(rho: np.ndarray) -> float:
    """Tr(rho^2), in [1/d, 1]."""
    return float(np.trace(rho @ rho).real)


def linear_entropy(q: np.ndarray) -> float:
    """Normalized linear entropy 2(1 - Tr q^2) of a single-qubit state."""
    q = np.asarray(q, dtype=complex)
    if q.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got {q.shape}")
    return float(linear_entropies(q))


def linear_entropies(q: np.ndarray) -> np.ndarray:
    """linear_entropy of every single-qubit state in a stack (..., 2, 2)."""
    return 2.0 * (1.0 - np.trace(q @ q, axis1=-2, axis2=-1).real)


def reduced_qubit(rho: np.ndarray, which: str) -> np.ndarray:
    """Partial trace onto qubit "A" (first factor) or "B" (second factor).

    Takes one state (4, 4) or a stack (..., 4, 4).
    """
    rho = np.asarray(rho, dtype=complex)
    r = rho.reshape(rho.shape[:-2] + (2, 2, 2, 2))
    if which == "A":
        return np.trace(r, axis1=-3, axis2=-1)
    if which == "B":
        return np.trace(r, axis1=-4, axis2=-2)
    raise ValueError(f"which must be 'A' or 'B', got {which!r}")


def fidelity_to_pure(rho: np.ndarray, psi: np.ndarray) -> float:
    """<psi|rho|psi> for a target state psi normalized within TOL."""
    psi = np.asarray(psi, dtype=complex)
    nrm = np.linalg.norm(psi)
    if abs(nrm - 1.0) > TOL:
        raise ValueError(f"psi is not normalized: |psi| = {nrm}")
    return float((psi.conj() @ rho @ psi).real)


def trace_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """trace_distance of every matrix pair of two stacks (..., d, d)."""
    lam = np.linalg.eigvalsh(symmetrize(np.asarray(a) - np.asarray(b)))
    return 0.5 * np.abs(lam).sum(axis=-1)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """(1/2) * trace norm of a - b."""
    return float(trace_distances(a, b))
