"""Two-qubit polarization state kernel.

Jones convention: |H> = (1, 0), |V> = (0, 1), so sigma_3 = diag(1, -1) and
Stokes components are ordered (s1, s2, s3) against (sigma_1, sigma_2, sigma_3).
Density matrices are plain complex ndarrays; validators return a symmetrized
canonical copy rather than wrapping arrays in a class. The state functions
(`check_state`, `concurrence`, `purity`, `reduced_qubit`, `linear_entropies`,
`trace_distances`, `correlation_of`) take one state or a stack with any
leading batch axes and apply the single-state arithmetic row by row, one
state giving a 0-d result. Their traces come from `traces`, which adds the
diagonals of a whole stack in np.trace's order.
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
EIG_CLAMP = 1e-12  # state eigenvalues below this read as exact zeros

# sigma_i x sigma_j for i, j = 0..3, row-major: the two-qubit Pauli product basis
_PAULI_PRODUCTS = np.array([np.kron(si, sj) for si in (SIGMA0, *PAULI) for sj in (SIGMA0, *PAULI)])
_PAULI_PRODUCTS.setflags(write=False)
# sigma_j x sigma_j for j = 1, 2, 3: the Bell-diagonal correlators
_CORRELATORS = tuple(_PAULI_PRODUCTS[5::5])
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


def traces(m: np.ndarray) -> np.ndarray:
    """Trace of one matrix (d, d) or of each matrix of a stack (..., d, d), d = 2 or 4.

    The bits are np.trace's: where np.trace reduces each diagonal on its own,
    this adds the diagonal entries across the whole stack in its order,
    pairwise for complex entries and left to right for real ones, summed from
    0, which fixes the sign of zero traces. NaN comes where np.trace gives
    NaN, with an unspecified sign bit.
    """
    m = np.asarray(m)
    if m.shape[-2:] not in ((2, 2), (4, 4)):
        raise ValueError(f"expected 2x2 or 4x4 matrices, got {m.shape}")
    d = [m[..., k, k] for k in range(m.shape[-1])]
    if len(d) == 2:
        return 0 + (d[0] + d[1])
    if np.iscomplexobj(m):
        return 0 + ((d[0] + d[1]) + (d[2] + d[3]))
    return 0 + d[0] + d[1] + d[2] + d[3]


def _check_finite(m: np.ndarray) -> None:
    """ValueError unless every entry of a matrix or stack is finite."""
    if not np.isfinite(m).all():
        raise ValueError("density matrix has non-finite entries")


def _check_unit_traces(m: np.ndarray) -> None:
    """ValueError quoting the worst trace of a stack (..., d, d) off 1 by more than TOL."""
    tr = traces(m).real
    dev = np.abs(tr - 1.0)
    if dev.size and dev.max() > TOL:
        raise ValueError(f"trace {tr.flat[dev.argmax()]} is not 1 within {TOL}")


def check_state(m: np.ndarray) -> np.ndarray:
    """Validate density matrices (..., 4, 4) and return their symmetrized canonical copies.

    Requires finite entries, unit trace within TOL (`_check_unit_traces`), and
    eigenvalues >= -TOL. Raises on any bad row, quoting the worst trace or eigenvalue.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape[-2:] != (4, 4):
        raise ValueError(f"expected 4x4 matrices, got {m.shape}")
    _check_finite(m)
    m = symmetrize(m)
    _check_unit_traces(m)
    # A Cholesky factor of m + s I certifies every eigenvalue of m above
    # -s - 16 eps (its backward error at unit trace), and s = TOL - 1e-12 puts
    # that above -TOL. A stack it does not certify is judged by its
    # eigenvalues, so the accept set and the message are theirs.
    try:
        np.linalg.cholesky(m + (TOL - 1e-12) * np.eye(4))
    except np.linalg.LinAlgError:
        lo = np.linalg.eigvalsh(m).min()
        if lo < -TOL:
            raise ValueError(f"negative eigenvalue {lo} beyond tolerance") from None
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


def _physical_weights(t) -> np.ndarray:
    """Bell weights of the triple t, else ValueError: t has 3 components, each weight >= -TOL."""
    t = np.asarray(t, dtype=float)
    if t.shape != (3,):
        raise ValueError(f"correlation triple must have 3 components, got shape {t.shape}")
    w = bell_weights(t)
    if not w.min() >= -TOL:  # NaN fails it
        raise ValueError(f"unphysical correlation triple {tuple(t.tolist())}: weight {w.min()}")
    return w


def bell_diagonal(t) -> np.ndarray:
    """Bell-diagonal density matrix (1/4)(I + sum_j t_j sigma_j x sigma_j).

    t must have 3 components and nonnegative Bell weights within TOL, as
    `_physical_weights` checks for this and `theory.design_compensator`.
    """
    _physical_weights(t)
    rho = np.eye(4, dtype=complex)
    for tj, ss in zip(t, _CORRELATORS):
        rho = rho + float(tj) * ss
    return rho / 4


def correlation_of(rho: np.ndarray) -> np.ndarray:
    """Diagonal correlation triples t_j = Tr[rho (sigma_j x sigma_j)] of a stack (..., 4, 4).

    Gives (..., 3); every entry must be real within TOL.
    """
    rho = np.asarray(rho)
    t = np.stack([traces(rho @ ss) for ss in _CORRELATORS], axis=-1)
    real = np.abs(t.imag) <= TOL  # False for NaN
    if not real.all():
        k = np.flatnonzero(~real)[0]  # the first bad entry, entries running t1, t2, t3
        raise ValueError(f"correlation t{k % 3 + 1} has imaginary part {t.imag.flat[k]}")
    return t.real


def concurrence(rho: np.ndarray) -> np.ndarray:
    """Wootters concurrence of one state (4, 4) or of each state of a stack (..., 4, 4).

    C = max(0, l1 - l2 - l3 - l4), Wootters' l_i taken as the descending
    singular values of r (sy x sy) r*, r = sqrt(rho) from `eigh` of rho with
    its eigenvalues below EIG_CLAMP zeroed: no non-Hermitian eigensolver.
    """
    w, v = np.linalg.eigh(np.asarray(rho))
    w = np.where(w < EIG_CLAMP, 0.0, w)
    r = (v * np.sqrt(w)[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)
    lam = np.linalg.svd(r @ _YY @ r.conj(), compute_uv=False)
    c = np.subtract.reduce(lam, axis=-1)  # l1 - l2 - l3 - l4, left to right
    return np.where(c > 0.0, c, 0.0)[()]


def purity(rho: np.ndarray) -> np.ndarray:
    """Tr(rho^2), in [1/d, 1], of one state (d, d) or of each state of a stack (..., d, d).

    d is 2 (one qubit) or 4 (a pair).
    """
    rho = np.asarray(rho)
    return traces(rho @ rho).real[()]


def linear_entropies(q: np.ndarray) -> np.ndarray:
    """Normalized linear entropy 2(1 - Tr q^2) of each single-qubit state of a stack (..., 2, 2)."""
    return 2.0 * (1.0 - purity(q))


def reduced_qubit(rho: np.ndarray, which: str) -> np.ndarray:
    """Partial trace onto qubit "A" (first factor) or "B" (second factor).

    Takes one state (4, 4) or a stack (..., 4, 4).
    """
    rho = np.asarray(rho, dtype=complex)
    r = rho.reshape(rho.shape[:-2] + (2, 2, 2, 2))  # axes (..., a, b, a', b')
    # summed from 0 as np.trace sums, which fixes the sign of zero entries
    if which == "A":
        return 0 + r[..., :, 0, :, 0] + r[..., :, 1, :, 1]
    if which == "B":
        return 0 + r[..., 0, :, 0, :] + r[..., 1, :, 1, :]
    raise ValueError(f"which must be 'A' or 'B', got {which!r}")


def trace_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(1/2) * trace norm of a - b for every matrix pair of two stacks (..., d, d)."""
    lam = np.linalg.eigvalsh(symmetrize(np.asarray(a) - np.asarray(b)))
    return 0.5 * np.abs(lam).sum(axis=-1)

