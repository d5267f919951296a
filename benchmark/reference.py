"""Reference physics written apart from pdlsim, used to check its outputs.

Nothing here imports pdlsim. The Jones filter is built from its spectral
projectors, concurrence takes the Hermitian Wootters route (eigenvalues of
sqrt(rho) rho~ sqrt(rho), no eigenvalue clamp), and the transport laws are
the closed forms of the source paper.
"""

import numpy as np

DB_PER_NEPER = 20.0 / np.log(10.0)

I2 = np.eye(2, dtype=complex)
PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
_YY = np.kron(PAULI[1], PAULI[1])
PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
BELL_T = np.array([1.0, -1.0, 1.0])  # correlation triple of |phi+>


def polar_axis(theta: float, phi: float = 0.0) -> np.ndarray:
    return np.array(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
    )


def jones_filter(gamma: float, axis) -> np.ndarray:
    """Transmission 1 on the +axis polarization and e^-gamma on the -axis one."""
    n_sigma = sum(a * s for a, s in zip(axis, PAULI))
    return (I2 + n_sigma) / 2 + np.exp(-gamma) * (I2 - n_sigma) / 2


def filtered(rho: np.ndarray, m_a: np.ndarray, m_b: np.ndarray):
    """Normalized state after local filters, and the post-selection rate."""
    k = np.kron(m_a, m_b)
    out = k @ rho @ k.conj().T
    rate = np.trace(out).real
    return out / rate, rate


def wootters(rho: np.ndarray) -> float:
    """Concurrence from the Hermitian form sqrt(rho) rho~ sqrt(rho)."""
    w, v = np.linalg.eigh((rho + rho.conj().T) / 2)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    tilde = _YY @ rho.conj() @ _YY
    lam = np.linalg.eigvalsh(root @ tilde @ root)
    s = np.sort(np.sqrt(np.clip(lam, 0.0, None)))[::-1]
    return float(max(0.0, s[0] - s[1] - s[2] - s[3]))


def bell_diagonal(t) -> np.ndarray:
    rho = np.eye(4, dtype=complex)
    for tj, s in zip(t, PAULI):
        rho = rho + tj * np.kron(s, s)
    return rho / 4


def werner(v: float) -> np.ndarray:
    """v |phi+><phi+| + (1 - v) I/4, concurrence max(0, (3v - 1)/2)."""
    return v * np.outer(PHI_PLUS, PHI_PLUS.conj()) + (1 - v) * np.eye(4) / 4


def dephased_t(q: float) -> np.ndarray:
    """Correlation triple of |phi+> after a phase flip of weight q about s3."""
    return np.array([1 - 2 * q, -(1 - 2 * q), 1.0])


def reduced_a(rho: np.ndarray) -> np.ndarray:
    return np.einsum("ijkj->ik", rho.reshape(2, 2, 2, 2))


def linear_entropy(q: np.ndarray) -> float:
    return float(2.0 * (1.0 - np.trace(q @ q).real))


def stokes(v: np.ndarray) -> np.ndarray:
    return np.array([(v.conj() @ s @ v).real for s in PAULI])


def aggregate_gamma(g1: float, g2: float, cos_angle: float) -> float:
    """Concatenation law cosh g = cosh g1 cosh g2 + cos(angle) sinh g1 sinh g2."""
    return float(np.arccosh(np.cosh(g1) * np.cosh(g2) + cos_angle * np.sinh(g1) * np.sinh(g2)))


def aggregate_axis(g1: float, a1, g2: float, a2) -> np.ndarray:
    """Input-referred most-transmitted axis of the cascade (first g1, then g2)."""
    m = jones_filter(g2, a2) @ jones_filter(g1, a1)
    _, vecs = np.linalg.eigh(m.conj().T @ m)
    return stokes(vecs[:, -1])


def two_arm_d(gamma_a: float, gamma_b: float, kap: float) -> float:
    return np.cosh(gamma_a) * np.cosh(gamma_b) + kap * np.sinh(gamma_a) * np.sinh(gamma_b)


def two_arm_concurrence(c0: float, gamma_a: float, gamma_b: float, kap: float) -> float:
    return c0 / two_arm_d(gamma_a, gamma_b, kap)


def two_arm_rate(gamma_a: float, gamma_b: float, kap: float) -> float:
    return np.exp(-(gamma_a + gamma_b)) * two_arm_d(gamma_a, gamma_b, kap)


def optimum(c0: float, gamma_a: float, m: float) -> float:
    """Best concurrence any arm-B element reaches against arm-A magnitude gamma_a."""
    return c0 / (np.cosh(gamma_a) * np.sqrt(1.0 - (m * np.tanh(gamma_a)) ** 2))


def optimum_gamma_b(gamma_a: float, m: float) -> float:
    return float(np.arctanh(m * np.tanh(gamma_a)))
