import re

import numpy as np
import pytest

from pdlsim.qmath import (
    PAULI,
    SIGMA0,
    BellKind,
    bell_diagonal,
    bell_state,
    bell_vector,
    bell_weights,
    check_state,
    concurrence,
    correlation_of,
    eigvals_desc,
    fidelity_to_pure,
    linear_entropy,
    purity,
    reduced_qubit,
    symmetrize,
    trace_distance,
)

BELL_CORRELATIONS = {
    BellKind.PHI_PLUS: (1, -1, 1),
    BellKind.PHI_MINUS: (-1, 1, 1),
    BellKind.PSI_PLUS: (1, 1, -1),
    BellKind.PSI_MINUS: (-1, -1, -1),
}


def random_density(rng, dim=4):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


def test_bell_states_basic():
    for kind in BellKind:
        v = bell_vector(kind)
        rho = bell_state(kind)
        assert abs(np.linalg.norm(v) - 1) < 1e-12
        assert abs(np.trace(rho).real - 1) < 1e-12
        assert abs(purity(rho) - 1) < 1e-12
        assert abs(concurrence(rho) - 1) < 1e-10
        assert np.allclose(correlation_of(rho), BELL_CORRELATIONS[kind], atol=1e-12)


def test_bell_vectors_orthonormal():
    vs = [bell_vector(k) for k in BellKind]
    gram = np.array([[abs(a.conj() @ b) for b in vs] for a in vs])
    assert np.allclose(gram, np.eye(4), atol=1e-12)


def test_bell_weights_order_and_sum():
    # ordering is (phi+, phi-, psi+, psi-)
    w = bell_weights((1, -1, 1))
    assert np.allclose(w, [1, 0, 0, 0], atol=1e-12)
    w = bell_weights((-1, -1, -1))
    assert np.allclose(w, [0, 0, 0, 1], atol=1e-12)
    rng = np.random.default_rng(7)
    for _ in range(50):
        t = rng.uniform(-1, 1, size=3)
        assert abs(bell_weights(t).sum() - 1) < 1e-12


def test_bell_diagonal_matches_projectors():
    for kind in BellKind:
        assert np.allclose(bell_diagonal(kind.correlation), bell_state(kind), atol=1e-12)


def test_bell_diagonal_rank_two_mixture():
    c = 0.69
    rho = bell_diagonal((c, -c, 1))
    expect = (1 + c) / 2 * bell_state(BellKind.PHI_PLUS) + (1 - c) / 2 * bell_state(
        BellKind.PHI_MINUS
    )
    assert np.allclose(rho, expect, atol=1e-12)
    assert abs(concurrence(rho) - c) < 1e-10


def test_bell_diagonal_rejects_unphysical_triple():
    with pytest.raises(ValueError):
        bell_diagonal((1, 1, 1))  # psi- weight -1/2


def test_correlation_roundtrip():
    rng = np.random.default_rng(11)
    for _ in range(100):
        # sample valid triples via Dirichlet weights over the Bell basis
        w = rng.dirichlet(np.ones(4))
        t = np.array(
            [
                w[0] - w[1] + w[2] - w[3],
                -w[0] + w[1] + w[2] - w[3],
                w[0] + w[1] - w[2] - w[3],
            ]
        )
        assert np.allclose(correlation_of(bell_diagonal(t)), t, atol=1e-12)


def test_concurrence_closed_forms():
    # Werner state: C = max(0, (3v - 1)/2)
    for v in (0.2, 1 / 3, 0.5, 0.9580137508217952, 1.0):
        rho = bell_diagonal((v, -v, v))
        assert abs(concurrence(rho) - max(0.0, (3 * v - 1) / 2)) < 1e-10
    # Bell-diagonal: C = max(0, 2 max w - 1)
    rng = np.random.default_rng(3)
    for _ in range(200):
        w = rng.dirichlet(np.ones(4))
        t = np.array(
            [
                w[0] - w[1] + w[2] - w[3],
                -w[0] + w[1] + w[2] - w[3],
                w[0] + w[1] - w[2] - w[3],
            ]
        )
        c = concurrence(bell_diagonal(t))
        assert abs(c - max(0.0, 2 * w.max() - 1)) < 1e-10


def test_concurrence_pure_states():
    # |psi> = a|HH> + d|VV>: C = 2|a d|
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = rng.uniform(0, 1)
        d = np.sqrt(1 - a * a) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        v = np.array([a, 0, 0, d])
        rho = np.outer(v, v.conj())
        assert abs(concurrence(rho) - 2 * abs(a * d)) < 1e-10


def test_concurrence_range_random_states():
    rng = np.random.default_rng(13)
    for _ in range(10_000):
        c = concurrence(random_density(rng))
        assert -1e-12 <= c <= 1 + 1e-9


def test_concurrence_separable_zero():
    rho = np.kron(np.diag([0.7, 0.3]), np.diag([0.6, 0.4])).astype(complex)
    assert concurrence(rho) == 0.0


def test_purity_and_linear_entropy():
    assert abs(purity(np.eye(4) / 4) - 0.25) < 1e-12
    assert abs(linear_entropy(np.eye(2, dtype=complex) / 2) - 1.0) < 1e-12
    assert abs(linear_entropy(np.diag([1.0, 0.0]).astype(complex))) < 1e-12
    with pytest.raises(ValueError):
        linear_entropy(np.eye(4) / 4)


def test_reduced_qubit():
    rho = bell_state(BellKind.PHI_PLUS)
    for which in ("A", "B"):
        r = reduced_qubit(rho, which)
        assert np.allclose(r, SIGMA0 / 2, atol=1e-12)
    rng = np.random.default_rng(17)
    for _ in range(20):
        rho = random_density(rng)
        assert abs(np.trace(reduced_qubit(rho, "A")).real - 1) < 1e-12
        assert abs(np.trace(reduced_qubit(rho, "B")).real - 1) < 1e-12
    with pytest.raises(ValueError):
        reduced_qubit(rho, "C")


def test_reduced_qubit_product_state():
    qa = np.array([[0.8, 0.1], [0.1, 0.2]], dtype=complex)
    qb = np.array([[0.5, 0.2j], [-0.2j, 0.5]], dtype=complex)
    rho = np.kron(qa, qb)
    assert np.allclose(reduced_qubit(rho, "A"), qa, atol=1e-12)
    assert np.allclose(reduced_qubit(rho, "B"), qb, atol=1e-12)


def test_fidelity_to_pure():
    rho = bell_state(BellKind.PHI_PLUS)
    assert abs(fidelity_to_pure(rho, bell_vector(BellKind.PHI_PLUS)) - 1) < 1e-12
    assert abs(fidelity_to_pure(rho, bell_vector(BellKind.PSI_MINUS))) < 1e-12
    with pytest.raises(ValueError):
        fidelity_to_pure(rho, np.array([1.0, 0, 0, 1.0]))  # unnormalized


def test_trace_distance():
    a = bell_state(BellKind.PHI_PLUS)
    b = bell_state(BellKind.PHI_MINUS)
    assert abs(trace_distance(a, a)) < 1e-12
    assert abs(trace_distance(a, b) - 1.0) < 1e-10  # orthogonal pure states


def test_eigvals_desc():
    lam = eigvals_desc(np.diag([0.1, 0.5, 0.4, 0.0]).astype(complex))
    assert np.allclose(lam, [0.5, 0.4, 0.1, 0.0], atol=1e-12)
    rng = np.random.default_rng(23)
    for _ in range(50):
        rho = random_density(rng)
        assert abs(eigvals_desc(rho).sum() - 1) < 1e-10
    # tiny magnitudes are clamped to exact zero
    lam = eigvals_desc(np.diag([1.0, -1e-15, 1e-14, 0.0]).astype(complex))
    assert lam[1] == 0.0 and lam[2] == 0.0 and lam[3] == 0.0
    with pytest.raises(ValueError):
        eigvals_desc(np.array([[0, 1], [0, 0]], dtype=complex) + 1j * np.eye(2))


def test_check_state():
    rho = check_state(bell_state(BellKind.PHI_PLUS))
    assert np.allclose(rho, rho.conj().T)
    with pytest.raises(ValueError):
        check_state(np.eye(4, dtype=complex))  # trace 4
    with pytest.raises(ValueError):
        check_state(np.diag([1.5, -0.5, 0, 0]).astype(complex))  # negative eigenvalue
    with pytest.raises(ValueError):
        check_state(np.full((4, 4), np.nan))
    with pytest.raises(ValueError):
        check_state(np.eye(2, dtype=complex) / 2)  # not 4x4


def test_symmetrize():
    rng = np.random.default_rng(29)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    s = symmetrize(m)
    assert np.allclose(s, s.conj().T, atol=1e-14)


def test_pauli_algebra():
    for j, s in enumerate(PAULI):
        assert np.allclose(s @ s, SIGMA0, atol=1e-14)
        assert abs(np.trace(s)) < 1e-14


def test_correlation_of_stack_rows_are_their_own_calls():
    rng = np.random.default_rng(89)
    rhos = np.array([random_density(rng) for _ in range(60)]).reshape(3, 20, 4, 4)
    got = correlation_of(rhos)
    assert got.shape == (3, 20, 3)
    for idx in np.ndindex(3, 20):
        assert (correlation_of(rhos[idx]) == got[idx]).all()
    skew = np.eye(4) / 4 + 0.125j * np.kron(PAULI[1], PAULI[1])
    with pytest.raises(ValueError) as one:
        correlation_of(skew)
    assert str(one.value) == "correlation t2 has imaginary part 0.5"
    with pytest.raises(ValueError, match=f"^{re.escape(str(one.value))}$"):
        correlation_of(np.array([rhos[0, 0], skew, rhos[0, 1]]))
