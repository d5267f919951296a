import itertools
import re

import numpy as np
import pytest

from pdlsim.qmath import (
    PAULI,
    SIGMA0,
    TOL,
    BellKind,
    bell_diagonal,
    bell_state,
    bell_vector,
    bell_weights,
    check_state,
    concurrence,
    correlation_of,
    linear_entropies,
    purity,
    reduced_qubit,
    symmetrize,
    trace_distances,
    traces,
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
    with pytest.raises(ValueError, match="^unphysical correlation triple"):
        bell_diagonal([float("nan"), -0.5, 1.0])  # NaN weights fail the check


def test_bell_diagonal_needs_three_components():
    for t in ([0.5, 0.5], [0.1, 0.2, 0.3, 0.4], [[0.1, 0.2, 0.3]], 0.5):
        msg = f"correlation triple must have 3 components, got shape {np.shape(t)}"
        with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
            bell_diagonal(t)


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


def test_concurrence_takes_one_state_or_a_stack():
    rng = np.random.default_rng(17)
    rhos = np.array([random_density(rng) for _ in range(12)]).reshape(3, 4, 4, 4)
    stacked = concurrence(rhos)
    assert stacked.shape == (3, 4)
    for idx in np.ndindex(3, 4):
        one = concurrence(rhos[idx])
        assert isinstance(one, np.float64) and one.tobytes() == stacked[idx].tobytes()


def test_concurrence_separable_zero():
    rho = np.kron(np.diag([0.7, 0.3]), np.diag([0.6, 0.4])).astype(complex)
    assert concurrence(rho) == 0.0


def test_purity_and_linear_entropy():
    assert abs(purity(np.eye(4) / 4) - 0.25) < 1e-12
    # qubit A of q (x) I/2 is q itself
    for q, want in ((np.eye(2) / 2, 1.0), (np.diag([1.0, 0.0]), 0.0)):
        entropy = linear_entropies(reduced_qubit(np.kron(q, SIGMA0 / 2), "A"))
        assert abs(entropy - want) < 1e-12


def test_purity_of_a_stack_matches_one_state_calls():
    rng = np.random.default_rng(211)
    stack = np.array([random_density(rng) for _ in range(50)]).reshape(5, 10, 4, 4)
    got = purity(stack)
    assert got.shape == (5, 10)
    want = [purity(rho) for rho in stack.reshape(-1, 4, 4)]
    assert got.tobytes() == np.array(want).tobytes()
    one = purity(stack[0, 0])
    assert np.ndim(one) == 0 and one == got[0, 0]


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
    # bit-equal to np.trace over the 6-d view, signed zeros included
    stack = np.array([random_density(rng) for _ in range(24)]).reshape(2, 12, 4, 4)
    stack[0, 0] = -0.0
    stack[0, 1].imag[:] = -0.0
    r = stack.reshape(2, 12, 2, 2, 2, 2)
    for which, axes in (("A", (-3, -1)), ("B", (-4, -2))):
        assert reduced_qubit(stack, which).tobytes() == np.trace(r, 0, *axes).tobytes()


# signed zeros, infinities, NaN, subnormals and magnitudes whose sums overflow
EDGE_ENTRIES = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-300, 1e308, -1e308,
                1.0, -0.5]


def nan_blind_bits(t):
    """dtype, shape and bytes of a trace or a stack of them, every NaN made np.nan.

    np.trace leaves the sign bit of a NaN sum unspecified; every other bit counts.
    """
    t = np.asarray(t)
    parts = np.array(t).reshape(-1).view(float)  # real, or real and imaginary parts interleaved
    parts[np.isnan(parts)] = np.nan
    return t.dtype, t.shape, parts.tobytes()


@pytest.mark.parametrize("d", [2, 4])
def test_traces_match_np_trace_bit_for_bit(d):
    rng = np.random.default_rng(190 + d)
    diagonals = np.array(list(itertools.product(EDGE_ENTRIES, repeat=d)))  # 20 736 at d = 4
    # random magnitudes from 1e-20 to 1e20, where the order of the sums shows
    spread = rng.normal(size=(2000, d)) * 10.0 ** rng.integers(-20, 21, size=(2000, d))
    idx = np.arange(d)
    for diag in (diagonals, spread):
        for dtype in (float, complex):
            m = rng.normal(size=(len(diag), d, d)).astype(dtype)  # off the diagonal: ignored
            m[:, idx, idx] = diag
            if dtype is complex:
                m.imag[:, idx, idx] = diag[rng.permutation(len(diag))]
            stacks = [m, m[0], m[:0], m[:1], m[:6].reshape(2, 3, d, d),
                      m[:5].reshape(5, 1, d, d)]
            with np.errstate(all="ignore"):  # inf - inf, 1e308 + 1e308
                for s in stacks:
                    assert nan_blind_bits(traces(s)) == nan_blind_bits(
                        np.trace(s, axis1=-2, axis2=-1))
                for one in m[::23]:
                    assert nan_blind_bits(traces(one)) == nan_blind_bits(np.trace(one))
    with pytest.raises(ValueError, match=re.escape("expected 2x2 or 4x4 matrices, got (3, 3)")):
        traces(np.eye(3))


def test_reduced_qubit_product_state():
    qa = np.array([[0.8, 0.1], [0.1, 0.2]], dtype=complex)
    qb = np.array([[0.5, 0.2j], [-0.2j, 0.5]], dtype=complex)
    rho = np.kron(qa, qb)
    assert np.allclose(reduced_qubit(rho, "A"), qa, atol=1e-12)
    assert np.allclose(reduced_qubit(rho, "B"), qb, atol=1e-12)


def test_trace_distance():
    a = bell_state(BellKind.PHI_PLUS)
    b = bell_state(BellKind.PHI_MINUS)
    assert abs(trace_distances(a, a)) < 1e-12
    assert abs(trace_distances(a, b) - 1.0) < 1e-10  # orthogonal pure states


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
    with pytest.raises(ValueError, match="expected 4x4 matrices"):
        check_state(np.stack([np.eye(2, dtype=complex) / 2] * 4))  # a stack of 2x2
    stack = check_state(np.array([bell_state(kind) for kind in BellKind]).reshape(2, 2, 4, 4))
    assert stack.shape == (2, 2, 4, 4) and (stack[0, 0] == rho).all()


def spectrum_state(rng, lo):
    """A unit-trace Hermitian U diag(lo, 0.2, 0.3, 0.5 - lo) U^dag with a random unitary U."""
    u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    return (u * np.array([lo, 0.2, 0.3, 0.5 - lo])) @ u.conj().T


@pytest.mark.parametrize("lo", [-TOL * (1 + 1e-3), -TOL * (1 - 1e-3), -TOL + 5e-13],
                         ids=["below-tol", "above-tol", "inside-certificate-margin"])
def test_check_state_decides_as_the_smallest_eigenvalue(lo):
    # -TOL + 5e-13 lies inside the Cholesky certificate's 1e-12 margin, so
    # the eigenvalues decide it
    rng = np.random.default_rng(101)
    for _ in range(20):
        m = spectrum_state(rng, lo)
        if np.linalg.eigvalsh(symmetrize(m)).min() < -TOL:
            with pytest.raises(ValueError, match="negative eigenvalue .* beyond tolerance"):
                check_state(m)
        else:
            assert check_state(m).tobytes() == symmetrize(m).tobytes()


def test_check_state_quotes_the_worst_eigenvalue_of_a_stack():
    rng = np.random.default_rng(103)
    stack = np.array([random_density(rng) for _ in range(896)])
    stack[448] = spectrum_state(rng, -2 * TOL)
    lo = np.linalg.eigvalsh(symmetrize(stack)).min()
    assert lo < -TOL
    with pytest.raises(ValueError, match=f"^negative eigenvalue {re.escape(str(lo))} beyond "
                                         "tolerance$"):
        check_state(stack)
    assert check_state(np.delete(stack, 448, axis=0)).shape == (895, 4, 4)


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
