"""The batched state-through-channel kernel `channels.propagate`.

A batch must reproduce, bit for bit, both its own one-row case and a plain
np.kron + matmul + eigh + svd loop written out here: the filtered states, rates
and entropies, Wootters of the filtered states, and the local-filter identity
that gives the batch's concurrence. The same holds for stacked
element aggregation, and the search's pinned traces hold however its refine
stage batches trials. An exact search makes one Wootters call, on its base
state. The noisy search and the noisy CLI commands measure each kernel batch
in one tomography call.
"""

import contextlib
import dataclasses
import hashlib
import io
import re

import numpy as np
import pytest

from pdlsim import channels, cli, compensation, instrument, verify
from pdlsim.channels import (
    CANONICAL_AXIS,
    ChannelBatch,
    ExtinctionError,
    FilterStack,
    PdlElement,
    PmdElement,
    apply_local,
    axis_from_polar,
    concat_pdl,
    gamma_from_db,
    pdl_operator,
    pmd_dephase,
    propagate,
    unit_axis,
)
from pdlsim.cli import main
from pdlsim.compensation import SearchConfig, fibonacci_sphere, optimize_compensator
from pdlsim.instrument import DetectorModel, Rig, calibrate_source, simulate_counts
from pdlsim.qmath import (
    PAULI,
    SIGMA0,
    BellKind,
    bell_diagonal,
    bell_state,
    check_state,
    concurrence,
)
from pdlsim.theory import design_compensator

_YY = np.kron(PAULI[1], PAULI[1])


def random_axis(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_states(rng, n):
    """Bell-diagonal, PMD-dephased |phi+> and generic full-rank states, interleaved."""
    states = []
    for k in range(n):
        if k % 3 == 0:
            w = rng.dirichlet(np.ones(4))
            rho = sum(wi * bell_state(kind) for wi, kind in zip(w, BellKind))
        elif k % 3 == 1:
            el = PmdElement(rng.uniform(0, 0.5), random_axis(rng))
            rho = pmd_dephase(bell_state(BellKind.PHI_PLUS), el)
        else:
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            m = g @ g.conj().T
            rho = m / np.trace(m).real
        states.append(check_state(rho))
    return states


def random_draws(rng, n, gamma_max=2.0):
    """Raw magnitudes (n,) and unit-norm axes (n, 3), drawn element by element."""
    draws = [(float(rng.uniform(0, gamma_max)), random_axis(rng)) for _ in range(n)]
    return np.array([g for g, _ in draws]), np.array([a for _, a in draws]).reshape(-1, 3)


def random_elements(rng, n, gamma_max=2.0):
    return PdlElement(*random_draws(rng, n, gamma_max))


def loop_filter(element):
    g = element.gamma
    n_sigma = sum(a * s for a, s in zip(element.axis, PAULI))
    return np.exp(-g / 2) * (np.cosh(g / 2) * SIGMA0 + np.sinh(g / 2) * n_sigma)


def loop_wootters(rho):
    w, v = np.linalg.eigh(rho)
    w[w < 1e-12] = 0.0
    r = (v * np.sqrt(w)) @ v.conj().T  # sqrt(rho)
    s = np.linalg.svd(r @ _YY @ r.conj(), compute_uv=False)
    return max(0.0, s[0] - s[1] - s[2] - s[3])


def loop_abs_det(m):
    # one-element arrays: numpy's complex scalar product rounds unlike its array loop
    a, b, c, d = m.reshape(4, 1)
    return float(np.abs(a * d - b * c)[0])


def loop_channel(rho, m_a, m_b):
    """Filter, renormalize, Wootters, the identity's concurrence and qubit-A entropy, one state."""
    big = np.kron(m_a, m_b)
    filtered = big @ rho @ big.conj().T
    rate = float(np.trace(filtered).real)
    out = filtered / rate
    out = (out + out.conj().T) / 2
    identity = loop_abs_det(m_a) * loop_abs_det(m_b) * loop_wootters(rho) / rate
    q = np.trace(out.reshape(2, 2, 2, 2), axis1=1, axis2=3)
    return out, rate, loop_wootters(out), identity, 2.0 * (1.0 - np.trace(q @ q).real)


def same_bits(a, b):
    """Equal bytes, so signed zeros count too (np.array_equal treats -0.0 == 0.0)."""
    a, b = np.asarray(a, dtype=np.result_type(a, b)), np.asarray(b, dtype=np.result_type(a, b))
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_rows_match(batch, wootters, i, rho, rate, c, identity, s_a):
    """`wootters` is concurrence(batch.rho), one call over the whole stack."""
    assert same_bits(batch.rho[i], rho)
    assert same_bits(batch.rate[i], rate)
    assert same_bits(wootters[i], c)  # Wootters, the brute force
    assert same_bits(concurrence(batch.rho[i:i + 1])[0], c)
    assert same_bits(batch.concurrence[i], identity)
    assert same_bits(batch.entropy_a[i], s_a)


def test_filters_match_loop_and_one_row_case():
    rng = np.random.default_rng(101)
    gammas, axes = random_draws(rng, 60)
    raw = [*zip(gammas, axes), (0.0, CANONICAL_AXIS), (0, CANONICAL_AXIS)]
    stack = pdl_operator(PdlElement(np.array([g for g, _ in raw]), np.array([a for _, a in raw])))
    assert stack.shape == (len(raw), 2, 2)
    for (g, a), m in zip(raw, stack):
        el = PdlElement(g, a)
        assert same_bits(m, loop_filter(el))
        assert same_bits(pdl_operator(el), m)
    assert pdl_operator(PdlElement(np.empty(0), np.empty((0, 3)))).shape == (0, 2, 2)


def test_stack_rows_are_their_one_element_construction():
    rng = np.random.default_rng(127)
    gammas, _ = random_draws(rng, 300)
    # raw axes off unit length by up to 5e-10, inside the TOL slack
    axes = rng.normal(size=(300, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True) * (1 + rng.uniform(-5e-10, 5e-10, (300, 1)))
    stack = PdlElement(gammas, axes)
    assert stack.gamma.shape == (300,) and stack.axis.shape == (300, 3)
    for i in range(300):
        one = PdlElement(gammas[i], axes[i])
        assert same_bits(stack[i].gamma, one.gamma) and same_bits(stack[i].axis, one.axis)


def test_indexing_returns_rows_as_stored():
    raw = fibonacci_sphere(5000)
    stack = PdlElement(1.0, raw)
    # normalizing a row again moves some of them by an ulp, so a re-check would show
    assert any(not same_bits(unit_axis(a), a) for a in stack.axis)
    for i in range(len(raw)):
        row = stack[i]
        assert same_bits(row.axis, stack.axis[i]) and row.gamma == 1.0
        assert same_bits(row.axis, PdlElement(1.0, raw[i]).axis)
    assert same_bits(stack[10:20].axis, stack.axis[10:20])


def test_a_bad_element_anywhere_in_a_stack_raises_the_one_element_message():
    z = CANONICAL_AXIS
    cases = [
        (([0.1, -0.2, -0.3], z), (-0.2, z)),  # the first bad one
        (([0.1, np.nan], z), (np.nan, z)),
        (([[0.1], [np.inf]], z), (np.inf, z)),
        ((0.3, [z, [0, 0, 2.0], [0, 3.0, 0]]), (0.3, [0, 0, 2.0])),
        (([0.3, 0.4], [z, [np.nan, 0, 0]]), (0.4, [np.nan, 0, 0])),
    ]
    for stacked, one in cases:
        with pytest.raises(ValueError) as err:
            PdlElement(*one)
        with pytest.raises(ValueError, match=f"^{re.escape(str(err.value))}$"):
            PdlElement(*stacked)


def test_gamma_and_axis_broadcast():
    axes = fibonacci_sphere(6)
    assert PdlElement(0.5, axes).gamma.shape == (6,)
    assert PdlElement(np.full(4, 0.5), CANONICAL_AXIS).axis.shape == (4, 3)
    grid = PdlElement(np.array([[0.1], [0.2]]), axes)
    assert grid.gamma.shape == (2, 6) and grid.axis.shape == (2, 6, 3)
    assert pdl_operator(grid).shape == (2, 6, 2, 2)
    assert same_bits(pdl_operator(grid)[1, 4], pdl_operator(PdlElement(0.2, axes[4])))
    with pytest.raises(ValueError):
        PdlElement(np.zeros(4), axes)


def test_elements_are_stored_read_only_whether_or_not_they_broadcast():
    axes = fibonacci_sphere(6)
    gammas = np.linspace(0.1, 0.6, 6)
    stacks = [PdlElement(gammas, axes), PdlElement(0.5, axes), PdlElement(gammas, CANONICAL_AXIS),
              PdlElement(np.array([[0.1], [0.2]]), axes)]
    for stack in stacks:
        assert not stack.gamma.flags.writeable and not stack.axis.flags.writeable
        first = (0,) * stack.gamma.ndim
        row = stack[first]
        assert same_bits(row.gamma, stack.gamma[first]) and same_bits(row.axis, stack.axis[first])
    # shapes that agree are stored as checked, and the caller's array stays writeable
    stack = PdlElement(gammas, axes)
    assert gammas.flags.writeable and not np.shares_memory(stack.gamma, gammas)
    for i in range(6):
        assert same_bits(stack[i].gamma, stack.gamma[i]) and stack[i].gamma == gammas[i]
        assert np.shares_memory(stack[i].axis, stack.axis)
        assert same_bits(stack[i].axis, PdlElement(gammas[i], axes[i]).axis)
    one = PdlElement(0.5, CANONICAL_AXIS)
    assert type(one.gamma) is np.float64 and not one.axis.flags.writeable


def loop_concat(first, second):
    """Cascade aggregate of one pair: filter product, SVD, Stokes image of vh[0]."""
    _, sv, vh = np.linalg.svd(pdl_operator(second) @ pdl_operator(first))
    gamma_tot = float(np.log(sv[0] / sv[1]))
    if gamma_tot < 1e-12:
        return PdlElement(0.0)
    v = vh[0].conj()
    return PdlElement(gamma_tot, np.array([(v.conj() @ s @ v).real for s in PAULI]))


def test_concat_stack_matches_loop_and_one_row_case():
    rng = np.random.default_rng(113)
    (g1, a1), (g2, a2) = random_draws(rng, 2000), random_draws(rng, 2000)
    # lossless elements, one element twice, and one cancelled by its reverse
    g, a = g1[10], a1[10].copy()
    g1[:4], a1[:4] = [0.0, g, 0.0, g], [CANONICAL_AXIS, a, CANONICAL_AXIS, a]
    g2[1:4], a2[1:4] = [g, 0.0, g], [a, CANONICAL_AXIS, -a]
    aggs = concat_pdl(PdlElement(g1, a1), PdlElement(g2, a2))
    assert aggs.gamma.shape == (2000,) and aggs.gamma[3] == 0.0
    for i in range(2000):
        e1, e2 = PdlElement(g1[i], a1[i]), PdlElement(g2[i], a2[i])
        want = loop_concat(e1, e2)
        for got in (aggs[i], concat_pdl(e1, e2)):
            assert same_bits(got.gamma, want.gamma) and same_bits(got.axis, want.axis)
    # one element against a stack
    first = PdlElement(g1[5], a1[5])
    against = concat_pdl(first, PdlElement(g2[:200], a2[:200]))
    for i in range(200):
        want = loop_concat(first, PdlElement(g2[i], a2[i]))
        assert same_bits(against[i].gamma, want.gamma) and same_bits(against[i].axis, want.axis)
    empty = concat_pdl(*[PdlElement(np.empty(0), np.empty((0, 3)))] * 2)
    assert empty.gamma.shape == (0,) and empty.axis.shape == (0, 3)


@pytest.mark.parametrize("shared_base", [True, False])
def test_batch_matches_loop_and_one_row_calls(shared_base):
    # a shared base goes through one (4N, 4) @ (4, 4) product, so no row's
    # bits may depend on the stack size N
    rng = np.random.default_rng(103 + shared_base)
    n = 896
    states = random_states(rng, n)
    els_a, els_b = random_elements(rng, n), random_elements(rng, n)
    m_a, m_b = pdl_operator(els_a), pdl_operator(els_b)
    bases = [states[0]] * n if shared_base else states
    rows = []
    for i in range(n):
        rho, rate, c, identity, s_a = loop_channel(bases[i], loop_filter(els_a[i]),
                                                   loop_filter(els_b[i]))
        rows.append((rho, rate, c, identity, s_a))
        one = apply_local(bases[i], pdl_operator(els_a[i]), pdl_operator(els_b[i]))
        assert same_bits(one.rho, rho) and same_bits(one.rate, rate)
        assert same_bits(concurrence(one.rho), c) and same_bits(one.concurrence, identity)
        assert same_bits(one.entropy_a, s_a)
    for size in [*range(1, 18), 90, n]:
        batch = propagate(states[0] if shared_base else np.array(states[:size]),
                          m_a[:size], m_b[:size])
        assert isinstance(batch, ChannelBatch) and not batch.extinct.any()
        wootters = concurrence(batch.rho)
        for i in range(size):
            assert_rows_match(batch, wootters, i, *rows[i])


def test_single_filter_broadcasts_over_the_stack():
    rng = np.random.default_rng(107)
    base = bell_diagonal([0.925, -0.925, 1.0])
    el_a = PdlElement(0.6, random_axis(rng))
    els_b = random_elements(rng, 40)
    batch = propagate(base, pdl_operator(el_a)[None], pdl_operator(els_b))
    flipped = propagate(base, pdl_operator(els_b), SIGMA0[None])
    wootters, wootters_flipped = concurrence(batch.rho), concurrence(flipped.rho)
    for i in range(40):
        el_b = els_b[i]
        assert_rows_match(batch, wootters, i,
                          *loop_channel(base, loop_filter(el_a), loop_filter(el_b)))
        assert_rows_match(flipped, wootters_flipped, i,
                          *loop_channel(base, loop_filter(el_b), SIGMA0))


def test_extinct_rows_are_masked_in_a_batch():
    vv = np.kron(np.diag([0.0, 1.0]), np.diag([0.0, 1.0])).astype(complex)
    strong = np.diag([1.0, np.exp(-15.0)]).astype(complex)
    mild = np.diag([1.0, np.exp(-2.0)]).astype(complex)

    def passing(rate):  # arm-A filter that leaves |VV> at this rate
        return np.diag([1.0, np.sqrt(rate)]).astype(complex)

    m_a = np.array([SIGMA0, strong, passing(0.5e-12), passing(2e-12), SIGMA0])
    m_b = np.array([SIGMA0, strong, SIGMA0, SIGMA0, mild])
    batch = propagate(vv, m_a, m_b)
    assert batch.extinct.tolist() == [False, True, True, False, False]
    for i in (1, 2):
        assert not batch.rho[i].any()
        assert batch.concurrence[i] == 0.0 and batch.entropy_a[i] == 0.0
        with pytest.raises(ExtinctionError):
            ChannelBatch(batch.rho[i], batch.rate[i]).require_live()
    wootters = concurrence(batch.rho)
    for i in (0, 3, 4):
        assert_rows_match(batch, wootters, i, *loop_channel(vv, m_a[i], m_b[i]))
    with pytest.raises(ExtinctionError):
        apply_local(vv, strong, strong)
    # |phi+> has no HV component, so H on A and V on B pass nothing: rate 0 and
    # det 0, which the identity must not divide (warnings are errors here)
    h, v = np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)
    batch = propagate(bell_state(BellKind.PHI_PLUS), np.array([h, SIGMA0]), np.array([v, SIGMA0]))
    assert batch.rate[0] == 0.0 and batch.extinct.tolist() == [True, False]
    assert batch.concurrence[0] == 0.0 and batch.concurrence[1] == pytest.approx(1.0)


def random_rank_states(rng, n, rank):
    """n random states (n, 4, 4) of the given rank, from one complex Gaussian draw."""
    g = rng.normal(size=(n, 4, rank)) + 1j * rng.normal(size=(n, 4, rank))
    m = g @ np.swapaxes(g.conj(), -1, -2)
    return m / np.trace(m, axis1=-2, axis2=-1).real[:, None, None]


@pytest.mark.parametrize("rank", [1, 2, 4])
def test_identity_matches_wootters_on_random_states(rank):
    rng = np.random.default_rng(211 + rank)
    rhos = random_rank_states(rng, 500, rank)
    els_a, els_b = random_elements(rng, 500, 5.0), random_elements(rng, 500, 5.0)
    batch = propagate(rhos, pdl_operator(els_a), pdl_operator(els_b))
    assert not batch.extinct.any()
    assert np.abs(batch.concurrence - concurrence(batch.rho)).max() <= 1e-11


def test_wootters_matches_the_identity_on_random_filtered_states():
    # Wootters from the eigenvalues of rho rho~ is off by up to 1.7e-7 here
    rng = np.random.default_rng(7)
    rhos = random_rank_states(rng, 500, 4)
    el_a, el_b = (PdlElement(rng.uniform(0, 5, 500), [0.0, 0.0, 1.0]) for _ in range(2))
    batch = propagate(rhos, pdl_operator(el_a), pdl_operator(el_b))
    assert np.abs(concurrence(batch.rho) - batch.concurrence).max() <= 1e-11


def test_pdl_filter_dets_are_exp_minus_gamma():
    # |ad - bc| cancels terms near 1 down to e^-gamma: relative error ~ eps e^gamma
    rng = np.random.default_rng(223)
    gammas = np.concatenate([[0.0], rng.uniform(0, 20, 4000)])
    dets = channels._abs_dets(pdl_operator(PdlElement(gammas, fibonacci_sphere(4001))))
    rel = np.abs(dets / np.exp(-gammas) - 1)
    assert (rel <= 4 * np.finfo(float).eps * np.exp(gammas)).all()
    assert rel[gammas <= 5].max() <= 1e-13


def inflate_the_identity(monkeypatch, module):
    """Make `module`'s propagate give batches whose identity concurrence is 1.5 times the law."""

    def inflated(rho, m_a, m_b):
        batch = propagate(rho, m_a, m_b)
        return dataclasses.replace(batch, det_ab=1.5 * batch.det_ab)

    monkeypatch.setattr(module, "propagate", inflated)


def test_verify_suites_judge_wootters_not_the_identity(monkeypatch):
    want = [(r.name, r.max_err, r.cases) for r in verify.run_all()]
    inflate_the_identity(monkeypatch, verify)
    assert [(r.name, r.max_err, r.cases) for r in verify.run_all()] == want


@pytest.mark.parametrize("argv, what", [
    (("sweep-pdl",), "sweep"),
    (("compensate",), "uncompensated"),
    (("compensate", "--pmd-q", "0.155"), "uncompensated"),
    (("tradeoff",), "tradeoff"),
    (("entropy-feedback",), "entropy-feedback"),
])
def test_cli_law_checks_judge_wootters_and_the_written_identity_is_checked(tmp_path, argv, what,
                                                                          monkeypatch):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*argv, "--out", str(tmp_path / "exact")]) == 0
    inflate_the_identity(monkeypatch, cli)
    # the law checks read Wootters and pass; the inflated column then fails
    # its agreement with Wootters, and nothing is written
    with pytest.raises(RuntimeError, match=f"^{what} concurrence disagrees with Wootters"):
        main([*argv, "--out", str(tmp_path / "inflated")])
    assert not any((tmp_path / "inflated").iterdir())


def test_require_live_quotes_the_first_extinct_rate():
    rates = np.array([[0.5, 3e-13], [1e-13, 0.2]])
    stacked = ChannelBatch(np.zeros((2, 2, 4, 4), dtype=complex), rates)
    with pytest.raises(ExtinctionError, match=r"rate 3e-13$"):
        stacked.require_live()
    one = ChannelBatch(np.zeros((4, 4), dtype=complex), 4e-13)
    with pytest.raises(ExtinctionError, match=r"rate 4e-13$"):
        one.require_live()
    live = ChannelBatch(bell_state(BellKind.PHI_PLUS), 0.5)
    assert live.require_live() is live


def test_hand_built_batch_derives_extinct():
    rho = np.array([bell_state(BellKind.PHI_PLUS), np.zeros((4, 4), dtype=complex)])
    batch = ChannelBatch(rho, np.array([0.3, 0.5e-12]))
    assert batch.extinct.tolist() == [False, True]
    assert batch.concurrence[0] == pytest.approx(1.0) and batch.concurrence[1] == 0.0
    assert batch.entropy_a[0] == pytest.approx(1.0) and batch.entropy_a[1] == 0.0
    one = ChannelBatch(rho[0], 0.3)
    assert one.extinct.shape == () and not one.extinct
    assert one.concurrence == batch.concurrence[0]


@pytest.mark.parametrize("row", [0, 3, 6])
def test_amplifying_filter_anywhere_in_a_stack_raises(row):
    rng = np.random.default_rng(109)
    stack = pdl_operator(random_elements(rng, 7))
    stack[row] = stack[row] * 1.01
    rho = bell_state(BellKind.PHI_PLUS)
    with pytest.raises(ValueError, match="m_a is not trace-nonincreasing"):
        propagate(rho, stack, SIGMA0[None])
    with pytest.raises(ValueError, match="m_b is not trace-nonincreasing"):
        propagate(rho, SIGMA0[None], stack)


def test_filter_stack_is_checked_once_when_built(monkeypatch):
    rng = np.random.default_rng(139)
    m = pdl_operator(random_elements(rng, 7))
    stack = FilterStack(m, "m_a")
    assert not stack.m.flags.writeable and not np.shares_memory(stack.m, m) and m.flags.writeable
    assert same_bits(stack.m, m) and same_bits(stack.abs_det, channels._abs_dets(m))
    m[3] = m[3] * 1.01
    with pytest.raises(ValueError, match="^m_a is not trace-nonincreasing"):
        FilterStack(m, "m_a")
    for shape in [(2, 2), (1, 3, 2, 2), (4, 3, 3)]:
        with pytest.raises(ValueError, match=re.escape(f"m_b must be filters (N, 2, 2), got "
                                                       f"shape {shape}")):
            FilterStack(np.zeros(shape), "m_b")
    # propagate checks a bare stack and takes a built one as it is
    checked = []
    monkeypatch.setattr(channels, "_max_singular_values",
                        lambda m: checked.append(len(m)) or np.zeros(len(m)))
    propagate(bell_state(BellKind.PHI_PLUS), stack, SIGMA0[None])
    assert checked == [1]
    propagate(bell_state(BellKind.PHI_PLUS), stack, FilterStack(SIGMA0[None], "m_b"))
    assert checked == [1, 1]


def test_wrapped_stacks_give_the_bare_stacks_bits():
    rng = np.random.default_rng(149)
    m_a, m_b = pdl_operator(random_elements(rng, 50)), pdl_operator(random_elements(rng, 50))
    one = pdl_operator(PdlElement(0.7, random_axis(rng)))[None]
    for base in (random_states(rng, 1)[0], np.array(random_states(rng, 50))):
        for a, b in [(m_a, m_b), (one, m_b), (m_a, one)]:
            bare = propagate(base, a, b)
            a_wrapped, b_wrapped = FilterStack(a, "m_a"), FilterStack(b, "m_b")
            for wrapped in [(a_wrapped, b), (a, b_wrapped), (a_wrapped, b_wrapped)]:
                got = propagate(base, *wrapped)
                for name in ("rho", "rate", "det_ab", "concurrence", "entropy_a"):
                    assert same_bits(getattr(got, name), getattr(bare, name))


@pytest.mark.parametrize("m_a, m_b, base", [
    (SIGMA0, SIGMA0[None], (4, 4)),
    (np.stack([SIGMA0] * 3), np.stack([SIGMA0] * 2), (4, 4)),
    (np.stack([SIGMA0] * 3), SIGMA0[None], (2, 4, 4)),
    (SIGMA0[None], SIGMA0[None], (1, 1, 4, 4)),
    (SIGMA0[None], SIGMA0[None], (2, 2)),
], ids=["bare-filter", "stacks-of-3-and-2", "3-filters-2-bases", "4d-base", "2x2-base"])
def test_mismatched_shapes_raise_quoting_them(m_a, m_b, base):
    rho = np.broadcast_to(np.eye(base[-1]) / base[-1], base)
    if np.ndim(m_a) != 3:  # a filter's shape is FilterStack's to check
        want = f"m_a must be filters (N, 2, 2), got shape {np.shape(m_a)}"
    else:
        want = f"got m_a {np.shape(m_a)}, m_b {np.shape(m_b)}, base {base}"
    with pytest.raises(ValueError, match=re.escape(want)):
        propagate(rho, m_a, m_b)


def test_apply_local_refuses_a_filter_stack():
    stack = np.stack([SIGMA0] * 3)
    with pytest.raises(ValueError,
                       match=re.escape("m_a must be filters (N, 2, 2), got shape (1, 3, 2, 2)")):
        apply_local(bell_state(BellKind.PHI_PLUS), stack, SIGMA0)
    # a leading length of 1 is shared by every row
    batch = propagate(bell_state(BellKind.PHI_PLUS)[None], stack, SIGMA0[None])
    assert batch.rate.shape == (3,)


def max_singular_value_cases(rng):
    """Filter stacks (n, 2, 2): PDL filters near and at gamma = 0, cascades of two, random complex."""
    n = 2000
    stacks = [pdl_operator(PdlElement(np.full(n, g), random_draws(rng, n)[1]))
              for g in (0.0, 1e-12, 1e-8, 1e-6)]
    stacks.append(pdl_operator(random_elements(rng, n)) @ pdl_operator(random_elements(rng, n)))
    stacks.append(rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2)))
    return stacks


def test_closed_form_max_singular_value_matches_svd():
    for m in max_singular_value_cases(np.random.default_rng(113)):
        want = np.linalg.svd(m, compute_uv=False)[:, 0]
        assert np.abs(channels._max_singular_values(m) / want - 1).max() < 1e-14


def test_near_lossless_filters_pass_the_trace_check():
    # the two singular values nearly coincide; a cancelling closed form reads
    # sigma_max above 1 + 1e-9 here
    rng = np.random.default_rng(127)
    stack = pdl_operator(PdlElement(np.full(2000, 1e-8), random_draws(rng, 2000)[1]))
    batch = propagate(bell_state(BellKind.PHI_PLUS), stack, stack)
    assert batch.rate.shape == (2000,)


@pytest.mark.parametrize("row", [0, 1000, 1999])
def test_slightly_amplifying_filter_in_a_cascade_stack_raises(row):
    rng = np.random.default_rng(131)
    stack = pdl_operator(random_elements(rng, 2000)) @ pdl_operator(random_elements(rng, 2000))
    stack[row] = stack[row] / np.linalg.svd(stack[row], compute_uv=False)[0] * (1 + 1e-8)
    with pytest.raises(ValueError, match="m_a is not trace-nonincreasing"):
        propagate(bell_state(BellKind.PHI_PLUS), stack, SIGMA0[None])


# SHA-256 pins of search traces and CLI files, recorded from the scalar route
# before the kernel existed (numpy 2.4, OpenBLAS 0.3.31, x86-64). Another
# numeric stack may round differently and need fresh pins.
SEARCH_PINS = {
    # all five re-recorded when Wootters moved to the singular values of
    # sqrt(rho) (sy x sy) sqrt(rho)*: every element and rate held, and the
    # concurrences moved by at most 2.2e-16 (exact) and 3.1e-13 (noisy).
    # exact pins recorded from the local-filter identity's concurrences
    "pdl": "540013d7b5804ee8015c5d1e37c75e56e180211ae1c61b01d6c879ed460a88e7",
    "pmd": "d1c3b83c50b9ca75ac817c185188d7daacf0400cf4eea8060a65cac02d8a5266",
    # recorded from one sub-stream per measured state, batch-measured rows
    "noisy": "abc664f20ddd3a4b05742e572046bfeb3ee5afc7a2b8656ffa2a14be5a74cb76",
    "zero-pdl": "aef6d2ee6c8eab070df6991336490441cc08147f18216e0dbe4022640f312dd7",
    "grid": "d753ff3970dcf58a360bfdea59181baef05da8245aca93e1145f165edaf76bed",
}
CSV_PINS = {
    ("sweep-pdl",): {
        "sweep_pdl.csv": "ac208a94c8ca7f0052328153284667b99d86fdfb1d5e6b363d05979e53f1d884",
    },
    ("compensate", "--pmd-q", "0.155"): {
        "compensate.csv": "cb0018a122053b1823ee418e7da85f287deea2884cfe812d2950e2cfe54ab664",
    },
    ("tradeoff",): {
        "tradeoff.csv": "a81b1dd3d522fb19b79ed88f360f526987a3e0eb1894fbd8c21c99728aa9d56d",
    },
    ("entropy-feedback",): {
        "entropy_feedback.csv": "be3ca831622376133b5ea98a8356be73ff361437f54b1423f8434739fdbd2544",
        "entropy_feedback_reduced.csv":
            "1c9a207852056b92097f845f5752ea69ee0f590621388891b7374ab20eeeb2e5",
    },
    # recorded from the per-row concat_pdl loop
    ("compensate",): {
        "compensate.csv": "46c44f2c7256c21a000373fcc1fcc276da2e504c78aca49d74c15992636c3d02",
    },
    # noisy pins recorded from one sub-stream per measured state and the
    # precomputed pseudo-inverse
    ("sweep-pdl", "--noisy"): {
        "sweep_pdl.csv": "18ad8577807281e08637b3eebd88dd5df2f7e870a405d2061565ab50f037cd00",
    },
    ("b2b", "--noisy"): {
        "b2b_density_matrix.csv": "620b1c0110489e92fdb0183e3d4e06b2f4ba1bd214f6661677adfa4860409152",
        "b2b_metrics.txt": "9c1abfdb0ca0c67fc114f98b5b2645c54f83ca69f0ba22b2359dc2a2cc68c1d1",
    },
    # recorded before exact and measured rows shared one ChannelBatch reader
    ("b2b",): {
        "b2b_density_matrix.csv": "dc98f26780ef513daa50c0a036f57c118ae24135236da24b08dadc78e3df1452",
        "b2b_metrics.txt": "244ddcdcf689ce82cf17393f3bd26c7b692f9309642e4de69d6b184562c1d2f3",
    },
    ("compensate", "--noisy"): {
        "compensate.csv": "2f291caca6419e0cdf36de4ebed7c5f1efcad6cf2933791467ae546c4b7f065f",
    },
    ("tradeoff", "--noisy"): {
        "tradeoff.csv": "0fc4dd28a1c9a3df45c78b90d7c1029928492439935f418c804d987efc7e516c",
    },
    ("entropy-feedback", "--noisy"): {
        "entropy_feedback.csv": "328e62c268c1fa79227c030724f2c5ccb31670fd03bf02c738e898407853e757",
        "entropy_feedback_reduced.csv":
            "0825d11295672d8b8369f4d14ebaafe5238e7dc5915550eb40a3e5d18f2bfc94",
    },
}


def trace_sha256(result):
    h = hashlib.sha256()
    for r in result.evaluations:
        h.update(np.array([r.element.gamma, *r.element.axis, r.concurrence, r.rate,
                           r.linear_entropy_a]).tobytes())
    h.update(np.array([result.best.gamma, *result.best.axis, result.best_concurrence]).tobytes())
    return h.hexdigest()


def search_case(kind):
    """Arguments of optimize_compensator for each pinned search."""
    phi_plus = bell_state(BellKind.PHI_PLUS)
    src = PdlElement(np.log(1.38) / 2)
    if kind in ("pdl", "pmd"):
        theta, phi, pmd = (2.0, 0.7, None) if kind == "pdl" else (1.1, 2.5, PmdElement(0.155))
        agg = concat_pdl(src, PdlElement(gamma_from_db(5.1), axis_from_polar(theta, phi)))
        return agg, phi_plus, SearchConfig(sphere_points=64, refine_iters=20), pmd
    if kind == "noisy":
        agg = concat_pdl(src, PdlElement(gamma_from_db(2.55), axis_from_polar(1.3, 0.4)))
        rig = Rig(calibrate_source(0.925, 1.38), DetectorModel(), seed=0)
        cfg = SearchConfig(sphere_points=48, refine_iters=12, rig=rig)
        return agg, phi_plus, cfg, None
    if kind == "zero-pdl":
        return PdlElement(0.0), phi_plus, SearchConfig(sphere_points=32, refine_iters=5), None
    cfg = SearchConfig(sphere_points=40, gamma_grid=(0.2, 0.45, 0.5, 0.9), refine_iters=15)
    return PdlElement(0.45, np.array([0, 0.6, 0.8])), bell_state(BellKind.PSI_PLUS), cfg, None


@pytest.mark.parametrize("kind", list(SEARCH_PINS))
def test_search_trace_pinned(kind):
    res = optimize_compensator(*search_case(kind))
    assert trace_sha256(res) == SEARCH_PINS[kind]


# kernel calls per search when each refine batch held the rest of one sweep
CALLS_PER_SWEEP_BATCH = {"pdl": 38, "pmd": 33, "grid": 22}


@pytest.mark.parametrize("kind", list(CALLS_PER_SWEEP_BATCH))
def test_refine_calls_hold_the_lookahead_plan_up_to_the_first_improvement(kind, monkeypatch):
    filters = []

    def counting(rho, m_a, m_b):
        filters.append(m_b)
        return propagate(rho, m_a, m_b)

    monkeypatch.setattr(compensation, "propagate", counting)
    args = search_case(kind)
    res = optimize_compensator(*args)
    lattice, refine = len(filters[0]), res.evaluations[len(filters[0]):]
    # these searches stop at their sweep count, never at the step floor
    sweeps = args[2].refine_iters
    assert len(refine) == 6 * sweeps
    # a call plans the moves left in its sweep and REFINE_LOOKAHEAD more
    # sweeps, or up to the last sweep; its rows are recorded in order up to
    # the first improvement or to the end of the plan
    best = max(r.concurrence for r in res.evaluations[:lattice])
    pos, improving = 0, 0
    for m_b in filters[1:]:
        assert pos < len(refine)
        last_sweep = min(pos // 6 + compensation.REFINE_LOOKAHEAD, sweeps - 1)
        assert len(m_b) == 6 * (last_sweep + 1) - pos
        for i, m in enumerate(m_b):
            r = refine[pos + i]
            assert np.array_equal(m, pdl_operator(r.element))
            if r.concurrence > best:
                best, improving = r.concurrence, improving + 1
                break
        pos += i + 1
    assert pos == len(refine) and improving > 0
    assert len(filters) < CALLS_PER_SWEEP_BATCH[kind]


def test_default_search_makes_fewer_kernel_calls(monkeypatch):
    calls = []

    def counting(rho, m_a, m_b):
        calls.append(len(m_b))
        return propagate(rho, m_a, m_b)

    monkeypatch.setattr(compensation, "propagate", counting)
    agg, base, _, _ = search_case("pdl")
    optimize_compensator(agg, base, SearchConfig())
    # 51 calls when each refine batch held the rest of one sweep
    assert len(calls) < 51


def test_search_checks_its_arm_a_filter_once(monkeypatch):
    calls, checked = [], []
    max_singular_values = channels._max_singular_values

    def counting_propagate(rho, m_a, m_b):
        calls.append(len(m_b))
        return propagate(rho, m_a, m_b)

    def counting_check(m):
        checked.append(m.copy())
        return max_singular_values(m)

    monkeypatch.setattr(compensation, "propagate", counting_propagate)
    monkeypatch.setattr(channels, "_max_singular_values", counting_check)
    agg, base, _, _ = search_case("pdl")
    optimize_compensator(agg, base, SearchConfig())
    # each arm-B stack once, and the arm-A filter once, not once per kernel call
    assert len(calls) > 1 and len(checked) == len(calls) + 1
    assert sum(same_bits(m, pdl_operator(agg)[None]) for m in checked) == 1


@pytest.mark.parametrize("kind", ["default", "pdl", "pmd", "zero-pdl", "grid"])
def test_exact_search_calls_wootters_once(kind, monkeypatch):
    # the identity needs Wootters of the base state only, and every kernel
    # call of a search shares one base batch
    calls, rows = [], []

    def counting_propagate(rho, m_a, m_b):
        calls.append(len(m_b))
        return propagate(rho, m_a, m_b)

    def counting_concurrence(rho):
        rows.append(np.shape(rho))
        return concurrence(rho)

    monkeypatch.setattr(compensation, "propagate", counting_propagate)
    monkeypatch.setattr(channels, "concurrence", counting_concurrence)
    agg, base, cfg, pmd = search_case("pdl" if kind == "default" else kind)
    res = optimize_compensator(agg, base, SearchConfig() if kind == "default" else cfg, pmd)
    assert len(calls) > 1 and sum(calls) >= len(res.evaluations)
    assert rows == [(4, 4)]


def test_noisy_search_measures_once_per_kernel_call(monkeypatch):
    batches, measured = [], []

    def counting_propagate(rho, m_a, m_b):
        batches.append(propagate(rho, m_a, m_b))
        return batches[-1]

    def counting_counts(outcome, settings, *args, **kwargs):
        measured.append(len(outcome.rate))
        return simulate_counts(outcome, settings, *args, **kwargs)

    monkeypatch.setattr(compensation, "propagate", counting_propagate)
    monkeypatch.setattr(instrument, "simulate_counts", counting_counts)
    res = optimize_compensator(*search_case("noisy"))
    # replay the trace: the lattice call records every row, a refine call its
    # rows up to and including the first improvement
    best, k, live_recorded = -1.0, 0, []
    for n, batch in enumerate(batches):
        live = False
        for i in range(len(batch.rate)):
            c = res.evaluations[k].concurrence
            k += 1
            live |= not batch.extinct[i]
            improved, best = c > best, max(best, c)
            if improved and n > 0:
                break
        live_recorded.append(live)
    assert k == len(res.evaluations) and len(batches) > 1
    # one measurement per call with a live recorded row, covering its live rows
    assert measured == [int((~b.extinct).sum()) for b, live in zip(batches, live_recorded)
                        if live]


@pytest.mark.parametrize("argv", [("b2b",), ("sweep-pdl",), ("compensate",), ("tradeoff",),
                                  ("entropy-feedback",)])
def test_noisy_cli_measures_once_per_channel_batch(tmp_path, argv, monkeypatch):
    batches, measured = [], []

    def counting_propagate(rho, m_a, m_b):
        batches.append(propagate(rho, m_a, m_b))
        return batches[-1]

    def counting_counts(outcome, settings, *args, **kwargs):
        measured.append(np.shape(outcome.rate))
        return simulate_counts(outcome, settings, *args, **kwargs)

    monkeypatch.setattr(cli, "propagate", counting_propagate)
    monkeypatch.setattr(instrument, "simulate_counts", counting_counts)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*argv, "--noisy", "--out", str(tmp_path)]) == 0
    # b2b measures its one source state, as a one-row stack; the others each
    # channel batch (compensate: uncompensated and compensated) in one call
    assert len(batches) == {"b2b": 0, "compensate": 2}.get(argv[0], 1)
    assert measured == ([(1,)] if argv[0] == "b2b" else [b.rate.shape for b in batches])


@pytest.mark.parametrize("argv", [(), ("--noisy",), ("--pmd-q", "0.155"),
                                  ("--theta-count", "1"), ("--theta-list", "0.3,2.9", "--noisy")])
def test_compensate_designs_all_angles_in_one_call(tmp_path, argv, monkeypatch):
    rows = []

    def counting(element_a, t):
        rows.append(np.shape(element_a.gamma))
        return design_compensator(element_a, t)

    monkeypatch.setattr(cli, "design_compensator", counting)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["compensate", *argv, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "compensate.csv").read_text().splitlines()
    assert rows == [(len(lines) - 1,)]


def test_cli_parser_is_built_once_and_keeps_its_defaults(tmp_path):
    assert cli.build_parser() is cli.build_parser()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["sweep-pdl", "--pdl-db", "0.5,7", "--out", str(tmp_path / "explicit")]) == 0
        assert main(["sweep-pdl", "--out", str(tmp_path)]) == 0
    got = hashlib.sha256((tmp_path / "sweep_pdl.csv").read_bytes()).hexdigest()
    assert got == CSV_PINS[("sweep-pdl",)]["sweep_pdl.csv"]


@pytest.mark.parametrize("argv", list(CSV_PINS))
def test_cli_csv_pinned(tmp_path, argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*argv, "--out", str(tmp_path)]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert got == CSV_PINS[argv]
