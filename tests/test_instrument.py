import dataclasses

import numpy as np
import pytest

from pdlsim import instrument
from pdlsim.channels import ChannelBatch, PdlElement
from pdlsim.instrument import (
    ANALYZERS,
    SETTINGS_36,
    DetectorModel,
    Rig,
    SourceModel,
    calibrate_source,
    derive_seed,
    expected_coincidences,
    measure,
    project_physical,
    reconstruct,
    simulate_counts,
    source_state,
)
from pdlsim.qmath import (
    PAULI,
    SIGMA0,
    BellKind,
    bell_state,
    bell_vector,
    concurrence,
    fidelity_to_pure,
    purity,
    trace_distances,
)


def exact_counts(outcome, settings, src, det, pulses):
    """Noise-free counts: each setting's expectation rounded to an integer."""
    return np.round(expected_coincidences(outcome, settings, src, det, pulses))


def random_state(rng):
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = g @ g.conj().T
    return m / np.trace(m).real


QUIET = DetectorModel(efficiency=0.20, dark_prob=0.0)


def test_derive_seed_deterministic_and_distinct():
    assert derive_seed(12345, "b2b", 0) == derive_seed(12345, "b2b", 0)
    seen = {derive_seed(12345, "b2b", i) for i in range(100)}
    assert len(seen) == 100
    assert derive_seed(12345, "x") != derive_seed(12345, "y")
    assert derive_seed(1, "x") != derive_seed(2, "x")
    assert all(0 <= derive_seed(9, i) < 2**64 for i in range(10))


def test_calibrate_source_frozen():
    src = calibrate_source(0.925, 1.38)
    assert abs(src.source_pdl.gamma - 0.1610417495845566) < 1e-15
    assert abs(src.werner_v - 0.9580137508217952) < 1e-15
    assert np.allclose(src.source_pdl.axis, [0, 0, 1])


def test_calibrate_source_ideal():
    src = calibrate_source(1.0, 1.0)
    assert src.werner_v == 1.0
    assert src.source_pdl.gamma == 0.0
    rho = source_state(src).rho
    assert trace_distances(rho, bell_state(BellKind.PHI_PLUS)) < 1e-12


def test_calibrate_source_errors():
    with pytest.raises(ValueError):
        calibrate_source(1.0, 1.38)  # v > 1, unreachable
    with pytest.raises(ValueError):
        calibrate_source(0.4, 1.38)
    with pytest.raises(ValueError):
        calibrate_source(0.925, 0.9)


def test_source_state_frozen_metrics():
    out = source_state(calibrate_source(0.925, 1.38))
    assert abs(concurrence(out.rho) - 0.925) < 1e-12
    assert abs(out.rho[0, 0].real / out.rho[3, 3].real - 1.38) < 1e-12
    assert abs(purity(out.rho) - 0.9388666934958378) < 1e-12
    assert abs(out.rate - 0.8623188405797102) < 1e-12
    assert abs(fidelity_to_pure(out.rho, bell_vector(BellKind.PHI_PLUS)) - 0.962365344210641) < 1e-12


def test_detector_model_validation():
    DetectorModel(efficiency=1.0, dark_prob=0.0)
    with pytest.raises(ValueError):
        DetectorModel(efficiency=0.0)
    with pytest.raises(ValueError):
        DetectorModel(efficiency=0.2, dark_prob=1.0)


def test_source_model_validation():
    with pytest.raises(ValueError):
        SourceModel(werner_v=0.2, source_pdl=PdlElement(0.0), mu=0.01)
    with pytest.raises(ValueError):
        SourceModel(werner_v=0.9, source_pdl=PdlElement(0.0), mu=0.5)


def test_analyzers():
    for a, b in (("H", "V"), ("D", "A"), ("R", "L")):
        assert abs(ANALYZERS[a].conj() @ ANALYZERS[b]) < 1e-12
        assert abs(np.linalg.norm(ANALYZERS[a]) - 1) < 1e-12
    assert np.allclose(ANALYZERS["H"], [1, 0])
    # right circular carries +1 on sigma_2
    r = ANALYZERS["R"]
    s2 = np.array([[0, -1j], [1j, 0]])
    assert abs((r.conj() @ s2 @ r).real - 1.0) < 1e-12


def test_settings_schedules():
    assert len(SETTINGS_36) == 36 and len(set(SETTINGS_36.labels)) == 36
    assert SETTINGS_36.kets.shape == (36, 4)
    assert SETTINGS_36.model.shape == (36, 16)


def test_projector_setting_validation():
    # every analyzer is a normalized, read-only Jones vector, and every
    # setting's ket is the product of its two arms' analyzers
    for vec in ANALYZERS.values():
        assert vec.shape == (2,) and abs(np.linalg.norm(vec) - 1) < 1e-12
        with pytest.raises(ValueError):
            vec[0] = 0.0
    for (a, b), ket in zip(SETTINGS_36.labels, SETTINGS_36.kets):
        assert np.array_equal(ket, np.kron(ANALYZERS[a], ANALYZERS[b]))
        assert abs(np.linalg.norm(ket) - 1) < 1e-12


def test_schedules_informationally_complete():
    assert np.linalg.matrix_rank(SETTINGS_36.model) == 16
    # the 36 settings tile into nine complete product bases
    groups = SETTINGS_36.groups
    assert np.bincount(groups).tolist() == [4] * 9
    for g in range(9):
        kets = SETTINGS_36.kets[groups == g]
        assert np.abs(kets.T @ kets.conj() - np.eye(4)).max() < 1e-12


def one_setting_counts(out, settings, k, src, det, pulses):
    """Setting k alone: the expected-count formula on a one-row schedule."""
    ket = settings.kets[k:k + 1]
    p_bright = np.einsum("ki,ij,kj->k", ket.conj(), out.rho, ket).real
    return (pulses * (src.mu * det.efficiency**2 * out.rate * p_bright + det.dark_prob**2))[0]


def test_expected_coincidences_frozen():
    src = calibrate_source(0.925, 1.38)
    det = DetectorModel()
    out = source_state(src)
    hh, vv = SETTINGS_36.labels.index("HH"), SETTINGS_36.labels.index("VV")
    n_hh, n_vv = expected_coincidences(out, SETTINGS_36, src, det, 1_000_000)[[hh, vv]]
    assert abs(n_hh - 195.80297508217956) < 1e-9
    assert abs(n_vv - 141.8866544073765) < 1e-9
    # dark floor included: dark_prob^2 * pulses = 1.6e-3
    assert abs(n_hh / n_vv - 1.38) < 1e-4
    assert abs(expected_coincidences(out, SETTINGS_36, src, det, 2_000_000)[hh] - 2 * n_hh) < 1e-9


def test_expected_coincidences_stack_matches_one_setting_calls():
    rng = np.random.default_rng(11)
    src = calibrate_source(0.925, 1.38)
    det = DetectorModel()
    for _ in range(5):
        out = ChannelBatch(rho=random_state(rng), rate=float(rng.uniform(0.1, 1.0)))
        stacked = expected_coincidences(out, SETTINGS_36, src, det, 1_000_000)
        assert stacked.shape == (36,)
        singles = [one_setting_counts(out, SETTINGS_36, k, src, det, 1_000_000)
                   for k in range(36)]
        assert np.array_equal(stacked, singles)


def test_simulate_counts_deterministic():
    src = calibrate_source(0.925, 1.38)
    det = DetectorModel()
    out = source_state(src)
    s36 = SETTINGS_36
    a = simulate_counts(out, s36, src, det, 1_000_000, seed=42)
    b = simulate_counts(out, s36, src, det, 1_000_000, seed=42)
    c = simulate_counts(out, s36, src, det, 1_000_000, seed=43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == (36,) and a.dtype.kind == "i" and (a >= 0).all()
    # the state draws all its counts, in schedule order, from one generator
    # seeded by its sub-seed
    expected = expected_coincidences(out, s36, src, det, 1_000_000)
    assert np.array_equal(a, np.random.default_rng(42).poisson(expected))
    # a stack takes one sub-seed per state
    stack = ChannelBatch(np.array([out.rho, out.rho]), np.array([out.rate, out.rate]))
    pair = simulate_counts(stack, s36, src, det, 1_000_000, seed=[42, 43])
    assert pair.shape == (2, 36) and pair.dtype == a.dtype
    assert np.array_equal(pair, [a, c])
    with pytest.raises(ValueError, match="one seed per state"):
        simulate_counts(stack, s36, src, det, 1_000_000, seed=42)
    # 64-bit sub-seeds stay exact; a float array, which rounds them, is refused
    big = [derive_seed(5, "row", i) for i in range(2)]
    assert np.array_equal(simulate_counts(stack, s36, src, det, 1_000_000, seed=big),
                          simulate_counts(stack, s36, src, det, 1_000_000,
                                          seed=np.array(big, dtype=np.uint64)))
    with pytest.raises(TypeError, match="integers"):
        simulate_counts(stack, s36, src, det, 1_000_000, seed=np.array(big, dtype=float))


def random_outcomes(rng, n):
    """A stack of n random states with random rates."""
    return ChannelBatch(rho=np.array([random_state(rng) for _ in range(n)]),
                        rate=rng.uniform(0.1, 1.0, n))


@pytest.mark.parametrize("settings", [SETTINGS_36], ids=["36"])
def test_stack_matches_one_row_calls(settings):
    rng = np.random.default_rng(29)
    src, det = calibrate_source(0.925, 1.38), DetectorModel()
    stack = random_outcomes(rng, 12)
    seeds = [derive_seed(5, "row", i) for i in range(12)]
    counts = simulate_counts(stack, settings, src, det, 10**5, seed=seeds)
    raw = reconstruct(counts, settings)
    exact = reconstruct(expected_coincidences(stack, settings, src, det, 10**5), settings)
    repaired = project_physical(raw)
    assert raw.shape == repaired.shape == (12, 4, 4)
    assert (np.linalg.eigvalsh(raw).min(axis=-1) < 0).any()  # the repair loop runs
    rig = Rig(src, det, 10**5, seed=5)
    measured = measure(stack, rig, "row", range(12)).rho
    for i in range(12):
        one = ChannelBatch(rho=stack.rho[i], rate=float(stack.rate[i]))
        one_counts = simulate_counts(one, settings, src, det, 10**5, seed=seeds[i])
        assert np.array_equal(counts[i], one_counts)
        assert np.array_equal(raw[i], reconstruct(one_counts, settings))
        assert np.array_equal(exact[i], reconstruct(
            expected_coincidences(one, settings, src, det, 10**5), settings))
        assert np.array_equal(repaired[i], project_physical(raw[i]))
        assert np.array_equal(measured[i], measure(one, rig, "row", i).rho)
    # a permuted stack gives the same rows, permuted
    perm = rng.permutation(12)
    shuffled = ChannelBatch(rho=stack.rho[perm], rate=stack.rate[perm])
    p_seeds = [seeds[i] for i in perm]
    p_counts = simulate_counts(shuffled, settings, src, det, 10**5, seed=p_seeds)
    assert np.array_equal(p_counts, counts[perm])
    assert np.array_equal(reconstruct(p_counts, settings), raw[perm])
    assert np.array_equal(project_physical(raw[perm]), repaired[perm])
    assert np.array_equal(measure(shuffled, rig, "row", perm).rho, measured[perm])


def test_measure_skips_extinct_rows(monkeypatch):
    rng = np.random.default_rng(41)
    src, det = calibrate_source(0.925, 1.38), DetectorModel()
    rates = np.array([0.6, 1e-13, 0.3, 0.0, 0.9])
    extinct = rates < 1e-12
    rho = np.array([np.zeros((4, 4), dtype=complex) if dead else random_state(rng)
                    for dead in extinct])
    batch = ChannelBatch(rho, rates)
    rig = Rig(src, det, 10**5, seed=7)
    seen = []

    def counting(states, *args, **kwargs):
        seen.append(states.rate.copy())
        return simulate_counts(states, *args, **kwargs)

    monkeypatch.setattr(instrument, "simulate_counts", counting)
    measured = measure(batch, rig, "row", range(len(rates)))
    assert len(seen) == 1 and np.array_equal(seen[0], rates[~extinct])
    assert measured.rate is batch.rate and measured.extinct.tolist() == extinct.tolist()
    assert not measured.rho[extinct].any()
    assert (measured.concurrence[extinct] == 0).all()
    for i in np.flatnonzero(~extinct):
        alone = measure(ChannelBatch(rho[i], rates[i]), rig, "row", i)
        assert alone.rho.shape == (4, 4)
        assert measured.rho[i].tobytes() == alone.rho.tobytes()
        assert measured.concurrence[i].tobytes() == alone.concurrence.tobytes()
    # a batch with no live row is not measured at all
    seen.clear()
    dead = measure(ChannelBatch(rho[extinct], rates[extinct]), rig, "row", [1, 3])
    assert seen == [] and not dead.rho.any()


def test_measure_derives_each_states_sub_seed(monkeypatch):
    rng = np.random.default_rng(43)
    rig = Rig(calibrate_source(0.925, 1.38), DetectorModel(), 10**5, seed=2**64 - 1)
    batch = random_outcomes(rng, 3)
    seen = []

    def recording(states, *args, seed, **kwargs):
        seen.append(seed)
        return simulate_counts(states, *args, seed=seed, **kwargs)

    monkeypatch.setattr(instrument, "simulate_counts", recording)
    measure(batch, rig, "cand", range(4, 7))
    measure(ChannelBatch(batch.rho[0], batch.rate[0]), rig, "b2b", 0)
    assert seen == [[derive_seed(2**64 - 1, "cand", k) for k in (4, 5, 6)],
                    [derive_seed(2**64 - 1, "b2b", 0)]]
    for indices in (range(2), 0, [[0, 1, 2]]):
        with pytest.raises(ValueError, match="one index per state"):
            measure(batch, rig, "cand", indices)


def test_measure_without_a_rig_returns_the_batch(monkeypatch):
    batch = random_outcomes(np.random.default_rng(47), 3)
    monkeypatch.setattr(instrument, "simulate_counts", None)  # any draw would fail
    assert measure(batch, None, "x", range(3)) is batch
    # no rig means exact before the indices are looked at
    assert measure(batch, None, "x", 0) is batch


def test_rig_validation():
    src, det = calibrate_source(0.925, 1.38), DetectorModel()
    assert Rig(src, det).pulses == 1_000_000 and Rig(src, det).seed == 0
    for pulses in (0, -5):
        with pytest.raises(ValueError, match=f"pulses must be >= 1, got {pulses}"):
            Rig(src, det, pulses=pulses)


def test_stack_checks_every_row():
    counts = np.full((3, 36), 100.0)
    reconstruct(counts, SETTINGS_36)
    for bad, match in ((-1.0, "nonnegative"), (np.inf, "finite")):
        broken = counts.copy()
        broken[2, 5] = bad
        with pytest.raises(ValueError, match=match):
            reconstruct(broken, SETTINGS_36)
    broken = counts.copy()
    broken[1] = 0.0
    with pytest.raises(ValueError, match="all counts are zero"):
        reconstruct(broken, SETTINGS_36)
    states = np.array([bell_state(BellKind.PHI_PLUS)] * 3)
    states[1] = states[1] * 1.1
    with pytest.raises(ValueError, match="is not 1"):
        project_physical(states)


def test_simulate_counts_poisson_mean():
    src = calibrate_source(0.925, 1.38)
    det = DetectorModel()
    out = source_state(src)
    s36 = SETTINGS_36
    totals = np.zeros(36)
    n_rep = 200
    for k in range(n_rep):
        totals += simulate_counts(out, s36, src, det, 1_000_000, seed=k)
    expect = expected_coincidences(out, s36, src, det, 1_000_000)
    # relative agreement ~ 5 sigma / sqrt(n_rep * N)
    assert np.abs(totals / n_rep - expect).max() < 5 * np.sqrt(expect.max() / n_rep)


def test_reconstruct_rejects_negative_count():
    s36 = SETTINGS_36
    counts = np.full(36, 100.0)
    reconstruct(counts, s36)
    counts[5] = -1.0
    with pytest.raises(ValueError, match="nonnegative"):
        reconstruct(counts, s36)


def test_reconstruct_roundtrip_exact():
    src = calibrate_source(0.925, 1.38)
    out = source_state(src)
    counts = exact_counts(out, SETTINGS_36, src, QUIET, 10**10)
    rho = project_physical(reconstruct(counts, SETTINGS_36))
    assert trace_distances(rho, out.rho) < 1e-6  # rounding-limited at 1e10 pulses


def test_reconstruct_roundtrip_random_states():
    rng = np.random.default_rng(73)
    src = calibrate_source(0.925, 1.38)
    for _ in range(10):
        rho = random_state(rng)
        outcome = ChannelBatch(rho=rho, rate=1.0)
        expect = expected_coincidences(outcome, SETTINGS_36, src, QUIET, 1_000_000)
        recon = reconstruct(expect, SETTINGS_36)  # real, non-integer counts accepted
        assert trace_distances(recon, rho) < 1e-8


def test_reconstruct_fits_a_row_with_an_empty_basis_group_on_raw_counts():
    src = calibrate_source(0.925, 1.38)
    out = source_state(src)
    groups = SETTINGS_36.groups
    assert [SETTINGS_36.labels[k] for k in np.flatnonzero(groups == 0)] == ["HH", "HV", "VH", "VV"]
    full = simulate_counts(out, SETTINGS_36, src, DetectorModel(), 10**6, seed=3)
    counts = np.array([full, np.where(groups == 0, 0, full)])
    rows = reconstruct(counts, SETTINGS_36)
    assert rows.shape == (2, 4, 4)
    assert abs(np.trace(rows[1]) - 1) < 1e-12
    for row, c in zip(rows, counts):
        assert np.array_equal(row, reconstruct(c, SETTINGS_36))
    # least squares on the counts as they are, scale left to the fit
    basis = np.array([np.kron(a, b) for a in (SIGMA0, *PAULI) for b in (SIGMA0, *PAULI)])

    def raw_fit(c):
        op = np.tensordot(SETTINGS_36.pinv @ c, basis, axes=1)
        return op / np.trace(op).real

    # row 1 takes the raw-count fit; row 0, every group filled, is normalized by group
    assert np.abs(rows[1] - raw_fit(counts[1])).max() < 1e-12
    assert np.abs(rows[0] - raw_fit(counts[0])).max() > 1e-4


def test_reconstruct_accepts_ndarray_counts():
    src = calibrate_source(0.925, 1.38)
    s36 = SETTINGS_36
    counts = simulate_counts(source_state(src), s36, src, DetectorModel(), 10**6, seed=17)
    as_list = reconstruct([int(n) for n in counts], s36)
    as_array = reconstruct(counts, s36)
    assert np.array_equal(as_array, as_list)
    with pytest.raises(ValueError):
        reconstruct(np.array([]), s36)


def test_settings_built_once():
    # a module constant, frozen, with read-only arrays
    with pytest.raises(dataclasses.FrozenInstanceError):
        SETTINGS_36.kets = SETTINGS_36.kets.copy()
    for arr in (SETTINGS_36.kets, SETTINGS_36.model):
        with pytest.raises(ValueError):
            arr[0, 0] = 0.0
    with pytest.raises(ValueError):
        SETTINGS_36.groups[0] = 1


def test_reconstruct_errors():
    s36 = SETTINGS_36
    with pytest.raises(ValueError):
        reconstruct([0.0] * 36, s36)
    with pytest.raises(ValueError):
        reconstruct([1.0] * 10, s36)  # wrong length
    with pytest.raises(ValueError, match="finite"):
        reconstruct([np.nan] + [1.0] * 35, s36)


def test_project_physical():
    rho = bell_state(BellKind.PHI_PLUS)
    assert trace_distances(project_physical(rho), rho) < 1e-12
    # small negative eigenvalue gets clipped, deficit redistributed
    bad = np.diag([0.6, 0.3, 0.15, -0.05]).astype(complex)
    fixed = project_physical(bad)
    vals = np.linalg.eigvalsh(fixed)
    assert vals.min() >= -1e-12
    assert abs(np.trace(fixed).real - 1) < 1e-12
    assert np.allclose(np.diag(fixed).real[:3], [0.6 - 0.05 / 3, 0.3 - 0.05 / 3, 0.15 - 0.05 / 3])
    # idempotent
    assert trace_distances(project_physical(fixed), fixed) < 1e-12
    with pytest.raises(ValueError):
        project_physical(np.eye(4, dtype=complex))


def test_noisy_reconstruction_sanity():
    src = calibrate_source(0.925, 1.38)
    det = DetectorModel()
    out = source_state(src)
    s36 = SETTINGS_36
    counts = simulate_counts(out, s36, src, det, 1_000_000, seed=2026)
    rho = project_physical(reconstruct(counts, s36))
    assert trace_distances(rho, out.rho) < 0.1
    assert abs(concurrence(rho) - 0.925) < 0.06
