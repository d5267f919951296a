"""Acceptance gate: eleven numbered criteria, one test and one report line each.

Run with `pytest tests/test_acceptance.py -v` for the pass/fail line per
criterion; add `-s` to see the measured-margin detail lines.
"""

import time

import numpy as np

from pdlsim.channels import (
    PdlElement,
    PmdElement,
    apply_local,
    axis_from_polar,
    concat_pdl,
    gamma_from_db,
    pdl_operator,
    pmd_dephase,
)
from pdlsim.cli import main as cli_main
from pdlsim.compensation import SearchConfig, optimize_compensator
from pdlsim.instrument import (
    SETTINGS_36,
    DetectorModel,
    Rig,
    calibrate_source,
    expected_coincidences,
    project_physical,
    reconstruct,
    simulate_counts,
    source_state,
)
from pdlsim.qmath import (
    BellKind,
    bell_state,
    bell_vector,
    concurrence,
    correlation_of,
    fidelity_to_pure,
    trace_distances,
)
from pdlsim.theory import design_compensator, equivalence_map
from pdlsim.verify import (
    equivalence_mapping,
    oracle_equivalence,
    orientation_independence,
    rate_conservation,
)

G51 = gamma_from_db(5.1)
GS = np.log(1.38) / 2


def report(n, detail):
    print(f"criterion {n:2d} PASS: {detail}")


def random_axis(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def test_criterion_01_concurrence_oracle_equivalence():
    t0 = time.perf_counter()
    r = oracle_equivalence(seed=20260822, cases=1000)
    elapsed = time.perf_counter() - t0
    assert r.cases == 1000
    assert r.max_err <= 1e-9
    assert elapsed < 10.0
    report(1, f"closed form vs brute-force Wootters, max err {r.max_err:.2e} over "
              f"{r.cases} cases in {elapsed:.2f}s")


def test_criterion_02_orientation_independence():
    r = orientation_independence(seed=202)
    assert r.cases == 500
    # spread over the orientations and distance of every value from
    # 0.925/cosh(g), at each of the five magnitudes
    assert r.max_err <= 1e-12
    # every value sits within 1e-5 of the printed decimals
    printed = {1.25: 0.915507, 2.55: 0.886527, 5.1: 0.785643, 6.3: 0.725617}
    for db, value in printed.items():
        assert abs(0.925 / np.cosh(gamma_from_db(db)) - value) <= 1e-5 - r.max_err
    report(2, f"five magnitudes x 100 orientations, spread and deviation from "
              f"0.925/cosh within {r.max_err:.2e}")


def test_criterion_03_equivalence_mapping():
    r = equivalence_mapping(seed=303)
    assert r.cases == 400
    assert r.max_err <= 1e-12
    rng = np.random.default_rng(303)
    for _ in range(100):
        el = PdlElement(rng.uniform(0, gamma_from_db(7.0)), random_axis(rng))
        mapped = equivalence_map(el, BellKind.PSI_MINUS.correlation)
        assert np.allclose(mapped.axis, -el.axis, atol=1e-12)
    report(3, f"both filtered matrices agree elementwise within {r.max_err:.2e} "
              f"(4 Bell states x 100 elements; singlet inverts all axes)")


def test_criterion_04_rate_concurrence_conservation():
    r = rate_conservation(seed=404)
    assert r.cases == 400
    # both |C' x rate - e^-(gA+gB) C| and the spread over three splits of
    # each case's total loss
    assert r.max_err <= 1e-9
    report(4, f"C' x rate = e^-(gA+gB) C and partition invariance within "
              f"{r.max_err:.2e} (400 cases x 3 splits)")


def test_criterion_05_compensation_protocol():
    src_el = PdlElement(GS)
    base = bell_state(BellKind.PHI_PLUS)
    scale = 0.925
    # designed compensator, full angle sweep
    worst = 0.0
    for th in np.linspace(0, np.pi, 25):
        em = PdlElement(G51, axis_from_polar(th))
        agg = concat_pdl(src_el, em)
        plan = design_compensator(agg, correlation_of(base))
        m_a = pdl_operator(em) @ pdl_operator(src_el)
        out = apply_local(base, m_a, pdl_operator(plan.element))
        worst = max(worst, abs(scale * concurrence(out.rho) - 0.925))
    assert worst <= 1e-9

    # optimizer at a representative misaligned angle
    em = PdlElement(G51, axis_from_polar(2.0))
    agg = concat_pdl(src_el, em)
    m_a = pdl_operator(em) @ pdl_operator(src_el)
    res = optimize_compensator(agg, base, SearchConfig(sphere_points=128))
    assert scale * res.best_concurrence >= 0.925 - 1e-3

    # tomography noise: mean restored concurrence over 20 seeds
    src = calibrate_source(0.925, 1.38)
    det = DetectorModel()
    measured, true_c = [], []
    for seed in range(20):
        cfg = SearchConfig(sphere_points=48, refine_iters=12,
                           rig=Rig(src, det, pulses=1_000_000, seed=seed))
        r = optimize_compensator(agg, base, cfg)
        measured.append(scale * r.best_concurrence)
        out = apply_local(base, m_a, pdl_operator(r.best))
        true_c.append(scale * concurrence(out.rho))
    dev_meas = abs(np.mean(measured) - 0.925)
    dev_true = abs(np.mean(true_c) - 0.925)
    assert dev_true <= 0.02
    assert dev_meas <= 0.02
    report(5, f"designed restores 0.925 within {worst:.2e}; optimizer within "
              f"{0.925 - scale * res.best_concurrence:.2e}; noisy 20-seed mean dev "
              f"true {dev_true:.4f} / measured {dev_meas:.4f} (tol 0.02)")


def test_criterion_06_compensation_under_pmd():
    chain = pmd_dephase(bell_state(BellKind.PHI_PLUS), PmdElement(0.155))
    t = correlation_of(chain)
    assert abs(concurrence(chain) - 0.69) < 1e-12

    # aligned: full restoration to the dephased baseline
    el_a = PdlElement(G51)
    plan = design_compensator(el_a, t)
    out = apply_local(chain, pdl_operator(el_a), pdl_operator(plan.element))
    dev_aligned = abs(concurrence(out.rho) - 0.69)
    assert dev_aligned <= 1e-3

    # misaligned x axis: capped at the m = 0.69 closed form
    el_x = PdlElement(G51, np.array([1.0, 0, 0]))
    cap = 0.69 / (np.cosh(G51) * np.sqrt(1 - 0.69**2 * np.tanh(G51) ** 2))
    plan_x = design_compensator(el_x, t)
    assert abs(plan_x.predicted_concurrence - cap) < 1e-12
    res = optimize_compensator(el_x, chain, SearchConfig(sphere_points=128))
    dev_cap = abs(res.best_concurrence - cap)
    assert dev_cap <= 1e-3
    report(6, f"aligned restores 0.69 within {dev_aligned:.2e}; misaligned caps at "
              f"{cap:.6f}, optimizer within {dev_cap:.2e}")


def test_criterion_07_tradeoff_envelope(tmp_path):
    assert cli_main(["tradeoff", "--out", str(tmp_path)]) == 0
    d = np.genfromtxt(tmp_path / "tradeoff.csv", delimiter=",", names=True)
    lo, hi = d[0], d[-1]
    assert abs(lo["kappa"] + 1) < 1e-12 and abs(hi["kappa"] - 1) < 1e-12
    devs = [
        abs(hi["concurrence_norm"] - 1 / np.cosh(2 * G51)),
        abs(lo["concurrence_norm"] - 1.0),
        abs(lo["rate_norm"] - np.exp(-2 * G51)),
        abs(hi["rate_norm"] - (1 + np.exp(-4 * G51)) / 2),
    ]
    assert max(devs) <= 1e-6
    # printed reference decimals (transcribed at lower precision)
    assert abs(hi["concurrence_norm"] - 0.564181) <= 5e-6
    assert abs(lo["rate_norm"] - 0.309031) <= 5e-6
    assert abs(hi["rate_norm"] - 0.547750) <= 5e-6
    assert d["concurrence_norm"].min() >= 1 / np.cosh(2 * G51) - 1e-9
    assert d["concurrence_norm"].max() <= 1.0 + 1e-9
    report(7, f"envelope endpoints at kappa = -/+1 within {max(devs):.2e} of "
              f"[0.564180, 1] and [0.309030, 0.547750]")


def test_criterion_08_source_calibration():
    out = source_state(calibrate_source(0.925, 1.38))
    ratio = out.rho[0, 0].real / out.rho[3, 3].real
    c = concurrence(out.rho)
    fid = fidelity_to_pure(out.rho, bell_vector(BellKind.PHI_PLUS))
    assert abs(ratio - 1.380) <= 0.005
    assert abs(c - 0.925) <= 1e-3
    assert abs(fid - 0.95) <= 0.02
    report(8, f"HH/VV {ratio:.4f} (1.380 +- 0.005), C {c:.4f} (0.925 +- 1e-3), "
              f"fidelity {fid:.4f} (0.95 +- 0.02)")


def test_criterion_09_aggregate_angle_range():
    aggs = [
        concat_pdl(PdlElement(GS), PdlElement(G51, axis_from_polar(th))).gamma_db
        for th in np.linspace(0, np.pi, 1001)
    ]
    lo, hi = min(aggs), max(aggs)
    assert 3.70 - 1e-9 <= lo and hi <= 6.50 + 1e-9
    assert lo < 4.1 and hi > 6.4  # strictly contains the measured interval
    report(9, f"1.4 dB + 5.1 dB aggregate spans [{lo:.4f}, {hi:.4f}] dB, inside "
              f"[3.70, 6.50] and strictly containing [4.1, 6.4]")


def test_criterion_10_tomography():
    t0 = time.perf_counter()
    src = calibrate_source(0.925, 1.38)
    quiet = DetectorModel(efficiency=0.20, dark_prob=0.0)
    out = source_state(src)
    # noiseless round trip, background free
    expect = expected_coincidences(out, SETTINGS_36, src, quiet, 10**6)
    rho = project_physical(reconstruct(expect, SETTINGS_36))
    worst_td = trace_distances(rho, out.rho)
    assert worst_td <= 1e-8

    # default noise, 100 seeds: the averaged reconstruction is unbiased
    det = DetectorModel()
    s36 = SETTINGS_36
    raws, per_seed = [], []
    for seed in range(100):
        counts = simulate_counts(out, s36, src, det, 1_000_000, seed=seed)
        raw = reconstruct(counts, s36)
        raws.append(raw)
        per_seed.append(concurrence(project_physical(raw)))
    pooled = concurrence(project_physical(np.mean(raws, axis=0)))
    dev_pooled = abs(pooled - concurrence(out.rho))
    dev_mean = abs(np.mean(per_seed) - concurrence(out.rho))
    elapsed = time.perf_counter() - t0
    assert dev_pooled <= 0.01
    assert dev_mean <= 0.02  # per-seed mean carries the projection clipping bias
    assert elapsed < 60.0
    report(10, f"noiseless roundtrip TD {worst_td:.2e}; 100-seed averaged "
               f"reconstruction dev {dev_pooled:.2e}, per-seed mean dev "
               f"{dev_mean:.4f}, in {elapsed:.1f}s")


def test_criterion_11_entropy_feedback(tmp_path):
    # default rig: 5.27 dB with PMD q = 0.155
    assert cli_main(["entropy-feedback", "--out", str(tmp_path)]) == 0
    d = np.genfromtxt(tmp_path / "entropy_feedback.csv", delimiter=",", names=True)
    s = d["s_linear_A"]
    assert int(s.argmax()) == int(d["concurrence"].argmax())
    assert s.min() <= 0.3 and s.max() >= 0.95
    # a second noiseless sweep without PMD agrees too
    d2dir = tmp_path / "nopmd"
    assert cli_main(
        ["entropy-feedback", "--out", str(d2dir), "--pdl-db", "5.1", "--pmd-q", "0"]
    ) == 0
    d2 = np.genfromtxt(d2dir / "entropy_feedback.csv", delimiter=",", names=True)
    assert int(d2["s_linear_A"].argmax()) == int(d2["concurrence"].argmax())
    report(11, f"entropy argmax = concurrence argmax on both sweeps; entropy "
               f"spans [{s.min():.3f}, {s.max():.3f}] covering [0.3, 0.95]")
