import numpy as np
import pytest

from pdlsim.channels import (
    ChannelBatch,
    PdlElement,
    PmdElement,
    apply_local,
    gamma_from_db,
    pdl_operator,
)
from pdlsim.compensation import (
    SearchConfig,
    fibonacci_sphere,
    optimize_compensator,
)
from pdlsim.instrument import DetectorModel, Rig, calibrate_source
from pdlsim.qmath import (
    SIGMA0,
    BellKind,
    bell_diagonal,
    bell_state,
    concurrence,
)
from pdlsim.theory import design_compensator

G51 = 0.5871591987134815


def spearman(x, y):
    rx = np.argsort(np.argsort(x))
    ry = np.argsort(np.argsort(y))
    return np.corrcoef(rx, ry)[0, 1]


def test_fibonacci_sphere():
    for n in (32, 64, 128):
        pts = fibonacci_sphere(n)
        assert pts.shape == (n, 3)
        assert np.abs(np.linalg.norm(pts, axis=1) - 1).max() < 1e-12
        # near-uniform: no two points closer than a third of the mean spacing
        d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
        d2[np.diag_indices(n)] = np.inf
        assert np.sqrt(d2.min()) > np.sqrt(4 * np.pi / n) / 3
    with pytest.raises(ValueError):
        fibonacci_sphere(0)


def test_entropy_feedback_limits():
    assert abs(ChannelBatch(bell_state(BellKind.PHI_PLUS), 1.0).entropy_a - 1.0) < 1e-12
    product = np.kron(np.diag([1.0, 0.0]), np.diag([0.5, 0.5])).astype(complex)
    assert abs(ChannelBatch(product, 1.0).entropy_a) < 1e-12


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(sphere_points=16)
    with pytest.raises(ValueError):
        SearchConfig(refine_iters=-1)
    with pytest.raises(ValueError):
        SearchConfig(gamma_grid=(0.1, -0.2))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="gamma_grid"):
            SearchConfig(gamma_grid=(0.1, bad))
    # a float count is refused, not rounded up by np.arange or range
    with pytest.raises(ValueError, match="sphere_points"):
        SearchConfig(sphere_points=40.5)
    with pytest.raises(ValueError, match="refine_iters"):
        SearchConfig(refine_iters=2.5)
    cfg = SearchConfig(sphere_points=np.int64(40), refine_iters=np.int32(2))
    assert (cfg.sphere_points, cfg.refine_iters) == (40, 2)


def test_optimizer_bell_recovers_designed_element():
    cfg = SearchConfig(sphere_points=128, refine_iters=40)
    res = optimize_compensator(PdlElement(G51), bell_state(BellKind.PHI_PLUS), cfg)
    assert res.best_concurrence > 1 - 1e-9
    assert np.allclose(res.best.axis, [0, 0, -1.0], atol=1e-4)
    assert abs(res.best.gamma - G51) < 1e-4
    assert len(res.evaluations) > 128


def test_optimizer_deterministic():
    cfg = SearchConfig(sphere_points=64, refine_iters=10)
    a = optimize_compensator(PdlElement(0.4), bell_state(BellKind.PHI_MINUS), cfg)
    b = optimize_compensator(PdlElement(0.4), bell_state(BellKind.PHI_MINUS), cfg)
    assert a.best_concurrence == b.best_concurrence
    assert np.array_equal(a.best.axis, b.best.axis) and a.best.gamma == b.best.gamma
    assert len(a.evaluations) == len(b.evaluations)


def test_optimizer_zero_pdl():
    cfg = SearchConfig(sphere_points=32, refine_iters=5)
    res = optimize_compensator(PdlElement(0.0), bell_state(BellKind.PHI_PLUS), cfg)
    assert res.best_concurrence > 1 - 1e-9
    assert res.best.gamma < 1e-6


def test_optimizer_matches_closed_form_rank_two():
    t = (0.8, -0.8, 1.0)
    el_a = PdlElement(0.5, np.array([0.6, 0.0, 0.8]))
    plan = design_compensator(el_a, np.array(t))
    cfg = SearchConfig(sphere_points=128, refine_iters=30)
    res = optimize_compensator(el_a, bell_diagonal(t), cfg)
    assert abs(res.best_concurrence - plan.predicted_concurrence) < 1e-3
    # the searched optimum never beats the closed form
    assert res.best_concurrence <= plan.predicted_concurrence + 1e-9


def test_optimizer_pmd_aligned():
    # dephased Phi+ keeps m = 1 for z-aligned PDL: full restoration to 1 - 2q
    cfg = SearchConfig(sphere_points=64, refine_iters=20)
    res = optimize_compensator(
        PdlElement(G51), bell_state(BellKind.PHI_PLUS), cfg, pmd_a=PmdElement(0.155)
    )
    assert abs(res.best_concurrence - 0.69) < 1e-6


def test_optimizer_pmd_misaligned_cap():
    # PDL along x against correlation (0.69, -0.69, 1): m = 0.69 cap
    cfg = SearchConfig(sphere_points=128, refine_iters=40)
    res = optimize_compensator(
        PdlElement(G51, np.array([1.0, 0, 0])),
        bell_state(BellKind.PHI_PLUS),
        cfg,
        pmd_a=PmdElement(0.155),
    )
    assert abs(res.best_concurrence - 0.6292645803284861) < 1e-6
    assert res.best_concurrence <= 0.6292645803284861 + 1e-9


def test_trace_rate_accounting():
    """Every noiseless evaluation satisfies C * rate = e^{-(gA+gB)} c0."""
    el_a = PdlElement(0.45, np.array([0, 0.6, 0.8]))
    cfg = SearchConfig(sphere_points=32, refine_iters=4)
    res = optimize_compensator(el_a, bell_state(BellKind.PSI_PLUS), cfg)
    for rec in res.evaluations:
        expect = np.exp(-(el_a.gamma + rec.element.gamma))
        assert abs(rec.concurrence * rec.rate - expect) < 1e-9


def test_entropy_tracks_concurrence():
    """Spearman >= 0.99 across a fixed-magnitude orientation sweep."""
    rho = bell_state(BellKind.PHI_PLUS)
    el_a = PdlElement(G51)
    m_a = pdl_operator(el_a)
    cs, ents = [], []
    for ax in fibonacci_sphere(200):
        out = apply_local(rho, m_a, pdl_operator(PdlElement(G51, ax)))
        cs.append(concurrence(out.rho))
        ents.append(out.entropy_a)
    assert spearman(np.array(ents), np.array(cs)) >= 0.99
    assert int(np.argmax(ents)) == int(np.argmax(cs))


def test_entropy_recorded_along_trace():
    cfg = SearchConfig(sphere_points=32, refine_iters=2)
    res = optimize_compensator(PdlElement(0.3), bell_state(BellKind.PHI_PLUS), cfg)
    best_rec = max(res.evaluations, key=lambda r: r.concurrence)
    assert abs(best_rec.concurrence - res.best_concurrence) < 1e-15
    # restored state has a near maximally mixed arm-A marginal
    assert best_rec.linear_entropy_a > 0.99


def test_noisy_search_smoke():
    rig = Rig(calibrate_source(0.925, 1.38), DetectorModel(), pulses=1_000_000, seed=5)
    cfg = SearchConfig(sphere_points=32, refine_iters=4, rig=rig)
    res = optimize_compensator(PdlElement(G51), bell_state(BellKind.PHI_PLUS), cfg)
    # tomography noise at desk-scale counts: generous envelope around 1
    assert abs(res.best_concurrence - 1.0) < 0.08
    rerun = optimize_compensator(PdlElement(G51), bell_state(BellKind.PHI_PLUS), cfg)
    assert rerun.best_concurrence == res.best_concurrence
    assert np.array_equal(rerun.best.axis, res.best.axis)
