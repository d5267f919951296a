import re
from collections.abc import Sequence

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
    Trace,
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
    # a float count is refused, whole or not
    with pytest.raises(ValueError, match="n must be an integer >= 1, got 2.5"):
        fibonacci_sphere(2.5)
    with pytest.raises(ValueError, match="n must be an integer >= 1"):
        fibonacci_sphere(np.float64(3.0))
    assert fibonacci_sphere(np.int64(3)).shape == (3, 3)


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


def test_gamma_grid_must_be_a_nonempty_list():
    # a bare number and a nested list are refused naming the argument, not with a TypeError
    for grid, shape in ((0.5, ()), ([[0.1, 0.2]], (1, 2)), ((), (0,))):
        msg = f"gamma_grid must be a nonempty list of magnitudes, got shape {shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
            SearchConfig(gamma_grid=grid)
    with pytest.raises(ValueError, match=re.escape("gamma_grid must be finite and >= 0, got -0.2")):
        SearchConfig(gamma_grid=(0.1, -0.2))
    grid = SearchConfig(gamma_grid=np.array([0.2, 1])).gamma_grid
    assert grid == (0.2, 1.0) and all(type(g) is float for g in grid)


def test_a_bool_is_no_count():
    src, det = calibrate_source(0.925, 1.38), DetectorModel()
    for make, name in ((lambda v: Rig(src, det, pulses=v), "pulses"),
                       (lambda v: Rig(src, det, seed=v), "seed"),
                       (fibonacci_sphere, "n"),
                       (lambda v: SearchConfig(refine_iters=v), "refine_iters"),
                       (lambda v: SearchConfig(sphere_points=v), "sphere_points")):
        for flag in (True, False, np.True_):
            with pytest.raises(ValueError, match=f"^{name} must be an integer >= \\d+, got "):
                make(flag)
    assert Rig(src, det, pulses=1, seed=0).pulses == 1 and len(fibonacci_sphere(1)) == 1


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


def test_trace_is_a_read_only_sequence_of_rows():
    cfg = SearchConfig(sphere_points=32, refine_iters=3)
    res = optimize_compensator(PdlElement(0.3, np.array([0.6, 0.0, 0.8])),
                               bell_state(BellKind.PHI_PLUS), cfg)
    trace = res.evaluations
    n = len(trace)
    assert isinstance(trace, Sequence) and n > 7 * 32
    columns = (trace.gamma, trace.axis, trace.concurrence, trace.rate, trace.linear_entropy_a)
    assert [c.shape for c in columns] == [(n,), (n, 3), (n,), (n,), (n,)]
    for column in columns:
        assert not column.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 0.0
    # the element of the whole trace is the stack as stored
    assert trace.element.gamma is trace.gamma and trace.element.axis is trace.axis
    rows = list(trace)  # iteration ends at the last row
    assert len(rows) == n
    for i, row in enumerate(rows):
        assert isinstance(row, Trace)
        values = (row.gamma, row.concurrence, row.rate, row.linear_entropy_a)
        assert all(type(v) is np.float64 and isinstance(v, float) for v in values)
        assert values == (trace.gamma[i], trace.concurrence[i], trace.rate[i],
                          trace.linear_entropy_a[i])
        # the element is the stored row, not a checked and renormalized copy
        assert row.element.gamma == trace.gamma[i]
        assert np.shares_memory(row.element.axis, trace.axis)
        assert row.element.axis.tobytes() == trace.axis[i].tobytes()
    for i in (-1, -n, np.int64(3)):
        assert trace[i].gamma == rows[i].gamma
        assert trace[i].concurrence == rows[i].concurrence
    for i in (n, -n - 1, 1.0):
        with pytest.raises(IndexError):
            trace[i]
    part = trace[5:-3:2]
    assert isinstance(part, Trace) and len(part) == len(range(5, n - 3, 2))
    assert not part.concurrence.flags.writeable
    assert [r.concurrence for r in part] == [r.concurrence for r in rows[5:-3:2]]
    assert len(trace[n:]) == 0
    # the winner is the first maximum of the trace
    first = int(np.argmax(trace.concurrence))
    assert (trace.concurrence[:first] < res.best_concurrence).all()
    assert res.best_concurrence == trace.concurrence[first]
    assert res.best.gamma == trace.gamma[first]
    assert res.best.axis.tobytes() == trace.axis[first].tobytes()


@pytest.mark.parametrize("gamma", [[0.3, 0.4], [0.3]])
def test_search_refuses_a_stack_of_arm_a_elements(gamma):
    cfg = SearchConfig(sphere_points=32, refine_iters=0)
    shape = re.escape(str(np.shape(gamma)))
    with pytest.raises(ValueError, match=f"pdl_a must be one element, got a stack of shape {shape}"):
        optimize_compensator(PdlElement(gamma), bell_state(BellKind.PHI_PLUS), cfg)


def test_noisy_search_smoke():
    rig = Rig(calibrate_source(0.925, 1.38), DetectorModel(), pulses=1_000_000, seed=5)
    cfg = SearchConfig(sphere_points=32, refine_iters=4, rig=rig)
    res = optimize_compensator(PdlElement(G51), bell_state(BellKind.PHI_PLUS), cfg)
    # tomography noise at desk-scale counts: generous envelope around 1
    assert abs(res.best_concurrence - 1.0) < 0.08
    rerun = optimize_compensator(PdlElement(G51), bell_state(BellKind.PHI_PLUS), cfg)
    assert rerun.best_concurrence == res.best_concurrence
    assert np.array_equal(rerun.best.axis, res.best.axis)
