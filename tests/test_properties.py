"""Whole-domain properties of the closed forms, sampled by Hypothesis.

Magnitudes run over [0, 40] Np per arm (about 350 dB), far past the 7 dB
that `pdlsim verify` samples; kappa covers [-1, 1] with both endpoints, and
c0 covers [0, 1]. The compensator design keeps its C' finite and in [0, c0]
at every arm-A magnitude, on |phi+> and on a partially correlated state. The
compensator search's refine batches may look any number of sweeps ahead
without changing its trace. The draws are derandomized and use no example
database, so every run checks the same examples.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdlsim import compensation
from pdlsim.channels import PdlElement
from pdlsim.compensation import SearchConfig, optimize_compensator
from pdlsim.qmath import BellKind, bell_state
from pdlsim.theory import design_compensator, predicted_concurrence, predicted_rate

GAMMA = st.floats(0.0, 40.0)
KAPPA = st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-1.0, 1.0))
C0 = st.floats(0.0, 1.0)

PINNED = settings(derandomize=True, database=None, max_examples=200, deadline=None)

# The envelope is reached exactly at kappa = -/+1 and on a zero magnitude,
# where the law and the bound are two float routes to one value: they may
# differ by rounding (at most 2 eps in 200 000 random cases), and by the
# spacing of the subnormal doubles where the value underflows.
ROUNDING = 8 * np.finfo(float).eps
SUBNORMAL = np.finfo(float).smallest_subnormal


@PINNED
@given(c0=C0, g_a=GAMMA, g_b=GAMMA, kap=KAPPA)
def test_rate_times_concurrence_is_the_conserved_product(c0, g_a, g_b, kap):
    product = np.exp(-(g_a + g_b)) * c0
    got = predicted_concurrence(c0, g_a, g_b, kap) * predicted_rate(g_a, g_b, kap)
    assert abs(got - product) <= 1e-12 * product + 4 * SUBNORMAL


@PINNED
@given(c0=C0, g_a=GAMMA, g_b=GAMMA, kap=KAPPA)
def test_concurrence_stays_between_zero_and_its_baseline(c0, g_a, g_b, kap):
    assert 0.0 <= predicted_concurrence(c0, g_a, g_b, kap) <= c0


@PINNED
@given(c0=C0, g_a=GAMMA, g_b=GAMMA, kap=KAPPA)
def test_laws_stay_inside_the_orientation_envelope(c0, g_a, g_b, kap):
    # each law is bounded by itself at kappa = -/+1
    rate_min, rate_max = predicted_rate(g_a, g_b, [-1.0, 1.0])
    rate = predicted_rate(g_a, g_b, kap)
    assert rate_min * (1 - ROUNDING) <= rate <= rate_max * (1 + ROUNDING)
    c_min, c_max = predicted_concurrence(c0, g_a, g_b, [1.0, -1.0])
    c = predicted_concurrence(c0, g_a, g_b, kap)
    assert c_min * (1 - ROUNDING) - 4 * SUBNORMAL <= c <= c_max * (1 + ROUNDING) + 4 * SUBNORMAL


AXIS = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.dot(v, v) > 0.01)


@PINNED
@given(g_a=GAMMA, axis_a=AXIS, state=st.sampled_from([(BellKind.PHI_PLUS.correlation, 1.0),
                                                      ((0.69, -0.69, 1.0), 0.69)]))
def test_designed_compensator_obeys_both_laws(g_a, axis_a, state):
    t, c0 = state
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        plan = design_compensator(PdlElement(g_a, np.array(axis_a) / np.linalg.norm(axis_a)), t)
    c, rate = plan.predicted_concurrence, plan.predicted_rate
    assert np.isfinite(c) and 0.0 <= c <= c0
    product = np.exp(-(g_a + plan.element.gamma)) * c0
    assert abs(c * rate - product) <= 1e-12 * product


SEARCH_GAMMA = st.one_of(st.just(0.0), st.floats(0.0, 3.0))


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(
    gamma_a=SEARCH_GAMMA,
    axis_a=AXIS,
    weights=st.tuples(*[st.floats(0.0, 1.0)] * 4).filter(lambda w: sum(w) > 0.1),
    sphere_points=st.integers(32, 48),
    refine_iters=st.integers(0, 6),
    grid=st.one_of(st.none(), st.lists(SEARCH_GAMMA, min_size=1, max_size=4)),
)
def test_refine_lookahead_changes_only_the_batching(gamma_a, axis_a, weights, sphere_points,
                                                    refine_iters, grid):
    pdl_a = PdlElement(gamma_a, np.array(axis_a) / np.linalg.norm(axis_a))
    base = sum(w * bell_state(kind) for w, kind in zip(weights, BellKind)) / sum(weights)
    cfg = SearchConfig(sphere_points=sphere_points, refine_iters=refine_iters, gamma_grid=grid)
    traces = []
    for lookahead in (0, 1, 2, 50):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(compensation, "REFINE_LOOKAHEAD", lookahead)
            res = optimize_compensator(pdl_a, base, cfg)
        traces.append([(r.element.gamma, r.element.axis.tobytes(),
                        np.array([r.concurrence, r.rate, r.linear_entropy_a]).tobytes())
                       for r in res.evaluations])
    assert traces[1:] == traces[:1] * 3
