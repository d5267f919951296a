"""Whole-domain properties of the closed forms, sampled by Hypothesis.

Magnitudes run over [0, 40] Np per arm (about 350 dB), far past the 7 dB
that `pdlsim verify` samples; kappa covers [-1, 1] with both endpoints, and
c0 covers [0, 1]. The compensator search's refine batches may look any number
of sweeps ahead without changing its trace. The draws are derandomized and use
no example database, so every run checks the same examples.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdlsim import compensation
from pdlsim.channels import PdlElement
from pdlsim.compensation import SearchConfig, optimize_compensator
from pdlsim.qmath import BellKind, bell_state
from pdlsim.theory import predicted_concurrence, predicted_rate, rate_bounds

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
    bounds = rate_bounds(g_a, g_b)
    rate = predicted_rate(g_a, g_b, kap)
    assert bounds.rate_at_kappa_minus1 * (1 - ROUNDING) <= rate
    assert rate <= bounds.rate_at_kappa_plus1 * (1 + ROUNDING)
    # C'/c0 >= c_min, multiplied through by c0 >= 0
    c_floor = c0 * bounds.c_min * (1 - ROUNDING) - 4 * SUBNORMAL
    assert predicted_concurrence(c0, g_a, g_b, kap) >= c_floor


SEARCH_GAMMA = st.one_of(st.just(0.0), st.floats(0.0, 3.0))


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(
    gamma_a=SEARCH_GAMMA,
    axis_a=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.dot(v, v) > 0.01),
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
