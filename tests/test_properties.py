"""Whole-domain properties of the closed forms, sampled by Hypothesis.

Magnitudes run over [0, 40] Np per arm (about 350 dB), far past the 7 dB
that `pdlsim verify` samples; kappa covers [-1, 1] with both endpoints, and
c0 covers [0, 1]. The draws are derandomized and use no example database, so
every run checks the same examples.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

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
