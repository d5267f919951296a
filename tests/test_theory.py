"""Closed-form law checks, each against an independent brute-force route."""

import warnings

import numpy as np
import pytest

from pdlsim.channels import (
    PdlElement,
    apply_local,
    gamma_from_db,
    pdl_operator,
)
from pdlsim.qmath import (
    SIGMA0,
    BellKind,
    bell_diagonal,
    bell_state,
    concurrence,
)
from pdlsim.theory import (
    average_entanglement,
    design_compensator,
    equivalence_map,
    estimate_gamma_from_concurrence,
    kappa,
    predicted_concurrence,
    predicted_rate,
    rate_bounds,
)

G51 = 0.5871591987134815  # gamma_from_db(5.1)


def random_axis(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_bd(rng):
    w = rng.dirichlet(np.ones(4))
    t = np.array(
        [
            w[0] - w[1] + w[2] - w[3],
            -w[0] + w[1] + w[2] - w[3],
            w[0] + w[1] - w[2] - w[3],
        ]
    )
    return t, max(0.0, 2 * w.max() - 1)


def brute_force(t, el_a, el_b):
    """Filtered state and rate from direct density-matrix propagation."""
    out = apply_local(bell_diagonal(t), pdl_operator(el_a), pdl_operator(el_b))
    return concurrence(out.rho), out.rate


def test_kappa_values():
    t = (1, -1, 1)
    z = np.array([0, 0, 1.0])
    x = np.array([1.0, 0, 0])
    assert kappa(t, z, z) == 1.0
    assert kappa(t, z, -z) == -1.0
    assert kappa(t, x, x) == 1.0
    assert kappa((-1, -1, -1), z, z) == -1.0
    with pytest.raises(ValueError):
        kappa((1.5, 0, 0), z, z)


def test_predicted_concurrence_single_element_frozen():
    """One element on one arm: C = c0 / cosh(gamma), any orientation."""
    expect = {
        1.25: 0.9155033428147978,
        2.55: 0.886520656271768,
        3.7: 0.8469850481330736,
        5.1: 0.7856376361039619,
        6.3: 0.7256175281836508,
    }
    for db, c in expect.items():
        got = predicted_concurrence(0.925, gamma_from_db(db), 0.0, 0.5)
        assert abs(got - c) < 1e-12
        # kappa is irrelevant when one magnitude is zero
        assert abs(predicted_concurrence(0.925, gamma_from_db(db), 0.0, -1.0) - c) < 1e-12


def test_predicted_concurrence_validation():
    with pytest.raises(ValueError):
        predicted_concurrence(1.2, 0.1, 0.1, 0.0)
    with pytest.raises(ValueError):
        predicted_concurrence(0.9, -0.1, 0.1, 0.0)
    with pytest.raises(ValueError):
        predicted_concurrence(0.9, 0.1, 0.1, 1.5)


def test_closed_forms_where_cosh_products_overflow_or_cancel():
    assert abs(predicted_rate(360, 360, 0.3) - 0.325) < 1e-15
    assert abs(predicted_rate(400, 400, 0.3) - 0.325) < 1e-15
    # kappa = -1: the denominator cosh gA cosh gB - sinh gA sinh gB is cosh(gA - gB)
    assert predicted_concurrence(1, 30, 30, -1) == 1.0
    assert abs(predicted_rate(30, 30, -1) / np.exp(-60) - 1) < 1e-15
    assert predicted_concurrence(0.9, 400, 400, -1) == 0.9
    assert abs(predicted_concurrence(0.9, 400, 401, -1) - 0.9 / np.cosh(1.0)) < 1e-15


def test_closed_forms_finite_and_exact_across_the_domain():
    """gamma up to 700 Np per arm, kappa over [-1, 1], no warning raised."""
    rng = np.random.default_rng(61)
    gammas = np.concatenate([
        [0.0, 1e-300, 1e-8, 0.1, 1.0, 5.0, 30.0, 354.0, 355.0, 360.0, 400.0, 700.0],
        rng.uniform(0, 700, 10),
    ])
    kappas = np.concatenate([
        [-1.0, np.nextafter(-1.0, 0), -0.5, 0.0, 0.3, np.nextafter(1.0, 0), 1.0],
        rng.uniform(-1, 1, 6),
    ])
    tiny = np.finfo(float).tiny
    with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise", divide="raise"):
        warnings.simplefilter("error")
        for g_a in gammas:
            for g_b in gammas:
                for kap in kappas:
                    rate = predicted_rate(g_a, g_b, kap)
                    assert np.isfinite(rate) and 0 <= rate <= 1
                    for c0 in (1.0, 0.3):
                        c = predicted_concurrence(c0, g_a, g_b, kap)
                        assert np.isfinite(c) and 0 <= c <= c0
                        product = np.exp(-(g_a + g_b)) * c0
                        if c * rate >= tiny and product >= tiny:
                            assert abs(c * rate - product) <= 1e-12 * product
                        if c >= tiny and rate >= tiny:
                            # the same law in log space, which no underflow touches
                            want = c0 * np.exp(-(g_a + g_b) - np.log(rate))
                            assert abs(c - min(want, c0)) <= 1e-12 * c


def test_laws_against_brute_force():
    rng = np.random.default_rng(47)
    for _ in range(300):
        t, c0 = random_bd(rng)
        el_a = PdlElement(rng.uniform(0, gamma_from_db(7.0)), random_axis(rng))
        el_b = PdlElement(rng.uniform(0, gamma_from_db(7.0)), random_axis(rng))
        kap = kappa(t, el_a.axis, el_b.axis)
        c_bf, rate_bf = brute_force(t, el_a, el_b)
        assert abs(predicted_concurrence(c0, el_a.gamma, el_b.gamma, kap) - c_bf) < 1e-9
        assert abs(predicted_rate(el_a.gamma, el_b.gamma, kap) - rate_bf) < 1e-9


def test_average_entanglement_conservation():
    rng = np.random.default_rng(53)
    for _ in range(100):
        t, c0 = random_bd(rng)
        total = rng.uniform(0.1, 1.5)
        split = rng.uniform(0, total)
        c_bf, rate_bf = brute_force(
            t,
            PdlElement(split, random_axis(rng)),
            PdlElement(total - split, random_axis(rng)),
        )
        assert abs(c_bf * rate_bf - average_entanglement(c0, split, total - split)) < 1e-9
    assert abs(average_entanglement(1.0, 0.3, 0.4) - np.exp(-0.7)) < 1e-15


def test_equivalence_map_axes():
    a = np.array([0.6, 0.0, 0.8])
    for kind, signs in [
        (BellKind.PHI_PLUS, (1, -1, 1)),
        (BellKind.PHI_MINUS, (-1, 1, 1)),
        (BellKind.PSI_PLUS, (1, 1, -1)),
        (BellKind.PSI_MINUS, (-1, -1, -1)),
    ]:
        mapped = equivalence_map(PdlElement(0.5, a), kind.correlation)
        assert mapped.gamma == 0.5
        assert np.allclose(mapped.axis, np.array(signs) * a, atol=1e-12)
    # singlet: full inversion of every axis
    rng = np.random.default_rng(59)
    for _ in range(20):
        ax = random_axis(rng)
        inv = equivalence_map(PdlElement(0.3, ax), (-1, -1, -1))
        assert np.allclose(inv.axis, -ax, atol=1e-12)
    with pytest.raises(ValueError):
        equivalence_map(PdlElement(0.3), (0.9, -0.9, 1.0))  # not a Bell triple


def test_equivalence_map_state_identity():
    """Moving the element to the other arm leaves the filtered state unchanged."""
    rng = np.random.default_rng(61)
    for kind in BellKind:
        rho = bell_state(kind)
        for _ in range(25):
            el = PdlElement(rng.uniform(0, 0.8), random_axis(rng))
            mapped = equivalence_map(el, kind.correlation)
            out_a = apply_local(rho, pdl_operator(el), SIGMA0)
            out_b = apply_local(rho, SIGMA0, pdl_operator(mapped))
            assert np.abs(out_a.rho - out_b.rho).max() < 1e-12
            assert abs(out_a.rate - out_b.rate) < 1e-12


def test_design_compensator_bell():
    plan = design_compensator(PdlElement(G51), np.array([1.0, -1.0, 1.0]))
    assert abs(plan.element.gamma - G51) < 1e-12
    assert np.allclose(plan.element.axis, [0, 0, -1.0], atol=1e-12)
    assert abs(plan.kappa + 1.0) < 1e-12
    assert abs(plan.predicted_concurrence - 1.0) < 1e-12
    assert abs(plan.predicted_rate - 0.3090295432513592) < 1e-12


def test_design_compensator_partial_m():
    # t = (0.69, -0.69, 1), arm-A axis x: m = 0.69, capped restoration
    t = np.array([0.69, -0.69, 1.0])
    plan = design_compensator(PdlElement(G51, np.array([1.0, 0, 0])), t)
    assert abs(plan.element.gamma - 0.38173824810416773) < 1e-12
    assert np.allclose(plan.element.axis, [-1.0, 0, 0], atol=1e-12)
    assert abs(plan.kappa + 0.69) < 1e-12
    assert abs(plan.predicted_concurrence - 0.6292645803284861) < 1e-12
    # brute force agrees
    c_bf, rate_bf = brute_force(t, PdlElement(G51, np.array([1.0, 0, 0])), plan.element)
    assert abs(c_bf - plan.predicted_concurrence) < 1e-9
    assert abs(rate_bf - plan.predicted_rate) < 1e-9


def test_design_compensator_is_optimal():
    """No orientation/magnitude does better than the designed element."""
    rng = np.random.default_rng(67)
    t, _ = random_bd(rng)
    el_a = PdlElement(0.45, random_axis(rng))
    plan = design_compensator(el_a, t)
    for _ in range(300):
        cand = PdlElement(rng.uniform(0, 1.2), random_axis(rng))
        c_cand, _ = brute_force(t, el_a, cand)
        assert c_cand <= plan.predicted_concurrence + 1e-9


def test_design_compensator_degenerate():
    with pytest.raises(ValueError):
        # correlation annihilates the arm-A axis
        design_compensator(PdlElement(0.5, np.array([1.0, 0, 0])), (0.0, 0.0, 1.0))


def test_rate_bounds_frozen():
    rb = rate_bounds(G51, G51)
    assert abs(rb.c_min - 0.5641802873434723) < 1e-12
    assert rb.c_max_norm == 1.0
    assert abs(rb.rate_at_kappa_minus1 - 0.3090295432513591) < 1e-12
    assert abs(rb.rate_at_kappa_plus1 - 0.5477496293010718) < 1e-12


def test_rate_bounds_bracket_brute_force():
    rng = np.random.default_rng(71)
    g_a, g_b = 0.35, 0.5
    rb = rate_bounds(g_a, g_b)
    rho = bell_state(BellKind.PHI_PLUS)
    for _ in range(100):
        out = apply_local(
            rho,
            pdl_operator(PdlElement(g_a, random_axis(rng))),
            pdl_operator(PdlElement(g_b, random_axis(rng))),
        )
        c = concurrence(out.rho)
        assert rb.c_min - 1e-9 <= c <= rb.c_max_norm + 1e-9
        assert rb.rate_at_kappa_minus1 - 1e-9 <= out.rate <= rb.rate_at_kappa_plus1 + 1e-9


def test_estimate_gamma_roundtrip():
    for db in (0.5, 2.0, 5.1):
        g = gamma_from_db(db)
        assert abs(estimate_gamma_from_concurrence(0.925, 0.925 / np.cosh(g)) - g) < 1e-12
    # jitter above baseline within slack clamps to zero
    assert estimate_gamma_from_concurrence(0.925, 0.925 + 1e-10) == 0.0
    with pytest.raises(ValueError):
        estimate_gamma_from_concurrence(0.925, 0.95)
    with pytest.raises(ValueError):
        estimate_gamma_from_concurrence(0.925, 0.0)
    with pytest.raises(ValueError):
        estimate_gamma_from_concurrence(0.0, 0.5)
