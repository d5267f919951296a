"""Closed-form law checks, each against an independent brute-force route."""

import re
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
    conservation_residual,
    design_compensator,
    equivalence_map,
    kappa,
    magnitude_residual,
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
    # every (gA, gB, kappa) triple of the grid, one call per law
    g_a, g_b, kap = np.meshgrid(gammas, gammas, kappas, indexing="ij")
    with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise", divide="raise"):
        warnings.simplefilter("error")
        rate = predicted_rate(g_a, g_b, kap)
        assert (np.isfinite(rate) & (0 <= rate) & (rate <= 1)).all()
        for c0 in (1.0, 0.3):
            c = predicted_concurrence(c0, g_a, g_b, kap)
            assert (np.isfinite(c) & (0 <= c) & (c <= c0)).all()
            product = np.exp(-(g_a + g_b)) * c0
            normal = (c * rate >= tiny) & (product >= tiny)
            assert (abs(c * rate - product) <= 1e-12 * product)[normal].all()
            normal = (c >= tiny) & (rate >= tiny)
            # the same law in log space, which no underflow touches
            want = c0 * np.exp(-(g_a + g_b)[normal] - np.log(rate[normal]))
            assert (abs(c[normal] - np.minimum(want, c0)) <= 1e-12 * c[normal]).all()


def test_concurrence_exact_where_c0_times_the_half_loss_is_subnormal():
    # c0 e^{-(gA+gB)/2} is subnormal here, while the law gives c0 / cosh(gA - gB)
    assert predicted_concurrence(1e-300, 40, 40, -1) == 1e-300
    c = predicted_concurrence(3e-305, [40.0, 41.0], [40.0, 39.0], -1)
    assert c[0] == 3e-305 and abs(c[1] - 3e-305 / np.cosh(2.0)) <= 1e-15 * c[1]


def test_equivalence_map_on_a_stack_is_its_rows():
    rng = np.random.default_rng(79)
    gammas = rng.uniform(0, 1.0, 50)
    axes = np.array([random_axis(rng) for _ in range(50)])
    for kind in BellKind:
        mapped = equivalence_map(PdlElement(gammas, axes), kind.correlation)
        assert mapped.gamma.shape == (50,) and mapped.axis.shape == (50, 3)
        for i in range(50):
            one = equivalence_map(PdlElement(gammas[i], axes[i]), kind.correlation)
            assert mapped.gamma[i] == one.gamma and (mapped.axis[i] == one.axis).all()


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
        assert abs(c_bf * rate_bf - np.exp(-total) * c0) < 1e-9


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


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.parametrize("t", [(1.0, -1.0, 1.0), (0.69, -0.69, 1.0), (0.3, -0.2, 0.45)])
def test_design_compensator_stack_matches_one_element_calls(t):
    # m = 1 on a Bell triple, partial m otherwise; the first magnitudes are 0
    rng = np.random.default_rng(131)
    n = 2000
    gammas = rng.uniform(0, 2.5, n)
    gammas[:20] = 0.0
    v = rng.normal(size=(n, 3))
    stack = PdlElement(gammas, v / np.linalg.norm(v, axis=1, keepdims=True))
    plans = design_compensator(stack, t)
    assert plans.element.gamma.shape == plans.kappa.shape == (n,)
    assert plans.element.axis.shape == (n, 3)
    ones = [design_compensator(stack[i], t) for i in range(n)]
    assert _bits(plans.element.gamma) == _bits([p.element.gamma for p in ones])
    assert _bits(plans.element.axis) == _bits([p.element.axis for p in ones])
    for field in ("kappa", "predicted_concurrence", "predicted_rate"):
        assert _bits(getattr(plans, field)) == _bits([getattr(p, field) for p in ones])


def test_design_compensator_one_element_gives_floats():
    plan = design_compensator(PdlElement(G51, np.array([1.0, 0, 0])), (0.69, -0.69, 1.0))
    for value in (plan.element.gamma, plan.kappa, plan.predicted_concurrence, plan.predicted_rate):
        assert isinstance(value, float) and np.ndim(value) == 0
    assert plan.element.axis.shape == (3,)


def test_design_compensator_stack_with_annihilated_axis_raises():
    axes = np.array([[0.0, 0.0, 1.0], [0.6, 0.0, 0.8], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    msg = "no compensation direction: the correlation annihilates the arm-A axis"
    with pytest.raises(ValueError, match=f"^{msg}$"):
        design_compensator(PdlElement(np.full(4, 0.5), axes), (0.0, 0.0, 1.0))
    design_compensator(PdlElement(np.full(2, 0.5), axes[:2]), (0.0, 0.0, 1.0))  # no raise


def test_rate_bounds_frozen():
    rb = rate_bounds(G51, G51)
    assert abs(rb.c_min - 0.5641802873434723) < 1e-12
    assert rb.c_max_norm == 1.0
    assert abs(rb.rate_at_kappa_minus1 - 0.3090295432513591) < 1e-12
    assert abs(rb.rate_at_kappa_plus1 - 0.5477496293010718) < 1e-12


def test_rate_bounds_finite_past_cosh_overflow():
    # cosh overflows from about 710 on; the envelope floor rounds to 0 silently
    with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise", divide="raise"):
        warnings.simplefilter("error")
        rb = rate_bounds(400.0, 400.0)
    assert rb.c_min == 0.0
    assert rb.rate_at_kappa_minus1 == 0.0
    assert rb.rate_at_kappa_plus1 == 0.5


def test_rate_bounds_broadcasts_bit_for_bit():
    g_a = np.array([0.0, 0.3, G51, 400.0, 1e308])
    g_b = np.array([[0.1], [5.0]])
    rb = rate_bounds(g_a, g_b)
    for name in ("c_min", "c_max_norm", "rate_at_kappa_minus1", "rate_at_kappa_plus1"):
        stacked = getattr(rb, name)
        assert stacked.shape == (2, 5)
        for i, j in np.ndindex(stacked.shape):
            one = getattr(rate_bounds(float(g_a[j]), float(g_b[i, 0])), name)
            assert np.ndim(one) == 0 and stacked[i, j].tobytes() == np.float64(one).tobytes()
    with pytest.raises(ValueError, match=r"^gamma_b must be finite and >= 0, got -1.0$"):
        rate_bounds(g_a, [0.1, -1.0, 0.2, 0.3, 0.4])


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


def test_stacked_closed_forms_are_their_scalar_calls_row_by_row():
    # c0, magnitudes up to 700 Np and kappas over [-1, 1], with the endpoints
    # mixed in and a block of kappa = -1 rows beyond 354 Np per arm, where
    # the rate underflows
    rng = np.random.default_rng(73)
    c0, g_a, g_b = rng.uniform(0, 1, 400), rng.uniform(0, 700, 400), rng.uniform(0, 700, 400)
    kap = rng.uniform(-1, 1, 400)
    kap[::7], kap[1::7] = -1.0, 1.0
    g_a[:8], g_b[:8] = 0.0, [0.0, 1e-8, 5.0, 355.0, 400.0, 399.0, 30.0, 700.0]
    g_a[8:40], g_b[8:40] = rng.uniform(360, 700, (2, 32))
    kap[8:40] = -1.0
    conc = predicted_concurrence(c0, g_a, g_b, kap)
    rate = predicted_rate(g_a, g_b, kap)
    assert conc.shape == rate.shape == (len(c0),)
    assert (rate < np.finfo(float).tiny).sum() > 10  # the kappa = -1 underflow branch is hit
    for i in range(len(c0)):
        one_c = predicted_concurrence(c0[i], g_a[i], g_b[i], kap[i])
        one_r = predicted_rate(g_a[i], g_b[i], kap[i])
        assert np.ndim(one_c) == np.ndim(one_r) == 0
        assert one_c == conc[i] and one_r == rate[i]
    # leading axes broadcast: a (2, n) grid of c0 against one row of laws
    grid = predicted_concurrence(np.stack([c0, c0[::-1]]), g_a, g_b, kap)
    assert grid.shape == (2, len(c0)) and (grid[0] == conc).all()

    t = np.array([random_bd(rng)[0] for _ in range(50)])
    axes_a = np.array([random_axis(rng) for _ in range(50)])
    axes_b = np.array([random_axis(rng) for _ in range(50)])
    kaps = kappa(t, axes_a, axes_b)
    assert kaps.shape == (50,)
    for i in range(50):
        one = kappa(t[i], axes_a[i], axes_b[i])
        assert np.ndim(one) == 0 and one == kaps[i]
    # one triple against a stack of axes
    assert (kappa(t[0], axes_a[0], axes_b) == [kappa(t[0], axes_a[0], b) for b in axes_b]).all()


def test_a_bad_element_anywhere_in_a_stack_raises_the_scalar_message():
    z = np.array([0.0, 0.0, 1.0])
    cases = [
        (kappa, ([(0.5, 0, 0), (1.5, 0, 0)], z, z), ((1.5, 0, 0), z, z)),
        (kappa, ((0.5, 0, 0), z, [z, [0, 0, 2.0]]), ((0.5, 0, 0), z, [0, 0, 2.0])),
        (predicted_concurrence, ([0.5, 1.2], 0.1, 0.1, 0.0), (1.2, 0.1, 0.1, 0.0)),
        (predicted_concurrence, (0.5, [0.1, -0.1], 0.1, 0.0), (0.5, -0.1, 0.1, 0.0)),
        (predicted_concurrence, (0.5, 0.1, [[0.1], [np.inf]], 0.0), (0.5, 0.1, np.inf, 0.0)),
        (predicted_concurrence, (0.5, 0.1, 0.1, [0.0, 1.5]), (0.5, 0.1, 0.1, 1.5)),
        (predicted_rate, ([0.1, -3.0, -4.0], 0.1, 0.0), (-3.0, 0.1, 0.0)),  # the first bad one
        (predicted_rate, (0.1, 0.1, [0.0, -2.0]), (0.1, 0.1, -2.0)),
    ]
    for fn, stacked, scalar in cases:
        with pytest.raises(ValueError) as one:
            fn(*scalar)
        with pytest.raises(ValueError, match=f"^{re.escape(str(one.value))}$"):
            fn(*stacked)


def test_non_finite_and_out_of_range_inputs_raise():
    z = np.array([0.0, 0.0, 1.0])
    nan = float("nan")
    with pytest.raises(ValueError, match="correlation components"):
        kappa((nan, 0, 0), z, z)
    with pytest.raises(ValueError, match="kappa must lie in"):
        predicted_concurrence(1, 1, 1, nan)
    with pytest.raises(ValueError, match="kappa must lie in"):
        predicted_rate(1, 1, 5.0)  # as predicted_concurrence rejects it
    with pytest.raises(ValueError, match="kappa must lie in"):
        predicted_rate(1, 1, nan)
    with pytest.raises(ValueError, match="c0 must lie in"):
        predicted_concurrence(nan, 1, 1, 0.0)
    for bad in (nan, np.inf, -1e-300):
        with pytest.raises(ValueError, match="gamma_a must be finite"):
            predicted_rate(bad, 1, 0.0)
        with pytest.raises(ValueError, match="gamma_b must be finite"):
            predicted_concurrence(0.5, 1, bad, 0.0)
    with pytest.raises(ValueError, match="Bell correlation triple"):
        equivalence_map(PdlElement(0.3), (nan, 1.0, 1.0))
    # the kappa slack still admits rounding just past +-1, clipped onto it
    assert predicted_rate(0.3, 0.4, 1 + 1e-12) == predicted_rate(0.3, 0.4, 1.0)


def test_magnitudes_near_the_float_limit_do_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert predicted_rate(1e308, 1e308, 0.5) == 0.375
        assert predicted_concurrence(1.0, 1e308, 1e308, 0.5) == 0.0
        assert predicted_concurrence(1.0, 1e308, 1e308, -1.0) == 1.0
        assert rate_bounds(1e308, 1e308).c_min == 0.0


def test_law_residuals_give_the_worst_row_and_zero_on_an_empty_stack():
    rng = np.random.default_rng(53)
    c, gamma, rate, total = rng.uniform(0, 2, (4, 9))
    c0 = 0.925
    got = magnitude_residual(c, gamma, c0)
    assert type(got) is float and got == np.abs(c * np.cosh(gamma) - c0).max()
    got = conservation_residual(rate, c, total, c0)
    assert type(got) is float and got == np.abs(rate * c - np.exp(-total) * c0).max()
    empty = np.zeros(0)
    assert magnitude_residual(empty, empty, c0) == 0.0
    assert conservation_residual(empty, empty, empty, c0) == 0.0
    # both laws hold on a filtered Bell-diagonal state, one row at a time
    rho = bell_diagonal(random_bd(rng)[0])
    ea, eb = PdlElement(0.4, random_axis(rng)), PdlElement(0.7, random_axis(rng))
    out = apply_local(rho, pdl_operator(ea), SIGMA0)
    assert magnitude_residual(out.concurrence, ea.gamma, concurrence(rho)) < 1e-12
    out = apply_local(rho, pdl_operator(ea), pdl_operator(eb))
    assert conservation_residual(out.rate, out.concurrence, 1.1, concurrence(rho)) < 1e-12
