import re

import numpy as np
import pytest

from pdlsim.channels import (
    CANONICAL_AXIS,
    DB_PER_NEPER,
    ExtinctionError,
    PdlElement,
    PmdElement,
    angle_from_aggregate,
    apply_local,
    axis_from_polar,
    concat_pdl,
    db_from_gamma,
    gamma_from_db,
    pdl_operator,
    pmd_dephase,
    unit_axis,
)
from pdlsim.qmath import (
    PAULI,
    SIGMA0,
    BellKind,
    bell_diagonal,
    bell_state,
    concurrence,
    correlation_of,
)


def random_axis(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def test_db_neper_conversion():
    assert abs(DB_PER_NEPER - 8.685889638065037) < 1e-12
    assert gamma_from_db(0.0) == 0.0
    assert abs(gamma_from_db(5.1) - 0.5871591987134815) < 1e-15
    for db in (0.3, 1.25, 2.55, 3.7, 5.1, 6.3, 7.0):
        assert abs(db_from_gamma(gamma_from_db(db)) - db) < 1e-12
    with pytest.raises(ValueError):
        gamma_from_db(-0.1)
    # a stack converts element by element and quotes its first bad entry
    dbs = [0.0, 1.25, 5.1, 7.0]
    assert gamma_from_db(dbs).tobytes() == (np.array(dbs) / DB_PER_NEPER).tobytes()
    assert gamma_from_db(5.1) == 5.1 / DB_PER_NEPER
    for bad, first in (([1.0, -0.5, -2.0], "-0.5"), ([1.0, np.nan, -1.0], "nan")):
        with pytest.raises(ValueError, match=f"PDL in dB must be >= 0, got {first}$"):
            gamma_from_db(bad)


def test_unit_axis():
    # accepts unit vectors (tiny drift renormalized), rejects everything else
    a = unit_axis([1 + 1e-12, 0.0, 0.0])
    assert np.linalg.norm(a) == 1.0
    v = np.array([1.0, 1.0, 1.0]) / np.sqrt(3)
    assert np.allclose(unit_axis(v), v, atol=1e-15)
    with pytest.raises(ValueError):
        unit_axis([0, 0, 2.0])
    with pytest.raises(ValueError):
        unit_axis([0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        unit_axis([1.0, 2.0])


def test_axis_from_polar():
    assert np.allclose(axis_from_polar(0.0), [0, 0, 1], atol=1e-12)
    assert np.allclose(axis_from_polar(np.pi), [0, 0, -1], atol=1e-12)
    assert np.allclose(axis_from_polar(np.pi / 2), [1, 0, 0], atol=1e-12)
    assert np.allclose(axis_from_polar(np.pi / 2, np.pi / 2), [0, 1, 0], atol=1e-12)


def test_pdl_element_validation():
    el = PdlElement(0.5, np.array([0, 0, 1.0]))
    assert np.allclose(el.axis, [0, 0, 1])
    assert abs(el.gamma_db - 0.5 * DB_PER_NEPER) < 1e-12
    with pytest.raises(ValueError):
        PdlElement(0.5, np.array([0, 0, 3.0]))
    assert np.allclose(PdlElement(0.0).axis, CANONICAL_AXIS)
    with pytest.raises(ValueError):
        PdlElement(-0.1)
    with pytest.raises(ValueError):
        PdlElement(np.inf)


def test_pdl_operator_singular_values():
    """Max amplitude transmission is exactly 1; the other is e^-gamma."""
    rng = np.random.default_rng(31)
    for _ in range(50):
        g = rng.uniform(0, gamma_from_db(7.0))
        p = pdl_operator(PdlElement(g, random_axis(rng)))
        sv = np.linalg.svd(p, compute_uv=False)
        assert abs(sv[0] - 1.0) < 1e-12
        assert abs(sv[1] - np.exp(-g)) < 1e-12
        assert abs(np.linalg.det(p).real - np.exp(-g)) < 1e-12


def test_pdl_operator_z_axis_diagonal():
    g = 0.7
    p = pdl_operator(PdlElement(g, np.array([0, 0, 1.0])))
    assert np.allclose(p, np.diag([1.0, np.exp(-g)]), atol=1e-12)


def test_apply_local_identity():
    rho = bell_state(BellKind.PHI_PLUS)
    out = apply_local(rho, SIGMA0, SIGMA0)
    assert abs(out.rate - 1.0) < 1e-12
    assert np.allclose(out.rho, rho, atol=1e-12)


def test_apply_local_rate_single_element():
    # Phi+ through one z-aligned element: rate (1 + e^-2g)/2
    g = gamma_from_db(5.1)
    out = apply_local(bell_state(BellKind.PHI_PLUS), pdl_operator(PdlElement(g)), SIGMA0)
    assert abs(out.rate - 0.6545147716256796) < 1e-12
    assert abs(out.rate - (1 + np.exp(-2 * g)) / 2) < 1e-12


def test_apply_local_rejects_amplifying_filter():
    with pytest.raises(ValueError):
        apply_local(bell_state(BellKind.PHI_PLUS), 2.0 * SIGMA0, SIGMA0)


def test_apply_local_extinction():
    rho = np.kron(np.diag([0.0, 1.0]), np.diag([0.0, 1.0])).astype(complex)  # |VV><VV|
    strong = np.diag([1.0, np.exp(-15.0)]).astype(complex)
    with pytest.raises(ExtinctionError):
        apply_local(rho, strong, strong)


def test_pmd_element_validation():
    PmdElement(0.0)
    PmdElement(0.5, np.array([1.0, 0, 0]))
    with pytest.raises(ValueError):
        PmdElement(0.51)
    with pytest.raises(ValueError):
        PmdElement(-0.01)
    with pytest.raises(ValueError, match=re.escape("q must be one number, got shape (2,)")):
        PmdElement(np.array([0.1, 0.2]))
    assert PmdElement(np.float64(0.155)).q == 0.155
    assert type(PmdElement(np.float64(0.155)).q) is float and type(PmdElement(0).q) is float
    # a missing weight is refused naming it, not with a TypeError from <=
    with pytest.raises(ValueError, match=re.escape("weight q must be in [0, 0.5], got nan")):
        PmdElement(None)
    with pytest.raises(ValueError, match=re.escape("q must be in [0, 0.5], got 0.51")):
        PmdElement(0.51)


def test_pmd_dephase_limits():
    rho = bell_state(BellKind.PHI_PLUS)
    assert np.allclose(pmd_dephase(rho, PmdElement(0.0)), rho, atol=1e-12)
    # q = 1/2 on z kills the transverse correlations
    full = pmd_dephase(rho, PmdElement(0.5))
    assert np.allclose(correlation_of(full), [0, 0, 1], atol=1e-12)


def test_pmd_dephase_concurrence():
    rho = bell_state(BellKind.PHI_PLUS)
    for q in (0.05, 0.155, 0.3):
        out = pmd_dephase(rho, PmdElement(q))
        assert abs(concurrence(out) - (1 - 2 * q)) < 1e-10
        assert np.allclose(correlation_of(out), [1 - 2 * q, -(1 - 2 * q), 1], atol=1e-12)


def test_pmd_dephase_arm_symmetry():
    # Bell-diagonal input, same axis: dephasing arm A gives the state that the
    # same phase flip on arm B would
    rho = bell_diagonal((0.9, -0.9, 1.0))
    el = PmdElement(0.2, np.array([0, 0, 1.0]))
    u_b = np.kron(SIGMA0, PAULI[2])
    assert np.allclose(pmd_dephase(rho, el), 0.8 * rho + 0.2 * (u_b @ rho @ u_b), atol=1e-12)


def test_concat_aligned_and_antialigned():
    g1, g2 = 0.3, 0.5
    z = np.array([0, 0, 1.0])
    agg = concat_pdl(PdlElement(g1, z), PdlElement(g2, z))
    assert abs(agg.gamma - (g1 + g2)) < 1e-12
    assert np.allclose(agg.axis, z, atol=1e-9)
    agg = concat_pdl(PdlElement(g1, z), PdlElement(g2, -z))
    assert abs(agg.gamma - (g2 - g1)) < 1e-12
    assert np.allclose(agg.axis, -z, atol=1e-9)


def test_concat_cosh_law():
    rng = np.random.default_rng(37)
    for _ in range(200):
        a1, a2 = random_axis(rng), random_axis(rng)
        g1 = rng.uniform(0, gamma_from_db(7.0))
        g2 = rng.uniform(0, gamma_from_db(7.0))
        agg = concat_pdl(PdlElement(g1, a1), PdlElement(g2, a2))
        expect = np.cosh(g1) * np.cosh(g2) + (a1 @ a2) * np.sinh(g1) * np.sinh(g2)
        assert abs(np.cosh(agg.gamma) - expect) < 1e-9


def test_concat_zero_magnitude():
    el = PdlElement(0.4, np.array([1.0, 0, 0]))
    agg = concat_pdl(el, PdlElement(0.0))
    assert abs(agg.gamma - el.gamma) < 1e-12
    assert np.allclose(agg.axis, el.axis, atol=1e-9)
    both = concat_pdl(PdlElement(0.0), PdlElement(0.0))
    assert both.gamma == 0.0


def test_concat_matches_filtered_state():
    """The aggregate element reproduces the product's action on any state."""
    rng = np.random.default_rng(41)
    rho = bell_diagonal((0.925, -0.925, 1.0))
    for _ in range(50):
        e1 = PdlElement(rng.uniform(0, 0.7), random_axis(rng))
        e2 = PdlElement(rng.uniform(0, 0.7), random_axis(rng))
        agg = concat_pdl(e1, e2)
        out_prod = apply_local(rho, pdl_operator(e2) @ pdl_operator(e1), SIGMA0)
        out_agg = apply_local(rho, pdl_operator(agg), SIGMA0)
        # product differs from the aggregate element by a unitary and a global
        # attenuation, so concurrence and purity agree but axes-fixed
        # observables need not
        assert abs(concurrence(out_prod.rho) - concurrence(out_agg.rho)) < 1e-9
        scale = np.exp(agg.gamma - e1.gamma - e2.gamma)
        assert abs(out_prod.rate - scale * out_agg.rate) < 1e-9


def test_source_emulator_aggregate_range():
    gs = np.log(1.38) / 2
    g51 = gamma_from_db(5.1)
    lo = concat_pdl(PdlElement(gs), PdlElement(g51, np.array([0, 0, -1.0])))
    hi = concat_pdl(PdlElement(gs), PdlElement(g51))
    assert abs(lo.gamma_db - 3.701209135987636) < 1e-9
    assert abs(hi.gamma_db - 6.498790864012364) < 1e-9


def test_angle_from_aggregate_roundtrip():
    rng = np.random.default_rng(43)
    for _ in range(100):
        g1 = rng.uniform(0.05, 0.8)
        g2 = rng.uniform(0.05, 0.8)
        ang = rng.uniform(0, np.pi)
        a2 = axis_from_polar(ang)
        agg = concat_pdl(PdlElement(g1), PdlElement(g2, a2))
        assert abs(angle_from_aggregate(g1, g2, agg.gamma) - ang) < 1e-6


def test_angle_from_aggregate_errors():
    with pytest.raises(ValueError):
        angle_from_aggregate(0.0, 0.5, 0.5)  # undefined at zero magnitude
    with pytest.raises(ValueError):
        angle_from_aggregate(0.3, 0.4, 0.8)  # beyond g1 + g2
    with pytest.raises(ValueError):
        angle_from_aggregate(0.3, 0.4, 0.05)  # below |g1 - g2|


def test_unit_axis_stack_rows_are_their_own_calls():
    rng = np.random.default_rng(79)
    v = rng.normal(size=(500, 3))
    axes = v / np.linalg.norm(v, axis=-1, keepdims=True)
    got = unit_axis(axes)
    assert got.shape == (500, 3) and not got.flags.writeable
    assert all((unit_axis(a) == g).all() for a, g in zip(axes, got))
    assert (unit_axis(axes.reshape(5, 100, 3)) == got.reshape(5, 100, 3)).all()
    with pytest.raises(ValueError) as one:
        unit_axis([0, 0, 2.0])
    with pytest.raises(ValueError, match=f"^{re.escape(str(one.value))}$"):
        unit_axis([axes[0], [0, 0, 2.0], axes[1]])
    with pytest.raises(ValueError, match="3 components"):
        unit_axis(np.zeros((4, 2)))


def test_non_finite_axes_and_magnitudes_raise():
    for axis in ([np.nan, 0, 0], [np.inf, 0, 0], [[0, 0, 1.0], [0, np.nan, 1.0]]):
        with pytest.raises(ValueError, match="not unit length"):
            unit_axis(axis)
    with pytest.raises(ValueError, match="not unit length"):
        PdlElement(1.0, [np.nan, 0, 0])
    with pytest.raises(ValueError):
        gamma_from_db(np.nan)
    with pytest.raises(ValueError):
        db_from_gamma(np.nan)


def test_angle_from_aggregate_stack_rows_are_their_own_calls():
    rng = np.random.default_rng(83)
    g1 = rng.uniform(0.05, 0.8, 200)
    g2 = rng.uniform(0.05, 0.8, 200)
    aggs = [concat_pdl(PdlElement(a), PdlElement(b, axis_from_polar(th))).gamma
            for a, b, th in zip(g1, g2, rng.uniform(0, np.pi, 200))]
    got = angle_from_aggregate(g1, g2, aggs)
    assert got.shape == (200,)
    for i in range(200):
        one = angle_from_aggregate(g1[i], g2[i], aggs[i])
        assert np.ndim(one) == 0 and one == got[i]
    for stacked, scalar in (
        (([0.3, 0.0], 0.5, 0.5), (0.0, 0.5, 0.5)),
        (([0.3, 0.3, 0.3], 0.4, [0.5, 0.8, 0.05]), (0.3, 0.4, 0.8)),  # the first bad one
        ((0.3, [[0.4], [0.4]], [[0.5], [0.05]]), (0.3, 0.4, 0.05)),
        (([0.3, np.nan], 0.4, 0.5), (np.nan, 0.4, 0.5)),
    ):
        with pytest.raises(ValueError) as one:
            angle_from_aggregate(*scalar)
        with pytest.raises(ValueError, match=f"^{re.escape(str(one.value))}$"):
            angle_from_aggregate(*stacked)
