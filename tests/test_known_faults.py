"""Open defects, each pinned as a strict xfail that states the right behaviour.

The first three come from the inexact Wootters concurrence route (ROADMAP
item 1), the fourth from the SVD in `channels.concat_pdl`. The rest are
large-magnitude faults, each reproduced under the suite's warnings-as-errors:
`pdl_operator`, `angle_from_aggregate`, `theory.magnitude_residual` and
`concat_pdl` overflow or divide by zero at magnitudes a `PdlElement` accepts,
where each should give a finite result or raise ValueError (items 10-12). A
fix makes a test pass, and strict=True then fails the run until its marker
is removed.
"""

import numpy as np
import pytest

from pdlsim.channels import (
    PdlElement,
    angle_from_aggregate,
    axis_from_polar,
    concat_pdl,
    pdl_operator,
    propagate,
)
from pdlsim.cli import main
from pdlsim.qmath import concurrence
from pdlsim.theory import magnitude_residual
from pdlsim.verify import oracle_equivalence, rate_conservation


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="at seed 844 oracle-equivalence reads 7.684e-7 and rate-conservation "
                          "4.432e-7 against 1e-9")
def test_oracle_equivalence_and_rate_conservation_pass_at_seed_844():
    assert oracle_equivalence(seed=844).passed
    assert rate_conservation(seed=844).passed


@pytest.mark.xfail(strict=True, raises=RuntimeError,
                   reason="the 80 dB rows miss the conservation law by about 1e-6")
def test_tradeoff_runs_at_80_db(tmp_path):
    assert main(["tradeoff", "--pdl-db", "80", "--out", str(tmp_path)]) == 0


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="Wootters of these filtered rank-4 states is off by up to 1.7e-7; "
                          "the identity matches an exact route to 3e-12 (tests/test_kernel.py)")
def test_wootters_matches_the_identity_on_random_filtered_states():
    rng = np.random.default_rng(7)
    g = rng.normal(size=(500, 4, 4)) + 1j * rng.normal(size=(500, 4, 4))
    m = g @ np.swapaxes(g.conj(), -1, -2)
    rhos = m / np.trace(m, axis1=-2, axis2=-1).real[:, None, None]
    el_a, el_b = (PdlElement(rng.uniform(0, 5, 500), [0.0, 0.0, 1.0]) for _ in range(2))
    batch = propagate(rhos, pdl_operator(el_a), pdl_operator(el_b))
    assert np.abs(concurrence(batch.rho) - batch.concurrence).max() <= 1e-11


@pytest.mark.xfail(strict=True, raises=(RuntimeWarning, ValueError),
                   reason="concat_pdl's SVD gives the arm-A product a singular value of 0 at "
                          "some angles, so log(s_max / s_min) is inf")
def test_compensate_at_400_db_is_a_usage_error(tmp_path):
    # as at 300 dB, where the channel extinguishes the state
    with pytest.raises(SystemExit) as exc:
        main(["compensate", "--pdl-db", "400", "--out", str(tmp_path)])
    assert exc.value.code == 2


@pytest.mark.xfail(strict=True, raises=RuntimeWarning,
                   reason="e^(-g/2) cosh(g/2) overflows above about 1420 Np; the projector form "
                          "of ROADMAP item 11 is finite at any magnitude")
def test_pdl_operator_is_finite_at_1500_np():
    assert np.isfinite(pdl_operator(PdlElement(1500.0))).all()


@pytest.mark.xfail(strict=True, raises=RuntimeWarning,
                   reason="the cosh law overflows above about 710 Np; ROADMAP item 10 inverts it "
                          "in scaled form")
def test_angle_from_aggregate_is_finite_at_800_np():
    assert 0.0 <= angle_from_aggregate(800.0, 800.0, 1000.0) <= np.pi


@pytest.mark.xfail(strict=True, raises=RuntimeWarning,
                   reason="c cosh(gamma) overflows above about 710 Np; ROADMAP item 12 restates "
                          "the check or refuses such magnitudes")
def test_magnitude_residual_is_finite_or_refused_at_800_np():
    try:
        residual = magnitude_residual(np.array([0.0]), np.array([800.0]), 1.0)
    except ValueError:
        return
    assert np.isfinite(residual)


@pytest.mark.xfail(strict=True, raises=RuntimeWarning,
                   reason="the SVD of P2 P1 loses the singular value e^-40, so log(s_max / s_min) "
                          "divides by zero; ROADMAP item 10 takes it from the Pauli algebra")
def test_concat_pdl_is_finite_at_15_and_25_np():
    agg = concat_pdl(PdlElement(15.0, axis_from_polar(0.4, 0.2)),
                     PdlElement(25.0, axis_from_polar(np.pi / 2, 1.3)))
    assert 10.0 <= agg.gamma <= 40.0 and np.isfinite(agg.axis).all()
