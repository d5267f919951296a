"""Open defects, each pinned as a strict xfail that states the right behaviour.

The first two come from the inexact concurrence route, the third from the
designed arm-B magnitude of `design_compensator` at large magnitudes (ROADMAP
item 1): its C' is the law at that magnitude, so it stays in [0, c0], but the
magnitude itself is off. A fix makes its test pass, and strict=True then fails
the run until the marker is removed.
"""

import pytest

from pdlsim.channels import PdlElement
from pdlsim.cli import main
from pdlsim.qmath import BellKind
from pdlsim.theory import design_compensator
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
                   reason="1 - m tanh(gamma_A) cancels: gamma_B is 16.000301 at 16 Np, so "
                          "C' = 0.99999995, and it sticks at 18.715 from 18.5 Np on")
def test_design_restores_c0_on_phi_plus_at_16_and_18_5_np():
    for g in (16.0, 18.5):
        plan = design_compensator(PdlElement(g), BellKind.PHI_PLUS.correlation)
        assert abs(plan.element.gamma - g) <= 1e-12 * g
        assert abs(plan.predicted_concurrence - 1.0) <= 1e-12
