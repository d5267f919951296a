"""Open defects, each pinned as a strict xfail that states the right behaviour.

All three come from the inexact concurrence route and the closed-form
`design_compensator` at large magnitudes (ROADMAP item 1). A fix makes its
test pass, and strict=True then fails the run until the marker is removed.
"""

import pytest

from pdlsim.channels import PdlElement
from pdlsim.cli import main
from pdlsim.qmath import BellKind
from pdlsim.theory import design_compensator
from pdlsim.verify import oracle_equivalence


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="oracle-equivalence reads 6.663e-7 against 1e-9 at seed 172")
def test_oracle_equivalence_passes_at_seed_172():
    assert oracle_equivalence(seed=172).passed


@pytest.mark.xfail(strict=True, raises=RuntimeError,
                   reason="the 80 dB rows miss the conservation law by about 1e-6")
def test_tradeoff_runs_at_80_db(tmp_path):
    assert main(["tradeoff", "--pdl-db", "80", "--out", str(tmp_path)]) == 0


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the design predicts 1.0003 at 16 Np on |phi+>")
def test_designed_concurrence_stays_at_most_c0_at_16_np():
    plan = design_compensator(PdlElement(16.0), BellKind.PHI_PLUS.correlation)
    assert plan.predicted_concurrence <= 1.0
