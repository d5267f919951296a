"""The verify suites against their one-case-at-a-time routes and a corrupted law."""

import numpy as np
import pytest

import pdlsim.theory
from pdlsim.channels import pdl_operator
from pdlsim.qmath import SIGMA0, BellKind, bell_state
from pdlsim.verify import _random_element, equivalence_mapping, oracle_equivalence


@pytest.mark.parametrize("seed", [1, 303])
def test_equivalence_mapping_matches_the_per_element_loop(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for kind in BellKind:
        rho = bell_state(kind)
        for _ in range(100):
            el = _random_element(rng)
            mapped = pdlsim.theory.equivalence_map(el, kind.correlation)
            ma = np.kron(pdl_operator(el), SIGMA0)
            mb = np.kron(SIGMA0, pdl_operator(mapped))
            left = ma @ rho @ ma.conj().T
            right = mb @ rho @ mb.conj().T
            worst = max(worst, np.abs(left - right).max())
    assert equivalence_mapping(seed=seed).max_err == worst


def test_oracle_equivalence_fails_on_a_corrupted_formula(monkeypatch):
    law = pdlsim.theory.predicted_concurrence
    monkeypatch.setattr(pdlsim.theory, "predicted_concurrence",
                        lambda *args: law(*args) * (1 + 1e-6))
    r = oracle_equivalence(cases=100)
    assert not r.passed
    assert r.max_err > r.tol
