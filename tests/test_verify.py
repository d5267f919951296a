"""The verify suites against their one-case-at-a-time routes and a corrupted law."""

import numpy as np
import pytest

import pdlsim.theory
from pdlsim.channels import PdlElement, angle_from_aggregate, apply_local, concat_pdl, pdl_operator
from pdlsim.qmath import SIGMA0, BellKind, bell_state, check_state, concurrence, correlation_of
from pdlsim.verify import (
    GAMMA_MAX,
    _random_axis,
    concatenation_law,
    equivalence_mapping,
    oracle_equivalence,
)


def random_bell_diagonal(rng):
    """One Bell-diagonal state from Dirichlet weights, as the suites drew it case by case."""
    w = rng.dirichlet(np.ones(4))
    rho = sum(wi * bell_state(kind) for wi, kind in zip(w, BellKind))
    return check_state(rho)


def random_element(rng):
    """One element, as the suites drew and built it case by case."""
    return PdlElement(float(rng.uniform(0, GAMMA_MAX)), _random_axis(rng))


@pytest.mark.parametrize("seed", [1, 303])
def test_equivalence_mapping_matches_the_per_element_loop(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for kind in BellKind:
        rho = bell_state(kind)
        for _ in range(100):
            el = random_element(rng)
            mapped = pdlsim.theory.equivalence_map(el, kind.correlation)
            ma = np.kron(pdl_operator(el), SIGMA0)
            mb = np.kron(SIGMA0, pdl_operator(mapped))
            left = ma @ rho @ ma.conj().T
            right = mb @ rho @ mb.conj().T
            worst = max(worst, np.abs(left - right).max())
    assert equivalence_mapping(seed=seed).max_err == worst


@pytest.mark.parametrize("seed", [2, 172])
def test_oracle_equivalence_matches_the_per_case_loop(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        rho = random_bell_diagonal(rng)
        ea, eb = random_element(rng), random_element(rng)
        kap = pdlsim.theory.kappa(correlation_of(rho), ea.axis, eb.axis)
        closed = pdlsim.theory.predicted_concurrence(concurrence(rho), ea.gamma, eb.gamma, kap)
        brute = apply_local(rho, pdl_operator(ea), pdl_operator(eb))
        worst = max(worst, abs(closed - concurrence(brute.rho)))
    assert oracle_equivalence(seed=seed, cases=100).max_err == worst


@pytest.mark.parametrize("seed", [3, 404])
def test_concatenation_law_matches_the_per_case_loop(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(300):
        e1, e2 = random_element(rng), random_element(rng)
        agg = concat_pdl(e1, e2)
        dot = float(e1.axis @ e2.axis)
        want = np.cosh(e1.gamma) * np.cosh(e2.gamma) + dot * np.sinh(e1.gamma) * np.sinh(e2.gamma)
        worst = max(worst, abs(np.cosh(agg.gamma) - want))
        if e1.gamma > 1e-3 and e2.gamma > 1e-3:
            ang = angle_from_aggregate(e1.gamma, e2.gamma, agg.gamma)
            worst = max(worst, abs(np.cos(ang) - np.clip(dot, -1, 1)))
    assert concatenation_law(seed=seed, cases=300).max_err == worst


def test_oracle_equivalence_fails_on_a_corrupted_formula(monkeypatch):
    law = pdlsim.theory.predicted_concurrence
    monkeypatch.setattr(pdlsim.theory, "predicted_concurrence",
                        lambda *args: law(*args) * (1 + 1e-6))
    r = oracle_equivalence(cases=100)
    assert not r.passed
    assert r.max_err > r.tol
