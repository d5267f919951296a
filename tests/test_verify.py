"""The verify suites against their one-case-at-a-time routes and corrupted laws."""

import ast
from pathlib import Path

import numpy as np
import pytest

import pdlsim.theory
from pdlsim.channels import PdlElement, angle_from_aggregate, apply_local, concat_pdl, pdl_operator
from pdlsim.instrument import (
    SETTINGS_36,
    DetectorModel,
    calibrate_source,
    expected_coincidences,
    project_physical,
    reconstruct,
    source_state,
)
from pdlsim.qmath import (
    SIGMA0,
    BellKind,
    bell_state,
    check_state,
    concurrence,
    correlation_of,
    trace_distances,
)
from pdlsim.verify import (
    ALL_SUITES,
    DEFAULT_SEED,
    GAMMA_MAX,
    _random_axis,
    _suite,
    concatenation_law,
    equivalence_mapping,
    oracle_equivalence,
    rate_conservation,
    run_all,
    tomography_roundtrip,
)

WORKLOADS = Path(__file__).resolve().parents[1] / "benchmark" / "workloads.py"


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


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 172])
def test_tomography_roundtrip_matches_the_per_state_loop(seed):
    rng = np.random.default_rng(seed)
    src = calibrate_source(0.925, 1.38)
    det = DetectorModel(dark_prob=0.0)
    states = [source_state(src)]
    for _ in range(39):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = g @ g.conj().T
        states.append(apply_local(check_state(m / np.trace(m).real), SIGMA0, SIGMA0))
    worst = 0.0
    for state in states:
        rho_hat = reconstruct(expected_coincidences(state, SETTINGS_36, src, det, 10**6),
                              SETTINGS_36)
        repaired = project_physical(rho_hat)
        worst = max(worst, trace_distances(rho_hat, state.rho),
                    trace_distances(project_physical(repaired), repaired))
    r = tomography_roundtrip(seed=seed)
    assert r.cases == 40
    assert r.max_err == worst


def test_oracle_equivalence_fails_on_a_corrupted_formula(monkeypatch):
    law = pdlsim.theory.predicted_concurrence
    monkeypatch.setattr(pdlsim.theory, "predicted_concurrence",
                        lambda *args: law(*args) * (1 + 1e-6))
    r = oracle_equivalence(cases=100)
    assert not r.passed
    assert r.max_err > r.tol


@pytest.mark.parametrize("seed", [5, 505])
def test_rate_conservation_matches_the_per_case_loop(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(50):
        rho = random_bell_diagonal(rng)
        total = rng.uniform(0, 2 * GAMMA_MAX)
        want = np.exp(-total) * concurrence(rho)
        products = []
        for _ in range(3):
            ga = rng.uniform(0, total)
            ea = PdlElement(ga, _random_axis(rng))
            eb = PdlElement(total - ga, _random_axis(rng))
            out = apply_local(rho, pdl_operator(ea), pdl_operator(eb))
            products.append(out.rate * concurrence(out.rho))
            worst = max(worst, abs(products[-1] - want))
        worst = max(worst, max(products) - min(products))
    assert rate_conservation(seed=seed, cases=50).max_err == worst


def test_rate_conservation_fails_on_a_corrupted_law(monkeypatch):
    law = pdlsim.theory.conservation_residual
    monkeypatch.setattr(pdlsim.theory, "conservation_residual", lambda *args: law(*args) + 1e-6)
    r = rate_conservation(cases=50)
    assert not r.passed
    assert r.max_err > r.tol


def test_suite_harness_seeds_names_times_and_judges():
    @_suite(tol=0.5)
    def largest_draw(rng, draws=3):
        return rng.uniform(size=draws).max(), draws

    r = largest_draw(seed=9, draws=4)
    want = float(np.random.default_rng(9).uniform(size=4).max())
    assert (r.name, r.max_err, r.tol, r.cases, r.passed) == ("largest-draw", want, 0.5, 4,
                                                               want <= 0.5)
    assert type(r.max_err) is float and type(r.passed) is bool and r.runtime_s >= 0
    assert largest_draw().max_err == np.random.default_rng(DEFAULT_SEED).uniform(size=3).max()
    assert largest_draw.__name__ == "largest_draw"


def benchmark_verify_cases() -> dict:
    """The `VERIFY_CASES` mapping (suite name -> cases) of the benchmark, read with ast."""
    for node in ast.parse(WORKLOADS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "VERIFY_CASES" for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError("no VERIFY_CASES assignment")


def test_run_all_gives_the_suites_the_benchmark_expects():
    expected = benchmark_verify_cases()
    results = run_all()
    assert [(r.name, r.cases) for r in results] == list(expected.items())
    assert [r.name for r in results] == [s.__name__.replace("_", "-") for s in ALL_SUITES]
    assert all(r.passed for r in results)
