"""Self-contained invariant suites behind the `verify` subcommand.

Each suite exercises one law along two independent routes (closed form vs
brute-force filtered density matrix, designed optimum vs sampled alternatives,
forward counts vs inverted state) and reports its worst observed error against
a fixed tolerance. All suites are seeded and deterministic. Suites that filter
states draw all their random inputs first, in a fixed order, then send every
case through one `propagate` call.
"""

import time
from dataclasses import dataclass

import numpy as np

from . import theory
from .channels import (
    DB_PER_NEPER,
    ChannelBatch,
    PdlElement,
    angle_from_aggregate,
    concat_pdls,
    pdl_filters,
    pdl_operator,
    propagate,
)
from .compensation import SearchConfig, optimize_compensator
from .instrument import (
    SETTINGS_16,
    SETTINGS_36,
    DetectorModel,
    calibrate_source,
    expected_coincidences,
    project_physical,
    reconstruct,
    source_state,
)
from .qmath import (
    SIGMA0,
    BellKind,
    bell_diagonal,
    bell_state,
    check_state,
    concurrences,
    correlation_of,
    trace_distances,
)

DEFAULT_SEED = 20260822
GAMMA_MAX = 7 / DB_PER_NEPER  # 7 dB in nepers


@dataclass(frozen=True)
class SuiteResult:
    name: str
    max_err: float
    tol: float
    cases: int
    runtime_s: float
    passed: bool


def _result(name, max_err, tol, cases, t0):
    return SuiteResult(
        name=name,
        max_err=float(max_err),
        tol=tol,
        cases=cases,
        runtime_s=time.perf_counter() - t0,
        passed=bool(max_err <= tol),
    )


def _random_axis(rng):
    v = rng.normal(size=3)
    n = np.linalg.norm(v)
    while n < 1e-6:
        v = rng.normal(size=3)
        n = np.linalg.norm(v)
    return v / n


def _random_bell_diagonal(rng):
    w = rng.dirichlet(np.ones(4))
    rho = sum(wi * bell_state(kind) for wi, kind in zip(w, BellKind))
    return check_state(rho)


def _random_element(rng):
    return PdlElement(float(rng.uniform(0, GAMMA_MAX)), _random_axis(rng))


def _columns(elements):
    """Magnitudes (N,) and axes (N, 3) of PDL elements."""
    return np.array([e.gamma for e in elements]), np.array([e.axis for e in elements]).reshape(-1, 3)


def _worst(*errors) -> float:
    """Largest entry over error arrays, 0 when all are empty."""
    return max(float(np.max(e, initial=0.0)) for e in errors)


def oracle_equivalence(seed=DEFAULT_SEED, cases=1000) -> SuiteResult:
    """Closed-form concurrence vs Wootters concurrence of the filtered matrix.

    `theory.predicted_concurrence` is looked up at call time, so a test can
    patch in a corrupted formula and watch the suite fail.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    rhos, eas, ebs = [], [], []
    for _ in range(cases):
        rhos.append(_random_bell_diagonal(rng))
        eas.append(_random_element(rng))
        ebs.append(_random_element(rng))
    rhos = np.array(rhos).reshape(-1, 4, 4)
    (g_a, axes_a), (g_b, axes_b) = _columns(eas), _columns(ebs)
    kap = theory.kappa(correlation_of(rhos), axes_a, axes_b)
    closed = theory.predicted_concurrence(concurrences(rhos), g_a, g_b, kap)
    batch = propagate(rhos, pdl_filters(eas), pdl_filters(ebs)).require_live()
    worst = _worst(np.abs(closed - batch.concurrence))
    return _result("oracle-equivalence", worst, 1e-9, cases, t0)


def rate_conservation(seed=DEFAULT_SEED, cases=400) -> SuiteResult:
    """Rate x concurrence stays at exp(-(gA+gB)) c0, however the sum is split."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    rhos, totals, eas, ebs = [], [], [], []
    for _ in range(cases):
        rhos.append(_random_bell_diagonal(rng))
        totals.append(rng.uniform(0, 2 * GAMMA_MAX))
        for _ in range(3):
            ga = rng.uniform(0, totals[-1])
            eas.append(PdlElement(ga, _random_axis(rng)))
            ebs.append(PdlElement(totals[-1] - ga, _random_axis(rng)))
    rhos = np.array(rhos).reshape(-1, 4, 4)
    want = np.exp(-np.array(totals)) * concurrences(rhos)
    # three splits of each case's total loss, consecutive rows
    batch = propagate(np.repeat(rhos, 3, axis=0), pdl_filters(eas), pdl_filters(ebs))
    batch.require_live()
    products = (batch.rate * batch.concurrence).reshape(-1, 3)
    worst = _worst(np.abs(products - want[:, None]), products.max(axis=1) - products.min(axis=1))
    return _result("rate-conservation", worst, 1e-9, cases, t0)


def orientation_independence(seed=DEFAULT_SEED, per_magnitude=100) -> SuiteResult:
    """Single-channel concurrence depends on PDL magnitude only, never its axis."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    c0 = 0.925
    rho = bell_diagonal([c0, -c0, 1.0])
    gammas = np.array([1.25, 2.55, 3.7, 5.1, 6.3]) / DB_PER_NEPER
    elements = [PdlElement(gamma, _random_axis(rng)) for gamma in gammas for _ in range(per_magnitude)]
    batch = propagate(rho, pdl_filters(elements), SIGMA0[None]).require_live()
    vals = batch.concurrence.reshape(len(gammas), per_magnitude)
    worst = _worst(vals.max(axis=1) - vals.min(axis=1),
                   np.abs(vals - c0 / np.cosh(gammas)[:, None]))
    return _result("orientation-independence", worst, 1e-12, 5 * per_magnitude, t0)


def equivalence_mapping(seed=DEFAULT_SEED, per_state=100) -> SuiteResult:
    """Moving a PDL element across arms along T gives the identical matrix.

    The filtered matrices are compared unnormalized, one filter stack per arm
    and Bell state.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for kind in BellKind:
        rho = bell_state(kind)
        els = [_random_element(rng) for _ in range(per_state)]
        mapped = [theory.equivalence_map(el, kind.correlation) for el in els]
        # np.kron of a (N, 2, 2) stack and a 2x2 filter is the (N, 4, 4) stack of row krons
        ma = np.kron(pdl_filters(els), SIGMA0)
        mb = np.kron(SIGMA0, pdl_filters(mapped))
        left = ma @ rho @ np.swapaxes(ma.conj(), -1, -2)
        right = mb @ rho @ np.swapaxes(mb.conj(), -1, -2)
        worst = max(worst, _worst(np.abs(left - right)))
    return _result("equivalence-mapping", worst, 1e-12, 4 * per_state, t0)


def concatenation_law(seed=DEFAULT_SEED, cases=1000) -> SuiteResult:
    """Aggregate magnitude of two cascaded elements follows the cosh law."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    pairs = [(_random_element(rng), _random_element(rng)) for _ in range(cases)]
    firsts, seconds = [e1 for e1, _ in pairs], [e2 for _, e2 in pairs]
    (g1, a1), (g2, a2) = _columns(firsts), _columns(seconds)
    # row-wise a1 . a2 by matmul, bit-equal to a 1-D dot of each pair
    dots = (a1[:, None, :] @ a2[:, :, None])[:, 0, 0]
    agg_g, _ = _columns(concat_pdls(firsts, seconds))
    want = np.cosh(g1) * np.cosh(g2) + dots * np.sinh(g1) * np.sinh(g2)
    defined = (g1 > 1e-3) & (g2 > 1e-3)
    ang = angle_from_aggregate(g1[defined], g2[defined], agg_g[defined])
    worst = _worst(np.abs(np.cosh(agg_g) - want),
                   np.abs(np.cos(ang) - np.clip(dots[defined], -1, 1)))
    return _result("concatenation-law", worst, 1e-9, cases, t0)


def compensation_optimality(seed=DEFAULT_SEED, alternatives=500) -> SuiteResult:
    """Designed compensator beats random alternatives; optimizer matches theory.

    The binding tolerance is the optimizer's 1e-3; the designed-element checks
    run far below it (their 1e-9-scale agreement is asserted in unit tests).
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst = 0.0
    problems = [
        (bell_state(BellKind.PHI_PLUS), PdlElement(5.1 / DB_PER_NEPER, (0.0, 0.0, 1.0))),
        (bell_diagonal([0.69, -0.69, 1.0]), _random_element(rng)),
    ]
    for rho, el_a in problems:
        t = correlation_of(rho)
        plan = theory.design_compensator(el_a, t)
        alts = [PdlElement(float(rng.uniform(0, 2 * el_a.gamma + 0.1)), _random_axis(rng))
                for _ in range(alternatives)]
        batch = propagate(rho, pdl_operator(el_a)[None], pdl_filters([plan.element, *alts]))
        batch.require_live()
        designed = batch.concurrence[0]
        worst = max(worst, abs(designed - plan.predicted_concurrence),
                    _worst(batch.concurrence[1:] - designed))
        res = optimize_compensator(el_a, rho, SearchConfig(sphere_points=64, refine_iters=20))
        worst = max(worst, abs(res.best_concurrence - plan.predicted_concurrence))
    return _result("compensation-optimality", worst, 1e-3, 2 * (alternatives + 1), t0)


def tomography_roundtrip(seed=DEFAULT_SEED, cases=20) -> SuiteResult:
    """Exact forward counts invert back to the state, one stacked pass per schedule."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    src = calibrate_source(0.925, 1.38)
    det = DetectorModel(dark_prob=0.0)
    worst = 0.0
    rhos = []
    for _ in range(cases - 1):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = g @ g.conj().T
        rhos.append(check_state(m / np.trace(m).real))
    batch = propagate(np.array(rhos).reshape(-1, 4, 4), SIGMA0[None], SIGMA0[None]).require_live()
    first = source_state(src)
    states = ChannelBatch(np.concatenate([first.rho[None], batch.rho]),
                            np.concatenate([[first.rate], batch.rate]))
    for settings in (SETTINGS_16, SETTINGS_36):
        exact = expected_coincidences(states, settings, src, det, 10**6)
        rho_hat = reconstruct(exact, settings)
        repaired = project_physical(rho_hat)
        worst = max(worst, _worst(trace_distances(rho_hat, states.rho),
                                  trace_distances(project_physical(repaired), repaired)))
    return _result("tomography-roundtrip", worst, 1e-8, 2 * cases, t0)


def envelope_bounds(seed=DEFAULT_SEED, cases=300) -> SuiteResult:
    """Equal-magnitude sweeps stay inside the kappa = +/-1 envelope, touching it."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    rho = bell_state(BellKind.PHI_PLUS)
    t = correlation_of(rho)
    worst = 0.0
    for gamma_db in (2.0, 5.1):
        g = gamma_db / DB_PER_NEPER
        bounds = theory.rate_bounds(g, g)
        el_a = PdlElement(g, (0.0, 0.0, 1.0))
        el_bs = [PdlElement(g, _random_axis(rng)) for _ in range(cases)]
        # T zhat = t3 zhat for Bell states, so b = -/+ zhat sits at kappa = -/+ 1
        el_bs += [PdlElement(g, (0.0, 0.0, sign * t[2])) for sign in (-1.0, 1.0)]
        batch = propagate(rho, pdl_operator(el_a)[None], pdl_filters(el_bs)).require_live()
        c_norm, rate = batch.concurrence[:cases], batch.rate[:cases]
        worst = max(worst, _worst(
            bounds.c_min - c_norm, c_norm - bounds.c_max_norm,
            bounds.rate_at_kappa_minus1 - rate, rate - bounds.rate_at_kappa_plus1,
        ))
        c_end, rate_end = batch.concurrence[cases:], batch.rate[cases:]
        worst = max(worst, _worst(
            np.abs(c_end - [bounds.c_max_norm, bounds.c_min]),
            np.abs(rate_end - [bounds.rate_at_kappa_minus1, bounds.rate_at_kappa_plus1]),
        ))
    return _result("envelope-bounds", worst, 1e-9, 2 * (cases + 2), t0)


ALL_SUITES = (
    oracle_equivalence,
    rate_conservation,
    orientation_independence,
    equivalence_mapping,
    concatenation_law,
    compensation_optimality,
    tomography_roundtrip,
    envelope_bounds,
)


def run_all(seed=DEFAULT_SEED) -> list[SuiteResult]:
    return [suite(seed=seed) for suite in ALL_SUITES]
