"""Self-contained invariant suites behind the `verify` subcommand.

Each suite exercises one law along two independent routes (closed form vs
brute-force filtered density matrix, designed optimum vs sampled alternatives,
forward counts vs inverted state) and reports its worst observed error against
a fixed tolerance. A suite that checks a propagated concurrence against a
closed form reads Wootters of the filtered states, `concurrence(batch.rho)`,
never `batch.concurrence`: that is the local-filter identity, the law under
test. All suites are seeded and deterministic. Each suite draws
each of its random inputs as one whole array, in a fixed order (Dirichlet
weights, then magnitudes, then Gaussian axes), builds one stacked
`PdlElement` per arm and one Bell-diagonal stack, and sends every case
through one `propagate` (or `concat_pdl`) call; `tomography-roundtrip` then
makes one forward-count and one inversion call on the bench's one schedule,
`SETTINGS_36`. Each suite is written as a check `name(rng, **sizes) ->
(worst, cases)` under the one `_suite(tol)` harness, which seeds, times,
names and judges every suite the same way.
"""

import functools
import time
from dataclasses import dataclass

import numpy as np

from . import theory
from .channels import (
    ChannelBatch,
    PdlElement,
    angle_from_aggregate,
    concat_pdl,
    gamma_from_db,
    pdl_operator,
    propagate,
)
from .compensation import SearchConfig, optimize_compensator
from .instrument import (
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
    concurrence,
    correlation_of,
    trace_distances,
    traces,
)

DEFAULT_SEED = 20260822
GAMMA_MAX = gamma_from_db(7)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    max_err: float
    tol: float
    cases: int
    runtime_s: float
    passed: bool


def _suite(tol):
    """Decorator making a check `name(rng, **sizes) -> (worst, cases)` a suite.

    The suite is `name(seed=DEFAULT_SEED, **sizes) -> SuiteResult`. It draws
    from `default_rng(seed)`, is timed from before its first draw, is named
    `name` with '-' for '_', and passes when worst <= tol.
    """

    def wrap(check):
        @functools.wraps(check)
        def suite(seed=DEFAULT_SEED, **sizes) -> SuiteResult:
            t0 = time.perf_counter()
            worst, cases = check(np.random.default_rng(seed), **sizes)
            return SuiteResult(name=check.__name__.replace("_", "-"), max_err=float(worst),
                               tol=tol, cases=cases, runtime_s=time.perf_counter() - t0,
                               passed=bool(worst <= tol))

        return suite

    return wrap


def _axes(rng, n) -> np.ndarray:
    """n random unit axes (n, 3): one Gaussian draw, each row normalized."""
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _elements(rng, n, gamma_max=GAMMA_MAX) -> PdlElement:
    """n random elements: magnitudes uniform in [0, gamma_max), then their axes."""
    return PdlElement(rng.uniform(0, gamma_max, n), _axes(rng, n))


def _bell_diagonals(weights) -> np.ndarray:
    """Bell-diagonal states (N, 4, 4) of Bell weights (N, 4), summed in BellKind order from 0."""
    w = np.asarray(weights).reshape(-1, 4, 1, 1)
    return check_state(sum(w[:, k] * bell_state(kind) for k, kind in enumerate(BellKind)))


def _worst(*errors) -> float:
    """Largest entry over error arrays, 0 when all are empty."""
    return max(float(np.max(e, initial=0.0)) for e in errors)


@_suite(tol=1e-9)
def oracle_equivalence(rng, cases=1000):
    """Closed-form concurrence vs Wootters concurrence of the filtered matrix.

    `theory.predicted_concurrence` is looked up at call time, so a test can
    patch in a corrupted formula and watch the suite fail.
    """
    rhos = _bell_diagonals(rng.dirichlet(np.ones(4), size=cases))
    el_a, el_b = _elements(rng, cases), _elements(rng, cases)
    kap = theory.kappa(correlation_of(rhos), el_a.axis, el_b.axis)
    closed = theory.predicted_concurrence(concurrence(rhos), el_a.gamma, el_b.gamma, kap)
    batch = propagate(rhos, pdl_operator(el_a), pdl_operator(el_b)).require_live()
    worst = _worst(np.abs(closed - concurrence(batch.rho)))
    return worst, cases


@_suite(tol=1e-9)
def rate_conservation(rng, cases=400):
    """Rate x concurrence stays at exp(-(gA+gB)) c0, however the sum is split.

    `theory.conservation_residual` is looked up at call time, as in
    `oracle_equivalence`.
    """
    rhos = _bell_diagonals(rng.dirichlet(np.ones(4), size=cases))
    # three splits of each case's total loss, consecutive rows
    totals = np.repeat(rng.uniform(0, 2 * GAMMA_MAX, cases), 3)
    g_a = rng.uniform(0, totals)
    el_a = PdlElement(g_a, _axes(rng, 3 * cases))
    el_b = PdlElement(totals - g_a, _axes(rng, 3 * cases))
    batch = propagate(np.repeat(rhos, 3, axis=0), pdl_operator(el_a),
                      pdl_operator(el_b)).require_live()
    c = concurrence(batch.rho)
    products = (batch.rate * c).reshape(-1, 3)
    law = theory.conservation_residual(batch.rate, c, totals,
                                       np.repeat(concurrence(rhos), 3))
    return max(law, _worst(products.max(axis=1) - products.min(axis=1))), cases


@_suite(tol=1e-12)
def orientation_independence(rng, per_magnitude=100):
    """Single-channel concurrence depends on PDL magnitude only, never its axis."""
    c0 = 0.925
    rho = bell_diagonal([c0, -c0, 1.0])
    gammas = gamma_from_db([1.25, 2.55, 3.7, 5.1, 6.3])
    elements = PdlElement(np.repeat(gammas, per_magnitude), _axes(rng, 5 * per_magnitude))
    batch = propagate(rho, pdl_operator(elements), SIGMA0[None]).require_live()
    vals = concurrence(batch.rho).reshape(len(gammas), per_magnitude)
    worst = _worst(vals.max(axis=1) - vals.min(axis=1),
                   np.abs(vals - c0 / np.cosh(gammas)[:, None]))
    return worst, 5 * per_magnitude


@_suite(tol=1e-12)
def equivalence_mapping(rng, per_state=100):
    """Moving a PDL element across arms along T gives the identical matrix.

    The filtered matrices are compared unnormalized, one filter stack per arm
    and Bell state.
    """
    worst = 0.0
    for kind in BellKind:
        rho = bell_state(kind)
        els = _elements(rng, per_state)
        mapped = theory.equivalence_map(els, kind.correlation)
        # np.kron of a (N, 2, 2) stack and a 2x2 filter is the (N, 4, 4) stack of row krons
        ma = np.kron(pdl_operator(els), SIGMA0)
        mb = np.kron(SIGMA0, pdl_operator(mapped))
        left = ma @ rho @ np.swapaxes(ma.conj(), -1, -2)
        right = mb @ rho @ np.swapaxes(mb.conj(), -1, -2)
        worst = max(worst, _worst(np.abs(left - right)))
    return worst, 4 * per_state


@_suite(tol=1e-9)
def concatenation_law(rng, cases=1000):
    """Aggregate magnitude of two cascaded elements follows the cosh law."""
    firsts, seconds = _elements(rng, cases), _elements(rng, cases)
    g1, a1, g2, a2 = firsts.gamma, firsts.axis, seconds.gamma, seconds.axis
    # row-wise a1 . a2 by matmul, bit-equal to a 1-D dot of each pair
    dots = (a1[:, None, :] @ a2[:, :, None])[:, 0, 0]
    agg_g = concat_pdl(firsts, seconds).gamma
    want = np.cosh(g1) * np.cosh(g2) + dots * np.sinh(g1) * np.sinh(g2)
    defined = (g1 > 1e-3) & (g2 > 1e-3)
    ang = angle_from_aggregate(g1[defined], g2[defined], agg_g[defined])
    worst = _worst(np.abs(np.cosh(agg_g) - want),
                   np.abs(np.cos(ang) - np.clip(dots[defined], -1, 1)))
    return worst, cases


@_suite(tol=1e-3)
def compensation_optimality(rng, alternatives=500):
    """Designed compensator beats random alternatives; optimizer matches theory.

    The binding tolerance is the optimizer's 1e-3; the designed-element checks
    run far below it (their 1e-9-scale agreement is asserted in unit tests).
    """
    worst = 0.0
    problems = [
        (bell_state(BellKind.PHI_PLUS), PdlElement(gamma_from_db(5.1), (0.0, 0.0, 1.0))),
        (bell_diagonal([0.69, -0.69, 1.0]), _elements(rng, 1)[0]),
    ]
    for rho, el_a in problems:
        t = correlation_of(rho)
        plan = theory.design_compensator(el_a, t)
        alts = _elements(rng, alternatives, 2 * el_a.gamma + 0.1)
        m_b = np.concatenate([pdl_operator(plan.element)[None], pdl_operator(alts)])
        c = concurrence(propagate(rho, pdl_operator(el_a)[None], m_b).require_live().rho)
        designed = c[0]
        worst = max(worst, abs(designed - plan.predicted_concurrence), _worst(c[1:] - designed))
        res = optimize_compensator(el_a, rho, SearchConfig(sphere_points=64, refine_iters=20))
        worst = max(worst, abs(res.best_concurrence - plan.predicted_concurrence))
    return worst, 2 * (alternatives + 1)


@_suite(tol=1e-8)
def tomography_roundtrip(rng, cases=40):
    """Exact forward counts invert back to the state: the source and random states, one pass."""
    src = calibrate_source(0.925, 1.38)
    det = DetectorModel(dark_prob=0.0)
    g = rng.normal(size=(cases - 1, 4, 4)) + 1j * rng.normal(size=(cases - 1, 4, 4))
    m = g @ np.swapaxes(g.conj(), -1, -2)
    rhos = m / traces(m).real[:, None, None]
    batch = propagate(rhos, SIGMA0[None], SIGMA0[None]).require_live()
    first = source_state(src)
    states = ChannelBatch(np.concatenate([first.rho[None], batch.rho]),
                          np.concatenate([[first.rate], batch.rate]))
    rho_hat = reconstruct(expected_coincidences(states, SETTINGS_36, src, det, 10**6), SETTINGS_36)
    repaired = project_physical(rho_hat)
    worst = _worst(trace_distances(rho_hat, states.rho),
                   trace_distances(project_physical(repaired), repaired))
    return worst, cases


@_suite(tol=1e-9)
def envelope_bounds(rng, cases=300):
    """Equal-magnitude sweeps stay inside the kappa = +/-1 envelope, touching it."""
    rho = bell_state(BellKind.PHI_PLUS)
    t = correlation_of(rho)
    worst = 0.0
    for gamma_db in (2.0, 5.1):
        g = gamma_from_db(gamma_db)
        # the envelope is the laws at kappa = +/-1 (c0 = 1 for a Bell state)
        c_min, c_max = theory.predicted_concurrence(1.0, g, g, [1.0, -1.0])
        rate_min, rate_max = theory.predicted_rate(g, g, [-1.0, 1.0])
        el_a = PdlElement(g, (0.0, 0.0, 1.0))
        # T zhat = t3 zhat for Bell states, so b = -/+ zhat sits at kappa = -/+ 1
        axes = np.vstack([_axes(rng, cases), [[0.0, 0.0, -t[2]], [0.0, 0.0, t[2]]]])
        el_bs = PdlElement(g, axes)
        batch = propagate(rho, pdl_operator(el_a)[None], pdl_operator(el_bs)).require_live()
        c = concurrence(batch.rho)
        c_norm, rate = c[:cases], batch.rate[:cases]
        worst = max(worst, _worst(c_min - c_norm, c_norm - c_max,
                                  rate_min - rate, rate - rate_max))
        c_end, rate_end = c[cases:], batch.rate[cases:]
        worst = max(worst, _worst(np.abs(c_end - [c_max, c_min]),
                                  np.abs(rate_end - [rate_min, rate_max])))
    return worst, 2 * (cases + 2)


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
