"""Search for the channel-B PDL element that best restores entanglement.

Mirrors the experimental protocol: place a candidate PDL element in arm B,
measure (or compute) the resulting concurrence, and keep the best orientation
and magnitude. The coarse stage scans a Fibonacci sphere lattice crossed with a
magnitude grid in one `propagate` call; a coordinate-descent stage with
interval halving then polishes the winner. Each refine trial starts from the
best point so far, so a sweep sends its remaining trials through one
`propagate` call, records them in order up to the first improvement, and
rebuilds the rest from the new point: the trace is the one a trial-at-a-time
loop gives. With the noisy flag set the objective is the concurrence of the
state `instrument.measure` estimates instead of the exact state, measured
candidate by candidate for the recorded rows only.
"""

from dataclasses import dataclass

import numpy as np

from .channels import (
    PdlElement,
    PmdElement,
    axis_from_polar,
    pdl_filters,
    pdl_operator,
    pmd_dephase,
    propagate,
)
from .instrument import DetectorModel, SourceModel, derive_seed, measure
from .qmath import check_state, concurrence, linear_entropy, reduced_qubit


@dataclass(frozen=True)
class SearchConfig:
    """Grid density, refinement control, and the optional noisy-objective rig."""

    sphere_points: int = 128
    gamma_grid: tuple[float, ...] | None = None
    refine_iters: int = 40
    refine_tol: float = 1e-6
    noisy: bool = False
    seed: int = 0
    source: SourceModel | None = None
    detector: DetectorModel | None = None
    pulses: int = 1_000_000

    def __post_init__(self):
        if self.sphere_points < 32:
            raise ValueError(f"sphere_points must be >= 32, got {self.sphere_points}")
        if self.refine_iters < 0:
            raise ValueError("refine_iters must be >= 0")
        if self.refine_tol <= 0:
            raise ValueError("refine_tol must be > 0")
        if self.pulses < 1:
            raise ValueError("pulses must be >= 1")
        if self.gamma_grid is not None:
            grid = tuple(float(g) for g in self.gamma_grid)
            if len(grid) == 0 or any(g < 0 for g in grid):
                raise ValueError("gamma_grid must be nonempty with gamma >= 0")
            object.__setattr__(self, "gamma_grid", grid)


@dataclass(frozen=True)
class EvalRecord:
    """One candidate evaluation along the search trace."""

    element: PdlElement
    concurrence: float
    rate: float
    linear_entropy_a: float


@dataclass(frozen=True)
class SearchResult:
    """Winning candidate plus the full ordered evaluation trace."""

    best: PdlElement
    best_concurrence: float
    evaluations: tuple[EvalRecord, ...]


def fibonacci_sphere(n: int) -> np.ndarray:
    """n near-uniform unit vectors (golden-angle spiral), rows on the sphere."""
    if n < 1:
        raise ValueError("n must be >= 1")
    i = np.arange(n)
    z = 1 - (2 * i + 1) / n
    r = np.sqrt(np.clip(1 - z * z, 0, None))
    th = np.pi * (3 - np.sqrt(5)) * i
    return np.column_stack([r * np.cos(th), r * np.sin(th), z])


def entropy_feedback(rho: np.ndarray) -> float:
    """Linear entropy of the qubit-A marginal, the locally measurable proxy.

    Equals 1 exactly when arm A's marginal is maximally mixed, which is where
    an orientation sweep's concurrence also peaks.
    """
    return linear_entropy(reduced_qubit(rho, "A"))


def optimize_compensator(
    pdl_a: PdlElement,
    base: np.ndarray,
    cfg: SearchConfig,
    pmd_a: PmdElement | None = None,
) -> SearchResult:
    """Best channel-B PDL element against the (optionally noisy) concurrence.

    The state entering the channels is `base`, dephased by `pmd_a` when given;
    `pdl_a` is the aggregate arm-A PDL. Candidates are evaluated in a fixed
    deterministic order; ties keep the earliest candidate. Extinction
    candidates stay in the trace with objective 0.
    """
    base = check_state(base)
    if pmd_a is not None:
        base = pmd_dephase(base, pmd_a, qubit="A")
    m_a = pdl_operator(pdl_a)
    if cfg.noisy and (cfg.source is None or cfg.detector is None):
        raise ValueError("noisy search needs source and detector models")

    records: list[EvalRecord] = []
    best_c = -1.0
    best_el = None

    def record(element: PdlElement, rate: float, obj: float, s_a: float) -> None:
        nonlocal best_c, best_el
        records.append(EvalRecord(element, obj, rate, s_a))
        if obj > best_c:
            best_c = obj
            best_el = element

    def record_row(element: PdlElement, batch, i: int) -> None:
        if batch.extinct[i]:
            record(element, 0.0, 0.0, 0.0)
        elif cfg.noisy:
            # tomographic objective, one sub-seed per recorded candidate
            rho_hat = measure(batch.outcome(i), cfg.source, cfg.detector, cfg.pulses,
                              derive_seed(cfg.seed, "cand", len(records)))
            record(element, float(batch.rate[i]), concurrence(rho_hat),
                   entropy_feedback(rho_hat))
        else:
            record(element, float(batch.rate[i]), float(batch.concurrence[i]),
                   float(batch.entropy_a[i]))

    if cfg.gamma_grid is not None:
        grid = cfg.gamma_grid
    elif pdl_a.gamma == 0:
        grid = (0.0,)
    else:
        grid = tuple(np.linspace(0.7 * pdl_a.gamma, 1.3 * pdl_a.gamma, 7))
    axes = fibonacci_sphere(cfg.sphere_points)
    lattice = [PdlElement(float(g), ax) for g in grid for ax in axes]
    batch = propagate(base, m_a[None], pdl_filters(lattice))
    for i, element in enumerate(lattice):
        record_row(element, batch, i)

    # polish: coordinate descent on (theta, phi, gamma) with interval halving.
    # Moves after an improving one must start from the improved point, so a
    # batch is recorded only up to its first improvement.
    ax = best_el.axis
    point = (float(np.arccos(np.clip(ax[2], -1, 1))), float(np.arctan2(ax[1], ax[0])),
             best_el.gamma)
    step_ang = np.sqrt(4 * np.pi / cfg.sphere_points)
    diffs = np.diff(sorted(set(grid)))
    step_g = float(diffs.max()) if diffs.size else 0.1 * max(pdl_a.gamma, 0.5)
    moves = [(coord, sign) for coord in range(3) for sign in (1.0, -1.0)]
    for _ in range(cfg.refine_iters):
        before = best_c
        steps = (step_ang, step_ang, step_g)
        k = 0
        while k < len(moves):
            points = []
            for coord, sign in moves[k:]:
                p = list(point)
                p[coord] += sign * steps[coord]
                if coord == 2:
                    p[2] = max(p[2], 0.0)
                points.append(tuple(p))
            trials = [PdlElement(g, axis_from_polar(th, ph)) for th, ph, g in points]
            batch = propagate(base, m_a[None], pdl_filters(trials))
            for i, trial in enumerate(trials):
                record_row(trial, batch, i)
                k += 1
                if best_el is trial:
                    point = points[i]
                    break
        if best_c - before < cfg.refine_tol:
            step_ang /= 2
            step_g /= 2
            if max(step_ang, step_g) < 1e-10:
                break

    return SearchResult(best=best_el, best_concurrence=best_c, evaluations=tuple(records))
