"""Search for the channel-B PDL element that best restores entanglement.

Mirrors the experimental protocol: place a candidate PDL element in arm B,
measure (or compute) the resulting concurrence, and keep the best orientation
and magnitude. The coarse stage scans a Fibonacci sphere lattice crossed with a
magnitude grid, one stacked `PdlElement`, in one `propagate` call; a
coordinate-descent stage with interval halving then polishes the winner. Each
refine trial starts from the best point so far, and until a trial improves
every later one is known: the rest of its sweep, then whole sweeps from the
same point with halved steps. So a refine batch stacks that plan, up to
`REFINE_LOOKAHEAD` sweeps past the current one, into one element and one
`propagate` call, keeps its rows in order up to the first improvement, and
plans the next batch from the new point: the trace is the one a
trial-at-a-time loop gives, whatever the look-ahead. The kept rows of every
call are joined once, at the end, into a `Trace`: read-only arrays of the
candidates' magnitudes, axes, objectives, rates and qubit-A entropies, whose
row i is the `Trace` `trace[i]`. The base state is wrapped as one
`ChannelBatch` that every kernel call shares, so an exact search makes one
Wootters call, on its base, and the arm-A filter as one `FilterStack`, so it
is checked trace-nonincreasing once. When the config holds a `Rig`, the
kernel's batch is replaced by the one `measure(batch, rig, "cand", indices)`
estimates from it, read the same way: each kernel call's live rows are
measured in one call, row i at the trace index it is recorded at, so a row
dropped after an improvement costs one measurement and the trace is the one
a candidate-by-candidate loop gives.
"""

from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

from .channels import (
    ChannelBatch,
    FilterStack,
    PdlElement,
    PmdElement,
    _check_gamma,
    axis_from_polar,
    pdl_operator,
    pmd_dephase,
    propagate,
)
from .instrument import Rig, _check_count, measure
from .qmath import check_state

REFINE_TOL = 1e-6  # a refine sweep gaining less than this halves the steps
REFINE_LOOKAHEAD = 2  # sweeps a refine batch plans past the current one


@dataclass(frozen=True)
class SearchConfig:
    """Grid density, refinement control, and the rig that measures a noisy objective.

    The counts go through `instrument._check_count`, and gamma_grid, a nonempty
    1-D list stored as a tuple of floats, through `channels._check_gamma`.
    """

    sphere_points: int = 128
    gamma_grid: tuple[float, ...] | None = None
    refine_iters: int = 40
    rig: Rig | None = None  # None: the exact concurrence

    def __post_init__(self):
        for name, least in (("sphere_points", 32), ("refine_iters", 0)):
            _check_count(name, getattr(self, name), least)
        if self.gamma_grid is not None:
            grid = _check_gamma(self.gamma_grid, "gamma_grid")
            if grid.ndim != 1 or grid.size == 0:
                raise ValueError(f"gamma_grid must be a nonempty list of magnitudes, "
                                 f"got shape {grid.shape}")
            object.__setattr__(self, "gamma_grid", tuple(grid.tolist()))


@dataclass(frozen=True, eq=False)
class Trace(Sequence):
    """The ordered evaluation trace: one row per candidate, held as read-only arrays.

    gamma (N,) and axis (N, 3) are the candidate elements as the search
    stacked them; concurrence, rate and linear_entropy_a (N,) are each
    candidate's objective, rate and qubit-A linear entropy (0s if extinct).
    `trace[i]` is row i as a `Trace` of numpy scalars and a (3,) axis view,
    and a slice the `Trace` of those rows, as `PdlElement` indexes a stack.
    """

    gamma: np.ndarray
    axis: np.ndarray
    concurrence: np.ndarray
    rate: np.ndarray
    linear_entropy_a: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            getattr(self, f.name).setflags(write=False)

    def __len__(self) -> int:
        return len(self.gamma)

    def __getitem__(self, index) -> "Trace":
        return Trace(*(getattr(self, f.name)[index] for f in fields(self)))

    @property
    def element(self) -> PdlElement:
        """The candidate elements as stored: the whole stack, or row i's element."""
        return PdlElement._stored(self.gamma, self.axis)


@dataclass(frozen=True)
class SearchResult:
    """Winning candidate plus the full ordered evaluation trace."""

    best: PdlElement
    best_concurrence: float
    evaluations: Trace


def fibonacci_sphere(n: int) -> np.ndarray:
    """n near-uniform unit vectors (golden-angle spiral), rows on the sphere."""
    _check_count("n", n, 1)
    i = np.arange(n)
    z = 1 - (2 * i + 1) / n
    r = np.sqrt(np.clip(1 - z * z, 0, None))
    th = np.pi * (3 - np.sqrt(5)) * i
    return np.column_stack([r * np.cos(th), r * np.sin(th), z])


def optimize_compensator(
    pdl_a: PdlElement,
    base: np.ndarray,
    cfg: SearchConfig,
    pmd_a: PmdElement | None = None,
) -> SearchResult:
    """Best channel-B PDL element against the (optionally noisy) concurrence.

    The state entering the channels is `base`, dephased by `pmd_a` when given;
    `pdl_a` is the aggregate arm-A PDL, one element. Candidates are evaluated
    in a fixed deterministic order; ties keep the earliest candidate.
    Extinction candidates stay in the trace with objective 0.
    """
    if np.ndim(pdl_a.gamma) != 0:
        raise ValueError(f"pdl_a must be one element, got a stack of shape {np.shape(pdl_a.gamma)}")
    base = check_state(base)
    if pmd_a is not None:
        base = pmd_dephase(base, pmd_a)
    base = ChannelBatch(base, 1.0)  # shared by every kernel call: one Wootters call
    m_a = FilterStack(pdl_operator(pdl_a)[None], "m_a")  # checked once, here

    kept = []  # per kernel call: the columns of its recorded rows, in trace order
    recorded = 0

    def evaluate(elements: PdlElement) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Objectives, rates and S_A of a stack of elements in one kernel call, 0s if extinct."""
        batch = propagate(base, m_a, pdl_operator(elements))
        # row i would be recorded at trace index recorded + i
        batch = measure(batch, cfg.rig, "cand", range(recorded, recorded + len(batch.rate)))
        return batch.concurrence, np.where(batch.extinct, 0.0, batch.rate), batch.entropy_a

    def record(elements: PdlElement, columns, n: int) -> None:
        """Keep the first n rows of one kernel call."""
        nonlocal recorded
        kept.append([elements.gamma[:n], elements.axis[:n], *(c[:n] for c in columns)])
        recorded += n

    if cfg.gamma_grid is not None:
        grid = cfg.gamma_grid
    elif pdl_a.gamma == 0:
        grid = (0.0,)
    else:
        grid = tuple(np.linspace(0.7 * pdl_a.gamma, 1.3 * pdl_a.gamma, 7))
    axes = fibonacci_sphere(cfg.sphere_points)
    lattice = PdlElement(np.repeat(grid, len(axes)), np.tile(axes, (len(grid), 1)))
    columns = evaluate(lattice)
    record(lattice, columns, len(lattice.gamma))
    first = int(np.argmax(columns[0]))  # the first maximum: ties keep the earliest
    best_c, best_el = float(columns[0][first]), lattice[first]

    # polish: coordinate descent on (theta, phi, gamma) with interval halving.
    # A refine state is (move index, sweep, angle step, gamma step, best at
    # the sweep's start); moves after an improving one start from the
    # improved point.
    ax = best_el.axis
    point = (float(np.arccos(np.clip(ax[2], -1, 1))), float(np.arctan2(ax[1], ax[0])),
             best_el.gamma)
    step_ang = np.sqrt(4 * np.pi / cfg.sphere_points)
    diffs = np.diff(sorted(set(grid)))
    step_g = float(diffs.max()) if diffs.size else 0.1 * max(pdl_a.gamma, 0.5)
    moves = [(coord, sign) for coord in range(3) for sign in (1.0, -1.0)]

    def after(state, best):
        """The state after the move at `state`, with `best` the best so far, or None at the end.

        A sweep's last move starts the next sweep, halving both steps when the
        sweep gained less than REFINE_TOL; the search stops after
        `refine_iters` sweeps or once both steps fall below 1e-10.
        """
        k, sweep, step_ang, step_g, before = state
        if k + 1 < len(moves):
            return k + 1, sweep, step_ang, step_g, before
        if best - before < REFINE_TOL:
            step_ang, step_g = step_ang / 2, step_g / 2
            if max(step_ang, step_g) < 1e-10:
                return None
        return (0, sweep + 1, step_ang, step_g, best) if sweep + 1 < cfg.refine_iters else None

    # Each batch holds the moves that follow if none improves: the rest of
    # this sweep and REFINE_LOOKAHEAD more. It is recorded up to its first
    # improvement, and the next batch is planned from the state after it.
    state = (0, 0, step_ang, step_g, best_c) if cfg.refine_iters else None
    while state is not None:
        plan, last = [], state[1] + REFINE_LOOKAHEAD
        while state is not None and state[1] <= last:
            plan.append(state)
            state = after(state, best_c)
        points = []
        for k, _, move_ang, move_g, _ in plan:
            coord, sign = moves[k]
            p = list(point)
            p[coord] += sign * (move_g if coord == 2 else move_ang)
            if coord == 2:
                p[2] = max(p[2], 0.0)
            points.append(tuple(p))
        th, ph, g = np.array(points).T
        trials = PdlElement(g, axis_from_polar(th, ph))
        columns = evaluate(trials)
        # without an improvement, `state` is already the one after the plan
        n, improved = len(plan), np.flatnonzero(columns[0] > best_c)
        if improved.size:
            i = int(improved[0])
            best_c, best_el, point = float(columns[0][i]), trials[i], points[i]
            state, n = after(plan[i], best_c), i + 1
        record(trials, columns, n)

    trace = Trace(*(np.concatenate(column) for column in zip(*kept)))
    return SearchResult(best=best_el, best_concurrence=best_c, evaluations=trace)
