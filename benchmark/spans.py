"""Spans around calls into pdlsim's public functions, installed from outside.

pdlsim modules bind one another's functions by name (`from .qmath import
concurrence`), so `install` replaces every binding of a traced function in
every loaded pdlsim module, tuples of functions included (`verify.ALL_SUITES`),
and `uninstall` puts the originals back. A span's self time is its duration
minus the durations of the traced calls made directly inside it.
"""

import functools
import statistics
import sys
import time
from collections import Counter, defaultdict

from pdlsim import verify

TRACED = {
    "qmath": ("concurrence", "check_state"),
    "channels": ("apply_local", "pdl_operator", "concat_pdl", "pmd_dephase"),
    "theory": ("design_compensator", "predicted_concurrence", "kappa"),
    "instrument": ("simulate_counts", "reconstruct", "project_physical"),
    "compensation": ("optimize_compensator",),
}
# optimize_compensator's lattice stage scans this many magnitudes unless the
# config gives its own grid (one magnitude when arm A is lossless)
DEFAULT_GRID_POINTS = 7
EXTRA = (
    "instrument.settings_simulated",
    "compensation.evaluations",
    "compensation.lattice_evaluations",
    "compensation.refine_evaluations",
    "compensation.improving",
    "verify.cases",
)


class Tracer:
    """Spans and per-function tallies of one traced round, kept in memory."""

    def __init__(self):
        self.spans = []  # (name, parent span index or -1, start, end)
        self._open = []  # [span index, summed child duration] of open spans
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.extra = Counter(dict.fromkeys(EXTRA, 0))
        self.search_s = []
        self.suite_s = {}

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._open[-1][0] if self._open else -1
            frame = [idx, 0.0]
            self._open.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._open.pop()
                dur = t1 - t0
                if self._open:
                    self._open[-1][1] += dur
                self.spans[idx] = (name, parent, t0, t1)
                self.calls[name] += 1
                self.self_s[name] += dur - frame[1]
            self._observe(name, args, kwargs, result, dur)
            return result

        return traced

    def _observe(self, name, args, kwargs, result, dur):
        if name == "instrument.simulate_counts":
            settings = args[1] if len(args) > 1 else kwargs["settings"]
            self.extra["instrument.settings_simulated"] += len(settings)
        elif name == "compensation.optimize_compensator":
            pdl_a, cfg = args[0], args[2]
            grid = len(cfg.gamma_grid) if cfg.gamma_grid is not None else (
                DEFAULT_GRID_POINTS if pdl_a.gamma > 0 else 1)
            n = len(result.evaluations)
            lattice = min(n, grid * cfg.sphere_points)
            best, improving = -1.0, 0
            for r in result.evaluations:
                if r.concurrence > best:
                    best, improving = r.concurrence, improving + 1
            self.extra["compensation.evaluations"] += n
            self.extra["compensation.lattice_evaluations"] += lattice
            self.extra["compensation.refine_evaluations"] += n - lattice
            self.extra["compensation.improving"] += improving
            self.search_s.append(dur)
        elif name.startswith("verify."):
            self.suite_s[f"verify.{result.name}.s"] = dur
            self.extra["verify.cases"] += result.cases

    def metrics(self) -> dict:
        """Per-layer values of this round; metrics of layers not reached read 0."""
        out = {}
        for mod, names in TRACED.items():
            for fn in names:
                key = f"{mod}.{fn}"
                out[f"{key}.calls"] = self.calls[key]
                out[f"{key}.self_s"] = self.self_s[key]
        out.update(self.extra)
        evaluations = self.extra["compensation.evaluations"]
        out["compensation.improving_ratio"] = (
            out.pop("compensation.improving") / evaluations if evaluations else 0.0)
        out["compensation.search_p50_s"] = (
            statistics.median(self.search_s) if self.search_s else 0.0)
        for suite in verify.ALL_SUITES:
            out.setdefault(f"verify.{_suite_name(suite)}.s", 0.0)
        out.update(self.suite_s)
        return out

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("name,parent,start_s,end_s\n")
            t0 = self.spans[0][2] if self.spans else 0.0
            for name, parent, start, end in self.spans:
                fh.write(f"{name},{parent},{start - t0:.9f},{end - t0:.9f}\n")


def _suite_name(fn) -> str:
    return fn.__name__.replace("_", "-")


def install(tracer: Tracer) -> list:
    """Route every pdlsim binding of a traced function through the tracer.

    Returns the replaced bindings for `uninstall`.
    """
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "pdlsim" or n.startswith("pdlsim."))]
    wrappers = {}  # id(original) -> wrapper; ids stay valid while the modules hold them
    for mod, names in TRACED.items():
        module = sys.modules[f"pdlsim.{mod}"]
        for fn_name in names:
            fn = getattr(module, fn_name)
            wrappers[id(fn)] = tracer.wrap(f"{mod}.{fn_name}", fn)
    for suite in verify.ALL_SUITES:
        wrappers[id(suite)] = tracer.wrap(f"verify.{suite.__name__}", suite)
    patches = []
    for module in modules:
        for attr, val in list(vars(module).items()):
            if id(val) in wrappers:
                new = wrappers[id(val)]
            elif isinstance(val, tuple) and any(id(v) in wrappers for v in val):
                new = tuple(wrappers.get(id(v), v) for v in val)
            else:
                continue
            setattr(module, attr, new)
            patches.append((module, attr, val))
    return patches


def uninstall(patches: list) -> None:
    for module, attr, val in reversed(patches):
        setattr(module, attr, val)
