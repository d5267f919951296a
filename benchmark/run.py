"""pdlsim benchmark: one workload, timed end to end or traced per layer.

    python3 benchmark/run.py --workload search-exact --seed 1 --seconds 20 --trace 0

Run from the repository root. The program is imported from ./src, never from
an installed copy. The run repeats whole rounds of the workload's operations
until --seconds have passed, checks every round's outputs against the
benchmark's own reference computations, requires every round to reproduce
the first byte for byte, and prints one JSON object as its last line.
--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
alternates plain and traced rounds and reports the per-layer metrics.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "_out"
SETUP_PROBES = 5

_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import pathlib, workloads
workloads.WORKLOADS[{name!r}]({seed!r}, pathlib.Path({out!r}))
print(time.perf_counter() - t0)
"""


def import_program():
    """Import pdlsim from this checkout's src; exit without a result if absent."""
    sys.path.insert(0, str(SRC))
    try:
        import pdlsim
    except ImportError as exc:
        sys.exit(f"cannot import pdlsim from {SRC}: {exc}")
    if SRC.resolve() not in Path(pdlsim.__file__).resolve().parents:
        sys.exit(f"pdlsim was imported from {pdlsim.__file__}, not from {SRC}")


def setup_seconds(name: str, seed: int, out: Path) -> list[float]:
    """Fresh interpreters that import pdlsim and build the workload's inputs."""
    code = _PROBE.format(src=str(SRC), bench=str(BENCH_DIR), name=name, seed=seed, out=str(out))
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


@dataclass
class Round:
    times: dict
    failed: int
    errors: list
    digest: str
    states: int
    layer: dict | None


def wall(rounds: list[Round]) -> float:
    """Time to complete one round: each operation's median over the rounds, summed.

    Per-operation medians keep a burst of contention in one round from
    moving the figure, however the burst falls across operations.
    """
    return sum(statistics.median(r.times[label] for r in rounds) for label in rounds[0].times)


def run_round(workload, spans, tracer=None) -> Round:
    workload.prepare()
    patches = spans.install(tracer) if tracer is not None else []
    outputs, times, failed = {}, {}, 0
    try:
        for label, op in workload.operations():
            t0 = time.perf_counter()
            try:
                outputs[label] = op()
            except Exception as exc:  # a raising operation counts as failed; the run goes on
                outputs[label] = None
                failed += 1
                print(f"{workload.name} {label} failed: {exc!r}", file=sys.stderr)
            times[label] = time.perf_counter() - t0
    finally:
        spans.uninstall(patches)
    layer = None
    if tracer is not None:
        layer = tracer.metrics()
        layer.update(workload.round_stats(outputs))
        if workload.name == "cli-protocols":
            layer.update({f"cli.{label}.s": t for label, t in times.items()})
    return Round(times, failed, workload.check(outputs), workload.digest(outputs),
                 workload.states(outputs), layer)


def per_layer(traced: list[Round], plain: list[Round], spec: dict) -> tuple[dict, list]:
    errors = []
    values = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name == "trace.overhead_s":
            continue
        seen = [r.layer.get(name, 0.0 if name.startswith("cli.") else None) for r in traced]
        if any(v is None for v in seen):
            raise KeyError(f"per-layer metric {name} was not produced")
        if m["unit"] == "s":
            values[name] = statistics.median(seen)
        else:
            if len(set(seen)) != 1:
                errors.append(f"{name} differs between traced rounds: {seen}")
            values[name] = seen[0]
    produced = set().union(*(r.layer for r in traced))
    declared = {m["name"] for m in spec["per_layer"]}
    if produced - declared:
        raise KeyError(f"undeclared per-layer metrics {sorted(produced - declared)}")
    values["trace.overhead_s"] = wall(traced) - wall(plain)
    return values, errors


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")

    import_program()
    import spans
    import workloads

    OUT.mkdir(parents=True, exist_ok=True)
    out = OUT / f"{args.workload}-{os.getpid()}"
    try:
        setup = [] if args.trace else setup_seconds(args.workload, args.seed, out)
        workload = workloads.WORKLOADS[args.workload](args.seed, out)
        rounds = []
        deadline = time.perf_counter() + args.seconds
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            tracer = spans.Tracer() if traced else None
            rounds.append(run_round(workload, spans, tracer))
            if time.perf_counter() >= deadline and (not args.trace or traced):
                break
        errors = [e for r in rounds for e in r.errors]
        if any(r.digest != rounds[0].digest for r in rounds):
            errors.append("outputs differ between rounds of the same seed")
        if args.trace:
            plain = [r for r in rounds if r.layer is None]
            traced_rounds = [r for r in rounds if r.layer is not None]
            values, layer_errors = per_layer(traced_rounds, plain, spec)
            errors += layer_errors
            tracer.write(OUT / f"trace-{args.workload}.csv")
            metrics = spec["per_layer"]
        else:
            values = {
                "setup_s": statistics.median(setup),
                "wall_s": wall(rounds),
                "states_per_s": statistics.median(r.states for r in rounds) / wall(rounds),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            metrics = spec["end_to_end"]
    finally:
        shutil.rmtree(out, ignore_errors=True)

    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    ops = len(rounds[0].times)
    result = {
        "correct": not errors,
        "attempted": ops * len(rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                    for m in metrics},
    }
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds of {ops} operations",
          file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
