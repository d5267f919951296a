"""Experiment runner: deterministic CSV datasets plus a verification command.

Subcommands mirror the bench protocols: `b2b` (calibrated source state),
`sweep-pdl` (single-channel degradation over the Poincare sphere),
`compensate` (designed channel-B element vs emulator angle), `tradeoff`
(concurrence/rate envelope at equal magnitudes), `entropy-feedback` (local
marginal entropy as a compensation feedback signal), and `verify` (invariant
suites). Reported concurrences for the compensation-family commands are scaled
from the ideal-chain baseline to the measured back-to-back baseline, which is
how the bench quotes them; state-level quantities stay unscaled in the library
modules. Every run is deterministic given config + seed; reruns are
byte-identical.
"""

import argparse
import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import theory, verify as verify_mod
from .channels import (
    CANONICAL_AXIS,
    PdlElement,
    PmdElement,
    axis_from_polar,
    concat_pdl,
    gamma_from_db,
    pdl_operator,
    pmd_dephase,
    propagate,
)
from .compensation import fibonacci_sphere
from .instrument import DetectorModel, Rig, calibrate_source, measure, source_state
from .qmath import (
    SIGMA0,
    BellKind,
    bell_diagonal,
    bell_state,
    bell_vector,
    concurrence,
    correlation_of,
    fidelity_to_pure,
    purity,
    reduced_qubit,
)
from .theory import design_compensator, kappa


@dataclass(frozen=True)
class RunConfig:
    """Run-wide knobs; file keys use the section.name form below."""

    c_b2b: float = 0.925
    hh_vv_ratio: float = 1.38
    mu: float = 0.01
    efficiency: float = 0.20
    dark_prob: float = 4e-5
    pulses: int = 1_000_000
    seed: int = 12345
    noisy: bool = False

    def __post_init__(self):
        if self.pulses < 1:
            raise ValueError(f"tomo.pulses must be >= 1, got {self.pulses}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"run.seed must fit in 64 bits, got {self.seed}")
        self.rig()  # the source and detector ranges, checked by their constructors

    def rig(self) -> Rig:
        """The tomography bench these knobs describe, for noisy runs and the source model."""
        return Rig(calibrate_source(self.c_b2b, self.hh_vv_ratio, mu=self.mu),
                   DetectorModel(efficiency=self.efficiency, dark_prob=self.dark_prob),
                   self.pulses, self.seed)


_CONFIG_KEYS = {
    "source.c_b2b": ("c_b2b", float),
    "source.hh_vv_ratio": ("hh_vv_ratio", float),
    "source.mu": ("mu", float),
    "det.efficiency": ("efficiency", float),
    "det.dark_prob": ("dark_prob", float),
    "tomo.pulses": ("pulses", int),
    "run.seed": ("seed", int),
    "run.noisy": ("noisy", lambda value: _BOOL_WORDS[value.lower()]),
}

_BOOL_WORDS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def load_config(path) -> RunConfig:
    """Parse a flat key=value file; '#' comments and blank lines are skipped.

    Values that fit together are accepted in any order. Otherwise the error
    quotes the first line at which the file's values so far, with defaults
    for the keys it sets later, stop fitting.
    """
    lines = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        field, conv = _CONFIG_KEYS[key]
        try:
            lines.append((lineno, field, conv(value)))
        except (KeyError, ValueError):
            raise ValueError(f"{path}:{lineno}: bad value {value!r} for {key}") from None
    try:
        return RunConfig(**{field: value for _, field, value in lines})
    except ValueError:
        pass
    so_far = {}
    for lineno, field, value in lines:  # the last line at the latest fails again
        so_far[field] = value
        try:
            RunConfig(**so_far)
        except ValueError as err:
            raise ValueError(f"{path}:{lineno}: {err}") from None


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".9g")


def _cells(column) -> list[str]:
    """One column's CSV fields: a float array in one pass, anything else through `_fmt`."""
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        return [format(x, ".9g") for x in column.tolist()]
    return [_fmt(v) for v in column]


_CSV_BLOCK = 512  # rows formatted and written at a time


def _write_csv(path: Path, header, columns):
    """Write equal-length columns under `header`, every field as `_fmt` gives it."""
    n = len(columns[0])
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for start in range(0, n, _CSV_BLOCK):
            block = [_cells(c[start:start + _CSV_BLOCK]) for c in columns]
            f.writelines(",".join(row) + "\n" for row in zip(*block))
    return path


def _write_keyvals(path: Path, pairs):
    path.write_text("".join(f"{k}={_fmt(v)}\n" for k, v in pairs))
    return path


def _observer(cfg: RunConfig, label: str):
    """One command's reader of a channel batch, as the run reports its rows.

    `observe(batch, indices)` raises ExtinctionError on an extinct row, else
    gives the `ChannelBatch` the run reports: `measure(batch, rig, label,
    indices)`, on the one rig built here for a noisy run (the tomographic
    estimate, with the same rates) and on no rig otherwise (the exact batch).
    """
    rig = cfg.rig() if cfg.noisy else None
    return lambda batch, indices: measure(batch.require_live(), rig, label, indices)


def _matrix_columns(rho) -> list:
    """Columns i, j, re, im over the entries of a matrix (n, n) or of a stack, row-major."""
    n = rho.shape[-1]
    ij = np.indices((n, n)).reshape(2, -1)
    i, j = np.tile(ij, rho.size // (n * n))
    entries = rho.reshape(-1)
    return [i, j, entries.real, entries.imag]


def _chain_state(pmd_q: float):
    """Ideal-chain input and its baseline concurrence for the protocol commands."""
    rho = bell_state(BellKind.PHI_PLUS)
    if pmd_q != 0:  # PmdElement rejects a weight outside [0, 0.5]
        rho = pmd_dephase(rho, PmdElement(pmd_q, CANONICAL_AXIS.copy()))
    return rho, concurrence(rho)


def _baseline_scale(cfg: RunConfig, pmd_q: float, chain_c: float) -> float:
    # PDL-only runs rescale the ideal chain to the measured B2B concurrence;
    # with PMD the dephasing already encodes the measured baseline (1 - 2q).
    target = cfg.c_b2b if pmd_q == 0 else chain_c
    return target / chain_c


def cmd_b2b(cfg: RunConfig, out_dir: Path) -> list[Path]:
    """Back-to-back source state: density matrix CSV plus summary metrics."""
    rho = _observer(cfg, "b2b")(source_state(cfg.rig().source), 0).rho
    metrics = [
        ("concurrence", concurrence(rho)),
        ("purity", purity(rho)),
        ("fidelity", fidelity_to_pure(rho, bell_vector(BellKind.PHI_PLUS))),
        ("hh_vv_ratio", rho[0, 0].real / rho[3, 3].real),
    ]
    return [
        _write_csv(out_dir / "b2b_density_matrix.csv", ["i", "j", "re", "im"],
                   _matrix_columns(rho)),
        _write_keyvals(out_dir / "b2b_metrics.txt", metrics),
    ]


# bounds of the noiseless rows' self-checks against the closed-form laws
MAGNITUDE_TOL = 1e-6
CONSERVATION_TOL = 1e-9


def cmd_sweep_pdl(cfg: RunConfig, out_dir: Path, pdl_db_list, orientations_n: int) -> list[Path]:
    """Emulator magnitude x orientation sweep of the degraded source state.

    The sweep state is the rank-two Bell-diagonal state with the source's
    concurrence; arm A carries source PDL plus the emulator element, and the
    aggregate column is their concatenation. kappa is the orientation overlap
    of the two arm-A elements through the state.
    """
    src_el = cfg.rig().source.source_pdl
    base = bell_diagonal([cfg.c_b2b, -cfg.c_b2b, 1.0])
    t = correlation_of(base)
    axes = fibonacci_sphere(orientations_n)
    raw = np.tile(axes, (len(pdl_db_list), 1))
    ems = PdlElement(np.repeat([gamma_from_db(db) for db in pdl_db_list], len(axes)), raw)
    kappas = kappa(t, src_el.axis, ems.axis)
    batch = propagate(base, pdl_operator(ems) @ pdl_operator(src_el), SIGMA0[None])
    aggs = concat_pdl(src_el, ems)
    seen = _observer(cfg, "sweep")(batch, range(len(raw)))
    if not cfg.noisy and (theory.magnitude_residual(seen.concurrence, aggs.gamma, cfg.c_b2b)
                          > MAGNITUDE_TOL):
        raise RuntimeError("sweep row violates the magnitude-only concurrence law")
    columns = [np.repeat(np.asarray(pdl_db_list, dtype=float), len(axes)), *raw.T,
               aggs.gamma_db, kappas, seen.concurrence, purity(seen.rho), seen.rate]
    header = ["pdl_db_emulator", "ax1", "ax2", "ax3", "aggregate_pdl_db",
              "kappa", "concurrence", "purity", "rate"]
    return [_write_csv(out_dir / "sweep_pdl.csv", header, columns)]


def cmd_compensate(cfg: RunConfig, out_dir: Path, pdl_db: float, thetas, pmd_q: float) -> list[Path]:
    """Designed channel-B compensator vs emulator angle.

    Per angle: uncompensated and compensated concurrences (scaled to the
    measured baseline), the designed element, and both coincidence rates. Arm A
    aggregates source PDL and the emulator at angle theta from the source axis.
    """
    src_el = cfg.rig().source.source_pdl
    base, chain_c = _chain_state(pmd_q)
    scale = _baseline_scale(cfg, pmd_q, chain_c)
    t = correlation_of(base)
    thetas = np.asarray(thetas, dtype=float)
    ems = PdlElement(gamma_from_db(pdl_db), axis_from_polar(thetas))
    aggs = concat_pdl(src_el, ems)
    plans = design_compensator(aggs, t)
    m_a = pdl_operator(ems) @ pdl_operator(src_el)
    uncompensated = propagate(base, m_a, SIGMA0[None])
    compensated = propagate(base, m_a, pdl_operator(plans.element))
    observe = _observer(cfg, "compensate")
    # sub-seeds interleave: row i reads 2i uncompensated and 2i + 1 compensated
    cs_u = observe(uncompensated, range(0, 2 * len(thetas), 2)).concurrence
    cs_c = observe(compensated, range(1, 2 * len(thetas), 2)).concurrence
    if not cfg.noisy:
        if theory.magnitude_residual(cs_u, aggs.gamma, chain_c) > MAGNITUDE_TOL:
            raise RuntimeError("uncompensated row violates the magnitude-only law")
        # physical magnitudes, not the aggregate: the concatenated product
        # attenuates globally by exp(gamma_agg - gamma_s - gamma_em)
        total = src_el.gamma + ems.gamma + plans.element.gamma
        if theory.conservation_residual(compensated.rate, cs_c, total, chain_c) > CONSERVATION_TOL:
            raise RuntimeError("compensated row violates rate-concurrence conservation")
    columns = [thetas, aggs.gamma_db, scale * cs_u, scale * cs_c, plans.element.gamma_db,
               *plans.element.axis.T, uncompensated.rate, compensated.rate]
    header = ["theta", "aggregate_pdl_db", "c_uncompensated", "c_compensated",
              "gammaB_db", "axB1", "axB2", "axB3", "rate_uncomp", "rate_comp"]
    return [_write_csv(out_dir / "compensate.csv", header, columns)]


def _orientation_rows(cfg, pdl_db, pmd_q, orientations_n, command_id):
    """Shared equal-magnitude arm-B orientation sweep for tradeoff/entropy runs.

    Appends the exact kappa = -/+ 1 orientations to the lattice so envelope
    endpoints are hit exactly. Returns the chain's baseline concurrence, arm
    A's magnitude, and the kappas and observed batch, both sorted by kappa.
    """
    base, chain_c = _chain_state(pmd_q)
    t = correlation_of(base)
    g = gamma_from_db(pdl_db)
    el_a = PdlElement(g, CANONICAL_AXIS.copy())
    t_a = t * el_a.axis
    m = np.linalg.norm(t_a)
    axes = np.vstack([fibonacci_sphere(orientations_n), -t_a / m, t_a / m])
    kappas = kappa(t, el_a.axis, axes)
    order = np.argsort(kappas, kind="stable")
    el_bs = PdlElement(g, axes[order])
    batch = propagate(base, pdl_operator(el_a)[None], pdl_operator(el_bs))
    seen = _observer(cfg, command_id)(batch, range(len(order)))
    return chain_c, g, kappas[order], seen


def cmd_tradeoff(cfg: RunConfig, out_dir: Path, pdl_db: float, orientations_n: int,
                 pmd_q: float) -> list[Path]:
    """Concurrence/rate envelope at equal arm magnitudes, normalized to no-PDL.

    gamma_B equals arm A's magnitude; the baseline is the zero-PDL run of the
    same chain state, so columns are directly comparable across magnitudes.
    """
    chain_c, g, kappas, seen = _orientation_rows(cfg, pdl_db, pmd_q, orientations_n, "tradeoff")
    c_norm = seen.concurrence / chain_c
    avg = c_norm * seen.rate
    # normalized rows: c0 = 1, and both arms carry g
    if not cfg.noisy and (theory.conservation_residual(seen.rate, c_norm, 2 * g, 1.0)
                          > CONSERVATION_TOL):
        raise RuntimeError("tradeoff row violates rate-concurrence conservation")
    header = ["kappa", "concurrence_norm", "rate_norm", "avg_entanglement"]
    return [_write_csv(out_dir / "tradeoff.csv", header, [kappas, c_norm, seen.rate, avg])]


def cmd_entropy_feedback(cfg: RunConfig, out_dir: Path, pdl_db: float, orientations_n: int,
                         pmd_q: float) -> list[Path]:
    """Qubit-A linear entropy vs concurrence along an arm-B orientation sweep.

    The companion file holds the qubit-A reduced matrices at the minimum,
    median, and maximum entropy rows.
    """
    chain_c, _, kappas, seen = _orientation_rows(cfg, pdl_db, pmd_q, orientations_n, "entropy")
    scale = _baseline_scale(cfg, pmd_q, chain_c)
    entropies, concs = seen.entropy_a, scale * seen.concurrence
    if not cfg.noisy and int(entropies.argmax()) != int(concs.argmax()):
        raise RuntimeError("entropy argmax does not match concurrence argmax")
    by_entropy = np.argsort(entropies, kind="stable")
    picks = by_entropy[[0, len(by_entropy) // 2, -1]]
    labels = [label for label in ("min", "median", "max") for _ in range(4)]
    companion = [labels, *_matrix_columns(reduced_qubit(seen.rho[picks], "A"))]
    header = ["s_linear_A", "concurrence", "kappa"]
    return [
        _write_csv(out_dir / "entropy_feedback.csv", header, [entropies, concs, kappas]),
        _write_csv(out_dir / "entropy_feedback_reduced.csv",
                   ["label", "i", "j", "re", "im"], companion),
    ]


def cmd_verify(seed: int) -> int:
    """Run all invariant suites; print one line each; nonzero exit on failure."""
    failures = 0
    for r in verify_mod.run_all(seed=seed):
        tag = "PASS" if r.passed else "FAIL"
        print(f"[{tag}] {r.name:26s} max_err={r.max_err:.3e} tol={r.tol:.0e} "
              f"cases={r.cases} ({r.runtime_s:.2f}s)")
        failures += 0 if r.passed else 1
    return 1 if failures else 0


def _number(what: str, lo: float = -np.inf, hi: float = np.inf, kind=float):
    """argparse type for a finite `kind` number in [lo, hi], named `what` in errors."""

    def parse(text: str):
        try:
            x = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad {what} {text!r}")
        if not (lo <= x <= hi and abs(x) < np.inf):  # fails for NaN
            raise argparse.ArgumentTypeError(f"{what} must be finite and in [{lo:g}, {hi:g}], got {text!r}")
        return x

    return parse


def _float_list(what: str, lo: float = -np.inf):
    """argparse type for a nonempty comma list of finite floats >= lo, named `what` in errors."""
    one = _number(what, lo)

    def parse(text: str):
        values = [one(v) for v in text.split(",") if v.strip() != ""]
        if not values:
            raise argparse.ArgumentTypeError(f"empty {what} list {text!r}")
        return values

    return parse


_COUNT = _number("count", 1, kind=int)
_SEED = _number("seed", 0, 2**64 - 1, kind=int)
_PDL_DB = _number("magnitude", 0)
_WEIGHT = _number("dephasing weight", 0, 0.5)
_MIN_CHAIN_C = 1e-5  # least chain concurrence 1 - 2q the protocol rows can be normalized by


def _pmd_q(text: str) -> float:
    """argparse type for the chain's dephasing weight, in [0, 0.5).

    The protocol commands divide concurrences, whose absolute error is near
    1e-16, by the chain concurrence 1 - 2q, so their 1e-9 row checks fail once
    it falls to about 1e-7 (q = 0.5 leaves none). Weights leaving less than
    _MIN_CHAIN_C are usage errors.
    """
    q = _WEIGHT(text)
    if 1 - 2 * q < _MIN_CHAIN_C:
        raise argparse.ArgumentTypeError(
            f"dephasing weight {text} leaves the chain state no entanglement to normalize by: "
            f"1 - 2q = {1 - 2 * q:.3g} is below {_MIN_CHAIN_C:g}")
    return q


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=None, help="key=value config file")
    common.add_argument("--out", type=Path, default=Path("."), help="output directory")
    common.add_argument("--seed", type=_SEED, default=None, help="master seed override")
    common.add_argument("--noisy", action="store_true", default=None,
                        help="tomography-noise mode")

    p = argparse.ArgumentParser(prog="pdlsim", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("b2b", parents=[common], help="back-to-back source state")

    sp = sub.add_parser("sweep-pdl", parents=[common], help="magnitude x orientation sweep")
    sp.add_argument("--pdl-db", type=_float_list("magnitude", 0), default=[1.25, 2.55, 3.7, 5.1, 6.3],
                    help="comma list of emulator magnitudes in dB")
    sp.add_argument("--orientations", type=_COUNT, default=50)

    cp = sub.add_parser("compensate", parents=[common], help="designed compensator vs angle")
    cp.add_argument("--pdl-db", type=_PDL_DB, default=5.1)
    cp.add_argument("--theta-count", type=_COUNT, default=25)
    cp.add_argument("--theta-list", type=_float_list("theta"), default=None,
                    help="explicit angles in radians (overrides --theta-count)")
    cp.add_argument("--pmd-q", type=_pmd_q, default=0.0)

    tp = sub.add_parser("tradeoff", parents=[common], help="concurrence/rate envelope")
    tp.add_argument("--pdl-db", type=_PDL_DB, default=5.1)
    tp.add_argument("--orientations", type=_COUNT, default=64)
    tp.add_argument("--pmd-q", type=_pmd_q, default=0.0)

    ep = sub.add_parser("entropy-feedback", parents=[common], help="marginal-entropy feedback sweep")
    ep.add_argument("--pdl-db", type=_PDL_DB, default=5.27)
    ep.add_argument("--orientations", type=_COUNT, default=64)
    ep.add_argument("--pmd-q", type=_pmd_q, default=0.155)

    vp = sub.add_parser("verify", help="run invariant suites")
    vp.add_argument("--seed", type=_SEED, default=verify_mod.DEFAULT_SEED, help="suite seed")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        return cmd_verify(args.seed)
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
    except (OSError, ValueError) as err:
        parser.error(str(err))
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.noisy:
        cfg = dataclasses.replace(cfg, noisy=True)

    out_dir = args.out
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.command == "b2b":
        paths = cmd_b2b(cfg, out_dir)
    elif args.command == "sweep-pdl":
        paths = cmd_sweep_pdl(cfg, out_dir, args.pdl_db, args.orientations)
    elif args.command == "compensate":
        thetas = args.theta_list
        if thetas is None:
            thetas = list(np.linspace(0.0, np.pi, args.theta_count))
        paths = cmd_compensate(cfg, out_dir, args.pdl_db, thetas, args.pmd_q)
    elif args.command == "tradeoff":
        paths = cmd_tradeoff(cfg, out_dir, args.pdl_db, args.orientations, args.pmd_q)
    else:
        paths = cmd_entropy_feedback(cfg, out_dir, args.pdl_db, args.orientations, args.pmd_q)
    for path in paths:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
