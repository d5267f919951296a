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

from . import verify as verify_mod
from .channels import (
    CANONICAL_AXIS,
    PdlElement,
    PmdElement,
    axis_from_polar,
    concat_pdls,
    gamma_from_db,
    pdl_filters,
    pdl_operator,
    pmd_dephase,
    propagate,
)
from .compensation import fibonacci_sphere
from .instrument import DetectorModel, calibrate_source, derive_seed, measure, source_state
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
        # source/detector ranges are enforced by their own constructors
        if self.pulses < 1:
            raise ValueError(f"tomo.pulses must be >= 1, got {self.pulses}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"run.seed must fit in 64 bits, got {self.seed}")


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
    """Parse a flat key=value file; '#' comments and blank lines are skipped."""
    overrides = {}
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
            overrides[field] = conv(value)
        except (KeyError, ValueError):
            raise ValueError(f"{path}:{lineno}: bad value {value!r} for {key}") from None
        try:  # the range check of this one field
            RunConfig(**{field: overrides[field]})
        except ValueError as err:
            raise ValueError(f"{path}:{lineno}: {err}") from None
    return RunConfig(**overrides)


def _source(cfg: RunConfig):
    return calibrate_source(cfg.c_b2b, cfg.hh_vv_ratio, mu=cfg.mu)


def _detector(cfg: RunConfig):
    return DetectorModel(efficiency=cfg.efficiency, dark_prob=cfg.dark_prob)


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".9g")


def _write_csv(path: Path, header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")
    return path


def _write_keyvals(path: Path, pairs):
    path.write_text("".join(f"{k}={_fmt(v)}\n" for k, v in pairs))
    return path


def _observer(cfg: RunConfig, label: str):
    """One command's reader of a channel batch, as the run reports its rows.

    `observe(batch, seed_indices)` raises ExtinctionError on an extinct row,
    else gives the `ChannelBatch` the run reports. Noiseless runs report the
    exact batch. Noisy runs report its tomographic estimate, with the same
    rates, the whole batch measured in one call with row i drawn from the
    sub-seed (label, seed_indices[i]), using source and detector models built
    once here.
    """
    src, det = (_source(cfg), _detector(cfg)) if cfg.noisy else (None, None)

    def observe(batch, seed_indices):
        batch.require_live()
        if cfg.noisy:
            seeds = [derive_seed(cfg.seed, label, k) for k in seed_indices]
            return measure(batch, src, det, cfg.pulses, seeds)
        return batch

    return observe


def _matrix_rows(rho, label=None):
    rows = []
    for i in range(rho.shape[0]):
        for j in range(rho.shape[1]):
            row = [i, j, rho[i, j].real, rho[i, j].imag]
            if label is not None:
                row.insert(0, label)
            rows.append(row)
    return rows


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
    src = _source(cfg)
    state = source_state(src)
    if cfg.noisy:
        state = measure(state, src, _detector(cfg), cfg.pulses, derive_seed(cfg.seed, "b2b", 0))
    rho = state.rho
    metrics = [
        ("concurrence", concurrence(rho)),
        ("purity", purity(rho)),
        ("fidelity", fidelity_to_pure(rho, bell_vector(BellKind.PHI_PLUS))),
        ("hh_vv_ratio", rho[0, 0].real / rho[3, 3].real),
    ]
    return [
        _write_csv(out_dir / "b2b_density_matrix.csv", ["i", "j", "re", "im"], _matrix_rows(rho)),
        _write_keyvals(out_dir / "b2b_metrics.txt", metrics),
    ]


def cmd_sweep_pdl(cfg: RunConfig, out_dir: Path, pdl_db_list, orientations_n: int) -> list[Path]:
    """Emulator magnitude x orientation sweep of the degraded source state.

    The sweep state is the rank-two Bell-diagonal state with the source's
    concurrence; arm A carries source PDL plus the emulator element, and the
    aggregate column is their concatenation. kappa is the orientation overlap
    of the two arm-A elements through the state.
    """
    src = _source(cfg)
    src_el = src.source_pdl
    base = bell_diagonal([cfg.c_b2b, -cfg.c_b2b, 1.0])
    t = correlation_of(base)
    axes = fibonacci_sphere(orientations_n)
    emulators = [(db, ax, PdlElement(gamma_from_db(db), ax)) for db in pdl_db_list for ax in axes]
    ems = [em for _, _, em in emulators]
    kappas = kappa(t, src_el.axis, [em.axis for em in ems])
    m_a = pdl_filters(ems) @ pdl_operator(src_el)
    batch = propagate(base, m_a, SIGMA0[None])
    aggs = concat_pdls([src_el] * len(ems), ems)
    seen = _observer(cfg, "sweep")(batch, range(len(ems)))
    cs = seen.concurrence
    rows = []
    for i, ((db, ax, _), agg) in enumerate(zip(emulators, aggs)):
        if not cfg.noisy and abs(cs[i] * np.cosh(agg.gamma) - cfg.c_b2b) > 1e-6:
            raise RuntimeError("sweep row violates the magnitude-only concurrence law")
        rows.append([
            db, ax[0], ax[1], ax[2], agg.gamma_db,
            kappas[i], cs[i], purity(seen.rho[i]), seen.rate[i],
        ])
    header = ["pdl_db_emulator", "ax1", "ax2", "ax3", "aggregate_pdl_db",
              "kappa", "concurrence", "purity", "rate"]
    return [_write_csv(out_dir / "sweep_pdl.csv", header, rows)]


def cmd_compensate(cfg: RunConfig, out_dir: Path, pdl_db: float, thetas, pmd_q: float) -> list[Path]:
    """Designed channel-B compensator vs emulator angle.

    Per angle: uncompensated and compensated concurrences (scaled to the
    measured baseline), the designed element, and both coincidence rates. Arm A
    aggregates source PDL and the emulator at angle theta from the source axis.
    """
    src = _source(cfg)
    src_el = src.source_pdl
    base, chain_c = _chain_state(pmd_q)
    scale = _baseline_scale(cfg, pmd_q, chain_c)
    t = correlation_of(base)
    ems = [PdlElement(gamma_from_db(pdl_db), axis_from_polar(th)) for th in thetas]
    aggs = concat_pdls([src_el] * len(ems), ems)
    plans = [design_compensator(agg, t) for agg in aggs]
    m_a = pdl_filters(ems) @ pdl_operator(src_el)
    uncompensated = propagate(base, m_a, SIGMA0[None])
    compensated = propagate(base, m_a, pdl_filters([plan.element for plan in plans]))
    observe = _observer(cfg, "compensate")
    # sub-seeds interleave: row i reads 2i uncompensated and 2i + 1 compensated
    cs_u = observe(uncompensated, range(0, 2 * len(ems), 2)).concurrence
    cs_c = observe(compensated, range(1, 2 * len(ems), 2)).concurrence
    rows = []
    for i, (th, em, agg, plan) in enumerate(zip(thetas, ems, aggs, plans)):
        c_u, c_c = cs_u[i], cs_c[i]
        rate_u, rate_c = uncompensated.rate[i], compensated.rate[i]
        if not cfg.noisy:
            if abs(c_u * np.cosh(agg.gamma) - chain_c) > 1e-6:
                raise RuntimeError("uncompensated row violates the magnitude-only law")
            # physical magnitudes, not the aggregate: the concatenated product
            # attenuates globally by exp(gamma_agg - gamma_s - gamma_em)
            total = src_el.gamma + em.gamma + plan.element.gamma
            if abs(rate_c * c_c - np.exp(-total) * chain_c) > 1e-9:
                raise RuntimeError("compensated row violates rate-concurrence conservation")
        ax_b = plan.element.axis
        rows.append([
            th, agg.gamma_db, scale * c_u, scale * c_c,
            plan.element.gamma_db, ax_b[0], ax_b[1], ax_b[2],
            rate_u, rate_c,
        ])
    header = ["theta", "aggregate_pdl_db", "c_uncompensated", "c_compensated",
              "gammaB_db", "axB1", "axB2", "axB3", "rate_uncomp", "rate_comp"]
    return [_write_csv(out_dir / "compensate.csv", header, rows)]


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
    axes = list(fibonacci_sphere(orientations_n))
    m = np.linalg.norm(t_a)
    axes.append(-t_a / m)
    axes.append(t_a / m)
    kappas = kappa(t, el_a.axis, axes)
    order = np.argsort(kappas, kind="stable")
    el_bs = [PdlElement(g, axes[ax_idx]) for ax_idx in order]
    batch = propagate(base, pdl_operator(el_a)[None], pdl_filters(el_bs))
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
    if not cfg.noisy and (np.abs(avg - np.exp(-2 * g)) > 1e-9).any():
        raise RuntimeError("tradeoff row violates rate-concurrence conservation")
    rows = zip(kappas, c_norm, seen.rate, avg)
    header = ["kappa", "concurrence_norm", "rate_norm", "avg_entanglement"]
    return [_write_csv(out_dir / "tradeoff.csv", header, rows)]


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
    picks = [("min", by_entropy[0]), ("median", by_entropy[len(by_entropy) // 2]),
             ("max", by_entropy[-1])]
    companion = []
    for label, idx in picks:
        companion.extend(_matrix_rows(reduced_qubit(seen.rho[idx], "A"), label=label))
    header = ["s_linear_A", "concurrence", "kappa"]
    return [
        _write_csv(out_dir / "entropy_feedback.csv", header, zip(entropies, concs, kappas)),
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
_PMD_Q = _number("dephasing weight", 0, 0.5)


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
    cp.add_argument("--pmd-q", type=_PMD_Q, default=0.0)

    tp = sub.add_parser("tradeoff", parents=[common], help="concurrence/rate envelope")
    tp.add_argument("--pdl-db", type=_PDL_DB, default=5.1)
    tp.add_argument("--orientations", type=_COUNT, default=64)
    tp.add_argument("--pmd-q", type=_PMD_Q, default=0.0)

    ep = sub.add_parser("entropy-feedback", parents=[common], help="marginal-entropy feedback sweep")
    ep.add_argument("--pdl-db", type=_PDL_DB, default=5.27)
    ep.add_argument("--orientations", type=_COUNT, default=64)
    ep.add_argument("--pmd-q", type=_PMD_Q, default=0.155)

    sub.add_parser("verify", parents=[common], help="run invariant suites")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = load_config(args.config) if args.config else RunConfig()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.noisy:
        cfg = dataclasses.replace(cfg, noisy=True)

    if args.command == "verify":
        return cmd_verify(args.seed if args.seed is not None else verify_mod.DEFAULT_SEED)

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
