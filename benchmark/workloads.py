"""The two benchmark workloads: inputs made from the seed, operations, checks.

A workload is built once per run (its set-up), then run in rounds. Every round
performs the same operations on the same inputs, so outputs must repeat byte
for byte; `digest` fingerprints them. `check` compares one round's outputs
with computations from `reference`, never with pdlsim itself, and returns a
list of failure messages (empty when every output is right).
"""

import contextlib
import csv
import hashlib
import io
import re
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from pdlsim import channels, cli, compensation, qmath

import reference as ref

# Source element: the HH/VV = 1.38 imbalance of the calibrated source, 1.40 dB along s3.
GAMMA_S = float(np.log(1.38) / 2)
C_B2B = 0.925
PMD_Q = 0.155
S3 = np.array([0.0, 0.0, 1.0])

# CSVs carry %.9g, so a noiseless value sits within 5e-9 of its closed form
# relative to max(1, |value|); 1e-8 leaves room for the reference's own rounding.
EXACT_TOL = 1e-8
# An independent Wootters route differs from the program's clamped one by ~1e-8
# on rank-2 states.
ROUTE_TOL = 1e-7
# Search optimum window [C* - SEARCH_TOL, C* + 1e-9]: no candidate beats C*.
SEARCH_TOL = 1e-3
SEARCH_OVERSHOOT = 1e-9
# Noisy CSV concurrences against their closed forms: each row, and the mean
# over a file. Over 12 seeds the worst row was 0.18 off and the worst file
# mean -0.057 (projection bias pulls means low, most at high loss).
NOISY_ROW_TOL = 0.3
NOISY_MEAN_TOL = 0.1


def sub_rng(seed: int, *labels) -> np.random.Generator:
    """Generator keyed by the workload seed and labels, independent of call order."""
    return np.random.default_rng(sub_seed(seed, *labels))


def sub_seed(seed: int, *labels) -> int:
    payload = ":".join(map(str, ("pdlsim-bench", seed, *labels))).encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big") >> 1


def sphere_axis(rng: np.random.Generator) -> np.ndarray:
    """Uniform random unit axis."""
    return ref.polar_axis(float(np.arccos(rng.uniform(-1.0, 1.0))), float(rng.uniform(0, 2 * np.pi)))


def _worst(got, want) -> float:
    """Largest deviation relative to max(1, |want|); inf when the shapes differ."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return float("inf")
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want)), initial=0.0))


def _close(got, want, tol=EXACT_TOL) -> bool:
    return _worst(got, want) <= tol


# ---------------------------------------------------------------- searches


@dataclass(frozen=True, eq=False)
class SearchProblem:
    """Arm A: source element then an emulator element; optional PMD on arm A."""

    label: str
    emulator_db: float
    emulator_axis: np.ndarray
    pmd_q: float = 0.0

    @property
    def gamma_e(self) -> float:
        return self.emulator_db / ref.DB_PER_NEPER

    def expected(self):
        """(gamma_A, arm-A axis, correlation triple, c0, m, C*) from the reference laws."""
        g_a = ref.aggregate_gamma(GAMMA_S, self.gamma_e, float(self.emulator_axis[2]))
        axis_a = ref.aggregate_axis(GAMMA_S, S3, self.gamma_e, self.emulator_axis)
        t = ref.dephased_t(self.pmd_q)
        c0 = 1 - 2 * self.pmd_q
        m = float(np.linalg.norm(t * axis_a))
        return g_a, axis_a, t, c0, m, ref.optimum(c0, g_a, m)

    def true_concurrence(self, element) -> float:
        """Concurrence the chosen arm-B element really gives, by the reference route."""
        g_a, axis_a, t, _, _, _ = self.expected()
        rho, _ = ref.filtered(
            ref.bell_diagonal(t),
            ref.jones_filter(g_a, axis_a),
            ref.jones_filter(element.gamma, element.axis),
        )
        return ref.wootters(rho)


def search_digest(result) -> bytes:
    h = hashlib.sha256()
    for r in result.evaluations:
        h.update(np.array([r.element.gamma, *r.element.axis, r.concurrence, r.rate,
                           r.linear_entropy_a]).tobytes())
    h.update(np.array([result.best.gamma, *result.best.axis, result.best_concurrence]).tobytes())
    return h.digest()


class SearchExact:
    """Noiseless compensator search on |phi+>, with and without PMD dephasing.

    A round runs one search per problem.
    """

    name = "search-exact"

    def __init__(self, seed: int, out_dir: Path):
        problems = []
        for db in (2.55, 5.1, 6.3):
            for k in range(2):
                axis = sphere_axis(sub_rng(seed, self.name, db, k))
                problems.append(SearchProblem(f"phi+/{db}dB/{k}", db, axis))
        rng = sub_rng(seed, self.name, "pmd")
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        problems.append(SearchProblem("pmd/aligned", 5.1, sign * S3, PMD_Q))
        theta = float(rng.uniform(np.pi / 4, 3 * np.pi / 4))
        misaligned = ref.polar_axis(theta, float(rng.uniform(0, 2 * np.pi)))
        problems.append(SearchProblem("pmd/misaligned", 5.1, misaligned, PMD_Q))
        self.problems = problems
        cfg = compensation.SearchConfig()
        self.inputs = [self._inputs(p, cfg) for p in problems]

    @staticmethod
    def _inputs(problem: SearchProblem, cfg):
        agg = channels.concat_pdl(
            channels.PdlElement(GAMMA_S),
            channels.PdlElement(problem.gamma_e, problem.emulator_axis),
        )
        pmd = channels.PmdElement(problem.pmd_q) if problem.pmd_q else None
        return agg, qmath.bell_state(qmath.BellKind.PHI_PLUS), cfg, pmd

    def prepare(self):
        pass

    def operations(self):
        return [(p.label, self._op(args)) for p, args in zip(self.problems, self.inputs)]

    @staticmethod
    def _op(args):
        # looked up at call time so the traced run reaches the wrapper
        return lambda: compensation.optimize_compensator(*args)

    def states(self, outputs) -> int:
        return sum(len(r.evaluations) for r in outputs.values() if r is not None)

    def digest(self, outputs) -> str:
        h = hashlib.sha256()
        for label, r in outputs.items():
            h.update(label.encode())
            h.update(search_digest(r) if r is not None else b"failed")
        return h.hexdigest()

    def round_stats(self, outputs) -> dict:
        return {}

    def check(self, outputs) -> list[str]:
        return check_exact_searches(self.problems, outputs)


def check_exact_searches(problems, outputs) -> list[str]:
    errors = []
    for p in problems:
        r = outputs.get(p.label)
        if r is None:
            continue
        *_, c_star = p.expected()
        c = r.best_concurrence
        if not c_star - SEARCH_TOL <= c <= c_star + SEARCH_OVERSHOOT:
            errors.append(f"{p.label}: best concurrence {c!r} outside [C*-{SEARCH_TOL}, C*+"
                          f"{SEARCH_OVERSHOOT}] with C* = {c_star!r}")
        c_true = p.true_concurrence(r.best)
        if abs(c_true - c) > ROUTE_TOL:
            errors.append(f"{p.label}: chosen element gives {c_true!r}, search reported {c!r}")
    return errors


# ---------------------------------------------------------------- CLI


VERIFY_CASES = {
    "oracle-equivalence": 1000,
    "rate-conservation": 400,
    "orientation-independence": 500,
    "equivalence-mapping": 400,
    "concatenation-law": 1000,
    "compensation-optimality": 1002,
    "tomography-roundtrip": 40,
    "envelope-bounds": 604,
}
_VERIFY_LINE = re.compile(
    r"\[(PASS|FAIL)\] (\S+)\s+max_err=(\S+) tol=(\S+) cases=(\d+) \(([0-9.]+)s\)"
)


@dataclass(frozen=True)
class Invocation:
    name: str
    argv: tuple[str, ...]
    noisy: bool
    params: dict


def read_csv(path: Path):
    """Columns by header name, and the row count; numeric columns as float arrays."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    cols = {}
    for j, name in enumerate(header):
        vals = [row[j] for row in body]
        try:
            cols[name] = np.array([float(v) for v in vals])
        except ValueError:
            cols[name] = vals
    return cols, len(body)


def _fmt_list(values) -> str:
    return ",".join(f"{v:.12g}" for v in values)


class CliProtocols:
    """Every subcommand through `pdlsim.cli.main`, noiseless enlarged then noisy."""

    name = "cli-protocols"
    ORIENTATIONS = 400
    ANGLES = 400

    def __init__(self, seed: int, out_dir: Path):
        self.out_dir = out_dir
        rng = sub_rng(seed, self.name)
        sweep_db = [round(float(x), 2) for x in rng.uniform(0.5, 7.0, 5)]
        comp_db = round(float(rng.uniform(2.0, 7.0)), 2)
        thetas = np.sort(rng.uniform(0.0, np.pi, self.ANGLES))
        trade_db = round(float(rng.uniform(1.0, 7.0)), 2)
        ent_db = round(float(rng.uniform(1.0, 7.0)), 2)
        noisy_seed = str(sub_seed(seed, self.name, "noisy"))
        n = str(self.ORIENTATIONS)
        theta_arg = _fmt_list(thetas)
        plans = [
            ("b2b", ["b2b"], {}),
            ("sweep-pdl", ["sweep-pdl", "--pdl-db", _fmt_list(sweep_db), "--orientations", n],
             {"pdl_db": sweep_db, "orientations": self.ORIENTATIONS}),
            ("compensate", ["compensate", "--pdl-db", str(comp_db), "--theta-list", theta_arg],
             {"pdl_db": comp_db, "pmd_q": 0.0, "thetas": thetas}),
            ("compensate-pmd", ["compensate", "--pdl-db", str(comp_db), "--theta-list", theta_arg,
                                "--pmd-q", str(PMD_Q)],
             {"pdl_db": comp_db, "pmd_q": PMD_Q, "thetas": thetas}),
            ("tradeoff", ["tradeoff", "--pdl-db", str(trade_db), "--orientations", n],
             {"pdl_db": trade_db, "pmd_q": 0.0, "orientations": self.ORIENTATIONS}),
            ("entropy-feedback", ["entropy-feedback", "--pdl-db", str(ent_db), "--orientations", n],
             {"pdl_db": ent_db, "pmd_q": PMD_Q, "orientations": self.ORIENTATIONS}),
        ]
        # the noisy pass keeps the subcommands' default sizes and magnitudes
        defaults = {
            "b2b": {},
            "sweep-pdl": {"pdl_db": [1.25, 2.55, 3.7, 5.1, 6.3], "orientations": 50},
            "compensate": {"pdl_db": 5.1, "pmd_q": 0.0, "thetas": np.linspace(0, np.pi, 25)},
            "compensate-pmd": {"pdl_db": 5.1, "pmd_q": PMD_Q,
                               "thetas": np.linspace(0, np.pi, 25)},
            "tradeoff": {"pdl_db": 5.1, "pmd_q": 0.0, "orientations": 64},
            "entropy-feedback": {"pdl_db": 5.27, "pmd_q": PMD_Q, "orientations": 64},
        }
        invocations = [Invocation(name, tuple(argv), False, params) for name, argv, params in plans]
        for name, argv, _ in plans:
            argv = [argv[0], "--noisy", "--seed", noisy_seed]
            if name == "compensate-pmd":
                argv += ["--pmd-q", str(PMD_Q)]
            invocations.append(Invocation(name + ".noisy", tuple(argv), True, defaults[name]))
        # verify runs at its own default seed: on some other seeds its
        # rate-conservation suite fails (see the FOUND line on it in CHANGES.md)
        invocations.append(Invocation("verify", ("verify",), False, {}))
        self.invocations = invocations

    def _dir(self, inv: Invocation) -> Path:
        return self.out_dir / inv.name

    def prepare(self):
        for inv in self.invocations:
            shutil.rmtree(self._dir(inv), ignore_errors=True)

    def operations(self):
        return [(inv.name, self._op(inv)) for inv in self.invocations]

    def _op(self, inv: Invocation):
        argv = list(inv.argv)
        if inv.name != "verify":
            argv += ["--out", str(self._dir(inv))]

        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
            return rc, buf.getvalue()

        return run

    def _files(self, inv: Invocation) -> list[Path]:
        d = self._dir(inv)
        return sorted(d.iterdir()) if d.is_dir() else []

    def states(self, outputs) -> int:
        total = 0
        for inv in self.invocations:
            if outputs.get(inv.name) is None:
                continue
            command = inv.name.split(".")[0]
            if command == "verify":
                total += sum(int(m.group(5)) for m in _VERIFY_LINE.finditer(outputs[inv.name][1]))
            elif command == "b2b":
                total += 1
            else:
                csv_name = {"sweep-pdl": "sweep_pdl.csv", "tradeoff": "tradeoff.csv",
                            "entropy-feedback": "entropy_feedback.csv"}.get(command, "compensate.csv")
                rows = read_csv(self._dir(inv) / csv_name)[1]
                # a compensate row sends two states: uncompensated and compensated
                total += 2 * rows if command.startswith("compensate") else rows
        return total

    def digest(self, outputs) -> str:
        h = hashlib.sha256()
        for inv in self.invocations:
            h.update(inv.name.encode())
            out = outputs.get(inv.name)
            if out is None:
                h.update(b"failed")
                continue
            if inv.name == "verify":
                # suite run times are the only text that may differ between reruns
                h.update(re.sub(r"\([0-9.]+s\)", "", out[1]).encode())
            for path in self._files(inv):
                h.update(path.name.encode())
                h.update(path.read_bytes())
        return h.hexdigest()

    def round_stats(self, outputs) -> dict:
        rows = nbytes = 0
        for inv in self.invocations:
            for path in self._files(inv):
                nbytes += path.stat().st_size
                rows += read_csv(path)[1] if path.suffix == ".csv" else 0
        return {"cli.rows": rows, "cli.bytes_written": nbytes}

    def check(self, outputs) -> list[str]:
        errors = []
        for inv in self.invocations:
            out = outputs.get(inv.name)
            if out is None:
                continue
            rc, text = out
            if inv.name == "verify":
                errors += [f"verify: {e}" for e in check_verify(rc, text)]
                continue
            if rc != 0:
                errors.append(f"{inv.name}: exit code {rc}")
                continue
            command = inv.name.split(".")[0]
            try:
                errs = CHECKS[command](self._dir(inv), inv.params, inv.noisy)
            except (OSError, KeyError, ValueError, IndexError) as exc:
                errs = [f"unreadable output: {exc!r}"]
            errors += [f"{inv.name}: {e}" for e in errs]
        return errors


def check_verify(rc: int, text: str) -> list[str]:
    errors = [] if rc == 0 else [f"exit code {rc}"]
    seen = {}
    for m in _VERIFY_LINE.finditer(text):
        tag, name, max_err, tol, cases = m.group(1, 2, 3, 4, 5)
        seen[name] = int(cases)
        if tag != "PASS" or not float(max_err) <= float(tol):
            errors.append(f"{name} failed: max_err {max_err} tol {tol}")
    if seen != VERIFY_CASES:
        errors.append(f"suites and case counts {seen} differ from {VERIFY_CASES}")
    return errors


def _noisy_concurrence(errors, got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        errors.append(f"{what}: {got.shape[0]} rows, expected {want.shape[0]}")
        return
    if np.any(got < 0) or np.any(got > 1 + 1e-9):
        errors.append(f"{what}: concurrence outside [0, 1]")
    dev = got - want
    if np.abs(dev).max() > NOISY_ROW_TOL or abs(dev.mean()) > NOISY_MEAN_TOL:
        errors.append(f"{what}: noisy deviation max {np.abs(dev).max():.4f} mean {dev.mean():.4f} "
                      f"beyond {NOISY_ROW_TOL}/{NOISY_MEAN_TOL}")


def _exact(errors, cols, name, want, tol=EXACT_TOL):
    if name not in cols or not _close(cols[name], want, tol):
        errors.append(f"{name}: worst relative deviation {_worst(cols.get(name, []), want):.3e}")


def source_reference():
    """Back-to-back state calibrated to C_B2B at HH/VV 1.38, by the reference route."""
    v = (2 * C_B2B * np.cosh(GAMMA_S) + 1) / 3
    rho, _ = ref.filtered(ref.werner(v), ref.jones_filter(GAMMA_S, S3), ref.I2)
    return rho


def check_b2b(out: Path, params, noisy) -> list[str]:
    errors = []
    cols, n = read_csv(out / "b2b_density_matrix.csv")
    if n != 16:
        return [f"density matrix has {n} entries"]
    rho = np.zeros((4, 4), dtype=complex)
    rho[cols["i"].astype(int), cols["j"].astype(int)] = cols["re"] + 1j * cols["im"]
    metrics = dict(line.split("=") for line in (out / "b2b_metrics.txt").read_text().split())
    metrics = {k: float(v) for k, v in metrics.items()}
    if noisy:
        w = np.linalg.eigvalsh((rho + rho.conj().T) / 2)
        if np.abs(rho - rho.conj().T).max() > 1e-8 or abs(w.sum() - 1) > 1e-7 or w.min() < -1e-7:
            errors.append("reconstructed matrix is not a density matrix")
        if abs(metrics["concurrence"] - ref.wootters(rho)) > 1e-6:
            errors.append("reported concurrence disagrees with the written matrix")
        _noisy_concurrence(errors, [metrics["concurrence"]], [C_B2B], "concurrence")
        # over 2000 seeds the measured ratio has std 0.07 and strays at most 0.26
        if abs(metrics["hh_vv_ratio"] - 1.38) > 0.4:
            errors.append(f"hh_vv_ratio {metrics['hh_vv_ratio']} far from 1.38")
        return errors
    want = source_reference()
    if np.abs(rho - want).max() > EXACT_TOL:
        errors.append(f"density matrix off by {np.abs(rho - want).max():.3e}")
    expect = {
        "concurrence": C_B2B,
        "purity": float(np.trace(want @ want).real),
        "fidelity": float((ref.PHI_PLUS.conj() @ want @ ref.PHI_PLUS).real),
        "hh_vv_ratio": 1.38,
    }
    for key, val in expect.items():
        if key not in metrics or not _close(metrics[key], val):
            errors.append(f"{key} = {metrics.get(key)!r}, expected {val!r}")
    return errors


def check_sweep(out: Path, params, noisy) -> list[str]:
    errors = []
    c, n = read_csv(out / "sweep_pdl.csv")
    per = params["orientations"]
    if n != per * len(params["pdl_db"]):
        return [f"{n} rows, expected {per * len(params['pdl_db'])}"]
    _exact(errors, c, "pdl_db_emulator", np.repeat(params["pdl_db"], per))
    ax = np.column_stack([c["ax1"], c["ax2"], c["ax3"]])
    _exact(errors, {"axis_norm": np.linalg.norm(ax, axis=1)}, "axis_norm", np.ones(n))
    g_e = c["pdl_db_emulator"] / ref.DB_PER_NEPER
    d = np.cosh(GAMMA_S) * np.cosh(g_e) + c["ax3"] * np.sinh(GAMMA_S) * np.sinh(g_e)
    _exact(errors, c, "aggregate_pdl_db", np.arccosh(d) * ref.DB_PER_NEPER)
    _exact(errors, c, "kappa", c["ax3"])
    _exact(errors, c, "rate", np.exp(-(GAMMA_S + g_e)) * d)
    if noisy:
        _noisy_concurrence(errors, c["concurrence"], C_B2B / d, "concurrence")
        if np.any(c["purity"] < 0.25 - 1e-9) or np.any(c["purity"] > 1 + 1e-9):
            errors.append("purity outside [1/4, 1]")
        return errors
    _exact(errors, c, "concurrence", C_B2B / d)
    base = ref.bell_diagonal([C_B2B, -C_B2B, 1.0])
    m_s = ref.jones_filter(GAMMA_S, S3)
    purity = []
    for g, a in zip(g_e, ax):
        rho, _ = ref.filtered(base, ref.jones_filter(g, a) @ m_s, ref.I2)
        purity.append(np.trace(rho @ rho).real)
    _exact(errors, c, "purity", purity)
    return errors


def check_compensate(out: Path, params, noisy) -> list[str]:
    errors = []
    c, n = read_csv(out / "compensate.csv")
    thetas = np.asarray(params["thetas"])
    if n != len(thetas):
        return [f"{n} rows, expected {len(thetas)}"]
    _exact(errors, c, "theta", thetas)
    q = params["pmd_q"]
    t = ref.dephased_t(q)
    c0 = 1 - 2 * q
    scale = C_B2B / c0 if q == 0 else 1.0
    g_e = params["pdl_db"] / ref.DB_PER_NEPER
    want = {k: [] for k in ("aggregate_pdl_db", "c_uncompensated", "c_compensated", "gammaB_db",
                            "axB1", "axB2", "axB3", "rate_uncomp", "rate_comp")}
    for th in thetas:
        axis_e = ref.polar_axis(th)
        g_a = ref.aggregate_gamma(GAMMA_S, g_e, axis_e[2])
        ta = t * ref.aggregate_axis(GAMMA_S, S3, g_e, axis_e)
        m = float(np.linalg.norm(ta))
        c_star = ref.optimum(c0, g_a, m)
        g_b = ref.optimum_gamma_b(g_a, m)
        want["aggregate_pdl_db"].append(g_a * ref.DB_PER_NEPER)
        want["c_uncompensated"].append(scale * c0 / np.cosh(g_a))
        want["c_compensated"].append(scale * c_star)
        want["gammaB_db"].append(g_b * ref.DB_PER_NEPER)
        for k in range(3):
            want[f"axB{k + 1}"].append(-ta[k] / m)
        want["rate_uncomp"].append(np.exp(-(GAMMA_S + g_e)) * np.cosh(g_a))
        want["rate_comp"].append(np.exp(-(GAMMA_S + g_e + g_b)) * c0 / c_star)
    for key, val in want.items():
        if noisy and key in ("c_uncompensated", "c_compensated"):
            _noisy_concurrence(errors, c[key], val, key)
        else:
            _exact(errors, c, key, val)
    return errors


def _sorted_kappa(errors, c, n, params):
    want_n = params["orientations"] + 2
    if n != want_n:
        errors.append(f"{n} rows, expected {want_n}")
        return False
    k = c["kappa"]
    if np.any(np.diff(k) < 0) or not _close(k[[0, -1]], [-1.0, 1.0]):
        errors.append("kappa column is not sorted from -1 to +1")
    return True


def check_tradeoff(out: Path, params, noisy) -> list[str]:
    errors = []
    c, n = read_csv(out / "tradeoff.csv")
    if not _sorted_kappa(errors, c, n, params):
        return errors
    g = params["pdl_db"] / ref.DB_PER_NEPER
    k = c["kappa"]
    _exact(errors, c, "rate_norm", ref.two_arm_rate(g, g, k))
    c_norm = ref.two_arm_concurrence(1.0, g, g, k)
    if noisy:
        _noisy_concurrence(errors, c["concurrence_norm"], c_norm, "concurrence_norm")
        _exact(errors, c, "avg_entanglement", c["concurrence_norm"] * c["rate_norm"])
        return errors
    _exact(errors, c, "concurrence_norm", c_norm)
    _exact(errors, c, "avg_entanglement", np.full(n, np.exp(-2 * g)))
    # envelope endpoints: full compensation at kappa = -1, aligned loss at +1
    _exact(errors, {"endpoints": c["concurrence_norm"][[0, -1]]}, "endpoints",
           [1.0, 1.0 / np.cosh(2 * g)])
    return errors


def check_entropy(out: Path, params, noisy) -> list[str]:
    errors = []
    c, n = read_csv(out / "entropy_feedback.csv")
    if not _sorted_kappa(errors, c, n, params):
        return errors
    g = params["pdl_db"] / ref.DB_PER_NEPER
    q = params["pmd_q"]
    k = c["kappa"]
    c_want = ref.two_arm_concurrence(1 - 2 * q, g, g, k)
    s = c["s_linear_A"]
    red, n_red = read_csv(out / "entropy_feedback_reduced.csv")
    if n_red != 12 or red["label"][::4] != ["min", "median", "max"]:
        errors.append("reduced-matrix companion file is malformed")
    if noisy:
        _noisy_concurrence(errors, c["concurrence"], c_want, "concurrence")
        if np.any(s < -1e-9) or np.any(s > 1 + 1e-9):
            errors.append("linear entropy outside [0, 1]")
        return errors
    _exact(errors, c, "concurrence", c_want)
    # qubit-A entropy depends on the arm-B axis only through kappa = b3
    base = ref.bell_diagonal(ref.dephased_t(q))
    m_a = ref.jones_filter(g, S3)
    s_want = []
    for kap in k:
        b = np.array([np.sqrt(max(0.0, 1 - kap**2)), 0.0, kap])
        rho, _ = ref.filtered(base, m_a, ref.jones_filter(g, b))
        s_want.append(ref.linear_entropy(ref.reduced_a(rho)))
    _exact(errors, c, "s_linear_A", s_want)
    if int(np.argmax(s)) != int(np.argmax(c["concurrence"])):
        errors.append("entropy argmax differs from concurrence argmax")
    if not errors and n_red == 12:
        q_max = np.zeros((2, 2), dtype=complex)
        sel = slice(8, 12)
        q_max[red["i"][sel].astype(int), red["j"][sel].astype(int)] = (
            red["re"][sel] + 1j * red["im"][sel])
        if abs(ref.linear_entropy(q_max) - s.max()) > 1e-7:
            errors.append("max-entropy reduced matrix disagrees with the entropy column")
    return errors


CHECKS = {
    "b2b": check_b2b,
    "sweep-pdl": check_sweep,
    "compensate": check_compensate,
    "compensate-pmd": check_compensate,
    "tradeoff": check_tradeoff,
    "entropy-feedback": check_entropy,
}

WORKLOADS = {w.name: w for w in (SearchExact, CliProtocols)}

