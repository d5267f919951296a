"""Self-tests of the benchmark's reference physics, checks and tracing.

    python3 -m pytest -q benchmark

The reference must reproduce known values, and every workload check must
reject a deliberately corrupted output.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import reference as ref  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402
from pdlsim import cli, compensation, qmath  # noqa: E402

RNG = np.random.default_rng(5)


def random_axis():
    v = RNG.normal(size=3)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------- reference physics


@pytest.mark.parametrize("vec", [
    [1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0],
])
def test_bell_states_are_maximally_entangled(vec):
    psi = np.array(vec, dtype=complex) / np.sqrt(2)
    assert ref.wootters(np.outer(psi, psi.conj())) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("v", [0.2, 1 / 3, 0.5, 0.8, 0.95, 1.0])
def test_werner_concurrence(v):
    assert ref.wootters(ref.werner(v)) == pytest.approx(max(0.0, (3 * v - 1) / 2), abs=1e-7)


def test_single_arm_law():
    for _ in range(20):
        v, g = RNG.uniform(0.5, 1.0), RNG.uniform(0, 7 / ref.DB_PER_NEPER)
        c0 = (3 * v - 1) / 2
        rho, _ = ref.filtered(ref.werner(v), ref.jones_filter(g, random_axis()), ref.I2)
        assert ref.wootters(rho) == pytest.approx(c0 / np.cosh(g), abs=1e-7)


def test_rate_concurrence_product_is_conserved():
    for _ in range(20):
        v = RNG.uniform(0.5, 1.0)
        c0 = (3 * v - 1) / 2
        g_a, g_b = RNG.uniform(0, 0.8, size=2)
        a, b = random_axis(), random_axis()
        rho, rate = ref.filtered(ref.werner(v), ref.jones_filter(g_a, a), ref.jones_filter(g_b, b))
        assert rate * ref.wootters(rho) == pytest.approx(np.exp(-(g_a + g_b)) * c0, abs=1e-7)
        kap = float(np.sum(a * b * v * ref.BELL_T))  # Werner correlations are v * t(phi+)
        assert rate == pytest.approx(ref.two_arm_rate(g_a, g_b, kap), abs=1e-12)


def test_jones_filter_and_concatenation():
    g1, g2, a1, a2 = 0.3, 0.6, random_axis(), random_axis()
    sv = np.linalg.svd(ref.jones_filter(g1, a1), compute_uv=False)
    assert sv == pytest.approx([1.0, np.exp(-g1)], abs=1e-14)
    sv = np.linalg.svd(ref.jones_filter(g2, a2) @ ref.jones_filter(g1, a1), compute_uv=False)
    assert np.log(sv[0] / sv[1]) == pytest.approx(ref.aggregate_gamma(g1, g2, a1 @ a2), abs=1e-12)


def test_optimum_is_not_beaten():
    t = ref.dephased_t(0.155)
    g_a, axis_a = 0.6, random_axis()
    m = float(np.linalg.norm(t * axis_a))
    best = ref.optimum(0.69, g_a, m)
    m_a = ref.jones_filter(g_a, axis_a)
    for _ in range(200):
        rho, _ = ref.filtered(ref.bell_diagonal(t), m_a,
                              ref.jones_filter(RNG.uniform(0, 1.5), random_axis()))
        assert ref.wootters(rho) <= best + 1e-7
    rho, _ = ref.filtered(ref.bell_diagonal(t), m_a,
                          ref.jones_filter(ref.optimum_gamma_b(g_a, m), -t * axis_a / m))
    assert ref.wootters(rho) == pytest.approx(best, abs=1e-7)


# ---------------------------------------------------------------- search checks


@pytest.fixture(scope="module")
def exact():
    w = W.SearchExact(3, Path("unused"))
    p, args = w.problems[-1], w.inputs[-1]  # PMD, misaligned: the m < 1 cap
    return p, args, compensation.optimize_compensator(*args)


def test_exact_search_passes_and_rejects_shift(exact):
    p, _, res = exact
    assert W.check_exact_searches([p], {p.label: res}) == []
    for shift in (1e-6, -2e-3):
        bad = compensation.SearchResult(res.best, res.best_concurrence + shift, res.evaluations)
        assert W.check_exact_searches([p], {p.label: bad})


def test_exact_search_rejects_crippled_grid(exact):
    p, (agg, base, _, pmd), _ = exact
    crippled = compensation.SearchConfig(sphere_points=32, gamma_grid=(0.05,), refine_iters=0)
    res = compensation.optimize_compensator(agg, base, crippled, pmd)
    assert W.check_exact_searches([p], {p.label: res})


# ---------------------------------------------------------------- CLI checks


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    w = W.CliProtocols(6, tmp_path_factory.mktemp("cli"))
    outputs = {label: op() for label, op in w.operations()}
    return w, outputs


def test_cli_outputs_pass(cli_run):
    w, outputs = cli_run
    assert w.check(outputs) == []
    assert w.states(outputs) > 4946


def _perturb(path: Path, row: int, col: int, delta: float):
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = format(float(cells[col]) + delta, ".9g")
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("name, csv_name, col, delta", [
    ("sweep-pdl", "sweep_pdl.csv", 6, 1e-6),
    ("sweep-pdl", "sweep_pdl.csv", 8, 1e-6),
    ("compensate", "compensate.csv", 3, 1e-6),
    ("compensate-pmd", "compensate.csv", 3, -1e-6),
    ("tradeoff", "tradeoff.csv", 3, 1e-6),
    ("entropy-feedback", "entropy_feedback.csv", 0, 1e-6),
    ("b2b", "b2b_density_matrix.csv", 2, 1e-6),
    ("sweep-pdl.noisy", "sweep_pdl.csv", 6, 0.5),
    ("tradeoff.noisy", "tradeoff.csv", 1, 0.5),
])
def test_cli_check_rejects_perturbed_row(cli_run, name, csv_name, col, delta):
    w, _ = cli_run
    inv = next(i for i in w.invocations if i.name == name)
    path = w._dir(inv) / csv_name
    original = path.read_text()
    try:
        _perturb(path, 3, col, delta)
        assert W.CHECKS[name.split(".")[0]](w._dir(inv), inv.params, inv.noisy)
    finally:
        path.write_text(original)


def test_verify_check(cli_run):
    _, outputs = cli_run
    rc, text = outputs["verify"]
    assert W.check_verify(rc, text) == []
    assert W.check_verify(rc, text.replace("cases=1000", "cases=999", 1))
    assert W.check_verify(1, text)


def test_digest_tracks_every_file(cli_run):
    w, outputs = cli_run
    before = w.digest(outputs)
    assert w.digest(outputs) == before
    inv = next(i for i in w.invocations if i.name == "tradeoff")
    path = w._dir(inv) / "tradeoff.csv"
    original = path.read_text()
    try:
        path.write_text(original + "\n")
        assert w.digest(outputs) != before
    finally:
        path.write_text(original)


# ---------------------------------------------------------------- tracing


def test_tracing_covers_every_binding_and_restores(exact, tmp_path):
    _, args, res = exact
    original = qmath.concurrence
    tracer = spans.Tracer()
    patches = spans.install(tracer)
    try:
        assert cli.concurrence.__wrapped__ is original
        assert compensation.concurrence.__wrapped__ is original
        traced = compensation.optimize_compensator(*args)
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["b2b", "--out", str(tmp_path)])
    finally:
        spans.uninstall(patches)
    assert qmath.concurrence is original and cli.concurrence is original
    assert W.search_digest(traced) == W.search_digest(res)
    layer = tracer.metrics()
    assert layer["compensation.optimize_compensator.calls"] == 1
    assert layer["compensation.evaluations"] == len(res.evaluations)
    assert layer["qmath.concurrence.calls"] >= len(res.evaluations)
    assert layer["instrument.simulate_counts.calls"] == 0
    root = next(s for s in tracer.spans if s[0] == "compensation.optimize_compensator")
    assert 0 < layer["compensation.optimize_compensator.self_s"] < root[3] - root[2]
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]}
    # the CLI timings come from the round loop and the overhead from both kinds of round
    assert set(layer) == {n for n in declared if not n.startswith(("cli.", "trace."))}
