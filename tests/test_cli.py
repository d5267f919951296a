import re

import numpy as np
import pytest

import pdlsim.theory
from pdlsim import cli
from pdlsim.cli import _MIN_CHAIN_C, RunConfig, _fmt, _write_csv, load_config, main
from pdlsim.verify import DEFAULT_SEED

G51 = 0.5871591987134815
DB_PER_NEPER = 8.685889638065037


def read_csv(path):
    return np.genfromtxt(path, delimiter=",", names=True)


def read_metrics(path):
    out = {}
    for line in path.read_text().splitlines():
        k, v = line.split("=")
        out[k] = float(v)
    return out


def test_load_config_full(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(
        "# comment line\n"
        "source.c_b2b = 0.9\n"
        "source.hh_vv_ratio = 1.2   # trailing comment\n"
        "source.mu = 0.02\n"
        "\n"
        "det.efficiency = 0.5\n"
        "det.dark_prob = 1e-5\n"
        "tomo.pulses = 500000\n"
        "run.seed = 99\n"
        "run.noisy = yes\n"
    )
    cfg = load_config(p)
    assert cfg == RunConfig(
        c_b2b=0.9,
        hh_vv_ratio=1.2,
        mu=0.02,
        efficiency=0.5,
        dark_prob=1e-5,
        pulses=500_000,
        seed=99,
        noisy=True,
    )


def test_load_config_defaults(tmp_path):
    p = tmp_path / "empty.cfg"
    p.write_text("# nothing here\n\n")
    assert load_config(p) == RunConfig()


def test_load_config_errors(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("bogus.key = 1\n")
    with pytest.raises(ValueError):
        load_config(p)
    p.write_text("run.seed 99\n")
    with pytest.raises(ValueError):
        load_config(p)
    p.write_text("run.noisy = maybe\n")
    with pytest.raises(ValueError):
        load_config(p)
    # conversion errors quote the file and line like every other error
    for text, bad in (("tomo.pulses = 1e6\n", "'1e6'"), ("# seed\nrun.seed = 1.5\n", "'1.5'"),
                      ("\nsource.mu = fast\n", "'fast'"), ("run.noisy = maybe\n", "'maybe'")):
        p.write_text(text)
        lineno = text.count("\n")
        want = f"^{re.escape(str(p))}:{lineno}: bad value {bad} for "
        with pytest.raises(ValueError, match=want):
            load_config(p)


@pytest.mark.parametrize("argv", [
    ("sweep-pdl", "--orientations", "0"),
    ("tradeoff", "--orientations", "-3"),
    ("entropy-feedback", "--orientations", "0"),
    ("compensate", "--theta-count", "0"),
    ("compensate", "--theta-count", "-1"),
    ("compensate", "--theta-count", "2.5"),
    ("sweep-pdl", "--pdl-db", ","),
    ("compensate", "--theta-list", ","),
    ("compensate", "--theta-list", " "),
])
def test_empty_counts_and_lists_are_usage_errors(tmp_path, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert argv[1] in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, flag", [
    (("compensate", "--pdl-db", "-1"), "--pdl-db"),
    (("sweep-pdl", "--pdl-db=-1"), "--pdl-db"),
    (("sweep-pdl", "--pdl-db", "1.25,-0.5"), "--pdl-db"),
    (("tradeoff", "--pdl-db", "-1"), "--pdl-db"),
    (("entropy-feedback", "--pdl-db", "nan"), "--pdl-db"),
    (("compensate", "--pmd-q", "0.7"), "--pmd-q"),
    (("tradeoff", "--pmd-q", "-0.1"), "--pmd-q"),
    (("entropy-feedback", "--pmd-q", "0.51"), "--pmd-q"),
    (("compensate", "--theta-list", "0,inf"), "--theta-list"),
    (("b2b", "--seed", "-1"), "--seed"),
    (("verify", "--seed", str(2**64)), "--seed"),
])
def test_range_errors_are_usage_errors(tmp_path, argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_config_range_errors_quote_the_line(tmp_path):
    p = tmp_path / "range.cfg"
    for text, msg in (("run.seed = 3\ntomo.pulses = 0\n", "tomo.pulses must be >= 1, got 0"),
                      ("\n\nrun.seed = -1\n", "run.seed must fit in 64 bits, got -1")):
        p.write_text(text)
        lineno = text.count("\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}:{lineno}: {re.escape(msg)}$"):
            load_config(p)


@pytest.mark.parametrize("text, lineno, msg", [
    ("det.efficiency = 2\n", 1, "efficiency must lie in (0, 1], got 2.0"),
    ("run.seed = 3\ndet.dark_prob = 1\n", 2, "dark_prob must lie in [0, 1), got 1.0"),
    ("\nsource.c_b2b = 0.3\n", 2, "target_c must lie in (0.5, 1], got 0.3"),
    ("source.hh_vv_ratio = 0.5\n", 1, "hh_vv_ratio must be >= 1, got 0.5"),
    ("source.mu = 0.5\n", 1, "mu must lie in (0.001, 0.1), got 0.5"),
    # reachable only at a lower HH/VV ratio than the default, which line 1 still sees
    ("source.c_b2b = 0.99\nsource.hh_vv_ratio = 1.38\n", 1,
     "target concurrence 0.99 unreachable at HH/VV ratio 1.38"),
])
def test_config_source_and_detector_errors_quote_the_line(tmp_path, text, lineno, msg):
    p = tmp_path / "bench.cfg"
    p.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(str(p))}:{lineno}: {re.escape(msg)}$"):
        load_config(p)


def test_config_values_that_fit_together_load_in_any_order(tmp_path):
    p = tmp_path / "bench.cfg"
    lines = ["source.c_b2b = 0.99\n", "source.hh_vv_ratio = 1.0\n"]
    for text in ("".join(lines), "".join(lines[::-1])):
        p.write_text(text)
        assert load_config(p) == RunConfig(c_b2b=0.99, hh_vv_ratio=1.0)


@pytest.mark.parametrize("noisy", [(), ("--noisy",)])
def test_config_errors_are_usage_errors(tmp_path, noisy, capsys):
    p = tmp_path / "bench.cfg"
    p.write_text("# detectors\ndet.efficiency = 2\n")
    out = tmp_path / "out"
    for config, want in ((p, f"{p}:2: efficiency must lie in (0, 1], got 2.0"),
                         (tmp_path / "missing.cfg", "missing.cfg")):
        with pytest.raises(SystemExit) as exc:
            main(["b2b", "--config", str(config), "--out", str(out), *noisy])
        assert exc.value.code == 2
        assert want in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["compensate", "tradeoff", "entropy-feedback"])
def test_fully_dephased_chain_is_a_usage_error(tmp_path, command, capsys):
    # at q = 0.5 the chain state is separable: nothing to normalize by
    with pytest.raises(SystemExit) as exc:
        main([command, "--pmd-q", "0.5", "--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --pmd-q:" in err and "no entanglement to normalize by" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("q", ["0.4999999999", "0.49999999999999994"])
@pytest.mark.parametrize("command", ["compensate", "tradeoff", "entropy-feedback"])
def test_nearly_dephased_chain_is_a_usage_error(tmp_path, command, q, capsys):
    # 1 - 2q of 2e-10 or 1.1e-16 is too little to normalize rows by
    with pytest.raises(SystemExit) as exc:
        main([command, "--pmd-q", q, "--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --pmd-q: dephasing weight {q} leaves" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["compensate", "tradeoff", "entropy-feedback"])
def test_weakly_entangled_chain_passes_the_row_checks(tmp_path, command):
    # 1 - 2q = 2e-5, near the least accepted chain concurrence
    assert _MIN_CHAIN_C < 1 - 2 * 0.49999 < 3 * _MIN_CHAIN_C
    assert main([command, "--pmd-q", "0.49999", "--out", str(tmp_path)]) == 0


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(pulses=0)
    with pytest.raises(ValueError):
        RunConfig(seed=-1)


def test_b2b_noiseless(tmp_path):
    assert main(["b2b", "--out", str(tmp_path)]) == 0
    metrics = read_metrics(tmp_path / "b2b_metrics.txt")
    assert abs(metrics["concurrence"] - 0.925) < 1e-9
    assert abs(metrics["hh_vv_ratio"] - 1.38) < 1e-9
    assert abs(metrics["purity"] - 0.938866693) < 1e-9
    assert abs(metrics["fidelity"] - 0.962365344) < 1e-9
    lines = (tmp_path / "b2b_density_matrix.csv").read_text().splitlines()
    assert lines[0] == "i,j,re,im"
    assert len(lines) == 17
    d = read_csv(tmp_path / "b2b_density_matrix.csv")
    rho = np.zeros((4, 4), dtype=complex)
    for row in d:
        rho[int(row["i"]), int(row["j"])] = row["re"] + 1j * row["im"]
    assert abs(np.trace(rho).real - 1) < 1e-8


def test_b2b_ideal_source(tmp_path):
    cfg = tmp_path / "ideal.cfg"
    cfg.write_text("source.c_b2b = 1\nsource.hh_vv_ratio = 1\n")
    main(["b2b", "--config", str(cfg), "--out", str(tmp_path)])
    d = read_csv(tmp_path / "b2b_density_matrix.csv")
    for row in d:
        i, j = int(row["i"]), int(row["j"])
        expect = 0.5 if (i in (0, 3) and j in (0, 3)) else 0.0
        assert abs(row["re"] - expect) < 1e-12 and abs(row["im"]) < 1e-12


def test_b2b_reruns_byte_identical(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    main(["b2b", "--out", str(d1)])
    main(["b2b", "--out", str(d2)])
    assert (d1 / "b2b_density_matrix.csv").read_bytes() == (d2 / "b2b_density_matrix.csv").read_bytes()
    assert (d1 / "b2b_metrics.txt").read_bytes() == (d2 / "b2b_metrics.txt").read_bytes()


def test_b2b_noisy_determinism(tmp_path):
    d1, d2, d3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    main(["b2b", "--noisy", "--seed", "7", "--out", str(d1)])
    main(["b2b", "--noisy", "--seed", "7", "--out", str(d2)])
    main(["b2b", "--noisy", "--seed", "8", "--out", str(d3)])
    a = (d1 / "b2b_density_matrix.csv").read_bytes()
    assert a == (d2 / "b2b_density_matrix.csv").read_bytes()
    assert a != (d3 / "b2b_density_matrix.csv").read_bytes()
    metrics = read_metrics(d1 / "b2b_metrics.txt")
    assert abs(metrics["concurrence"] - 0.925) < 0.06  # shot noise envelope


def test_sweep_pdl_law_and_shape(tmp_path):
    main(["sweep-pdl", "--out", str(tmp_path), "--orientations", "6"])
    d = read_csv(tmp_path / "sweep_pdl.csv")
    assert d.shape[0] == 30  # five magnitudes x six orientations
    g = d["aggregate_pdl_db"] / DB_PER_NEPER
    assert np.abs(d["concurrence"] * np.cosh(g) - 0.925).max() < 1e-6
    assert np.abs(d["kappa"]).max() <= 1 + 1e-9
    axes = np.column_stack([d["ax1"], d["ax2"], d["ax3"]])
    assert np.abs(np.linalg.norm(axes, axis=1) - 1).max() < 1e-8


def test_sweep_pdl_zero_magnitude(tmp_path):
    main(["sweep-pdl", "--out", str(tmp_path), "--pdl-db", "0", "--orientations", "4"])
    d = read_csv(tmp_path / "sweep_pdl.csv")
    assert d.shape[0] == 4
    # aggregate reduces to the 1.4 dB source element regardless of orientation
    assert np.abs(d["aggregate_pdl_db"] - 1.39879086).max() < 1e-6
    assert np.abs(d["concurrence"] - 0.925 / np.cosh(np.log(1.38) / 2)).max() < 1e-6


def test_compensate_restores_baseline(tmp_path):
    theta = "0,0.7853981633974483,1.5707963267948966,2.356194490192345,3.141592653589793"
    main(["compensate", "--out", str(tmp_path), "--theta-list", theta])
    d = read_csv(tmp_path / "compensate.csv")
    assert d.shape[0] == 5
    assert np.abs(d["c_compensated"] - 0.925).max() < 1e-8
    assert (d["c_uncompensated"] < 0.925).all()
    assert (d["rate_comp"] <= d["rate_uncomp"] + 1e-12).all()
    # aggregate endpoints at theta = 0 and pi
    assert abs(d["aggregate_pdl_db"][-1] - 3.70120914) < 1e-6
    assert abs(d["aggregate_pdl_db"][0] - 6.49879086) < 1e-6
    axes = np.column_stack([d["axB1"], d["axB2"], d["axB3"]])
    assert np.abs(np.linalg.norm(axes, axis=1) - 1).max() < 1e-8


def test_compensate_pmd(tmp_path):
    main(["compensate", "--out", str(tmp_path), "--pmd-q", "0.155", "--theta-list", "0"])
    d = read_csv(tmp_path / "compensate.csv")
    assert abs(float(d["c_compensated"]) - 0.69) < 1e-8
    assert float(d["c_uncompensated"]) < 0.69


def test_tradeoff_envelope(tmp_path):
    main(["tradeoff", "--out", str(tmp_path), "--orientations", "16"])
    d = read_csv(tmp_path / "tradeoff.csv")
    assert d.shape[0] == 18  # lattice plus both exact endpoints
    assert (np.diff(d["kappa"]) >= 0).all()
    assert abs(d["kappa"][0] + 1) < 1e-12 and abs(d["kappa"][-1] - 1) < 1e-12
    assert abs(d["concurrence_norm"][0] - 1.0) < 1e-8
    assert abs(d["rate_norm"][0] - np.exp(-2 * G51)) < 1e-8
    assert abs(d["concurrence_norm"][-1] - 1 / np.cosh(2 * G51)) < 1e-8
    assert abs(d["rate_norm"][-1] - (1 + np.exp(-4 * G51)) / 2) < 1e-8
    assert np.abs(d["avg_entanglement"] - np.exp(-2 * G51)).max() < 1e-8


def test_tradeoff_with_pmd(tmp_path):
    main(["tradeoff", "--out", str(tmp_path), "--orientations", "8", "--pmd-q", "0.155"])
    d = read_csv(tmp_path / "tradeoff.csv")
    # normalized columns stay on the same conserved envelope
    assert np.abs(d["avg_entanglement"] - np.exp(-2 * G51)).max() < 1e-8
    assert abs(d["concurrence_norm"][0] - 1.0) < 1e-8


def test_entropy_feedback_outputs(tmp_path):
    main(["entropy-feedback", "--out", str(tmp_path), "--orientations", "16"])
    d = read_csv(tmp_path / "entropy_feedback.csv")
    assert d.shape[0] == 18
    assert (np.diff(d["kappa"]) >= 0).all()
    assert int(d["s_linear_A"].argmax()) == int(d["concurrence"].argmax())
    lines = (tmp_path / "entropy_feedback_reduced.csv").read_text().splitlines()
    assert lines[0] == "label,i,j,re,im"
    assert len(lines) == 13
    labels = [ln.split(",")[0] for ln in lines[1:]]
    assert labels == ["min"] * 4 + ["median"] * 4 + ["max"] * 4
    # each reduced block has unit trace
    for label in ("min", "median", "max"):
        rows = [ln.split(",") for ln in lines[1:] if ln.split(",")[0] == label]
        tr = sum(float(r[3]) for r in rows if r[1] == r[2])
        assert abs(tr - 1) < 1e-8


def test_entropy_feedback_span_default_rig(tmp_path):
    main(["entropy-feedback", "--out", str(tmp_path)])
    d = read_csv(tmp_path / "entropy_feedback.csv")
    assert d["s_linear_A"].min() <= 0.3
    assert d["s_linear_A"].max() >= 0.95


def test_verify_subcommand():
    assert main(["verify"]) == 0


@pytest.mark.parametrize("flag", ["--config", "--out", "--noisy"])
def test_verify_takes_no_run_flags(tmp_path, flag, capsys):
    argv = ["verify", flag] + ([] if flag == "--noisy" else [str(tmp_path / "missing.cfg")])
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_verify_reads_no_config_and_takes_a_seed(monkeypatch, capsys):
    def no_config(*args, **kwargs):
        raise AssertionError("verify read a run config")

    monkeypatch.setattr(cli, "RunConfig", no_config)
    monkeypatch.setattr(cli, "load_config", no_config)
    monkeypatch.setattr(cli, "cmd_verify", lambda seed: seed)
    assert main(["verify"]) == DEFAULT_SEED
    assert main(["verify", "--seed", "5"]) == 5
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--seed", str(2**64)])
    assert exc.value.code == 2
    assert "argument --seed:" in capsys.readouterr().err


def test_row_checks_fail_on_a_corrupted_conservation_law(tmp_path, monkeypatch):
    law = pdlsim.theory.conservation_residual
    monkeypatch.setattr(pdlsim.theory, "conservation_residual", lambda *args: law(*args) + 1e-6)
    with pytest.raises(RuntimeError, match="^tradeoff row violates rate-concurrence conservation$"):
        main(["tradeoff", "--orientations", "4", "--out", str(tmp_path)])
    with pytest.raises(RuntimeError,
                       match="^compensated row violates rate-concurrence conservation$"):
        main(["compensate", "--theta-count", "3", "--out", str(tmp_path)])
    assert list(tmp_path.iterdir()) == []


def test_row_checks_fail_on_a_corrupted_magnitude_law(tmp_path, monkeypatch):
    law = pdlsim.theory.magnitude_residual
    monkeypatch.setattr(pdlsim.theory, "magnitude_residual", lambda *args: law(*args) + 1e-5)
    with pytest.raises(RuntimeError,
                       match="^sweep row violates the magnitude-only concurrence law$"):
        main(["sweep-pdl", "--orientations", "4", "--out", str(tmp_path)])
    with pytest.raises(RuntimeError, match="^uncompensated row violates the magnitude-only law$"):
        main(["compensate", "--theta-count", "3", "--out", str(tmp_path)])
    assert list(tmp_path.iterdir()) == []


def test_csv_formatting(tmp_path):
    main(["tradeoff", "--out", str(tmp_path), "--orientations", "16"])
    text = (tmp_path / "tradeoff.csv").read_text()
    assert text.endswith("\n")
    for line in text.splitlines()[1:]:
        for field in line.split(","):
            float(field)  # parses
            if "." in field and "e" not in field:
                assert len(field.replace("-", "").replace(".", "").lstrip("0")) <= 9


def test_column_writer_formats_fields_as_fmt(tmp_path):
    columns = [
        [0, 1, 2, np.int64(3)],
        ["min", "median", "max", "x"],
        np.array([0.1, -2.5e-12, 1 / 3, 12345678912.0]),
        [0.5, 1e300, -0.0, np.float64(2 / 3)],
        np.array([-0.0, 0.0, -1e-320, np.pi]),
        np.arange(4),
    ]
    path = _write_csv(tmp_path / "mixed.csv", ["a", "b", "c", "d", "e", "f"], columns)
    want = "a,b,c,d,e,f\n" + "".join(
        ",".join(_fmt(c[i]) for c in columns) + "\n" for i in range(4))
    assert path.read_text() == want
    assert want.splitlines()[1] == "0,min,0.1,0.5,-0,0"
    # more rows than one written block
    n = 1500
    path = _write_csv(tmp_path / "long.csv", ["k", "x"], [np.arange(n), np.linspace(-1, 1, n)])
    lines = path.read_text().splitlines()
    assert len(lines) == n + 1 and lines[-1] == f"{n - 1},1"
    assert lines[1:] == [f"{k},{_fmt(x)}" for k, x in enumerate(np.linspace(-1, 1, n))]


def test_noisy_sweep_runs(tmp_path):
    main(["sweep-pdl", "--out", str(tmp_path), "--noisy", "--pdl-db", "2.55",
          "--orientations", "4", "--seed", "3"])
    d = read_csv(tmp_path / "sweep_pdl.csv")
    assert d.shape[0] == 4
    # reconstructed concurrences track the law within shot noise
    g = d["aggregate_pdl_db"] / DB_PER_NEPER
    assert np.abs(d["concurrence"] * np.cosh(g) - 0.925).max() < 0.1


def test_noisy_sweep_rows_do_not_depend_on_the_batch(tmp_path):
    # one sub-seed per row: a shorter sweep is a byte-identical prefix
    short, long = tmp_path / "short", tmp_path / "long"
    main(["sweep-pdl", "--noisy", "--pdl-db", "1.25", "--out", str(short)])
    main(["sweep-pdl", "--noisy", "--pdl-db", "1.25,2.55", "--out", str(long)])
    short_lines = (short / "sweep_pdl.csv").read_text().splitlines()
    long_lines = (long / "sweep_pdl.csv").read_text().splitlines()
    assert len(short_lines) == 51 and len(long_lines) == 101
    assert short_lines == long_lines[:51]  # header plus 50 orientations
