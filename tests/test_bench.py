"""Benchmark harness: seeding, CSV contracts, grids, selftest, and the CLI."""

import json
import time
from types import SimpleNamespace

import numpy as np
import pytest

from hankel_scs import bench, cli, descent, hankel_ops, pgd, shgd, signal_model

TINY_PHASE = dict(
    n=31, r_values=(1, 2), p_values=(0.5, 0.9), trials=2,
    solver_overrides=dict(max_iters=150),
)


# ---------------------------------------------------------------------------
# Seed derivation and model generators
# ---------------------------------------------------------------------------

def test_trial_seeds_stable_and_distinct():
    a = bench.trial_seed_sequence(0, 4, 5000, 7)
    b = bench.trial_seed_sequence(0, 4, 5000, 7)
    c = bench.trial_seed_sequence(0, 4, 5000, 8)
    d = bench.trial_seed_sequence(1, 4, 5000, 7)
    assert np.array_equal(a.generate_state(4), b.generate_state(4))
    assert not np.array_equal(a.generate_state(4), c.generate_state(4))
    assert not np.array_equal(a.generate_state(4), d.generate_state(4))
    assert bench.solver_seed(a) == bench.solver_seed(b)


def test_stratified_model_separation_and_amplitudes():
    for r in (3, 16, 150):
        model = bench.stratified_model(2046, r, np.random.default_rng(r))
        f = np.sort(model.freqs)
        gaps = np.diff(np.concatenate([f, [f[0] + 1.0]]))
        assert gaps.min() >= 0.2 / r - 1e-12  # includes wrap-around
        mags = np.abs(model.amps)
        assert np.all((mags >= 2.0) & (mags < 1.0 + 10**0.5))
        assert np.all(model.dampings == 0)


# ---------------------------------------------------------------------------
# CSV formatting and IO
# ---------------------------------------------------------------------------

def test_fmt_cells():
    assert bench._fmt(None) == ""
    assert bench._fmt(True) == "true"
    assert bench._fmt(False) == "false"
    assert bench._fmt(7) == "7"
    assert bench._fmt(0.125) == "0.125"
    assert bench._fmt(float("inf")) == "inf"
    assert bench._fmt(float("nan")) == "nan"
    assert bench._fmt("shgd") == "shgd"


def test_write_csv_roundtrip_and_meta_sidecar(tmp_path):
    spec = bench.ExperimentSpec(kind="noise", n=31, r=2, m_values=(20,), trials=1)
    result = bench.GridResult(
        columns=("a", "b"), rows=[dict(a=1, b=None), dict(a=2, b=0.5)],
        meta=bench.build_meta(spec),
    )
    path = tmp_path / "out.csv"
    bench.write_csv(path, result)
    text = path.read_text()
    assert text.startswith("# generated ")
    cols, rows = bench.read_csv_rows(path)
    assert cols == ("a", "b")
    assert rows == [{"a": "1", "b": ""}, {"a": "2", "b": "0.5"}]
    meta = json.loads((tmp_path / "out.csv.meta.json").read_text())
    assert meta["spec"]["kind"] == "noise"
    assert meta["git_hash"]
    assert "numpy" in meta


# ---------------------------------------------------------------------------
# Phase grid
# ---------------------------------------------------------------------------

def test_phase_grid_shape_and_easy_corner():
    spec = bench.ExperimentSpec(kind="phase", trials=3, n=63,
                                r_values=(1,), p_values=(0.94,))
    res = bench.run_phase(spec)
    assert res.columns == ("r", "p", "m", "successes", "trials",
                           "mean_iters", "mean_ms")
    assert len(res.rows) == 1
    row = res.rows[0]
    assert row["m"] == round(0.94 * 63)
    assert row["successes"] == 3  # rank-1, nearly full sampling: all recover
    assert row["mean_iters"] > 0


def test_phase_impossible_corner_reports_zero_without_aborting():
    spec = bench.ExperimentSpec(
        kind="phase", trials=2, n=127, r_values=(35,), p_values=(0.05,),
        solver_overrides=dict(max_iters=50),
    )
    res = bench.run_phase(spec)
    row = res.rows[0]
    assert row["m"] == 6  # far below any recoverable regime
    assert row["successes"] == 0
    assert row["trials"] == 2
    # One trial's model draw cannot place 35 separated modes.
    assert res.meta["failures"] == {"SeparationError": 1}


def _raise_type_error(*args, **kwargs):
    raise TypeError("a bug inside the solve")


@pytest.mark.parametrize("run, kwargs", [
    (bench.run_phase, dict(kind="phase", n=31, r_values=(2,), p_values=(0.6,))),
    (bench.run_noise, dict(kind="noise", n=31, r=2, sigma_values=(1e-2,),
                           m_values=(20,))),
])
def test_programming_error_in_a_trial_propagates(monkeypatch, run, kwargs):
    monkeypatch.setitem(bench._SOLVERS, "shgd", _raise_type_error)
    with pytest.raises(TypeError, match="a bug inside the solve"):
        run(bench.ExperimentSpec(trials=1, **kwargs))


@pytest.mark.parametrize("kwargs", [
    dict(kind="phase", n=31, r_values=(2, 20), p_values=(0.5,)),
    dict(kind="phase", n=21),  # default ranks run up to 16
    dict(kind="noise", n=31, r=17),
    dict(kind="timing", n=31, r=17),
    dict(kind="scaling", r=1024),  # shortest rung n=2046
])
def test_spec_rejects_ranks_the_signal_length_cannot_hold(kwargs):
    with pytest.raises(ValueError, match=r"n >= 2r-1"):
        bench.ExperimentSpec(**kwargs)


def test_spec_accepts_the_largest_rank_that_fits():
    bench.ExperimentSpec(kind="phase", n=31, r_values=(16,), p_values=(0.5,))
    bench.ExperimentSpec(kind="scaling", r=1023)


@pytest.mark.parametrize("kwargs, match", [
    (dict(kind="noise", n=0), "n must be >= 1"),
    (dict(kind="noise", r=0), "ranks must be >= 1"),
    (dict(kind="phase", r_values=(0,)), "ranks must be >= 1"),
    (dict(kind="phase", p_values=(1.5,)), r"\(0, 1\]"),
    (dict(kind="phase", p_values=(0.0,)), r"\(0, 1\]"),
    (dict(kind="timing", m=0), r"\[1, n=2046\]"),
    (dict(kind="timing", n=254, r=8), r"\[1, n=254\]"),  # default m=876
    (dict(kind="scaling", m=2047), r"\[1, n=2046\]"),  # shortest rung
    (dict(kind="noise", m_values=(60, 128)), r"\[1, n=127\]"),
    (dict(kind="noise", sigma_values=(-0.1,)), "finite and >= 0"),
    (dict(kind="noise", sigma_values=(float("nan"),)), "finite and >= 0"),
    (dict(kind="phase", r_values=(), p_values=()), r"\['p_values', 'r_values'\] must hold"),
    (dict(kind="scaling", n=500), r"does not use \['n'\]"),
    (dict(kind="phase", r=3, m_values=(20,)), r"does not use \['m_values', 'r'\]"),
    (dict(kind="scaling", trials=1), r"does not use \['trials'\]"),  # one solve per rung
    (dict(kind="phase", reps=2), r"does not use \['reps'\]"),
    (dict(kind="phase", targets=(1e-3,)), r"does not use \['targets'\]"),
    (dict(kind="noise", reps=2), r"does not use \['reps'\]"),
    (dict(kind="noise", targets=(1e-3,)), r"does not use \['targets'\]"),
    (dict(kind="timing", solver="pgd"), r"does not use \['solver'\]"),  # runs both
    (dict(kind="phase", trials=0), "trials must be >= 1"),
    (dict(kind="timing", reps=0), "reps must be >= 1"),
    (dict(kind="noise", solver="bogus"), "unknown solver"),
    # Integer settings are never truncated.
    (dict(kind="phase", r_values=(2.7,)), "r_values must be an integer"),
    (dict(kind="phase", trials=2.5), "trials must be an integer"),
    (dict(kind="timing", n=31.5), "n must be an integer"),
    (dict(kind="timing", m=876.0), "m must be an integer"),
    (dict(kind="timing", reps=True), "reps must be an integer"),
    (dict(kind="noise", r=2.0), "r must be an integer"),
    (dict(kind="noise", m_values=(60, 120.5)), "m_values must be an integer"),
    (dict(kind="phase", seed=1.5), "seed must be an integer"),
    (dict(kind="phase", seed=-1), "seed must be >= 0"),
])
def test_spec_rejects_sizes_out_of_range(kwargs, match):
    with pytest.raises(ValueError, match=match):
        bench.ExperimentSpec(**kwargs)


@pytest.mark.parametrize("kind, sizes", [
    ("phase", dict(n=127, r_values=list(range(1, 17)),
                   p_values=[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
                   trials=20, solver="shgd", reps=None, targets=None)),
    ("timing", dict(n=2046, r=150, m=876, trials=20, reps=3,
                    targets=list(bench.TIMING_TARGETS), solver=None)),
    # Rows carry each rung's n, and each rung runs one solve.
    ("scaling", dict(n=None, r=30, m=512, solver="shgd",
                     trials=None, reps=None, targets=None)),
    ("noise", dict(n=127, r=12, m_values=[60, 120],
                   trials=20, solver="shgd", reps=None, targets=None)),
])
def test_sidecar_echoes_the_sizes_a_defaulted_spec_runs(tmp_path, kind, sizes):
    spec = bench.ExperimentSpec(kind=kind)
    path = tmp_path / "out.csv"
    bench.write_csv(path, bench.GridResult((), [], bench.build_meta(spec)))
    echo = json.loads((tmp_path / "out.csv.meta.json").read_text())["spec"]
    assert {k: echo[k] for k in sizes} == sizes


def test_phase_grid_row_order_and_determinism():
    spec = bench.ExperimentSpec(kind="phase", **TINY_PHASE)
    a = bench.run_phase(spec)
    b = bench.run_phase(bench.ExperimentSpec(kind="phase", **TINY_PHASE))
    keys = [(row["r"], row["p"]) for row in a.rows]
    assert keys == [(1, 0.5), (1, 0.9), (2, 0.5), (2, 0.9)]

    def stable(rows):
        return [{k: v for k, v in row.items() if k != "mean_ms"} for row in rows]

    assert stable(a.rows) == stable(b.rows)


# ---------------------------------------------------------------------------
# Noise sweep: fully deterministic CSV bytes
# ---------------------------------------------------------------------------

def test_noise_csv_byte_identical_modulo_timestamp(tmp_path):
    kwargs = dict(kind="noise", n=31, r=2, sigma_values=(1e-2,),
                  m_values=(15, 25), trials=2,
                  solver_overrides=dict(max_iters=150))
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    bench.write_csv(p1, bench.run_noise(bench.ExperimentSpec(**kwargs)))
    time.sleep(0.01)
    bench.write_csv(p2, bench.run_noise(bench.ExperimentSpec(**kwargs)))

    def body(path):
        return [ln for ln in path.read_text().splitlines()
                if not ln.startswith("#")]

    assert body(p1) == body(p2)
    cols, rows = bench.read_csv_rows(p1)
    assert cols == ("sigma_e", "snr_db", "m", "mean_rmse")
    assert [row["m"] for row in rows] == ["15", "25"]
    assert float(rows[0]["snr_db"]) == pytest.approx(40.0)  # -20 log10(1e-2)


def test_noise_more_samples_no_worse():
    spec = bench.ExperimentSpec(
        kind="noise", n=63, r=3, sigma_values=(1e-2,), m_values=(30, 55),
        trials=3, solver_overrides=dict(max_iters=250),
    )
    res = bench.run_noise(spec)
    rmse = {row["m"]: row["mean_rmse"] for row in res.rows}
    assert rmse[55] < rmse[30]
    assert res.meta["failures"] == {}


# ---------------------------------------------------------------------------
# Timing
# ---------------------------------------------------------------------------

def test_timing_smoke_and_csv_contract(tmp_path):
    spec = bench.ExperimentSpec(
        kind="timing", n=254, r=8, m=140, trials=1, reps=1,
        targets=(1e-1, 1e-3),
    )
    res = bench.run_timing(spec)
    assert res.columns == ("solver", "target", "mean_ms", "mean_iters",
                           "ratio", "flag")
    assert [(row["solver"], row["target"]) for row in res.rows] == [
        ("shgd", 1e-1), ("pgd", 1e-1), ("shgd", 1e-3), ("pgd", 1e-3)]
    for row in res.rows:
        assert row["flag"] is None
        assert row["mean_ms"] > 0
        if row["solver"] == "shgd":
            assert row["ratio"] > 0
        else:
            assert row["ratio"] is None
    fpi = res.meta["fft_passes_per_iter"]
    assert fpi["shgd"] > 0 and fpi["pgd"] > 0
    path = tmp_path / "timing.csv"
    bench.write_csv(path, res)
    cols, rows = bench.read_csv_rows(path)
    assert cols == ("solver", "target", "mean_ms", "mean_iters", "ratio", "flag")
    assert rows[1]["ratio"] == ""  # pgd rows leave the ratio cell empty


def test_timing_rejects_threads(tmp_path):
    # Trials always run serially, and scaling is its own kind: the old
    # thread count and timing variant are usage errors, caught before a solve.
    out = str(tmp_path / "t.csv")
    with pytest.raises(SystemExit) as exc:
        cli.main(["timing", "--threads", "2", "--out", out])
    assert exc.value.code == 1
    assert cli.main(["timing", "--config", '{"variant": "scaling"}',
                     "--out", out]) == 1
    with pytest.raises(TypeError):
        bench.ExperimentSpec(kind="timing", threads=2)


def test_flop_model_ratio_within_analytic_bounds():
    out = bench.measure_flop_model(2046, 150)
    assert out["C"] > 0
    assert 0.5 < out["ratio"] < 2.0 / 3.0


def test_scaling_cost_grows_with_length():
    # Three runs, compared on each rung's median, so that one slow host phase
    # during a single rung cannot invert the rise.
    spec = bench.ExperimentSpec(kind="scaling")
    runs = [bench.run_scaling(spec) for _ in range(3)]
    res = runs[0]
    assert res.columns == ("n", "r", "m", "iters", "per_iter_ms")
    ns = [row["n"] for row in res.rows]
    assert ns == [2**j - 2 for j in bench.SCALING_EXPONENTS]
    per_iter = np.median([[row["per_iter_ms"] for row in run.rows] for run in runs],
                         axis=0)
    assert all(b > a for a, b in zip(per_iter, per_iter[1:]))


def test_scaling_passes_solver_overrides_to_the_solve(monkeypatch):
    configs = []

    def fake_solve(observed, mask, config):
        configs.append(config)
        return SimpleNamespace(iters=config.max_iters,
                               history=[SimpleNamespace(ms=1.0)] * config.max_iters)

    monkeypatch.setitem(bench._SOLVERS, "shgd", fake_solve)
    monkeypatch.setattr(bench, "SCALING_EXPONENTS", (6, 7))
    spec = bench.ExperimentSpec(kind="scaling", r=3, m=40,
                                solver_overrides=dict(eta_prime=0.5))
    res = bench.run_scaling(spec)
    assert [row["n"] for row in res.rows] == [62, 126]
    assert [c.eta_prime for c in configs] == [0.5, 0.5]
    assert all(c.step_policy == "fixed" and c.max_iters == 12 for c in configs)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("overrides, iters", [
    (dict(rel_change_tol=0.5), 1),  # stops inside the warm-up
    (dict(max_iters=0), 0),
])
def test_scaling_per_iteration_time_of_a_short_solve(monkeypatch, overrides, iters):
    monkeypatch.setattr(bench, "SCALING_EXPONENTS", (7,))
    spec = bench.ExperimentSpec(kind="scaling", r=3, m=60, solver_overrides=overrides)
    (row,) = bench.run_scaling(spec).rows
    assert row["iters"] == iters
    if iters:
        assert row["per_iter_ms"] > 0
    else:
        assert row["per_iter_ms"] is None


# ---------------------------------------------------------------------------
# Selftest
# ---------------------------------------------------------------------------

def test_adjoint_residual_negative_control():
    rng = np.random.default_rng(3)
    clean = bench._adjoint_residual(41, rng)
    assert clean < 1e-12
    w = np.asarray(bench.__dict__["hankel_ops"].skew_diag_weights(41)).copy()
    w[3] *= 1.7
    assert bench._adjoint_residual(41, rng, weights=w) > 1e-6


def test_selftest_passes_quickly(capsys, monkeypatch):
    transforms = []
    row_spectra = hankel_ops._row_spectra

    def recording(*args, **kwargs):
        transforms.append(args[0].shape)
        return row_spectra(*args, **kwargs)

    # The checks include lifts above DENSE_ROWS, so the FFT kernels run too.
    monkeypatch.setattr(hankel_ops, "_row_spectra", recording)
    t0 = time.perf_counter()
    ok = bench.run_selftest()
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln]
    assert ok is True
    assert elapsed < 120.0
    assert lines[-1] == "selftest: all checks passed"
    checks = lines[:-1]
    assert len(checks) == len(bench._selftest_checks())
    assert all(ln.startswith("PASS  ") for ln in checks)
    assert transforms


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_gen_recover_roundtrip(tmp_path, capsys):
    sig = tmp_path / "sig.ssig.json"
    out = tmp_path / "res.json"
    code = cli.main([
        "gen", "--n", "63", "--rank", "3", "--m", "40", "--seed", "5",
        "--min-sep", "0.03", "--out", str(sig),
    ])
    assert code == 0
    assert sig.exists() and (tmp_path / "sig.ssig.json.model.json").exists()

    code = cli.main([
        "recover", "--input", str(sig), "--rank", "3", "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["termination"] in ("tol_reached", "max_iters")
    model = signal_model.load_smodel(tmp_path / "sig.ssig.json.model.json")
    x = signal_model.synthesize(model)
    x_hat = np.array([re + 1j * im for re, im in doc["x_hat"]])
    assert np.linalg.norm(x_hat - x) / np.linalg.norm(x) <= 1e-3
    captured = capsys.readouterr()
    assert f"({doc['single_iters']} in complex64)" in captured.out
    assert "recover" not in captured.err

    # A fixed step with a tight tolerance opens in complex64; the summary
    # says why that phase ended.
    code = cli.main([
        "recover", "--input", str(sig), "--rank", "3", "--out", str(out), "--config",
        json.dumps({"step_policy": "fixed", "rel_change_tol": 1e-9}),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["single_iters"] > 0 and doc["termination"] == "tol_reached"
    assert doc["single_ended_by"] in ("rate", "stall")
    assert (f"({doc['single_iters']} in complex64, ended by {doc['single_ended_by']})"
            in capsys.readouterr().out)


def test_cli_recover_pgd_solver(tmp_path):
    sig = tmp_path / "sig.ssig.json"
    out = tmp_path / "res.json"
    assert cli.main(["gen", "--n", "62", "--rank", "2", "--m", "40",
                     "--seed", "1", "--min-sep", "0.05",
                     "--out", str(sig)]) == 0
    assert cli.main(["recover", "--input", str(sig), "--rank", "2",
                     "--solver", "pgd", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert all("balancing_gap" in rec for rec in doc["history"])


def test_cli_usage_errors(tmp_path, capsys):
    # missing input file is caught, not raised
    assert cli.main(["recover", "--input", str(tmp_path / "nope.json"),
                     "--rank", "2"]) == 1
    # --config is the one way to set a solver field: the old flags are unknown
    for flag, value in (("--step", "fixed:0.5"), ("--tol", "1e-7"), ("--max-iters", "5")):
        with pytest.raises(SystemExit) as exc:
            cli.main(["recover", "--input", "x", "--rank", "2", flag, value])
        assert exc.value.code == 1
    # unknown solver name fails choice validation
    with pytest.raises(SystemExit) as exc:
        cli.main(["recover", "--input", "x", "--rank", "2",
                  "--solver", "bogus"])
    assert exc.value.code == 1
    # gen settings its draws refuse end with a message, not a traceback,
    # and write nothing
    out = tmp_path / "gen.ssig.json"
    for flags in (["--n", "10", "--rank", "8"], ["--n", "10", "--m", "20"],
                  ["--rank", "3", "--min-sep", "0.5"], ["--min-sep", "nan"],
                  ["--min-sep=-0.1"], ["--sigma-e", "nan"], ["--sigma-e", "inf"],
                  ["--sigma-e=-1"]):
        assert cli.main(["gen", *flags, "--out", str(out)]) == 1
        assert not out.exists()
        assert "bad gen settings" in capsys.readouterr().err


def test_cli_recover_rejects_nonfinite_samples(tmp_path):
    sig = tmp_path / "sig.ssig.json"
    assert cli.main(["gen", "--n", "31", "--rank", "2", "--m", "20",
                     "--seed", "0", "--out", str(sig)]) == 0
    doc = json.loads(sig.read_text())
    doc["samples"][doc["observed"][0]][0] = float("nan")
    sig.write_text(json.dumps(doc))
    assert cli.main(["recover", "--input", str(sig), "--rank", "2",
                     "--out", str(tmp_path / "r.json")]) == 1
    assert not (tmp_path / "r.json").exists()


def test_cli_config_validation(tmp_path):
    sig = tmp_path / "sig.ssig.json"
    assert cli.main(["gen", "--n", "31", "--rank", "2", "--m", "20",
                     "--seed", "0", "--out", str(sig)]) == 0
    base = ["recover", "--input", str(sig), "--rank", "2",
            "--out", str(tmp_path / "r.json")]
    assert cli.main(base + ["--config", '{"bogus_key": 1}']) == 1
    assert cli.main(base + ["--config", '[1, 2]']) == 1
    assert cli.main(base + ["--config", str(tmp_path / "missing.cfg")]) == 1

    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"max_iters": 5, "rel_change_tol": 1e-300}')
    assert cli.main(base + ["--config", str(cfg)]) == 0
    doc = json.loads((tmp_path / "r.json").read_text())
    assert doc["iters"] == 5 and doc["termination"] == "max_iters"


def test_cli_solver_failure_exit_code(tmp_path, capsys):
    sig = tmp_path / "sig.ssig.json"
    assert cli.main(["gen", "--n", "63", "--rank", "2", "--m", "40",
                     "--seed", "2", "--out", str(sig)]) == 0
    code = cli.main([
        "recover", "--input", str(sig), "--rank", "2",
        "--config", '{"step_policy": "fixed", "eta_prime": 500, "mu": Infinity}',
        "--out", str(tmp_path / "r.json"),
    ])
    assert code == 2
    # A solver's own refusal exits 2 too: all-zero samples hold no rank-2 lift.
    zero = tmp_path / "zero.ssig.json"
    zero.write_text(json.dumps({"n": 31, "observed": list(range(20)), "samples": [[0.0, 0.0]] * 31}))
    for solver in ("shgd", "pgd"):
        out = tmp_path / f"{solver}.json"
        code = cli.main(["recover", "--input", str(zero), "--rank", "2", "--solver", solver,
                         "--out", str(out)])
        assert code == 2 and not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("solver failed:") and "numerical rank below r=2" in err


def test_cli_phase_csv(tmp_path):
    out = tmp_path / "phase.csv"
    config = json.dumps(dict(
        n=31, r_values=[1], p_values=[0.6, 0.9], trials=2,
        solver_overrides=dict(max_iters=150),
    ))
    assert cli.main(["phase", "--config", config, "--out", str(out)]) == 0
    cols, rows = bench.read_csv_rows(out)
    assert cols == ("r", "p", "m", "successes", "trials",
                    "mean_iters", "mean_ms")
    assert len(rows) == 2
    assert (out.parent / "phase.csv.meta.json").exists()


def test_cli_scaling_csv(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "SCALING_EXPONENTS", (6, 7))
    out = tmp_path / "scaling.csv"
    config = json.dumps(dict(r=3, m=40))
    assert cli.main(["scaling", "--config", config, "--out", str(out)]) == 0
    cols, rows = bench.read_csv_rows(out)
    assert cols == ("n", "r", "m", "iters", "per_iter_ms")
    assert [(row["n"], row["r"], row["m"]) for row in rows] == [
        ("62", "3", "40"), ("126", "3", "40")]
    assert all(float(row["per_iter_ms"]) > 0 for row in rows)
    meta = json.loads((tmp_path / "scaling.csv.meta.json").read_text())
    assert meta["spec"]["kind"] == "scaling"


def test_cli_noise_csv(tmp_path):
    out = tmp_path / "noise.csv"
    config = json.dumps(dict(
        n=31, r=2, sigma_values=[1e-2], m_values=[20], trials=1,
        solver_overrides=dict(max_iters=100),
    ))
    assert cli.main(["noise", "--config", config, "--out", str(out)]) == 0
    cols, _ = bench.read_csv_rows(out)
    assert cols == ("sigma_e", "snr_db", "m", "mean_rmse")


def test_cli_rejects_an_impossible_rank_before_solving(tmp_path, monkeypatch):
    monkeypatch.setitem(bench._SOLVERS, "shgd", _raise_type_error)
    out = tmp_path / "x.csv"
    for kind, config in (
        ("phase", dict(n=31, r_values=[20], p_values=[0.5], trials=1)),
        ("phase", dict(n=31, r_values=[2], p_values=[1.5], trials=1)),
        ("noise", dict(n=0, r=0, trials=1)),
        ("timing", dict(n=31, r=2, m=0, trials=1)),
        ("phase", dict(n=31, r_values=[2.7], p_values=[0.5], trials=1)),
        ("phase", dict(n=31, r_values=[2], p_values=[0.5], trials=2.5)),
        ("timing", dict(n=31.5, r=2, m=20, trials=1, reps=1)),
        ("noise", dict(n=31, r=2, m_values=[20.5], sigma_values=[0.01], trials=1)),
        # The subcommand names the kind; a spec of another kind is refused.
        ("phase", dict(kind="noise", n=31, r=2, m_values=[20], sigma_values=[0.01],
                       trials=1)),
        # --seed sets the master seed; a config may not.
        ("phase", dict(seed=3, n=31, r_values=[2], p_values=[0.6], trials=1)),
    ):
        assert cli.main([kind, "--seed", "1", "--config", json.dumps(config),
                         "--out", str(out)]) == 1
    assert not out.exists()


def test_cli_recover_rejects_an_impossible_rank_before_solving(tmp_path, monkeypatch):
    sig = tmp_path / "sig.ssig.json"
    out = tmp_path / "r.json"
    assert cli.main(["gen", "--n", "63", "--rank", "3", "--m", "40", "--seed", "5",
                     "--min-sep", "0.03", "--out", str(sig)]) == 0
    monkeypatch.setattr(shgd, "recover", _raise_type_error)
    monkeypatch.setattr(pgd, "pgd_recover", _raise_type_error)
    for solver in ("shgd", "pgd"):
        assert cli.main(["recover", "--input", str(sig), "--rank", "40",
                         "--solver", solver, "--out", str(out)]) == 1
    assert not out.exists()


def test_cli_programming_error_propagates_from_recover(tmp_path, monkeypatch):
    sig = tmp_path / "sig.ssig.json"
    assert cli.main(["gen", "--n", "31", "--rank", "2", "--m", "20",
                     "--seed", "0", "--out", str(sig)]) == 0
    monkeypatch.setattr(shgd, "recover", _raise_type_error)
    with pytest.raises(TypeError, match="a bug inside the solve"):
        cli.main(["recover", "--input", str(sig), "--rank", "2",
                  "--out", str(tmp_path / "r.json")])


def test_cli_programming_error_propagates_from_phase(tmp_path, monkeypatch):
    monkeypatch.setitem(bench._SOLVERS, "shgd", _raise_type_error)
    config = json.dumps(dict(n=31, r_values=[2], p_values=[0.6], trials=1))
    with pytest.raises(TypeError, match="a bug inside the solve"):
        cli.main(["phase", "--config", config,
                  "--out", str(tmp_path / "x.csv")])


def test_cli_rejects_bad_solver_overrides(tmp_path):
    # An unknown field, and the two that each trial sets itself.
    for overrides in (dict(bogus=1), dict(r=5), dict(seed=3)):
        config = json.dumps(dict(solver_overrides=overrides))
        assert cli.main(["phase", "--config", config,
                         "--out", str(tmp_path / "x.csv")]) == 1
        with pytest.raises(ValueError, match="solver_overrides"):
            bench.ExperimentSpec(kind="phase", solver_overrides=overrides)


def _recover_with_config(tmp_path, config: str) -> int:
    sig = tmp_path / "sig.ssig.json"
    assert cli.main(["gen", "--n", "31", "--rank", "2", "--m", "20",
                     "--seed", "0", "--out", str(sig)]) == 0
    return cli.main(["recover", "--input", str(sig), "--rank", "2", "--config", config,
                     "--out", str(tmp_path / "r.json")])


def test_solver_config_builds_every_user_set_config():
    config = bench.solver_config(4, 7, {"max_iters": 5},
                                 {"max_iters": 200, "step_policy": "fixed"})
    assert (config.r, config.seed, config.max_iters, config.step_policy) == (4, 7, 5, "fixed")
    assert bench.solver_config(4, None, {}) == descent.SolverConfig(r=4)
    for overrides, match in (({"r": 5}, r"\['r'\]"), ({"seed": 1, "K": 2}, r"\['seed'\]"),
                             ({"bogus": 1}, "bogus"), ({"mu": "x"}, "not supported"),
                             ({"max_iters": 2.5}, "max_iters must be an integer")):
        with pytest.raises(ValueError, match=match):
            bench.solver_config(4, 7, overrides)


# Former SolverConfig fields: the step numerator is eta_prime under both
# policies, the Armijo and radius constants are class constants, mu = inf
# turns the clipping off and K = 0 the splitting.
REMOVED_SETTINGS = dict(eta0_scale=0.5, beta=0.5, c_armijo=1e-4, max_halvings=30,
                        projection=False, epsilon0=0.1, sample_splitting=True)


@pytest.mark.parametrize("name", sorted(REMOVED_SETTINGS))
def test_removed_solver_settings_are_rejected(tmp_path, name):
    setting = {name: REMOVED_SETTINGS[name]}
    with pytest.raises(TypeError):
        descent.SolverConfig(r=2, **setting)
    with pytest.raises(ValueError, match="solver_overrides"):
        bench.ExperimentSpec(kind="phase", solver_overrides=setting)
    assert _recover_with_config(tmp_path, json.dumps(setting)) == 1
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("config", [
    '{"max_iters": 3.5}', '{"K": true}', '{"rel_change_tol": NaN}',
    '{"mu": NaN}', '{"eta_prime": Infinity}',
    # --rank and --seed own these fields; the config does not override them.
    '{"r": 20}', '{"seed": 3}',
])
def test_cli_recover_rejects_bad_solver_values(tmp_path, config):
    assert _recover_with_config(tmp_path, config) == 1
    assert not (tmp_path / "r.json").exists()


def test_cli_offers_every_experiment_kind():
    assert list(bench.EXPERIMENTS) == ["phase", "timing", "scaling", "noise"]
    parser = cli.build_parser()
    for kind in bench.EXPERIMENTS:
        assert parser.parse_args([kind]).command == kind
    with pytest.raises(ValueError, match="unknown experiment kind"):
        bench.ExperimentSpec(kind="selftest")


def test_cli_rejects_flags_a_subcommand_does_not_read(tmp_path):
    for argv in (
        ["gen", "--config", "not-json", "--out", str(tmp_path / "s.json")],
        ["selftest", "--seed", "1"],
        ["selftest", "--config", '{"x": 1}'],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
    assert not (tmp_path / "s.json").exists()


def test_package_exports_the_modules_and_the_names_of_a_solve():
    import hankel_scs

    modules = ["bench", "descent", "freq_est", "hankel_ops", "lowrank", "metrics", "pgd",
               "shgd", "signal_model"]
    names = ["ConvergenceError", "RankDeficiencyError", "RecoveryResult", "SolverConfig",
             "pgd_recover", "recover"]
    assert sorted(hankel_scs.__all__) == sorted(modules + names)
    for name in modules:
        assert getattr(hankel_scs, name).__name__ == f"hankel_scs.{name}"
    for name, module in (("ConvergenceError", "lowrank"), ("RankDeficiencyError", "lowrank"),
                         ("RecoveryResult", "descent"), ("SolverConfig", "descent"),
                         ("pgd_recover", "pgd"), ("recover", "shgd")):
        assert getattr(hankel_scs, name) is getattr(getattr(hankel_scs, module), name)


def test_cli_selftest_exit_codes(tmp_path, monkeypatch):
    def fake_selftest(stream=None):
        print("PASS  stub", file=stream or __import__("sys").stdout)
        return True

    monkeypatch.setattr(bench, "run_selftest", fake_selftest)
    log = tmp_path / "selftest.log"
    assert cli.main(["selftest", "--out", str(log)]) == 0
    assert "PASS  stub" in log.read_text()

    monkeypatch.setattr(bench, "run_selftest", lambda stream=None: False)
    assert cli.main(["selftest"]) == 3
