"""Closed loop, metrics and correctness gate of the benchmark (see run.py).

Each instance of a workload is solved by ``shgd.recover`` and then
``pgd.pgd_recover`` on identical data and solver seed, and ESPRIT runs on
each recovered signal.  The loop is closed: one process, one pipeline at a
time, back to back, repeating rounds until ``--seconds`` have passed (at
least one round).  Every solve is scored against its ground truth.

``--trace 0`` prints the end-to-end metrics, with every time in reference
seconds: measured seconds corrected for the host's speed, which
``hostspeed.py`` samples while the loop runs.  ``--trace 1`` solves each
instance once untraced and once with the package's public functions rebound
to span recorders (``tracing.py``), prints the per-layer metrics, reports the
difference between the two runs as ``trace.overhead_frac`` and writes the
spans to ``.bench_out/``.  The last line of output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code
is 1 when a correctness check fails.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import hankel_scs as pkg
import hostspeed
import perfstats
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3         # setup_s is the median of this many full set-ups
TARGET_REL_ERR = 1e-5     # time-to-target threshold, as in criterion 4
FREQ_TOL_BINS = 0.05      # ESPRIT must land within this share of 1/n
DESK_MIN_RECOVERED = 0.5  # floor on each solver's recovered share on the desk grid
SOLVERS = (("shgd", "recover"), ("pgd", "pgd_recover"))
INIT_SPAN = {"shgd": "lowrank.spectral_init", "pgd": "pgd.rect_spectral_init"}
KERNELS = ("gstar_gram", "gstar_outer", "hankel_corr", "g_apply_times_conj")
TERMINATIONS = ("tol_reached", "max_iters", "diverged")
DOMAIN_ERRORS = (pkg.ConvergenceError, pkg.RankDeficiencyError, np.linalg.LinAlgError)


@dataclass
class Solve:
    """One solve and its ESPRIT pass, scored against the instance's truth."""

    solver: str
    cell: int
    r: int
    failed: str | None = None
    wall_s: float = 0.0
    esprit_s: float = 0.0
    err: float = float("inf")
    freq_err: float = float("inf")
    iters: int = 0
    termination: str = ""
    tt_s: float | None = None
    iter_ms: list = field(default_factory=list)
    fft_passes: int = 0
    gram_flops: float = 0.0
    halvings: int = 0
    gap_rel: float | None = None
    x_hat: object = None
    # perf_counter stamps of the solve and of its ESPRIT pass
    t0: float = 0.0
    t1: float = 0.0
    e0: float = 0.0
    e1: float = 0.0
    measured: tuple | None = None  # (wall_s, tt_s, esprit_s) before to_reference


def run_pipeline(wl, inst) -> list:
    """Both solvers, then ESPRIT on each result; solver-domain errors count as failed."""
    out = []
    for label, fn_name in SOLVERS:
        rec = Solve(label, inst.cell, inst.r)
        out.append(rec)
        config = pkg.SolverConfig(r=inst.r, seed=inst.solver_seed, **wl.solver_kwargs)
        solve = getattr(getattr(pkg, label), fn_name)  # looked up per call: tracing rebinds it
        rec.t0 = time.perf_counter()
        try:
            result = solve(inst.observed, inst.mask, config, x_true=inst.x)
        except DOMAIN_ERRORS as exc:
            rec.failed = f"{label}: {type(exc).__name__}"
            continue
        rec.t1 = time.perf_counter()
        rec.wall_s = rec.t1 - rec.t0
        if not np.isfinite(result.x_hat).all():
            rec.failed = f"{label}: non-finite x_hat"
            continue
        rec.e0 = time.perf_counter()
        try:
            est = pkg.freq_est.esprit(result.x_hat, inst.r)
        except DOMAIN_ERRORS as exc:
            rec.failed = f"esprit: {type(exc).__name__}"
            continue
        rec.e1 = time.perf_counter()
        rec.esprit_s = rec.e1 - rec.e0
        _score(rec, result, est, inst, config)
    return out


def _score(rec, result, est, inst, config):
    hist = result.history
    rec.x_hat = result.x_hat
    rec.err = pkg.metrics.rel_error(result.x_hat, inst.x)
    rec.freq_err = perfstats.freq_error(est.freqs, inst.freqs)
    rec.iters = result.iters
    rec.termination = result.termination
    rec.iter_ms = [h.ms for h in hist]
    rec.tt_s = perfstats.time_to_target(
        rec.iter_ms, [h.rel_err for h in hist], rec.wall_s, TARGET_REL_ERR)
    # The history carries the counter's per-iteration FFT-pass delta; the
    # gram counter also holds the one evaluation before the loop, taken out.
    rec.fft_passes = sum(h.fft_passes for h in hist)
    Zs = (result.Z_final,) if rec.solver == "shgd" else (result.Z_final.Z_U, result.Z_final.Z_V)
    rec.gram_flops = 8.0 * (result.counter.gram_flops - sum(Z.shape[0] for Z in Zs) * inst.r ** 2)
    if rec.solver == "shgd" and hist:
        numerator = config.eta_prime if config.step_policy == "fixed" else config.eta0_scale
        rec.halvings = sum(perfstats.infer_halvings(
            [h.step for h in hist], numerator / result.sigma1_M0, config.beta))
    if rec.solver == "pgd" and hist:
        rec.gap_rel = hist[-1].balancing_gap / result.sigma1_M0


def set_up(wl, seed):
    """Instance pool and warm-up; returns (pool, per-instance generation seconds)."""
    gen_s = []
    pool = []
    for k in range(wl.pool_rounds):
        round_ = []
        for cell in range(len(wl.cells)):
            t0 = time.perf_counter()
            round_.append(workloads.make_instance(wl, seed, cell, k))
            gen_s.append(time.perf_counter() - t0)
        pool.append(round_)
    # Untimed warm-up at every shape of the workload: FFT plans, weight
    # caches and BLAS start-up are paid here, not by the first timed solve.
    for inst in workloads.warmup_instances(wl, seed):
        kwargs = {**wl.solver_kwargs, "max_iters": 2}
        config = pkg.SolverConfig(r=inst.r, seed=inst.solver_seed, **kwargs)
        result = pkg.shgd.recover(inst.observed, inst.mask, config, x_true=inst.x)
        pkg.pgd.pgd_recover(inst.observed, inst.mask, config, x_true=inst.x)
        pkg.freq_est.esprit(result.x_hat, inst.r)
    return pool, gen_s


def closed_loop(wl, pool, seconds, tracer=None):
    """Rounds back to back until ``seconds`` have passed.

    With a tracer, each instance runs untraced and then traced; returns
    (untraced solves, traced solves, spans of the traced runs, check failures).
    """
    solves, traced, spans, problems = [], [], [], []
    t_start = time.perf_counter()
    k = 0
    while True:
        for inst in pool[k % len(pool)]:
            base = run_pipeline(wl, inst)
            solves.extend(base)
            if tracer is not None:
                with tracing.installed(tracer, pkg):
                    again = run_pipeline(wl, inst)
                new = tracer.take()
                _finish_spans(new, offset=len(spans))
                spans.extend(new)
                traced.extend(again)
                for a, b in zip(base, again):
                    if (a.x_hat is None) != (b.x_hat is None) or (
                            a.x_hat is not None and not np.array_equal(a.x_hat, b.x_hat)):
                        problems.append(f"{a.solver} cell {a.cell}: traced result differs")
            for rec in solves[-len(SOLVERS):] + traced[-len(SOLVERS):]:
                rec.x_hat = None
        k += 1
        if time.perf_counter() - t_start >= seconds:
            return solves, traced, spans, problems


def to_reference(solves, speed):
    """Restate each solve's times in reference seconds, keeping the measured ones."""
    for s in _ok(solves):
        s.measured = (s.wall_s, s.tt_s, s.esprit_s)
        if s.tt_s is not None:
            s.tt_s = speed.reference_s(s.t0, s.t1, upto=s.t0 + s.tt_s)
        s.wall_s = speed.reference_s(s.t0, s.t1)
        s.esprit_s = speed.reference_s(s.e0, s.e1)


def _finish_spans(spans, offset):
    """Self times, run-wide parent indices, and each trunc_svd's deferred check."""
    for span, self_s in zip(spans, perfstats.self_times([(s.parent, s.t0, s.t1) for s in spans])):
        span.self_s = self_s
        if span.parent is not None:
            span.parent += offset
        if span.name == "lowrank.trunc_svd":
            applyH, out = span.info.pop("check")
            span.info["residual"] = tracing.subspace_residual(applyH, out)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _ok(solves):
    return [s for s in solves if s.failed is None]


def _of(solves, solver):
    return [s for s in solves if s.solver == solver]


def end_to_end(solves, setups):
    """End-to-end metrics; ``setups`` are (reference, measured) seconds per set-up.

    The notes give each time figure as measured, before the host-speed correction.
    """
    done = _ok(solves)
    metrics, notes = {}, {}
    metrics["setup_s"] = (perfstats.median([ref for ref, _ in setups]), "s")
    notes["setup_s"] = f"median of {len(setups)} set-ups; measured " + ", ".join(
        f"{raw:.3f}" for _, raw in setups)
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    for solver, _ in SOLVERS:
        mine = _of(done, solver)
        walls = [s.wall_s for s in mine]
        raw_walls = [s.measured[0] for s in mine]
        metrics[f"{solver}.solve_s_p50"] = (perfstats.median(walls), "s")
        notes[f"{solver}.solve_s_p50"] = f"measured {perfstats.median(raw_walls):.6g}"
        p90, resolved = perfstats.tail_percentile(walls, 90)
        metrics[f"{solver}.solve_s_p90"] = (p90, "s")
        notes[f"{solver}.solve_s_p90"] = (
            f"measured {perfstats.tail_percentile(raw_walls, 90)[0]:.6g}; {len(walls)} solves"
            + ("" if resolved else f"; UNRESOLVED: fewer than {perfstats.TAIL_MIN_BEYOND} beyond"))
        reached = [s for s in mine if s.tt_s is not None]
        metrics[f"{solver}.tt1e-5_s"] = (perfstats.median([s.tt_s for s in reached]), "s")
        notes[f"{solver}.tt1e-5_s"] = (
            f"measured {perfstats.median([s.measured[1] for s in reached]):.6g}; "
            f"{len(reached)} of {len(walls)} solves reached 1e-5")
    pipelines = len(done) / len(SOLVERS)
    busy = sum(s.wall_s + s.esprit_s for s in done)
    metrics["instances_per_s"] = (pipelines / busy, "1/s")
    notes["instances_per_s"] = f"measured {pipelines / sum(s.measured[0] + s.measured[2] for s in done):.6g}"
    recovered = sum(s.err <= pkg.bench.SUCCESS_REL_ERR for s in done)
    metrics["recovered_frac"] = (recovered / len(solves), "frac")
    metrics["digits_p50"] = (perfstats.median([perfstats.digits(s.err) for s in done]), "digits")
    return metrics, notes


def per_layer(base, traced, spans, gen_s):
    m, notes = {}, {}
    n_inst = len(traced) / len(SOLVERS)
    on_path = [s for s in spans if s.root in ("shgd.recover", "pgd.pgd_recover")]

    def named(name, among=on_path):
        return [s for s in among if s.name == name]

    def per_inst(total):
        return total / n_inst

    svd = named("lowrank.trunc_svd")
    m["lowrank.trunc_svd.calls"] = (per_inst(len(svd)), "count/instance")
    m["lowrank.trunc_svd.s"] = (per_inst(sum(s.self_s for s in svd)), "s/instance")
    m["lowrank.trunc_svd.rounds_p50"] = (perfstats.median([s.info["rounds"] for s in svd]), "count")
    m["lowrank.trunc_svd.unconverged_frac"] = (
        sum(s.info["residual"] > s.info["tol"] for s in svd) / len(svd), "frac")
    m["lowrank.trunc_svd.residual_p50"] = (perfstats.median([s.info["residual"] for s in svd]), "rel")
    notes["lowrank.trunc_svd.rounds_p50"] = "max rounds %d" % max(s.info["rounds"] for s in svd)
    for name in ("lowrank.spectral_init", "lowrank.takagi_truncated", "pgd.rect_spectral_init"):
        m[f"{name}.s"] = (per_inst(sum(s.t1 - s.t0 for s in named(name))), "s/instance")

    for k in KERNELS:
        calls = named(f"hankel_ops.{k}")
        m[f"hankel_ops.{k}.calls"] = (per_inst(len(calls)), "count/instance")
        m[f"hankel_ops.{k}.s"] = (per_inst(sum(s.self_s for s in calls)), "s/instance")
    m["hankel_ops.hankel_corr.cols"] = (
        per_inst(sum(s.info["cols"] for s in named("hankel_ops.hankel_corr"))), "count/instance")

    for solver, fn_name in SOLVERS:
        root = f"{solver}.{fn_name}"
        recs = _ok(_of(traced, solver))
        iters = sum(s.iters for s in recs)
        loop_kernels = [s for s in on_path if s.root == root and not s.in_init and s.info
                        and "flops" in s.info]
        m[f"hankel_ops.fft_passes_per_iter.{solver}"] = (
            sum(s.fft_passes for s in recs) / iters, "count/iter")
        m[f"hankel_ops.computed_flops_per_iter.{solver}"] = (
            sum(s.info["flops"] for s in loop_kernels) / iters, "flop/iter")
        m[f"hankel_ops.computed_bytes_per_iter.{solver}"] = (
            sum(s.info["bytes"] for s in loop_kernels) / iters, "B/iter")
        m[f"{solver}.computed_gram_flops_per_iter"] = (
            sum(s.gram_flops for s in recs) / iters, "flop/iter")

        roots = named(root, spans)
        inits = named(INIT_SPAN[solver])
        m[f"{solver}.iters_p50"] = (perfstats.median([s.iters for s in recs]), "count")
        m[f"{solver}.init_s_p50"] = (perfstats.median([s.t1 - s.t0 for s in inits]), "s")
        m[f"{solver}.loop_s_p50"] = (perfstats.median(
            [(r.t1 - r.t0) - (i.t1 - i.t0) for r, i in zip(roots, inits)]), "s")
        m[f"{solver}.iter_ms_p50"] = (perfstats.median([ms for s in recs for ms in s.iter_ms]), "ms")
        m[f"{solver}.self_s"] = (per_inst(sum(s.self_s for s in roots)), "s/instance")
        proj = named(f"{solver}.project_C")
        m[f"{solver}.project_C.s"] = (per_inst(sum(s.self_s for s in proj)), "s/instance")
        m[f"{solver}.project_C.clip_frac"] = (
            sum(s.info["clipped"] for s in proj) / sum(s.info["rows"] for s in proj), "frac")
        for term in TERMINATIONS:
            m[f"{solver}.term.{term}"] = (sum(s.termination == term for s in recs), "count")

    shgd_recs = _ok(_of(traced, "shgd"))
    shgd_iters = sum(s.iters for s in shgd_recs)
    grams = [s for s in named("hankel_ops.gstar_gram") if s.root == "shgd.recover"]
    # One evaluation precedes the loop in every solve; the rest are candidates.
    m["shgd.evals_per_iter"] = ((len(grams) - len(shgd_recs)) / shgd_iters, "count/iter")
    m["shgd.halvings_per_iter"] = (sum(s.halvings for s in shgd_recs) / shgd_iters, "count/iter")
    m["pgd.balancing_gap_final"] = (
        perfstats.median([s.gap_rel for s in _ok(_of(traced, "pgd"))]), "rel")

    esprit = named("freq_est.esprit", spans)
    m["freq_est.esprit.s_p50"] = (perfstats.median([s.t1 - s.t0 for s in esprit]), "s")
    recovered = [s.freq_err for s in _ok(traced) if s.err <= pkg.bench.SUCCESS_REL_ERR]
    m["freq_est.freq_err_max"] = (max(recovered), "cycles/sample")
    m["signal_model.instance_s"] = (perfstats.median(gen_s), "s")

    tts = {solver: [s.tt_s for s in _ok(_of(base, solver)) if s.tt_s is not None]
           for solver, _ in SOLVERS}
    m["shgd_pgd.tt1e-5_ratio"] = (
        perfstats.median(tts["shgd"]) / perfstats.median(tts["pgd"]), "ratio")
    busy = [sum(s.wall_s + s.esprit_s for s in _ok(recs)) for recs in (base, traced)]
    m["trace.overhead_frac"] = (busy[1] / busy[0] - 1.0, "frac")
    notes["trace.overhead_frac"] = f"{n_inst:.0f} instances, untraced {busy[0]:.3f} s"
    return m, notes


# ---------------------------------------------------------------------------
# Correctness gate and reporting
# ---------------------------------------------------------------------------

def gate(wl, solves):
    """Problems with the program's outputs; empty when every check passes."""
    problems = []
    freq_tol = FREQ_TOL_BINS / wl.n
    for s in _ok(solves):
        if s.err <= pkg.bench.SUCCESS_REL_ERR and s.freq_err > freq_tol:
            problems.append(f"{s.solver} cell {s.cell}: ESPRIT off by {s.freq_err:.2e} "
                            f"> {freq_tol:.2e} on a recovered signal")
        if wl.gate_rel_err is not None and s.err > wl.gate_rel_err:
            problems.append(f"{s.solver} cell {s.cell}: rel_error {s.err:.2e} "
                            f"> {wl.gate_rel_err:.0e}")
    if wl.gate_rel_err is not None:
        problems += [f"failed solve: {s.failed}" for s in solves if s.failed]
    else:
        for solver, _ in SOLVERS:
            mine = _of(solves, solver)
            share = sum(s.err <= pkg.bench.SUCCESS_REL_ERR for s in _ok(mine)) / len(mine)
            if share < DESK_MIN_RECOVERED:
                problems.append(f"{solver} recovered share {share:.3f} < {DESK_MIN_RECOVERED}")
    return problems


def _meta(wl, args, facts):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    git = "unknown"  # a checkout exported without .git has no hash to report
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or git
        except (OSError, subprocess.SubprocessError):
            pass
    l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    nfft_r = max(tracing.fft_len(wl.n) * r for r, _ in wl.cells)
    return {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        **facts,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "git": git, "nproc": len(os.sched_getaffinity(0)),
        "l3_cache": l3.read_text().strip() if l3.is_file() else "unknown",
        # Three nfft x r complex spectra: the largest live arrays of an iteration.
        "working_set_mb_computed": round(3 * 16 * nfft_r / 2 ** 20, 1),
    }


def _report(meta, metrics, notes, problems, attempted, failed):
    for key, value in meta.items():
        print(f"# {key}: {value}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:44s} {value:14.6g} {unit}{note}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(f"failed/attempted: {failed}/{attempted}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))


def _child_setup_s(wl, seed) -> tuple[float, float]:
    """Set-up time of a fresh process, which pays imports and caches anew."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve().parent / "run.py"), "--workload", wl.name,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    out = json.loads(done.stdout.strip().splitlines()[-1])
    return out["setup_s"], out["measured_s"]


def main(args, t0: float, facts: dict) -> int:
    """Run one workload; ``t0`` is when the process started counting set-up."""
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    speed = hostspeed.HostSpeed(hostspeed.TASKS[wl.speed_task])
    if not args.trace or args.setup_only:  # traced runs report per-layer figures as measured
        speed.start()
    try:
        pool, gen_s = set_up(wl, args.seed)
        t_setup = time.perf_counter()
        if args.setup_only:
            print(json.dumps({"setup_s": speed.reference_s(t0, t_setup),
                              "measured_s": t_setup - t0}))
            return 0
        meta = _meta(wl, args, facts)
        tracer = tracing.Tracer() if args.trace else None
        solves, traced, spans, problems = closed_loop(wl, pool, args.seconds, tracer)
    finally:
        speed.stop()
    everything = solves + traced
    problems += gate(wl, everything)
    attempted = len(everything)
    failed = sum(s.failed is not None for s in everything)
    if args.trace:
        metrics, notes = per_layer(solves, traced, spans, gen_s)
        meta["spans"] = _write_spans(wl, args.seed, spans)
    else:
        to_reference(solves, speed)
        meta["host_speed"] = (f"{len(speed.durations)} samples of the {wl.speed_task!r} task, "
                              f"median {perfstats.median(speed.durations) * 1e3:.3f} ms, "
                              f"reference {speed.spec.ref_s * 1e3:.3f} ms")
        setups = [(speed.reference_s(t0, t_setup), t_setup - t0)]
        setups += [_child_setup_s(wl, args.seed) for _ in range(SETUP_REPEATS - 1)]
        metrics, notes = end_to_end(solves, setups)
    _report(meta, metrics, notes, problems, attempted, failed)
    return 1 if problems else 0


def _write_spans(wl, seed, spans):
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    t_base = spans[0].t0 if spans else 0.0
    rows = [[s.name, s.parent, round(s.t0 - t_base, 7), round(s.t1 - t_base, 7)] for s in spans]
    path = out / f"trace-{wl.name}-seed{seed}.json"
    path.write_text(json.dumps({"workload": wl.name, "seed": seed, "spans": rows}))
    return str(path.relative_to(ROOT))
