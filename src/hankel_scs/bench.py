"""Benchmark harness: phase-transition grids, solver timing comparisons,
noise sweeps, cost-scaling runs, and a self-contained invariant selftest.

Every experiment is driven by an :class:`ExperimentSpec` and emits a CSV plus
a JSON metadata sidecar (host info, git hash, and the spec with every default
filled in, so the sidecar says which settings ran).  :data:`EXPERIMENTS`
lists the kinds, each with its runner, the spec fields it reads with their
defaults, and its solver defaults.  Trials run one after another.
Reproducibility contract: identical spec and seed produce identical result
values; wall-time columns and the leading ``#`` timestamp header line
are excluded from that contract.  Per-trial randomness derives from
``SeedSequence(master_seed, spawn_key=cell_key + (trial,))``, so a grid split
by rank across processes reproduces the same rows.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import platform
import subprocess
import sys
import time
from collections import Counter, namedtuple
from dataclasses import asdict, dataclass, field

import numpy as np

from . import descent, freq_est, hankel_ops, lowrank, metrics, pgd, shgd, signal_model

SUCCESS_REL_ERR = 1e-3
TIMING_TARGETS = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7)
SCALING_EXPONENTS = (11, 12, 13, 14)

_SOLVERS = {"shgd": shgd.recover, "pgd": pgd.pgd_recover}


@dataclass
class ExperimentSpec:
    """Declarative description of one benchmark run.

    ``r_values``/``p_values`` span phase grids; ``r``/``m`` pin the single
    operating point of timing, scaling and noise runs (``m_values`` and
    ``sigma_values`` give the noise sweep its axes).  Scaling takes no ``n``
    and no ``trials``: it runs one solve per rung of the ladder n = 2^j - 2
    over :data:`SCALING_EXPONENTS`.  ``solver`` picks the solver of every
    kind but timing, which runs both ``reps`` times to each of ``targets``.
    Fields left None take the kind's defaults in :data:`EXPERIMENTS`, so
    runners and the sidecar read the values that ran; a field the kind does
    not read must stay None.  ``solver_overrides`` are ``SolverConfig``
    fields applied on top of the kind's solver defaults by
    :func:`solver_config`; they may not set ``r`` or ``seed``, which each
    trial sets.

    Settings are checked here, before any trial is solved: the seed, n,
    ranks, sample counts, trials and reps must be integers
    (:func:`descent.as_int`), all but the seed at least 1, a rank must fit
    the signal length (:func:`hankel_ops.check_rank`), sample counts may not exceed n,
    sampling ratios lie in (0, 1], noise levels are finite and non-negative,
    axes are not empty, and the solver must exist.
    """

    kind: str
    n: int | None = None
    r: int | None = None
    r_values: tuple | None = None
    p_values: tuple | None = None
    m: int | None = None
    m_values: tuple | None = None
    sigma_values: tuple | None = None
    trials: int | None = None
    seed: int = 0
    solver: str | None = None
    solver_overrides: dict = field(default_factory=dict)
    reps: int | None = None
    targets: tuple | None = None

    def __post_init__(self):
        if self.kind not in EXPERIMENTS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        try:
            solver_config(1, None, self.solver_overrides, EXPERIMENTS[self.kind].solver_defaults)
        except ValueError as exc:
            raise ValueError(f"bad solver_overrides: {exc}") from exc
        defaults = EXPERIMENTS[self.kind].defaults
        settings = {name for kind in EXPERIMENTS.values() for name in kind.defaults}
        unused = sorted(name for name in settings - set(defaults)
                        if getattr(self, name) is not None)
        if unused:
            raise ValueError(f"a {self.kind} run does not use {unused}")
        for name, value in defaults.items():
            if getattr(self, name) is None:
                setattr(self, name, value)
        for name, least in (("seed", 0), ("n", 1), ("trials", 1), ("reps", 1), ("r", None),
                            ("m", None), ("r_values", None), ("m_values", None)):
            value = getattr(self, name)
            if value is not None:
                setattr(self, name, tuple(descent.as_int(name, v, least) for v in value)
                        if name.endswith("_values") else descent.as_int(name, value, least))
        for name in ("p_values", "sigma_values", "targets"):
            if getattr(self, name) is not None:
                setattr(self, name, tuple(float(v) for v in getattr(self, name)))
        empty = sorted(name for name in defaults if getattr(self, name) == ())
        if empty:
            raise ValueError(f"{empty} must hold at least one value")
        self._check_sizes()

    def _check_sizes(self) -> None:
        # The scaling ladder's shortest rung bounds its rank and sample count.
        n = 2 ** min(SCALING_EXPONENTS) - 2 if self.kind == "scaling" else self.n
        for r in self.r_values if self.kind == "phase" else (self.r,):
            if r < 1:
                raise ValueError(f"ranks must be >= 1, got {r}")
            hankel_ops.check_rank(n, r)
        if self.solver is not None and self.solver not in _SOLVERS:
            raise ValueError(f"unknown solver {self.solver!r}")
        for p in self.p_values or ():
            if not 0 < p <= 1:
                raise ValueError(f"sampling ratios must lie in (0, 1], got {p}")
        for m in ((self.m,) if self.m is not None else ()) + (self.m_values or ()):
            if not 1 <= m <= n:
                raise ValueError(f"sample counts must lie in [1, n={n}], got {m}")
        for sigma in self.sigma_values or ():
            if not 0 <= sigma < math.inf:
                raise ValueError(f"noise levels must be finite and >= 0, got {sigma}")


@dataclass
class GridResult:
    """Tabular experiment outcome: ordered columns, per-cell rows, metadata."""

    columns: tuple
    rows: list
    meta: dict

    def __post_init__(self):
        self.columns = tuple(self.columns)


def trial_seed_sequence(master_seed: int, *key) -> np.random.SeedSequence:
    """Worker-independent per-trial seed: spawn_key = the cell/trial key."""
    return np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(int(k) for k in key))


def solver_seed(ss: np.random.SeedSequence) -> int:
    """Stable integer seed for SolverConfig drawn from a trial's sequence."""
    return int(ss.generate_state(1)[0])


def stratified_model(n: int, r: int, rng) -> signal_model.SpectralModel:
    """Random undamped model with one frequency per width-1/r stratum.

    Offsets stay inside [0.1, 0.9] of each stratum, so adjacent (and
    wrap-around) separations are at least 0.2/r without any rejection loop --
    usable at ranks where accept/reject separation sampling is infeasible.
    Amplitude convention matches :func:`signal_model.random_model`.
    """
    k = np.arange(r)
    freqs = np.sort(((k + 0.1 + 0.8 * rng.random(r)) / r) % 1.0)
    c = rng.uniform(0.0, 1.0, size=r)
    phi = rng.uniform(0.0, 2 * np.pi, size=r)
    amps = (1.0 + 10.0 ** (0.5 * c)) * np.exp(-1j * phi)
    return signal_model.SpectralModel(n=n, freqs=freqs, dampings=np.zeros(r), amps=amps)


def _git_hash() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def _spec_echo(spec: ExperimentSpec) -> dict:
    echo = asdict(spec)
    for key, value in echo.items():
        if isinstance(value, tuple):
            echo[key] = list(value)
    return echo


def build_meta(spec: ExperimentSpec, **extra) -> dict:
    meta = {
        "spec": _spec_echo(spec),
        "git_hash": _git_hash(),
        "host": platform.node(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    meta.update(extra)
    return meta


def _fmt(value) -> str:
    """Deterministic CSV cell formatting (None -> empty cell)."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return f"{value:.6g}"
    return str(value)


def write_csv(path, result: GridResult) -> None:
    """CSV with a ``#`` timestamp header line, plus a JSON metadata sidecar.

    The timestamp line is outside the determinism contract; everything below
    it is formatted through :func:`_fmt` so identical results are identical
    bytes.  The sidecar lands at ``<path>.meta.json``.
    """
    path = os.fspath(path)
    with open(path, "w", newline="") as f:
        f.write(f"# generated {result.meta.get('timestamp', '')}\n")
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(result.columns)
        for row in result.rows:
            writer.writerow([_fmt(row.get(c)) for c in result.columns])
    with open(path + ".meta.json", "w") as f:
        json.dump(result.meta, f, indent=2, default=str)


def read_csv_rows(path):
    """(columns, rows-as-string-dicts) of a harness CSV, skipping ``#`` lines."""
    with open(path, newline="") as f:
        lines = [ln for ln in f if not ln.startswith("#")]
    reader = csv.DictReader(lines)
    return tuple(reader.fieldnames or ()), list(reader)


def _mean(values) -> float | None:
    values = [v for v in values if v is not None]
    return float(np.mean(values)) if values else None


# ---------------------------------------------------------------------------
# One trial path: instance draw, solver config, failure catch, grid runner
# ---------------------------------------------------------------------------

# Solver-domain errors.  A grid trial that raises one of these is a
# non-success, counted per class in the metadata; any other exception is a
# bug and propagates.
TRIAL_ERRORS = (lowrank.ConvergenceError, lowrank.RankDeficiencyError,
                signal_model.SeparationError, np.linalg.LinAlgError)


def _separated(spacing: float):
    """Model generator with wrap-around separation at least ``spacing / n``."""
    return lambda n, r, rng: signal_model.random_model(
        n, r, rng=rng, min_sep=spacing / n
    )


def _draw(seed: int, key: tuple, n: int, r: int, m: int, model, sigma_e: float = 0.0):
    """Deterministic (signal, mask, observed, solver seed) for one trial key.

    ``model(n, r, rng)`` draws the ground truth from the trial's generator,
    which then draws the mask and the noise.
    """
    ss = trial_seed_sequence(seed, *key)
    rng = np.random.default_rng(ss)
    x = signal_model.synthesize(model(n, r, rng))
    mask = signal_model.uniform_mask(n, m, rng=rng)
    observed = signal_model.observe(x, mask, sigma_e=sigma_e, rng=rng)
    return x, mask, observed, solver_seed(ss)


def solver_config(r: int, seed: int | None, overrides: dict,
                  defaults: dict | None = None) -> descent.SolverConfig:
    """``defaults`` with ``overrides`` on top at rank ``r`` and ``seed``: the
    one builder of a user-set config.  ``overrides`` may not set ``r`` or
    ``seed``, which the caller owns; any refused setting raises ValueError."""
    reserved = sorted({"r", "seed"} & set(overrides))
    if reserved:
        raise ValueError(f"cannot set {reserved}: the caller sets the rank and seed")
    try:
        return descent.SolverConfig(r=r, seed=seed, **{**(defaults or {}), **overrides})
    except TypeError as exc:
        raise ValueError(str(exc)) from exc


def _config(spec: ExperimentSpec, r: int, seed: int) -> descent.SolverConfig:
    """The kind's solver defaults with ``spec.solver_overrides`` on top."""
    return solver_config(r, seed, spec.solver_overrides, EXPERIMENTS[spec.kind].solver_defaults)


_Trial = namedtuple("_Trial", "err iters ms failure")


def _grid_trial(spec, key, n, r, m, model, sigma_e=0.0) -> _Trial:
    """Draw and solve one grid trial; a solver-domain error scores it failed."""
    t0 = time.perf_counter()
    try:
        x, mask, observed, seed = _draw(spec.seed, key, n, r, m, model, sigma_e)
        result = _SOLVERS[spec.solver](observed, mask, _config(spec, r, seed))
    except TRIAL_ERRORS as exc:
        err, iters, failure = float("inf"), None, type(exc).__name__
    else:
        err, iters, failure = metrics.rel_error(result.x_hat, x), result.iters, None
    return _Trial(err, iters, (time.perf_counter() - t0) * 1e3, failure)


def _run_grid(spec, axes, trial, row_of, columns) -> GridResult:
    """Run ``trial(*cell, t)`` over every cell of the axes' product and trial t.

    ``row_of(cell, trials)`` reduces each cell's trials to one row, in axis
    order.  ``meta["failures"]`` counts failed trials per error class.
    """
    cells = list(itertools.product(*axes))
    outcomes = [trial(*cell, t) for cell in cells for t in range(spec.trials)]
    k = spec.trials
    rows = [row_of(cell, outcomes[i * k:(i + 1) * k]) for i, cell in enumerate(cells)]
    failures = Counter(o.failure for o in outcomes if o.failure is not None)
    meta = build_meta(spec, failures=dict(sorted(failures.items())))
    return GridResult(columns=columns, rows=rows, meta=meta)


# ---------------------------------------------------------------------------
# Phase-transition grid
# ---------------------------------------------------------------------------

PHASE_SOLVER_DEFAULTS = dict(
    step_policy="backtracking", rel_change_tol=1e-5, max_iters=200
)


def run_phase(spec: ExperimentSpec) -> GridResult:
    """Success-probability grid over (rank, sampling ratio) cells.

    Each cell runs ``spec.trials`` seeded recoveries with the configured
    solver; success means relative error at most 1e-3.  A trial that raises
    one of :data:`TRIAL_ERRORS` counts as non-success without aborting the
    grid; any other exception propagates.
    """
    if spec.kind != "phase":
        raise ValueError("spec.kind must be 'phase'")
    n = spec.n
    model = _separated(1.0)

    def m_of(p):
        return max(1, round(p * n))

    def trial(r, p, t):
        return _grid_trial(spec, (r, round(p * 10000), t), n, r, m_of(p), model)

    def row_of(cell, trials):
        r, p = cell
        return dict(
            r=r, p=p, m=m_of(p),
            successes=sum(t.err <= SUCCESS_REL_ERR for t in trials),
            trials=spec.trials,
            mean_iters=_mean([t.iters for t in trials]),
            mean_ms=_mean([t.ms for t in trials]),
        )

    columns = ("r", "p", "m", "successes", "trials", "mean_iters", "mean_ms")
    return _run_grid(spec, (spec.r_values, spec.p_values), trial, row_of, columns)


# ---------------------------------------------------------------------------
# Timing: SHGD vs PGD time-to-target
# ---------------------------------------------------------------------------

TIMING_SOLVER_DEFAULTS = dict(
    step_policy="fixed", eta_prime=0.75, rel_change_tol=1e-9, max_iters=900
)


def _time_to_targets(result: descent.RecoveryResult, wall_s: float, targets):
    """Per-target (seconds, iterations) from a solve's error trajectory.

    Initialization time (wall minus the summed per-iteration times) is
    charged to every target; a target never reached maps to (None, None).
    """
    cum_ms = np.cumsum([rec.ms for rec in result.history])
    errs = np.array([
        rec.rel_err if rec.rel_err is not None else np.inf
        for rec in result.history
    ])
    init_s = wall_s - cum_ms[-1] / 1e3 if len(cum_ms) else wall_s
    out = {}
    for target in targets:
        hit = np.nonzero(errs <= target)[0]
        if hit.size:
            out[target] = (init_s + cum_ms[hit[0]] / 1e3, int(hit[0]) + 1)
        else:
            out[target] = (None, None)
    return out


def run_timing(spec: ExperimentSpec) -> GridResult:
    """Head-to-head SHGD vs PGD wall time to each target accuracy.

    Both solvers see identical data and seeds per trial.  Trials run one
    after another, so no solve competes with another for the cores.  Wall
    times are the median over ``spec.reps`` repeated solves (iteration
    counts are deterministic across reps).  Rows carry per-solver means over
    trials; the SHGD row of each target also carries ratio = mean_shgd /
    mean_pgd.  A solver that missed a target in any trial gets a
    ``nonconverged`` flag and the ratio is omitted for that target.
    """
    if spec.kind != "timing":
        raise ValueError("spec.kind must be 'timing'")
    n, r, m = spec.n, spec.r, spec.m

    def one_trial(trial: int) -> dict:
        """solver -> ({target: (median seconds or None, iterations)}, passes/iter)."""
        x, mask, observed, seed = _draw(spec.seed, (r, m, trial), n, r, m, stratified_model)
        config = _config(spec, r, seed)
        out = {}
        for name, solver_fn in _SOLVERS.items():
            reps = []
            for _ in range(spec.reps):
                t0 = time.perf_counter()
                result = solver_fn(observed, mask, config, x_true=x)
                reps.append(_time_to_targets(result, time.perf_counter() - t0, spec.targets))
            med = {}
            for target in spec.targets:
                times = [rep[target][0] for rep in reps]
                med[target] = (
                    None if None in times else float(np.median(times)),
                    reps[-1][target][1],
                )
            out[name] = (med, result.counter.fft_passes / max(result.iters, 1))
        return out

    trials = [one_trial(t) for t in range(spec.trials)]
    rows = []
    for target in spec.targets:
        means, cells = {}, {}
        for name in _SOLVERS:
            times = [out[name][0][target][0] for out in trials]
            means[name] = None if None in times else float(np.mean(times)) * 1e3
            cells[name] = dict(
                solver=name, target=target, mean_ms=means[name],
                mean_iters=_mean([out[name][0][target][1] for out in trials]),
                ratio=None, flag="nonconverged" if None in times else None,
            )
        if None not in means.values():
            cells["shgd"]["ratio"] = means["shgd"] / means["pgd"]
        rows.extend(cells.values())
    meta = build_meta(
        spec,
        fft_passes_per_iter={
            name: _mean([out[name][1] for out in trials]) for name in _SOLVERS
        },
        flop_model=measure_flop_model(n, r),
    )
    columns = ("solver", "target", "mean_ms", "mean_iters", "ratio", "flag")
    return GridResult(columns=columns, rows=rows, meta=meta)


_FLOP_MODEL_LOOPS = 15  # timed calls per side of measure_flop_model's constant


def _median_call_s(fn) -> float:
    """Median wall time of :data:`_FLOP_MODEL_LOOPS` calls of ``fn``, after one
    untimed call that warms plans and caches."""
    fn()
    times = []
    for _ in range(_FLOP_MODEL_LOOPS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def measure_flop_model(n: int, r: int) -> dict:
    """Per-iteration cost model with a measured FFT constant.

    Writes the solvers' per-iteration flops as 2C n r log2(n) + (1 + g) n r^2
    (SHGD: the gram Z^H Z and the product Z conj(A)) and 3C n r log2(n) +
    2 (1 + g) n r^2 (PGD: two grams and two products), where a gram costs
    g = 1/2 of a product from n r^2 = :data:`descent.HERK_FROM` on (BLAS herk
    forms one triangle) and g = 1 below it.  C is calibrated as the ratio of
    the measured one-column FFT-pass time to the measured time of n r
    multiply-accumulates, divided by log2(n), on the lift of
    :func:`hankel_ops.rect_dims`; each time is the median of
    :data:`_FLOP_MODEL_LOOPS` timed calls after one warm-up call.  Returns the
    constant and the resulting model ratio
    (2C log2 n + (1 + g) r) / (3C log2 n + 2 (1 + g) r), which lies between
    1/2 and 2/3.
    """
    n_1, n_2 = hankel_ops.rect_dims(n)
    rng = np.random.default_rng(0)
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    block = rng.standard_normal((n_2, r)) + 1j * rng.standard_normal((n_2, r))
    t_pass = _median_call_s(lambda: hankel_ops.hankel_corr(c, block, n_1)) / r

    A = rng.standard_normal((n_1, r)) + 1j * rng.standard_normal((n_1, r))
    G = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
    out = np.empty_like(A)  # timed without the fresh pages of a new result
    t_gram = _median_call_s(lambda: np.matmul(A, G, out=out))  # one n r^2 product
    t_mac = t_gram / (n_1 * r * r)
    log2n = math.log2(n_1)
    C = t_pass / (t_mac * n_1 * log2n)
    r_terms = (1.5 if n_1 * r * r >= descent.HERK_FROM else 2.0) * r
    ratio = (2 * C * log2n + r_terms) / (3 * C * log2n + 2 * r_terms)
    return {"C": C, "ratio": ratio, "t_pass_s": t_pass, "t_mac_s": t_mac}


# ---------------------------------------------------------------------------
# Scaling: per-iteration cost versus signal length
# ---------------------------------------------------------------------------

SCALING_SOLVER_DEFAULTS = dict(
    step_policy="fixed", eta_prime=0.75, rel_change_tol=1e-300, max_iters=12
)
SCALING_WARMUP = 3  # leading iterations left out of the per-iteration median


def run_scaling(spec: ExperimentSpec) -> GridResult:
    """Per-iteration solver cost versus signal length at fixed rank.

    Runs a short fixed-step solve at each n = 2^j - 2 and reports the median
    per-iteration wall time; the growth should track n log n.  The first
    :data:`SCALING_WARMUP` iterations are left out, but never the last one,
    and a solve that ran no iteration leaves ``per_iter_ms`` empty.
    """
    if spec.kind != "scaling":
        raise ValueError("spec.kind must be 'scaling'")
    r, m = spec.r, spec.m
    rows = []
    for j in SCALING_EXPONENTS:
        n = 2 ** j - 2
        _, mask, observed, seed = _draw(spec.seed, (r, m, 0), n, r, m, stratified_model)
        config = _config(spec, r, seed)
        result = _SOLVERS[spec.solver](observed, mask, config)
        warmup = min(SCALING_WARMUP, max(result.iters - 1, 0))
        timed = [rec.ms for rec in result.history[warmup:]]
        per_iter = float(np.median(timed)) if timed else None
        rows.append(dict(n=n, r=r, m=m, iters=result.iters, per_iter_ms=per_iter))
    columns = ("n", "r", "m", "iters", "per_iter_ms")
    return GridResult(columns=columns, rows=rows, meta=build_meta(spec))


# ---------------------------------------------------------------------------
# Noise robustness sweep
# ---------------------------------------------------------------------------

NOISE_SOLVER_DEFAULTS = dict(
    step_policy="backtracking", rel_change_tol=1e-8, max_iters=300
)


def run_noise(spec: ExperimentSpec) -> GridResult:
    """Reconstruction error versus observation noise level.

    For each (sigma_e, m) cell runs ``spec.trials`` seeded recoveries and
    reports the root-mean-square relative error; a failed trial (see
    :data:`TRIAL_ERRORS`) contributes an infinite error.  The noise model
    scales sigma_e by the observed-signal norm, so SNR in dB is
    -20 log10(sigma_e).
    """
    if spec.kind != "noise":
        raise ValueError("spec.kind must be 'noise'")
    n, r = spec.n, spec.r
    model = _separated(1.5)

    def trial(sigma, m, t):
        return _grid_trial(spec, (r, m, t, round(sigma * 1e6)), n, r, m, model,
                           sigma_e=sigma)

    def row_of(cell, trials):
        sigma, m = cell
        errs = np.array([t.err for t in trials])
        snr_db = float("inf") if sigma == 0 else -20.0 * math.log10(sigma)
        return dict(sigma_e=sigma, snr_db=snr_db, m=m,
                    mean_rmse=float(np.sqrt(np.mean(errs ** 2))))

    columns = ("sigma_e", "snr_db", "m", "mean_rmse")
    axes = (spec.sigma_values, spec.m_values)
    return _run_grid(spec, axes, trial, row_of, columns)


# ---------------------------------------------------------------------------
# Experiment kinds: the one list that the spec and the CLI read.  ``defaults``
# names the spec fields a kind reads, with the values a spec fills in;
# ``solver_defaults`` are the SolverConfig fields its solves start from.
# ---------------------------------------------------------------------------

Experiment = namedtuple("Experiment", "run help defaults solver_defaults")
EXPERIMENTS = {
    "phase": Experiment(run_phase, "success-probability grid", dict(
        n=127, r_values=tuple(range(1, 17)),
        p_values=tuple(round(0.1 * i, 10) for i in range(1, 10)),
        trials=20, solver="shgd",
    ), PHASE_SOLVER_DEFAULTS),
    "timing": Experiment(run_timing, "SHGD-vs-PGD time-to-target comparison", dict(
        n=2046, r=150, m=876, trials=20, reps=3, targets=TIMING_TARGETS,
    ), TIMING_SOLVER_DEFAULTS),
    "scaling": Experiment(run_scaling, "per-iteration cost versus signal length",
                          dict(r=30, m=512, solver="shgd"), SCALING_SOLVER_DEFAULTS),
    "noise": Experiment(run_noise, "noise robustness sweep", dict(
        n=127, r=12, m_values=(60, 120), sigma_values=(0.0, 1e-3, 1e-2, 1e-1, 1.0),
        trials=20, solver="shgd",
    ), NOISE_SOLVER_DEFAULTS),
}


# ---------------------------------------------------------------------------
# Selftest
# ---------------------------------------------------------------------------


def _adjoint_residual(n: int, rng, weights=None) -> float:
    """Max relative defect of <G u, M> = <u, G* M> over a few random probes.

    The left side applies the library's normalized lift; the right side
    rebuilds the adjoint from the ``weights`` vector (defaulting to the true
    skew-diagonal counts).  Corrupting ``weights`` must push the residual far
    above tolerance -- the negative control for this very check.
    """
    shape = hankel_ops.rect_dims(n)
    w = hankel_ops.skew_diag_weights(n) if weights is None else np.asarray(weights)
    worst = 0.0
    for _ in range(5):
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        M = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        Gu = hankel_ops.lift_dense(hankel_ops.apply_D_inv(u))
        gstar_M = hankel_ops.hankel_adjoint_dense(M) / np.sqrt(w)
        lhs = complex(np.sum(Gu * np.conj(M)))
        rhs = complex(np.sum(u * np.conj(gstar_M)))
        scale = abs(lhs) + abs(rhs) + 1e-30
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst


def _selftest_checks():
    """Yield (name, callable) pairs; each callable returns (passed, detail)."""
    rng = np.random.default_rng(20240817)

    def weights_identity():
        worst = 0.0
        for n in (11, 31, 63):
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            HstarH = hankel_ops.hankel_adjoint_dense(hankel_ops.lift_dense(x))
            worst = max(worst, float(np.linalg.norm(
                HstarH - hankel_ops.skew_diag_weights(n) * x
            )))
        return worst < 1e-10, f"max defect {worst:.2e}"

    def adjoint_identity():
        worst = max(_adjoint_residual(n, rng) for n in (15, 41, 127))
        return worst < 1e-12, f"max rel defect {worst:.2e}"

    def adjoint_negative_control():
        w = hankel_ops.skew_diag_weights(41).copy()
        w[3] *= 1.7  # corrupt one skew-diagonal count
        resid = _adjoint_residual(41, rng, weights=w)
        return resid > 1e-6, f"corrupted-weights residual {resid:.2e} (must be large)"

    def gstar_g_identity():
        worst = 0.0
        for n in (21, 63):
            u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            M = hankel_ops.lift_dense(hankel_ops.apply_D_inv(u))
            back = hankel_ops.apply_D_inv(hankel_ops.hankel_adjoint_dense(M))
            worst = max(worst, float(np.linalg.norm(back - u) / np.linalg.norm(u)))
        return worst < 1e-12, f"max rel defect {worst:.2e}"

    # One length lifts above DENSE_ROWS, so the FFT kernels are checked too.
    fft_n = 2 * hankel_ops.DENSE_ROWS + 41

    def fft_vs_dense():
        worst = 0.0
        for n in (19, 45, 101, fft_n):
            n_s = hankel_ops.rect_dims(n)[0]
            c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            B = rng.standard_normal((n_s, 3)) + 1j * rng.standard_normal((n_s, 3))
            dense = hankel_ops.lift_dense(c) @ B
            fast = hankel_ops.hankel_corr(c, B, n_s)
            worst = max(worst, float(
                np.linalg.norm(fast - dense) / np.linalg.norm(dense)
            ))
        return worst < 1e-12, f"max rel defect {worst:.2e}"

    def gram_adjoint_vs_dense():
        worst = 0.0
        for n in (19, 63, fft_n):
            n_s = hankel_ops.rect_dims(n)[0]
            Z = rng.standard_normal((n_s, 3)) + 1j * rng.standard_normal((n_s, 3))
            dense = hankel_ops.apply_D_inv(
                hankel_ops.hankel_adjoint_dense(Z @ Z.T)
            )
            fast = hankel_ops.gstar_gram(Z)
            worst = max(worst, float(
                np.linalg.norm(fast - dense) / np.linalg.norm(dense)
            ))
        return worst < 1e-12, f"max rel defect {worst:.2e}"

    def takagi_matches_svd():
        n_s, r = 40, 4
        W = rng.standard_normal((n_s, r)) + 1j * rng.standard_normal((n_s, r))
        M = W @ W.T
        E = rng.standard_normal((n_s, n_s)) + 1j * rng.standard_normal((n_s, n_s))
        M += 1e-6 * (E + E.T)
        factor = lowrank.takagi_truncated(lambda V: M @ V, n_s, r, seed=rng)
        approx = (factor.U_hat * factor.sigma) @ factor.U_hat.T
        _, s, _ = np.linalg.svd(M)
        err = np.linalg.norm(M - approx)
        best = np.linalg.norm(s[r:])
        ok = err <= best * (1 + 1e-8) + 1e-12 * s[0]
        return ok, f"takagi err {err:.3e} vs best rank-r {best:.3e}"

    def shgd_gradient_fd():
        n, r = 31, 2
        model = signal_model.random_model(n, r, rng=rng, min_sep=1.0 / n)
        x = signal_model.synthesize(model)
        mask = signal_model.uniform_mask(n, 20, rng=rng)
        y = hankel_ops.apply_D(signal_model.observe(x, mask, rng=rng))
        p = mask.p
        n_s = hankel_ops.rect_dims(n)[0]
        Z = rng.standard_normal((n_s, r)) + 1j * rng.standard_normal((n_s, r))
        G = shgd.grad(Z, y, mask, p)
        delta = rng.standard_normal(Z.shape) + 1j * rng.standard_normal(Z.shape)
        h = 1e-6
        fp = shgd.loss(Z + h * delta, y, mask, p)
        fm = shgd.loss(Z - h * delta, y, mask, p)
        fd = (fp - fm) / (2 * h)
        an = float(np.real(np.vdot(G, delta)))
        rel = abs(fd - an) / (abs(fd) + abs(an) + 1e-30)
        return rel < 1e-5, f"directional-derivative rel err {rel:.2e}"

    def pgd_gradient_fd():
        n, r = 30, 2
        model = signal_model.random_model(n, r, rng=rng, min_sep=1.0 / n)
        x = signal_model.synthesize(model)
        mask = signal_model.uniform_mask(n, 20, rng=rng)
        n_1, n_2 = hankel_ops.rect_dims(n)
        y = hankel_ops.apply_D(signal_model.observe(x, mask, rng=rng), n_rows=n_1)
        p = mask.p
        Z_U = rng.standard_normal((n_1, r)) + 1j * rng.standard_normal((n_1, r))
        Z_V = rng.standard_normal((n_2, r)) + 1j * rng.standard_normal((n_2, r))
        pair = pgd.FactorPair(Z_U, Z_V)
        G_U, G_V = pgd.pgd_grads(pair, y, mask, p)
        dU = rng.standard_normal(Z_U.shape) + 1j * rng.standard_normal(Z_U.shape)
        dV = rng.standard_normal(Z_V.shape) + 1j * rng.standard_normal(Z_V.shape)
        h = 1e-6
        fp = pgd.pgd_loss(pgd.FactorPair(Z_U + h * dU, Z_V + h * dV), y, mask, p)
        fm = pgd.pgd_loss(pgd.FactorPair(Z_U - h * dU, Z_V - h * dV), y, mask, p)
        fd = (fp - fm) / (2 * h)
        an = float(np.real(np.vdot(G_U, dU)) + np.real(np.vdot(G_V, dV)))
        rel = abs(fd - an) / (abs(fd) + abs(an) + 1e-30)
        return rel < 1e-5, f"directional-derivative rel err {rel:.2e}"

    def loss_dense_oracle():
        n, r = 21, 2
        n_s = hankel_ops.rect_dims(n)[0]
        model = signal_model.random_model(n, r, rng=rng)
        x = signal_model.synthesize(model)
        mask = signal_model.uniform_mask(n, 14, rng=rng)
        observed = signal_model.observe(x, mask, rng=rng)
        y = hankel_ops.apply_D(observed)
        p = mask.p
        Z = rng.standard_normal((n_s, r)) + 1j * rng.standard_normal((n_s, r))
        fast = shgd.loss(Z, y, mask, p)
        M = Z @ Z.T
        g = hankel_ops.apply_D_inv(hankel_ops.hankel_adjoint_dense(M))
        counts = np.bincount(mask.indices, minlength=n)
        data = float(np.sum(counts * np.abs(g - y) ** 2)) / (4 * p)
        proj = hankel_ops.lift_dense(hankel_ops.apply_D_inv(g))
        pen = 0.25 * float(np.linalg.norm(M - proj) ** 2)
        dense = data + pen
        rel = abs(fast - dense) / (abs(dense) + 1e-30)
        return rel < 1e-10, f"rel defect {rel:.2e}"

    def lemma4_chain():
        failures = 0
        worst = ""
        for _ in range(20):
            n_s, r = 20, 3
            Zs = rng.standard_normal((n_s, r)) + 1j * rng.standard_normal((n_s, r))
            Z = Zs + 0.1 * (
                rng.standard_normal((n_s, r)) + 1j * rng.standard_normal((n_s, r))
            )
            report = metrics.lemma4_check(Z, Zs, Z @ Z.T, Zs @ Zs.T)
            if not report.passed:
                failures += 1
                worst = (f"dist_p^2 {report.dist_p_sq:.3e} vs "
                         f"2*procrustes {2 * report.procrustes_sq:.3e} vs "
                         f"lift bound {report.lift_bound:.3e}")
        return failures == 0, worst or "20/20 chains hold"

    def first_order_gap_at_alignment():
        worst = 0.0
        for _ in range(5):
            n_s, r = 16, 2
            Zs = rng.standard_normal((n_s, r)) + 1j * rng.standard_normal((n_s, r))
            Q = metrics.random_complex_orthogonal(r, 0.3, rng)
            align = metrics.dist_P_upper(Zs @ Q, Zs)
            worst = max(worst, align.first_order_gap / np.linalg.norm(Zs) ** 2)
        return worst < 1e-8, f"max normalized gap {worst:.2e}"

    def orthogonal_feasibility():
        n_s, r = 16, 2
        Zs = rng.standard_normal((n_s, r)) + 1j * rng.standard_normal((n_s, r))
        Z = Zs + 0.05 * (
            rng.standard_normal((n_s, r)) + 1j * rng.standard_normal((n_s, r))
        )
        align = metrics.dist_P_upper(Z, Zs)
        ok = True
        worst = -np.inf
        for _ in range(20):
            Q = metrics.random_complex_orthogonal(r, 0.5, rng)
            combined = (np.linalg.norm(Z - Zs @ Q) ** 2
                        + np.linalg.norm(Z - Zs @ np.linalg.inv(Q).T) ** 2)
            worst = max(worst, align.residual - combined)
            if align.residual > combined * (1 + 1e-9) + 1e-12:
                ok = False
        return ok, f"max violation {max(worst, 0):.2e}"

    def end_to_end_recovery():
        n, r, m = 63, 3, 40
        ss = trial_seed_sequence(7, r, m, 0)
        gen = np.random.default_rng(ss)
        model = signal_model.random_model(n, r, rng=gen, min_sep=1.5 / n)
        x = signal_model.synthesize(model)
        mask = signal_model.uniform_mask(n, m, rng=gen)
        observed = signal_model.observe(x, mask, rng=gen)
        config = descent.SolverConfig(
            r=r, rel_change_tol=1e-9, max_iters=300, seed=solver_seed(ss)
        )
        result = shgd.recover(observed, mask, config)
        err = metrics.rel_error(result.x_hat, x)
        return err <= 1e-6, f"rel err {err:.2e} in {result.iters} iters"

    def mode_estimation_roundtrip():
        n, r = 63, 3
        model = signal_model.random_model(n, r, rng=rng, min_sep=2.0 / n)
        x = signal_model.synthesize(model)
        est = freq_est.esprit(x, r)
        err = float(np.max(np.abs(np.sort(est.freqs) - np.sort(model.freqs))))
        return err < 1e-8, f"max freq err {err:.2e}"

    return [
        ("skew-weights identity H*H = D^2", weights_identity),
        ("lift/adjoint inner-product identity", adjoint_identity),
        ("corrupted-weights negative control", adjoint_negative_control),
        ("normalized-lift isometry G*G = I", gstar_g_identity),
        ("FFT correlation vs dense lift", fft_vs_dense),
        ("FFT gram adjoint vs dense", gram_adjoint_vs_dense),
        ("truncated Takagi matches truncated SVD", takagi_matches_svd),
        ("symmetric-solver gradient vs finite differences", shgd_gradient_fd),
        ("baseline gradient vs finite differences", pgd_gradient_fd),
        ("symmetric-solver loss vs dense oracle", loss_dense_oracle),
        ("alignment inequality chain", lemma4_chain),
        ("first-order gap at reported alignments", first_order_gap_at_alignment),
        ("orthogonal-ambiguity feasibility", orthogonal_feasibility),
        ("end-to-end sparse recovery", end_to_end_recovery),
        ("mode-parameter estimation roundtrip", mode_estimation_roundtrip),
    ]


def run_selftest(stream=None) -> bool:
    """Run the invariant suite, print one verdict line per property.

    Returns True when every check passes.  Designed to finish in well under
    two minutes on desk hardware.
    """
    stream = stream if stream is not None else sys.stdout
    all_ok = True
    for name, check in _selftest_checks():
        t0 = time.perf_counter()
        try:
            ok, detail = check()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        ok = bool(ok)  # some checks compare numpy scalars
        all_ok &= ok
        verdict = "PASS" if ok else "FAIL"
        print(f"{verdict}  {name}: {detail} [{elapsed:.2f}s]", file=stream)
    print("selftest: " + ("all checks passed" if all_ok else "FAILURES detected"),
          file=stream)
    return all_ok
