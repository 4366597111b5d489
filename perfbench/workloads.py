"""The benchmark's workloads and the seeded instances they solve.

Every workload runs both solvers on identical instances and then ESPRIT on
each recovered signal.  A round is one instance per cell; the closed loop in
``run.py`` repeats rounds back to back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hankel_scs import bench, signal_model

DESK_N = 127


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    cells: tuple          # (r, m) per instance of a round
    generator: str        # "random" (min_sep 1.5/n) or "stratified"
    solver_kwargs: dict   # SolverConfig fields besides r and seed
    pool_rounds: int      # rounds generated during set-up; the loop cycles them
    gate_rel_err: float | None  # every solve must reach this error, if set
    speed_task: str       # hostspeed.TASKS entry that times the host during the loop


WORKLOADS = {
    wl.name: wl
    for wl in (
        # The n=127 phase-grid slice: millisecond solves whose time goes to
        # per-call overhead, the driver, project_C and the init's small QRs.
        # The r=12, p=0.3 cell runs to max_iters, so failed solves count too.
        Workload(
            name="desk-grid",
            n=DESK_N,
            cells=tuple(
                (r, max(1, round(p * DESK_N)))
                for r in (2, 4, 8, 12) for p in (0.3, 0.45, 0.6)
            ),
            generator="random",
            solver_kwargs=dict(bench.PHASE_SOLVER_DEFAULTS),
            pool_rounds=48,
            gate_rel_err=None,
            speed_task="small",
        ),
        # The paper's timing point (acceptance criterion 4): high rank loads
        # the r x r grams and the init's QR at block 160.
        Workload(
            name="paper-point",
            n=2046,
            cells=((150, 876),),
            generator="stratified",
            solver_kwargs=dict(bench.TIMING_SOLVER_DEFAULTS),
            pool_rounds=3,
            gate_rel_err=1e-6,
            speed_task="large",
        ),
        # Top rung of the scaling ladder: FFT length 16384 makes the Hankel
        # kernels and the init's correlations dominate; grams are cheap.
        # m=3000 rather than 1500: at m=1500 the init took 17 to 30 rounds
        # depending on the instance, so one run's figures spread by 37% across
        # seeds; at m=3000 it takes 10 to 12.
        Workload(
            name="long-signal",
            n=16382,
            cells=((30, 3000),),
            generator="stratified",
            solver_kwargs=dict(bench.TIMING_SOLVER_DEFAULTS),
            pool_rounds=3,
            gate_rel_err=1e-6,
            speed_task="large",
        ),
    )
}

# Seed-sequence key of the warm-up instances, apart from every round index.
WARMUP_KEY = 1 << 30


@dataclass
class Instance:
    cell: int
    r: int
    x: np.ndarray
    freqs: np.ndarray
    mask: signal_model.SamplingMask
    observed: np.ndarray
    solver_seed: int


def make_instance(wl: Workload, seed: int, cell: int, key: int, m: int | None = None) -> Instance:
    """Instance of ``cell`` drawn from (seed, r, m, cell, key); ``m`` overrides the cell's."""
    r, cell_m = wl.cells[cell]
    m = cell_m if m is None else m
    ss = bench.trial_seed_sequence(seed, r, m, cell, key)
    rng = np.random.default_rng(ss)
    if wl.generator == "random":
        model = signal_model.random_model(wl.n, r, rng=rng, min_sep=1.5 / wl.n)
    else:
        model = bench.stratified_model(wl.n, r, rng)
    x = signal_model.synthesize(model)
    mask = signal_model.uniform_mask(wl.n, m, rng=rng)
    observed = signal_model.observe(x, mask, rng=rng)
    return Instance(cell, r, x, np.asarray(model.freqs), mask, observed,
                    bench.solver_seed(ss))


def warmup_instances(wl: Workload, seed: int) -> list[Instance]:
    """One fully sampled instance per distinct rank of the workload.

    Full sampling makes the lift exactly rank r, so the init converges in a
    few rounds: the warm-up touches every kernel and array shape of the
    workload without paying for a full solve.
    """
    first_cell = {}
    for i, (r, _) in enumerate(wl.cells):
        first_cell.setdefault(r, i)
    return [make_instance(wl, seed, i, WARMUP_KEY, m=wl.n) for i in first_cell.values()]
