"""Pure helpers behind the benchmark's metrics.

Nothing here imports the package under test, so each rule can be checked on
hand-made inputs (see ``tests/test_perfstats.py``).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linear_sum_assignment

# A tail percentile is resolved only when at least this many samples lie
# beyond it; with fewer, one outlier decides the figure.
TAIL_MIN_BEYOND = 10


def median(values) -> float:
    v = np.asarray(values, dtype=float)
    if not v.size:
        raise ValueError("median of no samples")
    return float(np.median(v))


def tail_percentile(values, q: float = 90.0) -> tuple[float, bool]:
    """The q-th percentile of ``values`` and whether it is resolved.

    Resolved means at least :data:`TAIL_MIN_BEYOND` samples lie strictly
    beyond it, so it takes about 100 samples to resolve the 90th.
    """
    v = np.asarray(values, dtype=float)
    value = float(np.percentile(v, q))
    return value, int(np.count_nonzero(v > value)) >= TAIL_MIN_BEYOND


def time_to_target(iter_ms, iter_err, wall_s: float, target: float) -> float | None:
    """Seconds from the start of a solve until its error first reaches ``target``.

    ``iter_ms``/``iter_err`` are the per-iteration wall milliseconds and
    relative errors of the solve's history.  Everything outside the loop
    (the spectral init and setup inside the call) is ``wall_s`` minus the
    summed iteration times and is charged before the first iteration.
    Returns None when the target is never reached.
    """
    cum_ms = np.cumsum(np.asarray(iter_ms, dtype=float))
    if not cum_ms.size:
        return None
    err = np.array([np.inf if e is None else e for e in iter_err], dtype=float)
    hit = np.nonzero(err <= target)[0]
    if not hit.size:
        return None
    outside_loop_s = wall_s - cum_ms[-1] / 1e3
    return float(outside_loop_s + cum_ms[hit[0]] / 1e3)


def self_times(spans) -> list[float]:
    """Per-span self time: its duration minus the durations of its children.

    ``spans`` is a sequence of (parent_index_or_None, t0, t1), as recorded on
    one thread, so children never overlap each other.
    """
    child = [0.0] * len(spans)
    for parent, t0, t1 in spans:
        if parent is not None:
            child[parent] += t1 - t0
    return [t1 - t0 - c for (_, t0, t1), c in zip(spans, child)]


def infer_halvings(steps, eta0: float, beta: float) -> list[int]:
    """Armijo halvings per iteration recovered from the accepted step sizes.

    Backtracking starts every iteration at ``eta0`` and multiplies by
    ``beta`` per rejected candidate, so step = eta0 * beta**h.
    """
    return [int(round(math.log(s / eta0) / math.log(beta))) for s in steps]


def freq_error(est_freqs, true_freqs) -> float:
    """Largest wrap-around distance after optimally pairing two frequency sets."""
    est = np.asarray(est_freqs, dtype=float)
    true = np.asarray(true_freqs, dtype=float)
    d = np.abs(est[:, None] - true[None, :]) % 1.0
    d = np.minimum(d, 1.0 - d)
    rows, cols = linear_sum_assignment(d)
    return float(d[rows, cols].max())


def digits(rel_err: float) -> float:
    """Correct decimal digits of a solve: -log10 of its relative error."""
    return -math.log10(max(rel_err, 1e-300))
