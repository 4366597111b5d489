"""Tests of the benchmark's metric helpers, span tracing and host-speed correction.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import hankel_scs  # noqa: E402
import hostspeed  # noqa: E402
import perfstats  # noqa: E402
import tracing  # noqa: E402
from hankel_scs import hankel_ops  # noqa: E402


def test_p90_needs_ten_samples_beyond():
    value, resolved = perfstats.tail_percentile(np.arange(100.0), 90)
    assert value == pytest.approx(89.1)
    assert resolved  # 90..99 lie beyond
    _, resolved = perfstats.tail_percentile(np.arange(92.0), 90)
    assert resolved  # p90 = 81.9: 82..91 lie beyond
    _, resolved = perfstats.tail_percentile(np.arange(91.0), 90)
    assert not resolved  # p90 = 81.0: only 82..90 lie beyond
    value, resolved = perfstats.tail_percentile([3.0], 90)
    assert value == 3.0 and not resolved


def test_time_to_target_charges_outside_loop_time_first():
    # 2.0 s wall of which the loop took 0.6 s: 1.4 s before the first iteration.
    ms = [100.0, 200.0, 300.0]
    err = [1e-2, 5e-6, 1e-8]
    assert perfstats.time_to_target(ms, err, 2.0, 1e-5) == pytest.approx(1.4 + 0.3)
    assert perfstats.time_to_target(ms, err, 2.0, 1e-2) == pytest.approx(1.5)
    assert perfstats.time_to_target(ms, err, 2.0, 1e-9) is None
    assert perfstats.time_to_target(ms, [None, None, 1e-6], 2.0, 1e-5) == pytest.approx(2.0)
    assert perfstats.time_to_target([], [], 1.0, 1e-5) is None


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > child [1, 7] > grandchild [2, 5]; root > child [8, 9]
    spans = [(None, 0.0, 10.0), (0, 1.0, 7.0), (1, 2.0, 5.0), (0, 8.0, 9.0)]
    assert perfstats.self_times(spans) == pytest.approx([3.0, 3.0, 3.0, 1.0])


def test_traced_g_apply_times_conj_contains_hankel_corr():
    ticks = iter(float(t) for t in range(100))
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    rng = np.random.default_rng(0)
    v = rng.standard_normal(31) + 0j
    Z = rng.standard_normal((16, 3)) + 1j * rng.standard_normal((16, 3))
    original = hankel_ops.hankel_corr
    with tracing.installed(tracer, hankel_scs):
        out = hankel_ops.g_apply_times_conj(v, Z)
    assert hankel_ops.hankel_corr is original  # rebinding undone
    np.testing.assert_allclose(out, hankel_ops.g_apply_times_conj(v, Z))

    outer, inner = tracer.take()
    assert (outer.name, inner.name) == ("hankel_ops.g_apply_times_conj", "hankel_ops.hankel_corr")
    assert inner.parent == 0 and inner.root == outer.name
    assert inner.info["cols"] == 3
    # Fake clock: outer [0, 3], inner [1, 2].
    selfs = perfstats.self_times([(s.parent, s.t0, s.t1) for s in (outer, inner)])
    assert selfs == [2.0, 1.0]
    assert sum(selfs) == outer.t1 - outer.t0


def test_trunc_svd_rounds_and_deferred_residual():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((40, 30)) + 1j * rng.standard_normal((40, 30))
    tracer = tracing.Tracer()
    with tracing.installed(tracer, hankel_scs):
        hankel_scs.lowrank.trunc_svd(
            lambda V: A @ V, lambda U: A.conj().T @ U, A.shape, 3,
            seed=0, tol=1e-300, max_rounds=4, strict=False)
    (span,) = tracer.take()
    assert span.info["rounds"] == 4  # capped, never converged at this tol
    applyH, out = span.info["check"]
    assert tracing.subspace_residual(applyH, out) > span.info["tol"]


def test_halvings_inferred_from_steps():
    eta0, beta = 0.75 / 3.0, 0.5
    steps = [eta0, eta0 * beta, eta0 * beta ** 3, eta0]
    assert perfstats.infer_halvings(steps, eta0, beta) == [0, 1, 3, 0]


def test_freq_error_pairs_across_wraparound():
    assert perfstats.freq_error([0.001, 0.5], [0.5, 0.999]) == pytest.approx(0.002)


def test_digits():
    assert perfstats.digits(1e-8) == pytest.approx(8.0)
    assert math.isfinite(perfstats.digits(0.0))


def _speed(starts, durations, ref_s=2.0):
    spec = hostspeed.Task(rows=4, cols=2, nfft=8, gemm=2, reps=1, ref_s=ref_s)
    speed = hostspeed.HostSpeed(spec)
    speed.starts, speed.durations = list(starts), list(durations)
    return speed


def test_reference_seconds_remove_samples_and_rescale():
    # Samples every second; the host runs the 0.05 s reference task in 0.1 s.
    speed = _speed([0.0, 1.0, 2.0, 3.0], [0.1, 0.1, 0.1, 0.1], ref_s=0.05)
    assert speed.inside(0.5, 3.0) == pytest.approx(0.2)  # the sample at 3 starts at the end
    assert speed.local_task_s(0.5, 2.5) == pytest.approx(0.1)
    # 2.0 s measured, 0.2 s of it the task, on a host at half the reference speed.
    assert speed.reference_s(0.5, 2.5) == pytest.approx((2.0 - 0.2) * 0.5)
    # Up to a point inside the span: only the samples before it are removed.
    assert speed.reference_s(0.5, 2.5, upto=1.5) == pytest.approx((1.0 - 0.1) * 0.5)


def test_local_task_is_the_median_near_the_span():
    speed = _speed([0.0, 1.0, 1.2, 1.4, 5.0], [4.0, 1.0, 2.0, 9.0, 7.0])
    assert speed.local_task_s(1.1, 1.3) == 2.0  # samples within INTERVAL_S: 1.0, 1.2, 1.4
    far = _speed([0.0, 10.0, 20.0], [1.0, 3.0, 5.0])
    assert far.local_task_s(14.0, 15.0) == 4.0  # none that close: nearest on each side


def test_sampler_runs_on_the_timer_and_restores_the_handler(monkeypatch):
    import signal
    import time

    monkeypatch.setattr(hostspeed, "INTERVAL_S", 0.01)
    before = signal.getsignal(signal.SIGALRM)
    spec = hostspeed.Task(rows=16, cols=2, nfft=32, gemm=4, reps=1, ref_s=1e-3)
    speed = hostspeed.HostSpeed(spec)
    speed.start()
    t_end = time.perf_counter() + 0.2
    while time.perf_counter() < t_end:
        pass
    speed.stop()
    speed.stop()  # a second stop does nothing
    assert len(speed.starts) >= 5
    assert speed.starts == sorted(speed.starts)
    assert signal.getsignal(signal.SIGALRM) == before
