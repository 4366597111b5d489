"""What both solvers share: input checks at the boundary and the step record."""

import math
import tracemalloc

import numpy as np
import pytest

from hankel_scs import descent, hankel_ops, lowrank, pgd, shgd
from conftest import make_instance

SOLVERS = (shgd.recover, pgd.pgd_recover)


@pytest.mark.parametrize("solve", SOLVERS)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_solvers_reject_nonfinite_samples(solve, bad):
    _, x, mask, observed = make_instance(63, 3, 40, 0)
    observed = observed.copy()
    observed[mask.indices[0]] = bad
    with pytest.raises(ValueError, match="finite"):
        solve(observed, mask, descent.SolverConfig(r=3, seed=0))


@pytest.mark.parametrize("solve", SOLVERS)
def test_all_zero_samples_keep_unit_scale_and_fail_in_the_init(solve):
    # Zero data has no power-of-four scale; it keeps 1, and the init then
    # finds a lift of rank 0, not a division by zero.
    _, x, mask, observed = make_instance(63, 3, 40, 0)
    assert descent.data_scale(np.zeros_like(observed)) == 1.0
    with pytest.raises(lowrank.RankDeficiencyError):
        solve(np.zeros_like(observed), mask, descent.SolverConfig(r=3, seed=0))


@pytest.mark.parametrize("solve", SOLVERS)
def test_solvers_reject_a_nonfinite_truth(solve):
    _, x, mask, observed = make_instance(63, 3, 40, 0)
    x = x.copy()
    x[5] = np.nan
    with pytest.raises(ValueError, match="x_true must be finite"):
        solve(observed, mask, descent.SolverConfig(r=3, seed=0), x_true=x)


@pytest.mark.parametrize("solve", SOLVERS)
@pytest.mark.parametrize("n", [62, 63])
def test_solvers_reject_a_rank_the_signal_length_cannot_hold(solve, n):
    # The rule holds on the caller's length: SHGD pads n=62 to 63, whose lift
    # has 32 rows, but a length-62 signal still holds at most 31 modes.
    _, x, mask, observed = make_instance(n, 3, 40, 0)
    with pytest.raises(ValueError, match=r"n >= 2r-1"):
        solve(observed, mask, descent.SolverConfig(r=(n + 1) // 2 + 1, seed=0))


def test_check_rank_accepts_the_largest_rank_that_fits():
    hankel_ops.check_rank(61, 31)
    hankel_ops.check_rank(1, 1)
    with pytest.raises(ValueError, match=r"rank 31 needs signal length n >= 2r-1 = 61, got n=60"):
        hankel_ops.check_rank(60, 31)


@pytest.mark.parametrize("solve", SOLVERS)
@pytest.mark.parametrize("scale", [1e-160, 1e-100, 1e-30, 1e30, 1e100, 1e150])
def test_solvers_are_scale_equivariant(solve, scale):
    # recover(s * y) = s * recover(y) to rounding, in the same number of
    # iterations: the solvers normalize the data by a power of four, so the
    # quartic loss neither underflows nor overflows.
    for seed in (1, 2, 3):
        _, x, mask, observed = make_instance(127, 4, 76, seed)
        config = descent.SolverConfig(r=4, seed=0)
        base = solve(observed, mask, config)
        scaled = solve(scale * observed, mask, config)
        assert (scaled.iters, scaled.termination) == (base.iters, base.termination)
        err = np.linalg.norm(scaled.x_hat / scale - base.x_hat)
        assert err <= 1e-12 * np.linalg.norm(base.x_hat)


@pytest.mark.parametrize("max_halvings", [0, 1, 3])
def test_recorded_armijo_step_is_the_last_step_tried(monkeypatch, max_halvings):
    # A first step at eta_prime=50 fails every Armijo test, so all
    # max_halvings + 1 candidates run and the last one tried is recorded.
    monkeypatch.setattr(descent.SolverConfig, "max_halvings", max_halvings)
    _, x, mask, observed = make_instance(63, 3, 40, 0)
    config = descent.SolverConfig(r=3, eta_prime=50, mu=math.inf, max_iters=1, seed=0)
    result = shgd.recover(observed, mask, config)
    rec = result.history[0]
    # One gradient and max_halvings + 1 candidate losses, r passes each.
    assert rec.fft_passes == 3 * (max_halvings + 2)
    eta0 = descent.fixed_step(result.sigma1_M0, config.eta_prime)
    assert rec.step == pytest.approx(eta0 * config.beta ** max_halvings, rel=1e-12)


@pytest.mark.parametrize("solve, passes, gram_flops", [
    (shgd.recover, [6, 9, 9, 9, 9], 4320),
    (pgd.pgd_recover, [9, 12, 12, 12, 12], 8640),
])
def test_a_split_solve_evaluates_its_first_iterate_once(solve, passes, gram_flops):
    # With K >= 1 each iteration after the first evaluates its iterate again
    # on its own part; iteration 0 runs on the part the init's evaluation
    # used, so it pays the gradient and the candidate only (2r, PGD 3r).
    _, x, mask, observed = make_instance(63, 3, 40, 0)
    config = descent.SolverConfig(r=3, K=3, step_policy="fixed", max_iters=5,
                                  rel_change_tol=1e-300, seed=0)
    result = solve(observed, mask, config)
    assert [rec.fft_passes for rec in result.history] == passes
    assert result.counter.gram_flops == gram_flops


@pytest.mark.parametrize("solve", SOLVERS)
def test_backtracking_starts_from_eta_prime(solve):
    _, x, mask, observed = make_instance(63, 3, 40, 0)
    default = solve(observed, mask, descent.SolverConfig(r=3, max_iters=20, seed=0))
    smaller = solve(observed, mask,
                    descent.SolverConfig(r=3, max_iters=20, eta_prime=0.3, seed=0))
    assert smaller.history[0].step == pytest.approx(0.4 * default.history[0].step)
    assert not np.array_equal(smaller.x_hat, default.x_hat)


@pytest.mark.parametrize("module, solve", [(shgd, shgd.recover), (pgd, pgd.pgd_recover)])
@pytest.mark.parametrize("step", [dict(step_policy="backtracking"),
                                  dict(step_policy="fixed", rel_change_tol=1e-9)])
def test_infinite_mu_never_projects(monkeypatch, module, solve, step):
    # mu = inf is how a solve runs without P_C: the radius is infinite, so
    # project_C returns its input and the solve matches one without it.
    _, x, mask, observed = make_instance(63, 3, 40, 0)
    config = descent.SolverConfig(r=3, max_iters=60, mu=math.inf, seed=0, **step)
    unbounded = solve(observed, mask, config)
    monkeypatch.setattr(module, "project_C", lambda Z, radius: Z)
    unprojected = solve(observed, mask, config)
    assert unbounded.x_hat.tobytes() == unprojected.x_hat.tobytes()
    assert [rec.loss for rec in unbounded.history] == [rec.loss for rec in unprojected.history]
    assert unbounded.mu == math.inf


@pytest.mark.parametrize("solve", SOLVERS)
@pytest.mark.parametrize("scale", [1e-160, 1e150])
def test_scale_equivariance_through_the_complex64_phase(solve, scale):
    # A fixed step with a tight tolerance runs complex64 first; the scaled
    # and unscaled data round differently there, so the solves agree to
    # the accuracy they reach, not to the last bit.
    _, x, mask, observed = make_instance(127, 4, 76, 1)
    config = descent.SolverConfig(r=4, step_policy="fixed", rel_change_tol=1e-9, seed=0)
    base = solve(observed, mask, config, x_true=x)
    scaled = solve(scale * observed, mask, config, x_true=scale * x)
    assert base.single_iters > 0 and scaled.single_iters > 0
    assert scaled.termination == base.termination == "tol_reached"
    reached = np.linalg.norm(base.x_hat - x)
    assert np.linalg.norm(scaled.x_hat / scale - base.x_hat) <= reached


def test_project_C_returns_its_input_when_nothing_binds():
    Z = np.array([[3.0, 4.0], [0.6, 0.8], [0.0, 0.0]], dtype=complex)
    assert descent.project_C(Z, 5.0) is Z  # a row exactly on the radius
    clipped = descent.project_C(Z, 2.5)
    assert clipped is not Z
    assert np.array_equal(clipped, Z * np.array([0.5, 1.0, 1.0])[:, None])


def _project_C_by_norms(Z, radius):
    """P_C as it was first written: row norms, then radius / norm where clipped."""
    norms = np.linalg.norm(Z, axis=1)
    if not (norms > radius).any():
        return Z
    with np.errstate(divide="ignore"):
        return Z * np.where(norms > radius, radius / norms, 1.0)[:, None]


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
def test_project_C_clips_rows_around_the_radius_as_by_norms(rng, dtype):
    radius = 1.5
    eps = np.finfo(dtype).eps
    near = 1e3 * eps  # clear of the rounding of either way to measure a row
    # Rows just inside, on and just outside the radius, and far from it.
    factors = np.array([1 - near, 1.0, 1 + near, 1 + 1e-3, 0.5, 3.0, 0.0, 1e3])
    target = radius * np.resize(factors, 40)
    rows = rng.standard_normal((40, 6)) + 1j * rng.standard_normal((40, 6))
    Z = np.asfortranarray((rows * (target / np.linalg.norm(rows, axis=1))[:, None]).astype(dtype))
    got = descent.project_C(Z, radius)
    assert got.dtype == dtype
    assert np.abs(got - _project_C_by_norms(Z, radius)).max() <= 4 * eps * radius
    clear = np.abs(np.resize(factors, 40) - 1) >= near / 2
    moved = np.any(got != Z, axis=1)
    assert np.array_equal(moved[clear], np.resize(factors, 40)[clear] > 1)
    assert np.all(np.linalg.norm(got, axis=1) <= radius * (1 + 4 * eps))
    assert descent.project_C(Z, 3e3) is Z
    assert descent.project_C(Z, math.inf) is Z


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
@pytest.mark.parametrize("n", [1, 127, 16382])
def test_loop_norm_has_the_bits_of_numpys(rng, dtype, n):
    # The loop's rel_change and rel_err take numpy's formula for a complex
    # norm without its dispatch; contiguous and strided vectors alike.
    x = (rng.standard_normal(3 * n) + 1j * rng.standard_normal(3 * n)).astype(dtype)
    for v in (x[:n], x[::3], x[1::2][:n]):
        got = descent._norm(v)
        assert isinstance(got, float)
        assert got == float(np.linalg.norm(v))


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
@pytest.mark.parametrize("rows, r", [(64, 12), (1023, 32), (1024, 32), (8192, 12)])
def test_gram_on_both_sides_of_the_herk_threshold(rng, dtype, rows, r):
    Z = np.asfortranarray(
        (rng.standard_normal((rows, r)) + 1j * rng.standard_normal((rows, r))).astype(dtype))
    A = descent.gram(Z)
    general = Z.conj().T @ Z
    assert A.dtype == dtype and A.shape == (r, r)
    if rows * r * r >= descent.HERK_FROM:
        assert np.array_equal(A, A.conj().T)  # Hermitian bit for bit
        assert not A.diagonal().imag.any()
    else:
        assert np.array_equal(A, general)  # today's product, bits kept
    # Entrywise dot-product rounding bound, gamma_rows |Z|^T |Z|.
    bound = 4 * rows * np.finfo(dtype).eps * (np.abs(Z).T @ np.abs(Z))
    assert np.all(np.abs(A - general) <= bound)
    assert np.all(np.abs(descent.gram(np.ascontiguousarray(Z)) - A) <= bound)


@pytest.mark.parametrize("solve", SOLVERS)
@pytest.mark.parametrize("step", [dict(step_policy="backtracking"),
                                  dict(step_policy="fixed", rel_change_tol=1e-9)])
def test_solvers_keep_their_factors_column_major(solve, step):
    # Column-major factors are the layout the Hankel kernels transform
    # without a strided copy; the returned factors show the layout held.
    _, x, mask, observed = make_instance(127, 4, 76, 0)
    result = solve(observed, mask, descent.SolverConfig(r=4, max_iters=30, seed=0, **step))
    factors = (result.Z_final,) if solve is shgd.recover else (
        result.Z_final.Z_U, result.Z_final.Z_V)
    for Z in factors:
        assert Z.flags.f_contiguous and not Z.flags.c_contiguous


@pytest.mark.parametrize("solve", SOLVERS)
@pytest.mark.parametrize("step", [dict(rel_change_tol=1e-9), dict(rel_change_tol=1e-5)])
def test_solves_above_the_herk_threshold_keep_layout_and_scale(monkeypatch, solve, step):
    # The desk-sized solves above run every gram below HERK_FROM.  At n=2047
    # and r=32 each factor has 1024 rows, so every gram, in complex64
    # (rel_change_tol 1e-9) or complex128 (1e-5), goes through herk.
    shapes = []
    gram = descent.gram

    def recording(Z, *args):
        shapes.append(Z.shape)
        return gram(Z, *args)

    monkeypatch.setattr(descent, "gram", recording)
    _, x, mask, observed = make_instance(2047, 32, 800, 0)
    config = descent.SolverConfig(r=32, step_policy="fixed", max_iters=3, seed=0, **step)
    base = solve(observed, mask, config)
    assert shapes and all(rows * r * r >= descent.HERK_FROM for rows, r in shapes)
    assert base.iters == 3 and (base.single_iters == 3) == (step["rel_change_tol"] < 1e-5)
    factors = (base.Z_final,) if solve is shgd.recover else (
        base.Z_final.Z_U, base.Z_final.Z_V)
    for Z in factors:
        assert Z.flags.f_contiguous and not Z.flags.c_contiguous
    # A power-of-four scale is exact through the whole solve.
    scaled = solve(4.0 ** 7 * observed, mask, config)
    assert scaled.x_hat.tobytes() == (4.0 ** 7 * base.x_hat).tobytes()
    assert [rec.loss for rec in scaled.history] == [4.0 ** 14 * rec.loss for rec in base.history]


# A spectrum is the (cols x nfft) block of column FFTs that an evaluation
# hands its gradient: r rows for SHGD, 2r for PGD.  One fixed-step iteration
# needs the gradient (n x r per factor, about half a spectrum), a few
# nfft-long vectors, the candidate's own spectrum and one G* row-product
# block.  The gradient's correlation consumes the state's spectrum, the loop
# drops it as soon as the gradient returns, and the step is formed in the
# gradient's memory.  At n_s 4096, r 16 every G* product is blocked in both
# precisions, and the two figures read 0.6 and 0.75-0.91 spectra.  A
# correlation that copies its spectrum reads 1.6 during the gradient; a step
# in a new array reads 1.25-1.41 over the iteration, and a state that keeps
# its spectrum 1.75-1.91.
GRADIENT_BUDGET = 1.0  # spectra above what the iteration starts with
ITERATION_BUDGET = 1.1


def _fixed_step_growth(evaluate, gradient, Zs0, n, dtype):
    """Traced memory that one fixed-step iteration of ``descend`` adds above
    what it holds when its gradient starts, in spectra: (during the
    gradient, from then until the candidate is evaluated)."""
    marks = {}

    def traced_gradient(state, p, counter):
        marks.clear()
        marks["spectrum"] = state.spectrum.nbytes
        marks["start"] = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        grads = gradient(state, p, counter)
        marks["gradient"] = tracemalloc.get_traced_memory()[1]
        return grads

    def traced_evaluate(*args):
        state = evaluate(*args)
        if "gradient" in marks and "iteration" not in marks:
            marks["iteration"] = tracemalloc.get_traced_memory()[1]
        return state

    rng = np.random.default_rng(0)
    counts = (rng.random(n) < 0.3).astype(float)
    tol = 1e-9 if dtype == np.complex64 else 1e-4  # opens in complex64, or not at all
    config = descent.SolverConfig(r=Zs0[0].shape[1], max_iters=1, rel_change_tol=tol,
                                  step_policy="fixed")
    kwargs = dict(
        evaluate=traced_evaluate, gradient=traced_gradient, project=lambda Zs: Zs, Zs0=Zs0,
        y_obs=rng.standard_normal(n) + 1j * rng.standard_normal(n),
        iter_counts=[(counts, 0.3)], config=config, sigma1=100.0, n_out=n,
        factor_of=lambda Zs: Zs, mu=1.0,
    )
    tracemalloc.start()
    try:
        descent.descend(**kwargs)  # FFT plans and the lift's geometry are cached
        descent.descend(**kwargs)
    finally:
        tracemalloc.stop()
    return tuple((marks[key] - marks["start"]) / marks["spectrum"]
                 for key in ("gradient", "iteration"))


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
@pytest.mark.parametrize("solver", ["shgd", "pgd"])
def test_a_fixed_step_iteration_makes_no_spectrum_sized_temporary(rng, solver, dtype):
    n_s, r = 4096, 16
    n = 2 * n_s - 1

    def factor():
        return np.asfortranarray(rng.standard_normal((n_s, r)) + 1j * rng.standard_normal((n_s, r)))

    if solver == "shgd":
        growth = _fixed_step_growth(lambda Zs, *args: shgd._evaluate(Zs[0], *args),
                                    shgd._gradient, (factor(),), n, dtype)
    else:
        growth = _fixed_step_growth(pgd._evaluate_pair, pgd._gradients_pair,
                                    (factor(), factor()), n, dtype)
    assert growth[0] <= GRADIENT_BUDGET
    assert growth[1] <= ITERATION_BUDGET


def _gram_dtypes(monkeypatch):
    """Record the factor precision of every evaluation of the symmetric solver."""
    seen = []
    gstar_gram = hankel_ops.gstar_gram

    def recording(Z, *args, **kwargs):
        seen.append(Z.dtype)
        return gstar_gram(Z, *args, **kwargs)

    monkeypatch.setattr(hankel_ops, "gstar_gram", recording)
    return seen


@pytest.mark.parametrize("overrides", [
    dict(step_policy="backtracking", rel_change_tol=1e-9),
    dict(step_policy="fixed", rel_change_tol=1e-5),
])
def test_solves_outside_the_schedule_stay_in_complex128(monkeypatch, overrides):
    seen = _gram_dtypes(monkeypatch)
    _, x, mask, observed = make_instance(127, 4, 76, 1)
    result = shgd.recover(observed, mask, descent.SolverConfig(r=4, seed=0, **overrides))
    assert result.single_iters == 0
    assert set(seen) == {np.dtype(np.complex128)}
    assert result.x_hat.dtype == result.Z_final.dtype == np.complex128


@pytest.mark.parametrize("solve", SOLVERS)
def test_fixed_step_runs_complex64_then_finishes_in_complex128(monkeypatch, solve):
    seen = _gram_dtypes(monkeypatch)
    _, x, mask, observed = make_instance(127, 4, 76, 0)
    config = descent.SolverConfig(r=4, step_policy="fixed", rel_change_tol=1e-9, seed=0)
    result = solve(observed, mask, config, x_true=x)
    k = result.single_iters
    assert 0 < k < result.iters
    assert result.termination == "tol_reached"
    # The phase ends at the first iteration the rate rule fires on, and the
    # tolerance is decided in double precision only.
    changes = [rec.rel_change for rec in result.history]
    assert result.single_ended_by == "rate"
    assert descent.single_phase_end(changes[:k], config.rel_change_tol) == "rate"
    assert all(descent.single_phase_end(changes[:j], config.rel_change_tol) is None
               for j in range(1, k))
    assert result.history[-1].rel_err < 1e-8  # beyond single precision's reach
    assert result.x_hat.dtype == np.complex128
    if solve is shgd.recover:
        # The init's evaluation and one per complex64 iteration, then the
        # iterate evaluated again in double precision and one per step.
        assert seen == [np.dtype(np.complex64)] * (k + 1) + [np.dtype(np.complex128)] * (
            result.iters - k + 1)


def test_stall_rule_ends_the_complex64_phase(monkeypatch):
    # With the rate's second level out of single precision's reach, only the
    # stall rule can end the phase (here rel_change floors near 5e-7 in
    # complex64); the solve still reaches its tolerance.
    monkeypatch.setattr(descent, "RATE_LEVELS", (1e-3, 1e-12))
    _, x, mask, observed = make_instance(127, 4, 76, 0)
    config = descent.SolverConfig(r=4, step_policy="fixed", rel_change_tol=1e-13,
                               max_iters=1000, seed=0)
    result = shgd.recover(observed, mask, config, x_true=x)
    k = result.single_iters
    assert 0 < k < result.iters
    assert result.single_ended_by == "stall"
    assert result.termination == "tol_reached"
    changes = [rec.rel_change for rec in result.history[:k]]
    assert min(changes) > 1e-12
    # The last descent.STALL_ITERS complex64 iterations set no new low.
    assert min(changes[-descent.STALL_ITERS:]) >= min(changes[:-descent.STALL_ITERS]) <= 1e-3
    assert result.history[-1].rel_change <= 1e-13
    assert result.history[-1].rel_err < 1e-10


def _ends(changes, tol=0.0):
    """(iteration at which the complex64 phase ends, why), or (None, None)."""
    for k in range(1, len(changes) + 1):
        why = descent.single_phase_end(changes[:k], tol)
        if why is not None:
            return k - 1, why
    return None, None


def _decay(iters, per_decade=10, floor=0.0):
    """rel_change falling one decade per ``per_decade`` iterations onto ``floor``;
    the half-iteration offset keeps every value off the levels."""
    return [max(10.0 ** (-(k + 0.5) / per_decade), floor) for k in range(iters)]


def test_a_plateau_above_the_first_level_does_not_end_the_phase():
    # rel_change falls to 1.1e-2, wobbles there in its third digit for 40
    # iterations without a new low, then falls on.
    head = [10.0 ** (-k / 10) for k in range(20)] + [1.1e-2]
    plateau = [1.1e-2 * (1.001 + 0.0005 * math.sin(k)) for k in range(40)]
    tail = [1e-2 * 10.0 ** (-(k + 0.5) / 10) for k in range(100)]
    assert min(plateau) > min(head)
    k, why = _ends(head + plateau + tail)
    assert why == "rate" and k >= len(head) + len(plateau)
    # However long the plateau lasts.
    assert _ends(head + plateau * 10) == (None, None)


def test_geometric_decay_onto_a_floor_ends_at_the_extrapolated_iteration():
    # One decade per 10 iterations: the lowest rel_change reaches 1e-3 at
    # k3 = 30 and 1e-4 at k4 = 40, and the floor at 1e-6 holds from k = 60.
    # 1e-4 * 10^(-(k - 40) / 10) <= eps32 / 8 first at k = 40 + 38.27 -> 79,
    # before the stall rule could fire at 60 + 25 = 85.
    changes = _decay(200, floor=1e-6)
    expected = 40 + math.ceil(10 * math.log10(1e-4 / descent.SINGLE_FLOOR))
    assert expected == 79
    assert _ends(changes, tol=1e-9) == (79, "rate")
    assert _ends(changes, tol=0.0) == (79, "rate")


def test_a_tolerance_above_the_single_floor_caps_the_target():
    # 1e-4 * 10^(-(k - 40) / 10) <= 2e-6 first at k = 40 + 16.99 -> 57.
    changes = _decay(200, floor=1e-6)
    assert 2e-6 > descent.SINGLE_FLOOR
    assert _ends(changes, tol=2e-6) == (57, "rate")


def test_a_floor_above_the_second_level_ends_the_phase_only_by_the_backstop():
    # The floor at 3e-4 holds from k = 35 (10^-3.55 < 3e-4), so the lowest
    # rel_change never reaches 1e-4 and the rate never forms; the stall rule
    # ends the phase descent.STALL_ITERS iterations after the last new low.
    changes = _decay(200, floor=3e-4)
    last_low = changes.index(3e-4)
    assert last_low == 35
    assert _ends(changes) == (last_low + descent.STALL_ITERS, "stall")
    # A floor above the first level never starts the stall count.
    assert _ends(_decay(500, floor=2e-3)) == (None, None)


@pytest.mark.parametrize("overrides, dtype", [
    (dict(step_policy="fixed", rel_change_tol=1e-9), np.complex64),
    (dict(step_policy="fixed", rel_change_tol=descent.SINGLE_UNTIL), np.complex128),
    (dict(step_policy="backtracking", rel_change_tol=1e-9), np.complex128),
])
def test_opening_dtype_is_the_schedule_rule(overrides, dtype):
    assert descent.opening_dtype(descent.SolverConfig(r=2, **overrides)) == dtype


INITS = ((shgd.recover, lowrank, "spectral_init"),
         (pgd.pgd_recover, pgd, "rect_spectral_init"))


def _init_dtypes(monkeypatch, module, name, force=None) -> list:
    """Record the precision each solve asks of its init, optionally overriding it."""
    asked = []
    init = getattr(module, name)

    def recording(*args, dtype, **kwargs):
        asked.append(dtype)
        return init(*args, dtype=force or dtype, **kwargs)

    monkeypatch.setattr(module, name, recording)
    return asked


@pytest.mark.parametrize("solve, module, name", INITS)
def test_fixed_step_solves_open_their_init_in_complex64(monkeypatch, solve, module, name):
    asked = _init_dtypes(monkeypatch, module, name)
    _, x, mask, observed = make_instance(127, 4, 76, 0)
    config = descent.SolverConfig(r=4, step_policy="fixed", rel_change_tol=1e-9, seed=0)
    result = solve(observed, mask, config, x_true=x)
    assert asked == [np.complex64]
    assert result.termination == "tol_reached"
    assert result.history[-1].rel_err < 1e-8


@pytest.mark.parametrize("solve, module, name", INITS)
def test_backtracking_solves_keep_a_double_precision_init(monkeypatch, solve, module, name):
    _, x, mask, observed = make_instance(127, 4, 76, 1)
    config = descent.SolverConfig(r=4, rel_change_tol=1e-9, seed=0)
    base = solve(observed, mask, config)
    asked = _init_dtypes(monkeypatch, module, name, force=np.complex128)
    forced = solve(observed, mask, config)
    assert asked == [np.complex128]
    assert np.array_equal(forced.x_hat, base.x_hat)


def _loop_peak(monkeypatch, solve, observed, mask, config):
    """(result, traced peak of ``descend`` above what the solve holds when it
    enters the loop, the init's factors included)."""
    entry = []
    descend = descent.descend

    def traced(**kwargs):
        entry.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return descend(**kwargs)

    monkeypatch.setattr(descent, "descend", traced)
    tracemalloc.start()
    try:
        result = solve(observed, mask, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak - entry[0]


# What descend holds, in units of one n_s x r double-precision factor F
# (n = 4095, n_s = 2048, r = 32): the state's factors and the candidate's,
# for Armijo also the gradient, which each trial reads again, and one
# spectrum, r x nfft = 2F per factor.  For SHGD, with one factor, that is 4F
# (fixed) and 5F (Armijo); for PGD, with two, 8F and 10F.  1.5F more covers
# one G* row block (0.25F), the loop's length-n vectors (r = 32 makes each
# 1/16 F) and rounding.  A fixed-step solve reads 4.6F and 8.6F, across the
# complex64 -> complex128 switch, an Armijo solve 5.5F and 10.6F.  A loop
# that keeps the unconsumed complex64 spectrum through the switch, the
# last iterate's spectrum until the result, and each rejected candidate
# through the next trial read 6.2F and 11.7F, and 9.7F and 18.7F.
@pytest.mark.parametrize("solve, factors", [(shgd.recover, 1), (pgd.pgd_recover, 2)])
@pytest.mark.parametrize("policy, eta_prime, factor_sets", [
    ("fixed", 0.75, 2),
    ("backtracking", 20.0, 3),  # eta' = 20 makes Armijo reject trials
])
def test_the_loop_holds_one_spectrum(monkeypatch, solve, factors, policy, eta_prime, factor_sets):
    n, r = 4095, 32
    _, x, mask, observed = make_instance(n, r, 2500, 3, min_sep=1.5 / n)
    config = descent.SolverConfig(r=r, seed=0, step_policy=policy, eta_prime=eta_prime,
                                  rel_change_tol=1e-9, max_iters=400)
    result, peak = _loop_peak(monkeypatch, solve, observed, mask, config)
    assert result.termination == "tol_reached"
    if policy == "fixed":
        assert 0 < result.single_iters < result.iters  # crossed the switch
    else:
        step_scale = 2.0 if solve is pgd.pgd_recover else 1.0
        eta0 = step_scale * eta_prime / result.sigma1_M0
        assert any(rec.step < 0.75 * eta0 for rec in result.history)
    F = (n + 1) // 2 * r * 16
    assert peak / F <= factor_sets * factors + 2 * factors + 1.5
