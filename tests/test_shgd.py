"""Single-factor solver: loss/gradient oracles, projection, and full recovery."""

import json
import math

import numpy as np
import pytest

from hankel_scs import hankel_ops, lowrank, shgd, signal_model
from conftest import (
    dense_shgd_grad,
    dense_shgd_loss,
    make_instance,
    rand_complex,
    rel,
)


def takagi_factor_of(x, r, seed=0):
    """Exact rank-r factor of the lift of a model signal."""
    n_s = (x.shape[0] + 1) // 2
    M = hankel_ops.lift_dense(x)
    fac = lowrank.takagi_truncated(lambda V: M @ V, n_s, r, seed=seed)
    return fac.U_hat * np.sqrt(fac.sigma)[None, :]


def weighted_instance(rng, n=31, r=3, m=None, sigma_e=0.0):
    m = m if m is not None else n
    model, x, mask, observed = make_instance(n, r, m, rng, sigma_e=sigma_e)
    return x, mask, hankel_ops.apply_D(observed)


# ---------------------------------------------------------------------------
# Configuration validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    dict(r=0),
    dict(r=2, step_policy="adam"),
    dict(r=2, eta_prime=0.0),
    dict(r=2, beta=1.0),
    dict(r=2, beta=0.0),
    dict(r=2, c_armijo=0.0),
    dict(r=2, c_armijo=1.0),
    dict(r=2, mu=0.0),
    dict(r=2, epsilon0=1.0),
    dict(r=2, sample_splitting=True, K=0),
    dict(r=2, max_halvings=-3),
    dict(r=2, max_iters=-1),
    dict(r=2, eta0_scale=-1),
    dict(r=2, rel_change_tol=-1),
])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        shgd.SolverConfig(**kwargs)


def test_config_accepts_conservative_small_step():
    cfg = shgd.SolverConfig(r=3, step_policy="fixed", eta_prime=1.0 / 54.0)
    assert cfg.eta_prime == pytest.approx(1.0 / 54.0)


# ---------------------------------------------------------------------------
# Step size, projection, incoherence estimate
# ---------------------------------------------------------------------------

def test_fixed_step_values():
    assert shgd.fixed_step(2.0, 0.75) == pytest.approx(0.375)
    assert shgd.fixed_step(4.0, 0.75) == pytest.approx(0.1875)  # halves when doubled
    with pytest.raises(ValueError):
        shgd.fixed_step(0.0, 0.75)


def test_project_C_identity_inside_ball(rng):
    Z = rand_complex(rng, 10, 3)
    radius = float(np.linalg.norm(Z, axis=1).max()) + 1.0
    assert np.array_equal(shgd.project_C(Z, radius), Z)


def test_project_C_halves_oversized_row():
    Z = np.zeros((3, 2), dtype=complex)
    Z[1] = [3.0, 4.0]  # row norm 5
    out = shgd.project_C(Z, 2.5)
    assert np.allclose(out[1], [1.5, 2.0])
    assert np.all(out[[0, 2]] == 0)


def test_project_C_idempotent(rng):
    Z = 10.0 * rand_complex(rng, 20, 4)
    once = shgd.project_C(Z, 1.0)
    twice = shgd.project_C(once, 1.0)
    assert rel(twice, once) <= 1e-15
    assert np.linalg.norm(once, axis=1).max() <= 1.0 + 1e-12


def test_estimate_mu_at_least_one_and_coherent_extreme(rng):
    Z = rand_complex(rng, 16, 2)
    assert shgd.estimate_mu(Z, 31, 2) >= 1.0
    spike = np.zeros((16, 1), dtype=complex)
    spike[0] = 1.0
    assert shgd.estimate_mu(spike, 31, 1) == pytest.approx(31 / 2)


# ---------------------------------------------------------------------------
# Loss and gradient vs dense oracles
# ---------------------------------------------------------------------------

def test_loss_zero_at_exact_factor(rng):
    x, mask, y = weighted_instance(rng, n=31, r=3)
    Z = takagi_factor_of(x, 3)
    base = shgd.loss(np.zeros_like(Z), y, mask, 1.0)
    assert shgd.loss(Z, y, mask, 1.0) <= 1e-12 * base


def test_loss_at_zero_factor_is_scaled_observation_energy(rng):
    n, r, m = 31, 3, 15
    _, x, mask, observed = make_instance(n, r, m, rng)
    y = hankel_ops.apply_D(observed)
    p = m / n
    Z0 = np.zeros(((n + 1) // 2, r), dtype=complex)
    want = float(np.linalg.norm(hankel_ops.p_omega(y, mask)) ** 2) / (4 * p)
    assert shgd.loss(Z0, y, mask, p) == pytest.approx(want, rel=1e-12)


def test_loss_matches_dense_oracle(rng):
    for _ in range(20):
        n = int(rng.integers(3, 17)) * 2 - 1  # odd, <= 31
        n_s = (n + 1) // 2
        r = int(rng.integers(1, 5))
        m = int(rng.integers(1, n + 1))
        mask = signal_model.uniform_mask(n, m, rng=rng)
        y = hankel_ops.p_omega(rand_complex(rng, n), mask)
        Z = rand_complex(rng, n_s, r)
        p = m / n
        counts = np.bincount(np.asarray(mask.indices), minlength=n).astype(float)
        want = dense_shgd_loss(Z, y, counts, p)
        got = shgd.loss(Z, y, mask, p)
        assert abs(got - want) <= 1e-10 * max(want, 1.0)


def test_grad_matches_dense_oracle(rng):
    for _ in range(20):
        n = int(rng.integers(3, 17)) * 2 - 1
        n_s = (n + 1) // 2
        r = int(rng.integers(1, 5))
        m = int(rng.integers(1, n + 1))
        mask = signal_model.uniform_mask(n, m, rng=rng)
        y = hankel_ops.p_omega(rand_complex(rng, n), mask)
        Z = rand_complex(rng, n_s, r)
        p = m / n
        counts = np.bincount(np.asarray(mask.indices), minlength=n).astype(float)
        want = dense_shgd_grad(Z, y, counts, p)
        got = shgd.grad(Z, y, mask, p)
        assert np.linalg.norm(got - want) <= 1e-10 * (1 + np.linalg.norm(want))


def test_grad_vanishes_at_exact_solution(rng):
    x, mask, y = weighted_instance(rng, n=63, r=4)
    Z = takagi_factor_of(x, 4)
    sigma1 = float(np.linalg.svd(hankel_ops.lift_dense(x), compute_uv=False)[0])
    g = shgd.grad(Z, y, mask, 1.0)
    assert np.linalg.norm(g) <= 1e-10 * sigma1**1.5


def test_gradient_matches_central_finite_differences(rng):
    """Directional derivative = Re<grad, dZ> within 1e-5 relative."""
    n, r, m = 31, 3, 20
    n_s = (n + 1) // 2
    mask = signal_model.uniform_mask(n, m, rng=rng)
    y = hankel_ops.p_omega(rand_complex(rng, n), mask)
    p = m / n
    for _ in range(20):
        Z = rand_complex(rng, n_s, r)
        dZ = rand_complex(rng, n_s, r)
        dZ /= np.linalg.norm(dZ)
        g = shgd.grad(Z, y, mask, p)
        analytic = float(np.real(np.vdot(g, dZ)))
        h = 1e-6
        fp = shgd.loss(Z + h * dZ, y, mask, p)
        fm = shgd.loss(Z - h * dZ, y, mask, p)
        numeric = (fp - fm) / (2 * h)
        assert abs(analytic - numeric) <= 1e-5 * max(abs(numeric), 1e-8)


# ---------------------------------------------------------------------------
# Full recovery
# ---------------------------------------------------------------------------

def test_recover_full_mask_noiseless(rng):
    n, r = 127, 4
    model, x, mask, observed = make_instance(n, r, n, rng)
    cfg = shgd.SolverConfig(r=r, max_iters=200, rel_change_tol=1e-9, seed=0)
    res = shgd.recover(observed, mask, cfg, x_true=x)
    assert np.linalg.norm(res.x_hat - x) / np.linalg.norm(x) <= 1e-6
    assert res.termination in ("tol_reached", "max_iters")
    assert len(res.history) == res.iters


def test_recover_partial_mask_easy_regime():
    """m = 0.5 n on separated modes succeeds in most seeded trials."""
    wins = 0
    for seed in range(10):
        _, x, mask, observed = make_instance(127, 4, 63, seed, min_sep=1.5 / 127)
        cfg = shgd.SolverConfig(r=4, max_iters=200, rel_change_tol=1e-5, seed=seed)
        res = shgd.recover(observed, mask, cfg)
        if np.linalg.norm(res.x_hat - x) / np.linalg.norm(x) <= 1e-3:
            wins += 1
    assert wins >= 8


def test_recover_even_length_pads_internally(rng):
    n, r, m = 126, 3, 80
    model, x, mask, observed = make_instance(n, r, m, rng, min_sep=1.5 / n)
    cfg = shgd.SolverConfig(r=r, max_iters=300, rel_change_tol=1e-8, seed=1)
    res = shgd.recover(observed, mask, cfg, x_true=x)
    assert res.x_hat.shape == (n,)
    assert np.linalg.norm(res.x_hat - x) / np.linalg.norm(x) <= 1e-3
    assert res.history[-1].rel_err == pytest.approx(
        float(np.linalg.norm(res.x_hat - x) / np.linalg.norm(x)), rel=1e-6
    )


def test_recover_mask_length_mismatch(rng):
    _, x, mask, observed = make_instance(31, 2, 20, rng)
    with pytest.raises(ValueError):
        shgd.recover(observed[:-1], mask, shgd.SolverConfig(r=2))


def test_recover_x_true_must_match_observation_length(rng):
    _, x, mask, observed = make_instance(31, 2, 20, rng)
    with pytest.raises(ValueError, match="x_true"):
        shgd.recover(observed, mask, shgd.SolverConfig(r=2), x_true=x[:-1])


def test_zero_length_observation_fails_fast():
    with pytest.raises(ValueError):
        signal_model.SamplingMask(0, np.array([], dtype=int))


def test_recover_max_iters_termination(rng):
    _, x, mask, observed = make_instance(63, 3, 40, rng)
    cfg = shgd.SolverConfig(r=3, max_iters=5, rel_change_tol=1e-300, seed=0)
    res = shgd.recover(observed, mask, cfg)
    assert res.termination == "max_iters"
    assert res.iters == 5


def test_recover_divergence_guard(rng):
    _, x, mask, observed = make_instance(63, 3, 40, rng)
    cfg = shgd.SolverConfig(
        r=3, max_iters=200, step_policy="fixed", eta_prime=500.0, seed=0,
        projection=False,
    )
    res = shgd.recover(observed, mask, cfg)
    assert res.termination == "diverged"
    assert np.all(np.isfinite(res.x_hat))


def test_backtracking_loss_nonincreasing(rng):
    _, x, mask, observed = make_instance(127, 4, 76, rng, min_sep=1.5 / 127)
    cfg = shgd.SolverConfig(r=4, max_iters=80, rel_change_tol=1e-300, seed=2)
    res = shgd.recover(observed, mask, cfg)
    losses = [rec.loss for rec in res.history]
    assert all(b <= a + 1e-300 for a, b in zip(losses, losses[1:]))


def test_projection_inactive_at_convergence(rng):
    """Row clipping may touch early iterates but not the converged factor."""
    _, x, mask, observed = make_instance(127, 4, 76, rng, min_sep=1.5 / 127)
    cfg = shgd.SolverConfig(r=4, max_iters=300, rel_change_tol=1e-9, seed=3)
    res = shgd.recover(observed, mask, cfg)
    sigma = res.sigma1_M0 / (1.0 - cfg.epsilon0)
    radius = 2.0 * math.sqrt(res.mu * cfg.r * sigma / 127)
    assert np.linalg.norm(res.Z_final, axis=1).max() < radius


def test_sample_splitting_still_recovers(rng):
    _, x, mask, observed = make_instance(127, 3, 90, rng, min_sep=1.5 / 127)
    cfg = shgd.SolverConfig(
        r=3, max_iters=400, rel_change_tol=1e-8, seed=4,
        sample_splitting=True, K=5,
    )
    res = shgd.recover(observed, mask, cfg)
    assert np.linalg.norm(res.x_hat - x) / np.linalg.norm(x) <= 1e-2


def test_fixed_step_counter_is_two_passes_per_rank_per_iteration(rng):
    """Counted FFT passes grow by exactly 2 r per fixed-step iteration."""
    n, r, m = 63, 3, 40
    _, x, mask, observed = make_instance(n, r, m, rng)

    def passes(iters):
        cfg = shgd.SolverConfig(
            r=r, max_iters=iters, rel_change_tol=1e-300,
            step_policy="fixed", eta_prime=0.5, seed=0,
        )
        return shgd.recover(observed, mask, cfg).counter.fft_passes

    assert passes(12) - passes(4) == 2 * r * 8


def test_recover_deterministic(rng):
    _, x, mask, observed = make_instance(63, 3, 40, rng)
    cfg = shgd.SolverConfig(r=3, max_iters=50, rel_change_tol=1e-300, seed=9)
    a = shgd.recover(observed, mask, cfg)
    b = shgd.recover(observed, mask, cfg)
    assert np.array_equal(a.x_hat, b.x_hat)
    assert [r.loss for r in a.history] == [r.loss for r in b.history]


# ---------------------------------------------------------------------------
# Result serialization
# ---------------------------------------------------------------------------

def test_result_json_contract(tmp_path, rng):
    _, x, mask, observed = make_instance(63, 3, 45, rng)
    cfg = shgd.SolverConfig(r=3, max_iters=30, seed=0)
    res = shgd.recover(observed, mask, cfg, x_true=x)
    path = tmp_path / "result.json"
    shgd.save_result(path, res)

    doc = json.loads(path.read_text())
    assert set(doc.keys()) >= {"x_hat", "iters", "termination", "history"}
    assert len(doc["x_hat"]) == 63
    assert all(len(pair) == 2 for pair in doc["x_hat"])
    assert doc["iters"] == len(doc["history"])
    first = doc["history"][0]
    assert {"k", "loss", "rel_change", "step", "ms"} <= set(first.keys())
    assert "rel_err" in first  # x_true instrumentation was on
    x_back = np.array([re + 1j * im for re, im in doc["x_hat"]])
    assert rel(x_back, res.x_hat) <= 1e-15


def test_result_json_encodes_nonfinite_as_null(rng):
    rec = shgd.IterRecord(k=0, loss=float("inf"), rel_change=float("nan"),
                          step=0.1, ms=1.0)
    res = shgd.RecoveryResult(
        x_hat=np.zeros(3, dtype=complex), Z_final=None, iters=1,
        history=[rec], termination="diverged",
    )
    doc = shgd.result_to_dict(res)
    assert doc["history"][0]["loss"] is None
    assert doc["history"][0]["rel_change"] is None
    assert json.dumps(doc)  # serializable
