"""Two-factor baseline solver: rectangular lift, loss/gradients, recovery."""

import json

import numpy as np
import pytest

from hankel_scs import descent, hankel_ops, lowrank, pgd, shgd, signal_model
from conftest import dense_pgd_loss, make_instance, rand_complex, rel


def exact_pair_of(x, r, seed=0):
    """Balanced exact rank-r factor pair of the rectangular lift."""
    n_1, n_2 = pgd.rect_dims(x.shape[0])
    M = hankel_ops.lift_dense(x, n_rows=n_1)
    U, sig, V = lowrank.trunc_svd(
        lambda B: M @ B, lambda B: M.conj().T @ B, (n_1, n_2), r, seed=seed
    )
    root = np.sqrt(sig)[None, :]
    return pgd.FactorPair(U * root, V * root)


def random_pair(rng, n, r):
    n_1, n_2 = pgd.rect_dims(n)
    return pgd.FactorPair(rand_complex(rng, n_1, r), rand_complex(rng, n_2, r))


# ---------------------------------------------------------------------------
# Shapes and validation
# ---------------------------------------------------------------------------

def test_rect_dims():
    assert pgd.rect_dims(127) == (64, 64)
    assert pgd.rect_dims(126) == (63, 64)
    assert pgd.rect_dims(1) == (1, 1)
    assert pgd.rect_dims(2) == (1, 2)
    for n in range(1, 40):
        n_1, n_2 = pgd.rect_dims(n)
        assert n_1 + n_2 - 1 == n
        assert 0 <= n_2 - n_1 <= 1
    with pytest.raises(ValueError):
        pgd.rect_dims(0)


def test_factor_pair_validation(rng):
    with pytest.raises(ValueError):
        pgd.FactorPair(rand_complex(rng, 4, 2), rand_complex(rng, 5, 3))
    bad = np.ones((4, 2), dtype=complex)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        pgd.FactorPair(bad, np.ones((5, 2), dtype=complex))


# ---------------------------------------------------------------------------
# Loss and gradients
# ---------------------------------------------------------------------------

def test_pgd_loss_matches_dense_oracle(rng):
    for _ in range(20):
        n = int(rng.integers(3, 32))  # odd and even both exercised
        r = int(rng.integers(1, 5))
        m = int(rng.integers(1, n + 1))
        mask = signal_model.uniform_mask(n, m, rng=rng)
        y = hankel_ops.p_omega(rand_complex(rng, n), mask)
        pair = random_pair(rng, n, r)
        p = m / n
        counts = np.bincount(np.asarray(mask.indices), minlength=n).astype(float)
        want = dense_pgd_loss(pair.Z_U, pair.Z_V, y, counts, p)
        got = pgd.pgd_loss(pair, y, mask, p)
        assert abs(got - want) <= 1e-10 * max(want, 1.0)


def test_pgd_loss_zero_at_exact_balanced_pair(rng):
    _, x, mask, observed = make_instance(31, 3, 31, rng)
    y = hankel_ops.apply_D(observed)
    pair = exact_pair_of(x, 3)
    zero = pgd.FactorPair(np.zeros_like(pair.Z_U), np.zeros_like(pair.Z_V))
    base = pgd.pgd_loss(zero, y, mask, 1.0)
    assert pgd.pgd_loss(pair, y, mask, 1.0) <= 1e-12 * base


def test_pgd_loss_at_zero_pair_is_scaled_observation_energy(rng):
    n, r, m = 30, 3, 14
    _, x, mask, observed = make_instance(n, r, m, rng)
    n_1, _ = pgd.rect_dims(n)
    y = hankel_ops.apply_D(observed)
    p = m / n
    zero = pgd.FactorPair(
        np.zeros((n_1, r), dtype=complex),
        np.zeros((n + 1 - n_1, r), dtype=complex),
    )
    want = float(np.linalg.norm(hankel_ops.p_omega(y, mask)) ** 2) / (4 * p)
    assert pgd.pgd_loss(zero, y, mask, p) == pytest.approx(want, rel=1e-12)


def test_pgd_gradients_match_central_finite_differences(rng):
    n, r, m = 30, 3, 18
    mask = signal_model.uniform_mask(n, m, rng=rng)
    y = hankel_ops.p_omega(rand_complex(rng, n), mask)
    p = m / n
    for _ in range(20):
        pair = random_pair(rng, n, r)
        dU = rand_complex(rng, *pair.Z_U.shape)
        dV = rand_complex(rng, *pair.Z_V.shape)
        scale = np.sqrt(np.linalg.norm(dU) ** 2 + np.linalg.norm(dV) ** 2)
        dU /= scale
        dV /= scale
        gU, gV = pgd.pgd_grads(pair, y, mask, p)
        analytic = float(np.real(np.vdot(gU, dU)) + np.real(np.vdot(gV, dV)))
        h = 1e-6
        fp = pgd.pgd_loss(
            pgd.FactorPair(pair.Z_U + h * dU, pair.Z_V + h * dV), y, mask, p)
        fm = pgd.pgd_loss(
            pgd.FactorPair(pair.Z_U - h * dU, pair.Z_V - h * dV), y, mask, p)
        numeric = (fp - fm) / (2 * h)
        assert abs(analytic - numeric) <= 1e-5 * max(abs(numeric), 1e-8)


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
def test_pgd_gradients_consume_the_spectrum_and_keep_their_bits(rng, dtype):
    # The solver carries W = conj(Z_V).  Each correlation consumes its half
    # of the evaluation's stacked spectrum, which the loop then drops; the
    # gradients have the bits of two separate correlations that transform
    # the factors afresh.  A lift above the dense rule, which makes spectra.
    n, r, m = 192, 4, 92
    n_1, n_2 = pgd.rect_dims(n)
    assert n_1 > hankel_ops.DENSE_ROWS
    mask = signal_model.uniform_mask(n, m, rng=rng)
    y = hankel_ops.p_omega(rand_complex(rng, n), mask).astype(dtype)
    pair = random_pair(rng, n, r)
    Z_U, W = (np.asfortranarray(Z.astype(dtype)) for Z in (pair.Z_U, np.conj(pair.Z_V)))
    p = m / n
    counts = hankel_ops.mask_counts(mask).astype(y.real.dtype)
    state = pgd._evaluate_pair((Z_U, W), y, counts, p)
    GU, GV, B = state.aux
    h = hankel_ops.apply_D_inv(state.masked / p - state.g) * 0.5
    want_U = descent.right_mul(Z_U, 0.5 * GV + 0.25 * B)
    want_U += hankel_ops.hankel_corr(h, np.conj(W), n_1)
    want_W = descent.right_mul(W, np.conj(0.5 * GU - 0.25 * B))
    want_W += hankel_ops.hankel_corr(h, np.conj(Z_U), n_2)
    spectrum = state.spectrum
    got_U, got_W = pgd._gradients_pair(state, p)
    assert state.spectrum is spectrum and not spectrum.flags.writeable
    assert state.aux[-1] is B
    assert np.array_equal(got_U, want_U) and np.array_equal(got_W, want_W)
    if dtype == np.complex128:
        # pgd_grads takes and returns Z_V's gradient: conj(grad_W).
        grads = pgd.pgd_grads(pgd.FactorPair(Z_U, np.conj(W)), y, mask, p)
        assert all(np.array_equal(g, w) for g, w in zip(grads, (want_U, np.conj(want_W))))


def test_pgd_gradients_vanish_at_exact_balanced_pair(rng):
    _, x, mask, observed = make_instance(63, 4, 63, rng)
    y = hankel_ops.apply_D(observed)
    pair = exact_pair_of(x, 4)
    sigma1 = float(np.linalg.svd(
        hankel_ops.lift_dense(x, n_rows=32), compute_uv=False)[0])
    gU, gV = pgd.pgd_grads(pair, y, mask, 1.0)
    gnorm = np.sqrt(np.linalg.norm(gU) ** 2 + np.linalg.norm(gV) ** 2)
    assert gnorm <= 1e-10 * sigma1**1.5


# ---------------------------------------------------------------------------
# Full recovery
# ---------------------------------------------------------------------------

def test_pgd_recover_full_mask_noiseless(rng):
    n, r = 127, 4
    _, x, mask, observed = make_instance(n, r, n, rng)
    cfg = descent.SolverConfig(r=r, max_iters=300, rel_change_tol=1e-9, seed=0)
    res = pgd.pgd_recover(observed, mask, cfg, x_true=x)
    assert np.linalg.norm(res.x_hat - x) / np.linalg.norm(x) <= 1e-6
    assert len(res.history) == res.iters


def test_pgd_recover_partial_mask_easy_regime():
    wins = 0
    for seed in range(10):
        _, x, mask, observed = make_instance(127, 4, 76, seed, min_sep=1.5 / 127)
        cfg = descent.SolverConfig(r=4, max_iters=300, rel_change_tol=1e-6, seed=seed)
        res = pgd.pgd_recover(observed, mask, cfg)
        if np.linalg.norm(res.x_hat - x) / np.linalg.norm(x) <= 1e-3:
            wins += 1
    assert wins >= 8


def test_pgd_recover_x_true_must_match_observation_length():
    _, x, mask, observed = make_instance(127, 4, 76, 0, min_sep=1.5 / 127)
    with pytest.raises(ValueError, match="x_true"):
        pgd.pgd_recover(observed, mask, descent.SolverConfig(r=4, seed=0), x_true=x[:50])


def test_pgd_even_length_is_native(rng):
    """Even lengths run on the (n/2, n/2+1) lift with no padding."""
    n, r, m = 126, 3, 80
    _, x, mask, observed = make_instance(n, r, m, rng, min_sep=1.5 / n)
    cfg = descent.SolverConfig(r=r, max_iters=300, rel_change_tol=1e-8, seed=1)
    res = pgd.pgd_recover(observed, mask, cfg, x_true=x)
    assert res.x_hat.shape == (n,)
    assert isinstance(res.Z_final, pgd.FactorPair)
    assert res.Z_final.Z_U.shape == (63, r)
    assert res.Z_final.Z_V.shape == (64, r)
    assert np.linalg.norm(res.x_hat - x) / np.linalg.norm(x) <= 1e-3


def test_pgd_balancing_gap_stays_small(rng):
    """Init is exactly balanced; the penalty keeps the gap tiny throughout."""
    _, x, mask, observed = make_instance(127, 4, 76, rng, min_sep=1.5 / 127)
    cfg = descent.SolverConfig(r=4, max_iters=300, rel_change_tol=1e-9, seed=2)
    res = pgd.pgd_recover(observed, mask, cfg)
    gaps = [rec.balancing_gap for rec in res.history]
    assert all(g is not None for g in gaps)
    assert gaps[-1] <= 1e-3 * res.sigma1_M0


def test_pgd_fixed_step_counter_is_three_passes_per_rank_per_iteration(rng):
    n, r, m = 63, 3, 40
    _, x, mask, observed = make_instance(n, r, m, rng)

    def passes(iters):
        cfg = descent.SolverConfig(
            r=r, max_iters=iters, rel_change_tol=1e-300,
            step_policy="fixed", eta_prime=0.5, seed=0,
        )
        return pgd.pgd_recover(observed, mask, cfg).counter.fft_passes

    assert passes(12) - passes(4) == 3 * r * 8


def test_pgd_recover_deterministic(rng):
    _, x, mask, observed = make_instance(63, 3, 40, rng)
    cfg = descent.SolverConfig(r=3, max_iters=50, rel_change_tol=1e-300, seed=9)
    a = pgd.pgd_recover(observed, mask, cfg)
    b = pgd.pgd_recover(observed, mask, cfg)
    assert np.array_equal(a.x_hat, b.x_hat)
    assert [r.loss for r in a.history] == [r.loss for r in b.history]


def test_pgd_result_json_carries_balancing_gap(tmp_path, rng):
    _, x, mask, observed = make_instance(63, 3, 45, rng)
    cfg = descent.SolverConfig(r=3, max_iters=30, seed=0)
    res = pgd.pgd_recover(observed, mask, cfg, x_true=x)
    path = tmp_path / "result.json"
    descent.save_result(path, res)
    doc = json.loads(path.read_text())
    assert all("balancing_gap" in rec for rec in doc["history"])
    assert all(rec["balancing_gap"] >= 0 for rec in doc["history"])


def test_default_solves_report_an_estimated_mu_of_at_least_one():
    _, x, mask, observed = make_instance(63, 3, 40, 0, min_sep=1.5 / 63)
    cfg = descent.SolverConfig(r=3, max_iters=5, seed=0)
    for solve in (shgd.recover, pgd.pgd_recover):
        assert solve(observed, mask, cfg).mu >= 1.0


def test_pgd_honours_the_configured_mu():
    """``mu`` sets both factors' clipping radius, as in the symmetric solver."""
    _, x, mask, observed = make_instance(63, 3, 40, 0, min_sep=1.5 / 63)
    base = dict(r=3, max_iters=30, seed=0)
    default = pgd.pgd_recover(observed, mask, descent.SolverConfig(**base))
    pinned = pgd.pgd_recover(observed, mask, descent.SolverConfig(mu=1e-3, **base))
    assert pinned.mu == 1e-3
    # A radius this small clips every row, so the iterates must differ.
    assert not np.array_equal(pinned.x_hat, default.x_hat)
