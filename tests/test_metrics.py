"""Factor-distance metric, incoherence, and the inequality-chain checks."""

import os
import subprocess
import sys

import numpy as np
import pytest

from hankel_scs import descent, hankel_ops, metrics
from conftest import rand_complex


def random_factor(rng, n_s=20, r=3):
    return rand_complex(rng, n_s, r)


def test_importing_the_package_leaves_scipy_optimize_unloaded():
    # Only dist_P_upper uses scipy.optimize, and loading it is a large share
    # of the package's import time, which every CLI call pays.
    code = "import sys, hankel_scs; print('scipy.optimize' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# rel_error
# ---------------------------------------------------------------------------

def test_rel_error_basic():
    x = np.array([3.0 + 4.0j, 0.0])
    assert metrics.rel_error(x, x) == 0.0
    assert metrics.rel_error(2 * x, x) == pytest.approx(1.0)
    assert metrics.rel_error(np.zeros(2), x) == pytest.approx(1.0)


def test_rel_error_rejects_zero_truth_and_shape_mismatch():
    with pytest.raises(ValueError):
        metrics.rel_error(np.ones(3), np.zeros(3))
    with pytest.raises(ValueError):
        metrics.rel_error(np.ones(3), np.ones(4))


# ---------------------------------------------------------------------------
# Real-orthogonal Procrustes
# ---------------------------------------------------------------------------

def test_procrustes_identity_and_known_rotation(rng):
    Zs = random_factor(rng)
    Q0, d0 = metrics.procrustes_real_orth(Zs, Zs)
    assert d0 <= 1e-12 * np.linalg.norm(Zs)
    assert np.allclose(Q0, np.eye(3), atol=1e-10)

    theta = 0.7
    R = np.array([[np.cos(theta), -np.sin(theta), 0],
                  [np.sin(theta), np.cos(theta), 0],
                  [0, 0, 1.0]])
    Q, d = metrics.procrustes_real_orth(Zs @ R, Zs)
    assert d <= 1e-10 * np.linalg.norm(Zs)
    assert np.allclose(Q, R, atol=1e-8)


def test_procrustes_beats_identity_alignment(rng):
    for _ in range(10):
        Zs = random_factor(rng)
        Z = random_factor(rng)
        _, d = metrics.procrustes_real_orth(Z, Zs)
        assert d <= np.linalg.norm(Z - Zs) + 1e-12


# ---------------------------------------------------------------------------
# dist_P upper bound
# ---------------------------------------------------------------------------

def test_dist_p_zero_at_same_factor(rng):
    Zs = random_factor(rng)
    a = metrics.dist_P_upper(Zs, Zs)
    assert a.residual <= 1e-10 * np.linalg.norm(Zs)


def test_dist_p_absorbs_complex_orthogonal_ambiguity(rng):
    """Z and Z Q factor the same matrix; the metric must report ~0."""
    for _ in range(10):
        Zs = random_factor(rng)
        Q = metrics.random_complex_orthogonal(3, 0.3, rng)
        a = metrics.dist_P_upper(Zs @ Q, Zs)
        assert a.residual <= 1e-8 * np.linalg.norm(Zs)
        sig1 = np.linalg.svd(Zs, compute_uv=False)[0]
        assert a.first_order_gap <= 1e-8 * sig1**2


def test_dist_p_perturbation_upper_bound(rng):
    """P = I is feasible, so residual <= sqrt(2) ||Z - Z_star||."""
    for _ in range(10):
        Zs = random_factor(rng)
        E = random_factor(rng)
        E /= np.linalg.norm(E)
        eps = 1e-2
        a = metrics.dist_P_upper(Zs + eps * E, Zs)
        assert a.residual <= np.sqrt(2) * eps + 1e-10


def test_dist_p_scales_linearly_in_small_perturbations(rng):
    """residual(eps) / residual(eps/10) = 10 within 1% for small eps."""
    for _ in range(5):
        Zs = random_factor(rng)
        E = random_factor(rng)
        E /= np.linalg.norm(E)
        d1 = metrics.dist_P_upper(Zs + 1e-3 * E, Zs).residual
        d2 = metrics.dist_P_upper(Zs + 1e-4 * E, Zs).residual
        assert d1 / d2 == pytest.approx(10.0, rel=0.01)


def test_dist_p_rejects_rank_deficient_reference(rng):
    Zs = random_factor(rng)
    Zs[:, 2] = Zs[:, 1]
    Zs[:, 2] = Zs[:, 1]  # exactly repeated column: rank 2
    with pytest.raises(ValueError):
        metrics.dist_P_upper(Zs, Zs)


def test_dist_p_feasibility_invariant(rng):
    """The reported residual^2 never exceeds the objective at sampled
    feasible alignments (Q complex orthogonal has Q^{-T} = Q)."""
    for _ in range(5):
        Zs = random_factor(rng)
        Z = Zs + 0.1 * random_factor(rng)
        a = metrics.dist_P_upper(Z, Zs)
        for _ in range(20):
            Q = metrics.random_complex_orthogonal(3, float(rng.uniform(0, 1)), rng)
            combined = 2.0 * np.linalg.norm(Z - Zs @ Q) ** 2
            assert a.residual**2 <= combined + 1e-9


# ---------------------------------------------------------------------------
# Complex orthogonal sampler
# ---------------------------------------------------------------------------

def test_random_complex_orthogonal_is_orthogonal(rng):
    for scale in (0.0, 0.5, 2.0):
        for _ in range(10):
            Q = metrics.random_complex_orthogonal(4, scale, rng)
            assert np.linalg.norm(Q.T @ Q - np.eye(4)) <= 1e-10


def test_random_complex_orthogonal_norm_is_exp_scale(rng):
    Q0 = metrics.random_complex_orthogonal(4, 0.0, rng)
    assert np.linalg.norm(Q0, 2) == pytest.approx(1.0, abs=1e-12)
    s = np.log(3.0)
    Q = metrics.random_complex_orthogonal(4, s, rng)
    assert np.linalg.norm(Q, 2) == pytest.approx(3.0, rel=1e-8)
    with pytest.raises(ValueError):
        metrics.random_complex_orthogonal(4, -1.0, rng)


# ---------------------------------------------------------------------------
# Incoherence
# ---------------------------------------------------------------------------

# descent.estimate_mu is the one incoherence measure: n ||U||_{2,inf}^2 / (2r)
# of the unit-column basis, floored at 1.

def test_incoherence_spiked_and_flat_subspaces():
    n_s, r, n = 16, 2, 31
    spiked = np.zeros((n_s, r))
    spiked[0, 0] = 1.0
    spiked[1, 1] = 1.0
    assert descent.estimate_mu(spiked, n, r) == pytest.approx(n / (2 * r))

    # n / (2 n_s) = 31/32 lies below the floor.
    F = np.fft.fft(np.eye(n_s))[:, 1 : r + 1] / np.sqrt(n_s)
    assert descent.estimate_mu(F, n, r) == 1.0


def test_incoherence_ignores_column_scale(rng):
    U, _ = np.linalg.qr(rand_complex(rng, 16, 2))
    mu = descent.estimate_mu(U, 31, 2)
    assert mu > 1.0  # above the floor, so the scale could show
    assert descent.estimate_mu(U * np.array([3.0, 1e-3]), 31, 2) == pytest.approx(mu, rel=1e-12)


# ---------------------------------------------------------------------------
# Inequality chain
# ---------------------------------------------------------------------------

def test_lemma4_chain_holds_on_random_pairs(rng):
    for _ in range(20):
        Zs = random_factor(rng)
        Z = Zs + 0.2 * random_factor(rng)
        M = Z @ Z.T
        Ms = Zs @ Zs.T
        rep = metrics.lemma4_check(Z, Zs, M, Ms)
        assert rep.passed
        assert rep.dist_p_sq <= rep.procrustes_sq + 1e-9
        assert rep.procrustes_sq <= rep.lift_bound + 1e-9


def test_lemma4_trivial_pair_all_zero(rng):
    Zs = random_factor(rng)
    Ms = Zs @ Zs.T
    rep = metrics.lemma4_check(Zs, Zs, Ms, Ms)
    assert rep.passed
    assert rep.dist_p_sq <= 1e-12
    assert rep.lift_bound == 0.0


def test_lemma4_negative_control(rng):
    """Claiming M = M_star while the factors differ must fail the chain."""
    Zs = random_factor(rng)
    Z = Zs + random_factor(rng)
    Ms = Zs @ Zs.T
    rep = metrics.lemma4_check(Z, Zs, Ms, Ms)
    assert not rep.passed
    assert rep.lift_bound == 0.0
    assert rep.procrustes_sq > 0.0


# ---------------------------------------------------------------------------
# Lift-to-signal error transfer
# ---------------------------------------------------------------------------

def test_signal_error_bounded_by_lift_error(rng):
    """The weighted-domain signal read off a lift moves less than the lift:
    ||G*(M) - G*(M_star)|| <= ||M - M_star||_F, and the time-domain signal
    moves less still."""
    for _ in range(10):
        n = int(rng.integers(2, 33)) * 2 - 1  # odd, <= 63
        n_s = (n + 1) // 2
        r = int(rng.integers(1, 4))
        Z = rand_complex(rng, n_s, r)
        Zs = rand_complex(rng, n_s, r)
        y = hankel_ops.gstar_gram(Z)
        ys = hankel_ops.gstar_gram(Zs)
        lift_gap = np.linalg.norm(Z @ Z.T - Zs @ Zs.T)
        assert np.linalg.norm(y - ys) <= lift_gap * (1 + 1e-12)
        x = hankel_ops.apply_D_inv(y)
        xs = hankel_ops.apply_D_inv(ys)
        assert np.linalg.norm(x - xs) <= lift_gap * (1 + 1e-12)
