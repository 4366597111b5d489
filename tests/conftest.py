"""Shared fixtures and independent brute-force oracles.

Every oracle here is written as plain per-index loops (or direct dense
formulas) on purpose: the library computes the same quantities via FFT
kernels and algebraic identities, so agreement is meaningful evidence.
"""

from __future__ import annotations

import os

# BLAS runs on one thread in the test process, as in perfbench/run.py, and
# this must happen before numpy loads.  numpy and scipy each bring their own
# OpenBLAS; with two threads each, their worker pools contend for the cores
# right after a scipy QR, and the timing tests (the scaling rungs, criterion
# 4's ratio) then read scheduler slices instead of the solver's cost.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from hankel_scs import signal_model  # noqa: E402


# ---------------------------------------------------------------------------
# Brute-force operator oracles
# ---------------------------------------------------------------------------

def loop_weights(n_rows: int, n_cols: int) -> np.ndarray:
    """Skew-diagonal lengths by explicit counting."""
    w = np.zeros(n_rows + n_cols - 1)
    for i in range(n_rows):
        for j in range(n_cols):
            w[i + j] += 1
    return w


def loop_lift(x: np.ndarray, n_rows: int, n_cols: int) -> np.ndarray:
    """Hankel lift M[i, j] = x[i + j] by explicit loops."""
    M = np.zeros((n_rows, n_cols), dtype=complex)
    for i in range(n_rows):
        for j in range(n_cols):
            M[i, j] = x[i + j]
    return M


def loop_adjoint(M: np.ndarray) -> np.ndarray:
    """Adjoint of the lift, out[a] = sum over i+j=a of M[i, j], by loops."""
    n_rows, n_cols = M.shape
    out = np.zeros(n_rows + n_cols - 1, dtype=complex)
    for i in range(n_rows):
        for j in range(n_cols):
            out[i + j] += M[i, j]
    return out


def rand_complex(rng: np.random.Generator, *shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def rel(a, b) -> float:
    """Relative difference ||a - b|| / max(||b||, tiny)."""
    a = np.asarray(a)
    b = np.asarray(b)
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


# ---------------------------------------------------------------------------
# Dense solver-objective oracles (square symmetric lift)
# ---------------------------------------------------------------------------

def dense_shgd_loss(Z, y_obs, counts, p) -> float:
    """Direct dense evaluation: data term + Hankel-penalty term."""
    n = y_obs.shape[0]
    n_s = (n + 1) // 2
    w = loop_weights(n_s, n_s)
    M = Z @ Z.T
    g = loop_adjoint(M) / np.sqrt(w)
    resid = g - y_obs
    data = float(np.real(np.vdot(counts * resid, resid))) / (4.0 * p)
    proj = loop_lift(loop_adjoint(M) / w, n_s, n_s)
    pen = 0.25 * float(np.linalg.norm(M - proj) ** 2)
    return data + pen


def dense_shgd_grad(Z, y_obs, counts, p) -> np.ndarray:
    """Direct dense gradient: p^{-1} (G P_Omega(G*M - y)) conj(Z)
    + (I - GG*)(M) conj(Z)."""
    n = y_obs.shape[0]
    n_s = (n + 1) // 2
    w = loop_weights(n_s, n_s)
    M = Z @ Z.T
    g = loop_adjoint(M) / np.sqrt(w)
    masked = counts * (g - y_obs)
    G_masked = loop_lift(masked / np.sqrt(w), n_s, n_s)
    proj = loop_lift(loop_adjoint(M) / w, n_s, n_s)
    return (G_masked / p + (M - proj)) @ np.conj(Z)


def dense_pgd_loss(Z_U, Z_V, y_obs, counts, p, lambda_b=1.0 / 16.0) -> float:
    """Direct dense baseline loss: data + penalty + balance terms."""
    n_1 = Z_U.shape[0]
    n_2 = Z_V.shape[0]
    w = loop_weights(n_1, n_2)
    M = Z_U @ Z_V.conj().T
    g = loop_adjoint(M) / np.sqrt(w)
    resid = g - y_obs
    data = float(np.real(np.vdot(counts * resid, resid))) / (4.0 * p)
    proj = loop_lift(loop_adjoint(M) / w, n_1, n_2)
    pen = 0.25 * float(np.linalg.norm(M - proj) ** 2)
    B = Z_U.conj().T @ Z_U - Z_V.conj().T @ Z_V
    return data + pen + lambda_b * float(np.linalg.norm(B) ** 2)


# ---------------------------------------------------------------------------
# Instance builders
# ---------------------------------------------------------------------------

def make_instance(n, r, m, seed, sigma_e=0.0, min_sep=None, damped=False):
    """(model, x, mask, observed) drawn from one seeded generator."""
    rng = np.random.default_rng(seed)
    model = signal_model.random_model(n, r, rng=rng, min_sep=min_sep, damped=damped)
    x = signal_model.synthesize(model)
    mask = signal_model.uniform_mask(n, m, rng=rng)
    observed = signal_model.observe(x, mask, sigma_e=sigma_e, rng=rng)
    return model, x, mask, observed


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)
