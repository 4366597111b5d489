"""Distance metrics between low-rank factors and executable inequality checks.

A symmetric factorization M = Z Z^T is invariant under Z -> Z Q for complex
orthogonal Q (Q^T Q = I), a non-compact group, so plain factor distances are
meaningless.  The metric used here is

    dist_P(Z, Z_star)^2 = inf_P ||Z - Z_star P||_F^2 + ||Z - Z_star P^{-T}||_F^2

over invertible P.  Only upper bounds are ever certified: descent from the
real-orthogonal Procrustes solution, together with the first-order optimality
gap

    (Z_star P)^H (Z - Z_star P) = (Z - Z_star P^{-T})^T conj(Z_star P^{-T})

at the reported alignment.  The module also checks the Procrustes sandwich

    dist_P^2 <= 2 min_{Q real orth} ||Z - Z_star Q||_F^2
            <= (sqrt(2)+1)/sigma_r(M_star) * ||M - M_star||_F^2

on concrete instances (conservative by construction since the left side is an
upper bound and descent starts at the middle term's minimizer).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg


class MetricUnboundedError(RuntimeError):
    """The alignment drifted toward a singular P (non-compact direction)."""


@dataclass
class Alignment:
    P: np.ndarray
    residual: float
    first_order_gap: float


@dataclass
class Lemma4Report:
    dist_p_sq: float
    procrustes_sq: float
    lift_bound: float
    passed: bool


def rel_error(x_hat: np.ndarray, x: np.ndarray) -> float:
    """||x_hat - x|| / ||x||; the success statistic of the experiments."""
    x_hat = np.asarray(x_hat)
    x = np.asarray(x)
    if x_hat.shape != x.shape:
        raise ValueError("shapes differ")
    denom = float(np.linalg.norm(x))
    if denom == 0:
        raise ValueError("relative error is undefined against a zero signal")
    return float(np.linalg.norm(x_hat - x)) / denom


def procrustes_real_orth(Z: np.ndarray, Z_star: np.ndarray):
    """Minimize ||Z - Z_star Q||_F over real orthogonal Q, in closed form.

    The optimum comes from the SVD of the real part of the cross-gram:
    Re(Z_star^H Z) = Q1 Lambda Q2^T gives Q = Q1 Q2^T.  Returns (Q, dist).
    """
    Z = np.asarray(Z)
    Z_star = np.asarray(Z_star)
    if Z.shape != Z_star.shape:
        raise ValueError("shapes differ")
    cross = np.real(Z_star.conj().T @ Z)
    Q1, _, Q2t = np.linalg.svd(cross)
    Q = Q1 @ Q2t
    return Q, float(np.linalg.norm(Z - Z_star @ Q))


def first_order_gap(Z: np.ndarray, Z_star: np.ndarray, P: np.ndarray) -> float:
    """Frobenius norm of the stationarity defect of the dist_P objective."""
    Y = np.linalg.inv(P.T)
    ZP = Z_star @ P
    ZY = Z_star @ Y
    gap = ZP.conj().T @ (Z - ZP) - (Z - ZY).T @ np.conj(ZY)
    return float(np.linalg.norm(gap))


def _alignment_objective(Z, Z_star, P):
    """h(P) and its conjugate-coordinate gradient (None when P is singular)."""
    sig = np.linalg.svd(P, compute_uv=False)
    if sig[-1] < 1e-10:
        return None, None
    Y = np.linalg.inv(P.T)
    E1 = Z - Z_star @ P
    E2 = Z - Z_star @ Y
    h = float(np.linalg.norm(E1) ** 2 + np.linalg.norm(E2) ** 2)
    A = Z_star.conj().T @ E2
    Gc = -(Z_star.conj().T @ E1) + np.conj(Y @ A.conj().T @ Y)
    return h, Gc


def dist_P_upper(Z: np.ndarray, Z_star: np.ndarray, max_restarts: int = 3) -> Alignment:
    """Upper-bound the dist_P metric by descent from the Procrustes solution.

    Quasi-Newton descent over the entries of P (real and imaginary parts
    stacked); the result certifies residual >= dist_P together with the
    first-order gap at the reported P.  Raises :class:`MetricUnboundedError`
    when the optimizer is drawn toward a singular P.
    """
    Z = np.asarray(Z, dtype=complex)
    Z_star = np.asarray(Z_star, dtype=complex)
    if Z.shape != Z_star.shape:
        raise ValueError("shapes differ")
    r = Z.shape[1]
    sig_star = np.linalg.svd(Z_star, compute_uv=False)
    if sig_star[-1] <= 1e-12 * max(sig_star[0], 1e-300):
        raise ValueError("Z_star must have full column rank")
    gap_tol = 1e-8 * float(sig_star[0] ** 2)

    def pack(P):
        return np.concatenate([P.real.ravel(), P.imag.ravel()])

    def unpack(x):
        return x[: r * r].reshape(r, r) + 1j * x[r * r :].reshape(r, r)

    def fun(x):
        h, Gc = _alignment_objective(Z, Z_star, unpack(x))
        if h is None:
            return 1e300, np.zeros_like(x)
        return h, 2.0 * pack(Gc)

    # Imported here, not at module level: it is this function's alone and
    # costs about a quarter of the package's import time.
    import scipy.optimize

    Q0, _ = procrustes_real_orth(Z, Z_star)
    x = pack(Q0.astype(complex))
    for _ in range(max_restarts):
        res = scipy.optimize.minimize(
            fun, x, jac=True, method="L-BFGS-B",
            options={"maxiter": 1000, "ftol": 1e-18, "gtol": 1e-14},
        )
        x = res.x
        P = unpack(x)
        if np.linalg.svd(P, compute_uv=False)[-1] < 1e-10:
            raise MetricUnboundedError(
                "alignment drifted to a singular P; dist_P unbounded below here"
            )
        gap = first_order_gap(Z, Z_star, P)
        if gap <= gap_tol:
            break
    h, _ = _alignment_objective(Z, Z_star, P)
    return Alignment(P=P, residual=math.sqrt(max(h, 0.0)), first_order_gap=gap)


def random_complex_orthogonal(r: int, scale: float, rng=None) -> np.ndarray:
    """Random Q with Q^T Q = I: a real rotation times exp(i W), W skew.

    ``scale`` sets ||W||_2; growing it makes ||Q|| arbitrarily large, which is
    exactly the unbounded factorization ambiguity the metric must absorb.
    """
    if scale < 0:
        raise ValueError("scale must be >= 0")
    rng = np.random.default_rng(rng)
    Ar = rng.standard_normal((r, r))
    Q, R = np.linalg.qr(Ar)
    Q = Q * np.sign(np.diag(R))[None, :]
    W = rng.standard_normal((r, r))
    W = W - W.T
    norm = np.linalg.norm(W, 2)
    if norm > 0 and scale > 0:
        W *= scale / norm
        return Q @ scipy.linalg.expm(1j * W)
    return Q.astype(complex)


def lemma4_check(Z: np.ndarray, Z_star: np.ndarray,
                 M: np.ndarray, M_star: np.ndarray,
                 slack: float = 1e-9) -> Lemma4Report:
    """Check the Takagi-factor sandwich inequality on one instance.

    dist_p_sq uses the certified upper bound, so a pass is conservative; the
    descent starts at the Procrustes minimizer, which also pins
    dist_p_sq <= procrustes_sq up to rounding.
    """
    r = Z_star.shape[1]
    sigma_r = np.linalg.svd(M_star, compute_uv=False)[r - 1]
    left = dist_P_upper(Z, Z_star).residual ** 2
    _, pd = procrustes_real_orth(Z, Z_star)
    middle = 2.0 * pd**2
    right = (math.sqrt(2) + 1) / sigma_r * float(np.linalg.norm(M - M_star) ** 2)
    passed = left <= middle + slack and middle <= right + slack
    return Lemma4Report(
        dist_p_sq=left, procrustes_sq=middle, lift_bound=right, passed=passed
    )
