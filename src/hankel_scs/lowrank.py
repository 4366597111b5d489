"""Truncated SVD, truncated Takagi factorization, and spectral initialization.

A complex symmetric matrix M (M = M^T, not Hermitian) admits the Takagi
factorization M = U Sigma U^T with unitary U and nonnegative Sigma -- an
SVD in symmetric form.  The truncated variant here reduces the problem to a
dense r x r core: compute a randomized truncated SVD M ~ U Sigma V^H, form
the complex symmetric core S = U^H M conj(U), Takagi-factorize S densely
(SVD plus a symmetric-unitary square-root correction, valid for clustered
singular values), and rotate U by the core's Takagi basis.

All routines consume matrix-action oracles, never dense matrices, so they
scale to FFT-backed Hankel lifts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import hankel_ops


class ConvergenceError(RuntimeError):
    """Subspace iteration failed to converge; carries the last residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class RankDeficiencyError(ValueError):
    """Requested rank exceeds the numerical rank of the operand."""


@dataclass
class TakagiFactor:
    """Truncated Takagi factor: M ~ U_hat diag(sigma) U_hat^T."""

    U_hat: np.ndarray
    sigma: np.ndarray


def trunc_svd(
    apply,
    applyH,
    dims: tuple[int, int],
    r: int,
    seed=None,
    oversample: int = 10,
    power_iters: int = 2,
    tol: float = 1e-10,
    max_rounds: int = 200,
    strict: bool = True,
):
    """Rank-r SVD of a linear operator via randomized block subspace iteration.

    Parameters
    ----------
    apply, applyH : callables mapping (n_cols x b) -> (n_rows x b) and back,
        the action of M and M^H on blocks of vectors.
    dims : (n_rows, n_cols) of the represented matrix.
    r : target rank, r <= min(dims).
    seed : int seed or numpy Generator; the draw of the test block is the
        only source of randomness, so results are deterministic given it.
    oversample, power_iters : block size r + oversample; minimum number of
        power rounds before convergence checks.
    tol : declare convergence when every top-r Ritz pair satisfies
        ||M^H u_i - sigma_i v_i|| <= tol * sigma_1.
    max_rounds : failure (or best-effort return when ``strict`` is false)
        after this many power rounds.

    Returns
    -------
    (U, sigma, V) with M ~ U diag(sigma) V^H, sigma nonincreasing.
    """
    n_rows, n_cols = dims
    if not 1 <= r <= min(n_rows, n_cols):
        raise ValueError(f"need 1 <= r <= min(dims), got r={r}, dims={dims}")
    rng = np.random.default_rng(seed)
    b = min(r + oversample, n_rows, n_cols)
    omega = rng.standard_normal((n_cols, b)) + 1j * rng.standard_normal((n_cols, b))
    Q, _ = np.linalg.qr(apply(omega))
    prev = None
    resid = np.inf
    for rnd in range(1, max_rounds + 1):
        W = applyH(Q)
        if prev is not None:
            Ub, sig, V = prev
            if sig[0] <= 0.0:
                resid = 0.0
                break
            pair_res = W @ Ub[:, :r] - V[:, :r] * sig[:r]
            resid = np.linalg.norm(pair_res, axis=0).max() / sig[0]
            if rnd > power_iters and resid <= tol:
                break
        P, _ = np.linalg.qr(W)
        Y = apply(P)
        Q, R = np.linalg.qr(Y)
        Ub, sig, Vbh = np.linalg.svd(R)
        prev = (Ub, sig, P @ Vbh.conj().T)
    else:
        if strict:
            raise ConvergenceError(
                f"subspace iteration stalled after {max_rounds} rounds "
                f"(residual {resid:.3e} > tol {tol:.1e})",
                residual=float(resid),
            )
    Ub, sig, V = prev
    return Q @ Ub[:, :r], sig[:r].copy(), V[:, :r]


def lift_svd(u: np.ndarray, n_rows: int, r: int, seed, tol: float,
             max_rounds: int, rank_tol: float):
    """Best-effort rank-r SVD of the rectangular Hankel lift H(u), rank-checked.

    Runs :func:`trunc_svd` non-strictly on the lift's matrix-free actions and
    raises :class:`RankDeficiencyError` when sigma_r <= rank_tol * sigma_1.
    """
    apply, applyH, dims = hankel_ops.lift_operator(u, n_rows)
    U, sig, V = trunc_svd(
        apply, applyH, dims, r, seed=seed,
        tol=tol, max_rounds=max_rounds, strict=False,
    )
    if sig[r - 1] <= rank_tol * max(sig[0], 1e-300):
        raise RankDeficiencyError(
            f"Hankel lift has numerical rank below {r}; try a smaller rank"
        )
    return U, sig, V


def _cluster_slices(sigma: np.ndarray, rel_gap: float = 1e-8):
    """Group nonincreasing singular values into clusters of near-equal value."""
    scale = sigma[0] if sigma[0] > 0 else 1.0
    slices = []
    start = 0
    for i in range(1, len(sigma)):
        if sigma[start] - sigma[i] > rel_gap * scale:
            slices.append(slice(start, i))
            start = i
    slices.append(slice(start, len(sigma)))
    return slices


def _dense_takagi_core(S: np.ndarray):
    """Takagi factorization S = Q diag(s) Q^T of a dense complex symmetric core.

    Uses the SVD S = V diag(s) W^H; B = V^H conj(W) is block-diagonal
    symmetric unitary within singular-value clusters, and its principal
    square root rotates V into Takagi form.  Valid for clustered values.
    """
    r = S.shape[0]
    V, s, Wh = np.linalg.svd(S)
    B = V.conj().T @ Wh.T
    Qcorr = np.zeros((r, r), dtype=complex)
    for sl in _cluster_slices(s):
        if s[sl.start] <= 1e-14 * max(s[0], 1.0):
            Qcorr[sl, sl] = np.eye(sl.stop - sl.start)
            continue
        blk = B[sl, sl]
        blk = 0.5 * (blk + blk.T)
        root = scipy.linalg.sqrtm(blk)
        Qcorr[sl, sl] = 0.5 * (root + root.T)
    Q = V @ Qcorr
    return Q, s


def takagi_truncated(
    apply,
    n_s: int,
    r: int,
    seed=None,
    oversample: int = 10,
    power_iters: int = 2,
    tol: float = 1e-10,
    max_rounds: int = 200,
    strict: bool = True,
) -> TakagiFactor:
    """Truncated Takagi factorization of a complex symmetric operator.

    ``apply`` is the action v -> Mv of a complex symmetric M (checked on
    random probes); the adjoint action is derived as M^H v = conj(M conj(v)).
    Returns factors with M ~ U_hat diag(sigma) U_hat^T matching the best
    rank-r approximation.
    """
    rng = np.random.default_rng(seed)

    def applyH(v):
        return np.conj(apply(np.conj(v)))

    # Probe symmetry before factorizing: the derived adjoint above is only
    # valid for complex symmetric operators, and handing an asymmetric one to
    # the subspace iteration would surface as an opaque stall instead.
    u = rng.standard_normal(n_s) + 1j * rng.standard_normal(n_s)
    v = rng.standard_normal(n_s) + 1j * rng.standard_normal(n_s)
    Mv = np.ravel(apply(v[:, None]))
    Mu = np.ravel(apply(u[:, None]))
    s1 = u @ Mv
    s2 = v @ Mu
    scale = (np.linalg.norm(u) * np.linalg.norm(Mv)
             + np.linalg.norm(v) * np.linalg.norm(Mu) + 1e-300)
    if abs(s1 - s2) > 1e-6 * scale:
        raise ValueError(
            "operator is not complex symmetric: probe asymmetry "
            f"|u^T M v - v^T M u| = {abs(s1 - s2):.3e}"
        )

    U, sig, _ = trunc_svd(
        apply,
        applyH,
        (n_s, n_s),
        r,
        seed=rng,
        oversample=oversample,
        power_iters=power_iters,
        tol=tol,
        max_rounds=max_rounds,
        strict=strict,
    )
    if sig[0] <= 0 or sig[r - 1] <= 1e-14 * sig[0]:
        raise RankDeficiencyError(
            f"numerical rank below requested r={r} "
            f"(sigma_r/sigma_1 = {0.0 if sig[0] <= 0 else sig[r - 1] / sig[0]:.2e}); "
            "try a smaller rank"
        )
    MU = apply(np.conj(U))
    S = U.conj().T @ MU
    S = 0.5 * (S + S.T)
    Qcore, sigma = _dense_takagi_core(S)
    U_hat = U @ Qcore
    gram_err = np.linalg.norm(U_hat.conj().T @ U_hat - np.eye(r))
    if gram_err > 1e-10:
        raise ConvergenceError(
            f"Takagi factor lost orthonormality ({gram_err:.2e}); "
            "the operator is likely far from symmetric or too ill-conditioned",
            residual=float(gram_err),
        )
    return TakagiFactor(U_hat=U_hat, sigma=sigma)


def spectral_init(observed: np.ndarray, mask, r: int, seed=None):
    """Spectral initialization: truncated Takagi of the rescaled partial lift.

    ``observed`` is the weighted-domain (y = Dx) observation, zero-filled
    off-mask, of odd length n.  Builds the matrix-free action of
    M0 = T_r(p^{-1} G P_Omega(y)) and returns (Z0, sigma_1(M0)) with
    Z0 = U0 diag(sigma0)^{1/2}.  Projection onto the incoherence ball is the
    caller's job.
    """
    observed = np.asarray(observed, dtype=complex)
    n = observed.shape[0]
    n_s = hankel_ops.HankelDims(n).n_s
    if not 1 <= r <= n_s:
        raise ValueError(f"need 1 <= r <= n_s={n_s}, got r={r}")
    p_hat = mask.m / n
    u = hankel_ops.apply_D_inv(hankel_ops.p_omega(observed, mask)) / p_hat
    apply, _, _ = hankel_ops.lift_operator(u, n_s)
    # The init only needs to resolve the top-r subspace down to the sampling
    # noise floor, which dominates any subspace-iteration residual long before
    # these caps bind; tighter settings cost seconds at n ~ 2000 for no gain.
    factor = takagi_truncated(
        apply, n_s, r, seed=seed, tol=1e-6, max_rounds=30, strict=False
    )
    Z0 = factor.U_hat * np.sqrt(factor.sigma)[None, :]
    return Z0, float(factor.sigma[0])
