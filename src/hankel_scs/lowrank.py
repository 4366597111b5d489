"""Truncated SVD, truncated Takagi factorization, and spectral initialization.

A complex symmetric matrix M (M = M^T, not Hermitian) admits the Takagi
factorization M = U Sigma U^T with unitary U and nonnegative Sigma -- an
SVD in symmetric form (Horn & Johnson, Matrix Analysis, 2nd ed., sec. 4.4).
The truncated variant here reduces the problem to a dense r x r core:
compute a randomized truncated SVD M ~ U Sigma V^H, form the complex
symmetric core S = U^H M conj(U), Takagi-factorize S, and rotate U by the
core's Takagi basis.  The core needs one real symmetric eigenproblem: with
S = A + iB, the vector q = x - iy satisfies S conj(q) = s q exactly when
[x; y] is an eigenvector of K = [[A, -B], [-B, -A]] with eigenvalue s.  K's
spectrum is +-s, so the eigenvectors of its r largest eigenvalues are
orthonormal Takagi vectors, for clustered values too and at any scale.

All routines consume matrix-action oracles, never dense matrices, so they
scale to FFT-backed Hankel lifts.

Precision.  A spectral init follows its solve's precision schedule
(:func:`hankel_scs.descent.opening_dtype`): a solve that opens in complex64
runs the init's subspace rounds in complex64 too.  The range finder only has
to capture the subspace (Halko, Martinsson & Tropp 2011), and the init stops
at a residual near 1e-3 anyway.  One complex128 Rayleigh-Ritz step then
finishes it (:func:`trunc_svd`), so U and V are orthonormal and sigma are
Ritz values in double precision, and the rank and orthonormality checks run
unchanged.  Every QR here is LAPACK's economic QR in the block's own
precision (:func:`_qr`).

Memory.  :func:`trunc_svd` releases each block as soon as it is dead, so a
round holds at most its correlation's spectrum (b x nfft, two n x b blocks
for a square lift, whose FFT length is about 2n), the basis Q, the last
round's P and the convergence test's two n x r products: about five and a
half n x b blocks in the rounds' precision.  The test block and its cast
die after the range finder, W once P = qr(W) is formed, the last round's P
once the test has run and Q before the next correlation; each correlation
goes straight into its QR, so its spectrum dies with the QR's copy (see
:func:`hankel_ops.hankel_corr`).  The double-precision finish of complex64
rounds holds Q in both precisions, one spectrum and the QR's copy, about
four double-precision blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import hankel_ops


# Subspace-iteration budget of both solvers' spectral inits.  An init only
# needs the top-r subspace down to the sampling noise floor, and an
# under-sampled lift has no spectral gap at r: at the paper's timing point
# (n=2046, r=150, m=876) sigma_{r+1}/sigma_r stays within 0.994-0.999 over 30
# rounds and the residual is still 4.9e-3 at round 30, so rounds past the
# first few only rotate the basis inside the noise cluster.  Halko, Martinsson
# & Tropp (2011, sec. 4.5) advise a small fixed number of power rounds.  Rounds
# and iterations from seed-1 benchmark instances, capped at 30 -> at 4
# (SHGD init seconds on a 2-core host):
#
#   instance                      rounds    SHGD init s         SHGD iters  PGD iters
#   n=2046 r=150 m=876 (3 draws)  30 -> 4   5.0-6.2 -> 0.7-1.0  -2..-6%     -4..-8%
#   n=16382 r=30 m=3000           10 -> 4   2.8 -> 1.3          39 -> 39    39 -> 39
#   n=127 phase slice (192)       14 -> 4   3.1 -> 1.0 (sum)    -0.3% sum   -0.5% sum
#
# Final errors are unchanged (1.1e-8 and 1.6e-9 on the first two rows).  On
# the n=127 slice SHGD still recovers 169 of 192 and PGD 168 (169 before);
# budgets of 2 and 3 rounds each cost two SHGD recoveries.  INIT_TOL is only an
# early exit, for lifts that are exactly rank r, such as full sampling.
INIT_TOL = 1e-6
INIT_MAX_ROUNDS = 4

# trunc_svd's block size is r + OVERSAMPLE.  It forms the Ritz pairs in every
# round and tests them at the start of the next, so the first test runs in
# round 2, after one power round.  ESPRIT passes it there: the lift of a
# recovered signal is rank r up to about 1e-9, so one power round captures it
# (Halko, Martinsson & Tropp 2011, sec. 4.5).  Testing in round 2 takes a
# long-signal ESPRIT call to 2 applications of the lift, 2 of its adjoint and
# 3 QRs, against 3, 3 and 5 from round 3.  An under-sampled init never reaches
# INIT_TOL, so it only pays round 1's small SVD and round 2's residual (about
# 0.1 ms of a 1.4-1.8 ms init at n=127 on a 2-core host) and returns the same
# factors.
OVERSAMPLE = 10


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
    tol: float = 1e-10,
    max_rounds: int = 200,
    strict: bool = True,
    dtype=np.complex128,
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
    tol : declare convergence when every top-r Ritz pair satisfies
        ||M^H u_i - sigma_i v_i|| <= tol * sigma_1.  The test runs from
        round 2 on, on the previous round's pairs, so an operator that is
        rank r to within ``tol`` stops after one power round (see
        :data:`OVERSAMPLE`); the test never changes the factors of a run
        that it does not stop.
    max_rounds : failure (or best-effort return when ``strict`` is false)
        after this many power rounds; at least 1.
    dtype : precision of the blocks handed to ``apply`` and ``applyH`` in
        the subspace rounds.  After complex64 rounds (which suit only a
        loose ``tol``) one complex128 Rayleigh-Ritz step on the last basis Q
        finishes the factorization: with Q re-orthonormalized and
        M^H Q = P R, the SVD R^H = U_b diag(sigma) V_b^H gives U = Q U_b and
        V = P V_b.  It costs one more ``applyH``, in double precision.

    Returns
    -------
    (U, sigma, V) with M ~ U diag(sigma) V^H, sigma nonincreasing; U and V
    orthonormal in double precision whatever ``dtype``.
    """
    n_rows, n_cols = dims
    if not 1 <= r <= min(n_rows, n_cols):
        raise ValueError(f"need 1 <= r <= min(dims), got r={r}, dims={dims}")
    if max_rounds < 1:
        raise ValueError(f"need max_rounds >= 1, got {max_rounds}")
    rng = np.random.default_rng(seed)
    b = min(r + OVERSAMPLE, n_rows, n_cols)
    omega = rng.standard_normal((n_cols, b)) + 1j * rng.standard_normal((n_cols, b))
    # Every correlation goes straight into its QR (see Memory).
    Q, _ = _qr(apply(omega.astype(dtype, copy=False)))
    del omega
    # Each round's Ritz pairs (SVD of R, with V = P Vb) are tested at the
    # start of the next round, whose applyH(Q) gives the residual, so the
    # test first runs in round 2; the last round's pairs are the result.
    prev = None
    resid = np.inf
    for _ in range(max_rounds):
        W = applyH(Q)
        if prev is not None:
            resid = _pair_residual(W, r, *prev)
            if resid <= tol:
                del W  # the result is formed from Q and prev
                break
        del Q, prev
        P, _ = _qr(W)
        del W
        Q, R = _qr(apply(P))
        prev = (*np.linalg.svd(R), P)
    else:
        if strict:
            raise ConvergenceError(
                f"subspace iteration stalled after {max_rounds} rounds "
                f"(residual {resid:.3e} > tol {tol:.1e})",
                residual=float(resid),
            )
    if Q.dtype != np.complex128:
        del prev, P  # the finish reads Q alone
        Q, _ = _qr(Q.astype(np.complex128))
        P, R = _qr(applyH(Q))
        Ub, sig, Vbh = np.linalg.svd(R.conj().T)
        return Q @ Ub[:, :r], sig[:r], P @ Vbh[:r].conj().T
    Ub, sig, Vbh, P = prev
    return Q @ Ub[:, :r], sig[:r].copy(), (P @ Vbh.conj().T)[:, :r]


def _pair_residual(W, r, Ub, sig, Vbh, P) -> float:
    """max_i ||M^H u_i - sigma_i v_i|| / sigma_1 over the top r Ritz pairs of
    the last round, from W = M^H Q, with u_i = Q Ub[:, i] and v_i = P Vbh[i]^H;
    0 for a zero operator.  Only the top r columns of V are formed, and the
    residual is one n x r array: W Ub_r, less P V_r Sigma_r in place."""
    if sig[0] <= 0.0:
        return 0.0
    res = W @ Ub[:, :r]
    res -= P @ (Vbh[:r].conj().T * sig[:r])
    return np.linalg.norm(res, axis=0).max() / sig[0]


def _qr(A: np.ndarray):
    """Economic QR (Q column-major, R upper triangular) of a block with at
    least as many rows as columns, in A's own precision.  numpy's QR
    computes complex64 in double, so it gains nothing from single precision.
    On an 8192 x 40 block (one BLAS thread, 2-core Xeon VM) LAPACK's QR is
    2x faster than numpy's in complex128 and 4x in complex64, with the same
    bits in complex128.  Two direct LAPACK calls, geqrf and then ungqr in
    place, have the bits of ``scipy.linalg.qr(A, mode="economic")`` without
    its wrapper: 33-39 us against 45 us at the init's 64 x 14 and 64 x 22.
    An N x N workspace (never larger than A) covers the N * NB that LAPACK's
    blocked code asks for whenever its block size NB is below N, so the
    bits match those of a workspace query while each call skips the two
    query calls, which cost 12% of an n=127 init."""
    geqrf, ungqr = scipy.linalg.get_lapack_funcs(("geqrf", "orgqr"), (A,))
    lwork = A.shape[1] ** 2
    qr, tau, _, _ = geqrf(A, lwork=lwork)
    R = np.triu(qr[:A.shape[1]])
    Q, _, _ = ungqr(qr, tau, lwork=lwork, overwrite_a=1)
    return Q, R


def _check_rank(sig: np.ndarray, r: int, rank_tol: float, what: str):
    """Raise :class:`RankDeficiencyError` unless sigma_r > rank_tol * sigma_1."""
    if sig[0] <= 0 or sig[r - 1] <= rank_tol * sig[0]:
        ratio = 0.0 if sig[0] <= 0 else sig[r - 1] / sig[0]
        raise RankDeficiencyError(
            f"{what} has numerical rank below r={r} "
            f"(sigma_r/sigma_1 = {ratio:.2e}); try a smaller rank"
        )


def lift_svd(u: np.ndarray, r: int, seed, tol: float,
             max_rounds: int, rank_tol: float, dtype=np.complex128):
    """Best-effort rank-r SVD of the rectangular Hankel lift H(u), rank-checked.

    The lift has the rows of :func:`hankel_ops.rect_dims`.  Runs
    :func:`trunc_svd` non-strictly, with rounds in ``dtype``, on the lift's
    actions from :func:`hankel_ops.lift_operator` (both correlations, the
    adjoint on conj(u)) and raises :class:`RankDeficiencyError` when
    sigma_r <= rank_tol * sigma_1.
    """
    apply, applyH, dims = hankel_ops.lift_operator(u, hankel_ops.rect_dims(u.shape[0])[0])
    U, sig, V = trunc_svd(
        apply, applyH, dims, r, seed=seed,
        tol=tol, max_rounds=max_rounds, strict=False, dtype=dtype,
    )
    _check_rank(sig, r, rank_tol, "Hankel lift")
    return U, sig, V


def takagi_truncated(
    apply,
    n_s: int,
    r: int,
    seed=None,
    tol: float = 1e-10,
    max_rounds: int = 200,
    strict: bool = True,
    dtype=np.complex128,
) -> TakagiFactor:
    """Truncated Takagi factorization of a complex symmetric operator.

    ``apply`` is the action v -> Mv of a complex symmetric M (checked on
    random probes); the adjoint action is derived as M^H v = conj(M conj(v)),
    and it conjugates ``apply``'s result in place: ``apply`` returns a fresh
    block, or a view of one, which this function may overwrite.  The
    subspace rounds run in ``dtype`` (see :func:`trunc_svd`); the core and
    the factor are complex128.  Returns factors with
    M ~ U_hat diag(sigma) U_hat^T matching the best rank-r approximation.
    """
    rng = np.random.default_rng(seed)

    def applyH(v):
        out = apply(np.conj(v))
        return np.conjugate(out, out=out)

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
        apply, applyH, (n_s, n_s), r, seed=rng,
        tol=tol, max_rounds=max_rounds, strict=strict, dtype=dtype,
    )
    _check_rank(sig, r, 1e-14, "operator")
    S = U.conj().T @ apply(np.conj(U))
    S = 0.5 * (S + S.T)
    # Takagi core S = Q diag(sigma) Q^T (see the module docstring): the r
    # largest eigenpairs [x; y] of K give Q = x - iy.
    w, E = np.linalg.eigh(np.block([[S.real, -S.imag], [-S.imag, -S.real]]))
    sigma = w[r:][::-1]
    E = E[:, r:][:, ::-1]
    U_hat = U @ (E[:r] - 1j * E[r:])
    gram_err = np.linalg.norm(U_hat.conj().T @ U_hat - np.eye(r))
    if gram_err > 1e-10:
        raise ConvergenceError(
            f"Takagi factor lost orthonormality ({gram_err:.2e}); "
            "the operator is likely far from symmetric or too ill-conditioned",
            residual=float(gram_err),
        )
    return TakagiFactor(U_hat=U_hat, sigma=sigma)


def spectral_init(observed: np.ndarray, mask, r: int, seed=None, dtype=np.complex128):
    """Spectral initialization: truncated Takagi of the rescaled partial lift.

    ``observed`` is the weighted-domain (y = Dx) observation, zero-filled
    off-mask, of odd length n.  Builds the matrix-free action of
    M0 = T_r(p^{-1} G P_Omega(y)) and returns (Z0, sigma_1(M0)) with
    Z0 = U0 diag(sigma0)^{1/2}, complex128 whatever ``dtype``, the precision
    of the subspace rounds.  Projection onto the incoherence ball is the
    caller's job.
    """
    observed = np.asarray(observed, dtype=complex)
    n = observed.shape[0]
    n_s, n_cols = hankel_ops.rect_dims(n)
    if n_cols != n_s:
        raise ValueError(f"square Hankel lift needs odd length, got n={n}")
    if r < 1:
        raise ValueError(f"need r >= 1, got r={r}")
    hankel_ops.check_rank(n, r)
    u = hankel_ops.apply_D_inv(hankel_ops.p_omega(observed, mask)) / mask.p
    apply, _, _ = hankel_ops.lift_operator(u, n_s)
    factor = takagi_truncated(apply, n_s, r, seed=seed, tol=INIT_TOL,
                              max_rounds=INIT_MAX_ROUNDS, strict=False, dtype=dtype)
    Z0 = factor.U_hat * np.sqrt(factor.sigma)[None, :]
    return Z0, float(factor.sigma[0])
