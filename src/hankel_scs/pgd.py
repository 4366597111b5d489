"""Two-factor projected gradient baseline on the rectangular Hankel lift.

The baseline factors the n_1 x n_2 lift (n = n_1 + n_2 - 1) as M = Z_U Z_V^H
and minimizes

    f(Z_U, Z_V) = (1/4p) ||P_Omega(G*(M) - y)||^2
                + (1/4)  ||(I - GG*)(M)||_F^2
                + lambda_b ||Z_U^H Z_U - Z_V^H Z_V||_F^2,   lambda_b = 1/16,

the last term keeping the two factors balanced.  Gradients in the same
rearranged matrix-free form as the symmetric solver, with
w = p^{-1} P_Omega(G*M - y) - G*M and B = Z_U^H Z_U - Z_V^H Z_V:

    grad_U f = (1/2) G(w) Z_V + Z_U ((1/2) Z_V^H Z_V + (1/4) B)
    grad_V f = (1/2) G(w)^H Z_U + Z_V ((1/2) Z_U^H Z_U - (1/4) B)

costing three r-column FFT passes per iteration (one for G*M, one each for
the two correlations) against the symmetric solver's two, plus two grams and
two n_i r^2 products.  Even n needs no zero-padding: the rectangular lift
absorbs it (n_1 = n/2, n_2 = n/2 + 1).  The iteration loop, step policies and
result type are the symmetric solver's, from :mod:`hankel_scs.descent`.
"""

from __future__ import annotations

import math

import numpy as np

from . import descent, hankel_ops, lowrank
from .descent import RecoveryResult, SolverConfig, project_C
from .hankel_ops import rect_dims
from .signal_model import SamplingMask

LAMBDA_BALANCE = 1.0 / 16.0


class FactorPair:
    """The two factors of the rectangular lift, M = Z_U Z_V^H."""

    def __init__(self, Z_U: np.ndarray, Z_V: np.ndarray):
        Z_U = np.asarray(Z_U, dtype=complex)
        Z_V = np.asarray(Z_V, dtype=complex)
        if Z_U.ndim != 2 or Z_V.ndim != 2 or Z_U.shape[1] != Z_V.shape[1]:
            raise ValueError("factors must be 2-D with a shared rank")
        if not (np.isfinite(Z_U).all() and np.isfinite(Z_V).all()):
            raise ValueError("factors must have finite entries")
        self.Z_U = Z_U
        self.Z_V = Z_V

    @property
    def r(self) -> int:
        return self.Z_U.shape[1]

    @property
    def n(self) -> int:
        return self.Z_U.shape[0] + self.Z_V.shape[0] - 1


def _evaluate_pair(Zs, y_obs, counts, p, counter=None) -> descent.State:
    Z_U, Z_V = Zs
    g, FU, FVbar = hankel_ops.gstar_outer(
        Z_U, np.conj(Z_V), counter=counter, return_spectra=True
    )
    GU = Z_U.conj().T @ Z_U
    GV = Z_V.conj().T @ Z_V
    if counter is not None:
        counter.add_flops((Z_U.shape[0] + Z_V.shape[0]) * Z_U.shape[1] ** 2)
    B = GU - GV
    # ||Z_U Z_V^H||_F^2 = trace(GU GV), real since both grams are Hermitian.
    m_norm2 = float(np.real(np.vdot(GV, GU)))
    balance = LAMBDA_BALANCE * float(np.real(np.vdot(B, B)))
    return descent.make_state(
        Zs, g, m_norm2, y_obs, counts, p, aux=(FU, FVbar, GU, GV, B), extra_loss=balance
    )


def _gradients_pair(state: descent.State, p, counter=None):
    FU, FVbar, GU, GV, B = state.aux
    Z_U, Z_V = state.Zs
    n_1 = Z_U.shape[0]
    n_2 = Z_V.shape[0]
    w = state.masked / p - state.g
    h = hankel_ops.apply_D_inv(w, n_rows=n_1)
    gw_V = hankel_ops.hankel_corr(h, Z_V, n_1, counter=counter, cbar_spectrum=FVbar)
    gw_U = np.conj(hankel_ops.hankel_corr(
        h, np.conj(Z_U), n_2, counter=counter, cbar_spectrum=FU
    ))
    if counter is not None:
        counter.add_flops((n_1 + n_2) * Z_U.shape[1] ** 2)
    grad_U = 0.5 * gw_V + Z_U @ (0.5 * GV + 0.25 * B)
    grad_V = 0.5 * gw_U + Z_V @ (0.5 * GU - 0.25 * B)
    return grad_U, grad_V


def pgd_loss(pair: FactorPair, y_obs: np.ndarray, mask: SamplingMask, p: float) -> float:
    """Baseline loss at a factor pair (see module docstring)."""
    counts = hankel_ops.mask_counts(mask)
    return _evaluate_pair((pair.Z_U, pair.Z_V), y_obs, counts, p).loss


def pgd_grads(pair: FactorPair, y_obs: np.ndarray, mask: SamplingMask, p: float,
              counter: hankel_ops.OpCounter | None = None):
    """Gradients (grad_U, grad_V) of :func:`pgd_loss`."""
    counts = hankel_ops.mask_counts(mask)
    state = _evaluate_pair((pair.Z_U, pair.Z_V), y_obs, counts, p, counter=counter)
    return _gradients_pair(state, p, counter=counter)


def rect_spectral_init(
    observed_y: np.ndarray,
    mask: SamplingMask,
    r: int,
    seed=None,
):
    """Truncated SVD of the rescaled partial rectangular lift.

    Returns (Z_U0, Z_V0, sigma1) with Z_U0 = U Sigma^{1/2}, Z_V0 = V Sigma^{1/2}
    (exactly balanced).
    """
    n = observed_y.shape[0]
    n_1, _ = rect_dims(n)
    p_hat = mask.m / n
    u = hankel_ops.apply_D_inv(hankel_ops.p_omega(observed_y, mask), n_rows=n_1) / p_hat
    # Same caps as the symmetric init: resolve the subspace to the sampling
    # noise floor only, keeping large-instance initialization cheap.
    U, sig, V = lowrank.lift_svd(
        u, n_1, r, seed=seed, tol=1e-6, max_rounds=30, rank_tol=1e-14
    )
    root = np.sqrt(sig)[None, :]
    return U * root, V * root, float(sig[0])


def _factor_radius(F0: np.ndarray, sigma: float, r: int) -> float:
    """Row-clipping radius for one rectangular factor.

    Mirrors the symmetric rule with the factor's own row count standing in
    for n/2: radius = 2 sqrt(mu_F r sigma / (2 n_F)) with
    mu_F = max(1, n_F ||F0_normalized||_{2,inf}^2 / r).
    """
    n_F = F0.shape[0]
    mu_F = max(1.0, n_F * descent.max_row_energy(F0) / r)
    return 2.0 * math.sqrt(mu_F * r * sigma / (2 * n_F))


def pgd_recover(
    observed: np.ndarray,
    mask: SamplingMask,
    config: SolverConfig,
    x_true: np.ndarray | None = None,
) -> RecoveryResult:
    """Full baseline solve on the rectangular lift (no zero-padding needed).

    Same stopping rules, step policies, and result shape as the symmetric
    solver; history records additionally carry the balancing gap
    ||Z_U^H Z_U - Z_V^H Z_V||_F.
    """
    observed, truth = descent.check_inputs(observed, mask, x_true)
    n = observed.shape[0]
    n_1, _ = rect_dims(n)
    y_obs = hankel_ops.apply_D(observed, n_rows=n_1)
    init_mask, iter_counts = descent.split_for_iterations(mask, config)

    Z_U0, Z_V0, sigma1 = rect_spectral_init(y_obs, init_mask, config.r, seed=config.seed)
    sigma = sigma1 / (1.0 - config.epsilon0)
    radius_U = _factor_radius(Z_U0, sigma, config.r)
    radius_V = _factor_radius(Z_V0, sigma, config.r)

    return descent.descend(
        evaluate=lambda Zs, counts, p, ctr: _evaluate_pair(Zs, y_obs, counts, p, ctr),
        gradient=_gradients_pair,
        project=lambda Zs: (project_C(Zs[0], radius_U), project_C(Zs[1], radius_V)),
        signal_of=lambda st: hankel_ops.apply_D_inv(st.g, n_rows=n_1),
        Zs0=(Z_U0, Z_V0),
        iter_counts=iter_counts,
        config=config,
        sigma1=sigma1,
        n_out=n,
        factor_of=lambda Zs: FactorPair(*Zs),
        # The rectangular parametrization reaches each lift entry through one
        # factor instead of two symmetric copies, so the exact gradient of the
        # shared loss normalization is half the symmetric solver's scale.  The
        # canonical two-factor iteration absorbs that factor into the step, and
        # doubling here reproduces it: per-iteration progress then matches the
        # symmetric solver at the same configured eta'.
        step_scale=2.0,
        truth=truth,
        gap_of=lambda st: float(np.linalg.norm(st.aux[-1])),
    )
