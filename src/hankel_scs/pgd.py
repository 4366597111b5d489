"""Two-factor projected gradient baseline on the rectangular Hankel lift.

The baseline factors the n_1 x n_2 lift (n = n_1 + n_2 - 1) as M = Z_U Z_V^H
and minimizes

    f(Z_U, Z_V) = (1/4p) ||P_Omega(G*(M) - y)||^2
                + (1/4)  ||(I - GG*)(M)||_F^2
                + lambda_b ||Z_U^H Z_U - Z_V^H Z_V||_F^2,   lambda_b = 1/16,

the last term keeping the two factors balanced.  The solver carries
W = conj(Z_V), so M = Z_U W^T has the symmetric solver's form Z Z^T and
each gradient correlation is G(w) times the conjugate of a factor.  With
w = p^{-1} P_Omega(G*M - y) - G*M and B = Z_U^H Z_U - Z_V^H Z_V:

    grad_U f = (1/2) G(w) conj(W) + Z_U ((1/2) conj(W^H W) + (1/4) B)
    grad_W f = (1/2) G(w)^T conj(Z_U) + W conj((1/2) Z_U^H Z_U - (1/4) B)

with grad_W = conj(grad_V f), costing three r-column FFT passes per
iteration (G*M and :func:`hankel_ops.g_apply_pair`'s two correlations,
which take the factors' spectra from G*M) against the symmetric solver's
two, plus two Hermitian grams (:func:`descent.gram`) and two n_i r^2
products; the 1/2 is applied to w.  Even n needs no zero-padding (n_1 =
n/2, n_2 = n/2 + 1).  The loop, step policies, projection radius and result
type are :mod:`hankel_scs.descent`'s; row norms and B, so the projection
and the balancing gap, are the same in W as in Z_V.  :class:`FactorPair`,
:func:`pgd_loss`, :func:`pgd_grads` and ``Z_final`` hold Z_V.
"""

from __future__ import annotations

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


def _evaluate_pair(Zs, y_obs, counts, p, counter=None) -> descent.State:
    Z_U, W = Zs
    g, F = hankel_ops.gstar_outer(Z_U, W, counter=counter, return_spectra=True)
    GU = descent.gram(Z_U, counter)
    GV = descent.gram(W, counter).conj()  # Z_V^H Z_V
    B = GU - GV
    # ||Z_U Z_V^H||_F^2 = trace(GU GV), real since both grams are Hermitian.
    m_norm2 = float(np.vdot(GV, GU).real)
    balance = LAMBDA_BALANCE * float(np.vdot(B, B).real)
    return descent.make_state(
        Zs, g, m_norm2, y_obs, counts, p, spectrum=F, aux=(GU, GV, B), extra_loss=balance
    )


def _gradients_pair(state: descent.State, p, counter=None):
    GU, GV, B = state.aux
    Z_U, W = state.Zs
    w = state.masked / p - state.g
    w *= 0.5  # the gradients' 1/2 G(w); halving is exact, so it commutes
    gw_U, gw_W = hankel_ops.g_apply_pair(w, Z_U, W, counter=counter, spectra=state.spectrum)
    grad_U = descent.right_mul(Z_U, 0.5 * GV + 0.25 * B, counter)
    grad_U += gw_U
    grad_W = descent.right_mul(W, np.conj(0.5 * GU - 0.25 * B), counter)
    grad_W += gw_W
    return grad_U, grad_W


def pgd_loss(pair: FactorPair, y_obs: np.ndarray, mask: SamplingMask, p: float) -> float:
    """Baseline loss at a factor pair (see module docstring)."""
    counts = hankel_ops.mask_counts(mask)
    return _evaluate_pair((pair.Z_U, np.conj(pair.Z_V)), y_obs, counts, p).loss


def pgd_grads(pair: FactorPair, y_obs: np.ndarray, mask: SamplingMask, p: float,
              counter: hankel_ops.OpCounter | None = None):
    """Gradients (grad_U, grad_V) of :func:`pgd_loss`."""
    counts = hankel_ops.mask_counts(mask)
    state = _evaluate_pair((pair.Z_U, np.conj(pair.Z_V)), y_obs, counts, p, counter=counter)
    grad_U, grad_W = _gradients_pair(state, p, counter=counter)
    return grad_U, np.conjugate(grad_W, out=grad_W)


def rect_spectral_init(
    observed_y: np.ndarray,
    mask: SamplingMask,
    r: int,
    seed=None,
    dtype=np.complex128,
):
    """Truncated SVD of the rescaled partial rectangular lift.

    Returns (Z_U0, Z_V0, sigma1) with Z_U0 = U Sigma^{1/2}, Z_V0 = V Sigma^{1/2}
    (exactly balanced), in complex128 whatever ``dtype``, the precision of
    the subspace rounds (see :func:`hankel_scs.lowrank.trunc_svd`).
    """
    u = hankel_ops.apply_D_inv(hankel_ops.p_omega(observed_y, mask)) / mask.p
    U, sig, V = lowrank.lift_svd(
        u, r, seed=seed, tol=lowrank.INIT_TOL,
        max_rounds=lowrank.INIT_MAX_ROUNDS, rank_tol=1e-14, dtype=dtype,
    )
    root = np.sqrt(sig)[None, :]
    return U * root, V * root, float(sig[0])


def pgd_recover(
    observed: np.ndarray,
    mask: SamplingMask,
    config: SolverConfig,
    x_true: np.ndarray | None = None,
) -> RecoveryResult:
    """Full baseline solve on the rectangular lift (no zero-padding needed).

    Same stopping rules, step policies, and result shape as the symmetric
    solver; history records additionally carry the balancing gap
    ||Z_U^H Z_U - Z_V^H Z_V||_F.  Each factor is clipped to its own radius;
    the result's ``mu`` is the larger of the two factors'.
    """
    observed, truth, scale = descent.check_inputs(observed, mask, config.r, x_true)
    n = observed.shape[0]
    n_1, n_2 = rect_dims(n)
    y_obs = hankel_ops.apply_D(observed)
    init_mask, iter_counts = descent.split_for_iterations(mask, config)

    dtype = descent.opening_dtype(config)
    Z_U0, Z_V0, sigma1 = rect_spectral_init(y_obs, init_mask, config.r, seed=config.seed,
                                            dtype=dtype)
    radius_U, mu_U = descent.projection_radius(Z_U0, 2 * n_1, sigma1, config)
    radius_V, mu_V = descent.projection_radius(Z_V0, 2 * n_2, sigma1, config)
    # The loop opens from these casts (descend's own are then no-ops), so the
    # init's complex128 factors die here.  W0 = conj(Z_V0) is formed in the
    # init's memory; the conjugate is exact, so it commutes with the cast.
    Zs0 = (np.asfortranarray(Z_U0, dtype=dtype),
           np.asfortranarray(np.conjugate(Z_V0, out=Z_V0), dtype=dtype))
    del Z_U0, Z_V0

    return descent.descend(
        evaluate=_evaluate_pair,
        gradient=_gradients_pair,
        project=lambda Zs: (project_C(Zs[0], radius_U), project_C(Zs[1], radius_V)),
        Zs0=Zs0,
        y_obs=y_obs,
        iter_counts=iter_counts,
        config=config,
        sigma1=sigma1,
        n_out=n,
        factor_of=lambda Zs: FactorPair(Zs[0], np.conj(Zs[1])),
        scale=scale,
        # The rectangular parametrization reaches each lift entry through one
        # factor instead of two symmetric copies, so the exact gradient of the
        # shared loss normalization is half the symmetric solver's scale.  The
        # canonical two-factor iteration absorbs that factor into the step, and
        # doubling here reproduces it: per-iteration progress then matches the
        # symmetric solver at the same configured eta'.
        step_scale=2.0,
        mu=max(mu_U, mu_V),
        truth=truth,
        # ||B||_F by np.linalg.norm's formula, in memory order, without its dispatch.
        gap_of=lambda st: descent._norm(st.aux[-1].ravel(order="K")),
    )
