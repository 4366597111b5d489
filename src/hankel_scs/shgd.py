"""Projected gradient descent on a single symmetric Hankel factor.

The solver searches for a rank-r factor Z (n_s x r) whose symmetric product
Z Z^T matches the lifted observations:

    f(Z) = (1/4p) ||P_Omega(G*(Z Z^T) - y)||^2 + (1/4) ||(I - GG*)(Z Z^T)||_F^2

with y the weighted-domain data D x.  The gradient is evaluated in the
rearranged matrix-free form

    grad f(Z) = G(w) conj(Z) + Z (Z^T conj(Z)),
    w = p^{-1} P_Omega(G*(Z Z^T) - y) - G*(Z Z^T),

costing two r-column FFT passes plus one n_s r^2 product per call.  The
Hankel penalty is evaluated without forming any n_s x n_s matrix through the
orthogonal-projector identity ||(I-GG*)(ZZ^T)||_F^2 = ||Z Z^T||_F^2 -
||G*(ZZ^T)||_2^2, with ||Z Z^T||_F^2 = trace(A conj(A)) = sum_ij A_ij^2 for
the Hermitian gram A = Z^H Z (real because A is Hermitian).

Iterations follow the projected scheme Z <- P_C(Z - eta * grad f(Z)) from a
spectral (truncated Takagi) initialization, where P_C clips factor rows to
the incoherence radius 2 sqrt(mu r sigma / n).  The iteration loop, the
configuration and the result types live in :mod:`hankel_scs.descent`,
shared with the two-factor baseline in :mod:`hankel_scs.pgd`; they are
re-exported here.
"""

from __future__ import annotations

import math

import numpy as np

from . import descent, hankel_ops, lowrank
from .descent import (  # noqa: F401  (re-exported solver API)
    IterRecord,
    RecoveryResult,
    SolverConfig,
    fixed_step,
    project_C,
    result_to_dict,
    save_result,
)
from .signal_model import SamplingMask


def estimate_mu(Z0: np.ndarray, n: int, r: int) -> float:
    """Incoherence proxy n ||U0||_{2,inf}^2 / (2r) from an unnormalized factor."""
    mu = n * descent.max_row_energy(Z0) / (2 * r)
    return max(mu, 1.0)


def _pad_odd(observed: np.ndarray, mask: SamplingMask):
    """Append one zero sample when the length is even; mask indices unchanged."""
    n = observed.shape[0]
    if n % 2 == 1:
        return observed, mask
    padded = np.concatenate([observed, [0.0 + 0.0j]])
    return padded, SamplingMask(n + 1, mask.indices, mask.with_replacement)


def _evaluate(Z, y_obs, counts, p, counter=None) -> descent.State:
    """Loss pieces at Z sharing one r-pass convolution."""
    g, FZ = hankel_ops.gstar_gram(Z, counter=counter, return_spectrum=True)
    A = Z.conj().T @ Z
    if counter is not None:
        counter.add_flops(Z.shape[0] * Z.shape[1] ** 2)
    m_norm2 = float(np.real((A * A).sum()))  # ||Z Z^T||_F^2 via the gram
    return descent.make_state((Z,), g, m_norm2, y_obs, counts, p, aux=(FZ, A))


def _gradient(state: descent.State, p, counter=None):
    FZ, A = state.aux
    (Z,) = state.Zs
    w = state.masked / p - state.g
    gw = hankel_ops.g_apply_times_conj(w, Z, counter=counter, z_spectrum=FZ)
    if counter is not None:
        counter.add_flops(Z.shape[0] * Z.shape[1] ** 2)
    return (gw + Z @ np.conj(A),)


def loss(Z: np.ndarray, y_obs: np.ndarray, mask: SamplingMask, p: float) -> float:
    """f(Z) of the sampled weighted-domain observations (see module docstring)."""
    counts = hankel_ops.mask_counts(mask)
    return _evaluate(Z, y_obs, counts, p).loss


def grad(Z: np.ndarray, y_obs: np.ndarray, mask: SamplingMask, p: float,
         counter: hankel_ops.OpCounter | None = None) -> np.ndarray:
    """Gradient of :func:`loss` in the rearranged matrix-free form."""
    counts = hankel_ops.mask_counts(mask)
    state = _evaluate(Z, y_obs, counts, p, counter=counter)
    return _gradient(state, p, counter=counter)[0]


def recover(
    observed: np.ndarray,
    mask: SamplingMask,
    config: SolverConfig,
    x_true: np.ndarray | None = None,
) -> RecoveryResult:
    """Run the full solve: pad to odd length, initialize, iterate, unpad.

    ``observed`` is the zero-filled sample-domain observation on the original
    (possibly even) length; the returned ``x_hat`` has that same length.
    ``x_true`` is optional instrumentation: when given, per-iteration relative
    errors are recorded in the history (it never influences the iterates).
    """
    observed, truth = descent.check_inputs(observed, mask, x_true)
    n_orig = observed.shape[0]
    observed, mask = _pad_odd(observed, mask)
    n = observed.shape[0]
    y_obs = hankel_ops.apply_D(observed)
    init_mask, iter_counts = descent.split_for_iterations(mask, config)

    Z0, sigma1 = lowrank.spectral_init(y_obs, init_mask, config.r, seed=config.seed)
    sigma = sigma1 / (1.0 - config.epsilon0)
    mu = config.mu if config.mu is not None else estimate_mu(Z0, n, config.r)
    radius = 2.0 * math.sqrt(mu * config.r * sigma / n)

    return descent.descend(
        evaluate=lambda Zs, counts, p, ctr: _evaluate(Zs[0], y_obs, counts, p, ctr),
        gradient=_gradient,
        project=lambda Zs: (project_C(Zs[0], radius),),
        signal_of=lambda st: hankel_ops.apply_D_inv(st.g),
        Zs0=(Z0,),
        iter_counts=iter_counts,
        config=config,
        sigma1=sigma1,
        n_out=n_orig,
        factor_of=lambda Zs: Zs[0],
        mu=mu,
        truth=truth,
    )
