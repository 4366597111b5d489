"""Projected gradient descent on a single symmetric Hankel factor.

The solver searches for a rank-r factor Z (n_s x r) whose symmetric product
Z Z^T matches the lifted observations:

    f(Z) = (1/4p) ||P_Omega(G*(Z Z^T) - y)||^2 + (1/4) ||(I - GG*)(Z Z^T)||_F^2

with y the weighted-domain data D x.  The gradient is evaluated in the
rearranged matrix-free form

    grad f(Z) = G(w) conj(Z) + Z (Z^T conj(Z)),
    w = p^{-1} P_Omega(G*(Z Z^T) - y) - G*(Z Z^T),

costing two r-column FFT passes, the gram A = Z^H Z and one n_s r^2 product
per call.  The gram is Hermitian, so from n_s r^2 = :data:`descent.HERK_FROM`
on it takes BLAS herk's one triangle, half the flops of a general product
(:func:`descent.gram`).  The Hankel penalty is evaluated without forming any
n_s x n_s matrix through the orthogonal-projector identity
||(I-GG*)(ZZ^T)||_F^2 = ||Z Z^T||_F^2 - ||G*(ZZ^T)||_2^2, with
||Z Z^T||_F^2 = trace(A conj(A)) = sum_ij A_ij^2 for the Hermitian gram
A = Z^H Z (real because A is Hermitian).

Iterations follow the projected scheme Z <- P_C(Z - eta * grad f(Z)) from a
spectral (truncated Takagi) initialization, where P_C clips factor rows to
the incoherence radius 2 sqrt(mu r sigma / n).  That radius, the iteration
loop, the configuration and the result types live in
:mod:`hankel_scs.descent`, shared with the two-factor baseline in
:mod:`hankel_scs.pgd`.  ``project_C`` is bound here as a module attribute,
so a wrapper rebound onto ``shgd.project_C`` sees each projection.
"""

from __future__ import annotations

import numpy as np

from . import descent, hankel_ops, lowrank
from .descent import RecoveryResult, SolverConfig, project_C
from .signal_model import SamplingMask


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
    A = descent.gram(Z, counter)
    m_norm2 = float((A * A).sum().real)  # ||Z Z^T||_F^2 via the gram
    return descent.make_state((Z,), g, m_norm2, y_obs, counts, p, spectrum=FZ, aux=(A,))


def _gradient(state: descent.State, p, counter=None):
    (A,) = state.aux
    (Z,) = state.Zs
    w = state.masked / p - state.g
    gw = hankel_ops.g_apply_times_conj(w, Z, counter=counter, z_spectrum=state.spectrum)
    grad_Z = descent.right_mul(Z, np.conj(A), counter)
    grad_Z += gw
    return (grad_Z,)


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
    observed, truth, scale = descent.check_inputs(observed, mask, config.r, x_true)
    n_orig = observed.shape[0]
    observed, mask = _pad_odd(observed, mask)
    n = observed.shape[0]
    y_obs = hankel_ops.apply_D(observed)
    init_mask, iter_counts = descent.split_for_iterations(mask, config)

    dtype = descent.opening_dtype(config)
    Z0, sigma1 = lowrank.spectral_init(y_obs, init_mask, config.r, seed=config.seed,
                                       dtype=dtype)
    radius, mu = descent.projection_radius(Z0, n, sigma1, config)
    # The loop opens from this cast (descend's own is then a no-op), so the
    # init's complex128 factor dies here.
    Z0 = np.asfortranarray(Z0, dtype=dtype)

    return descent.descend(
        evaluate=lambda Zs, *args: _evaluate(Zs[0], *args),
        gradient=_gradient,
        project=lambda Zs: (project_C(Zs[0], radius),),
        Zs0=(Z0,),
        y_obs=y_obs,
        iter_counts=iter_counts,
        config=config,
        sigma1=sigma1,
        n_out=n_orig,
        factor_of=lambda Zs: Zs[0],
        scale=scale,
        mu=mu,
        truth=truth,
    )
