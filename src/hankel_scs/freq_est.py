"""Post-recovery mode extraction: frequencies, dampings, amplitudes.

Rotational-invariance estimation (ESPRIT) on the rank-r signal subspace of
the rectangular Hankel lift of the completed signal: the left singular basis
U satisfies U_down Psi = U_up with Psi similar to diag of the pole values
w_k = exp(i 2 pi f_k - tau_k), so the eigenvalues of the shift operator give
the modes and a Vandermonde least-squares solve gives the amplitudes.
Deterministic and grid-free; modes come back sorted by frequency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hankel_ops, lowrank


@dataclass
class ModeEstimate:
    freqs: np.ndarray     # in [0, 1)
    dampings: np.ndarray  # decay rates, >= 0 up to rounding
    amps: np.ndarray      # complex amplitudes


def esprit(x: np.ndarray, r: int) -> ModeEstimate:
    """Estimate r exponential modes from a (completed) uniform signal."""
    x = np.asarray(x, dtype=complex)
    n = x.shape[0]
    if r < 1:
        raise ValueError("rank must be >= 1")
    if n < 2 * r + 1:
        raise ValueError(f"need at least 2r+1 = {2 * r + 1} samples, got {n}")
    n_1, _ = hankel_ops.rect_dims(n)
    U, _, _ = lowrank.lift_svd(
        x, n_1, r, seed=0, tol=1e-10, max_rounds=60, rank_tol=1e-12
    )

    shift = np.linalg.pinv(U[:-1]) @ U[1:]
    poles = np.linalg.eigvals(shift)
    freqs = np.mod(np.angle(poles) / (2 * np.pi), 1.0)
    dampings = -np.log(np.abs(poles))

    order = np.argsort(freqs)
    poles = poles[order]
    vand = poles[None, :] ** np.arange(n)[:, None]
    amps = np.linalg.lstsq(vand, x, rcond=None)[0]
    return ModeEstimate(freqs=freqs[order], dampings=dampings[order], amps=amps)
