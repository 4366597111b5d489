"""Post-recovery mode extraction: frequencies, dampings, amplitudes.

Rotational-invariance estimation (ESPRIT) on the rank-r signal subspace of
the rectangular Hankel lift of the completed signal: the left singular basis
U satisfies U_down Psi = U_up with Psi similar to diag of the pole values
w_k = exp(i 2 pi f_k - tau_k), so the eigenvalues of the shift operator give
the modes and a Vandermonde least-squares solve gives the amplitudes.
Deterministic and grid-free; modes come back sorted by frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lowrank


@dataclass
class ModeEstimate:
    freqs: np.ndarray     # in [0, 1)
    dampings: np.ndarray  # decay rates, >= 0 up to rounding
    amps: np.ndarray      # complex amplitudes


def esprit(x: np.ndarray, r: int) -> ModeEstimate:
    """Estimate r exponential modes from a (completed) uniform signal.

    Raises ``ValueError`` for a rank below 1, fewer than 2r + 1 samples or a
    non-finite sample.  A zero pole, a mode present only in the first sample,
    comes back with damping inf.
    """
    x = np.asarray(x, dtype=complex)
    n = x.shape[0]
    if r < 1:
        raise ValueError("rank must be >= 1")
    if n < 2 * r + 1:
        raise ValueError(f"need at least 2r+1 = {2 * r + 1} samples, got {n}")
    if not np.isfinite(x).all():
        raise ValueError("signal samples must be finite")
    U, _, _ = lowrank.lift_svd(x, r, seed=0, tol=1e-10, max_rounds=60, rank_tol=1e-12)

    poles = np.linalg.eigvals(_shift_operator(U))
    freqs = np.mod(np.angle(poles) / (2 * np.pi), 1.0)
    # mod rounds the small negative angle of a DC mode, down to about
    # -1e-15, up to 1.0 or to one ulp below it; both fold to 0.
    freqs[freqs >= np.nextafter(1.0, 0.0)] = 0.0
    with np.errstate(divide="ignore"):
        dampings = -np.log(np.abs(poles))

    order = np.argsort(freqs)
    poles = poles[order]
    amps = np.linalg.lstsq(_vandermonde(poles, n), x, rcond=None)[0]
    return ModeEstimate(freqs=freqs[order], dampings=dampings[order], amps=amps)


def _shift_operator(U: np.ndarray) -> np.ndarray:
    """Least-squares shift Psi = pinv(U_down) U_up of an orthonormal U.

    With u the last row of U, U^H U = I gives U_down^H U_down = I - u^H u, a
    rank-one update of the identity, so by Sherman-Morrison

        Psi = (I + u^H u / (1 - ||u||^2)) U_down^H U_up,

    one r x r product in place of an SVD of U_down.  When ||u|| = 1 to
    rounding (an impulse in the last sample gives U = e_last), U_down
    annihilates u^H and the minimum-norm solution is U_down^H U_up itself.
    """
    u = U[-1]
    G = U[:-1].conj().T @ U[1:]
    gap = 1.0 - np.vdot(u, u).real
    if gap <= np.finfo(float).eps:
        return G
    return G + np.outer(u.conj(), u @ G) / gap


def _vandermonde(poles: np.ndarray, n: int) -> np.ndarray:
    """V[k, j] = w_j^k for k < n, from two power tables.

    With b = ceil(sqrt(n)), w^(bq + s) = (w^b)^q w^s: the tables
    exp(s log w) for s < b and exp(bq log w) for bq < n take about 2 sqrt(n) r
    complex exponentials, and their outer product n r multiplications, in
    place of n r exponentials.  An entry differs from the direct
    exp(k log w) by the rounding of the split exponent and of one complex
    product, a few ulps plus ulp(k log w), so below 1e-12 relative up to
    k |log w| of a few thousand.  A zero pole takes log(tiny) in place of
    -inf, so its column is e_0 up to a 2e-308 second entry and no 0 * inf
    arises.
    """
    b = math.isqrt(n - 1) + 1
    log_w = np.log(np.where(poles == 0, np.finfo(float).tiny, poles))
    low = np.exp(np.arange(b)[:, None] * log_w)
    high = np.exp(np.arange(0, n, b)[:, None] * log_w)
    return (high[:, None, :] * low[None, :, :]).reshape(-1, poles.shape[0])[:n]
