"""Projected gradient descent shared by the symmetric and two-factor solvers.

Both solvers minimize the same data term plus Hankel penalty over a
factorization of the lifted signal -- one factor with M = Z Z^T in
:mod:`hankel_scs.shgd`, two with M = Z_U Z_V^H in :mod:`hankel_scs.pgd` --
by the same projected scheme Z <- P_C(Z - eta * grad f(Z)).  This module
holds what they share: the configuration and result types, the input checks
at the solver boundary, mask splitting, the loss terms, the step rule and
the iteration loop (:func:`descend`).  Each solver passes its factorization
in as callbacks: evaluation, gradient, projection and signal read-back.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import hankel_ops
from .signal_model import SamplingMask


@dataclass
class SolverConfig:
    """Knobs for the projected gradient solvers (shared by the baseline).

    ``step_policy`` is "backtracking" (Armijo halving from
    eta0_scale/sigma_1(M0)) or "fixed" (eta_prime/sigma_1(M0)).  ``mu`` left
    as None estimates the incoherence from the initialization factor.  With
    ``sample_splitting`` the mask is split into K+1 equal parts (remainder
    round-robin): part 0 initializes, parts 1..K are cycled per iteration.
    """

    r: int
    max_iters: int = 1000
    rel_change_tol: float = 1e-7
    step_policy: str = "backtracking"
    eta_prime: float = 0.75
    beta: float = 0.5
    c_armijo: float = 1e-4
    eta0_scale: float = 0.75
    max_halvings: int = 30
    projection: bool = True
    mu: float | None = None
    epsilon0: float = 0.1
    sample_splitting: bool = False
    K: int = 10
    seed: int | None = None

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("rank must be >= 1")
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if self.rel_change_tol < 0:
            raise ValueError("rel_change_tol must be >= 0")
        if self.step_policy not in ("fixed", "backtracking"):
            raise ValueError(f"unknown step_policy {self.step_policy!r}")
        if self.eta_prime <= 0:
            raise ValueError("eta_prime must be positive")
        if not 0 < self.beta < 1:
            raise ValueError("beta must lie in (0, 1)")
        if not 0 < self.c_armijo < 1:
            raise ValueError("c_armijo must lie in (0, 1)")
        if self.eta0_scale <= 0:
            raise ValueError("eta0_scale must be positive")
        if self.max_halvings < 0:
            raise ValueError("max_halvings must be >= 0")
        if self.mu is not None and self.mu <= 0:
            raise ValueError("mu must be positive")
        if not 0 <= self.epsilon0 < 1:
            raise ValueError("epsilon0 must lie in [0, 1)")
        if self.sample_splitting and self.K < 1:
            raise ValueError("sample splitting needs K >= 1")


@dataclass
class IterRecord:
    k: int
    loss: float
    rel_change: float
    step: float
    ms: float
    fft_passes: int = 0
    rel_err: float | None = None
    balancing_gap: float | None = None


@dataclass
class RecoveryResult:
    x_hat: np.ndarray
    Z_final: object
    iters: int
    history: list[IterRecord]
    termination: str  # tol_reached | max_iters | diverged
    sigma1_M0: float = 0.0
    mu: float = 0.0
    counter: hankel_ops.OpCounter = field(default_factory=hankel_ops.OpCounter)


@dataclass
class State:
    """One evaluated iterate.

    ``g`` is the lifted-signal estimate G*(M), ``masked`` the count-weighted
    residual of the data term, and ``aux`` the spectra and grams of the
    evaluation that the solver's gradient reuses.
    """

    Zs: tuple
    g: np.ndarray
    masked: np.ndarray
    loss: float
    aux: tuple


def fixed_step(sigma1_M0: float, eta_prime: float) -> float:
    """Step size eta = eta' / sigma_1(M0)."""
    if sigma1_M0 <= 0:
        raise ValueError("sigma1_M0 must be positive")
    return eta_prime / sigma1_M0


def project_C(Z: np.ndarray, radius: float) -> np.ndarray:
    """Clip factor rows to 2-norm ``radius`` (idempotent)."""
    norms = np.linalg.norm(Z, axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(norms > radius, radius / norms, 1.0)
    return Z * scale[:, None]


def max_row_energy(F: np.ndarray) -> float:
    """||F_normalized||_{2,inf}^2: largest squared row norm after unit-norm columns."""
    col_norms = np.linalg.norm(F, axis=0)
    col_norms[col_norms == 0] = 1.0
    U0 = F / col_norms[None, :]
    return float((np.abs(U0) ** 2).sum(axis=1).max())


def check_inputs(observed, mask: SamplingMask, x_true=None):
    """Validate a solver's inputs; returns (observed, truth) as complex arrays."""
    observed = np.asarray(observed, dtype=complex)
    if observed.shape[0] != mask.n:
        raise ValueError("observation length and mask ambient length differ")
    if not np.isfinite(observed).all():
        raise ValueError("observed samples must be finite")
    truth = None
    if x_true is not None:
        truth = np.asarray(x_true, dtype=complex)
        if truth.shape[0] != observed.shape[0]:
            raise ValueError("x_true length must match the observation length")
    return observed, truth


def split_for_iterations(mask: SamplingMask, config: SolverConfig):
    """(init mask, per-iteration (counts, p) pairs); splitting as in SolverConfig."""
    if not config.sample_splitting:
        return mask, [(hankel_ops.mask_counts(mask), mask.p)]
    perm = np.random.default_rng(config.seed).permutation(np.asarray(mask.indices))
    parts = [
        SamplingMask(mask.n, np.sort(perm[j :: config.K + 1]), mask.with_replacement)
        for j in range(config.K + 1)
    ]
    return parts[0], [(hankel_ops.mask_counts(m), m.p) for m in parts[1:]]


def make_state(Zs, g, m_norm2, y_obs, counts, p, aux, extra_loss=0.0) -> State:
    """State with the shared loss terms: data misfit and Hankel penalty.

    ``m_norm2`` is ||M||_F^2, so ||(I - GG*)M||_F^2 = m_norm2 - ||g||^2;
    ``extra_loss`` adds a solver's own term (the baseline's balancing).
    """
    resid = g - y_obs
    masked = counts * resid
    data = float(np.real(np.vdot(masked, resid))) / (4.0 * p)
    pen = max(0.25 * (m_norm2 - float(np.real(np.vdot(g, g)))), 0.0)
    return State(Zs, g, masked, max(data + pen + extra_loss, 0.0), aux)


def descend(
    *,
    evaluate,
    gradient,
    project,
    signal_of,
    Zs0,
    iter_counts,
    config: SolverConfig,
    sigma1: float,
    n_out: int,
    factor_of,
    step_scale: float = 1.0,
    mu: float = 0.0,
    truth=None,
    gap_of=None,
) -> RecoveryResult:
    """Projected-gradient loop shared by the one- and two-factor solvers.

    ``evaluate(Zs, counts, p, counter)`` returns a :class:`State`,
    ``gradient(state, p, counter)`` the per-factor gradients, ``project(Zs)``
    the factors on the constraint set (skipped with ``config.projection``
    off) and ``signal_of(state)`` the sample-domain iterate.  The first step
    is ``step_scale`` times the configured numerator over ``sigma1``.  The
    result keeps ``n_out`` samples and ``factor_of(Zs)`` as ``Z_final``;
    ``gap_of(state)`` fills each record's balancing gap.
    """
    if not config.projection:
        project = lambda Zs: Zs  # noqa: E731
    counter = hankel_ops.OpCounter()
    numerator = config.eta_prime if config.step_policy == "fixed" else config.eta0_scale
    eta0 = fixed_step(sigma1, step_scale * numerator)

    counts, p = iter_counts[0]
    state = evaluate(project(Zs0), counts, p, counter)
    loss_init = state.loss
    x_prev = signal_of(state)
    history: list[IterRecord] = []
    termination = "max_iters"

    for k in range(config.max_iters):
        t0 = time.perf_counter()
        passes0 = counter.fft_passes
        if len(iter_counts) > 1:
            counts, p = iter_counts[k % len(iter_counts)]
            state = evaluate(state.Zs, counts, p, counter)
        grads = gradient(state, p, counter)
        gnorm2 = sum(float(np.real(np.vdot(gz, gz))) for gz in grads)

        def _candidate(eta):
            Zs = tuple(Z - eta * gz for Z, gz in zip(state.Zs, grads))
            return evaluate(project(Zs), counts, p, counter)

        eta = eta0
        if config.step_policy == "fixed":
            new_state = _candidate(eta)
        else:
            for _ in range(config.max_halvings + 1):
                new_state = _candidate(eta)
                if new_state.loss <= state.loss - config.c_armijo * eta * gnorm2:
                    break
                eta *= config.beta
            if new_state.loss > state.loss:
                termination = "diverged"  # no decrease at the smallest step
                history.append(IterRecord(
                    k=k, loss=new_state.loss, rel_change=float("inf"),
                    step=eta, ms=(time.perf_counter() - t0) * 1e3,
                    fft_passes=counter.fft_passes - passes0,
                ))
                break

        x_new = signal_of(new_state)
        denom = float(np.linalg.norm(x_prev))
        delta = float(np.linalg.norm(x_new - x_prev))
        rel_change = delta / denom if denom > 0 else (0.0 if delta == 0 else float("inf"))
        rec = IterRecord(
            k=k,
            loss=new_state.loss,
            rel_change=rel_change,
            step=eta,
            ms=(time.perf_counter() - t0) * 1e3,
            fft_passes=counter.fft_passes - passes0,
        )
        if truth is not None:
            # Compare on the truth's own support: iterates may carry a padded
            # tail sample that the caller's reference signal does not cover.
            rec.rel_err = float(
                np.linalg.norm(x_new[: truth.shape[0]] - truth) / np.linalg.norm(truth)
            )
        if gap_of is not None:
            rec.balancing_gap = gap_of(new_state)
        history.append(rec)

        if not np.isfinite(new_state.loss):
            termination = "diverged"  # keep the last finite iterate
            break
        state, x_prev = new_state, x_new
        if rel_change <= config.rel_change_tol:
            termination = "tol_reached"
            break
        if new_state.loss > 1e6 * loss_init + 1e-300:
            termination = "diverged"
            break

    return RecoveryResult(
        x_hat=x_prev[:n_out],
        Z_final=factor_of(state.Zs),
        iters=len(history),
        history=history,
        termination=termination,
        sigma1_M0=sigma1,
        mu=mu,
        counter=counter,
    )


def result_to_dict(result: RecoveryResult) -> dict:
    """JSON-ready view of a recovery result (non-finite floats become null)."""

    def _num(v):
        return float(v) if v is not None and math.isfinite(v) else None

    hist = []
    for rec in result.history:
        row = {
            "k": rec.k,
            "loss": _num(rec.loss),
            "rel_change": _num(rec.rel_change),
            "step": _num(rec.step),
            "ms": _num(rec.ms),
        }
        if rec.rel_err is not None:
            row["rel_err"] = _num(rec.rel_err)
        if rec.balancing_gap is not None:
            row["balancing_gap"] = _num(rec.balancing_gap)
        hist.append(row)
    return {
        "x_hat": [[float(v.real), float(v.imag)] for v in result.x_hat],
        "iters": result.iters,
        "termination": result.termination,
        "history": hist,
    }


def save_result(path, result: RecoveryResult) -> None:
    with open(path, "w") as f:
        json.dump(result_to_dict(result), f)
