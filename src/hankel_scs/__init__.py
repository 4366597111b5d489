"""Spectrally sparse signal recovery via symmetric Hankel matrix completion.

The package recovers a length-n signal that is a short sum of damped complex
exponentials from a subset of its samples.  The observed samples are lifted
to a rank-r symmetric Hankel matrix, which is completed by projected
gradient descent on a single complex factor ``Z`` with ``M = Z Z^T``
(:func:`hankel_scs.shgd.recover`).  A two-factor rectangular-lift baseline
(:func:`hankel_scs.pgd.pgd_recover`) shares the same structured FFT
operators and descent loop (:mod:`hankel_scs.descent`).
:mod:`hankel_scs.bench` holds the reproducible experiment harness behind the
``hankel-scs`` command-line tool.
"""

from . import bench, descent, freq_est, hankel_ops, lowrank, metrics, pgd, shgd, signal_model
from .descent import IterRecord, RecoveryResult, SolverConfig, save_result
from .freq_est import ModeEstimate, esprit
from .hankel_ops import (
    HankelDims,
    OpCounter,
    apply_D,
    apply_D_inv,
    g_apply,
    gstar_gram,
    gstar_outer,
    hankel_corr,
    lift_dense,
    p_omega,
    rect_dims,
    skew_diag_weights,
)
from .lowrank import (
    ConvergenceError,
    RankDeficiencyError,
    spectral_init,
    takagi_truncated,
    trunc_svd,
)
from .metrics import (
    Alignment,
    Lemma4Report,
    dist_P_upper,
    first_order_gap,
    incoherence,
    lemma4_check,
    random_complex_orthogonal,
    rel_error,
)
from .pgd import FactorPair, pgd_recover
from .shgd import recover
from .signal_model import (
    SamplingMask,
    SeparationError,
    SpectralModel,
    load_smodel,
    load_ssig,
    observe,
    random_model,
    save_smodel,
    save_ssig,
    synthesize,
    uniform_mask,
    vandermonde,
)

__version__ = "0.1.0"

__all__ = [
    "Alignment",
    "ConvergenceError",
    "FactorPair",
    "HankelDims",
    "IterRecord",
    "Lemma4Report",
    "ModeEstimate",
    "OpCounter",
    "RankDeficiencyError",
    "RecoveryResult",
    "SamplingMask",
    "SeparationError",
    "SolverConfig",
    "SpectralModel",
    "apply_D",
    "apply_D_inv",
    "bench",
    "descent",
    "dist_P_upper",
    "esprit",
    "first_order_gap",
    "freq_est",
    "g_apply",
    "gstar_gram",
    "gstar_outer",
    "hankel_corr",
    "hankel_ops",
    "incoherence",
    "lemma4_check",
    "lift_dense",
    "load_smodel",
    "load_ssig",
    "lowrank",
    "metrics",
    "observe",
    "p_omega",
    "pgd",
    "pgd_recover",
    "random_complex_orthogonal",
    "random_model",
    "recover",
    "rect_dims",
    "rel_error",
    "save_result",
    "save_smodel",
    "save_ssig",
    "shgd",
    "signal_model",
    "skew_diag_weights",
    "spectral_init",
    "synthesize",
    "takagi_truncated",
    "trunc_svd",
    "uniform_mask",
    "vandermonde",
]
