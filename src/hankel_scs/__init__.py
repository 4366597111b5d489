"""Spectrally sparse signal recovery via symmetric Hankel matrix completion.

The package recovers a length-n signal that is a short sum of damped complex
exponentials from a subset of its samples.  The observed samples are lifted
to a rank-r symmetric Hankel matrix, which is completed by projected
gradient descent on a single complex factor ``Z`` with ``M = Z Z^T``
(:func:`hankel_scs.shgd.recover`).  A two-factor rectangular-lift baseline
(:func:`hankel_scs.pgd.pgd_recover`) shares the same structured FFT
operators and descent loop (:mod:`hankel_scs.descent`).
:mod:`hankel_scs.bench` holds the reproducible experiment harness behind the
``hankel-scs`` command-line tool.  Beyond the modules, the namespace holds
only the six names of a solve; any other name is reached through its module.
"""

from . import bench, descent, freq_est, hankel_ops, lowrank, metrics, pgd, shgd, signal_model
from .descent import RecoveryResult, SolverConfig
from .lowrank import ConvergenceError, RankDeficiencyError
from .pgd import pgd_recover
from .shgd import recover

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "RankDeficiencyError",
    "RecoveryResult",
    "SolverConfig",
    "bench",
    "descent",
    "freq_est",
    "hankel_ops",
    "lowrank",
    "metrics",
    "pgd",
    "pgd_recover",
    "recover",
    "shgd",
    "signal_model",
]
