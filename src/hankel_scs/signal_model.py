"""Spectrally sparse signals, random ground-truth models, masks, observations.

A signal is a superposition of r complex sinusoids

    x[t] = sum_k d_k * exp((i 2 pi f_k - tau_k) t),   t = 0..n-1,

with normalized frequencies f_k in [0, 1), nonnegative per-sample damping
factors tau_k, and nonzero complex amplitudes d_k.  Signals are plain complex
ndarrays throughout.

File formats
------------
SSIG-JSON   {"n": int, "observed": [int, ...], "samples": [[re, im], ...]}
            samples has length n and is zero-filled off-mask.
SMODEL-JSON {"n", "r", "freqs", "dampings", "amps_re", "amps_im"}
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np


class SeparationError(ValueError):
    """Raised when separated frequencies cannot be drawn in the retry budget."""


_MAX_SEP_ATTEMPTS = 10_000


@dataclass
class SpectralModel:
    """Ground-truth parameters of a spectrally sparse signal.

    Parameters
    ----------
    n : int
        Signal length in samples.
    freqs : array of float
        r normalized frequencies in [0, 1), pairwise distinct.
    dampings : array of float
        r nonnegative per-sample decay rates tau_k.
    amps : array of complex
        r nonzero complex amplitudes d_k.
    """

    n: int
    freqs: np.ndarray
    dampings: np.ndarray
    amps: np.ndarray

    def __post_init__(self):
        self.freqs = np.atleast_1d(np.asarray(self.freqs, dtype=float))
        self.dampings = np.atleast_1d(np.asarray(self.dampings, dtype=float))
        self.amps = np.atleast_1d(np.asarray(self.amps, dtype=complex))
        r = self.freqs.shape[0]
        if self.dampings.shape[0] != r or self.amps.shape[0] != r:
            raise ValueError("freqs, dampings, amps must share length r")
        if r < 1:
            raise ValueError("need at least one mode")
        if np.any(self.freqs < 0) or np.any(self.freqs >= 1):
            raise ValueError("frequencies must lie in [0, 1)")
        if np.any(self.dampings < 0):
            raise ValueError("dampings must be nonnegative")
        if np.any(self.amps == 0):
            raise ValueError("amplitudes must be nonzero")
        if len(np.unique(self.freqs)) != r:
            raise ValueError("frequencies must be pairwise distinct")
        if r > (self.n + 1) // 2:
            raise ValueError(
                f"r={r} exceeds floor((n+1)/2)={(self.n + 1) // 2}; "
                "the lifted Hankel matrix cannot have that rank"
            )

    @property
    def r(self) -> int:
        return self.freqs.shape[0]

    @property
    def poles(self) -> np.ndarray:
        """w_k = exp(i 2 pi f_k - tau_k)."""
        return np.exp(2j * np.pi * self.freqs - self.dampings)


@dataclass
class SamplingMask:
    """Sampling index set Omega with cardinality m and ratio p = m/n."""

    n: int
    indices: np.ndarray
    with_replacement: bool = False

    def __post_init__(self):
        self.indices = np.atleast_1d(np.asarray(self.indices, dtype=int))
        if self.indices.shape[0] < 1:
            raise ValueError("mask needs at least one index")
        if np.any(self.indices < 0) or np.any(self.indices >= self.n):
            raise ValueError("mask indices must lie in [0, n)")
        if not self.with_replacement:
            if len(np.unique(self.indices)) != self.indices.shape[0]:
                raise ValueError("without-replacement mask has repeated indices")

    @property
    def m(self) -> int:
        return self.indices.shape[0]

    @property
    def p(self) -> float:
        return self.m / self.n


def synthesize(model: SpectralModel) -> np.ndarray:
    """Evaluate x[t] = sum_k d_k exp((i 2 pi f_k - tau_k) t) for t = 0..n-1."""
    t = np.arange(model.n)
    powers = np.exp(np.outer(t, 2j * np.pi * model.freqs - model.dampings))
    return powers @ model.amps


def vandermonde(model: SpectralModel, n_s: int) -> np.ndarray:
    """Vandermonde matrix E with E[t, k] = w_k^t, columns [1, w_k, ..., w_k^{n_s-1}]."""
    if n_s < 1:
        raise ValueError("n_s must be positive")
    t = np.arange(n_s)
    return np.exp(np.outer(t, 2j * np.pi * model.freqs - model.dampings))


def _wraparound_sep(freqs: np.ndarray) -> float:
    if freqs.shape[0] < 2:
        return np.inf
    d = np.abs(freqs[:, None] - freqs[None, :])
    d = np.minimum(d, 1.0 - d)
    return d[np.triu_indices_from(d, k=1)].min()


def random_model(
    n: int,
    r: int,
    rng=None,
    min_sep: float | None = None,
    damped: bool = False,
    damping_range: tuple[float, float] = (0.0, 0.05),
) -> SpectralModel:
    """Draw a random ground-truth model.

    Frequencies are uniform on [0, 1); with ``min_sep`` set, draws are
    rejected until the pairwise wrap-around distance min(|df|, 1-|df|) is at
    least ``min_sep`` (bounded retries).  Amplitudes follow
    d_k = (1 + 10^{0.5 c_k}) e^{-i phi_k} with c_k ~ U[0,1), phi_k ~ U[0,2pi).
    Dampings are zero unless ``damped``, then uniform on ``damping_range``.
    """
    if n < 2 * r - 1:
        raise ValueError(f"need n >= 2r-1, got n={n}, r={r}")
    if min_sep is not None and r * min_sep >= 1:
        raise SeparationError(
            f"r*min_sep = {r * min_sep:.3g} >= 1: {r} frequencies with "
            f"wrap-around separation {min_sep:.3g} cannot fit in [0, 1)"
        )
    rng = np.random.default_rng(rng)
    for _ in range(_MAX_SEP_ATTEMPTS):
        freqs = rng.uniform(0.0, 1.0, size=r)
        if min_sep is None or _wraparound_sep(freqs) >= min_sep:
            break
    else:
        raise SeparationError(
            f"no draw with wrap-around separation >= {min_sep:.3g} for r={r} "
            f"in {_MAX_SEP_ATTEMPTS} attempts"
        )
    c = rng.uniform(0.0, 1.0, size=r)
    phi = rng.uniform(0.0, 2 * np.pi, size=r)
    amps = (1.0 + 10.0 ** (0.5 * c)) * np.exp(-1j * phi)
    if damped:
        lo, hi = damping_range
        dampings = rng.uniform(lo, hi, size=r)
    else:
        dampings = np.zeros(r)
    return SpectralModel(n=n, freqs=freqs, dampings=dampings, amps=amps)


def uniform_mask(n: int, m: int, with_replacement: bool = False, rng=None) -> SamplingMask:
    """Draw m observation indices uniformly from [0, n), sorted."""
    rng = np.random.default_rng(rng)
    if with_replacement:
        if m < 1:
            raise ValueError("need m >= 1")
        idx = rng.integers(0, n, size=m)
    else:
        if not 1 <= m <= n:
            raise ValueError(f"need 1 <= m <= n without replacement, got m={m}, n={n}")
        idx = rng.choice(n, size=m, replace=False)
    return SamplingMask(n=n, indices=np.sort(idx), with_replacement=with_replacement)


def observe(signal: np.ndarray, mask: SamplingMask, sigma_e: float = 0.0, rng=None) -> np.ndarray:
    """Observed vector P_Omega(x + e), zero-filled off-mask.

    The noise is e = sigma_e * ||P_Omega(x)||_2 * w / ||w||_2 with w i.i.d.
    standard complex Gaussian (real and imaginary parts each N(0, 1/2))
    supported on the mask, so ||observed - P_Omega(x)||_2 = sigma_e *
    ||P_Omega(x)||_2 holds exactly.
    """
    signal = np.asarray(signal)
    if signal.shape[0] != mask.n:
        raise ValueError("signal length and mask ambient length differ")
    if sigma_e < 0:
        raise ValueError("sigma_e must be nonnegative")
    idx = np.unique(mask.indices)
    out = np.zeros(mask.n, dtype=complex)
    out[idx] = signal[idx]
    if sigma_e > 0:
        rng = np.random.default_rng(rng)
        w = (rng.standard_normal(idx.shape[0]) + 1j * rng.standard_normal(idx.shape[0])) / np.sqrt(2)
        norm_w = np.linalg.norm(w)
        if norm_w > 0:
            out[idx] += sigma_e * np.linalg.norm(signal[idx]) * w / norm_w
    return out


# ---------------------------------------------------------------------------
# File formats


def save_ssig(path, signal: np.ndarray, mask: SamplingMask) -> None:
    """Write an observed signal and its mask as SSIG-JSON."""
    signal = np.asarray(signal, dtype=complex)
    doc = {
        "n": int(mask.n),
        "observed": [int(i) for i in mask.indices],
        "samples": [[float(v.real), float(v.imag)] for v in signal],
    }
    with open(path, "w") as f:
        json.dump(doc, f)


def load_ssig(path) -> tuple[np.ndarray, SamplingMask]:
    """Read SSIG-JSON, returning (zero-filled signal, mask)."""
    with open(path) as f:
        doc = json.load(f)
    n = int(doc["n"])
    samples = np.asarray(doc["samples"], dtype=float)
    if samples.shape != (n, 2):
        raise ValueError(f"samples must be n x 2 reals, got shape {samples.shape}")
    if not np.isfinite(samples).all():
        raise ValueError("samples must be finite")
    signal = samples[:, 0] + 1j * samples[:, 1]
    indices = np.asarray(doc["observed"], dtype=int)
    with_replacement = len(np.unique(indices)) != indices.shape[0]
    mask = SamplingMask(n=n, indices=indices, with_replacement=with_replacement)
    return signal, mask


def save_smodel(path, model: SpectralModel) -> None:
    """Write a ground-truth model as SMODEL-JSON."""
    doc = {
        "n": int(model.n),
        "r": int(model.r),
        "freqs": [float(v) for v in model.freqs],
        "dampings": [float(v) for v in model.dampings],
        "amps_re": [float(v.real) for v in model.amps],
        "amps_im": [float(v.imag) for v in model.amps],
    }
    with open(path, "w") as f:
        json.dump(doc, f)


def load_smodel(path) -> SpectralModel:
    """Read SMODEL-JSON back into a SpectralModel."""
    with open(path) as f:
        doc = json.load(f)
    amps = np.asarray(doc["amps_re"], dtype=float) + 1j * np.asarray(doc["amps_im"], dtype=float)
    model = SpectralModel(
        n=int(doc["n"]),
        freqs=np.asarray(doc["freqs"], dtype=float),
        dampings=np.asarray(doc["dampings"], dtype=float),
        amps=amps,
    )
    if model.r != int(doc["r"]):
        raise ValueError("stored r disagrees with parameter arrays")
    return model
