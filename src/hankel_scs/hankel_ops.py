"""Structured Hankel operators with FFT-fast convolution kernels.

A length-n vector x (n odd, n = 2*n_s - 1) lifts to the n_s x n_s complex
symmetric Hankel matrix (Hx)[i, j] = x[i + j].  The adjoint H* sums
skew-diagonals, D is the diagonal map [Dx]_a = sqrt(w_a) x_a built from the
skew-diagonal lengths w_a, and G = H D^{-1} is the normalized lift with
G*G = I.  Everything here is matrix-free except the explicitly dense test
oracles; the two products that dominate solver iterations --
D^{-1}H*(A B^T) and H(D^{-1}v) C -- are computed by per-column FFT
convolutions of length next-pow2 >= n.

Rectangular lifts (n_rows + n_cols - 1 = n) are supported throughout so the
asymmetric-factorization baseline can share the kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.fft

_DENSE_LIMIT = 2048  # dense test oracles refuse lift dimensions beyond this


@dataclass(frozen=True)
class HankelDims:
    """Dimensions of the square lift of an odd-length signal."""

    n: int
    n_s: int = field(init=False)

    def __post_init__(self):
        if self.n < 1 or self.n % 2 == 0:
            raise ValueError(
                f"square Hankel lift needs odd length, got n={self.n}; "
                "zero-pad even-length signals by appending one sample"
            )
        object.__setattr__(self, "n_s", (self.n + 1) // 2)


@dataclass
class OpCounter:
    """Instruments solver kernels: FFT convolution passes (one pass = one
    factor column) and gram-type flops in units of rows x r^2 products."""

    fft_passes: int = 0
    gram_flops: int = 0

    def add(self, k: int) -> None:
        self.fft_passes += k

    def add_flops(self, k: int) -> None:
        self.gram_flops += k


def _fft_len(n: int) -> int:
    return 1 << (n - 1).bit_length() if n > 1 else 1


@lru_cache(maxsize=64)
def _weights(n_rows: int, n_cols: int):
    """Skew-diagonal lengths and their (inverse) square roots, cached."""
    n = n_rows + n_cols - 1
    a = np.arange(n)
    w = np.minimum.reduce([a + 1, np.full(n, n_rows), np.full(n, n_cols), n - a])
    w = w.astype(float)
    sqrt_w = np.sqrt(w)
    inv_sqrt_w = 1.0 / sqrt_w
    for arr in (w, sqrt_w, inv_sqrt_w):
        arr.setflags(write=False)
    return w, sqrt_w, inv_sqrt_w


def _weights_for(n: int, n_rows: int | None):
    if n_rows is None:
        n_rows = HankelDims(n).n_s
    return _weights(n_rows, n - n_rows + 1)


def skew_diag_weights(n: int, n_rows: int | None = None) -> np.ndarray:
    """Skew-diagonal length vector w with w_a = #{(i, j) : i + j = a}.

    For the square lift of odd n this is [1, 2, ..., n_s, ..., 2, 1].
    """
    return _weights_for(n, n_rows)[0]


def apply_D(x: np.ndarray, n_rows: int | None = None) -> np.ndarray:
    """Entrywise scaling [Dx]_a = sqrt(w_a) x_a."""
    x = np.asarray(x)
    _, sqrt_w, _ = _weights_for(x.shape[0], n_rows)
    return x * sqrt_w


def apply_D_inv(x: np.ndarray, n_rows: int | None = None) -> np.ndarray:
    """Entrywise scaling [D^{-1}x]_a = x_a / sqrt(w_a)."""
    x = np.asarray(x)
    _, _, inv_sqrt_w = _weights_for(x.shape[0], n_rows)
    return x * inv_sqrt_w


def lift_dense(x: np.ndarray, n_rows: int | None = None) -> np.ndarray:
    """Dense Hankel lift M[i, j] = x[i + j].  Test oracle only (O(n_s^2)).

    Square lifts require odd length; pass ``n_rows`` for rectangular lifts.
    """
    x = np.asarray(x)
    n = x.shape[0]
    if n_rows is None:
        n_rows = HankelDims(n).n_s
    n_cols = n - n_rows + 1
    if n_rows > _DENSE_LIMIT or n_cols > _DENSE_LIMIT:
        raise ValueError(
            f"dense lift of {n_rows}x{n_cols} exceeds the {_DENSE_LIMIT} limit; "
            "use the matrix-free operators instead"
        )
    i = np.arange(n_rows)[:, None]
    j = np.arange(n_cols)[None, :]
    return x[i + j]


def hankel_adjoint_dense(M: np.ndarray) -> np.ndarray:
    """Adjoint of the lift: out[a] = sum_{i+j=a} M[i, j].  Test oracle only."""
    M = np.asarray(M)
    n_rows, n_cols = M.shape
    if n_rows > _DENSE_LIMIT or n_cols > _DENSE_LIMIT:
        raise ValueError(f"dense adjoint beyond the {_DENSE_LIMIT} limit")
    F = M[::-1, :]
    return np.array([F.diagonal(k).sum() for k in range(-(n_rows - 1), n_cols)])


def rect_dims(n: int) -> tuple[int, int]:
    """Rectangular lift shape (n_1, n_2) with n_1 + n_2 - 1 = n."""
    if n < 1:
        raise ValueError("signal length must be >= 1")
    n_1 = (n + 1) // 2
    return n_1, n + 1 - n_1


def mask_counts(mask) -> np.ndarray:
    """Per-index sample multiplicity (float), length ``mask.n``."""
    return np.bincount(np.asarray(mask.indices), minlength=mask.n).astype(float)


def p_omega(x: np.ndarray, mask) -> np.ndarray:
    """Sampling projector: zero off-mask, multiplicity-weighted on-mask.

    Indices listed more than once (with-replacement masks) scale the entry
    by their multiplicity, matching the analysis operator for sampling with
    replacement.
    """
    return np.asarray(x) * mask_counts(mask)


def hankel_corr(
    h: np.ndarray,
    C: np.ndarray,
    n_out: int,
    counter: OpCounter | None = None,
    cbar_spectrum: np.ndarray | None = None,
) -> np.ndarray:
    """FFT correlation kernel: out[a, l] = sum_i h[a + i] * C[i, l].

    Uses out[:, l] = ifft(fft(h) * conj(fft(conj(c_l)))) truncated to n_out,
    exact because the padded length covers every index sum.  ``cbar_spectrum``
    may carry the padded FFT of conj(C) to share transforms across kernels;
    the logical per-column pass is counted either way.
    """
    h = np.asarray(h)
    C = np.asarray(C)
    single = C.ndim == 1
    if single:
        C = C[:, None]
    n = h.shape[0]
    nfft = _fft_len(n)
    H = scipy.fft.fft(h, nfft)
    if cbar_spectrum is None:
        cbar_spectrum = scipy.fft.fft(np.conj(C), nfft, axis=0)
    out = scipy.fft.ifft(H[:, None] * np.conj(cbar_spectrum), axis=0)[:n_out]
    if counter is not None:
        counter.add(C.shape[1])
    return out[:, 0] if single else out


def lift_operator(u: np.ndarray, n_rows: int):
    """``(apply, applyH, dims)`` of the Hankel lift H(u) with ``n_rows`` rows:
    the block actions V -> H(u) V and U -> H(u)^H U, and (n_rows, n_cols)."""
    n_cols = u.shape[0] - n_rows + 1

    def apply(V):
        return hankel_corr(u, V, n_rows)

    def applyH(U):
        return np.conj(hankel_corr(u, np.conj(U), n_cols))

    return apply, applyH, (n_rows, n_cols)


def gstar_outer(
    A: np.ndarray,
    B: np.ndarray,
    counter: OpCounter | None = None,
    return_spectra: bool = False,
):
    """G*(A B^T) = D^{-1} H*(A B^T) without forming the lifted product.

    out[a] = (1/sqrt(w_a)) * sum_l (a_l * b_l)[a] with * linear convolution;
    one FFT pass per column pair.  With ``return_spectra`` the padded column
    FFTs (FA, FB) come back too: FB doubles as the conj-spectrum for
    correlating against conj(B), and FA against conj(conj(A)).
    """
    A = np.asarray(A)
    B = np.asarray(B)
    n = A.shape[0] + B.shape[0] - 1
    nfft = _fft_len(n)
    FA = scipy.fft.fft(A, nfft, axis=0)
    FB = FA if B is A else scipy.fft.fft(B, nfft, axis=0)
    conv = scipy.fft.ifft((FA * FB).sum(axis=1))[:n]
    if counter is not None:
        counter.add(A.shape[1])
    _, _, inv_sqrt_w = _weights(A.shape[0], B.shape[0])
    out = conv * inv_sqrt_w
    if return_spectra:
        return out, FA, FB
    return out


def gstar_gram(
    Z: np.ndarray,
    counter: OpCounter | None = None,
    return_spectrum: bool = False,
):
    """G*(Z Z^T) for a square-lift factor Z via r column self-convolutions.

    With ``return_spectrum`` the padded column FFTs are returned as well so a
    following :func:`g_apply_times_conj` can reuse them.
    """
    Z = np.asarray(Z)
    n_s = Z.shape[0]
    n = 2 * n_s - 1
    nfft = _fft_len(n)
    FZ = scipy.fft.fft(Z, nfft, axis=0)
    conv = scipy.fft.ifft((FZ * FZ).sum(axis=1))[:n]
    if counter is not None:
        counter.add(Z.shape[1])
    _, _, inv_sqrt_w = _weights(n_s, n_s)
    out = conv * inv_sqrt_w
    return (out, FZ) if return_spectrum else out


def g_apply(
    v: np.ndarray,
    C: np.ndarray,
    n_rows: int,
    counter: OpCounter | None = None,
) -> np.ndarray:
    """(Gv) C = H(D^{-1}v) C computed column-by-column via FFT correlation."""
    v = np.asarray(v)
    u = apply_D_inv(v, n_rows=n_rows)
    return hankel_corr(u, C, n_rows, counter=counter)


def g_apply_times_conj(
    v: np.ndarray,
    Z: np.ndarray,
    counter: OpCounter | None = None,
    z_spectrum: np.ndarray | None = None,
) -> np.ndarray:
    """H(D^{-1}v) conj(Z) for the square lift, never materializing H.

    out[i, l] = sum_j (D^{-1}v)[i + j] conj(Z[j, l]).  ``z_spectrum`` may pass
    the padded FFT of Z (= FFT of conj(conj(Z))) from :func:`gstar_gram`.
    """
    v = np.asarray(v)
    n_s = HankelDims(v.shape[0]).n_s
    u = apply_D_inv(v)
    return hankel_corr(u, np.conj(Z), n_s, counter=counter, cbar_spectrum=z_spectrum)
