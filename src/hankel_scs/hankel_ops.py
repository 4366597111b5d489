"""Structured Hankel operators with FFT-fast convolution kernels.

A length-n vector x (n odd, n = 2*n_s - 1) lifts to the n_s x n_s complex
symmetric Hankel matrix (Hx)[i, j] = x[i + j].  The adjoint H* sums
skew-diagonals, D is the diagonal map [Dx]_a = sqrt(w_a) x_a built from the
skew-diagonal lengths w_a, and G = H D^{-1} is the normalized lift with
G*G = I.  The two products that dominate solver iterations --
D^{-1}H*(A B^T) and H(D^{-1}v) C -- are computed by FFT convolutions of
length nfft = next-pow2 >= n, one per factor column, without forming the
lift; a small lift is multiplied densely instead (see Geometry).  Each
solver's gradient pairs a G* kernel with a correlation kernel, the first
handing its factors' spectra to the second: :func:`gstar_gram` to
:func:`g_apply_times_conj` (symmetric, G(v) conj(Z)), and :func:`gstar_outer`
of (Z_U, W) to :func:`g_apply_pair` (two-factor, G(v) conj(W) and
G(v)^T conj(Z_U)).  The dense test oracles (:func:`lift_dense`,
:func:`hankel_adjoint_dense`) stay the tests' references for both paths.

Layout.  Each kernel pads a block's columns as the rows of a C-ordered
(cols x nfft) buffer and transforms it in place along contiguous rows
(:func:`_row_spectra`); the spectra passed between kernels have that
(cols x nfft) shape.  :func:`hankel_corr` consumes the spectrum it works on,
a passed one included: it multiplies and inverse-transforms inside that
buffer, returns the (n_out x cols) transpose of its row-major result as a
view of it, and leaves a passed spectrum read-only.  G* forms its row
products at most :data:`_PAIR_BLOCK_BYTES` at a time (:func:`_pair_sum`), so
no kernel holds a second spectrum-sized block beyond that size.  A small
lift takes dense products instead (see Geometry): G*(A B^T) sums the
skew-diagonals of the product A B^T, a correlation multiplies by the lift
gathered from its signal, and no spectrum is made, so ``return_spectrum``
and ``return_spectra`` give None and a consumer correlates afresh.  The
solvers keep their factors column-major (Fortran-ordered), so a factor's
columns are contiguous on the way in, and the results of both paths come
back column-major with nothing transposed.  Any layout is accepted; a
C-ordered block only costs a strided copy into the buffer.

Geometry.  The one row rule is :func:`rect_dims`: a length-n signal lifts
to n_1 = (n + 1) // 2 rows and n_2 = n + 1 - n_1 columns, the square lift for
odd n, and both solvers use it; the D maps default ``n_rows`` to it.  The
one rank rule, :func:`check_rank`, sits beside it: a length-n signal holds
at most n_1 modes, and every boundary refuses a larger rank there.  Other
rectangular lifts (n_rows + n_cols - 1 = n) are accepted throughout for the
tests and the dense oracles.  Each lift shape has one cached geometry record
(:func:`_lift`): its FFT length and its read-only skew-diagonal weights,
from which every kernel and D map reads.  The record also picks the path:
a lift of at most :data:`DENSE_ROWS` rows and columns, such as the desk's
64 x 64 at n = 127, is multiplied densely, where the FFT passes are cheap
arithmetic wrapped in costly per-call dispatch; it then holds the cached
index arrays of the dense products.  Two of those take a shortcut that
keeps every bit.  G* of one factor multiplies Z by a column-major copy of
itself: numpy sends a product with its own transpose to syrk and a mirror
loop, which is slower than gemm against the copy.  On a square lift
G(v)^T = G(v), so the two-factor pair correlates the stacked
conj([W | Z_U]) with one gather and one product (:func:`g_apply_pair`).
A larger lift is convolved by FFT.
Either way the logical count is one FFT pass per factor column
(:class:`OpCounter`).  Every kernel keeps the precision of its input:
complex64 factors give complex64 results, and a correlation, each action
of the lift operator included, runs in its block's precision whatever its
signal's.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
import scipy.fft

_DENSE_LIMIT = 2048  # dense test oracles refuse lift dimensions beyond this
_PAIR_BLOCK_BYTES = 1 << 18  # G*'s row products are formed this many bytes at a time


@dataclass
class OpCounter:
    """Instruments solver kernels: FFT convolution passes (one pass = one
    factor column), which the kernels add, and gram-type flops in units of
    rows x r^2 products, which ``descent.gram`` and ``descent.right_mul``
    add: each count is taken where its work is done."""

    fft_passes: int = 0
    gram_flops: int = 0

    def add(self, k: int) -> None:
        self.fft_passes += k

    def add_flops(self, k: int) -> None:
        self.gram_flops += k


def rect_dims(n: int) -> tuple[int, int]:
    """The lift's shape (n_1, n_2) for length n: n_1 = (n + 1) // 2 rows and
    n_2 = n + 1 - n_1 columns, square for odd n.  The one row rule."""
    if n < 1:
        raise ValueError("signal length must be >= 1")
    n_1 = (n + 1) // 2
    return n_1, n + 1 - n_1


def check_rank(n: int, r: int) -> None:
    """The one rank rule: a length-n signal holds at most ``rect_dims(n)[0]``
    modes, the row count of its lift, so n >= 2r - 1."""
    if r > rect_dims(n)[0]:
        raise ValueError(f"rank {r} needs signal length n >= 2r-1 = {2 * r - 1}, got n={n}")


# A lift with at most DENSE_ROWS rows and columns is multiplied densely, a
# larger one by FFT convolutions (see the module docstring).  Time of one SHGD
# kernel pair, gstar_gram with its spectrum and then g_apply_times_conj,
# dense / FFT, on a Fortran-ordered n_s x r factor of the square lift (best
# of repeated timings, BLAS on 1 thread, 2-core host):
#
#   n_s    complex128       complex64
#          r=4    r=12      r=4    r=12
#    48    0.72   0.63      0.67   0.66
#    64    1.02   0.96      0.89   0.82     desk (n=127)
#    72    0.94   0.79      0.87   0.78
#    80    1.11   0.90      0.99   0.89
#    88    1.15   1.00      1.08   0.97
#    96    1.37   1.10      1.22   1.06
#   112    1.64   1.43      1.59   1.42
#   128    2.47   1.94      2.37   1.85
#
# The FFT pair's time steps up where nfft doubles (n_s = 65); the dense one
# grows as n_s^2.  PGD's pair, gstar_outer and its gradient's correlations,
# favours the dense path more: 0.70-1.03 at n_s = 80 and 0.92-1.29 at 96.
DENSE_ROWS = 80


class _Lift(NamedTuple):
    nfft: int
    w: np.ndarray
    sqrt_w: np.ndarray
    inv_sqrt_w: np.ndarray
    index: np.ndarray | None  # i + j at each entry of a dense lift; None above DENSE_ROWS
    diag_order: np.ndarray | None  # a dense lift's flat entries, skew-diagonal by skew-diagonal
    diag_starts: np.ndarray | None  # where each skew-diagonal starts in diag_order


@lru_cache(maxsize=64)
def _lift(n_rows: int, n_cols: int, single: bool = False) -> _Lift:
    """Geometry of the n_rows x n_cols lift: its FFT length (next power of two
    >= n) and the read-only skew-diagonal lengths w with their (inverse)
    square roots, computed in double precision and held in float32 when
    ``single``.  A lift of at most :data:`DENSE_ROWS` rows and columns also
    holds the index arrays of its dense products: i + j at entry (i, j), and
    the flat entries of a C-ordered n_rows x n_cols block ordered by i + j
    (by row within one skew-diagonal), with each skew-diagonal's start."""
    n = n_rows + n_cols - 1
    a = np.arange(n)
    w = np.minimum.reduce([a + 1, np.full(n, n_rows), np.full(n, n_cols), n - a])
    dense = (None, None, None)
    if max(n_rows, n_cols) <= DENSE_ROWS:
        index = np.arange(n_rows)[:, None] + np.arange(n_cols)
        starts = np.concatenate([[0], np.cumsum(w[:-1])])
        dense = (index, np.argsort(index, axis=None, kind="stable"), starts)
    w = w.astype(float)
    sqrt_w = np.sqrt(w)
    dtype = np.float32 if single else np.float64
    arrays = tuple(arr.astype(dtype, copy=False) for arr in (w, sqrt_w, 1.0 / sqrt_w))
    for arr in arrays + dense:
        if arr is not None:
            arr.setflags(write=False)
    return _Lift(1 << (n - 1).bit_length(), *arrays, *dense)


def skew_diag_weights(n: int, n_rows: int | None = None) -> np.ndarray:
    """Skew-diagonal length vector w with w_a = #{(i, j) : i + j = a}.

    ``n_rows`` defaults to the row rule; for the square lift of odd n this
    is [1, 2, ..., n_s, ..., 2, 1].
    """
    n_rows = rect_dims(n)[0] if n_rows is None else n_rows
    return _lift(n_rows, n - n_rows + 1).w


def apply_D(x: np.ndarray, n_rows: int | None = None) -> np.ndarray:
    """Entrywise scaling [Dx]_a = sqrt(w_a) x_a; ``n_rows`` defaults to the row rule."""
    x = np.asarray(x)
    n_rows = rect_dims(x.shape[0])[0] if n_rows is None else n_rows
    single = x.dtype in (np.float32, np.complex64)
    return x * _lift(n_rows, x.shape[0] - n_rows + 1, single).sqrt_w


def apply_D_inv(x: np.ndarray, n_rows: int | None = None) -> np.ndarray:
    """Entrywise scaling [D^{-1}x]_a = x_a / sqrt(w_a); ``n_rows`` defaults to the row rule."""
    x = np.asarray(x)
    n_rows = rect_dims(x.shape[0])[0] if n_rows is None else n_rows
    single = x.dtype in (np.float32, np.complex64)
    return x * _lift(n_rows, x.shape[0] - n_rows + 1, single).inv_sqrt_w


def lift_dense(x: np.ndarray, n_rows: int | None = None) -> np.ndarray:
    """Dense Hankel lift M[i, j] = x[i + j].  Test oracle only (O(n_s^2)).

    Square lifts require odd length; pass ``n_rows`` for rectangular lifts.
    """
    x = np.asarray(x)
    n = x.shape[0]
    if n_rows is None:
        if n % 2 == 0:
            raise ValueError(
                f"square Hankel lift needs odd length, got n={n}; "
                "zero-pad even-length signals by appending one sample"
            )
        n_rows = rect_dims(n)[0]
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


def _row_spectra(X: np.ndarray, nfft: int, conj: bool = False,
                 below: np.ndarray | None = None) -> np.ndarray:
    """FFTs of X's columns (of ``conj(X)``'s with ``conj``), zero-padded to
    ``nfft``, as the rows of a (cols x nfft) C-ordered array transformed in
    place.  ``below``'s columns, never conjugated, follow as further rows of
    the same transform; a row has the same bits as in a transform of its
    own.  Only the padding is zeroed: the data part is overwritten anyway,
    and a zero-allocated block of this size tends to come back as fresh
    pages that fault on first touch."""
    n, cols = X.shape
    if below is None:
        buf = np.empty((cols, nfft), dtype=np.result_type(X.dtype, np.complex64))
    else:
        dtype = np.result_type(X.dtype, below.dtype, np.complex64)
        buf = np.empty((cols + below.shape[1], nfft), dtype=dtype)
        buf[cols:, :below.shape[0]] = below.T
        buf[cols:, below.shape[0]:] = 0
    if conj:
        np.conjugate(X.T, out=buf[:cols, :n])
    else:
        buf[:cols, :n] = X.T
    buf[:cols, n:] = 0
    return scipy.fft.fft(buf, axis=-1, overwrite_x=True)


def hankel_corr(
    h: np.ndarray,
    C: np.ndarray,
    n_out: int,
    counter: OpCounter | None = None,
    cbar_spectrum: np.ndarray | None = None,
) -> np.ndarray:
    """Correlation kernel: out[a, l] = sum_i h[a + i] * C[i, l], the product
    H(h) C with the lift H(h) of n_out rows (at most len(h)).  It computes in
    C's precision (complex64 at least) on both paths: ``h`` is cast to it on
    entry.

    A lift of at most :data:`DENSE_ROWS` rows and columns is gathered from h
    by its cached index and multiplied by a C of one row per lift column.
    Otherwise -- a larger lift, ``cbar_spectrum`` given, or a taller C, whose
    extra rows meet h's zero padding -- it goes by FFT:
    out[:, l] = ifft(fft(h) * conj(fft(conj(c_l)))) truncated to n_out,
    exact because the padded length covers every index sum.
    ``cbar_spectrum`` may carry the padded FFTs of conj(C)'s columns as
    (cols x nfft) rows to share transforms across kernels; then only C's
    column count is read.  The logical per-column pass is counted on either
    path.  The spectrum, passed or computed, is consumed: the product and the
    inverse transform run inside it, and the result is the (n_out x cols)
    transpose view of that row-major buffer, so its columns are contiguous.
    That view keeps the whole (cols x nfft) spectrum alive, about twice the
    result's size for a square lift, so a caller drops it once it is
    consumed, by handing it straight to the next call or deleting its name.
    A passed spectrum is left read-only, so handing it to a kernel again, or
    writing to it, raises ValueError; a caller that needs a spectrum again
    passes a copy.  The dense result is column-major too.
    """
    C = np.asarray(C)
    h = np.asarray(h).astype(np.promote_types(C.dtype, np.complex64), copy=False)
    single = C.ndim == 1
    if single:
        C = C[:, None]
    if not 1 <= n_out <= h.shape[0]:
        raise ValueError(f"n_out must lie in [1, {h.shape[0]}], got {n_out}")
    lift = _lift(n_out, h.shape[0] - n_out + 1)
    if cbar_spectrum is None and lift.index is not None and C.shape[0] == lift.index.shape[1]:
        # (C^T H^T)^T keeps the result column-major, as right_mul does.
        out = (C.T @ h[lift.index].T).T
    else:
        out = _corr_fft(h, C, n_out, lift.nfft, cbar_spectrum)
    if counter is not None:
        counter.add(C.shape[1])
    return out[:, 0] if single else out


def _corr_fft(h, C, n_out, nfft, cbar_spectrum):
    """:func:`hankel_corr` by FFT, inside the (passed or computed) spectrum."""
    H = scipy.fft.fft(h, nfft)
    if cbar_spectrum is None:
        cbar_spectrum = _row_spectra(C, nfft, conj=True)
    elif cbar_spectrum.shape != (C.shape[1], nfft):
        raise ValueError(
            f"cbar_spectrum must be (cols x nfft) = {(C.shape[1], nfft)}, "
            f"got {cbar_spectrum.shape}"
        )
    # Conjugate, multiply and inverse-transform inside the spectrum: with
    # overwrite_x, scipy.fft hands back the same memory.
    np.conjugate(cbar_spectrum, out=cbar_spectrum)
    np.multiply(cbar_spectrum, H, out=cbar_spectrum)
    out = scipy.fft.ifft(cbar_spectrum, axis=-1, overwrite_x=True)[:, :n_out].T
    # The result view stays writeable; the consumed buffer does not.
    cbar_spectrum.flags.writeable = False
    return out


def lift_operator(u: np.ndarray, n_rows: int):
    """``(apply, applyH, dims)`` of the Hankel lift H(u) with ``n_rows`` rows:
    the block actions V -> H(u) V and U -> H(u)^H U, and (n_rows, n_cols).

    Both are :func:`hankel_corr`: H(u)^H is the n_cols-row lift of conj(u),
    so the adjoint is the same correlation on the conjugate signal.  Each
    runs in the precision of the block it is given."""
    n_cols = u.shape[0] - n_rows + 1
    u_bar = np.conj(u)
    return (lambda V: hankel_corr(u, V, n_rows),
            lambda U: hankel_corr(u_bar, U, n_cols),
            (n_rows, n_cols))


def _pair_sum(F: np.ndarray, r: int) -> np.ndarray:
    """sum_l F[l] * F[len(F) - r + l] over l < r, with the bits of
    ``(F[:r] * F[-r:]).sum(axis=0)``.

    That expression forms the whole r x nfft product first; here rows are
    multiplied at most :data:`_PAIR_BLOCK_BYTES` at a time, and the first
    block's product is the buffer for the rest.  Each later block's first
    row carries the running sum, so the rows are still added in order, one
    after the other.  A product that fits in one block is that expression."""
    rows = max(1, min(r, _PAIR_BLOCK_BYTES // (F.shape[1] * F.itemsize)))
    off = len(F) - r
    block = F[:rows] * F[off:off + rows]
    total = block.sum(axis=0)
    for i in range(rows, r, rows):
        part = block[:min(rows, r - i)]
        np.multiply(F[i:i + len(part)], F[off + i:off + i + len(part)], out=part)
        part[0] += total
        part.sum(axis=0, out=total)
    return total


def _gstar_conv(A: np.ndarray, B: np.ndarray, counter: OpCounter | None):
    """(G*(A B^T), F).  A dense lift sums the skew-diagonals of the product
    A B^T, against a copy of A when ``B is A`` (see the module docstring),
    and gives F = None; a larger one convolves the padded column FFTs F, as
    (cols x nfft) rows: A's over B's from one transform, or A's alone when
    ``B is A``.  It calls no public kernel, so wrappers see one call."""
    dtype = np.promote_types(np.promote_types(A.dtype, B.dtype), np.complex64)
    lift = _lift(A.shape[0], B.shape[0], dtype == np.complex64)
    r = A.shape[1]
    if counter is not None:
        counter.add(r)
    if lift.index is not None:
        if B is A:
            # numpy sends a product with its own transpose to syrk and a
            # mirror loop; gemm against a copy is faster, with the same bits.
            B = A.copy(order="F")
        P = np.matmul(A, B.T, dtype=dtype)
        diag_sums = np.add.reduceat(P.ravel()[lift.diag_order], lift.diag_starts)
        return diag_sums * lift.inv_sqrt_w, None
    F = _row_spectra(A, lift.nfft, below=None if B is A else B)
    conv = scipy.fft.ifft(_pair_sum(F, r))[:len(lift.w)]
    return conv * lift.inv_sqrt_w, F


def gstar_outer(
    A: np.ndarray,
    B: np.ndarray,
    counter: OpCounter | None = None,
    return_spectra: bool = False,
):
    """G*(A B^T) = D^{-1} H*(A B^T) without forming the lifted product.

    out[a] = (1/sqrt(w_a)) * sum_l (a_l * b_l)[a] with * linear convolution;
    one FFT pass per column pair, or, for a lift of at most
    :data:`DENSE_ROWS` rows and columns, the skew-diagonal sums of A B^T.
    With ``return_spectra`` the padded column FFTs come back too, as one
    (2 cols x nfft) block of rows, A's over B's (A's alone when ``B is A``):
    the conj-spectra of conj(A) and conj(B), against which each half lets
    a :func:`hankel_corr` correlate (:func:`g_apply_pair`).  A dense lift
    makes no spectrum and gives None in its place.  A and B must have the
    same column count.
    """
    A, B = np.asarray(A), np.asarray(B)
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"A has {A.shape[1]} columns but B has {B.shape[1]}")
    out, F = _gstar_conv(A, B, counter)
    return (out, F) if return_spectra else out


def gstar_gram(
    Z: np.ndarray,
    counter: OpCounter | None = None,
    return_spectrum: bool = False,
):
    """G*(Z Z^T) for a square-lift factor Z via r column self-convolutions.

    Equals ``gstar_outer(Z, Z)``.  With ``return_spectrum`` the padded column
    FFTs come back too, as (r x nfft) rows, for a following
    :func:`g_apply_times_conj`; None for a dense lift, which makes none.
    """
    Z = np.asarray(Z)
    out, FZ = _gstar_conv(Z, Z, counter)
    return (out, FZ) if return_spectrum else out


def g_apply(
    v: np.ndarray,
    C: np.ndarray,
    n_rows: int,
    counter: OpCounter | None = None,
) -> np.ndarray:
    """(Gv) C = H(D^{-1}v) C by :func:`hankel_corr`."""
    v = np.asarray(v)
    u = apply_D_inv(v, n_rows=n_rows)
    return hankel_corr(u, C, n_rows, counter=counter)


def _times_conj(u, Z, n_out, counter, spectrum):
    """H(u) conj(Z) with the ``n_out``-row lift of u, consuming ``spectrum``,
    Z's FFT rows from a G* kernel.  Without it, a dense lift multiplies
    conj(Z), and an FFT lift transforms Z's own rows: they are the
    conj-spectrum of conj(Z), so no conjugated copy is made."""
    if spectrum is None:
        lift = _lift(n_out, u.shape[0] - n_out + 1)
        if lift.index is not None:
            return hankel_corr(u, np.conj(Z), n_out, counter=counter)
        spectrum = _row_spectra(Z, lift.nfft)
    return hankel_corr(u, Z, n_out, counter=counter, cbar_spectrum=spectrum)


def g_apply_times_conj(
    v: np.ndarray,
    Z: np.ndarray,
    counter: OpCounter | None = None,
    z_spectrum: np.ndarray | None = None,
) -> np.ndarray:
    """H(D^{-1}v) conj(Z) for the square lift, never materializing H.

    out[i, l] = sum_j (D^{-1}v)[i + j] conj(Z[j, l]), for ``v`` of length
    2 n_s - 1.  ``z_spectrum``, Z's (r x nfft) FFT rows from
    :func:`gstar_gram`, is consumed, and the result is a view of it.
    Without it, the product is correlated afresh: a small lift multiplies
    conj(Z) densely, a larger one transforms Z's own columns.
    """
    v = np.asarray(v)
    n_s = Z.shape[0]
    if v.shape[0] != 2 * n_s - 1:
        raise ValueError(f"v must have length 2 n_s - 1 = {2 * n_s - 1}, got {v.shape[0]}")
    return _times_conj(apply_D_inv(v), Z, n_s, counter, z_spectrum)


def g_apply_pair(v: np.ndarray, Z_U: np.ndarray, W: np.ndarray,
                 counter: OpCounter | None = None, spectra: np.ndarray | None = None):
    """(G(v) conj(W), G(v)^T conj(Z_U)) on the lift of Z_U's n_1 rows and W's
    n_2 columns, for ``v`` of length n_1 + n_2 - 1, never materializing G.

    G(v)^T is the n_2-row lift of the same D^{-1}v, so each product is
    :func:`g_apply_times_conj`'s correlation.  ``spectra``, the block of
    ``gstar_outer(Z_U, W, return_spectra=True)``, holds Z_U's FFT rows over
    W's; each product consumes its half and is a view of it, and the whole
    block is left read-only, so a second use raises ValueError.  Without
    it, each product is correlated afresh, densely for a small lift; a small
    square lift (odd n) is symmetric, G(v)^T = G(v), so there both products
    are one correlation of the stacked conj([W | Z_U]), whose halves have
    the bits of the two products and count one pass per column as they do.
    """
    v = np.asarray(v)
    (n_1, r), n_2 = Z_U.shape, W.shape[0]
    if v.shape[0] != n_1 + n_2 - 1:
        raise ValueError(f"v must have length n_1 + n_2 - 1 = {n_1 + n_2 - 1}, got {v.shape[0]}")
    u = apply_D_inv(v, n_rows=n_1)
    if spectra is None and r > 1 and n_1 == n_2 and _lift(n_1, n_2).index is not None:
        # One column stays apart: numpy multiplies it by gemv, whose sums
        # may differ from gemm's in the last bit.
        C = np.empty((n_1, 2 * r), dtype=np.promote_types(W.dtype, Z_U.dtype), order="F")
        np.conjugate(W, out=C[:, :r])
        np.conjugate(Z_U, out=C[:, r:])
        out = hankel_corr(u, C, n_1, counter=counter)
        return out[:, :r], out[:, r:]
    F_U, F_W = (None, None) if spectra is None else (spectra[:r], spectra[r:])
    gw_U = _times_conj(u, W, n_1, counter, F_W)
    gw_W = _times_conj(u, Z_U, n_2, counter, F_U)
    if spectra is not None:
        spectra.flags.writeable = False
    return gw_U, gw_W
