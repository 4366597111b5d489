"""Structured-operator properties against brute-force oracles."""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.fft

from hankel_scs import descent, hankel_ops, lowrank, pgd, shgd, signal_model
from conftest import (
    loop_adjoint,
    loop_lift,
    loop_weights,
    make_instance,
    rand_complex,
    rel,
)

ODD_NS = [1, 3, 5, 7, 9, 15, 21, 31, 63, 127]


def random_odd_n(rng, lo=1, hi=127):
    return int(rng.integers(lo // 2, (hi - 1) // 2 + 1)) * 2 + 1


# ---------------------------------------------------------------------------
# Weights and diagonal scaling
# ---------------------------------------------------------------------------

def test_weights_n7_matches_antidiagonal_lengths_of_4x4():
    assert np.array_equal(
        hankel_ops.skew_diag_weights(7), [1, 2, 3, 4, 3, 2, 1]
    )


def test_weights_match_counting_oracle_square_and_rect(rng):
    for _ in range(100):
        n_rows = int(rng.integers(1, 40))
        n_cols = int(rng.integers(1, 40))
        n = n_rows + n_cols - 1
        w = hankel_ops.skew_diag_weights(n, n_rows=n_rows)
        assert np.array_equal(w, loop_weights(n_rows, n_cols))
        assert w.sum() == n_rows * n_cols


def test_weights_piecewise_formula_odd_n():
    for n in ODD_NS:
        n_s = (n + 1) // 2
        w = hankel_ops.skew_diag_weights(n)
        for a in range(n):
            expected = a + 1 if a < n_s else n - a
            assert w[a] == expected


def test_apply_D_roundtrip_and_identity_on_length_1(rng):
    assert hankel_ops.apply_D(np.array([3.0 + 1j])) == pytest.approx(3.0 + 1j)
    for n in ODD_NS:
        x = rand_complex(rng, n)
        back = hankel_ops.apply_D_inv(hankel_ops.apply_D(x))
        assert rel(back, x) <= 1e-15


@pytest.mark.parametrize("n", [1, 2, 30, 31, 126, 127])
def test_D_maps_default_to_the_row_rule_for_every_length(rng, n):
    x = rand_complex(rng, n)
    n_1 = (n + 1) // 2
    assert np.array_equal(hankel_ops.apply_D(x), hankel_ops.apply_D(x, n_rows=n_1))
    assert np.array_equal(hankel_ops.apply_D_inv(x), hankel_ops.apply_D_inv(x, n_rows=n_1))


@pytest.mark.parametrize("single", [False, True])
def test_lift_geometry_is_read_only(single):
    lift = hankel_ops._lift(5, 7, single)
    assert lift.nfft == 16
    for arr in (lift.w, lift.sqrt_w, lift.inv_sqrt_w):
        assert arr.dtype == (np.float32 if single else np.float64)
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    # A lift within the dense rule also holds its dense products' indices.
    for arr in (lift.index, lift.diag_order, lift.diag_starts):
        assert not arr.flags.writeable
    assert hankel_ops._lift(hankel_ops.DENSE_ROWS + 1, 7, single).index is None


# ---------------------------------------------------------------------------
# Dense lift / adjoint oracles
# ---------------------------------------------------------------------------

def test_lift_dense_pinned_examples():
    assert np.array_equal(hankel_ops.lift_dense(np.array([5.0])), [[5.0]])
    assert np.array_equal(
        hankel_ops.lift_dense(np.array([0.0, 1.0, 2.0])), [[0.0, 1.0], [1.0, 2.0]]
    )


def test_lift_dense_exactly_symmetric(rng):
    for _ in range(20):
        n = random_odd_n(rng)
        M = hankel_ops.lift_dense(rand_complex(rng, n))
        assert np.linalg.norm(M - M.T) == 0.0


def test_lift_dense_even_length_rejected_with_padding_hint():
    with pytest.raises(ValueError, match="zero-pad"):
        hankel_ops.lift_dense(np.zeros(4, dtype=complex))


def test_lift_dense_rectangular(rng):
    x = rand_complex(rng, 10)
    M = hankel_ops.lift_dense(x, n_rows=4)
    assert M.shape == (4, 7)
    assert rel(M, loop_lift(x, 4, 7)) == 0.0


def test_dense_oracles_refuse_oversized_lifts():
    with pytest.raises(ValueError, match="2048"):
        hankel_ops.lift_dense(np.zeros(2 * 4096 - 1, dtype=complex))
    with pytest.raises(ValueError):
        hankel_ops.hankel_adjoint_dense(np.zeros((4096, 2)))


def test_hankel_adjoint_identity_2x2():
    assert np.array_equal(
        hankel_ops.hankel_adjoint_dense(np.eye(2)), [1.0, 0.0, 1.0]
    )


def test_hankel_adjoint_matches_loop_oracle(rng):
    for _ in range(50):
        n_rows = int(rng.integers(1, 12))
        n_cols = int(rng.integers(1, 12))
        M = rand_complex(rng, n_rows, n_cols)
        assert rel(hankel_ops.hankel_adjoint_dense(M), loop_adjoint(M)) <= 1e-15


def test_adjoint_of_lift_is_weight_scaling(rng):
    """H*(H x) = D^2 x entrywise."""
    for _ in range(50):
        n = random_odd_n(rng)
        x = rand_complex(rng, n)
        w = hankel_ops.skew_diag_weights(n)
        got = hankel_ops.hankel_adjoint_dense(hankel_ops.lift_dense(x))
        assert rel(got, w * x) <= 1e-13


def test_lift_adjoint_inner_product_identity(rng):
    """<H x, M> = <x, H* M> for random x, M."""
    for _ in range(100):
        n = random_odd_n(rng)
        n_s = (n + 1) // 2
        x = rand_complex(rng, n)
        M = rand_complex(rng, n_s, n_s)
        lhs = np.vdot(hankel_ops.lift_dense(x), M)
        rhs = np.vdot(x, hankel_ops.hankel_adjoint_dense(M))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_normalized_lift_is_isometry(rng):
    """G*(G x) = x."""
    for _ in range(100):
        n = random_odd_n(rng)
        n_s = (n + 1) // 2
        x = rand_complex(rng, n)
        Gx = hankel_ops.lift_dense(hankel_ops.apply_D_inv(x))
        back = hankel_ops.apply_D_inv(hankel_ops.hankel_adjoint_dense(Gx))
        assert rel(back, x) <= 1e-12


# ---------------------------------------------------------------------------
# Sampling projector
# ---------------------------------------------------------------------------

def test_p_omega_full_mask_is_identity(rng):
    n = 21
    x = rand_complex(rng, n)
    mask = signal_model.SamplingMask(n, np.arange(n))
    assert np.array_equal(hankel_ops.p_omega(x, mask), x)


def test_p_omega_multiplicity_doubles_repeated_index(rng):
    n = 9
    x = rand_complex(rng, n)
    mask = signal_model.SamplingMask(n, np.array([2, 2, 5]), with_replacement=True)
    out = hankel_ops.p_omega(x, mask)
    assert out[2] == 2 * x[2]
    assert out[5] == x[5]
    assert np.all(out[[0, 1, 3, 4, 6, 7, 8]] == 0)


def test_p_omega_matches_loop_oracle(rng):
    for _ in range(50):
        n = int(rng.integers(2, 60))
        m = int(rng.integers(1, n + 1))
        x = rand_complex(rng, n)
        mask = signal_model.uniform_mask(n, m, rng=rng)
        expect = np.zeros(n, dtype=complex)
        for idx in mask.indices:
            expect[idx] += x[idx]
        assert np.array_equal(hankel_ops.p_omega(x, mask), expect)


# ---------------------------------------------------------------------------
# FFT kernels vs dense oracles
# ---------------------------------------------------------------------------

def test_hankel_corr_matches_dense(rng):
    for _ in range(100):
        n_rows = int(rng.integers(1, 40))
        n_cols = int(rng.integers(1, 40))
        n = n_rows + n_cols - 1
        r = int(rng.integers(1, 9))
        h = rand_complex(rng, n)
        C = rand_complex(rng, n_cols, r)
        got = hankel_ops.hankel_corr(h, C, n_rows)
        want = loop_lift(h, n_rows, n_cols) @ C
        assert rel(got, want) <= 1e-12


def test_hankel_corr_single_vector_matches_dense(rng):
    for _ in range(50):
        n_rows = int(rng.integers(1, 40))
        n_cols = int(rng.integers(1, 40))
        h = rand_complex(rng, n_rows + n_cols - 1)
        v = rand_complex(rng, n_cols)
        got = hankel_ops.hankel_corr(h, v, n_rows)
        want = loop_lift(h, n_rows, n_cols) @ v
        assert rel(got, want) <= 1e-12


def test_lift_operator_matches_dense(rng):
    for n_rows, n_cols in ((1, 1), (5, 5), (6, 9), (9, 4)):
        u = rand_complex(rng, n_rows + n_cols - 1)
        apply, applyH, dims = hankel_ops.lift_operator(u, n_rows)
        assert dims == (n_rows, n_cols)
        H = loop_lift(u, n_rows, n_cols)
        V = rand_complex(rng, n_cols, 3)
        U = rand_complex(rng, n_rows, 3)
        assert rel(apply(V), H @ V) <= 1e-12
        assert rel(applyH(U), H.conj().T @ U) <= 1e-12


def test_gstar_gram_selector_column_example():
    """Single factor column e_0: only the zeroth skew-diagonal is hit."""
    n_s = 5
    Z = np.zeros((n_s, 1), dtype=complex)
    Z[0, 0] = 1.0
    out = hankel_ops.gstar_gram(Z)
    w = hankel_ops.skew_diag_weights(2 * n_s - 1)
    assert out[0] == pytest.approx(1.0 / np.sqrt(w[0]))
    assert np.allclose(out[1:], 0.0, atol=1e-14)


def test_gstar_gram_matches_dense(rng):
    for _ in range(100):
        n_s = int(rng.integers(1, 65))
        r = int(rng.integers(1, 9))
        Z = rand_complex(rng, n_s, r)
        w = loop_weights(n_s, n_s)
        want = loop_adjoint(Z @ Z.T) / np.sqrt(w)
        assert rel(hankel_ops.gstar_gram(Z), want) <= 1e-10


def test_gstar_outer_matches_dense(rng):
    for _ in range(100):
        n_1 = int(rng.integers(1, 40))
        n_2 = int(rng.integers(1, 40))
        r = int(rng.integers(1, 9))
        A = rand_complex(rng, n_1, r)
        B = rand_complex(rng, n_2, r)
        w = loop_weights(n_1, n_2)
        want = loop_adjoint(A @ B.T) / np.sqrt(w)
        assert rel(hankel_ops.gstar_outer(A, B), want) <= 1e-10


def test_g_apply_times_conj_matches_dense(rng):
    for _ in range(100):
        n_s = int(rng.integers(1, 65))
        n = 2 * n_s - 1
        r = int(rng.integers(1, 9))
        v = rand_complex(rng, n)
        Z = rand_complex(rng, n_s, r)
        w = loop_weights(n_s, n_s)
        want = loop_lift(v / np.sqrt(w), n_s, n_s) @ np.conj(Z)
        assert rel(hankel_ops.g_apply_times_conj(v, Z), want) <= 1e-10


def test_g_apply_times_conj_zero_input():
    out = hankel_ops.g_apply_times_conj(np.zeros(9, dtype=complex), np.ones((5, 3)))
    assert np.all(out == 0)


def test_g_apply_matches_dense(rng):
    for _ in range(50):
        n_1 = int(rng.integers(1, 40))
        n_2 = int(rng.integers(1, 40))
        n = n_1 + n_2 - 1
        r = int(rng.integers(1, 6))
        v = rand_complex(rng, n)
        C = rand_complex(rng, n_2, r)
        w = loop_weights(n_1, n_2)
        want = loop_lift(v / np.sqrt(w), n_1, n_2) @ C
        got = hankel_ops.g_apply(v, C, n_1)
        assert rel(got, want) <= 1e-10


def test_fft_spectrum_reuse_paths_agree(rng):
    """Passing cached spectra must not change any output.  A passed spectrum
    is consumed, so each one used twice is handed over as a copy.  Only a
    lift above the dense rule makes spectra."""
    n_s = 97
    r = 4
    assert n_s > hankel_ops.DENSE_ROWS
    Z = rand_complex(rng, n_s, r)
    v = rand_complex(rng, 2 * n_s - 1)
    g, FZ = hankel_ops.gstar_gram(Z, return_spectrum=True)
    direct = hankel_ops.g_apply_times_conj(v, Z)
    reused = hankel_ops.g_apply_times_conj(v, Z, z_spectrum=FZ)
    assert rel(reused, direct) <= 1e-14

    A = rand_complex(rng, 100, 3)
    B = rand_complex(rng, 94, 3)
    out, F = hankel_ops.gstar_outer(A, B, return_spectra=True)
    assert F.shape == (6, 256)
    h = rand_complex(rng, 193)
    direct = hankel_ops.hankel_corr(h, np.conj(B), 100)
    reused = hankel_ops.hankel_corr(h, np.conj(B), 100, cbar_spectrum=F[3:].copy())
    assert rel(reused, direct) <= 1e-14
    # The whole block is the conj-spectrum of [conj(A), conj(B)]'s columns,
    # B's zero-padded to A's length: one correlation against both.
    C = np.hstack([np.conj(A), np.vstack([np.conj(B), np.zeros((6, 3))])])
    direct = hankel_ops.hankel_corr(h, C, 94)
    reused = hankel_ops.hankel_corr(h, C, 94, cbar_spectrum=F)
    assert rel(reused, direct) <= 1e-14


@pytest.mark.parametrize("rows, r", [(96, 8), (8192, 30), (1024, 150)])
@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
def test_stacked_spectra_have_the_bits_of_separate_transforms(rng, rows, r, dtype):
    # PGD transforms both factors in one call and correlates against each
    # half on its own; its solves keep their bits only if a row of a stacked
    # batch equals the same row transformed alone, and a correlation against
    # the whole block equals one against each half.  Lifts above the dense rule.
    assert rows - 1 > hankel_ops.DENSE_ROWS
    A = rand_complex(rng, rows, r).astype(dtype)
    B = rand_complex(rng, rows - 1, r).astype(dtype)
    out, F = hankel_ops.gstar_outer(A, B, return_spectra=True)
    _, FA = hankel_ops.gstar_gram(A, return_spectrum=True)
    assert F.shape == (2 * r, FA.shape[1])
    assert np.array_equal(F[:r], FA)
    h = rand_complex(rng, 2 * rows - 2).astype(dtype)
    # hankel_corr consumes a passed spectrum: each call gets its own copy.
    both = hankel_ops.hankel_corr(h, np.zeros((rows, 2 * r), dtype), rows,
                                  cbar_spectrum=F.copy())
    for half in (slice(None, r), slice(r, None)):
        alone = hankel_ops.hankel_corr(h, np.zeros((rows, r), dtype), rows,
                                       cbar_spectrum=F[half].copy())
        assert np.array_equal(both[:, half], alone)


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
@pytest.mark.parametrize("stacked", [1, 2])
def test_blocked_pair_sum_has_the_bits_of_the_whole_product(rng, dtype, stacked):
    # G* multiplies its spectrum rows a block at a time and carries the
    # running sum in each block's first row, so the additions keep their
    # order.  Rows of this length make blocks of 4: ranks below, at and above
    # one block, and ranks that are no multiple of it.  ``stacked`` 2 is
    # gstar_outer's (A's rows over B's), 1 gstar_gram's (B is A).
    itemsize = np.dtype(dtype).itemsize
    nfft = hankel_ops._PAIR_BLOCK_BYTES // (4 * itemsize)
    assert hankel_ops._PAIR_BLOCK_BYTES // (nfft * itemsize) == 4
    for r in (1, 3, 4, 5, 11):
        F = rand_complex(rng, stacked * r, nfft).astype(dtype)
        assert np.array_equal(hankel_ops._pair_sum(F, r), (F[:r] * F[-r:]).sum(axis=0))


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
@pytest.mark.parametrize("r", [1, 4, 12])
def test_dense_gstar_gram_is_the_product_against_a_copy(rng, dtype, r):
    # On a dense lift G* of one factor multiplies it by a column-major copy
    # of itself, so numpy runs gemm rather than its own-transpose path: the
    # bits of the two-factor kernel given that copy.  The desk's 64 x 64 lift.
    Z = np.asfortranarray(rand_complex(rng, 64, r).astype(dtype))
    assert Z.shape[0] <= hankel_ops.DENSE_ROWS
    got, F = hankel_ops.gstar_gram(Z, return_spectrum=True)
    assert F is None and got.dtype == dtype
    assert np.array_equal(got, hankel_ops.gstar_outer(Z, Z.copy(order="F")))


@pytest.mark.parametrize("layout", ["C", "F", "sliced"])
@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
@pytest.mark.parametrize("n, r", [(127, 1), (127, 2), (127, 4), (127, 12), (41, 3)])
def test_square_dense_pair_has_the_bits_of_two_correlations(rng, layout, dtype, n, r):
    # On a square dense lift G(v)^T = G(v), so the pair correlates the
    # stacked conj([W | Z_U]) in one product; each half keeps the bits of
    # its own correlation, the pass count stays one per column, and both
    # results are column-major.
    n_1, n_2 = hankel_ops.rect_dims(n)
    assert n_1 == n_2 <= hankel_ops.DENSE_ROWS
    v = rand_complex(rng, n).astype(dtype)
    Z_U = LAYOUTS[layout](rand_complex(rng, n_1, r).astype(dtype))
    W = LAYOUTS[layout](rand_complex(rng, n_2, r).astype(dtype))
    counter = hankel_ops.OpCounter()
    gw_U, gw_W = hankel_ops.g_apply_pair(v, Z_U, W, counter=counter)
    u = hankel_ops.apply_D_inv(v, n_rows=n_1)
    assert np.array_equal(gw_U, hankel_ops.hankel_corr(u, np.conj(W), n_1))
    assert np.array_equal(gw_W, hankel_ops.hankel_corr(u, np.conj(Z_U), n_2))
    assert counter.fft_passes == 2 * r
    assert gw_U.dtype == gw_W.dtype == dtype
    assert gw_U.flags.f_contiguous and gw_W.flags.f_contiguous


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
def test_fft_correlations_without_a_spectrum_transform_the_factor_itself(rng, dtype):
    # Above the dense rule, with no spectrum handed on, the kernels transform
    # Z's own rows, which are the conj-spectrum of conj(Z): the bits of
    # correlating a conjugated copy, with no copy made.
    n_s, n_1, n_2 = 86, 90, 85
    assert min(n_s, n_2) > hankel_ops.DENSE_ROWS
    Z = rand_complex(rng, n_s, 4).astype(dtype)
    v = rand_complex(rng, 2 * n_s - 1).astype(dtype)
    got = hankel_ops.g_apply_times_conj(v, Z)
    u = hankel_ops.apply_D_inv(v)
    assert np.array_equal(got, hankel_ops.hankel_corr(u, np.conj(Z), n_s))
    Z_U, W = rand_complex(rng, n_1, 4).astype(dtype), rand_complex(rng, n_2, 4).astype(dtype)
    h = rand_complex(rng, n_1 + n_2 - 1).astype(dtype)
    gw_U, gw_W = hankel_ops.g_apply_pair(h, Z_U, W)
    u = hankel_ops.apply_D_inv(h, n_rows=n_1)
    assert np.array_equal(gw_U, hankel_ops.hankel_corr(u, np.conj(W), n_1))
    assert np.array_equal(gw_W, hankel_ops.hankel_corr(u, np.conj(Z_U), n_2))


def test_hankel_corr_consumes_a_passed_spectrum(rng):
    # The correlation is computed inside the spectrum it is given, and the
    # result is a view of that memory.  The consumed spectrum is left
    # read-only, so a second use raises instead of reading a product.  A lift
    # above the dense rule, which makes spectra.
    Z = rand_complex(rng, 97, 4)
    assert Z.shape[0] > hankel_ops.DENSE_ROWS
    v = rand_complex(rng, 193)
    _, FZ = hankel_ops.gstar_gram(Z, return_spectrum=True)
    out = hankel_ops.g_apply_times_conj(v, Z, z_spectrum=FZ)
    assert np.shares_memory(out, FZ)
    assert out.flags.writeable and not FZ.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        hankel_ops.g_apply_times_conj(v, Z, z_spectrum=FZ)
    _, F = hankel_ops.gstar_outer(Z, Z[:84], return_spectra=True)
    h = rand_complex(rng, 180)
    hankel_ops.hankel_corr(h, np.zeros((84, 8)), 84, cbar_spectrum=F)
    with pytest.raises(ValueError, match="read-only"):
        hankel_ops.hankel_corr(h, np.zeros((84, 8)), 84, cbar_spectrum=F)
    # g_apply_pair consumes each half of the stacked block apart; the whole
    # block is left read-only, so its halves cannot be taken afresh either.
    W = rand_complex(rng, 98, 4)
    _, F = hankel_ops.gstar_outer(Z, W, return_spectra=True)
    v = rand_complex(rng, 194)
    outs = hankel_ops.g_apply_pair(v, Z, W, spectra=F)
    assert all(np.shares_memory(out, F) and out.flags.writeable for out in outs)
    assert not F.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        hankel_ops.g_apply_pair(v, Z, W, spectra=F)


# Layouts: the kernels transform columns as contiguous rows, whatever the
# layout of the block they are given.
LAYOUTS = {
    "C": lambda a: np.ascontiguousarray(a),
    "F": lambda a: np.asfortranarray(a),
    # Every other row of a twice-as-tall block: neither C- nor F-contiguous.
    "sliced": lambda a: np.repeat(a, 2, axis=0)[::2],
}


def _layout_kernels(rng, n_1, n_2, n_s):
    r = 4
    n = n_1 + n_2 - 1
    A = rand_complex(rng, n_1, r)
    B = rand_complex(rng, n_2, r)
    Z = rand_complex(rng, n_s, r)
    h = rand_complex(rng, n)
    v = rand_complex(rng, 2 * n_s - 1)
    w_rect = loop_weights(n_1, n_2)
    w_sq = loop_weights(n_s, n_s)
    H = loop_lift(h, n_1, n_2)
    G_h = loop_lift(h / np.sqrt(w_rect), n_1, n_2)
    G_v = loop_lift(v / np.sqrt(w_sq), n_s, n_s)
    # g_apply_pair's two products, stacked: (A, B) are (Z_U, W) with W = conj(Z_V).
    pair = np.vstack((G_h @ np.conj(B), G_h.T @ np.conj(A)))
    return {
        "hankel_corr": (lambda L: hankel_ops.hankel_corr(h, L(B), n_1), H @ B),
        "lift_apply": (lambda L: hankel_ops.lift_operator(h, n_1)[0](L(B)), H @ B),
        "lift_applyH": (lambda L: hankel_ops.lift_operator(h, n_1)[1](L(A)), H.conj().T @ A),
        "g_apply": (lambda L: hankel_ops.g_apply(h, L(B), n_1), G_h @ B),
        "g_apply_pair": (lambda L: np.vstack(hankel_ops.g_apply_pair(h, L(A), L(B))), pair),
        "gstar_gram": (lambda L: hankel_ops.gstar_gram(L(Z)),
                       loop_adjoint(Z @ Z.T) / np.sqrt(w_sq)),
        "gstar_outer": (lambda L: hankel_ops.gstar_outer(L(A), L(B)),
                        loop_adjoint(A @ B.T) / np.sqrt(w_rect)),
        "g_apply_times_conj": (lambda L: hankel_ops.g_apply_times_conj(v, L(Z)),
                               G_v @ np.conj(Z)),
        # The spectrum gstar_gram hands on, as the solver passes it.
        "g_apply_times_conj_spectrum": (
            lambda L: hankel_ops.g_apply_times_conj(
                v, L(Z), z_spectrum=hankel_ops.gstar_gram(L(Z), return_spectrum=True)[1]),
            G_v @ np.conj(Z)),
        # The stacked spectrum gstar_outer hands on, as the two-factor solver passes it.
        "g_apply_pair_spectrum": (
            lambda L: np.vstack(hankel_ops.g_apply_pair(
                h, L(A), L(B),
                spectra=hankel_ops.gstar_outer(L(A), L(B), return_spectra=True)[1])),
            pair),
        "hankel_corr_spectrum": (
            lambda L: hankel_ops.hankel_corr(
                h, L(B), n_1,
                cbar_spectrum=hankel_ops.gstar_outer(L(A), np.conj(L(B)), return_spectra=True)[1][4:]),
            H @ B),
    }


def _layout_cases(rng):
    # Each kernel on a lift within the dense rule (dense products) and, as
    # "<kernel>_fft", on one above it (FFT convolutions).  Spectra exist only
    # above it, so the cases that pass one run there alone.
    dense = (23, 18, 21)
    fft = (90, 85, 86)
    assert max(dense) <= hankel_ops.DENSE_ROWS < min(fft)
    cases = {name: case for name, case in _layout_kernels(rng, *dense).items()
             if not name.endswith("_spectrum")}
    for name, case in _layout_kernels(rng, *fft).items():
        cases[name if name.endswith("_spectrum") else name + "_fft"] = case
    return cases


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("kernel", sorted(_layout_cases(np.random.default_rng(0))))
@pytest.mark.parametrize("dtype, tol", [(np.complex128, 1e-12), (np.complex64, 2e-5)])
def test_kernels_match_dense_on_every_layout(rng, kernel, layout, dtype, tol):
    run, want = _layout_cases(rng)[kernel]
    got = run(lambda a: LAYOUTS[layout](a.astype(dtype)))
    assert got.dtype == dtype
    assert rel(got, want) <= tol


def test_kernels_hand_on_row_spectra_and_column_major_results(rng):
    # Spectra are (cols x nfft) rows; correlations come back with
    # contiguous columns, so column-major factors stay column-major.  A lift
    # above the dense rule, which makes spectra.
    Z = np.asfortranarray(rand_complex(rng, 97, 4))
    assert Z.shape[0] > hankel_ops.DENSE_ROWS
    _, FZ = hankel_ops.gstar_gram(Z, return_spectrum=True)
    assert FZ.shape == (4, 256) and FZ.flags.c_contiguous
    out = hankel_ops.g_apply_times_conj(rand_complex(rng, 193), Z, z_spectrum=FZ)
    assert out.shape == (97, 4) and out.strides[0] == out.itemsize
    assert (out + Z).flags.f_contiguous
    # A spectrum in the old (nfft x cols) layout is refused, not broadcast.
    with pytest.raises(ValueError, match="cols x nfft"):
        hankel_ops.g_apply_times_conj(rand_complex(rng, 193), Z, z_spectrum=FZ.T)
    # A lift within the rule makes no spectrum, and its dense correlations
    # come back column-major too.
    Z = np.asfortranarray(rand_complex(rng, 21, 4))
    _, FZ = hankel_ops.gstar_gram(Z, return_spectrum=True)
    assert FZ is None
    out = hankel_ops.g_apply_times_conj(rand_complex(rng, 41), Z, z_spectrum=FZ)
    assert out.shape == (21, 4) and out.strides[0] == out.itemsize
    assert (out + Z).flags.f_contiguous
    apply, applyH, _ = hankel_ops.lift_operator(rand_complex(rng, 41), 23)
    for act, rows in ((apply, 19), (applyH, 23)):
        assert act(np.asfortranarray(rand_complex(rng, rows, 4))).strides[0] == 16


def test_hankel_corr_refuses_a_lift_with_no_columns(rng):
    h = rand_complex(rng, 5)
    for n_out in (0, 6):
        with pytest.raises(ValueError, match="n_out must lie in"):
            hankel_ops.hankel_corr(h, rand_complex(rng, 2, 1), n_out)


def test_g_apply_times_conj_refuses_a_v_of_the_wrong_length(rng):
    Z = rand_complex(rng, 21, 3)
    for n in (40, 42):
        with pytest.raises(ValueError, match="2 n_s - 1 = 41"):
            hankel_ops.g_apply_times_conj(rand_complex(rng, n), Z)
        # The two-factor pair's lift, 21 x 21, has the same rule.
        with pytest.raises(ValueError, match="n_1 \\+ n_2 - 1 = 41"):
            hankel_ops.g_apply_pair(rand_complex(rng, n), Z, Z)


@pytest.mark.parametrize("rows", [(30, 25), (100, 95)], ids=["dense", "fft"])
def test_gstar_outer_refuses_factors_of_different_widths(rng, rows):
    # On the FFT path a narrower A would pair its columns with the wrong rows
    # of the stacked spectrum and return a vector with no error.
    A, B = rand_complex(rng, rows[0], 3), rand_complex(rng, rows[1], 5)
    with pytest.raises(ValueError, match="A has 3 columns but B has 5"):
        hankel_ops.gstar_outer(A, B)


# ---------------------------------------------------------------------------
# Vandermonde decomposition and rank of model lifts
# ---------------------------------------------------------------------------

def test_lift_of_model_signal_equals_vandermonde_decomposition(rng):
    """H(synthesize(model)) = E diag(d) E^T."""
    for _ in range(100):
        n = random_odd_n(rng, lo=5, hi=127)
        n_s = (n + 1) // 2
        r = int(rng.integers(1, min(4, (n + 1) // 2) + 1))
        model = signal_model.random_model(n, r, rng=rng, damped=bool(rng.integers(2)))
        x = signal_model.synthesize(model)
        E = signal_model.vandermonde(model, n_s)
        want = E @ np.diag(model.amps) @ E.T
        assert rel(hankel_ops.lift_dense(x), want) <= 1e-10


def test_lift_of_model_signal_has_rank_exactly_r(rng):
    for _ in range(10):
        n = 63
        r = int(rng.integers(2, 7))
        model = signal_model.random_model(n, r, rng=rng, min_sep=1.0 / n)
        sig = np.linalg.svd(
            hankel_ops.lift_dense(signal_model.synthesize(model)), compute_uv=False
        )
        assert sig[r] / sig[r - 1] < 1e-8
        assert sig[r - 1] > 0


def test_exact_factor_roundtrip_through_gstar_gram(rng):
    """Z from the Takagi factors of G y reproduces y via G*(Z Z^T)."""
    n = 63
    r = 3
    model = signal_model.random_model(n, r, rng=rng, min_sep=1.0 / n)
    x = signal_model.synthesize(model)
    y = hankel_ops.apply_D(x)

    def apply(V):
        return hankel_ops.lift_dense(x) @ V

    fac = lowrank.takagi_truncated(apply, (n + 1) // 2, r, seed=0)
    Z = fac.U_hat * np.sqrt(fac.sigma)[None, :]
    assert rel(hankel_ops.gstar_gram(Z), y) <= 1e-8


# ---------------------------------------------------------------------------
# Instrumentation
# ---------------------------------------------------------------------------

def test_counter_counts_one_pass_per_column(rng):
    Z = rand_complex(rng, 17, 5)
    v = rand_complex(rng, 33)
    c = hankel_ops.OpCounter()
    hankel_ops.gstar_gram(Z, counter=c)
    assert c.fft_passes == 5
    hankel_ops.g_apply_times_conj(v, Z, counter=c)
    assert c.fft_passes == 10
    hankel_ops.gstar_outer(Z, Z, counter=c)
    assert c.fft_passes == 15
    c.add_flops(7)
    assert c.gram_flops == 7


@pytest.mark.parametrize("n, transforms", [
    (127, False),  # the desk: a 64 x 64 lift
    (2 * hankel_ops.DENSE_ROWS + 1, True),  # one row above the dense rule
])
@pytest.mark.parametrize("step_policy", ["backtracking", "fixed"])
def test_solves_on_small_lifts_make_no_fft_call(monkeypatch, n, transforms, step_policy):
    # Within the dense rule, both solvers' spectral inits and loops take
    # dense products throughout, in complex128 (backtracking) and in
    # complex64 (where a fixed step opens): hankel_ops makes no transform.
    # One row above the rule, it does.
    calls = []

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    fft = SimpleNamespace(fft=counting(scipy.fft.fft), ifft=counting(scipy.fft.ifft))
    monkeypatch.setattr(hankel_ops, "scipy", SimpleNamespace(fft=fft))
    r = 4
    _, _, mask, observed = make_instance(n, r, (3 * n) // 5, 7, min_sep=1.5 / n)
    config = descent.SolverConfig(r=r, max_iters=6, step_policy=step_policy,
                                  rel_change_tol=1e-9, seed=0)
    for solve, passes in ((shgd.recover, 2 * r), (pgd.pgd_recover, 3 * r)):
        calls.clear()
        res = solve(observed, mask, config)
        assert bool(calls) == transforms
        if step_policy == "fixed":
            # The logical count stays one pass per factor column either way.
            assert {rec.fft_passes for rec in res.history} == {passes}


def test_cost_scaling_near_linear(rng):
    """Doubling n at fixed r grows one kernel call by at most 2.6x."""
    import time

    r = 8
    times = {}
    for n_s in (1024, 2048):
        Z = rand_complex(rng, n_s, r)
        hankel_ops.gstar_gram(Z)  # warm the plan/cache path
        reps = []
        for _ in range(9):
            t0 = time.perf_counter()
            hankel_ops.gstar_gram(Z)
            reps.append(time.perf_counter() - t0)
        times[n_s] = np.median(reps)
    assert times[2048] / times[1024] <= 2.6


# ---------------------------------------------------------------------------
# Precision: complex64 in, complex64 out
# ---------------------------------------------------------------------------

def _single_precision_cases(rng):
    n_s, r = 257, 5
    n = 2 * n_s - 1
    Z = rand_complex(rng, n_s, r)
    W = rand_complex(rng, n_s + 20, r)
    v = rand_complex(rng, n)
    small = rand_complex(rng, 2 * 40 - 1)
    assert 40 <= hankel_ops.DENSE_ROWS < n_s
    return {
        "gstar_gram": lambda c: hankel_ops.gstar_gram(c(Z)),
        "gstar_outer": lambda c: hankel_ops.gstar_outer(c(Z), c(W)),
        "hankel_corr": lambda c: hankel_ops.hankel_corr(c(v), c(Z), n_s),
        # A complex128 signal correlates in the block's precision, by FFT
        # and densely.
        "hankel_corr_double_signal": lambda c: hankel_ops.hankel_corr(v, c(Z), n_s),
        "hankel_corr_double_signal_dense": lambda c: hankel_ops.hankel_corr(small, c(Z[:40]), 40),
        "g_apply_times_conj": lambda c: hankel_ops.g_apply_times_conj(c(v), c(Z)),
        "apply_D": lambda c: hankel_ops.apply_D(c(v)),
        "apply_D_inv": lambda c: hankel_ops.apply_D_inv(c(v)),
    }


@pytest.mark.parametrize("kernel", [
    "gstar_gram", "gstar_outer", "hankel_corr", "hankel_corr_double_signal",
    "hankel_corr_double_signal_dense", "g_apply_times_conj", "apply_D", "apply_D_inv",
])
def test_kernels_keep_single_precision(rng, kernel):
    run = _single_precision_cases(rng)[kernel]
    single = run(lambda a: a.astype(np.complex64))
    double = run(lambda a: a.astype(np.complex128))
    assert single.dtype == np.complex64
    assert double.dtype == np.complex128
    assert rel(single, double) <= 2e-6


@pytest.mark.parametrize("n, n_rows, dense", [(75, 40, True), (183, 100, False)],
                         ids=["dense", "fft"])
def test_lift_operator_acts_in_the_precision_of_its_block(rng, n, n_rows, dense):
    # Both actions are correlations: the lift's on u and its adjoint's, the
    # n_cols-row lift, on conj(u); each runs in its block's precision.
    u = rand_complex(rng, n)
    apply, applyH, (n_rows, n_cols) = hankel_ops.lift_operator(u, n_rows)
    assert (max(n_rows, n_cols) <= hankel_ops.DENSE_ROWS) == dense
    V = rand_complex(rng, n_cols, 3)
    U = rand_complex(rng, n_rows, 3)
    M = hankel_ops.lift_dense(u, n_rows=n_rows)
    assert np.array_equal(apply(V), hankel_ops.hankel_corr(u, V, n_rows))
    assert np.array_equal(applyH(U), hankel_ops.hankel_corr(np.conj(u), U, n_cols))
    for act, block, want, signal, rows in ((apply, V, M @ V, u, n_rows),
                                           (applyH, U, M.conj().T @ U, np.conj(u), n_cols)):
        block64 = block.astype(np.complex64)
        single = act(block64)
        assert single.dtype == np.complex64
        assert rel(single, want) <= 1e-5
        # The whole product runs in complex64: the bits of a complex64 signal's.
        signal64 = signal.astype(np.complex64)
        assert np.array_equal(single, hankel_ops.hankel_corr(signal64, block64, rows))
        assert act(block).dtype == np.complex128
