"""Structured-operator properties against brute-force oracles."""

import numpy as np
import pytest

from hankel_scs import hankel_ops, lowrank, signal_model
from conftest import (
    loop_adjoint,
    loop_lift,
    loop_weights,
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
    """Passing cached spectra must not change any output."""
    n_s = 33
    r = 4
    Z = rand_complex(rng, n_s, r)
    v = rand_complex(rng, 2 * n_s - 1)
    g, FZ = hankel_ops.gstar_gram(Z, return_spectrum=True)
    direct = hankel_ops.g_apply_times_conj(v, Z)
    reused = hankel_ops.g_apply_times_conj(v, Z, z_spectrum=FZ)
    assert rel(reused, direct) <= 1e-14

    A = rand_complex(rng, 20, 3)
    B = rand_complex(rng, 14, 3)
    out, FA, FB = hankel_ops.gstar_outer(A, B, return_spectra=True)
    h = rand_complex(rng, 33)
    direct = hankel_ops.hankel_corr(h, np.conj(B), 20)
    reused = hankel_ops.hankel_corr(h, np.conj(B), 20, cbar_spectrum=FB)
    assert rel(reused, direct) <= 1e-14


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
