"""Truncated SVD, truncated Takagi factorization, and spectral initialization."""

import inspect
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from hankel_scs import hankel_ops, lowrank, pgd, signal_model
from conftest import make_instance, rand_complex, rel


def matvec_pair(M):
    return (lambda V: M @ V), (lambda U: M.conj().T @ U)


def random_rank_k(rng, n_rows, n_cols, k, spectrum=None):
    U, _ = np.linalg.qr(rand_complex(rng, n_rows, k))
    V, _ = np.linalg.qr(rand_complex(rng, n_cols, k))
    s = np.sort(rng.uniform(1.0, 5.0, k))[::-1] if spectrum is None else np.asarray(spectrum)
    return U @ np.diag(s) @ V.conj().T, s


def random_symmetric_rank_k(rng, n, k):
    A = rand_complex(rng, n, k)
    return A @ A.T


# ---------------------------------------------------------------------------
# trunc_svd
# ---------------------------------------------------------------------------

def test_trunc_svd_diagonal_example():
    M = np.diag([3.0, 2.0, 1.0]).astype(complex)
    apply, applyH = matvec_pair(M)
    _, sigma, _ = lowrank.trunc_svd(apply, applyH, (3, 3), 2, seed=0)
    assert np.allclose(sigma, [3.0, 2.0], atol=1e-10)


def test_trunc_svd_zero_matrix():
    M = np.zeros((4, 4), dtype=complex)
    apply, applyH = matvec_pair(M)
    U, sigma, V = lowrank.trunc_svd(apply, applyH, (4, 4), 2, seed=0)
    assert np.allclose(sigma, 0.0, atol=1e-12)
    assert rel(U.conj().T @ U, np.eye(2)) <= 1e-10


def test_trunc_svd_exact_low_rank_reconstruction(rng):
    M, _ = random_rank_k(rng, 40, 40, 5)
    apply, applyH = matvec_pair(M)
    U, sigma, V = lowrank.trunc_svd(apply, applyH, (40, 40), 5, seed=1)
    recon = U @ np.diag(sigma) @ V.conj().T
    assert np.linalg.norm(recon - M) <= 1e-8 * sigma[0]


def test_trunc_svd_matches_dense_oracle(rng):
    for trial in range(10):
        n_rows = int(rng.integers(5, 129))
        n_cols = int(rng.integers(5, 129))
        r = int(rng.integers(1, 6))
        M = rand_complex(rng, n_rows, n_cols)
        apply, applyH = matvec_pair(M)
        _, sigma, _ = lowrank.trunc_svd(apply, applyH, (n_rows, n_cols), r, seed=trial)
        want = np.linalg.svd(M, compute_uv=False)[:r]
        assert np.max(np.abs(sigma - want)) <= 1e-9 * want[0]


def test_trunc_svd_rectangular(rng):
    M, s = random_rank_k(rng, 30, 50, 4)
    apply, applyH = matvec_pair(M)
    U, sigma, V = lowrank.trunc_svd(apply, applyH, (30, 50), 4, seed=3)
    assert U.shape == (30, 4) and V.shape == (50, 4)
    assert np.allclose(sigma, s, atol=1e-9 * s[0])


def test_trunc_svd_deterministic(rng):
    M = rand_complex(rng, 20, 20)
    apply, applyH = matvec_pair(M)
    out1 = lowrank.trunc_svd(apply, applyH, (20, 20), 3, seed=11)
    out2 = lowrank.trunc_svd(apply, applyH, (20, 20), 3, seed=11)
    for a, b in zip(out1, out2):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("strict", [True, False])
def test_trunc_svd_rejects_an_empty_round_budget(rng, strict):
    apply, applyH = matvec_pair(rand_complex(rng, 10, 10))
    with pytest.raises(ValueError, match="max_rounds"):
        lowrank.trunc_svd(apply, applyH, (10, 10), 2, seed=0,
                          max_rounds=0, strict=strict)
    # So is a rank outside [1, min(dims)].
    for r in (0, 11):
        with pytest.raises(ValueError, match="1 <= r <= min"):
            lowrank.trunc_svd(apply, applyH, (10, 11), r, seed=0, strict=strict)


@pytest.mark.parametrize("max_rounds", [1, 2])
@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
def test_trunc_svd_short_budgets_return_orthonormal_factors(rng, max_rounds, dtype):
    # Budgets that end before the first convergence test still factor the
    # last round's basis.
    M = rand_complex(rng, 60, 45)
    apply, applyH = matvec_pair(M)
    U, sigma, V = lowrank.trunc_svd(apply, applyH, (60, 45), 4, seed=0, tol=1e-300,
                                    max_rounds=max_rounds, strict=False, dtype=dtype)
    assert U.shape == (60, 4) and V.shape == (45, 4)
    assert rel(U.conj().T @ U, np.eye(4)) <= 1e-12
    assert rel(V.conj().T @ V, np.eye(4)) <= 1e-12
    assert np.all(np.diff(sigma) <= 0)
    want = np.linalg.svd(M, compute_uv=False)[:4]
    assert np.all(sigma <= want * (1 + 1e-12)) and sigma[0] >= 0.5 * want[0]


def test_trunc_svd_factors_only_the_rounds_it_tests(rng, monkeypatch):
    # Each round's Ritz pairs are tested in the next round, so every round
    # takes one SVD and the test first runs in round 2; a zero operator
    # exits there, from the SVD of its zero R, and so does an exactly
    # low-rank one.
    svds = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        svds.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(lowrank.np.linalg, "svd", counting)
    M = rand_complex(rng, 40, 40)
    apply, applyH = matvec_pair(M)
    rounds = 6
    lowrank.trunc_svd(apply, applyH, (40, 40), 3, seed=0, tol=1e-300,
                      max_rounds=rounds, strict=False)
    assert len(svds) == rounds
    svds.clear()
    applied = []
    zero = np.zeros((40, 40), dtype=complex)
    lowrank.trunc_svd(lambda V: applied.append(1) or zero @ V, lambda U: zero @ U,
                      (40, 40), 3, seed=0, max_rounds=rounds)
    assert len(svds) == 1 and len(applied) == 2
    svds.clear()
    applied = []
    low = rand_complex(rng, 40, 3) @ rand_complex(rng, 3, 40)
    U, sigma, V = lowrank.trunc_svd(lambda V: applied.append(1) or low @ V,
                                    lambda U: low.conj().T @ U, (40, 40), 3, seed=0)
    assert len(svds) == 1 and len(applied) == 2
    assert rel((U * sigma) @ V.conj().T, low) <= 1e-12


def test_trunc_svd_strict_nonconvergence_raises(rng):
    M = rand_complex(rng, 60, 60)  # full-rank noise: slow tail convergence
    apply, applyH = matvec_pair(M)
    with pytest.raises(lowrank.ConvergenceError):
        lowrank.trunc_svd(apply, applyH, (60, 60), 3, seed=0,
                          tol=1e-300, max_rounds=1, strict=True)


# ---------------------------------------------------------------------------
# takagi_truncated
# ---------------------------------------------------------------------------

def test_takagi_identity_matrix():
    M = np.eye(3, dtype=complex)
    fac = lowrank.takagi_truncated(lambda V: M @ V, 3, 3, seed=0)
    assert np.allclose(fac.sigma, [1, 1, 1], atol=1e-10)
    recon = fac.U_hat @ np.diag(fac.sigma) @ fac.U_hat.T
    assert rel(recon, M) <= 1e-10
    assert rel(fac.U_hat.conj().T @ fac.U_hat, np.eye(3)) <= 1e-10


def test_takagi_rank_one_closed_form(rng):
    z = rand_complex(rng, 12)
    M = np.outer(z, z)
    fac = lowrank.takagi_truncated(lambda V: M @ V, 12, 1, seed=0)
    assert fac.sigma[0] == pytest.approx(np.linalg.norm(z) ** 2, rel=1e-12)
    recon = fac.U_hat @ np.diag(fac.sigma) @ fac.U_hat.T
    assert np.linalg.norm(recon - M) <= 1e-12 * np.linalg.norm(M)


def test_takagi_on_model_lift(rng):
    model = signal_model.random_model(15, 3, rng=rng, min_sep=0.1)
    M = hankel_ops.lift_dense(signal_model.synthesize(model))
    fac = lowrank.takagi_truncated(lambda V: M @ V, 8, 3, seed=0)
    recon = fac.U_hat @ np.diag(fac.sigma) @ fac.U_hat.T
    assert np.linalg.norm(recon - M) <= 1e-9 * np.linalg.norm(M)


def test_takagi_matches_truncated_svd_error(rng):
    """Takagi reconstruction error equals the truncated-SVD error (1e-8 rel)."""
    for trial in range(10):
        n = int(rng.integers(8, 41))
        seed_mat = rand_complex(rng, n, n)
        M = seed_mat + seed_mat.T  # complex symmetric, full rank
        r = int(rng.integers(1, 6))
        fac = lowrank.takagi_truncated(lambda V: M @ V, n, r, seed=trial)
        recon = fac.U_hat @ np.diag(fac.sigma) @ fac.U_hat.T
        err = np.linalg.norm(M - recon)
        sig = np.linalg.svd(M, compute_uv=False)
        best = np.linalg.norm(sig[r:])
        assert err <= best + 1e-8 * sig[0]
        assert rel(fac.U_hat.conj().T @ fac.U_hat, np.eye(r)) <= 1e-10
        assert np.all(np.diff(fac.sigma) <= 1e-12)  # nonincreasing


def test_takagi_handles_singular_value_clusters(rng):
    """Repeated, nearly repeated and tiny singular values: the reconstruction
    is still symmetric-exact, or the best rank-r approximation."""
    U, _ = np.linalg.qr(rand_complex(rng, 16, 5))
    for s in ([3.0, 2.0, 2.0, 2.0, 1.0], [3.0, 2.0 + 1e-7, 2.0, 2.0 - 1e-7, 1.0]):
        s = np.array(s)
        M = U @ np.diag(s) @ U.T
        M = 0.5 * (M + M.T)
        fac = lowrank.takagi_truncated(lambda V: M @ V, 16, 5, seed=0)
        recon = fac.U_hat @ np.diag(fac.sigma) @ fac.U_hat.T
        assert np.allclose(fac.sigma, s, atol=1e-8)
        assert np.linalg.norm(recon - M) <= 1e-12 * np.linalg.norm(M)
    # A full-rank operator at scale 1e-20: no absolute floor may treat its
    # values as zero.
    seed_mat = rand_complex(rng, 12, 12)
    M = 1e-20 * (seed_mat + seed_mat.T)
    fac = lowrank.takagi_truncated(lambda V: M @ V, 12, 4, seed=0)
    err = np.linalg.norm(M - fac.U_hat @ np.diag(fac.sigma) @ fac.U_hat.T)
    best = np.linalg.norm(np.linalg.svd(M, compute_uv=False)[4:])
    assert abs(err - best) <= 1e-8 * best


def test_takagi_rejects_asymmetric_operator(rng):
    M = rand_complex(rng, 10, 10)  # generic: not symmetric
    with pytest.raises(ValueError, match="symmetric"):
        lowrank.takagi_truncated(lambda V: M @ V, 10, 2, seed=0)


def test_takagi_rank_deficiency_error(rng):
    M = random_symmetric_rank_k(rng, 12, 2)
    with pytest.raises(lowrank.RankDeficiencyError):
        lowrank.takagi_truncated(lambda V: M @ V, 12, 5, seed=0)


def test_takagi_deterministic(rng):
    M = random_symmetric_rank_k(rng, 14, 3)
    a = lowrank.takagi_truncated(lambda V: M @ V, 14, 3, seed=4)
    b = lowrank.takagi_truncated(lambda V: M @ V, 14, 3, seed=4)
    assert np.array_equal(a.U_hat, b.U_hat)
    assert np.array_equal(a.sigma, b.sigma)


# ---------------------------------------------------------------------------
# spectral_init
# ---------------------------------------------------------------------------

def full_mask_instance(rng, n=63, r=3):
    model = signal_model.random_model(n, r, rng=rng, min_sep=1.0 / n)
    x = signal_model.synthesize(model)
    mask = signal_model.uniform_mask(n, n, rng=rng)
    return x, mask


def test_spectral_init_full_mask_is_exact(rng):
    x, mask = full_mask_instance(rng)
    y = hankel_ops.apply_D(x)
    Z0, sigma1 = lowrank.spectral_init(y, mask, 3, seed=0)
    Gy = hankel_ops.lift_dense(x)  # G y = H x when y = D x
    assert rel(Z0 @ Z0.T, Gy) <= 1e-8
    assert sigma1 == pytest.approx(np.linalg.svd(Gy, compute_uv=False)[0], rel=1e-6)


def _count_subspace_rounds(monkeypatch) -> list:
    """Wrap ``lowrank.trunc_svd`` so each call appends its number of subspace
    rounds, counted as calls of its ``applyH`` (one per round)."""
    rounds = []
    trunc_svd = lowrank.trunc_svd
    signature = inspect.signature(trunc_svd)

    def counted(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        applyH = bound.arguments["applyH"]
        rounds.append(0)

        def counted_applyH(U):
            rounds[-1] += 1
            return applyH(U)

        bound.arguments["applyH"] = counted_applyH
        return trunc_svd(*bound.args, **bound.kwargs)

    monkeypatch.setattr(lowrank, "trunc_svd", counted)
    return rounds


def test_both_inits_spend_the_round_budget_when_undersampled(monkeypatch):
    """At m = 0.3 n the sampled lift has no spectral gap at r, so neither init
    reaches INIT_TOL: each stops after exactly the 4-round budget."""
    n, r, m = 127, 4, 38
    _, _, mask, observed = make_instance(n, r, m, 1, min_sep=1.5 / n)
    y = hankel_ops.apply_D(observed)
    rounds = _count_subspace_rounds(monkeypatch)
    lowrank.spectral_init(y, mask, r, seed=0)
    pgd.rect_spectral_init(y, mask, r, seed=0)
    assert rounds == [4, 4]


def test_spectral_init_partial_mask_sanity_band():
    """At m = 0.5 n the rescaled truncated lift lands within a factor-0.5
    relative band of the true lift for typical draws (median over seeds;
    band established by a 50-seed sweep before pinning)."""
    ratios = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n, r, m = 127, 4, 63
        model = signal_model.random_model(n, r, rng=rng)
        x = signal_model.synthesize(model)
        mask = signal_model.uniform_mask(n, m, rng=rng)
        y = hankel_ops.apply_D(signal_model.observe(x, mask))
        Z0, _ = lowrank.spectral_init(y, mask, r, seed=seed)
        Gy = hankel_ops.lift_dense(x)
        ratios.append(np.linalg.norm(Z0 @ Z0.T - Gy) / np.linalg.norm(Gy))
    assert np.median(ratios) <= 0.5
    assert max(ratios) <= 0.7


def test_spectral_init_scaling_homogeneity(rng):
    x, mask = full_mask_instance(rng)
    y = hankel_ops.apply_D(x)
    Z0, s1 = lowrank.spectral_init(y, mask, 3, seed=0)
    Z0c, s1c = lowrank.spectral_init(4.0 * y, mask, 3, seed=0)
    assert s1c == pytest.approx(4.0 * s1, rel=1e-8)
    assert rel(Z0c @ Z0c.T, 4.0 * (Z0 @ Z0.T)) <= 1e-8


def test_spectral_init_rank_too_large(rng):
    x, mask = full_mask_instance(rng, n=15, r=2)
    y = hankel_ops.apply_D(x)
    with pytest.raises((ValueError, lowrank.RankDeficiencyError)):
        lowrank.spectral_init(y, mask, 9, seed=0)


def test_spectral_init_refuses_an_even_length(rng):
    x, mask = full_mask_instance(rng, n=14, r=2)
    with pytest.raises(ValueError, match="odd length"):
        lowrank.spectral_init(hankel_ops.apply_D(x), mask, 2, seed=0)


def _block(rng, rows, cols, kind):
    """A rows x cols block: Gaussian, of exact rank cols - 10, of condition
    1e9 with its singular values spread log-evenly, or with a zero column."""
    if kind == "rank_deficient":
        return rand_complex(rng, rows, cols - 10) @ rand_complex(rng, cols - 10, cols)
    if kind == "kappa_1e9":
        U, _ = np.linalg.qr(rand_complex(rng, rows, cols))
        V, _ = np.linalg.qr(rand_complex(rng, cols, cols))
        return (U * np.logspace(0, -9, cols)) @ V.conj().T
    A = rand_complex(rng, rows, cols)
    if kind == "zero_column":
        A[:, 5] = 0
    return A


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
@pytest.mark.parametrize("rows, cols, kind, cholesky, flag", [
    (64, 14, "gaussian", True, True), (64, 22, "gaussian", True, True),  # small
    (256, 160, "gaussian", True, True),  # fewer than 4 rows per column
    (1024, 40, "rank_deficient", True, False), (1024, 40, "kappa_1e9", True, False),
    (1024, 40, "zero_column", True, False), (1024, 40, "gaussian", False, False),
])
def test_qr_has_the_bits_of_scipys_economic_qr(rng, dtype, rows, cols, kind, cholesky, flag):
    # Below the crossover, for blocks outside CholeskyQR2's range and after
    # a block of the same operator fell outside it, two direct LAPACK calls
    # in place of scipy's wrapper: the same Q and R, Q column-major, in the
    # block's precision, the block left unchanged.  Only a block that tried
    # CholeskyQR2 and fell outside its range turns the flag off.
    for A in (np.asfortranarray(_block(rng, rows, cols, kind).astype(dtype)),
              np.ascontiguousarray(_block(rng, rows, cols, kind).astype(dtype))):
        before = A.copy()
        Q, R, handed_on = lowrank._qr(A, cholesky)
        Q_ref, R_ref = scipy.linalg.qr(A, mode="economic")
        assert np.array_equal(Q, Q_ref) and np.array_equal(R, R_ref)
        assert handed_on == flag
        assert Q.flags.f_contiguous and Q.dtype == R.dtype == dtype
        assert np.array_equal(A, before)


@pytest.mark.parametrize("dtype, orth_tol", [(np.complex128, 1e-13), (np.complex64, 1e-5)])
@pytest.mark.parametrize("rows, cols, kappa", [(1024, 40, 1.0), (2048, 40, 1e2), (256, 64, 1.0)])
def test_qr_above_the_crossover_is_choleskyqr2(rng, dtype, orth_tol, rows, cols, kappa):
    # A Gaussian block, or one of condition 100, well inside the range: the
    # flag stays on only when both CholeskyQR2 passes ran.
    assert rows * cols ** 2 >= lowrank.CHOLESKY_QR_FROM and rows >= 4 * cols
    U, _ = np.linalg.qr(rand_complex(rng, rows, cols))
    V, _ = np.linalg.qr(rand_complex(rng, cols, cols))
    eps = np.finfo(dtype).eps
    for A in (np.asfortranarray(((U * np.logspace(0, -np.log10(kappa), cols))
                                 @ V.conj().T).astype(dtype)),
              np.ascontiguousarray(rand_complex(rng, rows, cols).astype(dtype))):
        before = A.copy()
        Q, R, handed_on = lowrank._qr(A)
        assert handed_on
        assert Q.flags.f_contiguous and Q.dtype == R.dtype == dtype
        assert np.linalg.norm(Q.conj().T @ Q - np.eye(cols)) <= orth_tol
        assert np.array_equal(R, np.triu(R))
        assert np.linalg.norm(A - Q @ R) <= 20 * eps * np.linalg.norm(A)
        assert np.array_equal(A, before)


# ---------------------------------------------------------------------------
# complex64 subspace rounds with a double-precision finish
# ---------------------------------------------------------------------------

def _in_block_precision(M):
    """Actions of M that run in the precision of the block they are given."""
    single = M.astype(np.complex64)

    def pick(V):
        return single if V.dtype == np.complex64 else M

    return (lambda V: pick(V) @ V), (lambda U: pick(U).conj().T @ U)


def test_trunc_svd_finishes_complex64_rounds_in_double(rng):
    M, s = random_rank_k(rng, 60, 50, 5)
    seen = []
    apply, applyH = _in_block_precision(M)

    def recording(U):
        seen.append(U.dtype)
        return applyH(U)

    U, sigma, V = lowrank.trunc_svd(apply, recording, (60, 50), 5, seed=0,
                                    tol=1e-3, max_rounds=4, dtype=np.complex64)
    # The rounds ran in complex64, then one double-precision applyH.
    assert seen[:-1] and set(seen[:-1]) == {np.dtype(np.complex64)}
    assert seen[-1] == np.complex128
    assert U.dtype == V.dtype == np.complex128 and sigma.dtype == np.float64
    assert rel(U.conj().T @ U, np.eye(5)) <= 1e-12
    assert rel(V.conj().T @ V, np.eye(5)) <= 1e-12
    # Ritz values err in the square of the single-precision subspace angle.
    assert np.max(np.abs(sigma - s)) <= 1e-12 * s[0]


def _sampled_lift(n=127, r=4, m=76, seed=1):
    _, _, mask, observed = make_instance(n, r, m, seed, min_sep=1.5 / n)
    return observed, mask


def _spy_trunc_svd(monkeypatch) -> list:
    """Record (dtype of the rounds, U, V) of every ``lowrank.trunc_svd`` call."""
    calls = []
    trunc_svd = lowrank.trunc_svd

    def spying(*args, **kwargs):
        U, sig, V = trunc_svd(*args, **kwargs)
        calls.append((kwargs.get("dtype", np.complex128), U, V))
        return U, sig, V

    monkeypatch.setattr(lowrank, "trunc_svd", spying)
    return calls


@pytest.mark.parametrize("rect", [False, True])
def test_complex64_inits_are_double_precision_factors(monkeypatch, rect):
    observed, mask = _sampled_lift()
    r = 4
    y = hankel_ops.apply_D(observed)
    if rect:
        def init(dtype):
            Z_U, Z_V, s1 = pgd.rect_spectral_init(y, mask, r, seed=0, dtype=dtype)
            return (Z_U, Z_V), s1
    else:
        def init(dtype):
            Z0, s1 = lowrank.spectral_init(y, mask, r, seed=0, dtype=dtype)
            return (Z0,), s1

    calls = _spy_trunc_svd(monkeypatch)
    factors, s1 = init(np.complex64)
    (dtype, U, V), = calls
    assert dtype == np.complex64
    for Q in (U, V):
        assert Q.dtype == np.complex128
        assert rel(Q.conj().T @ Q, np.eye(r)) <= 1e-12
    # The returned factors are F = Q diag(sigma)^(1/2) with Q orthonormal.
    for F in factors:
        assert F.dtype == np.complex128
        gram = F.conj().T @ F
        assert rel(gram, np.diag(np.diag(gram).real)) <= 1e-12
    _, s1_double = init(np.complex128)
    assert s1 == pytest.approx(s1_double, rel=1e-5)


def test_complex64_inits_still_refuse_a_rank_deficient_lift(rng):
    x, mask = full_mask_instance(rng, n=63, r=2)  # lift of rank exactly 2
    with pytest.raises(lowrank.RankDeficiencyError):
        lowrank.spectral_init(hankel_ops.apply_D(x), mask, 4, seed=0, dtype=np.complex64)
    y = hankel_ops.apply_D(x)
    with pytest.raises(lowrank.RankDeficiencyError):
        pgd.rect_spectral_init(y, mask, 4, seed=0, dtype=np.complex64)


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
@pytest.mark.parametrize("n, r, m", [(127, 4, 76), (1023, 10, 400)])
def test_takagi_core_after_complex64_rounds_is_read_off_the_finish(monkeypatch, dtype, n, r, m):
    # After complex64 rounds the double finish gives M^H U = V Sigma, so the
    # core U^H M conj(U) is U^H conj(V) Sigma and takes no correlation; after
    # complex128 rounds the core is the one r-column apply after the rounds.
    observed, mask = _sampled_lift(n, r, m)
    u = hankel_ops.apply_D_inv(hankel_ops.p_omega(hankel_ops.apply_D(observed), mask)) / mask.p
    n_s = hankel_ops.rect_dims(n)[0]
    apply, _, _ = hankel_ops.lift_operator(u, n_s)
    cols = []

    def counted(V):
        cols.append(V.shape[1])
        return apply(V)

    calls = _spy_trunc_svd(monkeypatch)
    cores = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda K: cores.append(K) or eigh(K))
    lowrank.takagi_truncated(counted, n_s, r, seed=0, tol=lowrank.INIT_TOL,
                             max_rounds=lowrank.INIT_MAX_ROUNDS, strict=False, dtype=dtype)
    (_, U, _), = calls
    K, = cores
    # The probes apply 1 column and the rounds r + OVERSAMPLE.
    assert cols.count(r) == (dtype == np.complex128)
    S = K[:r, :r] - 1j * K[r:, :r]  # K = [[Re S, -Im S], [-Im S, -Re S]]
    S_corr = U.conj().T @ apply(np.conj(U))
    assert rel(S, 0.5 * (S_corr + S_corr.T)) <= 1e-12


@pytest.mark.parametrize("signal", ["noise", "rank_r"])
def test_trunc_svd_tries_choleskyqr2_until_a_block_falls_outside_its_range(monkeypatch, signal):
    # Every block of a subspace iteration spans the same operator's range:
    # on noise each QR above the crossover takes CholeskyQR2, and on an
    # exactly rank-r lift (ESPRIT's case) only the first block tries it.
    n, r = 4095, 30
    rng = np.random.default_rng(0)
    if signal == "noise":
        u = rand_complex(rng, n)
    else:
        u = np.exp(2j * np.pi * np.outer(np.arange(n), rng.random(r))).sum(axis=1)
    apply, applyH, dims = hankel_ops.lift_operator(u, hankel_ops.rect_dims(n)[0])
    assert dims[0] * (r + lowrank.OVERSAMPLE) ** 2 >= lowrank.CHOLESKY_QR_FROM
    tried = []
    qr = lowrank._qr
    monkeypatch.setattr(lowrank, "_qr", lambda A, cholesky=True: tried.append(cholesky)
                        or qr(A, cholesky))
    lowrank.trunc_svd(apply, applyH, dims, r, seed=0, tol=1e-9, max_rounds=4, strict=False)
    if signal == "noise":
        assert tried == [True] * 9
    else:
        assert tried == [True, False, False]


# Traced memory of one trunc_svd call on the FFT lift of a length-4095
# signal (2048 x 2048, nfft 4096), in blocks: a block is the 2048 x b test
# block in double precision (b = r + OVERSAMPLE = 40), so a double-precision
# spectrum (b x nfft) is two.  A round holds at most its correlation's
# spectrum, Q, the last round's P and the test's two 2048 x r products: 5.5
# blocks in complex128 rounds (read 5.6).  complex64 rounds hold half that,
# and their double-precision finish holds Q in both precisions, one spectrum
# and the QR's copy: 4 blocks (read 4.1).  Rounds that keep the test block,
# the last round's P and Q, and each correlation's spectrum until its name
# is rebound read 9.6-11.0 and 8.0.
SVD_BLOCK_BUDGET = {np.complex128: 6.5, np.complex64: 5.0}


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
@pytest.mark.parametrize("signal", ["noise", "rank_r"])
def test_trunc_svd_releases_each_block_once_it_is_dead(dtype, signal):
    # Noise runs the whole round budget; an exactly rank-r signal stops at
    # the round-2 test in complex128, the path whose result reads Q and prev.
    n, r = 4095, 30
    rng = np.random.default_rng(0)
    if signal == "noise":
        u = rand_complex(rng, n)
    else:
        u = np.exp(2j * np.pi * np.outer(np.arange(n), rng.random(r))).sum(axis=1)
    apply, applyH, dims = hankel_ops.lift_operator(u, hankel_ops.rect_dims(n)[0])

    def svd():
        return lowrank.trunc_svd(apply, applyH, dims, r, seed=0, tol=1e-9,
                                 max_rounds=4, strict=False, dtype=dtype)

    svd()  # FFT plans and the lift's geometry are cached
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        svd()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    block = dims[0] * (r + lowrank.OVERSAMPLE) * 16
    assert peak / block <= SVD_BLOCK_BUDGET[dtype]
