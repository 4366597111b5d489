"""Signal generator, sampling, noise, and file-format contracts."""

import json

import numpy as np
import pytest

from hankel_scs import signal_model
from conftest import rand_complex, rel


# ---------------------------------------------------------------------------
# synthesize
# ---------------------------------------------------------------------------

def test_constant_tone():
    model = signal_model.SpectralModel(
        n=4, freqs=np.array([0.0]), dampings=np.array([0.0]), amps=np.array([1.0 + 0j])
    )
    assert np.allclose(signal_model.synthesize(model), [1, 1, 1, 1], atol=1e-15)


def test_nyquist_tone():
    model = signal_model.SpectralModel(
        n=4, freqs=np.array([0.5]), dampings=np.array([0.0]), amps=np.array([1.0 + 0j])
    )
    assert np.allclose(signal_model.synthesize(model), [1, -1, 1, -1], atol=1e-12)


def test_synthesize_matches_per_sample_loop(rng):
    model = signal_model.random_model(15, 3, rng=rng, damped=True)
    x = signal_model.synthesize(model)
    for t in range(15):
        want = sum(
            d * np.exp((2j * np.pi * f - tau) * t)
            for d, f, tau in zip(model.amps, model.freqs, model.dampings)
        )
        assert abs(x[t] - want) <= 1e-12 * max(abs(want), 1.0)


def test_vandermonde_examples():
    model = signal_model.SpectralModel(
        n=7, freqs=np.array([0.25]), dampings=np.array([0.0]), amps=np.array([1.0 + 0j])
    )
    E = signal_model.vandermonde(model, 4)
    assert np.allclose(E[:, 0], [1, 1j, -1, -1j], atol=1e-14)
    assert np.allclose(signal_model.vandermonde(model, 1), [[1.0]])


# ---------------------------------------------------------------------------
# random_model
# ---------------------------------------------------------------------------

def test_random_model_amplitude_law_and_no_damping(rng):
    model = signal_model.random_model(63, 8, rng=rng)
    mags = np.abs(model.amps)
    # |d_k| = 1 + 10^{0.5 c_k}, c_k uniform on [0, 1)
    assert np.all(mags >= 2.0)
    assert np.all(mags < 1.0 + 10.0**0.5)
    assert np.all(model.dampings == 0.0)
    assert np.all((model.freqs >= 0) & (model.freqs < 1))


def test_random_model_damped_range(rng):
    model = signal_model.random_model(63, 5, rng=rng, damped=True,
                                      damping_range=(0.01, 0.02))
    assert np.all((model.dampings >= 0.01) & (model.dampings <= 0.02))


def wraparound_min_sep(freqs):
    diffs = np.abs(freqs[:, None] - freqs[None, :])
    diffs = np.minimum(diffs, 1.0 - diffs)
    return float(diffs[np.triu_indices(len(freqs), k=1)].min())


def test_random_model_separation_enforced(rng):
    n = 126
    for _ in range(200):
        model = signal_model.random_model(n, 4, rng=rng, min_sep=1.5 / n)
        assert wraparound_min_sep(model.freqs) >= 1.5 / n


def test_random_model_infeasible_separation_raises(rng):
    with pytest.raises(signal_model.SeparationError):
        signal_model.random_model(63, 5, rng=rng, min_sep=0.25)


def test_random_model_deterministic():
    a = signal_model.random_model(63, 4, rng=np.random.default_rng(5))
    b = signal_model.random_model(63, 4, rng=np.random.default_rng(5))
    assert np.array_equal(a.freqs, b.freqs)
    assert np.array_equal(a.amps, b.amps)


# ---------------------------------------------------------------------------
# uniform_mask
# ---------------------------------------------------------------------------

def test_mask_full_and_single(rng):
    full = signal_model.uniform_mask(9, 9, rng=rng)
    assert np.array_equal(full.indices, np.arange(9))
    one = signal_model.uniform_mask(9, 1, rng=rng)
    assert one.m == 1 and 0 <= one.indices[0] < 9


def test_mask_without_replacement_sorted_unique(rng):
    for _ in range(50):
        n = int(rng.integers(2, 80))
        m = int(rng.integers(1, n + 1))
        mask = signal_model.uniform_mask(n, m, rng=rng)
        idx = np.asarray(mask.indices)
        assert len(np.unique(idx)) == m
        assert np.all(np.diff(idx) > 0)
        assert idx.min() >= 0 and idx.max() < n


def test_mask_m_exceeding_n_rejected(rng):
    with pytest.raises(ValueError):
        signal_model.uniform_mask(5, 6, rng=rng)


def test_mask_with_replacement_allows_repeats():
    rng = np.random.default_rng(0)
    mask = signal_model.uniform_mask(4, 50, with_replacement=True, rng=rng)
    assert mask.m == 50
    assert len(np.unique(np.asarray(mask.indices))) <= 4


def test_mask_index_distribution_uniform():
    """Empirical index frequencies within 4 sigma of the binomial mean."""
    n, m, draws = 50, 10, 20000
    rng = np.random.default_rng(123)
    counts = np.zeros(n)
    for _ in range(draws):
        counts[np.asarray(signal_model.uniform_mask(n, m, rng=rng).indices)] += 1
    p = m / n
    sigma = np.sqrt(draws * p * (1 - p))
    assert np.all(np.abs(counts - draws * p) <= 4 * sigma)


def test_mask_determinism():
    a = signal_model.uniform_mask(63, 20, rng=np.random.default_rng(7))
    b = signal_model.uniform_mask(63, 20, rng=np.random.default_rng(7))
    assert np.array_equal(a.indices, b.indices)


# ---------------------------------------------------------------------------
# observe
# ---------------------------------------------------------------------------

def test_observe_noiseless_zero_fills_off_mask(rng):
    x = rand_complex(rng, 21)
    mask = signal_model.uniform_mask(21, 8, rng=rng)
    obs = signal_model.observe(x, mask)
    on = np.zeros(21, bool)
    on[np.asarray(mask.indices)] = True
    assert np.array_equal(obs[on], x[on])
    assert np.all(obs[~on] == 0)


def test_observe_noise_norm_is_exact(rng):
    x = rand_complex(rng, 63)
    mask = signal_model.uniform_mask(63, 30, rng=rng)
    clean = signal_model.observe(x, mask)
    for sigma_e in (1e-3, 0.1, 2.0):
        noisy = signal_model.observe(x, mask, sigma_e=sigma_e, rng=rng)
        ratio = np.linalg.norm(noisy - clean) / np.linalg.norm(clean)
        assert ratio == pytest.approx(sigma_e, rel=1e-12)


def test_observe_sigma_point_one_gives_20db_snr(rng):
    x = rand_complex(rng, 63)
    mask = signal_model.uniform_mask(63, 63, rng=rng)
    clean = signal_model.observe(x, mask)
    noisy = signal_model.observe(x, mask, sigma_e=0.1, rng=rng)
    snr_db = 20 * np.log10(np.linalg.norm(clean) / np.linalg.norm(noisy - clean))
    assert snr_db == pytest.approx(20.0, abs=1e-9)


def test_observe_deterministic_given_seed(rng):
    x = rand_complex(rng, 21)
    mask = signal_model.uniform_mask(21, 9, rng=rng)
    a = signal_model.observe(x, mask, sigma_e=0.3, rng=np.random.default_rng(2))
    b = signal_model.observe(x, mask, sigma_e=0.3, rng=np.random.default_rng(2))
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def test_ssig_roundtrip_and_field_order(tmp_path, rng):
    x = rand_complex(rng, 15)
    mask = signal_model.uniform_mask(15, 6, rng=rng)
    obs = signal_model.observe(x, mask, sigma_e=0.05, rng=rng)
    path = tmp_path / "sig.ssig.json"
    signal_model.save_ssig(path, obs, mask)

    doc = json.loads(path.read_text())
    assert list(doc.keys()) == ["n", "observed", "samples"]
    assert doc["n"] == 15
    assert len(doc["samples"]) == 15

    back, mask_back = signal_model.load_ssig(path)
    assert np.array_equal(back, obs)
    assert np.array_equal(mask_back.indices, mask.indices)
    assert mask_back.n == mask.n


def test_ssig_rejects_malformed_samples(tmp_path):
    path = tmp_path / "bad.ssig.json"
    path.write_text(json.dumps({"n": 3, "observed": [0], "samples": [[1, 0]]}))
    with pytest.raises(ValueError):
        signal_model.load_ssig(path)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_ssig_rejects_nonfinite_samples(tmp_path, bad):
    path = tmp_path / "bad.ssig.json"
    path.write_text(json.dumps(
        {"n": 3, "observed": [0, 2], "samples": [[1, 0], [0, 0], [bad, 0]]}))
    with pytest.raises(ValueError, match="finite"):
        signal_model.load_ssig(path)


def test_smodel_roundtrip(tmp_path, rng):
    model = signal_model.random_model(63, 4, rng=rng, damped=True)
    path = tmp_path / "m.model.json"
    signal_model.save_smodel(path, model)
    back = signal_model.load_smodel(path)
    assert back.n == model.n and back.r == model.r
    assert np.array_equal(back.freqs, model.freqs)
    assert np.array_equal(back.dampings, model.dampings)
    assert np.array_equal(back.amps, model.amps)
    doc = json.loads(path.read_text())
    assert list(doc.keys()) == ["n", "r", "freqs", "dampings", "amps_re", "amps_im"]


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def test_mask_validation():
    with pytest.raises(ValueError):
        signal_model.SamplingMask(5, np.array([5]))  # out of range
    with pytest.raises(ValueError):
        signal_model.SamplingMask(5, np.array([1, 1]))  # dup without replacement


def test_model_validation():
    with pytest.raises(ValueError):
        signal_model.SpectralModel(
            n=3, freqs=np.array([0.1, 0.2]), dampings=np.array([0.0]),
            amps=np.array([1.0 + 0j]),
        )
