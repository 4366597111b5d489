"""Mode estimation from completed signals (rotational-invariance method)."""

import numpy as np
import pytest

from hankel_scs import freq_est, lowrank, signal_model


def sorted_model(model):
    order = np.argsort(model.freqs)
    return (np.asarray(model.freqs)[order],
            np.asarray(model.dampings)[order],
            np.asarray(model.amps)[order])


def test_recovers_separated_undamped_modes():
    model = signal_model.random_model(
        63, 3, rng=np.random.default_rng(7), min_sep=0.05)
    x = signal_model.synthesize(model)
    est = freq_est.esprit(x, 3)
    f, tau, a = sorted_model(model)
    assert np.max(np.abs(est.freqs - f)) <= 1e-8
    assert np.max(np.abs(est.dampings - tau)) <= 1e-8
    assert np.max(np.abs(est.amps - a)) <= 1e-6 * np.max(np.abs(a))


def test_pure_tone_quarter_frequency():
    model = signal_model.SpectralModel(
        n=32, freqs=np.array([0.25]), dampings=np.array([0.0]),
        amps=np.array([2.0 - 1.0j]),
    )
    x = signal_model.synthesize(model)
    est = freq_est.esprit(x, 1)
    assert est.freqs[0] == pytest.approx(0.25, abs=1e-10)
    assert est.dampings[0] == pytest.approx(0.0, abs=1e-10)
    assert est.amps[0] == pytest.approx(2.0 - 1.0j, abs=1e-10)


def test_damped_mode_decay_rate():
    model = signal_model.SpectralModel(
        n=63, freqs=np.array([0.1, 0.62]), dampings=np.array([0.05, 0.01]),
        amps=np.array([1.0 + 0.0j, 0.5 + 0.5j]),
    )
    x = signal_model.synthesize(model)
    est = freq_est.esprit(x, 2)
    assert np.max(np.abs(est.freqs - [0.1, 0.62])) <= 1e-8
    assert np.max(np.abs(est.dampings - [0.05, 0.01])) <= 1e-6


def test_resynthesis_matches_input():
    model = signal_model.random_model(
        63, 4, rng=np.random.default_rng(11), min_sep=0.04, damped=True)
    x = signal_model.synthesize(model)
    est = freq_est.esprit(x, 4)
    rebuilt = signal_model.synthesize(signal_model.SpectralModel(
        n=63, freqs=est.freqs, dampings=est.dampings, amps=est.amps))
    assert np.linalg.norm(rebuilt - x) <= 1e-8 * np.linalg.norm(x)


def test_frequencies_sorted_and_in_unit_interval():
    for seed in range(5):
        model = signal_model.random_model(
            63, 5, rng=np.random.default_rng(seed), min_sep=0.03)
        est = freq_est.esprit(signal_model.synthesize(model), 5)
        assert np.all(np.diff(est.freqs) >= 0)
        assert np.all((est.freqs >= 0) & (est.freqs < 1))


def test_rejects_bad_rank_and_short_signals():
    x = np.ones(10, dtype=complex)
    with pytest.raises(ValueError):
        freq_est.esprit(x, 0)
    with pytest.raises(ValueError):
        freq_est.esprit(np.ones(6, dtype=complex), 3)  # needs 2r+1 = 7
    three_modes = signal_model.synthesize(signal_model.SpectralModel(
        n=7, freqs=np.array([0.1, 0.4, 0.7]), dampings=np.zeros(3),
        amps=np.ones(3, dtype=complex)))
    est = freq_est.esprit(three_modes, 3)  # boundary length works
    assert np.max(np.abs(est.freqs - [0.1, 0.4, 0.7])) <= 1e-8


def test_rank_deficient_signal_raises():
    model = signal_model.SpectralModel(
        n=63, freqs=np.array([0.3]), dampings=np.array([0.0]),
        amps=np.array([1.0 + 0.0j]),
    )
    x = signal_model.synthesize(model)  # true rank 1
    with pytest.raises(lowrank.RankDeficiencyError):
        freq_est.esprit(x, 3)


def test_amplitudes_match_the_complex_power_vandermonde():
    model = signal_model.random_model(
        127, 5, rng=np.random.default_rng(3), min_sep=0.03, damped=True)
    x = signal_model.synthesize(model)
    est = freq_est.esprit(x, 5)
    poles = np.exp(-est.dampings + 2j * np.pi * est.freqs)
    vand = poles[None, :] ** np.arange(x.shape[0])[:, None]
    amps = np.linalg.lstsq(vand, x, rcond=None)[0]
    assert np.max(np.abs(est.amps - amps)) <= 1e-12 * np.max(np.abs(amps))
