"""Mode estimation from completed signals (rotational-invariance method)."""

import numpy as np
import pytest

from hankel_scs import freq_est, hankel_ops, lowrank, signal_model


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


def test_dc_mode_stays_in_the_unit_interval():
    # np.mod rounds the angle of a DC pole, about -1e-17, up to exactly 1.0.
    # A slightly larger negative angle is a legitimate frequency just below
    # 1, so the DC mode is matched on the circle.
    true = np.array([0.0, 0.3, 0.55])
    for seed in range(40):
        rng = np.random.default_rng(seed)
        model = signal_model.SpectralModel(
            n=63, freqs=true, dampings=np.zeros(3),
            amps=rng.standard_normal(3) + 1j * rng.standard_normal(3),
        )
        est = freq_est.esprit(signal_model.synthesize(model), 3)
        assert np.all((est.freqs >= 0) & (est.freqs < 1))
        assert np.all(np.diff(est.freqs) >= 0)
        gap = np.abs(est.freqs[:, None] - true[None, :])
        assert np.minimum(gap, 1 - gap).min(axis=0).max() <= 1e-8


def test_dc_mode_sorts_first():
    # The DC pole's angle can also round to one ulp below 1 (in draw 36 it
    # came back as 1 - 1.1e-16 and sorted last); it folds to 0 and sorts first.
    true = np.array([0.0, 0.3, 0.55])
    for seed in range(40):
        rng = np.random.default_rng(seed)
        model = signal_model.SpectralModel(
            n=63, freqs=true, dampings=np.zeros(3),
            amps=rng.standard_normal(3) + 1j * rng.standard_normal(3),
        )
        est = freq_est.esprit(signal_model.synthesize(model), 3)
        assert np.abs(est.freqs - true).max() <= 1e-8, seed


def test_rejects_non_finite_samples():
    x = signal_model.synthesize(signal_model.random_model(
        63, 2, rng=np.random.default_rng(1), min_sep=0.05))
    for bad in (np.nan, np.inf, complex(0, -np.inf)):
        y = x.copy()
        y[17] = bad
        with pytest.raises(ValueError, match="finite"):
            freq_est.esprit(y, 2)


def test_impulse_in_the_last_sample_has_a_defined_estimate():
    # The lift of an impulse in the last sample is e_last e_last^T, so U's
    # last row has norm 1 and U_down carries no information.  ESPRIT returns
    # a vanishing pole and amplitude, with no warning (the suite runs with
    # RuntimeWarning as an error in CI).
    for n in (63, 64):
        x = np.zeros(n, dtype=complex)
        x[-1] = 2.0
        est = freq_est.esprit(x, 1)
        assert 0 <= est.freqs[0] < 1
        assert est.dampings[0] >= 20  # |pole| <= 2e-9
        assert abs(est.amps[0]) <= 1e-12


def _models():
    rng = np.random.default_rng(5)
    return [signal_model.random_model(127, 4, rng=rng, min_sep=0.03, damped=damped)
            for damped in (False, True)]


@pytest.mark.parametrize("model", _models(), ids=["undamped", "damped"])
def test_rank_one_shift_solve_matches_the_pseudoinverse(model):
    x = signal_model.synthesize(model)
    U, _, _ = lowrank.lift_svd(x, 4, seed=0, tol=1e-10, max_rounds=60, rank_tol=1e-12)
    want = np.linalg.pinv(U[:-1]) @ U[1:]
    assert np.abs(freq_est._shift_operator(U) - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("model", _models(), ids=["undamped", "damped"])
@pytest.mark.parametrize("n", [127, 1001])
def test_power_table_vandermonde_matches_the_exponential_form(model, n):
    poles = np.exp(-np.asarray(model.dampings) + 2j * np.pi * np.asarray(model.freqs))
    want = np.exp(np.arange(n)[:, None] * np.log(poles)[None, :])
    got = freq_est._vandermonde(poles, n)
    assert got.shape == (n, 4)
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def test_vandermonde_column_of_a_zero_pole_is_the_first_unit_vector():
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        got = freq_est._vandermonde(np.array([0.0, 0.5j]), 10)
    assert got[0, 0] == 1 and np.abs(got[1:, 0]).max() <= 1e-300
    want = 0.5j ** np.arange(10)
    assert np.all(np.abs(got[:, 1] - want) <= 1e-15 * np.abs(want))


def test_esprit_applies_the_lift_twice_and_its_adjoint_twice(monkeypatch):
    # The lift of an exactly rank-r signal is captured by one power round:
    # the range finder's apply, one round's applyH and apply, then the
    # convergence test's applyH.  On a lift above the dense rule, both are
    # correlations: the lift's on x, its adjoint's on conj(x).
    model = signal_model.random_model(201, 4, rng=np.random.default_rng(2), min_sep=0.03)
    assert (201 + 1) // 2 > hankel_ops.DENSE_ROWS
    x = signal_model.synthesize(model)
    calls = []
    hankel_corr = hankel_ops.hankel_corr

    def recording(h, *args, **kwargs):
        signal = {"apply": x, "applyH": np.conj(x)}
        calls.extend(name for name, s in signal.items() if np.array_equal(h, s))
        return hankel_corr(h, *args, **kwargs)

    monkeypatch.setattr(hankel_ops, "hankel_corr", recording)
    est = freq_est.esprit(x, 4)
    assert sorted(calls) == ["apply", "apply", "applyH", "applyH"]
    assert np.max(np.abs(est.freqs - np.sort(model.freqs))) <= 1e-10
