"""Lag profile, valley/peak searches, period resolution, and learning."""

import math

import numpy as np
import pytest

from cbnet import (
    DimensionError,
    EmptyInputError,
    LearnConfig,
    NoPeakError,
    ObservationStream,
    PeriodRangeError,
    dft_magnitude,
    find_tp,
    find_ts,
    fold,
    frame_pair,
    lag_dependence,
    learn_cbn,
    resolve_period,
)
from cbnet.cpt import M_MAX
from cbnet.period import first_spectral_peak, harmonic_period


def stream_of(rows):
    return ObservationStream(np.asarray(rows, dtype=np.int8))


def planted_stream(T_r, reps, M=3, noise=0.05, seed=0):
    rng = np.random.default_rng(seed)
    base = rng.integers(0, 2, (M, T_r))
    tiled = np.tile(base, reps)
    flips = rng.random(tiled.shape) < noise
    return stream_of(tiled ^ flips)


def markov_stream(n, stay=0.9, seed=7):
    rng = np.random.default_rng(seed)
    v = np.empty(n, dtype=np.int8)
    v[0] = 0
    flips = rng.random(n - 1) > stay
    for i in range(1, n):
        v[i] = v[i - 1] ^ flips[i - 1]
    return stream_of(v[None, :])


# -- independent reference path: per-frame counting + literal edge sums ------

def oracle_lag_dependence(stream, x, eps=1e-3):
    from cbnet import CliqueCPT, counting_oracle, direct_cpbd

    raw = stream.values
    m, n = raw.shape
    f = n // x
    total = 0.0
    for t in range(x):
        col = raw[:, t : f * x : x]
        parent, child = col[:, :-1], col[:, 1:]
        B, counts = counting_oracle(parent, child)
        Bc = np.where(counts[:, None] > 0, np.clip(B, eps, 1 - eps), 0.5)
        cpt = CliqueCPT(M=m, B=Bc, counts=counts, eps=eps)
        for i in range(1, m + 1):
            for k in range(1, m + 1):
                total += direct_cpbd(cpt, i, k)
    return total / (x * m * m)


class TestLagDependence:
    def test_iid_stream_near_zero(self):
        rng = np.random.default_rng(123)
        s = stream_of((rng.random((1, 20000)) < 0.5).astype(np.int8))
        for x in (2, 3, 5):
            assert lag_dependence(s, x) < 0.1

    def test_deterministic_lag_copy_maximal(self):
        # period-x stream: every phase column is constant, so each phase's
        # CPT has one observed row (clamped to an extreme) and one unseen
        # row at the 0.5 default, giving |ln((1-eps)/0.5)| + |ln(0.5/eps)|
        # = |ln(eps/(1-eps))| per phase
        eps = 1e-3
        base = np.array([1, 0, 1, 1, 0], dtype=np.int8)
        s = stream_of(np.tile(base, 400)[None, :])
        expect = abs(math.log(eps / (1 - eps)))
        assert lag_dependence(s, 5, eps=eps) == pytest.approx(expect, rel=1e-9)

    def test_boundary_two_frames(self):
        s = stream_of([[0, 1] * 6])
        val = lag_dependence(s, 6)  # K = 1 pair per phase
        assert val >= 0.0

    def test_lag_too_large(self):
        s = stream_of([[0, 1] * 4])
        with pytest.raises(PeriodRangeError):
            lag_dependence(s, 5)

    def test_matches_independent_reference(self):
        # about 50 frames per phase at small lags
        s = planted_stream(4, 200, M=2, seed=3)
        for x in (2, 3, 4, 5):
            assert lag_dependence(s, x) == pytest.approx(
                oracle_lag_dependence(s, x), rel=1e-12
            )
        # every lag up to N//2 (two frames per phase), N not a multiple of
        # most lags, so trailing slots are dropped
        for M in (1, 2, 3, 4):
            s = planted_stream(5, 13, M=M, seed=3)
            for x in range(1, s.slot_count // 2 + 1):
                assert lag_dependence(s, x) == pytest.approx(
                    oracle_lag_dependence(s, x), rel=1e-12
                )
        s = planted_stream(5, 13, M=4, seed=3)
        sub = stream_of(s.values[[3, 0]])
        for x in range(1, s.slot_count // 2 + 1):
            assert lag_dependence(s, x, sensors=[3, 0]) == pytest.approx(
                oracle_lag_dependence(sub, x), rel=1e-12
            )

    def test_sensor_selection_validated(self):
        s = planted_stream(4, 10, M=3)
        with pytest.raises(ValueError):
            lag_dependence(s, 2, sensors=[0, 0])
        with pytest.raises(ValueError):
            lag_dependence(s, 2, sensors=[2, -1])
        with pytest.raises(IndexError):
            lag_dependence(s, 2, sensors=[3])
        with pytest.raises(EmptyInputError):
            lag_dependence(s, 2, sensors=[])

    def test_too_many_sensors(self):
        s = planted_stream(4, 4, M=M_MAX + 1)
        with pytest.raises(DimensionError):
            lag_dependence(s, 2)


class TestFindTs:
    def test_decreasing_then_flat_profile(self):
        profile = {1: 9.0, 2: 7.0, 3: 5.0, 4: 4.0, 5: 4.0, 6: 4.0, 7: 4.0}
        s = stream_of([[0, 1] * 50])
        assert find_ts(s, _profile=lambda x: profile.get(x, 4.0)) == 4

    def test_interior_valley(self):
        values = {2: 5.0, 3: 3.0, 4: 4.0, 5: 2.0}
        s = stream_of([[0, 1] * 50])
        assert find_ts(s, _profile=lambda x: values.get(x, 6.0)) == 3

    def test_window_extends_when_no_early_valley(self):
        # strictly decreasing until lag 11, then rising
        s = stream_of([[0, 1] * 50])
        assert find_ts(s, _profile=lambda x: abs(11 - x)) == 11

    def test_markov_matches_reference_scan(self):
        s = markov_stream(50000)
        got = find_ts(s)
        # independent full scan over the oracle-computed profile
        d = {x: oracle_lag_dependence(s, x) for x in range(2, got + 2)}
        for x in range(3, got):
            assert not (d[x] <= d[x - 1] and d[x] <= d[x + 1])
        assert d[got] <= d[got - 1] and d[got] <= d[got + 1]

    def test_planted_period_decorrelates_within_one_period(self):
        s = planted_stream(8, 2500)
        assert find_ts(s) <= 9


class TestDftMagnitude:
    def test_constant_sequence(self):
        out = dft_magnitude([3.0] * 8)
        assert out[0] == pytest.approx(24.0)
        np.testing.assert_allclose(out[1:], 0.0, atol=1e-12)

    def test_pure_tone(self):
        x = np.arange(16)
        out = dft_magnitude(np.cos(2 * np.pi * 2 * x / 16))
        assert out[2] == pytest.approx(8.0) and out[14] == pytest.approx(8.0)
        mask = np.ones(16, bool)
        mask[[2, 14]] = False
        np.testing.assert_allclose(out[mask], 0.0, atol=1e-9)

    def test_matches_naive_dft(self):
        rng = np.random.default_rng(5)
        d = rng.normal(size=37)
        naive = np.array(
            [
                abs(sum(d[x] * np.exp(-2j * np.pi * k * x / 37) for x in range(37)))
                for k in range(37)
            ]
        )
        np.testing.assert_allclose(dft_magnitude(d), naive, atol=1e-9)


class TestFindTp:
    def test_period8_comb(self):
        s = stream_of([[0, 1] * 600])
        tp, spectrum = find_tp(s, 7, _profile=lambda x: 1.0 if x % 8 == 0 else 0.0)
        assert tp == 4

    def test_constant_profile_has_no_peak(self):
        s = stream_of([[0, 1] * 40])
        with pytest.raises(NoPeakError):
            find_tp(s, 5, _profile=lambda x: 2.5)

    def test_planted_period6(self):
        s = planted_stream(6, 2**13, seed=1)
        ts = find_ts(s)
        tp, _ = find_tp(s, ts)
        expected = {6, 3, 2} if ts <= 6 else {6}
        assert tp in expected

    def test_peak_helper(self):
        assert first_spectral_peak(np.array([9.0, 1, 5, 1, 0, 1, 1, 1])) == 2
        assert first_spectral_peak(np.array([4.0, 1, 1, 1, 1, 1, 1, 1])) is None

    def test_harmonic_helper(self):
        assert harmonic_period(8.0, 7) == 4
        assert harmonic_period(8.0, 9) == 8
        assert harmonic_period(7.5, 4) == 3  # round(7.5/2) rounds half up
        assert harmonic_period(6.0, 1) is None


class TestResolvePeriod:
    @pytest.mark.parametrize("ts,tp,expect", [(7, 4, 8), (5, 5, 5), (1, 3, 3)])
    def test_examples(self, ts, tp, expect):
        assert resolve_period(ts, tp) == expect

    def test_exhaustive_small_integers(self):
        for ts in range(1, 30):
            for tp in range(1, 30):
                t = resolve_period(ts, tp)
                assert t % tp == 0 and t >= max(ts - 1, 1)
                assert t - tp < max(ts - 1, 1)  # minimality

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            resolve_period(0, 3)


class TestLearnCbn:
    def test_override_structure(self):
        rng = np.random.default_rng(0)
        s = stream_of((rng.random((3, 2000)) < 0.3).astype(np.int8))
        model = learn_cbn(s, LearnConfig(period=8))
        assert model.period == 8
        assert len(model.cpts) == len(model.deps) == 7
        for dep in model.deps:
            np.testing.assert_allclose(np.diag(dep.D), 1.0)

    def test_override_out_of_range(self):
        s = stream_of([[0, 1] * 10])
        with pytest.raises(PeriodRangeError):
            learn_cbn(s, LearnConfig(period=11))

    def test_too_many_sensors(self):
        # rejected up front, before any per-sensor scan or period fold
        s = planted_stream(4, 4, M=M_MAX + 1)
        with pytest.raises(DimensionError):
            learn_cbn(s)
        with pytest.raises(DimensionError):
            learn_cbn(s, LearnConfig(period=2))

    def test_paper_scenario_fast_region(self):
        # single seeded run of the road simulator in the fast-speed region;
        # period estimates across seeds land around 8
        from cbnet import SimulationConfig, run

        cfg = SimulationConfig(
            duration_slots=36000, speed_range=(100.8 / 3.6, 158.4 / 3.6), seed=3
        )
        model = learn_cbn(run(cfg))
        assert 7 <= model.period <= 11

    @pytest.mark.xfail(
        reason="the first-local-minimum valley rule terminates at the early "
        "generic dip of the lag profile (coprime lags pool to the whole-"
        "stream statistics, so the profile cannot rise before lag ~3); "
        "planted periods are therefore not recoverable by this scheme",
        strict=False,
    )
    def test_planted_period12_recovered(self):
        s = planted_stream(12, 4000)
        model = learn_cbn(s)
        assert model.period == 12

    def test_blind_learn_evaluates_each_lag_once(self, monkeypatch):
        import cbnet.period as period

        s = planted_stream(12, 300, seed=2)
        ts = [find_ts(s, sensors=[i]) for i in range(s.sensor_count)]
        l0 = max(2, math.ceil(math.log2(max(max(ts), 2))))
        ts_star = find_ts(s, initial_exponent=l0)
        tp, _ = find_tp(s, ts_star)
        reference = learn_cbn(s, LearnConfig(period=resolve_period(ts_star, tp)))

        keys = []
        evaluate = period.lag_dependence

        def counted(stream, x, sensors=None, eps=1e-3):
            keys.append((None if sensors is None else tuple(sensors), x))
            return evaluate(stream, x, sensors=sensors, eps=eps)

        monkeypatch.setattr(period, "lag_dependence", counted)
        model = learn_cbn(s)
        assert keys and len(keys) == len(set(keys))
        assert {k for k in keys if k[0] is None} >= {(None, x) for x in range(2, 5)}
        assert model.period == reference.period
        for got, want in zip(model.cpts, reference.cpts, strict=True):
            assert np.array_equal(got.B, want.B)
            assert np.array_equal(got.counts, want.counts)
        for got, want in zip(model.deps, reference.deps, strict=True):
            assert np.array_equal(got.D, want.D)

    def test_short_stream_warns(self):
        s = stream_of([[0, 1] * 8])
        with pytest.warns(UserWarning):
            learn_cbn(s, LearnConfig(period=8))
