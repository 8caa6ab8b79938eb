"""Lag profile, valley/peak searches, period resolution, and learning."""

import hashlib
import itertools
import math
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbnet import (
    ConfigError,
    DimensionError,
    EmptyInputError,
    InsufficientDataError,
    NoPeakError,
    NoValleyError,
    ObservationStream,
    PeriodRangeError,
    bbcpt,
    cpbd_clique,
    dft_magnitude,
    find_tp,
    find_ts,
    fold,
    frame_pair,
    lag_dependence,
    learn_cbn,
    normalize,
    paper_period,
    resolve_period,
)
from cbnet.cpt import M_MAX, pattern_codes
from cbnet.period import (
    _average_point,
    _rejects,
    find_null_period,
    first_spectral_peak,
    harmonic_period,
    phase_dependence,
)


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
        cpt = CliqueCPT(M=m, B=Bc, counts=counts)
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

    @pytest.mark.parametrize("x", [2.0, True])
    def test_non_integer_lag_refused(self, x):
        with pytest.raises(PeriodRangeError):
            lag_dependence(planted_stream(4, 10), x)

    def test_one_code_one_count_and_no_bbcpt(self, monkeypatch):
        # the selected rows are coded once and all x phases of the lag take
        # one pair_counts call, the front of the blind search
        import cbnet.period as period

        coded, counted = [], []
        code, count = period.pattern_codes, period.pair_counts

        def counted_code(values):
            coded.append(values.shape)
            return code(values)

        def counted_count(parent, child, m):
            counted.append((parent.shape, m))
            return count(parent, child, m)

        def unreachable(*args, **kwargs):
            raise AssertionError("lag_dependence called bbcpt")

        monkeypatch.setattr(period, "pattern_codes", counted_code)
        monkeypatch.setattr(period, "pair_counts", counted_count)
        monkeypatch.setattr(period, "bbcpt", unreachable)
        s = planted_stream(6, 50, M=4)
        lag_dependence(s, 7)
        assert coded == [(4, 300)] and counted == [((41, 7), 4)]
        coded.clear()
        counted.clear()
        lag_dependence(s, 5, sensors=[2, 0])
        assert coded == [(2, 300)] and counted == [((59, 5), 2)]

    def test_holds_one_phase_table_at_a_time(self):
        # x = 1000 phases of M = 8: keeping every phase's 256-row counts and
        # B would peak near 18 MB; one table at a time leaves the one count
        # of the stream's 3000 slots, well under 2 MiB
        rng = np.random.default_rng(0)
        s = stream_of(rng.random((8, 3000)) < 0.3)
        lag_dependence(s, 1000)  # warm any first-call caches
        tracemalloc.start()
        try:
            lag_dependence(s, 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 21

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_equals_per_phase_bbcpt_sum(self, data):
        # byte for byte the sum of per-phase bbcpt + cpbd_clique, in phase order
        M = data.draw(st.integers(1, 12))
        n = data.draw(st.integers(4, 300))
        x = data.draw(st.integers(1, n // 2))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        s = stream_of(rng.random((M, n)) < data.draw(st.sampled_from([0.1, 0.5])))
        sensors = data.draw(
            st.none() | st.lists(st.integers(0, M - 1), min_size=1, unique=True)
        )
        eps = data.draw(st.sampled_from([5e-13, 1e-3, 0.49]))
        frames = fold(s, x) if sensors is None else fold(s, x)[sensors]
        total = 0.0
        for p in range(x):
            cpt = bbcpt(frames[:, :-1, p], frames[:, 1:, p], eps=eps)
            total += float(cpbd_clique(cpt).D.sum())
        want = total / (x * len(frames) ** 2)
        got = lag_dependence(s, x, sensors=sensors, eps=eps)
        assert got.hex() == want.hex()

    @pytest.mark.parametrize("eps", [0.7, 0.5, 0.0, -1e-3, math.nan])
    def test_bad_eps_rejected_before_any_count(self, monkeypatch, eps):
        import cbnet.period as period

        def unreachable(*args, **kwargs):
            raise AssertionError("counted before checking eps")

        monkeypatch.setattr(period, "pattern_codes", unreachable)
        monkeypatch.setattr(period, "pair_counts", unreachable)
        with pytest.raises(ValueError, match="eps"):
            lag_dependence(planted_stream(4, 10), 2, eps=eps)


class TestFindTs:
    def test_decreasing_then_flat_profile(self):
        profile = {1: 9.0, 2: 7.0, 3: 5.0, 4: 4.0, 5: 4.0, 6: 4.0, 7: 4.0}
        s = stream_of([[0, 1] * 50])
        assert find_ts(lambda x: profile.get(x, 4.0), s.slot_count // 2) == 4

    def test_interior_valley(self):
        values = {2: 5.0, 3: 3.0, 4: 4.0, 5: 2.0}
        s = stream_of([[0, 1] * 50])
        assert find_ts(lambda x: values.get(x, 6.0), s.slot_count // 2) == 3

    def test_window_extends_when_no_early_valley(self):
        # strictly decreasing until lag 11, then rising
        s = stream_of([[0, 1] * 50])
        assert find_ts(lambda x: abs(11 - x), s.slot_count // 2) == 11

    def test_markov_matches_reference_scan(self):
        s = markov_stream(50000)
        got = find_ts(lambda x: lag_dependence(s, x), s.slot_count // 2)
        # independent full scan over the oracle-computed profile
        d = {x: oracle_lag_dependence(s, x) for x in range(2, got + 2)}
        for x in range(3, got):
            assert not (d[x] <= d[x - 1] and d[x] <= d[x + 1])
        assert d[got] <= d[got - 1] and d[got] <= d[got + 1]

    def test_planted_period_decorrelates_within_one_period(self):
        s = planted_stream(8, 2500)
        assert find_ts(lambda x: lag_dependence(s, x), s.slot_count // 2) <= 9

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(st.sampled_from([0.0, 1.0, 2.0]), min_size=3, max_size=40),
        data=st.data(),
    )
    def test_first_valley_by_definition(self, values, data):
        # values[x - 1] is the profile at lag x; few levels make plateaus and ties
        max_lag = data.draw(st.integers(3, len(values)))
        seen = []

        def profile(x):
            seen.append(x)
            return values[x - 1]

        d = dict(enumerate(values, start=1))
        valleys = [
            x for x in range(3, max_lag) if d[x] <= d[x - 1] and d[x] <= d[x + 1]
        ]
        if valleys:
            assert find_ts(profile, max_lag) == valleys[0]
        else:
            with pytest.raises(NoValleyError):
                find_ts(profile, max_lag)
        assert max(seen) <= max_lag


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
        tp = find_tp(lambda x: 1.0 if x % 8 == 0 else 0.0, s.slot_count // 2, 7)
        assert tp == 4

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(st.sampled_from([0.0, 1.0, 2.0]), min_size=3, max_size=70),
        data=st.data(),
    )
    def test_no_lag_above_max_lag(self, values, data):
        max_lag = data.draw(st.integers(3, len(values)))
        ts_star = data.draw(st.integers(1, max_lag))
        seen = []

        def profile(x):
            seen.append(x)
            return values[x - 1]

        try:
            assert isinstance(find_tp(profile, max_lag, ts_star), int)
        except NoPeakError:
            pass
        assert max(seen, default=1) <= max_lag

    def test_constant_profile_has_no_peak(self):
        s = stream_of([[0, 1] * 40])
        with pytest.raises(NoPeakError):
            find_tp(lambda x: 2.5, s.slot_count // 2, 5)

    def test_planted_period6(self):
        s = planted_stream(6, 2**13, seed=1)
        max_lag = s.slot_count // 2
        ts = find_ts(lambda x: lag_dependence(s, x), max_lag)
        tp = find_tp(lambda x: lag_dependence(s, x), max_lag, ts)
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
        model = learn_cbn(s, period=8)
        assert model.period == 8
        assert len(model.cpts) == len(model.deps) == 7
        for dep in model.deps:
            np.testing.assert_allclose(np.diag(dep.D), 1.0)

    def test_override_out_of_range(self):
        s = stream_of([[0, 1] * 10])
        with pytest.raises(PeriodRangeError):
            learn_cbn(s, period=11)

    @pytest.mark.parametrize("period", [2.5, 5.0, True, np.bool_(True), "5"])
    def test_non_integer_period_rejected(self, period):
        # int() would learn 2.5 at T = 2 and True at T = 1
        s = stream_of([[0, 1] * 10])
        with pytest.raises(ConfigError, match="period must be an integer"):
            learn_cbn(s, period=period)

    def test_numpy_integer_period(self, tmp_path):
        # stored as an int, so the model file is that of period=5
        from cbnet.cli import model_to_dict, write_model_json

        rng = np.random.default_rng(1)
        s = stream_of((rng.random((2, 200)) < 0.3).astype(np.int8))
        paths = [tmp_path / "int.json", tmp_path / "np.json"]
        for period, path in zip((5, np.int64(5)), paths):
            model = learn_cbn(s, period=period)
            assert type(model.period) is int
            assert type(model.provenance["period_override"]) is int
            write_model_json(model_to_dict(model), path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("epsilon", [0.7, 0.5, 0.0, -1e-3, math.nan])
    def test_bad_epsilon_rejected_before_search(self, monkeypatch, epsilon):
        # the period search never reads epsilon, so it is checked first
        import cbnet.period as period

        def unreachable(stream):
            raise AssertionError("the period search ran")

        monkeypatch.setattr(period, "find_null_period", unreachable)
        s = planted_stream(4, 40)
        with pytest.raises(ValueError, match="eps"):
            learn_cbn(s, epsilon=epsilon)
        with pytest.raises(ValueError, match="eps"):
            learn_cbn(s, period=1, epsilon=epsilon)  # no clique to learn

    def test_too_many_sensors(self):
        # rejected up front, before any per-sensor scan or period fold
        s = planted_stream(4, 4, M=M_MAX + 1)
        with pytest.raises(DimensionError):
            learn_cbn(s)
        with pytest.raises(DimensionError):
            learn_cbn(s, period=2)

    def test_paper_scenario_fast_region(self):
        # single seeded run of the road simulator in the fast-speed region;
        # period estimates across seeds land around 8
        from cbnet import SimulationConfig, run

        cfg = SimulationConfig(
            duration_slots=36000, speed_range=(100.8 / 3.6, 158.4 / 3.6), seed=3
        )
        model = learn_cbn(run(cfg))
        assert 7 <= model.period <= 11

    def test_planted_period12_recovered(self):
        s = planted_stream(12, 4000)
        model = learn_cbn(s)
        assert model.period == 12

    def test_blind_learn_evaluates_each_lag_once(self, monkeypatch):
        import cbnet.period as period

        s = planted_stream(12, 300, seed=2)
        max_lag = s.slot_count // 2
        ts_star = find_ts(lambda x: lag_dependence(s, x), max_lag)
        tp = find_tp(lambda x: lag_dependence(s, x), max_lag, ts_star)
        reference = learn_cbn(s, period=resolve_period(ts_star, tp))

        keys = []
        evaluate = period.lag_dependence

        def counted(stream, x, sensors=None, eps=1e-3):
            keys.append((None if sensors is None else tuple(sensors), x))
            return evaluate(stream, x, sensors=sensors, eps=eps)

        monkeypatch.setattr(period, "lag_dependence", counted)
        model = learn_cbn(s, period=paper_period(s))
        assert keys and len(keys) == len(set(keys))
        assert {k for k in keys if k[0] is None} >= {(None, x) for x in range(2, 5)}
        assert model.period == reference.period
        for got, want in zip(model.cpts, reference.cpts, strict=True):
            assert np.array_equal(got.B, want.B)
            assert np.array_equal(got.counts, want.counts)
        for got, want in zip(model.deps, reference.deps, strict=True):
            assert np.array_equal(got.D, want.D)

    @pytest.mark.filterwarnings("ignore:stream of")  # a learned period may be long
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 12),
        st.integers(2, 6),
        st.integers(4, 30),
        st.integers(0, 5),
        st.floats(0.0, 0.3),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    )
    def test_cliques_are_those_of_bbcpt(self, m, period, reps, extra, noise, seed, blind):
        # every clique of one count equals its own bbcpt, cpbd_clique and
        # normalize, byte for byte, at a given period and at a learned one
        rng = np.random.default_rng(seed)
        base = rng.integers(0, 2, (m, period))
        values = np.tile(base, reps + 1)[:, : period * reps + extra]
        s = stream_of(values ^ (rng.random(values.shape) < noise))
        model = learn_cbn(s, period=None if blind else period, epsilon=0.01)
        frames = fold(s, model.period)
        assert len(model.cpts) == model.period - 1
        for t, (cpt, dep) in enumerate(zip(model.cpts, model.deps, strict=True), 1):
            want = bbcpt(*frame_pair(frames, t), eps=0.01)
            assert cpt.B.tobytes() == want.B.tobytes()
            assert cpt.counts.tobytes() == want.counts.tobytes()
            want_dep = normalize(cpbd_clique(want))
            assert dep.D.tobytes() == want_dep.D.tobytes()
            assert dep.degenerate == want_dep.degenerate

    def test_one_count_and_no_bbcpt(self, monkeypatch):
        # the stream is coded once, by the search and the cliques together,
        # and a given period's cliques take one pair_counts call
        import cbnet.period as period

        coded, counted = [], []
        code, count = period.pattern_codes, period.pair_counts

        def counted_code(values):
            coded.append(values.shape)
            return code(values)

        def counted_count(parent, child, m):
            counted.append(parent.shape)
            return count(parent, child, m)

        def unreachable(*args, **kwargs):
            raise AssertionError("learn_cbn called bbcpt")

        monkeypatch.setattr(period, "pattern_codes", counted_code)
        monkeypatch.setattr(period, "pair_counts", counted_count)
        monkeypatch.setattr(period, "bbcpt", unreachable)
        s = planted_stream(6, 200, seed=4)
        model = learn_cbn(s)
        assert model.period == 6 and coded == [s.values.shape]
        coded.clear()
        counted.clear()
        learn_cbn(s, period=6)
        assert coded == [s.values.shape] and counted == [(200, 5)]

    def test_period_one_has_no_clique(self):
        model = learn_cbn(planted_stream(4, 40), period=1)
        assert model.cpts == model.deps == ()

    def test_short_stream_warns(self):
        s = stream_of([[0, 1] * 8])
        with pytest.warns(UserWarning):
            learn_cbn(s, period=8)


# -- exact-null period search ------------------------------------------------

def oracle_phase_g(stream, x):
    """Per-phase G, df and null-mean cap of the lag-x fold, from counting_oracle."""
    from cbnet import counting_oracle

    raw = stream.values
    m, n = raw.shape
    f = n // x
    g, df, cap = [], [], []
    for t in range(x):
        col = raw[:, t : f * x : x].astype(np.int64)
        parent, child = col[:, :-1], col[:, 1:]
        k = parent.shape[1]
        B, counts = counting_oracle(parent, child)
        total = 0.0
        live = 0
        for i in range(m):
            p = child[i].mean()
            if 0 < p < 1:
                live += 1
            for x_row in np.flatnonzero(counts):
                n_r, q = counts[x_row], B[x_row, i]
                for obs, exp in ((q, p), (1 - q, 1 - p)):
                    if obs > 0:
                        total += 2 * n_r * obs * math.log(obs / exp)
        seen = int((counts > 0).sum())
        assert k == counts.sum()
        g.append(total)
        df.append((seen - 1) * live)
        cap.append(2 * math.log(2) * seen * live)
    return np.array(g), np.array(df), np.array(cap)


def exact_null_g(parent, child, dtype=np.float64):
    """Exact mean of each phase's G over all orders of its frames.

    A frame order keeps a phase's pattern counts n_r and child-on totals
    and pairs them at random, so the child-on count of a pattern is
    hypergeometric: n_r draws from the K frames, ``on`` of which are on.
    G's random part is a sum of x ln x terms of those counts, whose mean is
    a finite sum over the support with the pmf from a log-factorial table.
    Every value is taken in ``dtype``.
    """
    m, k, x = parent.shape
    log_fact = np.concatenate([[0], np.cumsum(np.log(np.arange(1, k + 1, dtype=dtype)))])

    def log_choose(a, b):
        return log_fact[a] - log_fact[b] - log_fact[a - b]

    def xlogx(v):
        v = np.asarray(v, dtype=dtype)
        return np.where(v > 0, v * np.log(np.maximum(v, 1)), 0)

    out = np.empty(x, dtype=dtype)
    for p in range(x):
        sizes = Counter(map(tuple, parent[:, :, p].T)).values()
        ons = child[:, :, p].sum(axis=1)
        total = dtype(0)
        for n in sizes:
            for on in ons:
                hits = np.arange(max(0, n - (k - on)), min(n, on) + 1)
                pmf = np.exp(log_choose(on, hits) + log_choose(k - on, n - hits)
                             - log_choose(k, n))
                total += (pmf * (xlogx(hits) + xlogx(n - hits))).sum()
        fixed = m * xlogx(list(sizes)).sum() - m * xlogx(k)
        fixed += (xlogx(ons) + xlogx(k - ons)).sum()
        out[p] = 2 * (total - fixed)
    return out


def frame_dependence(parent, child):
    """``phase_dependence`` of M x K x P parent and child frames."""
    return phase_dependence(pattern_codes(parent), pattern_codes(child), len(parent))


def random_fold(rng, m, k, x):
    """An M x (K + 1) x P fold of biased random bits, as (parent, child)."""
    frames = (rng.random((m, k + 1, x)) < rng.uniform(0.1, 0.9, (m, 1, 1)))
    frames = frames.astype(np.int8)
    return frames[:, :-1], frames[:, 1:]


@st.composite
def random_folds(draw):
    """(parent, child) of a random fold.

    M runs 1..10 and P 1..16.  Each sensor's rate of 1s is drawn per
    phase, so a child may be mostly on in some phases and mostly off in
    others.  Frames are int8, bool or int64, and a child row may be all 0
    or all 1.
    """
    m = draw(st.integers(1, 10))
    x = draw(st.integers(1, 16))
    k = draw(st.integers(1, 60))
    dtype = draw(st.sampled_from([np.int8, np.bool_, np.int64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frames = rng.random((m, k + 1, x)) < rng.uniform(0.1, 0.9, (m, 1, x))
    parent, child = frames[:, :-1].astype(dtype), frames[:, 1:].astype(dtype)
    for i, fill in enumerate(draw(st.lists(st.sampled_from([None, 0, 1]),
                                           min_size=m, max_size=m))):
        if fill is not None:
            child[i] = fill
    return parent, child


def record_nulls(monkeypatch) -> tuple[list, list]:
    """Record (lag, G, df, cap) of every fold the search counts, and
    (lag, null row) of every ``null()`` call it makes."""
    import cbnet.period as period

    counted, nulls = [], []
    evaluate = period.phase_dependence

    def recorded(parent, child, m):
        g, df, cap, null = evaluate(parent, child, m)
        x = parent.shape[1]
        counted.append((x, g, df, cap))

        def called():
            row = null()
            nulls.append((x, row))
            return row

        return g, df, cap, called

    monkeypatch.setattr(period, "phase_dependence", recorded)
    return counted, nulls


class TestPhaseDependence:
    def test_matches_counting_reference(self):
        for M in (1, 2, 3):
            s = planted_stream(5, 13, M=M, seed=3)
            for x in range(1, s.slot_count // 2 + 1):
                values = s.values
                f = s.slot_count // x
                frames = values[:, : f * x].reshape(M, f, x)
                g, df, cap, _ = frame_dependence(frames[:, :-1], frames[:, 1:])
                want_g, want_df, want_cap = oracle_phase_g(s, x)
                np.testing.assert_allclose(g, want_g, rtol=1e-9, atol=1e-9)
                assert df.tolist() == want_df.tolist()
                np.testing.assert_allclose(cap, want_cap, rtol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float64, np.bool_, np.int64])
    def test_frame_dtypes_count_alike(self, dtype):
        # 0/1 frames of a float, bool or int64 dtype count as their int8 copy
        frames = fold(planted_stream(5, 200, M=3, seed=6), 5)
        want = frame_dependence(frames[:, :-1], frames[:, 1:])
        frames = frames.astype(dtype)
        got = frame_dependence(frames[:, :-1], frames[:, 1:])
        for a, b in zip(want[:3], got[:3]):
            assert np.array_equal(a, b)
        assert np.array_equal(got[3](), want[3]())

    def test_orders_shuffle_the_parent_frames(self):
        s = planted_stream(6, 300, M=3, seed=5)
        frames = s.values[:, :1500].reshape(3, 300, 5)  # lag 5, off the period
        parent, child = frames[:, :-1], frames[:, 1:]
        order = np.random.default_rng(0).permutation(parent.shape[1])
        g, _, _, null = frame_dependence(parent, child)
        # an order keeps the counts the null mean is taken from
        reordered = frame_dependence(parent[:, order], child)[3]
        np.testing.assert_allclose(reordered(), null(), rtol=1e-12)
        # the pairing carries the lag-5 dependence; shuffling destroys it
        assert null().sum() < 0.1 * g.sum()

    def test_search_null_rows_pinned(self, monkeypatch):
        # SHA-256 of every null row of the search on one road stream, in
        # call order: any way of summing the null mean must keep them
        from cbnet import SimulationConfig, run

        _, nulls = record_nulls(monkeypatch)
        s = run(SimulationConfig(duration_slots=36000, seed=4242))
        assert find_null_period(s) == (8, 8)
        assert [x for x, _ in nulls] == [6, 7, 8, 16, 24]
        h = hashlib.sha256()
        for _, row in nulls:
            h.update(np.ascontiguousarray(row, dtype="<f8").tobytes())
        assert h.hexdigest() == (
            "2776d89dff839393cc4c10a6859c2cfdf4d3c925da2d154ee1aa0eba36513523"
        )

    def test_wide_search_rows_pinned(self, monkeypatch):
        # SHA-256 of every (G, df, cap) row and every null row of the search
        # on a 10-sensor stream, in call order: 2 to 36 phases of 332 to
        # 5,999 frame pairs each, every lag's phases counted at once
        counted, nulls = record_nulls(monkeypatch)
        assert find_null_period(planted_stream(12, 1000, M=10, seed=0)) == (12, 12)
        assert [x for x, *_ in counted] == [*range(2, 13), 24, 36]
        assert [x for x, _ in nulls] == [12, 24, 36]
        h = hashlib.sha256()
        for _, g, df, cap in counted:
            for row in (g, cap):
                h.update(np.ascontiguousarray(row, dtype="<f8").tobytes())
            h.update(np.ascontiguousarray(df, dtype="<i8").tobytes())
        assert h.hexdigest() == (
            "c07edafa40838e487ac9176e1d113b096e789d48bfd54b3436729d2638a4fa88"
        )
        h = hashlib.sha256()
        for _, row in nulls:
            h.update(np.ascontiguousarray(row, dtype="<f8").tobytes())
        assert h.hexdigest() == (
            "a9489f81e31e2e3ddb0686688e2d4328bc0e8b14b2089960984cab7ee2f8455e"
        )

    def test_constant_children_have_no_dependence(self):
        # every child is constant within its phase: G is 0 and there are no
        # degrees of freedom
        s = stream_of(np.vstack([np.tile([0, 1], 50), np.ones(100, dtype=np.int8)]))
        frames = s.values.reshape(2, 50, 2)
        g, df, _, null = frame_dependence(frames[:, :-1], frames[:, 1:])
        np.testing.assert_allclose(g, 0.0, atol=1e-9)
        np.testing.assert_allclose(null(), 0.0, atol=1e-9)
        assert df.tolist() == [0, 0]

    def test_exact_null_is_the_mean_over_all_orders(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            m, k, x = (int(v) for v in rng.integers((1, 2, 1), (4, 7, 4)))
            parent, child = random_fold(rng, m, k, x)
            every = itertools.permutations(range(k))
            g = [frame_dependence(parent[:, list(o)], child)[0] for o in every]
            mean = np.mean(g, axis=0)
            null = frame_dependence(parent, child)[3]()
            np.testing.assert_allclose(null, mean, rtol=0, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(fold=random_folds())
    def test_null_matches_the_exact_reference(self, fold):
        parent, child = fold
        null = frame_dependence(parent, child)[3]()
        np.testing.assert_allclose(null, exact_null_g(parent, child), rtol=0, atol=1e-10)

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= 1e-18, reason="no extended-precision long double"
    )
    def test_null_matches_a_long_double_sum_on_road(self):
        # K = 3,599 frame pairs per phase at lag 10 and 17,999 at lag 2,
        # where ``exact_null_g`` in float64, its pmf not scaled to its mode,
        # is off by ~1e-6 relative
        from cbnet import SimulationConfig, run

        s = run(SimulationConfig(duration_slots=36000, seed=0))
        for x in (2, 10):
            frames = fold(s, x)
            parent, child = frames[:, :-1], frames[:, 1:]
            null = frame_dependence(parent, child)[3]()
            want = exact_null_g(parent, child, dtype=np.longdouble)
            np.testing.assert_allclose(null, want.astype(np.float64), rtol=1e-8, atol=0)

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 4),
        k=st.integers(2, 40),
        x=st.integers(1, 4),
    )
    def test_cap_bounds_the_exact_null(self, seed, m, k, x):
        # the premise of the cap shortcut: a lag whose excess over the cap
        # rejects the null would reject the null mean as well
        parent, child = random_fold(np.random.default_rng(seed), m, k, x)
        _, _, cap, _ = frame_dependence(parent, child)
        assert (exact_null_g(parent, child) <= cap + 1e-9).all()

    @settings(max_examples=100, deadline=None)
    @given(fold=random_folds(), average=st.booleans())
    def test_a_reject_at_the_cap_rejects_the_null(self, fold, average):
        # the cap shortcut is sound: whatever G is, both tests reject the
        # null mean wherever they reject the cap
        parent, child = fold
        g, df, cap, null = frame_dependence(parent, child)
        sd = np.sqrt(2.0 * np.maximum(df, 1))
        mean = null()
        for scale in np.linspace(0.0, 3.0, 61):
            for obs in (g, scale * g, scale * (cap + sd)):
                if _rejects(obs, cap, sd, average):
                    assert _rejects(obs, mean, sd, average)

    def test_average_point_is_positive_and_nondecreasing(self):
        # Wilson-Hilferty's point falls over mu ~ 0.56-0.99 sd and is <= 0
        # below ~0.12 sd; taken at max(mu, sd) it does neither
        for sd in (1.0, 3.7, 250.0):
            points = [_average_point(r * sd, sd * sd) for r in np.logspace(-6, 3, 2001)]
            assert min(points) > 0.0
            assert (np.diff(points) >= 0.0).all()


class TestFindNullPeriod:
    @pytest.mark.parametrize("T", [3, 5, 8])
    def test_planted_period_recovered(self, T):
        first, period = find_null_period(planted_stream(T, 3000, seed=T))
        assert period == T and 2 <= first <= period

    def test_iid_stream_is_period_two(self):
        rng = np.random.default_rng(8)
        s = stream_of((rng.random((3, 5000)) < 0.5).astype(np.int8))
        assert find_null_period(s) == (2, 2)

    def test_iid_streams_are_period_two(self):
        # a stream without dependence is at the null from lag 2 on, so it
        # learns (2, 2) unless a test of lags 2, 4 or 6 rejects by chance.
        # Seeds and bound were fixed before the first run: 300 streams of
        # 2-5 sensors with on-rates from U(0.1, 0.9), at most 12 misses
        misses = {}
        for seed in range(2000, 2300):
            rng = np.random.default_rng(seed)
            m = 2 + seed % 4
            on = rng.random((m, 5000)) < rng.uniform(0.1, 0.9, (m, 1))
            s = stream_of(on.astype(np.int8))
            got = find_null_period(s)
            if got != (2, 2):
                misses[seed] = got
        assert len(misses) <= 12, misses

    def test_too_short(self):
        # below 6 slots no lag leaves every phase two frame pairs to test
        for n in (3, 5):
            with pytest.raises(InsufficientDataError):
                find_null_period(stream_of([[0, 1, 1, 0, 1][:n]]))
        assert find_null_period(stream_of([[0, 1, 1, 0, 1, 1]]))[1] >= 2

    def test_each_lag_counted_once(self, monkeypatch):
        import cbnet.period as period

        coded, folded = [], []
        code, fold_codes = period.pattern_codes, period.fold

        def counted_code(values):
            coded.append(values.shape)
            return code(values)

        def counted_fold(codes, x):
            folded.append(x)
            return fold_codes(codes, x)

        monkeypatch.setattr(period, "pattern_codes", counted_code)
        monkeypatch.setattr(period, "fold", counted_fold)
        counted, nulls = record_nulls(monkeypatch)
        s = planted_stream(6, 1500, seed=4)
        found = find_null_period(s)[1]
        assert found == 6
        # the stream is coded once, and each lag folded and counted once
        assert coded == [s.values.shape]
        lags = [x for x, *_ in counted]
        assert folded == lags and len(lags) == len(set(lags))
        nulled = [x for x, _ in nulls]
        assert len(nulled) == len(set(nulled)) and set(nulled) <= set(lags)
        # the null mean is taken exactly where the cap does not reject: the
        # candidates 2..6 are tested with the phase average, 12 and 18 not
        for x, g, df, cap in counted:
            sd = np.sqrt(2.0 * np.maximum(df, 1))
            assert (x in nulled) != _rejects(g, cap, sd, average=x <= found), x
        # the period and its multiples needed the null mean
        assert {6, 12, 18} <= set(nulled)

    def test_multiple_rejects_an_early_null(self):
        # period 4, but lag 3 reads the pattern 1100 as 1001 1001 ...,
        # whose consecutive pairs are uniform, so lag 3 is at the null;
        # lag 6 reads it as 1010 ..., so the 2x confirmation rejects 3
        rng = np.random.default_rng([11, 4, 2, 4, 5])
        while True:
            base = rng.integers(0, 2, (2, 4))
            if 0 < base.sum() < base.size and len({tuple(c) for c in base.T}) > 1:
                break
        assert base.tolist() == [[1, 1, 1, 1], [1, 1, 0, 0]]
        tiled = np.tile(base, 6000)
        s = stream_of(tiled ^ (rng.random(tiled.shape) < 0.05))
        model = learn_cbn(s)
        assert (model.ts_star, model.period) == (3, 4)


def held_out_stream(T, M, pattern_seed, noise_seed, reps=2000):
    """Planted streams from seed families the search's constants never saw.

    Z_PHASE and Z_AVERAGE were chosen, against a null mean estimated from
    shuffled frames, on the streams of acceptance criteria 4 (M=3, pattern
    seeded by T) and 6 (road), and kept for the exact null mean.  These
    draw the pattern from (7, pattern_seed) and 5% flips from
    (9, noise_seed), with at least two distinct columns.
    """
    pat_rng = np.random.default_rng([7, pattern_seed])
    while True:
        base = pat_rng.integers(0, 2, (M, T))
        if 0 < base.sum() < base.size and len({tuple(c) for c in base.T}) > 1:
            break
    tiled = np.tile(base, reps)
    flips = np.random.default_rng([9, noise_seed]).random(tiled.shape) < 0.05
    return stream_of(tiled ^ flips)


class TestHeldOutRecovery:
    @pytest.mark.parametrize("M", [2, 3, 5])
    def test_recovery_rate(self, M):
        # 10 periods x 2 patterns x 4 noise draws per M.  Pass bar, set
        # before this grid was run: at least 95% recovered exactly.  A
        # phase's G at the true period does not depend on the pattern (the
        # pattern only relabels each phase's values), so noise draws, not
        # patterns, are the independent trials there.
        misses = {}
        for T in range(3, 13):
            for pattern_seed in (100, 101):
                for noise_seed in range(4):
                    s = held_out_stream(T, M, pattern_seed, noise_seed)
                    got = find_null_period(s)[1]
                    if got != T:
                        misses[(T, pattern_seed, noise_seed)] = got
        assert len(misses) <= 0.05 * 80, misses


@pytest.fixture(scope="module")
def workloads():
    """``perfbench/workloads.py`` of this checkout, run without writing anything."""
    import runpy
    from types import SimpleNamespace

    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    return SimpleNamespace(**runpy.run_path(str(path)))


class TestBenchmarkInputs:
    """The T a blind learn finds on the benchmark's input variants, at seed
    0 and at the held-out seed 7919.

    The benchmark only range-checks T, so these pins catch a search change
    that moves it.
    """

    @staticmethod
    def blind_m8(workloads, seed, variants=range(4)):
        return [
            learn_cbn(ObservationStream(workloads.planted_stream(
                8, workloads.PLANTED_SLOTS, workloads.variant_seed(seed, v)))).period
            for v in variants
        ]

    def test_blind_m8(self, workloads):
        assert self.blind_m8(workloads, 0) == [12, 12, 12, 12]

    def test_blind_m8_held_out_seed(self, workloads):
        assert self.blind_m8(workloads, 7919) == [12, 12, 12, 12]

    @pytest.mark.xfail(strict=True, reason="lag 12's average z is 3.2, above 2.326, "
                       "so the search rejects the planted period and learns 24")
    def test_blind_m8_seed_4242_variant_0(self, workloads):
        assert self.blind_m8(workloads, 4242, [0]) == [12]

    def test_road_360k(self, workloads):
        # the stream ``cbnet simulate --speed-kmh 43.2:72.0`` writes
        from cbnet import SimulationConfig, run
        from cbnet.simulator import KMH_TO_MS

        got = []
        for v in range(4):
            cfg = SimulationConfig(
                duration_slots=workloads.ROAD_SLOTS,
                num_cells=workloads.ROAD_CELLS,
                speed_range=(43.2 * KMH_TO_MS, 72.0 * KMH_TO_MS),
                seed=workloads.variant_seed(0, v),
            )
            got.append(learn_cbn(run(cfg)).period)
        assert got == [11, 10, 10, 11]


def criterion4_stream(T_r, noise_seed):
    """The planted streams of acceptance criterion 4 (pattern drawn from T_r)."""
    pat_rng = np.random.default_rng(T_r)
    while True:
        base = pat_rng.integers(0, 2, (3, T_r))
        if 0 < base.sum() < base.size:
            break
    tiled = np.tile(base, 2000)
    flips = np.random.default_rng(noise_seed).random(tiled.shape) < 0.05
    return stream_of(tiled ^ flips)


def model_digest(model):
    """Digest of every clique's B, counts and D (D parent row, child column)."""
    h = hashlib.sha256()
    for cpt, dep in zip(model.cpts, model.deps, strict=True):
        for a in (cpt.B.astype("<f8"), cpt.counts.astype("<i8"), dep.D.astype("<f8")):
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:12]


#: (period, model_digest) that the paper's valley + DFT rule learned before
#: the surrogate search became the default, on the streams of acceptance
#: criteria 4 (planted T_r, noise seeds 0..19) and 6 (road regions, seeds
#: 0..2 of its 0..9: each 36 000-slot simulation takes ~0.3 s); D is stored
#: parent row, child column, the transpose of the layout of that time
PAPER_MODELS = {
    "planted4": [
        (2, "471097c7cc59"), (2, "3ab0ecce2977"), (2, "1ba869029294"), (2, "2bd3ffb3b944"),
        (2, "48e00f9cb158"), (2, "3b5989be868c"), (6, "dedc14d720ab"), (2, "51ea05ab8488"),
        (2, "4aa39f2de466"), (2, "34c3b7873d20"), (2, "b51481b14570"), (2, "b0dee5fe2446"),
        (2, "f69acf8b898a"), (6, "bd2fa4483855"), (2, "8d06b9317908"), (2, "4511a77d1e20"),
        (2, "d9dc78866ea8"), (2, "e89abc57ce1a"), (2, "5ed25edd4724"), (2, "bd6bc4d6a078"),
    ],
    "planted6": [
        (6, "b4f2b638aabf"), (6, "aee3c0fc8533"), (6, "781c8d9931d4"), (4, "2809f39a66c1"),
        (6, "341953206b74"), (6, "4110c0d9fbe6"), (6, "a4dd5dd4e798"), (6, "f632233084a6"),
        (6, "40db1526bbc6"), (6, "46eb1e775690"), (6, "88ca7be0267c"), (6, "74c2086807fa"),
        (6, "8c29df72009b"), (4, "4a95dbccc461"), (6, "e46829d3e058"), (4, "2cb551ae31e7"),
        (6, "3cee8acc5be6"), (6, "6158fe6d603b"), (6, "26b36c9c6b65"), (6, "01207c70a9c7"),
    ],
    "planted8": [
        (6, "1649e15b42a9"), (3, "d4a2cd11f9a2"), (3, "ad9fd338c745"), (3, "cabd2ffdea54"),
        (3, "041c7483d7a0"), (3, "70cb857293d6"), (8, "7e3c1888fa19"), (4, "9f0b1e598a92"),
        (6, "4130f4e1a712"), (8, "2dbf64a93550"), (8, "08bfbe934a96"), (8, "2beeae6e2518"),
        (3, "7ba5be544507"), (3, "8f64556f0bfc"), (3, "a3781d9a8e30"), (8, "9f93c106d5da"),
        (6, "b82410045263"), (8, "316f42a9be06"), (4, "91bc9a71cd75"), (3, "fe1dfc08f7e1"),
    ],
    "planted12": [
        (2, "ade9d46d1122"), (2, "5d528122c1a4"), (2, "0332cce1621e"), (2, "a277fda2b3bb"),
        (2, "c371ccc700a0"), (2, "942b4b3087cd"), (2, "1960cbbdab29"), (2, "e6214b601b62"),
        (2, "1979c6249c8b"), (2, "a1d7f430e71e"), (2, "b4125f834454"), (2, "c30509436eaa"),
        (2, "6bc6ab941dca"), (2, "abb0611561a8"), (2, "bc08c720b796"), (2, "1e7fe76eec9b"),
        (2, "a6832cadcf4d"), (2, "5dccb4987013"), (2, "6f26dcc5b5fe"), (2, "39fa051f9fbe"),
    ],
    "fast": [(8, "862eeb29ec73"), (4, "a5c2c6594260"), (8, "3bce045ef219")],
    "slow": [(3, "a71bbceafcdb"), (3, "02d3792a0425"), (4, "6cca17761ef7")],
}

ROAD_SPEEDS = {"fast": (100.8, 158.4), "slow": (43.2, 72.0)}

#: (period, model_digest) of the paper's rule on planted period-12 streams
#: of M sensors, ``planted_stream(12, 1000, M=M, seed=seed)`` for seeds 0..2,
#: recorded when lag_dependence still counted its phases in stacked blocks
#: (32 phases per block at M=8, one at M=12)
WIDE_PAPER_MODELS = {
    8: [(3, "73c54303785e"), (3, "3e543dec697d"), (3, "1868ac1aa450")],
    12: [(3, "e55fc0116213"), (3, "7b40ef1625eb"), (3, "f1a4a4a38e06")],
}
#: lag_dependence of ``planted_stream(12, 1000, M=8, seed=0)`` recorded then,
#: at lags whose phases spanned two, two and four such blocks
WIDE_LAG_DEPENDENCE = {
    33: "0x1.b1794df254886p+7",
    64: "0x1.384b359ae1356p+7",
    97: "0x1.b3aef6c4b42b9p+7",
}


class TestBlindPeriod:
    def test_sensor_without_valley_fails_the_search(self, monkeypatch):
        # the per-sensor scans set no lag of the joint scan, but a sensor
        # whose profile has no valley still fails the paper's rule
        import cbnet.period as period

        s = planted_stream(4, 50)
        falling = set()

        def fake(stream, x, sensors=None, eps=1e-3):
            if sensors is not None and tuple(sensors)[0] in falling:
                return -float(x)  # strictly decreasing: no valley
            return float(abs(x - 5))  # valley at lag 5

        monkeypatch.setattr(period, "lag_dependence", fake)
        assert paper_period(s) >= 1
        falling.add(0)
        with pytest.raises(NoValleyError):
            paper_period(s)

    def test_blind_learn_is_repeatable(self):
        s = criterion4_stream(8, 3)
        a, b = learn_cbn(s), learn_cbn(s)
        assert a.period == b.period == 8
        assert 1 <= a.ts_star <= a.period
        assert model_digest(a) == model_digest(b)

    def test_paper_period_reproduces_previous_models(self):
        from cbnet import SimulationConfig, run

        def learn(s):
            return learn_cbn(s, period=paper_period(s))

        for T_r in (4, 6, 8, 12):
            got = [
                (m.period, model_digest(m))
                for m in (learn(criterion4_stream(T_r, seed)) for seed in range(20))
            ]
            assert got == PAPER_MODELS[f"planted{T_r}"], T_r
        for name, (lo, hi) in ROAD_SPEEDS.items():
            got = []
            for seed in range(len(PAPER_MODELS[name])):
                cfg = SimulationConfig(
                    duration_slots=36000, speed_range=(lo / 3.6, hi / 3.6), seed=seed
                )
                m = learn(run(cfg))
                got.append((m.period, model_digest(m)))
            assert got == PAPER_MODELS[name], name

    def test_paper_period_pinned_at_wide_m(self):
        for M, want in WIDE_PAPER_MODELS.items():
            got = []
            for seed in range(len(want)):
                s = planted_stream(12, 1000, M=M, seed=seed)
                m = learn_cbn(s, period=paper_period(s))
                got.append((m.period, model_digest(m)))
            assert got == want, M
        s = planted_stream(12, 1000, M=8, seed=0)
        for x, value in WIDE_LAG_DEPENDENCE.items():
            assert lag_dependence(s, x) == float.fromhex(value), x
