"""Traffic simulator: scripted traces, determinism, long-run statistics."""

import dataclasses
import hashlib
import math
import os
import subprocess
import sys
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cbnet import (
    ConfigError,
    SessionBoundsError,
    Simulation,
    SimulationConfig,
    run,
)
from cbnet import simulator, ziggurat
from cbnet.simulator import KMH_TO_MS

# the draws must compute nothing on the words past a block, where a
# division by a zero speed would only warn
pytestmark = pytest.mark.filterwarnings("error")


def quiet_config(slots=40, cells=3, seed=0):
    """No random users; observations come only from scripted injections."""
    return SimulationConfig(
        duration_slots=slots,
        num_cells=cells,
        arrival_rate=0.0,
        traffic_rate=0.0,
        seed=seed,
    )


class TestConfigValidation:
    def test_bad_speed_range(self):
        with pytest.raises(ConfigError):
            SimulationConfig(duration_slots=10, speed_range=(30.0, 20.0))

    def test_bad_slots(self):
        with pytest.raises(ConfigError):
            SimulationConfig(duration_slots=0)

    def test_negative_rate(self):
        with pytest.raises(ConfigError):
            SimulationConfig(duration_slots=10, arrival_rate=-1.0)

    def test_negative_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            SimulationConfig(duration_slots=10, seed=-1)

    @pytest.mark.parametrize("field, value", [
        ("speed_range", (math.inf, math.inf)),
        ("speed_range", (20.0, math.inf)),
        ("speed_range", (math.nan, 30.0)),
        ("arrival_rate", math.inf),
        ("arrival_rate", math.nan),
        ("traffic_rate", math.inf),
        ("traffic_rate", math.nan),
        ("service_mean", math.inf),
        ("road_length", math.nan),
        ("sense_interval", math.inf),
    ])
    def test_non_finite_field(self, field, value):
        # infinite values never let the draw loop end and NaN ones slip past
        # the sign checks, so none may reach a run
        with pytest.raises(ConfigError, match=field):
            SimulationConfig(duration_slots=10, **{field: value})


class TestScriptedUsers:
    def test_no_arrivals_all_zero(self):
        cfg = SimulationConfig(duration_slots=100, arrival_rate=0.0, seed=5)
        assert run(cfg).values.sum() == 0

    def test_hand_traced_single_user(self):
        # 20 m/s across 600 m, session covering the whole traversal:
        # position 20n crosses cell boundaries 200/400 at slots 10 and 20
        sim = Simulation(quiet_config(slots=40))
        sim.inject_user(0.0, 20.0, [(0.0, 30.0)])
        v = sim.run().values
        assert v[0, 0:9].all() and not v[0, 9:].any()
        assert v[1, 9:19].all() and not v[1, :9].any() and not v[1, 19:].any()
        assert v[2, 19:29].all() and not v[2, 29:].any()

    def test_disjoint_sessions_or_semantics(self):
        # two slow users parked in cell 1 with disjoint sessions
        sim = Simulation(quiet_config(slots=30))
        sim.inject_user(0.0, 5.0, [(2.0, 6.0)])
        sim.inject_user(0.0, 5.0, [(10.0, 14.0)])
        v = sim.run().values
        on_slots = set(np.flatnonzero(v[0]) + 1)
        assert on_slots == {2, 3, 4, 5, 6, 10, 11, 12, 13, 14}

    def test_session_end_mid_cell_drops_sensor(self):
        sim = Simulation(quiet_config(slots=20))
        sim.inject_user(0.0, 20.0, [(0.0, 4.5)])
        v = sim.run().values
        assert v[0, :4].all() and not v[:, 5:].any()

    def test_two_speeds_or_of_footprints(self):
        sim = Simulation(quiet_config(slots=40))
        sim.inject_user(0.0, 20.0, [(0.0, 30.0)])
        sim.inject_user(0.0, 30.0, [(0.0, 20.0)])
        v = sim.run().values
        # slot 8: user1 at 160 (cell 1), user2 at 240 (cell 2)
        assert v[0, 7] == 1 and v[1, 7] == 1 and v[2, 7] == 0
        # slot 15: user1 at 300 (cell 2), user2 at 450 (cell 3)
        assert v[0, 14] == 0 and v[1, 14] == 1 and v[2, 14] == 1

    def test_session_outside_traversal_rejected(self):
        sim = Simulation(quiet_config())
        with pytest.raises(SessionBoundsError):
            sim.inject_user(0.0, 20.0, [(0.0, 31.0)])  # exits at t=30

    def test_injection_with_random_traffic_unions(self):
        cfg = SimulationConfig(duration_slots=50, arrival_rate=0.5, seed=9)
        base = Simulation(cfg).run().values
        sim = Simulation(cfg)
        sim.inject_user(0.0, 10.0, [(1.0, 40.0)])
        combined = sim.run().values
        assert (combined >= base).all()  # scripted user only adds activity


class TestDeterminism:
    def test_bit_identical_repeat(self):
        cfg = SimulationConfig(duration_slots=5000, seed=42)
        a = run(cfg).values
        b = run(cfg).values
        assert np.array_equal(a, b)

    def test_seed_changes_stream(self):
        a = run(SimulationConfig(duration_slots=5000, seed=1)).values
        b = run(SimulationConfig(duration_slots=5000, seed=2)).values
        assert not np.array_equal(a, b)


class TestLongRunStatistics:
    def test_mean_users_per_cell(self):
        # expected concurrent users per cell = arrival_rate * cell_len / v_bar
        cfg = SimulationConfig(
            duration_slots=100000, speed_range=(28.0, 44.0), seed=17
        )
        sim = Simulation(cfg)
        bitgen = np.random.PCG64(cfg.seed)
        entry, speed, *_ = sim._draw(bitgen, cfg.duration_slots * cfg.sense_interval)
        v_bar = 36.0
        expect = cfg.arrival_rate * (cfg.road_length / cfg.num_cells) / v_bar
        # count users in cell 1 at each sampling instant
        entries, speeds = np.asarray(entry), np.asarray(speed)
        count = 0
        taus = np.arange(1, cfg.duration_slots + 1, 50)
        for tau in taus:
            pos = speeds * (tau - entries)
            count += int(((pos >= 0) & (pos < 200)).sum())
        mean = count / len(taus)
        assert abs(mean - expect) / expect < 0.1

    def test_sensor_on_requires_occupied_cell(self):
        cfg = SimulationConfig(duration_slots=2000, seed=23)
        sim = Simulation(cfg)
        bitgen = np.random.PCG64(cfg.seed)
        entry, speed, *_ = sim._draw(bitgen, cfg.duration_slots * cfg.sense_interval)
        entry, speed = np.asarray(entry), np.asarray(speed)
        v = sim.run().values
        cell_len = cfg.road_length / cfg.num_cells
        for slot in np.argwhere(v.T):
            n, i = int(slot[0]) + 1, int(slot[1])
            pos = speed * (n - entry) - i * cell_len
            occupied = ((0 <= pos) & (pos < cell_len)).any()
            assert occupied, (n, i)


ROAD_SPEEDS = (43.2 * KMH_TO_MS, 72.0 * KMH_TO_MS)  # the benchmark's road
SCRIPTED = (100.0, 10.0, [(101.0, 140.0), (130.0, 150.0)])


class TestStreamDigests:
    """SHA-256 of ``run().values.tobytes()``, recorded before any rewrite
    of the draw loop or the slot marking: streams stay bit-identical for
    equal (config, seed)."""

    CASES = {
        "road-seed0": (
            SimulationConfig(duration_slots=36000, speed_range=ROAD_SPEEDS, seed=0),
            None,
            "78a79ce5568075ba3476f2fa450a475cbb0f50cdced2ebf58cf0c15151321358",
        ),
        "road-seed1": (
            SimulationConfig(duration_slots=36000, speed_range=ROAD_SPEEDS, seed=1),
            None,
            "7be14e853abce07c9bfd5d5f4c18ce75f4038060111d6c9869a1f59dea5fcbb9",
        ),
        "road-seed2": (
            SimulationConfig(duration_slots=36000, speed_range=ROAD_SPEEDS, seed=2),
            None,
            "c0853502aeb777167f52d7ea056871bfb154e316f39a5b27308ae91c733b8157",
        ),
        "default-speeds": (
            SimulationConfig(duration_slots=20000, seed=3),
            None,
            "fe1b3fa84663a9ae624426683a33debee8e0a993789d9164a188c5649523f077",
        ),
        "no-traffic": (
            SimulationConfig(duration_slots=20000, traffic_rate=0.0, seed=4),
            SCRIPTED,
            "024dabae9bcea740742ff31bca798cb5e383b6742899483bd34afaf63d15da18",
        ),
        "half-second-slots": (
            SimulationConfig(duration_slots=20000, sense_interval=0.5, seed=5),
            None,
            "24420117b5ee5959276110802ad2b0aff4aa4bdbf05513e2cc2d11ab4eb00cbd",
        ),
        "busy-overlapping": (
            SimulationConfig(
                duration_slots=5000, arrival_rate=0.3, traffic_rate=0.05,
                service_mean=5.0, seed=7,
            ),
            None,
            "a1c395ddedc9019203fd6fe65b9c70f63cc7717e74f48f8ad35f7355f50fab87",
        ),
        "long-overlapping-sessions": (
            SimulationConfig(
                duration_slots=20000, arrival_rate=0.01, speed_range=(5.0, 10.0),
                traffic_rate=1.0, service_mean=20.0, seed=8,
            ),
            None,
            "fd062f15428eb9f98a3fb3ce9ef8007b760452b9e2b1aad037f052211aa08ed1",
        ),
        "random-plus-injected": (
            SimulationConfig(duration_slots=20000, arrival_rate=0.5, seed=6),
            SCRIPTED,
            "88c1450e725abc53f9ec061e6b4e42ab575070254bb47136ed153ca53ea56094",
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_digest(self, name):
        cfg, scripted, digest = self.CASES[name]
        sim = Simulation(cfg)
        if scripted is not None:
            sim.inject_user(*scripted)
        values = sim.run().values
        assert hashlib.sha256(values.tobytes()).hexdigest() == digest


class TestDrawBlocks:
    """``Simulation._draw`` decodes PCG64 words in blocks of ``_DRAW_WORDS``.

    Each digest config, cut to ``SLOTS`` slots, gives the same stream and
    the same five ``_draw`` columns at tiny blocks as at the default size,
    whose full-length streams ``TestStreamDigests`` pins.
    """

    SLOTS = 3600

    @classmethod
    def outputs(cls, name):
        cfg, scripted, _ = TestStreamDigests.CASES[name]
        cfg = dataclasses.replace(cfg, duration_slots=cls.SLOTS)
        sim = Simulation(cfg)
        if scripted is not None:
            sim.inject_user(*scripted)
        horizon = cfg.duration_slots * cfg.sense_interval
        columns = sim._draw(np.random.PCG64(cfg.seed), horizon)
        names = ("entry", "speed", "owner", "start", "end", "stream")
        outputs = [c.tobytes() for c in columns] + [sim.run().values.tobytes()]
        return dict(zip(names, outputs))

    def assert_blocks_agree(self, name, words, monkeypatch):
        want = self.outputs(name)
        monkeypatch.setattr(simulator, "_DRAW_WORDS", words)
        got = self.outputs(name)
        for key in want:
            assert got[key] == want[key], key

    @pytest.mark.parametrize("name", sorted(TestStreamDigests.CASES))
    def test_digest_with_tiny_blocks(self, name, monkeypatch):
        # with 7 words a block, most users and ~1 in 7 ziggurat rejects
        # read words from the next block
        self.assert_blocks_agree(name, 7, monkeypatch)

    @pytest.mark.parametrize("name", sorted(TestStreamDigests.CASES))
    def test_digest_with_one_word_blocks(self, name, monkeypatch):
        # every user outgrows a block of 1 word, so each block carries the
        # words of one and grows until it fits
        self.assert_blocks_agree(name, 1, monkeypatch)

    def test_import_leaves_tables_unloaded(self):
        # every cbnet command imports cbnet; only a simulation needs the tables
        src = str(Path(ziggurat.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        code = "import sys, cbnet; sys.exit('cbnet.ziggurat' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def ziggurat_branches(raw):
    """Count the ziggurat branches that exponential draws read back to back
    from the words ``raw`` take, straight from numpy's algorithm."""
    we, ke, fe = ziggurat.WE, ziggurat.KE, ziggurat.FE
    r = raw >> 11
    idx = ((raw >> 3) & 0xFF).astype(np.intp)
    rejects = np.flatnonzero(r >= ke[idx])
    counts = dict.fromkeys(("fast", "tail", "wedge accept", "wedge reject"), 0)
    first = 0  # the first word of the next draw
    for p in rejects.tolist():
        if p < first or p + 1 == raw.size:
            continue  # p is a reject's uniform, or has no word after it
        counts["fast"] += p - first
        first = p + 2
        k = int(idx[p])
        u = int(r[p + 1]) * 2.0**-53
        x = int(r[p]) * float(we[k])
        if k == 0:
            counts["tail"] += 1
        elif float(fe[k - 1] - fe[k]) * u + float(fe[k]) < math.exp(-x):
            counts["wedge accept"] += 1
        else:
            counts["wedge reject"] += 1
    return counts


def draw_starts(after, n):
    """The words at which back-to-back exponential draws from word 0 start,
    as far as ``ziggurat.decode``'s ``after`` over n words knows them, and
    the word where the first draw it does not know starts."""
    read = np.zeros(n, dtype=bool)  # words an earlier draw read
    i = 0
    slow = (after[:n] != np.arange(1, n + 1)).nonzero()[0]
    for p, q in zip(slow.tolist(), after[slow].tolist()):
        if p < i:
            continue
        if q > n:
            return (~read[:p]).nonzero()[0], p
        read[p + 1:q] = True
        i = q
    return (~read).nonzero()[0], n


class TestZigguratDecode:
    """``ziggurat.decode`` against numpy's own scalar draws, bit for bit.

    A fresh Generator draws chunk after chunk, which is the same stream as
    one long call.
    """

    N, CHUNK, BLOCK, SEED = 10_000_000, 1_000_000, 1 << 14, 20261018

    def test_exponentials(self):
        # the words of a draw that needs words past a block are decoded
        # again with the next block
        bitgen = np.random.PCG64(self.SEED)
        ref = np.random.Generator(np.random.PCG64(self.SEED))
        raw = np.empty(0, dtype=np.uint64)
        got, n = np.empty(self.CHUNK + 2 * self.BLOCK), 0
        for _ in range(self.N // self.CHUNK):
            while n < self.CHUNK:
                raw = np.concatenate((raw, bitgen.random_raw(self.BLOCK)))
                exp, after, _ = ziggurat.decode(raw)
                starts, i = draw_starts(after, raw.size)
                got[n:n + starts.size] = exp[starts]
                n += starts.size
                raw = raw[i:]
            assert np.array_equal(got[:self.CHUNK], ref.standard_exponential(self.CHUNK))
            n -= self.CHUNK
            got[:n] = got[self.CHUNK:self.CHUNK + n]

    def test_uniforms(self):
        # every word is a uniform draw
        bitgen = np.random.PCG64(self.SEED)
        ref = np.random.Generator(np.random.PCG64(self.SEED))
        for _ in range(-(-self.N // self.BLOCK)):
            _, _, uni = ziggurat.decode(bitgen.random_raw(self.BLOCK))
            assert np.array_equal(uni, ref.random(self.BLOCK))

    def test_draws_past_the_words_are_marked(self):
        # decoded from the first n words, a draw is the whole stream's draw
        # where that one ends by word n, and after[i] is n + 1 where it does
        # not.  The prefixes end short, and at every word of a tail draw and
        # of a draw after two wedge rejects
        raw = np.random.PCG64(self.SEED).random_raw(1 << 16)
        exp, after, uni = ziggurat.decode(raw)
        slow = (after[:raw.size] != np.arange(1, raw.size + 1)).nonzero()[0]
        tail = slow[(raw[slow] >> 3 & 0xFF) == 0][0]
        rejects = slow[after[slow] - slow >= 5][0]
        ends = [*range(1, 40), *range(tail, after[tail] + 2),
                *range(rejects, after[rejects] + 2)]
        for n in ends:
            e, a, u = ziggurat.decode(raw[:n])
            fits = after[:n] <= n
            assert np.array_equal(a[:n], np.where(fits, after[:n], n + 1)), n
            assert np.array_equal(a[n:], [n + 1, n + 1]), n
            assert np.array_equal(e[:n][fits], exp[:n][fits]), n
            assert np.array_equal(u, uni[:n]), n

    def test_every_branch_is_taken(self):
        # the first words of the stream the tests above compare
        raw = np.random.PCG64(self.SEED).random_raw(1 << 20)
        counts = ziggurat_branches(raw)
        assert all(counts.values()), counts


def loop_draw(cfg, horizon):
    """The draw loop, literally: ``Simulation._draw``'s five columns from
    numpy's scalar draws, ``scale * standard_exponential()`` and ``lo + span
    * random()``, in the loop's order."""
    gen = np.random.Generator(np.random.PCG64(cfg.seed))
    entry, speed, owner, start, end = [], [], [], [], []
    v_lo, v_hi = cfg.speed_range
    t = 0.0
    while cfg.arrival_rate > 0:
        t += 1.0 / cfg.arrival_rate * gen.standard_exponential()
        if t >= horizon:
            break
        v = v_lo + (v_hi - v_lo) * gen.random()
        user = len(entry)
        entry.append(t)
        speed.append(v)
        if cfg.traffic_rate == 0:
            continue
        transit = cfg.road_length / v
        s = 0.0
        while True:
            s += 1.0 / cfg.traffic_rate * gen.standard_exponential()
            if s >= transit:
                break
            length = cfg.service_mean * gen.standard_exponential()
            owner.append(user)
            start.append(t + s)
            end.append(t + min(s + length, transit))
    return entry, speed, owner, start, end


def assert_columns_equal(cfg):
    """``Simulation._draw`` gives ``loop_draw``'s columns, bit for bit."""
    horizon = cfg.duration_slots * cfg.sense_interval
    got = Simulation(cfg)._draw(np.random.PCG64(cfg.seed), horizon)
    want = loop_draw(cfg, horizon)
    for name, g, w in zip(("entry", "speed", "owner", "start", "end"), got, want):
        assert g.tobytes() == array(g.typecode, w).tobytes(), name


@st.composite
def draw_configs(draw):
    """Small configs: no users, users without sessions, and users with up
    to ~60 sessions on average at the slowest speed."""
    road_length = draw(st.floats(10.0, 1000.0))
    v_lo = draw(st.floats(1.0, 40.0))
    sessions = draw(st.one_of(st.just(0.0), st.floats(0.01, 60.0)))
    return SimulationConfig(
        duration_slots=draw(st.integers(1, 120)),
        road_length=road_length,
        arrival_rate=draw(st.one_of(st.just(0.0), st.floats(0.01, 1.5))),
        speed_range=(v_lo, v_lo + draw(st.floats(0.0, 20.0))),
        traffic_rate=sessions * v_lo / road_length,
        service_mean=draw(st.floats(0.1, 50.0)),
        sense_interval=draw(st.floats(0.25, 2.0)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


class TestDrawColumns:
    """All five columns of ``Simulation._draw`` against ``loop_draw``: the
    stream digests pin only the slots that sessions mark, so a session end
    one ulp off would pass them."""

    @pytest.mark.parametrize("name", sorted(TestStreamDigests.CASES))
    def test_digest_configs(self, name):
        assert_columns_equal(TestStreamDigests.CASES[name][0])

    @settings(max_examples=60, deadline=None)
    @given(draw_configs(), st.integers(1, 64))
    @example(SimulationConfig(duration_slots=50, arrival_rate=0.0, seed=1), 1)
    @example(SimulationConfig(duration_slots=90, traffic_rate=0.0, seed=2), 2)
    @example(SimulationConfig(duration_slots=60, arrival_rate=0.05, speed_range=(5.0, 10.0),
                              traffic_rate=0.5, service_mean=20.0, seed=3), 5)
    def test_small_blocks(self, cfg, words):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulator, "_DRAW_WORDS", words)
            assert_columns_equal(cfg)
