"""Traffic simulator: scripted traces, determinism, long-run statistics."""

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cbnet import (
    ConfigError,
    SessionBoundsError,
    Simulation,
    SimulationConfig,
    run,
)
from cbnet import simulator, ziggurat
from cbnet.simulator import KMH_TO_MS


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
    """``Simulation._draw`` decodes PCG64 words in blocks of ``_DRAW_WORDS``."""

    @pytest.mark.parametrize("name", sorted(TestStreamDigests.CASES))
    def test_digest_with_tiny_blocks(self, name, monkeypatch):
        # with 7 words a block, ~1 in 7 ziggurat rejects reads its second
        # word from the next block
        monkeypatch.setattr(simulator, "_DRAW_WORDS", 7)
        TestStreamDigests().test_digest(name)

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


class TestZigguratDecode:
    """``ziggurat.Words`` against numpy's own scalar draws, bit for bit.

    A fresh Generator draws chunk after chunk, which is the same stream as
    one long call.
    """

    N, CHUNK, BLOCK, SEED = 10_000_000, 1_000_000, 1 << 14, 20261018

    def test_exponentials(self):
        # exp[i] is the draw at cursor i where it is not -1.0, the mark of a
        # draw that ``exponential(i)`` makes; a run of exp[i:j] is at most a
        # block long, so it fits in the room left past a chunk
        words = ziggurat.Words(np.random.PCG64(self.SEED), self.BLOCK)
        ref = np.random.Generator(np.random.PCG64(self.SEED))
        exp, i = words.exp, 0
        got, n = np.empty(self.CHUNK + self.BLOCK + 1), 0
        for _ in range(self.N // self.CHUNK):
            while n < self.CHUNK:
                j = exp.index(-1.0, i)
                got[n:n + j - i] = exp[i:j]
                n += j - i
                got[n], i = words.exponential(j)
                n += 1
            assert np.array_equal(got[:self.CHUNK], ref.standard_exponential(self.CHUNK))
            n -= self.CHUNK
            got[:n] = got[self.CHUNK:self.CHUNK + n]

    def test_uniforms(self):
        # each uniform takes one word, so each refill decodes a whole block
        words = ziggurat.Words(np.random.PCG64(self.SEED), self.BLOCK)
        ref = np.random.Generator(np.random.PCG64(self.SEED))
        for _ in range(-(-self.N // self.BLOCK)):
            words.uniform(len(words.uni) - 1)
            assert np.array_equal(words.uni[:-1], ref.random(self.BLOCK))

    def test_every_branch_is_taken(self):
        # the first words of the stream the tests above compare
        raw = np.random.PCG64(self.SEED).random_raw(1 << 20)
        counts = ziggurat_branches(raw)
        assert all(counts.values()), counts
