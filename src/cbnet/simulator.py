"""Continuous-time traffic generator for a one-way road of sensing cells.

Mobile users enter a road of equal-length cells as a Poisson process, cross
at a uniformly drawn constant speed, and while on the road start data
sessions as a per-user Poisson process with exponentially distributed
durations (overlapping sessions allowed).  Each cell's base station reads 1
at a sampling instant iff some user inside the cell has an active session.

Randomness comes from a single PCG64 bit generator, so equal (config, seed)
pairs reproduce streams bit-identically.  The draws are those of
``np.random.Generator(PCG64(seed))``'s scalar ``standard_exponential()`` and
``random()`` calls, in stream order, but they are decoded in blocks from the
bit generator's raw words (``cbnet.ziggurat``), which saves the ~1 us that
each scalar call costs.  The ziggurat's tables there are transcribed from
numpy 2.4.6's ``libnpyrandom.a`` (``we_double``, ``ke_double``,
``fe_double``); the streams therefore rest only on PCG64's raw words, which
numpy keeps stable, and a test compares the decode with the Generator's own
draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SessionBoundsError
from .observations import ObservationStream

KMH_TO_MS = 1.0 / 3.6

#: (session, slot) rows marked per block by ``Simulation.run``
_MARK_ROWS = 1 << 18
#: PCG64 words decoded per block by ``Simulation._draw``; a larger block
#: raises the peak memory of a run more than it saves time
_DRAW_WORDS = 1 << 12


@dataclass(frozen=True)
class SimulationConfig:
    duration_slots: int
    road_length: float = 600.0
    num_cells: int = 3
    arrival_rate: float = 1.0  # users per second
    speed_range: tuple[float, float] = (28.0, 44.0)  # m/s, uniform
    traffic_rate: float = 0.002  # session starts per second per user
    service_mean: float = 2.0  # seconds, exponential
    sense_interval: float = 1.0  # seconds
    seed: int = 0

    def __post_init__(self):
        # an infinite rate or speed never lets the draw loop end, and NaN
        # slips past every comparison below
        for name in ("road_length", "arrival_rate", "traffic_rate",
                     "service_mean", "sense_interval", "speed_range"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        v_min, v_max = self.speed_range
        if not 0 < v_min <= v_max:
            raise ConfigError(f"bad speed range {self.speed_range}")
        if self.duration_slots < 1:
            raise ConfigError("duration_slots must be positive")
        if self.num_cells < 1 or self.road_length <= 0:
            raise ConfigError("need a positive road length and cell count")
        if min(self.arrival_rate, self.traffic_rate) < 0:
            raise ConfigError("rates must be nonnegative")
        if self.service_mean <= 0 or self.sense_interval <= 0:
            raise ConfigError("service_mean and sense_interval must be positive")


class Simulation:
    """One seeded realization of the scenario; build, optionally inject, run."""

    def __init__(self, config: SimulationConfig):
        self.config = config
        self._scripted: list[tuple] = []  # (entry, speed, sessions) per user

    def inject_user(self, entry_time: float, speed: float, sessions) -> "Simulation":
        """Add a fully scripted user (test hook bypassing all random draws)."""
        cfg = self.config
        if speed <= 0:
            raise ConfigError(f"scripted speed must be positive, got {speed}")
        transit = cfg.road_length / speed
        for start, end in sessions:
            if not (entry_time <= start <= end <= entry_time + transit):
                raise SessionBoundsError(
                    f"session ({start}, {end}) outside traversal "
                    f"[{entry_time}, {entry_time + transit}]"
                )
        sessions = tuple((float(s), float(e)) for s, e in sessions)
        self._scripted.append((float(entry_time), float(speed), sessions))
        return self

    def _draw(self, bitgen: np.random.PCG64, horizon: float):
        """Poisson arrivals on [0, horizon); sessions drawn per user in entry order.

        Returns the columns (entry, speed), one item per user, and (owner,
        start, end), one item per session, ``owner`` indexing the user, as
        ``array.array`` buffers.  The draws are those of
        ``np.random.Generator(bitgen)``, in its stream's order and bit for
        bit: ``scale * standard_exponential()`` and ``lo + (hi - lo) *
        random()``, numpy's own arithmetic for ``exponential(scale)`` and
        ``uniform(lo, hi)``.  They are decoded from the raw words of
        ``bitgen`` in blocks of ``_DRAW_WORDS`` by ``cbnet.ziggurat.Words``,
        whose tables are numpy's, and the loop reads them at a cursor: a
        negative value marks a draw that ``Words`` makes itself (a
        ziggurat reject, or the end of a block).
        """
        # imported here, not at the top: every cbnet command loads this
        # module, and only a simulation needs the shared library or the
        # ziggurat tables
        from array import array

        from .ziggurat import Words

        cfg = self.config
        entry, speed = array("d"), array("d")
        owner, start, end = array("q"), array("d"), array("d")
        if cfg.arrival_rate > 0:
            words = Words(bitgen, _DRAW_WORDS)
            exp, uni = words.exp, words.uni  # refilled in place
            i = 0  # the cursor: the next word to read
            arrival_mean = 1.0 / cfg.arrival_rate
            v_lo, v_hi = cfg.speed_range
            v_span = v_hi - v_lo
            gap_mean = 1.0 / cfg.traffic_rate if cfg.traffic_rate > 0 else None
            service_mean, road_length = cfg.service_mean, cfg.road_length
            t = 0.0
            while True:
                e = exp[i]
                i += 1
                if e < 0.0:
                    e, i = words.exponential(i - 1)
                t += arrival_mean * e
                if t >= horizon:
                    break
                u = uni[i]
                i += 1
                if u < 0.0:
                    u, i = words.uniform(i - 1)
                v = v_lo + v_span * u
                user = len(entry)
                entry.append(t)
                speed.append(v)
                if gap_mean is None:
                    continue
                transit = road_length / v
                s = 0.0
                while True:
                    e = exp[i]
                    i += 1
                    if e < 0.0:
                        e, i = words.exponential(i - 1)
                    s += gap_mean * e
                    if s >= transit:
                        break
                    e = exp[i]
                    i += 1
                    if e < 0.0:
                        e, i = words.exponential(i - 1)
                    length = service_mean * e
                    # the session cannot outlive the user's time on the road
                    owner.append(user)
                    start.append(t + s)
                    end.append(t + min(s + length, transit))
        return entry, speed, owner, start, end

    def run(self) -> ObservationStream:
        cfg = self.config
        n = cfg.duration_slots
        m = cfg.num_cells
        # a stream too large to hold, or its expected draws (users, and their
        # sessions at the slowest speed), fail here at once, not after the
        # draws.  The stream is allocated after them: kept from here, it sat
        # below their buffers in the heap; road-360k's peak RSS read 0.5-1.4 MiB more
        users = cfg.arrival_rate * n * cfg.sense_interval
        sessions = users * cfg.traffic_rate * cfg.road_length / cfg.speed_range[0]
        try:
            np.empty((m, n), dtype=np.int8)
            np.empty(int(2 * users + 3 * sessions), dtype=np.float64)
        except (ValueError, MemoryError, OverflowError):
            raise ConfigError(
                f"a stream of {m} cells x {n} slots ({m * n} bytes), or the draws of "
                f"{users:.3g} users and {sessions:.3g} sessions, cannot be allocated"
            ) from None
        entry, speed, owner, start, end = self._draw(
            np.random.PCG64(cfg.seed), n * cfg.sense_interval
        )
        for t, v, sessions in self._scripted:
            for s, e in sessions:
                owner.append(len(entry))
                start.append(s)
                end.append(e)
            entry.append(t)
            speed.append(v)
        owner, start, end = np.asarray(owner), np.asarray(start), np.asarray(end)
        entry, speed = np.asarray(entry)[owner], np.asarray(speed)[owner]

        # sampling instants slot * sense_interval inside [start, end]
        first = np.maximum(np.ceil(start / cfg.sense_interval), 1).astype(np.int64)
        last = np.minimum(np.floor(end / cfg.sense_interval), n).astype(np.int64)
        count = np.maximum(last - first + 1, 0)
        values = np.zeros((m, n), dtype=np.int8)
        # sessions go in blocks of about _MARK_ROWS (session, slot) rows, so
        # memory stays bounded however many slots the sessions cover
        rows = np.cumsum(count)
        lo = 0
        while lo < count.size:
            hi = int(np.searchsorted(rows, rows[lo] - count[lo] + _MARK_ROWS, "right"))
            hi = max(hi, lo + 1)
            block = slice(lo, hi)
            _mark(values, cfg, entry[block], speed[block], first[block], count[block])
            lo = hi
        return ObservationStream(values)


def _mark(values, cfg, entry, speed, first, count) -> None:
    """Set ``values[cell, slot - 1]`` for each slot a session covers on the road.

    One (session, slot) row per covered slot, in one repeat/cumsum pass.
    """
    session = np.repeat(np.arange(count.size), count)
    offset = np.cumsum(count) - count
    slot = first[session] + np.arange(session.size) - offset[session]
    pos = speed[session] * (slot * cfg.sense_interval - entry[session])
    inside = (0 <= pos) & (pos < cfg.road_length)
    cell = (pos[inside] // (cfg.road_length / values.shape[0])).astype(np.intp)
    values[cell, slot[inside] - 1] = 1


def run(config: SimulationConfig) -> ObservationStream:
    """Convenience wrapper: simulate one stream from a config."""
    return Simulation(config).run()
