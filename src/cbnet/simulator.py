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
bit generator's raw words (``cbnet.ziggurat.decode``), and each block's users
are found with array ops, which saves the ~1 us that each scalar call costs;
only their sessions are kept, one row each, as that is all a stream reads.
The ziggurat's tables there are transcribed from numpy 2.4.6's
``libnpyrandom.a`` (``we_double``, ``ke_double``, ``fe_double``); the streams
therefore rest only on PCG64's raw words, which numpy keeps stable, and tests
compare the decode with the Generator's own draws and ``_draw``'s columns
with a literal loop over them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SessionBoundsError
from .observations import ObservationStream

KMH_TO_MS = 1.0 / 3.6

#: (session, slot) rows marked per block by ``Simulation.run``
_MARK_ROWS = 1 << 18
#: PCG64 words decoded per block by ``Simulation._draw``: on a 360k-slot road,
#: 8k took ~10% longer and 32k raised the traced peak 1.6 MiB for no clear gain
_DRAW_WORDS = 1 << 14


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
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


class Simulation:
    """One seeded realization of the scenario; build, optionally inject, run."""

    def __init__(self, config: SimulationConfig):
        self.config = config
        self._scripted: list[tuple] = []  # (entry, speed, start, end) per session

    def inject_user(self, entry_time: float, speed: float, sessions) -> "Simulation":
        """Add a fully scripted user (test hook bypassing all random draws)."""
        if speed <= 0:
            raise ConfigError(f"scripted speed must be positive, got {speed}")
        exit_time = entry_time + self.config.road_length / speed
        user = (float(entry_time), float(speed))
        # sessions may be a generator, so it is read once, into the rows
        rows = [user + (float(s), float(e)) for s, e in sessions]
        for _, _, start, end in rows:
            if not entry_time <= start <= end <= exit_time:
                raise SessionBoundsError(
                    f"session ({start}, {end}) outside traversal "
                    f"[{entry_time}, {exit_time}]"
                )
        self._scripted += rows
        return self

    def _draw(self, bitgen: np.random.PCG64, horizon: float):
        """Poisson arrivals on [0, horizon); sessions drawn per user in entry order.

        Returns the columns (entry, speed, start, end), one item per
        session, entry and speed being its user's, as ``array.array``
        buffers.  The draws are those of ``np.random.Generator(bitgen)``, in
        its stream's order and bit for bit: ``scale * standard_exponential()``
        and ``lo + (hi - lo) * random()``, numpy's own arithmetic for
        ``exponential(scale)`` and ``uniform(lo, hi)``.  A user reads an
        arrival, a speed and a gap, then a session length and another gap
        for as long as its gaps sum to less than its transit time.  Without
        arrivals or sessions no user can mark a slot, so nothing is drawn.

        Which word a draw starts at never depends on the arrival times, so
        the users are found with array ops over blocks of ``_DRAW_WORDS``
        words (``cbnet.ziggurat.decode``).  A *regular* user's arrival and
        first gap take the ziggurat's fast path and that gap outlasts its
        transit, so the next user starts 3 words on; after any other word,
        the next user is found by walking its draws, a pass per session.  A
        user that does not fit in a block is carried over.
        """
        # imported here, not at the top: every cbnet command loads this
        # module, and only a simulation needs the ziggurat tables
        from array import array

        from .ziggurat import decode

        cfg = self.config
        entry, speed, start, end = array("d"), array("d"), array("d"), array("d")
        if cfg.arrival_rate <= 0 or cfg.traffic_rate <= 0:
            return entry, speed, start, end
        arrival_mean, gap_mean = 1.0 / cfg.arrival_rate, 1.0 / cfg.traffic_rate
        v_lo, v_hi = cfg.speed_range
        v_span = v_hi - v_lo
        service_mean, road_length = cfg.service_mean, cfg.road_length
        step = 3  # a regular user's words: arrival, speed, gap
        raw, t = np.empty(0, dtype=np.uint64), 0.0
        while True:
            # at least as many new words as carried ones, so that a user
            # longer than a block is decoded a logarithmic number of times
            raw = np.concatenate((raw, bitgen.random_raw(max(_DRAW_WORDS, raw.size))))
            n = raw.size
            if n < step:
                continue
            e, after, u = decode(raw)
            fast = after[:n] == np.arange(1, n + 1)
            regular = np.zeros(n + step, dtype=bool)
            regular[:n - 2] = fast[:-2] & fast[2:] & (
                gap_mean * e[2:n] >= road_length / (v_lo + v_span * u[1:-1]))
            # the other words, ending with the words n .. n + step - 1 past
            # the block, one in each residue class modulo step; nxt is the
            # word where the next user starts, or -1 past the block
            other = (~regular).nonzero()[0]
            nxt = np.full(other.size, -1)
            a = after[other[:-step]]  # the speed's word
            rows = (a < n).nonzero()[0]
            a = a[rows]
            c = after[a + 1]  # the word after the gap
            rows, a, c = rows[c <= n], a[c <= n], c[c <= n]
            transit = road_length / (v_lo + v_span * u[a])
            s = gap_mean * e[a + 1]
            sessions = []  # (rows, s, min(s + length, transit)) per pass
            # each pass reads a session's length and the next gap; a row
            # whose draws run past the block drops out, nxt left at -1
            while rows.size:
                out = s >= transit
                nxt[rows[out]] = c[out]
                length_end = after[c]
                keep = ~out & (after[length_end] <= n)
                rows, s, c, transit, length_end = (
                    x[keep] for x in (rows, s, c, transit, length_end))
                sessions.append((rows, s, np.minimum(s + service_mean * e[c], transit)))
                s = s + gap_mean * e[length_end]
                c = after[length_end]
            # the run of regular users from word m ends at the first other
            # word of m's residue class: run_end[m] is that word's row
            run_end = np.full(n + step, other.size)
            run_end[other] = np.arange(other.size)
            for r in range(step):
                ahead = run_end[r::step][::-1]
                np.minimum.accumulate(ahead, out=ahead)
            jump = np.where(nxt >= 0, run_end[nxt], -1)
            # from word 0, each hop crosses a run of regular users and the
            # other user that ends it; the last run ends at a user that
            # needs words past the block, or at word n
            hops, k = jump.tolist(), int(run_end[0])
            path = [k]
            while (k := hops[k]) >= 0:
                path.append(k)
            path = np.array(path)
            ends = other[path]
            begins = np.concatenate(([0], nxt[path[:-1]]))
            counts = (ends - begins) // step + 1
            counts[-1] -= 1  # the user that ends the last run is carried
            first = counts.cumsum() - counts
            users = np.repeat(begins - step * first, counts)
            users += step * np.arange(users.size)
            user_of = np.full(other.size, -1)  # the block's user at a row
            user_of[path[:-1]] = (first + counts - 1)[:-1]
            # cumsum adds in the order of the loop's t += arrival
            times = np.concatenate(([t], arrival_mean * e[users])).cumsum()
            cut = int(np.searchsorted(times[1:], horizon))
            if sessions:
                rows, s, stop = (np.concatenate(x) for x in zip(*sessions))
                who = user_of[rows]
                keep = ((who >= 0) & (who < cut)).nonzero()[0]
                keep = keep[np.argsort(who[keep], kind="stable")]
                who, s, stop = who[keep], s[keep], stop[keep]
                at = times[who + 1]
                entry.frombytes(at.tobytes())
                speed.frombytes((v_lo + v_span * u[after[users[who]]]).tobytes())
                start.frombytes((at + s).tobytes())
                end.frombytes((at + stop).tobytes())
            if cut < users.size:
                return entry, speed, start, end
            t = times[-1]
            raw = raw[ends[-1]:]

    def run(self) -> ObservationStream:
        cfg = self.config
        n = cfg.duration_slots
        m = cfg.num_cells
        # a stream too large to hold, or its expected draws (users, and their
        # sessions at the slowest speed), fail here at once, not after the
        # draws.  Every user is drawn though only sessions are kept, so this
        # probe bounds the draws, not the kept columns; with a rate of 0
        # nothing is drawn.  The stream is allocated after the draws: kept
        # from here, it sat below their buffers in the heap; road-360k's
        # peak RSS read 0.5-1.4 MiB more
        users = sessions = 0.0
        if cfg.arrival_rate > 0 and cfg.traffic_rate > 0:
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
        entry, speed, start, end = self._draw(
            np.random.PCG64(cfg.seed), n * cfg.sense_interval
        )
        for column, scripted in zip((entry, speed, start, end), zip(*self._scripted)):
            column.extend(scripted)
        entry, speed, start, end = (np.asarray(c) for c in (entry, speed, start, end))

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
