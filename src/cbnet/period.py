"""Blind period estimation and end-to-end model learning.

``learn_cbn`` searches the period blindly with ``find_null_period``, which
asks, lag by lag, whether the stream folded at that lag has become a
sequence of independent phases.  For each phase the within-phase
dependence of the next frame on the current one is scored by the
likelihood-ratio (G) statistic of the phase's CPT counts.  Its null mean
is estimated from surrogates that shuffle the frames of every phase
against each other (Theiler et al., "Testing for nonlinearity in time
series: the method of surrogate data", Physica D 1992), which removes the
small-sample bias that makes the plug-in dependence grow with the lag.  A
lag is at the null when neither any single phase nor the phase average
exceeds the null by more than its threshold.  The learned period is the
smallest lag from 2 up that is at the null and whose multiples 2x and 3x
pass the per-phase test as well, the candidate-then-validate order of
AUTOPERIOD (Vlachos, Yu & Castelli, SDM 2005).  The per-phase test catches
divisors of the period at which most phases repeat but some do not; the
phase average catches weak dependence spread evenly over the phases.

``paper_period`` is the rule of the source paper: the lag at which the
averaged CPbD profile reaches its first local minimum gives an empirical
decorrelation interval (ts_star), and the first non-DC peak of the DFT
magnitude of the profile gives the fundamental period of its oscillation
(tp).  The period is the smallest multiple of tp reaching ts_star - 1.
Pass it to ``LearnConfig(period=...)`` to learn a model at that period.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .cpt import (
    DEFAULT_EPS,
    CliqueCPT,
    bbcpt,
    check_sensor_count,
    phase_counts,
)
from .dependence import DependenceMatrix, cpbd_clique, normalize
from .errors import (
    EmptyInputError,
    InsufficientDataError,
    NoPeakError,
    NoValleyError,
)
from .observations import ObservationStream, fold, frame_pair

#: phase_dependence counts S = max(1, this // (2^M M)) phases at once: the
#: S 2^M pattern counts and labels of ``phase_counts``, and a child-on table
#: of one M-wide row per seen (phase, pattern).
_BLOCK_ELEMENTS = 1 << 16

#: shuffled copies per lag from which the surrogate search takes the null mean
SURROGATES = 8
#: threshold of one phase's excess in null standard deviations.  The G
#: statistic of a sparse table has a heavy upper tail: in a scan of 24k null
#: phases of the planted streams of acceptance criterion 4 (3 surrogates
#: each), single phases reached 5.5.
Z_PHASE = 5.0
#: threshold of the phase-average excess: the one-sided 1% normal quantile
Z_AVERAGE = 2.326
#: the null mean of one seen row's G term for one child never exceeds
#: 2 ln 2, reached by a single frame at an even marginal.  A lag whose
#: excess over this cap already rejects the null needs no surrogates.
_NULL_CAP = 2.0 * math.log(2.0)


@dataclass(frozen=True)
class PeriodEstimate:
    """How ``find_null_period`` settled on the period.

    ts_star is the first lag at the null and tp the first one confirmed at
    its multiples, which is the learned period; ts_star < tp means that an
    earlier lag repeated every phase but failed at a multiple.
    """

    ts_star: int
    tp: int


@dataclass(frozen=True)
class LearnConfig:
    """Knobs for learn_cbn; a non-None period skips estimation entirely."""

    period: int | None = None
    epsilon: float = DEFAULT_EPS


@dataclass(frozen=True)
class CbnModel:
    """Learned periodic network: per-clique CPTs and normalized dependences."""

    M: int
    period: int
    cpts: tuple[CliqueCPT, ...]
    deps: tuple[DependenceMatrix, ...]
    estimate: PeriodEstimate | None
    provenance: dict


def lag_dependence(
    stream: ObservationStream,
    x: int,
    sensors=None,
    eps: float = DEFAULT_EPS,
) -> float:
    """Averaged dependence of the stream on itself at a lag of exactly x slots.

    Folding the (sub)stream at P = x makes each phase column a clique whose
    consecutive frames are exactly x raw slots apart, so pairing it with its
    next-frame self probes the lag-x dependence.  Each phase's CPT is counted
    by ``bbcpt`` and scored by ``cpbd_clique``; the value is the sum of the x
    per-phase CPbD matrices, taken in phase order and averaged over phases
    and edges: the profile ``paper_period`` searches.
    """
    frames = fold(stream, x)
    if sensors is not None:
        # the selection must be non-empty, in range and without repeats
        idx = list(sensors)
        if not idx:
            raise EmptyInputError("no sensors selected")
        if len({range(stream.sensor_count)[i] for i in idx}) != len(idx):
            raise ValueError(f"sensors {idx} repeat an index")
        frames = frames[idx]
    m = frames.shape[0]
    parent, child = frames[:, :-1], frames[:, 1:]
    total = 0.0
    for p in range(x):
        cpt = bbcpt(parent[:, :, p], child[:, :, p], eps=eps)
        total += float(cpbd_clique(cpt).D.sum())
    return total / (x * m * m)


def phase_dependence(parent: np.ndarray, child: np.ndarray):
    """Within-phase likelihood-ratio statistics of M x K x P frame arrays.

    For each phase p, G[p] = 2 * sum over children i and parent patterns r
    of n_r KL(child_i | r  ||  child_i), the G test of the phase's CPT
    counts against a child that ignores its parents; it is 0 when no
    pattern changes any child's frequency.  Also returns the degrees of
    freedom, (seen patterns - 1) per child that takes both values, the
    largest null mean, ``_NULL_CAP`` per seen pattern and such child, and
    ``score(orders)``: one row of G per frame order in which the parent
    frames of every phase are paired with the child frames.  An order moves
    only the parent frames, so each phase keeps its pattern counts and child
    totals, and only how a pattern's frames split between a child's two
    values changes.  G is the same whichever value is counted, so ``score``
    counts, for each child and phase, only the shuffled parent labels at the
    entries of the value the child takes less often in that phase, found
    once per call.  Its G rows are bit-identical to those of counting the
    reordered parent frames whole.
    """
    m, k, x = parent.shape
    phi = np.zeros(k + 1)  # n ln n at the integer count n, 0 at n = 0
    phi[1:] = np.arange(1, k + 1) * np.log(np.arange(1, k + 1))

    def block_g(counts, n, starts, fixed):  # from one child value's counts
        terms = (phi[counts] + phi[n[:, None] - counts]).sum(axis=-1)
        return 2.0 * (np.add.reduceat(terms, starts) - fixed)

    block = max(1, _BLOCK_ELEMENTS // (2**m * m))
    g, cap, df = np.empty(x), np.empty(x), np.empty(x, dtype=np.int64)
    blocks = []
    for lo in range(0, x, block):
        phases = slice(lo, lo + block)
        c = child[:, :, phases]
        labels, seen, n, ones = phase_counts(parent[:, :, phases], c)
        # seen is in key order: each phase's labels are one run from ``starts``
        starts = np.searchsorted(seen >> m, np.arange(labels.shape[1]))
        on = np.add.reduceat(ones, starts)  # the phase's child-on totals
        fixed = m * np.add.reduceat(phi[n], starts) - m * phi[k]
        fixed += (phi[on] + phi[k - on]).sum(axis=-1)
        g[phases] = block_g(ones, n, starts, fixed)
        blocks.append((phases, labels, c, 2 * on > k, n, starts, fixed))
        live = ((on > 0) & (on < k)).sum(axis=-1)
        rows = np.diff(starts, append=seen.size)  # seen patterns per phase
        df[phases] = (rows - 1) * live
        cap[phases] = _NULL_CAP * rows * live

    def score(orders) -> np.ndarray:
        # G sums phi(c) + phi(n - c) over the counts c of one child value,
        # so a phase whose child is mostly on counts its off-entries; the
        # entries are kept as (frame, phase) pairs of their block
        found = []
        for _, labels, c, mostly_on, *_ in blocks:
            rare = ((bits != 0) != often for bits, often in zip(c, mostly_on.T))
            found.append([np.divmod(np.flatnonzero(r), labels.shape[1]) for r in rare])
        out = []
        for order in orders:  # any iterable: one order is held at a time
            order = np.arange(k)[order]  # a permutation array, list or slice
            row = np.empty(x)
            for (phases, labels, _, _, n, starts, fixed), pairs in zip(blocks, found):
                flat, width = labels.ravel(), labels.shape[1]
                counts = np.empty((n.size, m), dtype=np.int64)
                for i, (f, s) in enumerate(pairs):
                    shuffled = flat[order[f] * width + s]  # labels[order[f], s]
                    counts[:, i] = np.bincount(shuffled, minlength=n.size)
                row[phases] = block_g(counts, n, starts, fixed)
            out.append(row)
        return np.array(out)

    return g, df, cap, score


def _rejects(excess: np.ndarray, sd: np.ndarray, average: bool) -> bool:
    """Whether a lag's per-phase excesses over a null mean reject that null."""
    if (excess > Z_PHASE * sd).any():
        return True
    return average and float(excess.sum()) > Z_AVERAGE * math.sqrt(float((sd**2).sum()))


def find_null_period(stream: ObservationStream) -> tuple[int, int]:
    """(first lag at the null, smallest lag confirmed at its multiples).

    Lags x = 2, 3, ... are tested in turn.  One phase's excess G - null is
    compared with its standard deviation sqrt(2 df (1 + 1/SURROGATES)),
    which counts the noise of the surrogate mean, against ``Z_PHASE``; the
    sum over phases against ``Z_AVERAGE``.  A lag that passes both is
    confirmed when 2x and 3x pass the per-phase test.  Only lags that leave
    every phase at least two frame pairs (x <= N/3) are tested, candidates
    and multiples alike; a stream of fewer than 6 slots has none.

    Each lag is folded and counted once, at its first test, which scores its
    ``SURROGATES`` lag-seeded shuffles too unless the cap already rejects;
    only (G, sd, cap, null) is kept.  A lag is tested as a multiple (per
    phase only) only before its own turn as a candidate, so a cap that
    rejects its first test rejects every later one.
    """
    # a lag is testable while every phase keeps at least two frame pairs
    max_lag = stream.slot_count // 3
    if max_lag < 2:
        raise InsufficientDataError(
            f"stream of {stream.slot_count} slots is too short for a period search"
        )
    tested: dict[int, tuple] = {}

    def at_null(x: int, average: bool) -> bool:
        if x not in tested:
            frames = fold(stream, x)
            g, df, cap, score = phase_dependence(frames[:, :-1], frames[:, 1:])
            sd = np.sqrt(2.0 * np.maximum(df, 1) * (1.0 + 1.0 / SURROGATES))
            null = None
            if not _rejects(g - cap, sd, average):
                permute = np.random.default_rng(x).permutation
                orders = (permute(frames.shape[1] - 1) for _ in range(SURROGATES))
                null = score(orders).mean(axis=0)
            tested[x] = (g, sd, cap, null)
        g, sd, cap, null = tested[x]
        if _rejects(g - cap, sd, average):
            return False
        assert null is not None, f"lag {x} tested as a multiple after its turn"
        return not _rejects(g - null, sd, average)

    first = None
    for x in range(2, max_lag + 1):
        if not at_null(x, average=True):
            continue
        first = first or x
        if all(at_null(j * x, average=False) for j in (2, 3) if j * x <= max_lag):
            return first, x
    raise NoValleyError(f"no lag up to {max_lag} is at the within-phase null")


def find_ts(profile, max_lag: int) -> int:
    """First local minimum of a lag profile, ``profile(x)`` at lag x.

    Scans x = 3, 4, ... upwards for the first profile(x) <= both
    neighbours, evaluating each lag once and none above max_lag, the data
    limit (half the stream for ``lag_dependence``).
    """
    if max_lag < 3:
        raise InsufficientDataError(
            f"a valley scan needs lags up to at least 3, the data allow {max_lag}"
        )
    prev, cur = profile(2), profile(3)
    for x in range(3, max_lag):
        nxt = profile(x + 1)
        if cur <= prev and cur <= nxt:
            return x
        prev, cur = cur, nxt
    raise NoValleyError(f"no local minimum in the lag profile up to lag {max_lag}")


def dft_magnitude(d) -> np.ndarray:
    """Magnitude of the length-L DFT of a real sequence (0-based bins)."""
    arr = np.asarray(d, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("dft_magnitude expects a 1-D sequence of length >= 2")
    return np.abs(np.fft.fft(arr))


def first_spectral_peak(spectrum: np.ndarray) -> int | None:
    """Smallest bin k in [1, L/2 - 1] that is a strict local maximum."""
    limit = len(spectrum) // 2 - 1
    for k in range(1, limit + 1):
        if spectrum[k] > spectrum[k - 1] and spectrum[k] > spectrum[k + 1]:
            return k
    return None


def harmonic_period(p_f: float, ts_star: int) -> int | None:
    """Largest integer harmonic round(p_f / n) below ts_star (and >= 1)."""
    if ts_star <= 1:
        return None  # no harmonic is admissible
    n = 1
    while True:
        v = math.floor(p_f / n + 0.5)  # round half up, deterministically
        if v < ts_star:
            # harmonics only shrink from here; the first admissible is maximal
            return v if v >= 1 else None
        n += 1


def find_tp(profile, max_lag: int, ts_star: int) -> int:
    """Fundamental period of a lag profile via its first non-DC DFT peak.

    The analysis window is the smallest power of two covering ts_star,
    doubled whenever the spectrum exposes no strict interior peak, up to
    the data limit max_lag.
    """
    level = max(2, math.ceil(math.log2(max(ts_star, 2))))
    while True:
        length = 2**level
        if length > max_lag:
            raise NoPeakError(
                f"no non-DC spectral peak up to window {length // 2}; "
                "the stream looks aperiodic"
            )
        spectrum = dft_magnitude([profile(x) for x in range(1, length + 1)])
        k_star = first_spectral_peak(spectrum)
        if k_star is not None:
            # ts_star == 1 leaves no admissible harmonic
            return harmonic_period(length / k_star, ts_star) or 1
        level += 1


def resolve_period(ts_star: int, tp: int) -> int:
    """Smallest positive multiple of tp that is >= max(ts_star - 1, 1)."""
    if ts_star < 1 or tp < 1:
        raise ValueError("ts_star and tp must be positive")
    return tp * math.ceil(max(ts_star - 1, 1) / tp)


def paper_period(stream: ObservationStream, eps: float = DEFAULT_EPS) -> int:
    """The source paper's blind period: valley scans resolved with the DFT.

    The joint valley scan over all sensors gives ts_star, the spectral step
    supplies the fundamental period tp, and ``resolve_period`` combines the
    two.  One memoized lag profile is shared by every scan and dropped on
    return, so each (sensors, lag) is evaluated once.
    """

    @functools.cache
    def profile(sensors, x):
        return lag_dependence(stream, x, sensors=sensors, eps=eps)

    max_lag = stream.slot_count // 2
    # the per-sensor scans set no lag of the joint scan: all they still do is
    # raise NoValleyError or InsufficientDataError for a sensor without a valley
    for i in range(stream.sensor_count):
        find_ts(functools.partial(profile, (i,)), max_lag)
    joint = functools.partial(profile, None)
    ts_star = find_ts(joint, max_lag)
    return resolve_period(ts_star, find_tp(joint, max_lag, ts_star))


def learn_cbn(stream: ObservationStream, config: LearnConfig | None = None) -> CbnModel:
    """Learn period, CPTs, and normalized dependence matrices from a stream.

    Without a period override the period is searched blind by
    ``find_null_period``.  The model then holds one CPT and one normalized
    dependence matrix per clique t -> t+1, t = 1..T-1.
    """
    if config is None:
        config = LearnConfig()
    eps = config.epsilon
    m = stream.sensor_count
    check_sensor_count(m)
    estimate = None

    if config.period is not None:
        period = int(config.period)
    else:
        first, period = find_null_period(stream)
        estimate = PeriodEstimate(ts_star=first, tp=period)

    # fold range-checks the period, override or not, before the warning
    frames = fold(stream, period)
    if stream.slot_count < 4 * period:
        warnings.warn(
            f"stream of {stream.slot_count} slots is short for period "
            f"{period}; estimates may be unstable",
            stacklevel=2,
        )

    cpts = []
    deps = []
    for t in range(1, period):
        parent, child = frame_pair(frames, t, circular=False)
        cpt = bbcpt(parent, child, eps=eps)
        cpts.append(cpt)
        deps.append(normalize(cpbd_clique(cpt)))

    provenance = {
        "slot_count": stream.slot_count,
        "sensor_labels": list(stream.sensor_labels),
        "epsilon": eps,
        "period_override": config.period,
    }
    return CbnModel(
        M=m,
        period=period,
        cpts=tuple(cpts),
        deps=tuple(deps),
        estimate=estimate,
        provenance=provenance,
    )
