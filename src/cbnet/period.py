"""Blind period estimation and end-to-end model learning.

``learn_cbn`` searches the period blindly with ``find_null_period``, which
asks, lag by lag, whether the stream folded at that lag has become a
sequence of independent phases.  For each phase the within-phase
dependence of the next frame on the current one is measured by the
likelihood-ratio (G) statistic of the phase's CPT counts, against its
exact mean over every shuffle of the phase's frames (the surrogates of
Theiler et al., Physica D 1992), which removes the small-sample bias that
makes the plug-in dependence grow with the lag.  A shuffle keeps the
phase's counts, so that mean is a finite hypergeometric sum, and learning
draws no random numbers.  A lag is at the null when neither any phase nor
the phase sum exceeds it by more than its threshold.  The learned period
is the smallest lag from 2 up that is at the null and whose multiples 2x
and 3x pass the per-phase test as well, the candidate-then-validate order
of AUTOPERIOD (Vlachos, Yu & Castelli, SDM 2005).  The per-phase test
catches divisors of the period at which most phases repeat but some do
not; the phase sum catches weak dependence spread evenly over the phases.

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
    pair_counts,
    pattern_codes,
)
from .dependence import DependenceMatrix, cpbd_clique, normalize
from .errors import (
    EmptyInputError,
    InsufficientDataError,
    NoPeakError,
    NoValleyError,
)
from .observations import ObservationStream, fold, frame_pair

_SUPPORT_CHUNK = 1 << 14  #: counts of the null's hypergeometric walk at a time

#: threshold of one phase's excess in null standard deviations.  The G of a
#: sparse table has a heavy upper tail: in 24k phases of shuffled copies of
#: the planted streams of acceptance criterion 4, single phases reached 5.5.
Z_PHASE = 5.0
#: level of the phase-average test: the one-sided 1% normal quantile
Z_AVERAGE = 2.326
#: the null mean of one seen row's G term for one child never exceeds
#: 2 ln 2, reached by a single frame at an even marginal.  A lag whose
#: excess over this cap already rejects the null needs no null mean.
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
    by ``bbcpt`` and measured by ``cpbd_clique``; the value is the sum of the x
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


def phase_dependence(parent: np.ndarray, child: np.ndarray, m: int):
    """Within-phase likelihood-ratio statistics of (K, P) folded pattern codes.

    For each phase p of the parent and child codes (``pattern_codes``) of M
    sensors, G[p] = 2 * sum over children i and parent patterns r of n_r
    KL(child_i | r  ||  child_i), the G test of the phase's CPT counts
    against a child that ignores its parents, 0 when no pattern changes any
    child's frequency.  Also returns the degrees of freedom, (seen patterns
    - 1) per child that takes both values, the largest null mean,
    ``_NULL_CAP`` per seen pattern and such child, and ``null()``: the exact
    mean of G over every order in which the parent frames of each phase can
    be paired with its child frames.  An order keeps each phase's pattern
    counts n and child-on totals, so the count c of a pattern's frames with
    child i on is Hypergeom(K, on_i, n), and ``null()`` sums the means of
    phi(c) + phi(n - c), phi(c) = c ln c.
    """
    seen, n, ones = pair_counts(parent, child, m)
    k, x = parent.shape
    phi = np.zeros(k + 1)  # n ln n at the integer count n, 0 at n = 0
    phi[1:] = np.arange(1, k + 1) * np.log(np.arange(1, k + 1))
    starts = np.searchsorted(seen >> m, np.arange(x))  # each phase's run in seen
    on = np.add.reduceat(ones, starts)  # the phase's child-on totals
    fixed = m * np.add.reduceat(phi[n], starts) - m * phi[k]
    fixed += (phi[on] + phi[k - on]).sum(axis=-1)
    terms = (phi[ones] + phi[n[:, None] - ones]).sum(axis=-1)
    g = 2.0 * (np.add.reduceat(terms, starts) - fixed)
    rows = np.diff(starts, append=seen.size)  # seen patterns per phase
    live = ((on > 0) & (on < k)).sum(axis=-1)

    def null() -> np.ndarray:
        log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, k + 1)))))
        on_rows = np.repeat(on, rows, axis=0).ravel()  # an item per row and child
        mean = _mean_phi(np.repeat(n, m), on_rows, k, phi, log_fact).reshape(-1, m)
        return 2.0 * (np.add.reduceat(mean.sum(axis=-1), starts) - fixed)

    return g, (rows - 1) * live, _NULL_CAP * rows * live, null


def _mean_phi(n, on, k, phi, log_fact) -> np.ndarray:
    """E[phi(c) + phi(n - c)] for c ~ Hypergeom(k, on, n), item by item.

    The pmf is taken up to factors free of c, log p(c) = -(lf[c] + lf[on - c]
    + lf[n - c] + lf[k - on - n + c]), relative to its maximum, at the mode,
    and divided by its sum.  All supports are walked in one run.
    """
    low = np.maximum(0, n + on - k)  # the item's smallest count
    bounds = np.concatenate(([0], np.cumsum(np.minimum(n, on) - low + 1)))
    mode, rest = (n + 1) * (on + 1) // (k + 2), k - on - n
    top = sum(log_fact[v] for v in (mode, on - mode, n - mode, rest + mode))
    mass, total = np.zeros(n.size), np.zeros(n.size)
    for first in range(0, int(bounds[-1]), _SUPPORT_CHUNK):
        last = min(first + _SUPPORT_CHUNK, int(bounds[-1]))
        i0 = int(np.searchsorted(bounds, first, side="right")) - 1
        i1 = int(np.searchsorted(bounds, last))  # the chunk walks items i0..i1-1
        reps = np.diff(np.clip(bounds[i0 : i1 + 1], first, last))
        c = np.arange(first, last) - np.repeat(bounds[i0:i1] - low[i0:i1], reps)
        p = np.repeat(top[i0:i1], reps) - log_fact[c]  # log p, then p
        for other, sign in ((rest, 1), (on, -1), (n, -1)):  # ends at n - c
            other = np.repeat(other[i0:i1], reps) + sign * c
            p -= log_fact[other]
        np.exp(p, out=p)
        heads = np.cumsum(reps) - reps
        mass[i0:i1] += np.add.reduceat(p, heads)
        p *= phi[c] + phi[other]
        total[i0:i1] += np.add.reduceat(p, heads)
    return total / mass


def _average_point(mu: float, var: float) -> float:
    """Upper ``Z_AVERAGE`` point of c chi2_nu with mean mu and variance var.

    Wilson & Hilferty's mu (1 - h + z sqrt(h))^3, h = var / (9 mu^2), taken
    at max(mu, sd): below sd it falls as mu rises, and is <= 0 below 0.12 sd.
    """
    mu = max(mu, math.sqrt(var))
    h = var / (9.0 * mu * mu)
    return mu * (1.0 - h + Z_AVERAGE * math.sqrt(h)) ** 3


def _rejects(g: np.ndarray, null: np.ndarray, sd: np.ndarray, average: bool) -> bool:
    """Whether a lag's per-phase G rejects a per-phase null mean."""
    point = _average_point(null.sum(), (sd**2).sum()) if average else math.inf
    return bool((g - null > Z_PHASE * sd).any() or g.sum() > point)


def find_null_period(stream: ObservationStream) -> tuple[int, int]:
    """(first lag at the null, smallest lag confirmed at its multiples).

    Lags x = 2, 3, ... are tested in turn.  One phase's excess G - null is
    compared with its standard deviation sqrt(2 df) against ``Z_PHASE``; the
    sum of G with the point of the scaled chi-square of the summed means and
    variances (``_average_point``; Satterthwaite 1946).  A lag that passes
    both is confirmed when 2x and 3x pass the per-phase test.  Only lags that
    leave every phase at least two frame pairs (x <= N/3) are tested,
    candidates and multiples alike; a stream of fewer than 6 slots has none.

    Each lag is folded and counted once, at its first test, which takes the
    exact null mean too unless the cap already rejects; only (G, sd, null)
    is kept, with the cap for the null where it rejected.  Both tests
    reject any null mean below a mean they reject, and a lag is tested as
    a multiple (per phase only) only before its own turn as a candidate,
    so a cap that rejects its first test rejects every later one.
    """
    # a lag is testable while every phase keeps at least two frame pairs
    max_lag = stream.slot_count // 3
    if max_lag < 2:
        raise InsufficientDataError(
            f"stream of {stream.slot_count} slots is too short for a period search"
        )
    m = stream.sensor_count
    codes = pattern_codes(stream.values)  # each slot's pattern, folded per lag
    tested: dict[int, tuple] = {}

    def at_null(x: int, average: bool) -> bool:
        if x not in tested:
            folded = fold(codes, x)
            g, df, cap, null = phase_dependence(folded[:-1], folded[1:], m)
            sd = np.sqrt(2.0 * np.maximum(df, 1))
            tested[x] = g, sd, (cap if _rejects(g, cap, sd, average) else null())
        g, sd, mean = tested[x]
        return not _rejects(g, mean, sd, average)

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
