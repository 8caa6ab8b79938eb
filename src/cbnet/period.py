"""Blind period estimation and end-to-end model learning.

The period of the underlying network is recovered in two stages: the lag at
which the averaged dependence profile reaches its first local minimum gives
an empirical decorrelation interval (ts_star), and the first non-DC peak of
the DFT magnitude of the profile gives the fundamental period of its
oscillation (tp).  The learned period is the smallest multiple of tp
reaching ts_star - 1.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .cpt import DEFAULT_EPS, CliqueCPT, bbcpt, check_sensor_count, stacked_cpts
from .dependence import DependenceMatrix, cpbd_clique, cpbd_tables, normalize
from .errors import (
    EmptyInputError,
    InsufficientDataError,
    NoPeakError,
    NoValleyError,
    PeriodRangeError,
)
from .observations import ObservationStream, fold, frame_pair

#: Most table entries (phases x 2^M rows x M children) lag_dependence stacks
#: at once.  A block of this size stays cache-resident through the CPbD, and
#: one phase is always allowed, so a block never holds more than the single
#: table a per-phase evaluation builds.
_BLOCK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class PeriodEstimate:
    ts_star: int
    tp: int
    t_star: int
    #: DFT magnitude sequence the tp decision was made on
    spectrum: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class LearnConfig:
    """Knobs for learn_cbn; a non-None period skips estimation entirely."""

    period: int | None = None
    epsilon: float = DEFAULT_EPS
    initial_exponent: int = 2


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
    next-frame self probes the lag-x dependence.  The value is the sum of the
    x per-phase CPbD matrices, averaged over phases and edges.

    All phases are counted together by ``stacked_cpts``, the kernel of
    ``bbcpt``: every parent frame of the stream is encoded once, straight
    into a (phase, condition index) key, and one bincount over the keys,
    plus one weighted bincount per child sensor, gives every phase's CPT.
    The CPbD of the stacked (phases, 2^M, M) tables runs through
    ``cpbd_tables``, the core of ``cpbd_clique``.  Phases are processed in
    blocks of at most ``_BLOCK_ELEMENTS`` table entries.  Values are
    bit-identical to folding at x and summing ``bbcpt`` + ``cpbd_clique``
    phase by phase.
    """
    values = stream.values
    if sensors is not None:
        # the checks of ``stream.select`` without re-validating the copy
        idx = list(sensors)
        if not idx:
            raise EmptyInputError("no sensors selected")
        if len({range(stream.sensor_count)[i] for i in idx}) != len(idx):
            raise ValueError(f"sensors {idx} repeat an index")
        values = values[idx]
    m, n = values.shape
    if not 1 <= x <= n // 2:
        raise PeriodRangeError(f"lag {x} outside [1, {n // 2}] for {n} slots")
    f = n // x
    frames = values[:, : f * x].reshape(m, f, x)  # [sensor, frame, phase]
    block = max(1, _BLOCK_ELEMENTS // (2**m * m))
    total = 0.0
    for lo in range(0, x, block):
        phases = slice(lo, lo + block)
        B, _, _ = stacked_cpts(frames[:, :-1, phases], frames[:, 1:, phases], eps)
        for D in cpbd_tables(m, B):
            total += float(D.sum())
    return total / (x * m * m)


def _first_valley(d: dict[int, float], lo: int, hi: int) -> int | None:
    """Smallest x in [lo, hi] with d[x] <= d[x-1] and d[x] <= d[x+1]."""
    for x in range(lo, hi + 1):
        if d[x] <= d[x - 1] and d[x] <= d[x + 1]:
            return x
    return None


def find_ts(
    stream: ObservationStream,
    sensors=None,
    initial_exponent: int = 2,
    eps: float = DEFAULT_EPS,
    _profile=None,
) -> int:
    """First local minimum of the lag-dependence profile.

    Scans lags 2..2^l + 1 starting at l = initial_exponent, doubling the
    window until a valley appears or the data limit (half the stream) is
    reached.  ``_profile`` replaces the lag evaluator: ``learn_cbn`` passes
    its memoized profile, and tests pass synthetic ones.
    """
    if _profile is None:
        def _profile(x):
            return lag_dependence(stream, x, sensors=sensors, eps=eps)

    max_lag = stream.slot_count // 2
    if max_lag < 3:
        raise InsufficientDataError(
            f"stream of {stream.slot_count} slots is too short for a valley scan"
        )
    level = initial_exponent
    d: dict[int, float] = {}
    top = 0
    while True:
        new_top = min(2**level + 1, max_lag)
        for x in range(max(2, top + 1), new_top + 1):
            d[x] = _profile(x)
        top = new_top
        valley = _first_valley(d, 3, top - 1)
        if valley is not None:
            return valley
        if top >= max_lag:
            raise NoValleyError(
                f"no local minimum in the lag profile up to lag {top}"
            )
        level += 1


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
    best = None
    n = 1
    while True:
        v = math.floor(p_f / n + 0.5)  # round half up, deterministically
        if v < 1:
            break
        if v < ts_star:
            best = v if best is None else max(best, v)
            # harmonics only shrink from here; the first admissible is maximal
            break
        n += 1
    return best


def find_tp(
    stream: ObservationStream,
    ts_star: int,
    sensors=None,
    eps: float = DEFAULT_EPS,
    _profile=None,
) -> tuple[int, np.ndarray]:
    """Fundamental period of the lag profile via its first non-DC DFT peak.

    The analysis window is the smallest power of two covering ts_star,
    doubled whenever the spectrum exposes no strict interior peak, up to
    the data limit.
    """
    if _profile is None:
        def _profile(x):
            return lag_dependence(stream, x, sensors=sensors, eps=eps)

    max_lag = stream.slot_count // 2
    level = max(2, math.ceil(math.log2(max(ts_star, 2))))
    d: dict[int, float] = {}
    while True:
        length = 2**level
        if length > max_lag:
            raise NoPeakError(
                f"no non-DC spectral peak up to window {length // 2}; "
                "the stream looks aperiodic"
            )
        for x in range(1, length + 1):
            if x not in d:
                d[x] = _profile(x)
        spectrum = dft_magnitude([d[x] for x in range(1, length + 1)])
        k_star = first_spectral_peak(spectrum)
        if k_star is not None:
            p_f = length / k_star
            tp = harmonic_period(p_f, ts_star)
            if tp is None:
                tp = 1  # ts_star == 1 leaves no admissible harmonic
            return tp, spectrum
        level += 1


def resolve_period(ts_star: int, tp: int) -> int:
    """Smallest positive multiple of tp that is >= max(ts_star - 1, 1)."""
    if ts_star < 1 or tp < 1:
        raise ValueError("ts_star and tp must be positive")
    return tp * math.ceil(max(ts_star - 1, 1) / tp)


def learn_cbn(stream: ObservationStream, config: LearnConfig | None = None) -> CbnModel:
    """Learn period, CPTs, and normalized dependence matrices from a stream.

    Without a period override: per-sensor valley scans pick the largest
    single-sensor decorrelation lag, a joint rerun over all sensors refines
    it, the spectral step supplies the fundamental period, and the two are
    resolved into the learned period T.  The model then holds one CPT and
    one normalized dependence matrix per clique t -> t+1, t = 1..T-1.
    """
    if config is None:
        config = LearnConfig()
    eps = config.epsilon
    m = stream.sensor_count
    check_sensor_count(m)
    estimate = None

    if config.period is not None:
        t_star = int(config.period)
        if not 1 <= t_star <= stream.slot_count // 2:
            raise PeriodRangeError(
                f"period override {t_star} outside [1, {stream.slot_count // 2}]"
            )
    else:
        # One memoized lag profile per call, shared by every search below and
        # dropped when learn_cbn returns: each (sensors, lag) is evaluated once.
        memo: dict[tuple, float] = {}

        def profile(sensors):
            def at(x):
                key = (sensors, x)
                if key not in memo:
                    memo[key] = lag_dependence(stream, x, sensors=sensors, eps=eps)
                return memo[key]

            return at

        per_sensor = [
            find_ts(stream, initial_exponent=config.initial_exponent,
                    _profile=profile((i,)))
            for i in range(m)
        ]
        ts_max = max(per_sensor)
        l0 = max(config.initial_exponent, math.ceil(math.log2(max(ts_max, 2))))
        ts_star = find_ts(stream, initial_exponent=l0, _profile=profile(None))
        tp, spectrum = find_tp(stream, ts_star, _profile=profile(None))
        t_star = resolve_period(ts_star, tp)
        estimate = PeriodEstimate(
            ts_star=ts_star, tp=tp, t_star=t_star, spectrum=spectrum
        )

    if stream.slot_count < 4 * t_star:
        warnings.warn(
            f"stream of {stream.slot_count} slots is short for period "
            f"{t_star}; estimates may be unstable",
            stacklevel=2,
        )

    folded = fold(stream, t_star)
    cpts = []
    deps = []
    for t in range(1, t_star):
        parent, child = frame_pair(folded, t, circular=False)
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
        period=t_star,
        cpts=tuple(cpts),
        deps=tuple(deps),
        estimate=estimate,
        provenance=provenance,
    )
