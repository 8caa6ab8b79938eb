"""Binary sensor streams and period-indexed folding.

A stream holds M synchronous on/off sensor rows over N time slots.  Folding
at a candidate period P views each row as F frames of P phases, so that
samples P slots apart become repeated observations of one variable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyInputError,
    PeriodRangeError,
    PhaseRangeError,
)


def _as_binary_array(values) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 2:
        raise EmptyInputError(f"expected a 2-D sensor array, got ndim={arr.ndim}")
    if arr.size == 0:
        raise EmptyInputError("empty observation array")
    if not np.all((arr == 0) | (arr == 1)):
        raise ValueError("observation values must all be 0 or 1")
    return arr.astype(np.int8)


@dataclass(frozen=True)
class ObservationStream:
    """M binary sensor rows over N_raw synchronous time slots."""

    values: np.ndarray
    sensor_labels: tuple[str, ...] = ()

    def __post_init__(self):
        arr = _as_binary_array(self.values)
        if arr.shape[1] < 2:
            raise EmptyInputError("a stream needs at least 2 slots")
        object.__setattr__(self, "values", arr)
        labels = tuple(self.sensor_labels) or tuple(
            f"s{i + 1}" for i in range(arr.shape[0])
        )
        if len(labels) != arr.shape[0]:
            raise ValueError("sensor_labels length must equal the sensor count")
        if len(set(labels)) != len(labels):
            raise ValueError("sensor_labels must be distinct")
        object.__setattr__(self, "sensor_labels", labels)

    @property
    def sensor_count(self) -> int:
        return self.values.shape[0]

    @property
    def slot_count(self) -> int:
        return self.values.shape[1]


def fold(stream: ObservationStream | np.ndarray, period: int) -> np.ndarray:
    """The (M, F, P) frame view of a stream folded at period P.

    frames[i, k, t] is sensor i at 0-based slot k*P + t: frame k, phase
    t + 1.  The trailing N mod P slots are dropped, and nothing is copied.
    P must be an integer (a bool or float is refused) that leaves at least
    two frames.  Any array with the slots on its last axis folds alike: a
    stream's per-slot pattern codes fold to (F, P).
    """
    values = stream.values if isinstance(stream, ObservationStream) else stream
    n = values.shape[-1]
    if isinstance(period, bool) or not isinstance(period, (int, np.integer)):
        raise PeriodRangeError(f"fold period {period!r} is not an integer")
    if not 1 <= period <= n // 2:
        raise PeriodRangeError(
            f"fold period {period} outside [1, {n // 2}] for {n} slots"
        )
    f = n // period
    return values[..., : f * period].reshape(*values.shape[:-1], f, period)


def frame_pair(
    frames: np.ndarray, t: int, circular: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Parent/child frame matrices for the clique between phases t and t+1.

    ``frames`` is a fold's (M, F, P) view; phases are 1-based.  For t < P
    both matrices have K = F columns.  For t = P the child comes from phase
    1 of the next frame; non-circular pairing drops the final wrap-around
    pair (K = F-1), circular pairing keeps it by cyclically shifting phase 1
    (K = F).
    """
    p = frames.shape[2]
    if not 1 <= t <= p:
        raise PhaseRangeError(f"phase {t} outside [1, {p}]")
    if t < p:
        return frames[:, :, t - 1], frames[:, :, t]
    if circular:
        return frames[:, :, p - 1], np.roll(frames[:, :, 0], -1, axis=1)
    return frames[:, :-1, p - 1], frames[:, 1:, 0]
