"""Binary sensor streams and period-indexed folding.

A stream holds M synchronous on/off sensor rows over N time slots.  Folding
at a candidate period P reshapes each row into P phase columns of F frames,
so that samples P slots apart become repeated observations of one variable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    if not np.isin(arr, (0, 1)).all():
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


@dataclass(frozen=True)
class FoldedObservations:
    """A stream folded at period P into an (M, P, F) phase/frame array.

    columns[i, t-1, k-1] is the raw value of sensor i at slot t + (k-1)*P
    (slots 1-based).  Trailing N_raw mod P slots are discarded.
    """

    period: int
    columns: np.ndarray = field(repr=False)

    @property
    def frame_count(self) -> int:
        return self.columns.shape[2]

    def unfold(self) -> np.ndarray:
        """Reconstruct the first F*P raw slots, sensor-major."""
        m, p, f = self.columns.shape
        return self.columns.transpose(0, 2, 1).reshape(m, f * p)


def fold(stream: ObservationStream, period: int) -> FoldedObservations:
    """Fold a stream at candidate period P (needs at least two frames)."""
    n = stream.slot_count
    if not 1 <= period <= n // 2:
        raise PeriodRangeError(
            f"fold period {period} outside [1, {n // 2}] for {n} slots"
        )
    f = n // period
    m = stream.sensor_count
    used = stream.values[:, : f * period]
    columns = used.reshape(m, f, period).transpose(0, 2, 1)
    return FoldedObservations(period=period, columns=np.ascontiguousarray(columns))


def frame_pair(
    folded: FoldedObservations, t: int, circular: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Parent/child frame matrices for the clique between phases t and t+1.

    Phases are 1-based.  For t < P both matrices have K = F columns.  For
    t = P the child comes from phase 1 of the next frame; non-circular
    pairing drops the final wrap-around pair (K = F-1), circular pairing
    keeps it by cyclically shifting phase 1 (K = F).
    """
    p = folded.period
    if not 1 <= t <= p:
        raise PhaseRangeError(f"phase {t} outside [1, {p}]")
    cols = folded.columns
    if t < p:
        return cols[:, t - 1, :], cols[:, t, :]
    if circular:
        return cols[:, p - 1, :], np.roll(cols[:, 0, :], -1, axis=1)
    return cols[:, p - 1, :-1], cols[:, 0, 1:]
