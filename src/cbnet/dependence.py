"""Conditional-probability-based dependence (CPbD) of one clique.

Edge strength from parent k to child i is the sum, over both child values
and every assignment of the other M-1 parents, of the absolute log-ratio
between the two conditionals that differ only in parent k.  It is zero
exactly under conditional independence.  The clique-level computation pairs
condition rows that differ in one parent bit as two strided views of the
table, which is the sparse difference operator applied without building it;
the explicit operator and a literal nested-loop oracle are kept for
verification.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cpt import CliqueCPT, check_sensor_count
from .errors import BoundaryProbabilityError

#: diagonal entries below this are treated as degenerate when normalizing
DEGENERATE_DIAG = 1e-9


@dataclass(frozen=True)
class DifferenceOperator:
    """Signed pairing of condition rows that differ in exactly one parent bit.

    Column block k (k = 1..M) has one column per assignment a of the other
    M-1 bits: +1 at the row with bit k = 0, -1 at the row with bit k = 1.
    Stored as the two row-index arrays; ``dense()`` materializes the
    2^M x (M * 2^(M-1)) matrix for small M.
    """

    M: int
    #: (M, 2^(M-1)) row indices carrying +1, blocks k ascending, a ascending
    plus_rows: np.ndarray = field(repr=False)
    #: (M, 2^(M-1)) row indices carrying -1
    minus_rows: np.ndarray = field(repr=False)

    def dense(self) -> np.ndarray:
        m = self.M
        half = 2 ** (m - 1)
        L = np.zeros((2**m, m * half), dtype=np.int8)
        for k in range(m):
            for a in range(half):
                col = k * half + a
                L[self.plus_rows[k, a], col] = 1
                L[self.minus_rows[k, a], col] = -1
        return L


def difference_operator(M: int) -> DifferenceOperator:
    """Build the row-pairing operator for M parents."""
    check_sensor_count(M)
    half = 2 ** (M - 1)
    plus = np.empty((M, half), dtype=np.int64)
    minus = np.empty((M, half), dtype=np.int64)
    a = np.arange(half, dtype=np.int64)
    for k in range(1, M + 1):
        bit = M - k  # parent k occupies bit M-k of the condition index
        low = a & ((1 << bit) - 1)
        high = (a >> bit) << (bit + 1)
        base = high | low  # assignment a spread around a zero at `bit`
        plus[k - 1] = base
        minus[k - 1] = base | (1 << bit)
    return DifferenceOperator(M=M, plus_rows=plus, minus_rows=minus)


@dataclass(frozen=True)
class DependenceMatrix:
    """M x M nonnegative CPbD weights; D[i, k] = parent k -> child i."""

    M: int
    D: np.ndarray = field(repr=False)
    degenerate: tuple[int, ...] = ()  # 0-based rows hit by the normalize fallback


def _check_open_unit(B: np.ndarray):
    if np.any((B <= 0.0) | (B >= 1.0)):
        raise BoundaryProbabilityError(
            "CPT entries must lie strictly inside (0, 1); clamp before CPbD"
        )


def cpbd_tables(M: int, B: np.ndarray) -> np.ndarray:
    """CPbD matrices of stacked CPTs: B (..., 2^M, M) -> D (..., M, M).

    D[..., i, k] sums |log B - log B| and |log(1-B) - log(1-B)| over the
    2^(M-1) row pairs of block k (natural log).  Equivalent to applying the
    dense difference operator and block-summing, without materializing it:
    the rows with parent k's bit at 0 and at 1 are two strided views of the
    table, taken in assignment order.
    """
    check_sensor_count(M)
    _check_open_unit(B)
    lead = B.shape[:-2]
    logB = np.log(B)
    log1mB = np.log(1.0 - B)
    Dt = np.empty(lead + (M, M))  # [parent k, child i]
    for k in range(M):
        # parent k+1 is bit M-1-k of the condition index
        pairs = lead + (2**k, 2, 2 ** (M - 1 - k), M)
        on = logB.reshape(pairs)
        off = log1mB.reshape(pairs)
        d = np.abs(on[..., 0, :, :] - on[..., 1, :, :])
        d += np.abs(off[..., 0, :, :] - off[..., 1, :, :])
        Dt[..., k, :] = d.reshape(lead + (-1, M)).sum(axis=-2)
    return np.swapaxes(Dt, -1, -2)


def cpbd_clique(cpt: CliqueCPT) -> DependenceMatrix:
    """CPbD of every edge of one clique from its CPT (see ``cpbd_tables``)."""
    return DependenceMatrix(M=cpt.M, D=cpbd_tables(cpt.M, cpt.B))


def direct_cpbd(cpt: CliqueCPT, i: int, k: int) -> float:
    """Literal nested-loop CPbD of one edge (1-based child i, parent k)."""
    M = cpt.M
    if not (1 <= i <= M and 1 <= k <= M):
        raise IndexError(f"child {i} / parent {k} outside [1, {M}]")
    B = cpt.B
    _check_open_unit(B)
    bit = M - k
    total = 0.0
    for a in range(2 ** (M - 1)):
        low = a & ((1 << bit) - 1)
        high = (a >> bit) << (bit + 1)
        x0 = high | low
        x1 = x0 | (1 << bit)
        for y in (0, 1):
            p0 = B[x0, i - 1] if y == 1 else 1.0 - B[x0, i - 1]
            p1 = B[x1, i - 1] if y == 1 else 1.0 - B[x1, i - 1]
            total += abs(np.log(p0) - np.log(p1))
    return float(total)


def normalize(dm: DependenceMatrix) -> DependenceMatrix:
    """Scale each row by its diagonal entry (self-dependence).

    Rows whose diagonal is numerically zero cannot be scaled; they come back
    as an indicator row (1 on the diagonal, 0 elsewhere) and are flagged.
    """
    D = dm.D
    M = dm.M
    out = np.empty_like(D, dtype=np.float64)
    degenerate = []
    for i in range(M):
        if D[i, i] < DEGENERATE_DIAG:
            out[i] = 0.0
            out[i, i] = 1.0
            degenerate.append(i)
        else:
            out[i] = D[i] / D[i, i]
    return DependenceMatrix(M=M, D=out, degenerate=tuple(degenerate))
