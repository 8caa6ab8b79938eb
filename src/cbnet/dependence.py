"""Conditional-probability-based dependence (CPbD) of one clique.

Edge strength from parent k to child i is the sum, over both child values
and every assignment of the other M-1 parents, of the absolute log-ratio
between the two conditionals that differ only in parent k; it is stored at
D[k, i], parent row and child column.  It is zero exactly under
conditional independence.  The clique-level computation pairs
condition rows that differ in one parent bit as two strided views of the
table, which is the difference operator applied without building it; the
dense operator and a literal nested-loop oracle are kept for verification.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cpt import CliqueCPT, check_sensor_count
from .errors import BoundaryProbabilityError, DimensionError

#: diagonal entries below this are treated as degenerate when normalizing
DEGENERATE_DIAG = 1e-9


def difference_operator(M: int) -> np.ndarray:
    """Dense 2^M x (M * 2^(M-1)) int8 row-pairing operator, a test reference.

    Column block k (k = 1..M) has one column per assignment a of the other
    M-1 parent bits: +1 at the row with parent k's bit at 0, -1 at the row
    with it at 1.  M is capped at 12, where the matrix takes 100 MB.
    """
    if not 1 <= M <= 12:
        raise DimensionError(f"dense difference operator for M = {M} outside [1, 12]")
    half = 2 ** (M - 1)
    L = np.zeros((2**M, M * half), dtype=np.int8)
    a = np.arange(half)
    for k in range(1, M + 1):
        bit = M - k  # parent k occupies bit M-k of the condition index
        base = ((a >> bit) << (bit + 1)) | (a & ((1 << bit) - 1))
        cols = (k - 1) * half + a
        L[base, cols] = 1
        L[base | (1 << bit), cols] = -1
    return L


@dataclass(frozen=True)
class DependenceMatrix:
    """M x M nonnegative CPbD weights; D[k, i] = parent k -> child i.

    Rows are parents and columns children, the ordinary adjacency reading:
    with sensors numbered in the direction of travel, one-way traffic puts
    its weight above the diagonal.
    """

    M: int
    D: np.ndarray = field(repr=False)
    degenerate: tuple[int, ...] = ()  # 0-based columns hit by the normalize fallback


def _check_open_unit(B: np.ndarray):
    if np.any((B <= 0.0) | (B >= 1.0)):
        raise BoundaryProbabilityError(
            "CPT entries must lie strictly inside (0, 1); clamp before CPbD"
        )


def cpbd_tables(M: int, B: np.ndarray) -> np.ndarray:
    """CPbD matrices of stacked CPTs: B (..., 2^M, M) -> D (..., M, M).

    D[..., k, i] (parent k, child i) sums |log B - log B| and |log(1-B) - log(1-B)| over the
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
    D = np.empty(lead + (M, M))  # [parent k, child i]
    for k in range(M):
        # parent k+1 is bit M-1-k of the condition index
        pairs = lead + (2**k, 2, 2 ** (M - 1 - k), M)
        on = logB.reshape(pairs)
        off = log1mB.reshape(pairs)
        d = np.abs(on[..., 0, :, :] - on[..., 1, :, :])
        d += np.abs(off[..., 0, :, :] - off[..., 1, :, :])
        D[..., k, :] = d.reshape(lead + (-1, M)).sum(axis=-2)
    return D


def cpbd_clique(cpt: CliqueCPT) -> DependenceMatrix:
    """CPbD of every edge of one clique from its CPT (see ``cpbd_tables``)."""
    return DependenceMatrix(M=cpt.M, D=cpbd_tables(cpt.M, cpt.B))


def direct_cpbd(cpt: CliqueCPT, k: int, i: int) -> float:
    """Literal nested-loop CPbD of one edge (1-based parent k, child i).

    The indices come in matrix order, so ``direct_cpbd(cpt, k, i)`` is
    ``cpbd_clique(cpt).D[k - 1, i - 1]``.
    """
    M = cpt.M
    if not (1 <= i <= M and 1 <= k <= M):
        raise IndexError(f"parent {k} / child {i} outside [1, {M}]")
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
    """Scale each column by its diagonal entry (the child's self-dependence).

    Every edge into child i is measured against how strongly child i
    depends on its own past.  Columns whose diagonal is numerically zero
    cannot be scaled; they come back as an indicator column (1 on the
    diagonal, 0 elsewhere) and are flagged.
    """
    D = dm.D
    M = dm.M
    out = np.empty_like(D, dtype=np.float64)
    degenerate = []
    for i in range(M):
        if D[i, i] < DEGENERATE_DIAG:
            out[:, i] = 0.0
            out[i, i] = 1.0
            degenerate.append(i)
        else:
            out[:, i] = D[:, i] / D[i, i]
    return DependenceMatrix(M=M, D=out, degenerate=tuple(degenerate))
