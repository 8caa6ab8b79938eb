"""Conditional-probability-based dependence (CPbD) of one clique.

Edge strength from parent k to child i is the sum, over both child values
and every assignment of the other M-1 parents, of the absolute log-ratio
between the two conditionals that differ only in parent k; it is stored at
D[k, i], parent row and child column.  It is zero exactly under
conditional independence.  The clique-level computation pairs
condition rows that differ in one parent bit as two strided views of the
table, which is the difference operator applied without building it
(``cbnet.reference`` keeps the dense operator and a nested-loop oracle).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cpt import CliqueCPT, check_sensor_count
from .errors import BoundaryProbabilityError

#: diagonal entries below this are treated as degenerate when normalizing
DEGENERATE_DIAG = 1e-9


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
    """CPbD matrix of one CPT: B (2^M, M) -> D (M, M).

    D[k, i] (parent k, child i) sums |log B - log B| and |log(1-B) - log(1-B)| over the
    2^(M-1) row pairs of block k (natural log).  Equivalent to applying the
    dense difference operator and block-summing, without materializing it:
    the rows with parent k's bit at 0 and at 1 are two strided views of the
    table, taken in assignment order.
    """
    check_sensor_count(M)
    _check_open_unit(B)
    logB = np.log(B)
    log1mB = np.log(1.0 - B)
    D = np.empty((M, M))  # [parent k, child i]
    for k in range(M):
        # parent k+1 is bit M-1-k of the condition index
        pairs = (2**k, 2, 2 ** (M - 1 - k), M)
        on = logB.reshape(pairs)
        off = log1mB.reshape(pairs)
        d = np.abs(on[:, 0] - on[:, 1])
        d += np.abs(off[:, 0] - off[:, 1])
        D[k] = d.reshape(-1, M).sum(axis=0)
    return D


def cpbd_clique(cpt: CliqueCPT) -> DependenceMatrix:
    """CPbD of every edge of one clique from its CPT (see ``cpbd_tables``)."""
    return DependenceMatrix(M=cpt.M, D=cpbd_tables(cpt.M, cpt.B))


def normalize(dm: DependenceMatrix) -> DependenceMatrix:
    """Scale each column by its diagonal entry (the child's self-dependence).

    Every edge into child i is measured against how strongly child i
    depends on its own past.  Columns whose diagonal is numerically zero
    cannot be scaled; they come back as an indicator column (1 on the
    diagonal, 0 elsewhere) and are flagged.
    """
    diag = np.diagonal(dm.D)
    flat = diag < DEGENERATE_DIAG  # False for NaN, which divides as any other
    D = np.divide(dm.D, diag, out=np.eye(dm.M), where=~flat)
    return DependenceMatrix(dm.M, D, tuple(np.flatnonzero(flat).tolist()))
