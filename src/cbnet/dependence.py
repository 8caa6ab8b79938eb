"""Conditional-probability-based dependence (CPbD) of one clique.

Edge strength from parent k to child i is the sum, over both child values
and every assignment of the other M-1 parents, of the absolute log-ratio
between the two conditionals that differ only in parent k; it is stored at
D[k, i], parent row and child column.  It is zero exactly under
conditional independence.  The clique-level computation pairs
condition rows that differ in one parent bit as two strided views of the
table, which is the difference operator applied without building it
(``cbnet.reference`` keeps the dense operator and a nested-loop oracle).

A row whose every entry is the default ``cpt.UNSEEN`` (an unseen parent
pattern, or a seen one that happens to equal it) is dead; any other row is
live.  A pair of two dead rows adds exactly +0.0 to every column's running
sum, so a table with few live rows is scored from the pairs that hold a
live row alone.  Kept in the dense pair order and summed by the same
``(pairs, M).sum(axis=0)`` reduction, those pairs give D bit for bit.
``cpbd_tables`` picks the form from the table's live-row count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cpt import UNSEEN, CliqueCPT, check_sensor_count
from .errors import BoundaryProbabilityError, ShapeMismatchError

#: diagonal entries below this are treated as degenerate when normalizing
DEGENERATE_DIAG = 1e-9

#: a table with at most one live row in LIVE_SHARE is scored by its live
#: rows.  On a 2-core x86-64 machine the live-row form took 0.4-0.75x the
#: strided views' time at one live row in eight (M = 8-16), and longer from
#: one in four (M >= 10) and at M <= 6, where both take tens of microseconds.
LIVE_SHARE = 8


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
    # NaN fails both comparisons, so it is refused with the boundaries
    if not np.all((B > 0.0) & (B < 1.0)):
        raise BoundaryProbabilityError(
            "CPT entries must lie strictly inside (0, 1); clamp before CPbD"
        )


def cpbd_tables(M: int, B: np.ndarray) -> np.ndarray:
    """CPbD matrix of one CPT: B (2^M, M) -> D (M, M).

    D[k, i] (parent k, child i) sums |log B - log B| and |log(1-B) - log(1-B)| over the
    2^(M-1) row pairs of block k (natural log).  Equivalent to applying the
    dense difference operator and block-summing, without materializing it.

    B is checked before any work: M within range, the shape (2^M, M), and
    every entry strictly inside (0, 1).  A table with at most one live row
    (see the module docstring) in ``LIVE_SHARE`` goes to ``_live_pairs``,
    any other to ``_strided_pairs``; both give the same bytes, so the choice
    is by cost alone.
    """
    check_sensor_count(M)
    B = np.asarray(B, dtype=np.float64)
    if B.shape != (2**M, M):
        raise ShapeMismatchError(f"CPT of shape {B.shape} is not {(2**M, M)}")
    _check_open_unit(B)
    off = B != UNSEEN
    # a live row holds 1 to M entries off the default, so a table with more
    # than M * 2^M / LIVE_SHARE of them is too live to need its rows counted
    if np.count_nonzero(off) * LIVE_SHARE <= M * 2**M:
        live = np.flatnonzero(off.any(axis=1))
        if len(live) * LIVE_SHARE <= 2**M:
            return _live_pairs(M, B, live)
    return _strided_pairs(M, B)


def _strided_pairs(M: int, B: np.ndarray) -> np.ndarray:
    """``cpbd_tables`` over every row pair: the rows with parent k's bit at 0
    and at 1 are two strided views of the table, taken in assignment order."""
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


def _live_pairs(M: int, B: np.ndarray, live: np.ndarray) -> np.ndarray:
    """``cpbd_tables`` over the row pairs that hold one of the ``live`` rows
    (sorted indices), in the strided views' order, so to the same bits."""
    u = len(live)
    rows = np.empty((u + 1, M))  # the live rows, then one dead row
    rows[:u] = B[live]
    rows[u] = UNSEEN
    on, off = np.log(rows), np.log(1.0 - rows)
    row_of = np.full(2**M, u)  # each pattern's row of ``rows``
    row_of[live] = np.arange(u)
    bit = 1 << np.arange(M - 1, -1, -1)  # parent k's bit
    # key (k, x0) for each live row's pair, x0 its row with bit k clear;
    # sorted, the keys run in the strided views' order, one run per parent
    keys = (live & ~bit[:, None]) | (np.arange(M)[:, None] << M)
    keys = np.sort(keys, axis=None)
    keys = keys[np.diff(keys, prepend=-1) != 0]  # a pair of two live rows has two
    parent, x0 = keys >> M, keys & (2**M - 1)
    r0, r1 = row_of[x0], row_of[x0 | bit[parent]]
    d = np.abs(on[r0] - on[r1])
    d += np.abs(off[r0] - off[r1])
    ends = np.searchsorted(parent, np.arange(M + 1))
    D = np.empty((M, M))
    for k in range(M):
        D[k] = d[ends[k]:ends[k + 1]].sum(axis=0)
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
