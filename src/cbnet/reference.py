"""The paper's literal CPT and CPbD forms and two loop oracles: test references.

They check the sorted-key counts of ``cpt.bbcpt`` and the strided row pairs
of ``dependence.cpbd_tables``; no production module imports this module.
"""

from __future__ import annotations

import numpy as np

from .cpt import CliqueCPT, _binary_frames, _check_pair, check_sensor_count
from .dependence import _check_open_unit
from .errors import DimensionError

#: sentinel for oracle entries whose parent pattern never occurs
UNDEFINED = -1.0


def condition_matrix(M: int) -> np.ndarray:
    """All 2^M parent patterns, 2^M x M; row x is the M-bit binary of x (MSB first)."""
    check_sensor_count(M)
    x = np.arange(2**M, dtype=np.int64)[:, None]
    shifts = np.arange(M - 1, -1, -1, dtype=np.int64)[None, :]
    return ((x >> shifts) & 1).astype(np.int8)


def match_indicator(C: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Floored-average pattern match: nom[x, k] = 1 iff frame k equals row x.

    Computed literally as floor((C @ P + (1-C) @ (1-P)) / M).  The matrix
    products run in float64 for speed; every intermediate is an integer
    no larger than M, so the values are exact and the floor is bit-identical
    to pure integer arithmetic.
    """
    M = C.shape[1]
    Cf = C.astype(np.float64)
    Pf = parent.astype(np.float64)
    agree = Cf @ Pf + (1.0 - Cf) @ (1.0 - Pf)
    return (np.rint(agree).astype(np.int64)) // M


def counting_oracle(parent, child) -> tuple[np.ndarray, np.ndarray]:
    """Direct per-frame reference for bbcpt (pre-clamp).

    Returns (B_exact, counts) where B_exact[x, i] is the fraction of frames
    with parent pattern x whose child_i is 1, or the UNDEFINED sentinel when
    pattern x never occurs.  Deliberately loop-based and independent of the
    matrix path.
    """
    parent, child = _check_pair(*_binary_frames(parent, child))
    M, K = parent.shape
    rows = 2**M
    counts = np.zeros(rows, dtype=np.int64)
    ones = np.zeros((rows, M), dtype=np.int64)
    for k in range(K):
        x = 0
        for i in range(M):
            x = (x << 1) | int(parent[i, k])
        counts[x] += 1
        for i in range(M):
            ones[x, i] += int(child[i, k])
    B = np.full((rows, M), UNDEFINED)
    for x in range(rows):
        if counts[x] > 0:
            for i in range(M):
                B[x, i] = ones[x, i] / counts[x]
    return B, counts


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
