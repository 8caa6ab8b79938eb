"""Closed-form conditional probability table estimation for cliques.

The 2^M parent patterns are the rows of a condition matrix, row x being the
binary encoding of x.  The closed form matches every frame against every
row with a floored-average indicator; since a frame matches exactly the row
whose index is its own parent pattern, production code codes both columns
of each frame pair as pattern indices and counts their sorted keys
(``cbnet.reference`` keeps the literal match and a counting oracle).  One
count (``pair_counts``) of S cliques gives S tables (``clique_cpts``).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, EmptyInputError, ShapeMismatchError

DEFAULT_EPS = 1e-3
M_MAX = 20
#: the probability a CPT row holds for a parent pattern that never occurs
UNSEEN = 0.5


@dataclass(frozen=True)
class CliqueCPT:
    """Empirical P(child_i = 1 | parent pattern x) with pattern counts.

    B is 2^M x M with entries clamped to [eps, 1-eps]; rows whose pattern
    never occurs hold the uninformative default ``UNSEEN`` (0.5).
    """

    M: int
    B: np.ndarray = field(repr=False)
    #: frames seen per parent pattern; not stored in model files
    counts: np.ndarray | None = field(default=None, repr=False)
    #: pre-clamp conditionals (unseen rows still UNSEEN), for oracle checks;
    #: ``bbcpt`` sets it, the other ``clique_cpts`` callers leave it None
    B_raw: np.ndarray | None = field(default=None, repr=False)


def check_sensor_count(M: int) -> None:
    """Reject a sensor count whose 2^M-row tables are out of range."""
    if not 1 <= M <= M_MAX:
        raise DimensionError(f"sensor count {M} outside [1, {M_MAX}]")


def check_eps(eps: float) -> None:
    """Reject a CPT clamp outside (0, 0.5), NaN included."""
    if not 0 < eps < 0.5:
        raise ValueError(f"eps must lie in (0, 0.5), got {eps}")


def _frames(parent, child) -> tuple[np.ndarray, np.ndarray]:
    """Validated 2-D frame matrices, in the dtype they came in."""
    parent = np.asarray(parent)
    child = np.asarray(child)
    if parent.ndim == 1:
        parent = parent[None, :]
    if child.ndim == 1:
        child = child[None, :]
    if parent.shape != child.shape:
        raise ShapeMismatchError(
            f"parent shape {parent.shape} != child shape {child.shape}"
        )
    if parent.size == 0 or parent.shape[1] == 0:
        raise EmptyInputError("no frame pairs supplied")
    return parent, child


def _binary_frames(parent, child) -> tuple[np.ndarray, np.ndarray]:
    """``_frames`` that hold only 0/1 values; anything else is a ValueError."""
    parent, child = _frames(parent, child)
    for frames in (parent, child):
        # every nonzero value must be a 1
        if np.count_nonzero(frames) != np.count_nonzero(frames == 1):
            raise ValueError("frames must hold only 0/1 values")
    return parent, child


def _check_pair(parent, child) -> tuple[np.ndarray, np.ndarray]:
    """Validated int64 frames; an int64 input comes back as itself, not a
    copy, so callers must not write to them."""
    parent, child = _frames(parent, child)
    return parent.astype(np.int64, copy=False), child.astype(np.int64, copy=False)


def pattern_codes(frames: np.ndarray) -> np.ndarray:
    """Each frame's M-bit pattern, sensor 1 the most significant bit.

    frames is an (M, ...) array of 0/1 values; the codes take the shape of
    its trailing axes, in the narrowest signed integer dtype that holds them.
    """
    check_sensor_count(len(frames))
    codes = np.zeros(frames.shape[1:], np.min_scalar_type(-(1 << len(frames))))
    for row in frames:  # a float row's 0/1 values cast exactly
        codes <<= 1
        np.add(codes, row, out=codes, casting="unsafe")
    return codes


def pair_counts(parent: np.ndarray, child: np.ndarray, m: int):
    """(seen, n, ones): the integer counts of (K, S) pattern codes of M sensors.

    Frame pair k of clique s has the key s << 2M | parent << M | child; the
    sorted keys run in triples, each run as long as its triple's count.
    ``seen`` holds the (clique, parent) keys s << M | parent that occur, in
    key order, ``n`` their counts and ``ones`` their (U, M) child-on counts,
    all int64; no table of all 2^M patterns is made.  The keys are int32
    when 2M + bits(S - 1) <= 31 and int64 otherwise, and are sorted in
    place.  ``bbcpt`` counts one clique (S = 1); the search and the profile
    (``lag_dependence``), every phase of a lag; ``learn_cbn``, every clique.
    """
    s = parent.shape[1]
    bits = 2 * m + (s - 1).bit_length()
    if bits > 63:
        raise DimensionError(f"keys of {s} cliques of {m} sensors exceed 63 bits")
    dtype = np.int32 if bits <= 31 else np.int64
    keys = np.left_shift(parent, m, dtype=dtype)  # a new array, or-ed in place
    keys |= child
    keys |= np.arange(s, dtype=dtype) << 2 * m
    keys = keys.reshape(-1)
    keys.sort()
    head = np.empty(keys.size, dtype=bool)  # where each run of equal keys starts
    head[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=head[1:])
    heads = np.flatnonzero(head)
    triples, runs = keys[heads], np.diff(heads, append=keys.size)
    groups = triples >> m  # (clique, parent) of each triple
    first = np.flatnonzero(np.diff(groups, prepend=-1))
    on = triples >> np.arange(m - 1, -1, -1)[:, None]  # (M, U), in place from here
    on &= 1
    on *= runs
    ones = np.add.reduceat(on, first, axis=1).T.copy()  # rows summed in C order
    return groups[first].astype(np.int64, copy=False), np.add.reduceat(runs, first), ones


def clique_cpts(
    m: int, cliques: int, seen, n, ones, eps: float, keep_raw: bool = False
) -> Iterator[CliqueCPT]:
    """The CPTs of S cliques from one ``pair_counts`` result, in clique order.

    Clique s takes the rows of the seen keys s << M | parent; every other
    row holds ``UNSEEN``, and every entry is clamped to [eps, 1-eps].  The
    pre-clamp table is kept as ``B_raw`` only when asked for; otherwise it
    is clamped in place.  The tables are yielded one at a time, so a caller
    that sums over them holds one 2^M-row table, not S.
    """
    bounds = np.searchsorted(seen >> m, np.arange(cliques + 1))  # each clique's run
    patterns = seen & (2**m - 1)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        counts = np.zeros(2**m, dtype=np.int64)
        counts[patterns[lo:hi]] = n[lo:hi]
        raw = np.full((2**m, m), UNSEEN)
        raw[patterns[lo:hi]] = ones[lo:hi] / n[lo:hi, None]
        # unseen rows keep UNSEEN, inside the clamp
        B = np.clip(raw, eps, 1.0 - eps, out=None if keep_raw else raw)
        yield CliqueCPT(M=m, B=B, counts=counts, B_raw=raw if keep_raw else None)


def bbcpt(parent, child, eps: float = DEFAULT_EPS) -> CliqueCPT:
    """Closed-form empirical CPT of one clique from binary frame matrices.

    parent and child are M x K arrays; column k holds the joint sensor
    values at the two ends of frame pair k.  Unseen parent patterns get the
    default ``UNSEEN``; everything else is clamped to [eps, 1-eps] so
    downstream logarithms stay finite.

    The parent and child frames are coded once each (``pattern_codes``),
    counted by ``pair_counts`` as one clique and scattered into the 2^M
    rows.  The integers are exactly those of the literal floored-average
    match matrix (``cbnet.reference.match_indicator``) and of
    ``counting_oracle``.
    """
    parent, child = _binary_frames(parent, child)
    check_eps(eps)
    M = parent.shape[0]
    codes = [pattern_codes(frames)[:, None] for frames in (parent, child)]
    return next(clique_cpts(M, 1, *pair_counts(*codes, M), eps, keep_raw=True))
