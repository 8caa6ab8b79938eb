"""Conventional conditional-mutual-information clique learner.

Benchmark opponent for the closed-form pipeline.  Each edge score is
I(child_i ; parent_k | other parents), evaluated by literally enumerating
all 2^(M+1) joint realizations of (all parents, child) with frequency-count
probabilities.  The realization enumeration - the M^2 * 2^(M+1) term
evaluations whose cost the benchmark is about - is a literal Python loop
with no memoization across edges: every edge recounts its own frequencies
from the frames and re-walks every realization.  ``conventional_learn``
validates the frames and converts them to int64 once per learn; that is
the only thing the edges share.  The frequency tally uses a histogram, and
its bins become Python ints in one ``tolist()``, so that the measured
scaling reflects the enumeration structure rather than a deliberately slow
counting loop or per-edge memory copies; this choice is documented in the
benchmark output and README.
"""

from __future__ import annotations

import math

import numpy as np

from .cpt import _check_pair


def cmi_edge(parent, child, k: int, i: int) -> float:
    """Empirical I(child_i ; parent_k | other parents), 1-based parent k, child i.

    The indices come in matrix order, so ``cmi_edge(parent, child, k, i)``
    is ``conventional_learn(parent, child)[k - 1, i - 1]``.

    The sum enumerates all 2^(M+1) realizations of (all parents, child);
    zero-count terms are skipped (the usual 0*log 0 = 0 convention).
    Natural log.
    """
    parent, child = _check_pair(parent, child)
    M, K = parent.shape
    if not (1 <= i <= M and 1 <= k <= M):
        raise IndexError(f"parent {k} / child {i} outside [1, {M}]")

    # joint counts over (full parent pattern a, child value y); recounted
    # from the frames on every call, nothing cached across edges
    weights = np.left_shift(1, np.arange(M, 0, -1, dtype=np.int64))
    idx = weights @ parent + child[i - 1]
    flat = np.bincount(idx, minlength=2 ** (M + 1))
    joint = flat[: 2 ** (M + 1)].reshape(2**M, 2).tolist()

    # marginals over a, z (pattern a without parent k's bit) and (y, z)
    bit = M - k
    a_count = [0] * 2**M
    z_count = [0] * 2 ** (M - 1)
    yz_count = [[0, 0] for _ in range(2 ** (M - 1))]
    for a in range(2**M):
        z = ((a >> (bit + 1)) << bit) | (a & ((1 << bit) - 1))
        c0, c1 = joint[a]
        a_count[a] = c0 + c1
        z_count[z] += c0 + c1
        yz_count[z][0] += c0
        yz_count[z][1] += c1

    total = 0.0
    for a in range(2**M):
        z = ((a >> (bit + 1)) << bit) | (a & ((1 << bit) - 1))
        for y in (0, 1):
            c = joint[a][y]
            if c == 0:
                continue
            # P(z) P(a,y) / (P(x,z) P(y,z)) with all the 1/K factors cancelled
            total += (c / K) * math.log(
                (z_count[z] * c) / (a_count[a] * yz_count[z][y])
            )
    return total


def conventional_learn(parent, child) -> np.ndarray:
    """Score all M^2 edges with cmi_edge, recounting from scratch each time.

    The frames are validated and converted to int64 once, here; each edge
    then recounts its joint table from them and enumerates every
    realization.  The M x M scores hold parent rows and child columns, as
    in ``DependenceMatrix.D``.
    """
    parent, child = _check_pair(parent, child)
    M = parent.shape[0]
    scores = np.zeros((M, M))
    for k in range(1, M + 1):
        for i in range(1, M + 1):
            scores[k - 1, i - 1] = cmi_edge(parent, child, k, i)
    # plug-in CMI is a KL divergence, so only float error dips below zero
    return np.where((scores < 0) & (scores > -1e-12), 0.0, scores)
