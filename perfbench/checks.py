"""Output checks and digests for the files the cbnet CLI writes.

Every check returns a list of problems; an empty list means the output is
correct.  The CPT check recounts each clique from the stream CSV with the
benchmark's own ``np.bincount`` code and compares it with the model JSON at
the 12 significant digits the JSON keeps.  Results are cached by file
digest, so identical outputs of repeated passes are parsed once.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np


def read_stream(path: Path) -> np.ndarray:
    """(M, N) int64 sensor values of a ``slot,s1,...,sM`` CSV."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", dtype=np.int64, ndmin=2)
    if header[0] != "slot" or data.shape[1] != len(header):
        raise ValueError(f"{path}: bad header {header[:3]}")
    if not np.array_equal(data[:, 0], np.arange(1, len(data) + 1)):
        raise ValueError(f"{path}: slot column is not 1..N")
    values = data[:, 1:].T
    if not np.isin(values, (0, 1)).all():
        raise ValueError(f"{path}: values must be 0 or 1")
    return np.ascontiguousarray(values)


def recount_cpt(values: np.ndarray, period: int, t: int, eps: float) -> np.ndarray:
    """CPT of clique t -> t+1 (1-based) of the stream folded at ``period``."""
    m, n = values.shape
    frames = n // period
    folded = values[:, : frames * period].reshape(m, frames, period)
    parent, child = folded[:, :, t - 1], folded[:, :, t]
    idx = (parent << np.arange(m - 1, -1, -1)[:, None]).sum(axis=0)
    counts = np.bincount(idx, minlength=2**m)
    ones = np.stack(
        [np.bincount(idx, weights=child[i], minlength=2**m) for i in range(m)],
        axis=1,
    )
    table = np.full((2**m, m), 0.5)
    seen = counts > 0
    table[seen] = np.clip(ones[seen] / counts[seen, None], eps, 1.0 - eps)
    return table


def _round12(table: np.ndarray) -> np.ndarray:
    """Each entry rounded to 12 significant digits, as the model JSON stores it."""
    distinct, inverse = np.unique(table, return_inverse=True)
    rounded = np.array([float(f"{v:.12g}") for v in distinct.tolist()])
    return rounded[inverse].reshape(table.shape)


def file_digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


def model_digest(doc: dict) -> str:
    """Digest of a model document without ``provenance.input`` (a run path)."""
    doc = dict(doc, provenance={
        k: v for k, v in doc.get("provenance", {}).items() if k != "input"
    })
    blob = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


class Checker:
    """Checks outputs and remembers results and digests by file content."""

    def __init__(self, recount=recount_cpt):
        self.recount = recount
        self._streams: dict[str, np.ndarray] = {}
        self._results: dict[tuple, list[str]] = {}
        self.digests: dict[str, set[str]] = {"stream": set(), "model": set()}
        self.periods: list[int] = []

    def stream(self, path: Path) -> np.ndarray:
        key = file_digest(path)
        if key not in self._streams:
            self._streams[key] = read_stream(path)
        self.digests["stream"].add(key)
        return self._streams[key]

    def _cached(self, key, fn) -> list[str]:
        if key not in self._results:
            self._results[key] = fn()
        return self._results[key]

    def stream_csv(self, path: Path, sensors: int, slots: int) -> list[str]:
        def check():
            shape = self.stream(path).shape
            if shape != (sensors, slots):
                return [f"stream shape {shape} != {(sensors, slots)}"]
            return []
        return self._cached(("stream", file_digest(path), sensors, slots), check)

    def model(self, stream_path: Path, model_path: Path,
              period: int | None = None) -> list[str]:
        """Shapes, ranges, normalized diagonals, T range and the CPT recount."""
        key = ("model", file_digest(stream_path), file_digest(model_path), period)
        return self._cached(key, lambda: self._check_model(
            stream_path, model_path, period))

    def _check_model(self, stream_path, model_path, period) -> list[str]:
        values = self.stream(stream_path)
        with open(model_path) as fh:
            doc = json.load(fh)
        self.digests["model"].add(model_digest(doc))
        m, t_count, eps = doc["M"], doc["T"], doc["epsilon"]
        self.periods.append(t_count)
        n = values.shape[1]
        problems = []
        if m != values.shape[0]:
            problems.append(f"M={m} but the stream has {values.shape[0]} sensors")
        if not 1 <= t_count <= n // 2:
            problems.append(f"T={t_count} outside [1, {n // 2}]")
        if period is not None and t_count != period:
            problems.append(f"T={t_count} but --period {period}")
        cpts = np.asarray(doc["cpts"], dtype=np.float64)
        deps = np.asarray(doc["deps"], dtype=np.float64)
        if cpts.shape != (t_count - 1, 2**m, m):
            problems.append(f"cpts shape {cpts.shape} != {(t_count - 1, 2**m, m)}")
        if deps.shape != (t_count - 1, m, m):
            problems.append(f"deps shape {deps.shape} != {(t_count - 1, m, m)}")
        if problems:
            return problems
        if not ((cpts > 0.0) & (cpts < 1.0)).all():
            problems.append("CPT entries outside (0, 1)")
        for t in range(1, t_count):
            if not (np.diagonal(deps[t - 1]) == 1.0).all():
                problems.append(f"clique {t}: normalized D diagonal is not 1")
            expected = _round12(self.recount(values, t_count, t, eps))
            if not np.array_equal(expected, cpts[t - 1]):
                problems.append(f"clique {t}: CPT differs from the recount")
        return problems

    def export(self, model_path: Path, dot_path: Path, csv_dir: Path) -> list[str]:
        """DOT node/edge counts and per-clique matrix CSV shapes."""
        def check():
            with open(model_path) as fh:
                doc = json.load(fh)
            m, t_count = doc["M"], doc["T"]
            dot = Path(dot_path).read_text()
            problems = []
            nodes = dot.count(" [label=")
            edges = dot.count(" -> ")
            if nodes != m * t_count or edges != (t_count - 1) * m * m:
                problems.append(f"DOT has {nodes} nodes/{edges} edges")
            for t in range(1, t_count):
                cpt = np.loadtxt(Path(csv_dir) / f"cpt_{t:02d}.csv", delimiter=",",
                                 ndmin=2)
                dep = np.loadtxt(Path(csv_dir) / f"dep_{t:02d}.csv", delimiter=",",
                                 ndmin=2)
                if cpt.shape != (2**m, m) or dep.shape != (m, m):
                    problems.append(f"clique {t}: export CSV shapes {cpt.shape}, "
                                    f"{dep.shape}")
                elif not np.array_equal(dep, np.asarray(doc["deps"][t - 1])):
                    problems.append(f"clique {t}: exported D differs from the model")
            return problems
        key = ("export", file_digest(model_path), file_digest(dot_path))
        return self._cached(key, check)

    def bench_csv(self, path: Path, m: int) -> list[str]:
        """A speedup_median row for M and no -1 timeout sentinel."""
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        problems = []
        if any(float(r["elapsed_secs"]) == -1.0 for r in rows):
            problems.append("bench CSV holds a -1 timeout sentinel")
        speedup = [r for r in rows if r["method"] == "speedup_median"
                   and int(r["M"]) == m]
        if len(speedup) != 1 or not float(speedup[0]["elapsed_secs"]) > 0:
            problems.append(f"bench CSV lacks a positive speedup_median row for M={m}")
        return problems
