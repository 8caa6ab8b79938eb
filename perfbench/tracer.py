"""Spans and counters around calls into cbnet's modules, recorded from outside.

The tracer replaces module attributes with timing wrappers for the length of
one traced pass and puts the originals back afterwards, so untraced passes
run the program exactly as shipped.  Each function is wrapped at the name its
caller looks up: ``bbcpt``, ``cpbd_clique``, ``normalize`` and ``fold`` are
imported by name into ``cbnet.period`` and ``cbnet.cli``, and the closure in
``find_ts`` finds ``lag_dependence`` as a ``cbnet.period`` global.

Spans stay in memory as (name, start, end, parent) and are written out when
the benchmark ends.  A span's self time is its duration minus the durations
of its direct children; the program is single-threaded, so children nest
wholly inside their parent.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from contextlib import contextmanager


def _wrap_points():
    """(owner, attribute, span name) for every traced call site."""
    from cbnet import baseline, cli, period, simulator

    return [
        (cli, "cmd_simulate", "cli.cmd_simulate"),
        (cli, "cmd_learn", "cli.cmd_learn"),
        (cli, "cmd_export", "cli.cmd_export"),
        (cli, "cmd_bench", "cli.cmd_bench"),
        (cli, "write_stream_csv", "cli.write_stream_csv"),
        (cli, "read_stream_csv", "cli.read_stream_csv"),
        (cli, "model_to_dict", "cli.model_to_dict"),
        (cli, "model_from_dict", "cli.model_from_dict"),
        (simulator.Simulation, "run", "simulator.run"),
        (cli, "learn_cbn", "period.learn_cbn"),
        (period, "find_ts", "period.find_ts"),
        (period, "find_tp", "period.find_tp"),
        (period, "lag_dependence", "period.lag_dependence"),
        (period, "fold", "observations.fold"),
        (period, "frame_pair", "observations.frame_pair"),
        (period, "bbcpt", "cpt.bbcpt"),
        (cli, "bbcpt", "cpt.bbcpt"),
        (period, "cpbd_clique", "dependence.cpbd_clique"),
        (cli, "cpbd_clique", "dependence.cpbd_clique"),
        (period, "normalize", "dependence.normalize"),
        (cli, "normalize", "dependence.normalize"),
        (cli, "conventional_learn", "baseline.conventional_learn"),
        (baseline, "cmi_edge", "baseline.cmi_edge"),
    ]


class Tracer:
    """Collects spans and per-pass counters while installed."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.lag_keys: set = set()

    def _observe(self, name, args, kwargs, result):
        """Counters measured from a call's arguments, result and files."""
        c = self.counts
        if name == "cpt.bbcpt":
            c["cpt.rows"] += 2**result.M
            c["cpt.rows_seen"] += int((result.counts > 0).sum())
            c["cpt.frames"] += int(result.counts.sum())
        elif name == "period.lag_dependence":
            sensors = kwargs.get("sensors", args[2] if len(args) > 2 else None)
            key = (None if sensors is None else tuple(sensors), args[1])
            self.lag_keys.add(key)
        elif name == "cli.read_stream_csv":
            c["cli.stream_csv_bytes"] += os.path.getsize(args[0])
        elif name == "cli.cmd_learn" and result == 0:
            c["cli.model_json_bytes"] += os.path.getsize(args[0].output)

    def _wrapper(self, fn, name):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append((name, 0.0, 0.0, parent))
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            self._observe(name, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every call site for the duration of the block."""
        originals = []
        try:
            for owner, attr, name in _wrap_points():
                fn = owner.__dict__[attr]
                originals.append((owner, attr, fn))
                setattr(owner, attr, self._wrapper(fn, name))
            yield self
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)

    def layer_metrics(self) -> dict[str, float]:
        """Self time per span name, call counts and ratios, for this tracer."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for (name, start, end, _), kids in zip(self.spans, child_time):
            key = "cli.self" if name.startswith("cli.cmd_") else name
            self_s[key] += end - start - kids
            calls[name] += 1

        out = {f"{name}_s": self_s.get(name, 0.0) for name in SELF_TIMED}
        for name in COUNTED:
            out[f"{name}.calls"] = calls.get(name, 0)
        out.update({k: self.counts.get(k, 0) for k in COUNTERS})
        lag_calls = out["period.lag_dependence.calls"]
        out["period.lag_dependence.distinct"] = len(self.lag_keys)
        out["period.lag_dependence.distinct_ratio"] = (
            len(self.lag_keys) / lag_calls if lag_calls else 0.0
        )
        out["cpt.rows_seen_ratio"] = (
            out["cpt.rows_seen"] / out["cpt.rows"] if out["cpt.rows"] else 0.0
        )
        return out

    def span_records(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p}
            for n, s, e, p in self.spans
        ]


#: span names reported as ``<name>_s`` self time
SELF_TIMED = (
    "simulator.run",
    "cli.write_stream_csv",
    "cli.read_stream_csv",
    "cli.model_to_dict",
    "cli.model_from_dict",
    "cli.self",
    "period.learn_cbn",
    "period.find_ts",
    "period.find_tp",
    "period.lag_dependence",
    "observations.fold",
    "observations.frame_pair",
    "cpt.bbcpt",
    "dependence.cpbd_clique",
    "dependence.normalize",
    "baseline.conventional_learn",
    "baseline.cmi_edge",
)
#: span names reported as ``<name>.calls``
COUNTED = (
    "period.lag_dependence",
    "observations.fold",
    "cpt.bbcpt",
    "dependence.cpbd_clique",
    "baseline.cmi_edge",
)
#: counters filled by Tracer._observe
COUNTERS = (
    "cli.model_json_bytes",
    "cli.stream_csv_bytes",
    "cpt.rows",
    "cpt.rows_seen",
    "cpt.frames",
)
