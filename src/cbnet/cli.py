"""Command-line interface: simulate, learn, bench, export.

File formats:
  * observations: CSV with header ``slot,s1,...,sM``, one row per slot,
    values strictly 0/1, written with CRLF and read with LF or CRLF line
    ends, plus a JSON sidecar ``<out>.meta.json`` echoing the simulation
    config and seed;
  * model: JSON with keys format, M, T, ts_star, tp, epsilon, cpts
    ([T-1][2^M][M]), deps ([T-1][M][M], deps[t][k][i] = parent k -> child
    i) and provenance, probabilities at 12 significant digits; ``format``
    names the layout, and a file without it is refused; ``export`` parses each
    distinct clique row once, and reads other layouts with ``json.loads``;
  * bench: CSV of per-trial timings plus one summary row per M holding the
    median conventional/proposed speedup;
  * export: Graphviz DOT (node per sensor/phase, edge width proportional to
    normalized dependence) and/or per-clique matrix CSVs.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from .baseline import conventional_learn
from .cpt import DEFAULT_EPS, M_MAX, UNSEEN, CliqueCPT, bbcpt
from .dependence import DependenceMatrix, cpbd_clique, normalize
from .errors import CbnetError
from .period import CbnModel, learn_cbn
from .simulator import KMH_TO_MS, Simulation, SimulationConfig
from .stream_csv import read_stream_csv, write_stream_csv

PEN_WIDTH_MIN = 0.2
PEN_WIDTH_MAX = 4.0

#: layout marker of the model JSON: version 2 stores each D parent row,
#: child column.  Files written before it stored D[child][parent] and
#: carry no marker, so reading them without one would transpose every edge.
MODEL_FORMAT = "cbnet-model/2"

#: the smallest ``--epsilon`` that ``learn`` accepts.  The model file holds
#: 12 significant digits, at which the clamp 1 - eps is written as 1.0 for
#: eps below this (1 - 4e-13 is), and ``model_from_dict`` refuses a CPT
#: entry of 1.
EPS_MIN = 5e-13

#: a model file holds each clique matrix on one line: CLIQUE_PREFIX, its rows
#: joined by ", ", then "]"; no JSON number holds "]", so rows split at ROW_SEP
CLIQUE_PREFIX, ROW_SEP, _MARK = "    [", "], [", 10**20


# ---------------------------------------------------------------- file formats

def _format_rows(table: np.ndarray, format_values, start: str, sep: str,
                 end: str) -> list[str]:
    """One text per row of a 2-D table: ``start``, its entries' texts joined
    by ``sep``, then ``end``; each distinct entry is formatted once.

    ``format_values`` gets a 1-D array of distinct entries and returns their
    texts.  Entries are told apart by their bits, as 0.0 and -0.0 are written
    differently, so the result is what formatting each entry on its own
    gives.  A CPT is mostly the all-``UNSEEN`` rows of unseen parent
    patterns, which share one text, so this formats a few percent of its
    entries and joins a few percent of its rows.
    """
    table = np.asarray(table, dtype=np.float64)
    live = np.flatnonzero((table != UNSEEN).any(axis=1))
    bits = table[live].view(np.int64)  # a C-order copy, so its rows view as int64
    keys = np.sort(bits, axis=None)
    # deduplicated by hand: np.unique with no return_* flag loads numpy.ma
    distinct = np.append(keys[:1], keys[1:][keys[1:] != keys[:-1]])
    texts = format_values(distinct.view(np.float64))
    dead = start + sep.join(format_values(np.array([UNSEEN])) * table.shape[1]) + end
    out = [dead] * len(table)
    for row, entries in zip(live.tolist(), np.searchsorted(distinct, bits).tolist()):
        out[row] = start + sep.join(map(texts.__getitem__, entries)) + end
    return out


def _json_values(values: np.ndarray) -> list[str]:
    """Each entry as ``json.dumps`` writes it at 12 significant digits."""
    rounded = [float(f"{v:.12g}") for v in values.tolist()]
    return json.dumps(rounded)[1:-1].split(", ")


def _csv_values(values: np.ndarray) -> list[str]:
    """Each entry as ``np.savetxt(fmt="%.12g")`` writes it."""
    return [f"{v:.12g}" for v in values.tolist()]


def model_to_dict(model: CbnModel) -> dict:
    """The model document: each clique's arrays, and a copy of the provenance."""
    return {
        "format": MODEL_FORMAT,
        "M": model.M,
        "T": model.period,
        "ts_star": model.ts_star,
        "tp": None if model.ts_star is None else model.period,
        "epsilon": model.provenance.get("epsilon", DEFAULT_EPS),
        "cpts": [cpt.B for cpt in model.cpts],
        "deps": [dep.D for dep in model.deps],
        "provenance": dict(model.provenance),
    }


def write_model_json(doc: dict, path) -> None:
    """One top-level key per line, and one clique matrix per line.

    Each clique matrix is written as ``json.dumps`` writes its nested
    lists with every entry rounded to 12 significant digits, and
    ``_format_rows`` formats each distinct entry of it once.  Every other
    value goes through json's C encoder; ``indent=2`` would put each
    number on its own line through the pure-Python encoder.
    """
    with open(path, "w") as fh:
        for n, key in enumerate(sorted(doc)):
            fh.write(("{\n  " if n == 0 else ",\n  ") + json.dumps(key) + ": ")
            value = doc[key]
            if key in ("cpts", "deps") and value:
                for t, table in enumerate(value):
                    rows = ", ".join(_format_rows(table, _json_values, "[", ", ", "]"))
                    fh.write(("[\n" if t == 0 else ",\n") + CLIQUE_PREFIX + rows + "]")
                fh.write("\n  ]")
            else:
                fh.write(json.dumps(value, sort_keys=True))
        fh.write("\n}\n")


def read_model_json(path) -> dict:
    """The document of a model file, as ``json.load`` reads it.

    A line ``CLIQUE_PREFIX + "[...]]"`` whose distinct row texts parse to flat
    lists of floats of one width is read as their table and swapped for the
    int ``_MARK`` + its number.  If ``json.loads`` then finds just the marks
    in ``cpts`` and ``deps``, in order, the tables take their place; any
    other file is read whole by ``json.loads``.
    """
    text = Path(path).read_text(encoding="utf-8")
    tables, doc, lines = [], None, text.split("\n") if CLIQUE_PREFIX + "[" in text else []
    try:
        for n, line in enumerate(lines):
            clique = line.removesuffix(",")
            if clique.startswith(CLIQUE_PREFIX + "[") and clique.endswith("]]"):
                rows = clique[len(CLIQUE_PREFIX) + 1:-2].split(ROW_SEP)
                index = dict(zip(dict.fromkeys(rows), range(len(rows))))
                parsed = [json.loads(f"[{row}]") for row in index]
                if any(type(v) is not float for row in parsed for v in row):
                    break  # np.array raises ValueError on rows of two widths
                lines[n] = f"{_MARK + len(tables)}{line[len(clique):]}"
                tables.append(np.array(parsed, dtype=np.float64)[[index[r] for r in rows]])
        else:
            rest = "\n".join(lines)
            if tables and all(rest.count(str(_MARK + t)) == 1 for t in range(len(tables))):
                doc = json.loads(rest)
    except ValueError:
        pass
    cpts, deps = (doc.get("cpts"), doc.get("deps")) if isinstance(doc, dict) else (0, 0)
    # no other int has a mark's digits, and no float is an int
    if type(cpts) is type(deps) is list and [(type(v), v) for v in cpts + deps] == [
            (int, _MARK + t) for t in range(len(tables))]:
        doc["cpts"], doc["deps"] = tables[:len(cpts)], tables[len(cpts):]
        return doc
    return json.loads(text)


def write_matrix_csv(table: np.ndarray, path) -> None:
    """Comma-separated rows at 12 significant digits, as ``np.savetxt`` writes.

    ``_format_rows`` formats each distinct entry once.
    """
    with open(path, "w") as fh:
        fh.write("".join(_format_rows(table, _csv_values, "", ",", "\n")))


def _model_tables(doc: dict, key: str, count: int, shape: tuple) -> list:
    """``doc[key]`` as ``count`` float64 arrays of one shape, else ValueError.

    Each clique is converted on its own: one array of all cliques would
    cost a third more memory while numpy finds its shape.
    """
    try:
        tables = [np.asarray(table, dtype=np.float64) for table in doc[key]]
    except (TypeError, ValueError):
        tables = None
    if tables is None or len(tables) != count or any(
            table.shape != shape for table in tables):
        raise ValueError(f"model field '{key}' is not a {(count, *shape)} array")
    return tables


def model_from_dict(doc: dict) -> CbnModel:
    """The model of a parsed model file; its fields are checked first.

    M must be an integer in [1, M_MAX] and T one >= 1; ts_star None or an
    integer in [1, T], and tp None when ts_star is and T otherwise (a file
    without them reads as None); cpts must be (T-1) x 2^M x M with every
    entry in (0, 1), and deps (T-1) x M x M with every entry finite and
    >= 0.  Anything else is a ValueError that names the field, or the type
    of a document that is not a JSON object.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"model file holds {type(doc).__name__!r}, not a JSON object")
    for key in ("M", "T", "cpts", "deps"):
        if key not in doc:
            raise ValueError(f"model file missing field '{key}'")
    if doc.get("format") != MODEL_FORMAT:
        raise ValueError(
            f"model format {doc.get('format')!r} is not {MODEL_FORMAT!r}; "
            "files without it store deps child-first, so learn the model again"
        )
    m, period = doc["M"], doc["T"]
    if type(m) is not int or not 1 <= m <= M_MAX:
        raise ValueError(f"model field 'M' is {m!r}, not an integer in [1, {M_MAX}]")
    if type(period) is not int or period < 1:
        raise ValueError(f"model field 'T' is {period!r}, not an integer >= 1")
    ts_star, tp = doc.get("ts_star"), doc.get("tp")
    if ts_star is not None and (type(ts_star) is not int or not 1 <= ts_star <= period):
        raise ValueError(
            f"model field 'ts_star' is {ts_star!r}, not null or an integer in [1, {period}]"
        )
    want = None if ts_star is None else period
    if type(tp) is not type(want) or tp != want:
        raise ValueError(f"model field 'tp' is {tp!r}, not {json.dumps(want)}")
    # min and max are NaN if any entry is, and then fail both tests
    cpts = _model_tables(doc, "cpts", period - 1, (2**m, m))
    if not all(B.min() > 0 and B.max() < 1 for B in cpts):
        raise ValueError("model field 'cpts' has an entry outside (0, 1)")
    deps = _model_tables(doc, "deps", period - 1, (m, m))
    if not all(D.min() >= 0 and np.isfinite(D.max()) for D in deps):
        raise ValueError("model field 'deps' has a negative or non-finite entry")
    return CbnModel(
        M=m,
        period=period,
        cpts=tuple(CliqueCPT(M=m, B=B) for B in cpts),
        deps=tuple(DependenceMatrix(M=m, D=D) for D in deps),
        ts_star=ts_star,
        provenance=doc.get("provenance", {}),
    )


# ------------------------------------------------------------------- commands

def cmd_simulate(args) -> int:
    lo, _, hi = args.speed_kmh.partition(":")
    try:
        v_lo, v_hi = float(lo), float(hi)
    except ValueError:
        msg = f"bad --speed-kmh '{args.speed_kmh}', expected lo:hi"
        raise ValueError(msg) from None
    config = SimulationConfig(
        duration_slots=args.slots,
        num_cells=args.cells,
        arrival_rate=args.arrival_rate,
        speed_range=(v_lo * KMH_TO_MS, v_hi * KMH_TO_MS),
        traffic_rate=args.traffic_rate,
        service_mean=args.service_mean,
        seed=args.seed,
    )
    stream = Simulation(config).run()
    out = Path(args.out)
    write_stream_csv(stream, out)
    meta = {
        "cells": args.cells,
        "slots": args.slots,
        "speed_kmh": [v_lo, v_hi],
        "arrival_rate": args.arrival_rate,
        "traffic_rate": args.traffic_rate,
        "service_mean": args.service_mean,
        "seed": args.seed,
    }
    with open(f"{out}.meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def cmd_learn(args) -> int:
    if not EPS_MIN <= args.epsilon < 0.5:
        raise ValueError(
            f"--epsilon {args.epsilon:g} is outside [{EPS_MIN:g}, 0.5): the model "
            f"file holds 12 significant digits, at which 1 - eps is 1 for any eps "
            f"below {EPS_MIN:g}"
        )
    stream = read_stream_csv(Path(args.input))
    model = learn_cbn(stream, period=args.period, epsilon=args.epsilon)
    doc = model_to_dict(model)
    doc["provenance"]["input"] = str(args.input)
    write_model_json(doc, args.output)
    return 0


def proposed_pipeline(parent: np.ndarray, child: np.ndarray, eps: float = DEFAULT_EPS):
    """The timed closed-form path: CPT, clique dependence, normalization.

    Runs the production ``bbcpt``, whose sorted-key counting (``pair_counts``)
    is property-tested to be bit-identical to the literal floored-average
    matrix form; the benchmark compares algorithms, not a deliberately naive
    realization of one side.
    """
    return normalize(cpbd_clique(bbcpt(parent, child, eps=eps)))


def _bench_one_m(m: int, n: int, seed: int, repeat: int, timeout: float | None):
    """Benchmark both methods at one M; returns (records, summary_ratio)."""
    rng = np.random.Generator(np.random.PCG64(seed + m))
    stream = (rng.random((m, n + 1)) < 0.5).astype(np.int8)
    parent, child = stream[:, :-1], stream[:, 1:]

    records, medians = [], []
    for method, fn in (
        ("proposed", lambda: proposed_pipeline(parent, child)),
        ("conventional", lambda: conventional_learn(parent, child)),
    ):
        times = []  # the completed trials; the rest record -1
        for trial in range(1, repeat + 1):
            elapsed = -1.0
            if not times or timeout is None or times[-1] <= timeout:
                start = time.perf_counter()
                fn()
                elapsed = time.perf_counter() - start
                times.append(elapsed)
            records.append((m, n, method, trial, elapsed))
        medians.append(statistics.median(times))  # trial 1 always runs
    return records, medians[1] / medians[0]


def cmd_bench(args) -> int:
    try:
        m_list = [int(v) for v in args.M.split(",") if v]
    except ValueError:
        msg = f"bad --M '{args.M}', expected comma-separated integers"
        raise ValueError(msg) from None
    if not m_list:
        raise ValueError(f"--M '{args.M}' lists no sensor count")
    for m in m_list:
        if not 1 <= m <= M_MAX:
            raise ValueError(f"--M {m} is outside [1, {M_MAX}]")
    if args.N < 1:
        raise ValueError(f"--N {args.N} is below 1")
    if args.repeat < 1:
        raise ValueError(f"--repeat {args.repeat} is below 1")
    if args.timeout_secs is not None and not 0 < args.timeout_secs < math.inf:
        raise ValueError(f"--timeout-secs {args.timeout_secs} is not a positive number")

    results = [
        _bench_one_m(m, args.N, args.seed, args.repeat, args.timeout_secs)
        for m in m_list
    ]

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["M", "N", "method", "trial", "elapsed_secs"])
        for records, _ in results:
            for rec in records:
                writer.writerow([rec[0], rec[1], rec[2], rec[3], f"{rec[4]:.6g}"])
        for (_, ratio), m in zip(results, m_list):
            writer.writerow([m, args.N, "speedup_median", 0, f"{ratio:.6g}"])
    return 0


def export_dot(model: CbnModel, threshold: float = 0.0) -> str:
    """DOT digraph; one node per (sensor, phase), one edge per clique pair.

    Clique t's entry D[k, i] becomes the edge ``s{k+1}_p{t} -> s{i+1}_p{t+1}``
    from parent k at phase t to child i at phase t+1.
    """
    t_count = model.period
    vmax = max((float(dep.D.max()) for dep in model.deps), default=0.0)
    lines = ["digraph cbn {", "  rankdir=LR;"]
    for t in range(1, t_count + 1):
        for i in range(1, model.M + 1):
            lines.append(f'  s{i}_p{t} [label="s{i} t={t}"];')
    for t, dep in enumerate(model.deps, start=1):
        for i in range(model.M):  # child
            for k in range(model.M):  # parent
                w = float(dep.D[k, i])
                if w < threshold:
                    continue
                pw = PEN_WIDTH_MIN
                if vmax > 0:
                    pw += (PEN_WIDTH_MAX - PEN_WIDTH_MIN) * w / vmax
                lines.append(
                    f"  s{k + 1}_p{t} -> s{i + 1}_p{t + 1} "
                    f'[penwidth={pw:.3f}, label="{w:.3g}"];'
                )
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_export(args) -> int:
    if not math.isfinite(args.threshold):
        raise ValueError(f"--threshold {args.threshold} is not a finite number")
    try:
        # the parsed document is freed as soon as the model is built
        model = model_from_dict(read_model_json(args.model))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{args.model}: {exc}") from None
    if args.csv_dir:
        out_dir = Path(args.csv_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for t, cpt in enumerate(model.cpts, start=1):
            write_matrix_csv(cpt.B, out_dir / f"cpt_{t:02d}.csv")
        for t, dep in enumerate(model.deps, start=1):
            write_matrix_csv(dep.D, out_dir / f"dep_{t:02d}.csv")
    if args.dot:
        Path(args.dot).write_text(export_dot(model, threshold=args.threshold))
    return 0


# --------------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cbnet",
        description="Learn periodic Bayesian-network activity patterns "
        "from binary sensor streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic traffic stream")
    p.add_argument("--cells", type=int, default=3)
    p.add_argument("--slots", type=int, required=True)
    p.add_argument("--speed-kmh", default="100.8:158.4", metavar="LO:HI")
    p.add_argument("--arrival-rate", type=float, default=1.0)
    p.add_argument("--traffic-rate", type=float, default=0.002)
    p.add_argument("--service-mean", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("learn", help="learn a model from an observation CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--period", type=int, default=None,
                   help="skip period estimation and use this period")
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPS)
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("bench", help="time the closed-form path vs the CMI baseline")
    p.add_argument("--M", default="4,8,12", help="comma-separated sensor counts")
    p.add_argument("--N", type=int, default=36000)
    p.add_argument("--repeat", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timeout-secs", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("export", help="export a model as DOT and/or matrix CSVs")
    p.add_argument("--model", required=True)
    p.add_argument("--dot", default=None)
    p.add_argument("--csv-dir", default=None)
    p.add_argument("--threshold", type=float, default=0.0)
    p.set_defaults(func=cmd_export)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CbnetError, ValueError, OSError, MemoryError) as exc:
        print(f"cbnet {args.command}: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
