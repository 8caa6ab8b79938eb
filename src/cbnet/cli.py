"""Command-line interface: simulate, learn, bench, export.

File formats:
  * observations: CSV with header ``slot,s1,...,sM``, one row per slot,
    values strictly 0/1, plus a JSON sidecar ``<out>.meta.json`` echoing the
    simulation config and seed;
  * model: JSON with keys M, T, ts_star, tp, epsilon, cpts ([T-1][2^M][M]),
    deps ([T-1][M][M]) and provenance, probabilities at 12 significant
    digits;
  * bench: CSV of per-trial timings plus one summary row per M holding the
    median conventional/proposed speedup;
  * export: Graphviz DOT (node per sensor/phase, edge width proportional to
    normalized dependence) and/or per-clique matrix CSVs.
"""

from __future__ import annotations

import argparse
import csv
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from .baseline import conventional_learn
from .cpt import DEFAULT_EPS, CliqueCPT, bbcpt
from .dependence import DependenceMatrix, cpbd_clique, normalize
from .errors import CbnetError
from .observations import ObservationStream
from .period import CbnModel, LearnConfig, learn_cbn
from .simulator import KMH_TO_MS, Simulation, SimulationConfig

PEN_WIDTH_MIN = 0.2
PEN_WIDTH_MAX = 4.0


# ---------------------------------------------------------------- file formats

def write_stream_csv(stream: ObservationStream, path: Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["slot", *stream.sensor_labels])
        for n in range(stream.slot_count):
            writer.writerow([n + 1, *stream.values[:, n].tolist()])


def read_stream_csv(path: Path) -> ObservationStream:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "slot" or len(header) < 2:
            raise ValueError(f"{path}: expected header 'slot,s1,...,sM'")
        labels = header[1:]
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValueError(f"{path}:{lineno}: wrong column count")
            try:
                vals = [int(v) for v in row[1:]]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-integer value") from exc
            if any(v not in (0, 1) for v in vals):
                raise ValueError(f"{path}:{lineno}: values must be 0 or 1")
            rows.append(vals)
    if len(rows) < 2:
        raise ValueError(f"{path}: need at least 2 observation rows")
    return ObservationStream(
        np.array(rows, dtype=np.int8).T, sensor_labels=tuple(labels)
    )


def _round12(x: float) -> float:
    return float(f"{x:.12g}")


def model_to_dict(model: CbnModel) -> dict:
    est = model.estimate
    return {
        "M": model.M,
        "T": model.period,
        "ts_star": est.ts_star if est else None,
        "tp": est.tp if est else None,
        "epsilon": model.provenance.get("epsilon", DEFAULT_EPS),
        "cpts": [
            [[_round12(v) for v in row] for row in cpt.B.tolist()]
            for cpt in model.cpts
        ],
        "deps": [
            [[_round12(v) for v in row] for row in dep.D.tolist()]
            for dep in model.deps
        ],
        "provenance": model.provenance,
    }


def model_from_dict(doc: dict) -> CbnModel:
    for key in ("M", "T", "cpts", "deps"):
        if key not in doc:
            raise ValueError(f"model file missing field '{key}'")
    eps = doc.get("epsilon", DEFAULT_EPS)
    cpts = tuple(
        CliqueCPT(
            M=doc["M"],
            B=np.array(b, dtype=np.float64),
            counts=np.zeros(2 ** doc["M"], dtype=np.int64),
            eps=eps,
        )
        for b in doc["cpts"]
    )
    deps = tuple(
        DependenceMatrix(M=doc["M"], D=np.array(d, dtype=np.float64))
        for d in doc["deps"]
    )
    return CbnModel(
        M=doc["M"],
        period=doc["T"],
        cpts=cpts,
        deps=deps,
        estimate=None,
        provenance=doc.get("provenance", {}),
    )


# ------------------------------------------------------------------- commands

def cmd_simulate(args) -> int:
    lo, _, hi = args.speed_kmh.partition(":")
    try:
        v_lo, v_hi = float(lo), float(hi)
    except ValueError:
        print(f"bad --speed-kmh '{args.speed_kmh}', expected lo:hi", file=sys.stderr)
        return 2
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
    stream = read_stream_csv(Path(args.input))
    config = LearnConfig(period=args.period, epsilon=args.epsilon)
    model = learn_cbn(stream, config)
    doc = model_to_dict(model)
    doc["provenance"]["input"] = str(args.input)
    with open(args.output, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def proposed_pipeline(parent: np.ndarray, child: np.ndarray, eps: float = DEFAULT_EPS):
    """The timed closed-form path: CPT, clique dependence, normalization.

    Runs the production ``bbcpt``, whose histogram counting is property-tested
    to be bit-identical to the literal floored-average matrix form; the
    benchmark compares algorithms, not a deliberately naive realization of
    one side.
    """
    return normalize(cpbd_clique(bbcpt(parent, child, eps=eps)))


def _bench_one_m(m: int, n: int, seed: int, repeat: int, timeout: float | None):
    """Benchmark both methods at one M; returns (records, summary_ratio)."""
    rng = np.random.Generator(np.random.PCG64(seed + m))
    stream = (rng.random((m, n + 1)) < 0.5).astype(np.int8)
    parent, child = stream[:, :-1], stream[:, 1:]

    timings: dict[str, list[float]] = {"proposed": [], "conventional": []}
    records = []
    for method, fn in (
        ("proposed", lambda: proposed_pipeline(parent, child)),
        ("conventional", lambda: conventional_learn(parent, child)),
    ):
        aborted = False
        for trial in range(1, repeat + 1):
            if aborted:
                records.append((m, n, method, trial, -1.0))
                continue
            start = time.perf_counter()
            fn()
            elapsed = time.perf_counter() - start
            records.append((m, n, method, trial, elapsed))
            timings[method].append(elapsed)
            if timeout is not None and elapsed > timeout:
                aborted = True
    if timings["proposed"] and timings["conventional"]:
        ratio = statistics.median(timings["conventional"]) / statistics.median(
            timings["proposed"]
        )
    else:
        ratio = -1.0
    return records, ratio


def cmd_bench(args) -> int:
    try:
        m_list = [int(v) for v in args.M.split(",") if v]
    except ValueError:
        print(f"bad --M '{args.M}', expected comma-separated integers", file=sys.stderr)
        return 2

    results = []
    if args.parallel and len(m_list) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor() as pool:
            futures = [
                pool.submit(_bench_one_m, m, args.N, args.seed, args.repeat,
                            args.timeout_secs)
                for m in m_list
            ]
            results = [f.result() for f in futures]
    else:
        results = [
            _bench_one_m(m, args.N, args.seed, args.repeat, args.timeout_secs)
            for m in m_list
        ]

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["M", "N", "method", "trial", "elapsed_secs"])
        for (records, _), m in zip(results, m_list):
            for rec in records:
                writer.writerow([rec[0], rec[1], rec[2], rec[3], f"{rec[4]:.6g}"])
        for (_, ratio), m in zip(results, m_list):
            writer.writerow([m, args.N, "speedup_median", 0, f"{ratio:.6g}"])
    return 0


def export_dot(model: CbnModel, threshold: float = 0.0) -> str:
    """DOT digraph; one node per (sensor, phase), one edge per clique pair."""
    t_count = model.period
    vmax = max((float(dep.D.max()) for dep in model.deps), default=0.0)
    lines = ["digraph cbn {", "  rankdir=LR;"]
    for t in range(1, t_count + 1):
        for i in range(1, model.M + 1):
            lines.append(f'  s{i}_p{t} [label="s{i} t={t}"];')
    for t, dep in enumerate(model.deps, start=1):
        for i in range(model.M):  # child
            for k in range(model.M):  # parent
                w = float(dep.D[i, k])
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
    with open(args.model) as fh:
        model = model_from_dict(json.load(fh))
    if args.dot:
        Path(args.dot).write_text(export_dot(model, threshold=args.threshold))
    if args.csv_dir:
        out_dir = Path(args.csv_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for t, cpt in enumerate(model.cpts, start=1):
            np.savetxt(out_dir / f"cpt_{t:02d}.csv", cpt.B,
                       delimiter=",", fmt="%.12g")
        for t, dep in enumerate(model.deps, start=1):
            np.savetxt(out_dir / f"dep_{t:02d}.csv", dep.D,
                       delimiter=",", fmt="%.12g")
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
    p.add_argument("--parallel", action="store_true")
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
    except (CbnetError, ValueError, OSError) as exc:
        print(f"cbnet {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
