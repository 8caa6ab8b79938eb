"""Benchmark of the cbnet command-line chain: simulate -> learn -> export.

Run from the root of a cbnet checkout:

    python3 perfbench/run.py --workload road-360k --seed 0 --seconds 22 --trace 0

One process runs one workload as a closed loop with a single client: each
pass calls ``cbnet.cli.main`` for every stage and starts when the previous
pass ends, until ``--seconds`` have passed.  Every output is then checked.
Human-readable lines come first; the last line of standard output is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: ``run_s`` (median pass wall
time), ``peak_rss_mb`` and ``setup_s`` (median of several timed set-ups, each
a fresh interpreter that imports cbnet and writes the generated inputs).
``--trace 1`` runs pairs of passes on the same input, one traced and one
not, and reports per-layer self times, counts and ratios from the traced
passes, plus the tracing overhead: the median traced-minus-untraced
difference over the pairs.  Everything else (stage times, digests, spans) goes to
``.perfbench/<workload>-seed<seed>-trace<t>.json``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120
DEFAULT_SEED = 0
#: a reported percentile needs at least this many samples beyond it
TAIL_SAMPLES = 10


def cap_blas_threads() -> tuple[int, int]:
    """Cap OpenBLAS threads at nproc before numpy loads; returns (nproc, cap)."""
    nproc = len(os.sched_getaffinity(0))
    try:
        asked = int(os.environ.get("OPENBLAS_NUM_THREADS", nproc))
    except ValueError:
        asked = nproc
    cap = max(1, min(asked, nproc))
    os.environ["OPENBLAS_NUM_THREADS"] = str(cap)
    return nproc, cap


def import_cbnet():
    """Import cbnet from this checkout's ``src``, never from site-packages."""
    src = ROOT / "src"
    if not (src / "cbnet" / "__init__.py").is_file():
        sys.exit(f"perfbench: no cbnet sources under {src}")
    sys.path.insert(0, str(src))
    from cbnet import cli

    return cli


def blas_threads() -> int | None:
    """Thread count OpenBLAS reports, read from the loaded library."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(nproc: int, cap: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "blas_thread_cap": f"OPENBLAS_NUM_THREADS={cap} (capped at nproc={nproc})",
        "processes_per_run": 1,
        "load": "closed loop, 1 client: each pass starts when the previous ends",
    }


def run_stage(cli, stage) -> dict:
    """Run one CLI stage in-process; a raise or non-zero exit is a failure."""
    start = time.perf_counter()
    try:
        rc = cli.main(stage.argv)
    except SystemExit as exc:  # argparse rejected the arguments
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # the harness keeps running and counts the failure
        traceback.print_exc()
        rc = None
    return {"stage": stage, "rc": rc, "seconds": time.perf_counter() - start}


def check_stages(records: list[dict], checker) -> None:
    """Fill ``problems`` of every stage record: exit code, then its output check."""
    for rec in records:
        if rec["rc"] != 0:
            rec["problems"] = [f"exit code {rec['rc']}"]
            continue
        try:
            rec["problems"] = list(rec["stage"].check(checker))
        except Exception as exc:  # a malformed output must not stop the harness
            rec["problems"] = [f"check raised {type(exc).__name__}: {exc}"]


def timed_setup(workload, seed: int, inputs: Path) -> list[float]:
    """Set up SETUP_REPEATS times, each in a fresh interpreter; wall times."""
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(inputs, ignore_errors=True)
        inputs.mkdir(parents=True)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload.name, "--seed", str(seed),
             "--inputs", str(inputs)],
            stdout=subprocess.DEVNULL, timeout=SETUP_TIMEOUT_S,
        )
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up exited with {proc.returncode}")
    return times


def measure(cli, workload, inputs: Path, work: Path, seed: int, seconds: float,
            trace: bool) -> list[dict]:
    """Run passes back to back for ``seconds``.

    In trace mode passes come in pairs on the same input variant, one traced
    and one not, and which of the two runs first alternates from pair to pair.
    """
    from tracer import Tracer
    from workloads import VARIANTS

    passes = []
    deadline = time.perf_counter() + seconds
    while (not passes or time.perf_counter() < deadline
           or (trace and len(passes) % 2 == 1)):
        i = len(passes)
        if trace:
            pair, second = divmod(i, 2)
            traced, variant = second != pair % 2, pair % VARIANTS
        else:
            traced, variant = False, i % VARIANTS
        out = work / f"pass{i:03d}"
        out.mkdir(parents=True)
        stages = workload.stages(inputs, out, seed, variant)
        tracer = Tracer()
        start = time.perf_counter()
        if traced:
            with tracer.installed():
                records = [run_stage(cli, s) for s in stages]
        else:
            records = [run_stage(cli, s) for s in stages]
        passes.append({
            "seconds": time.perf_counter() - start,
            "traced": traced,
            "stages": records,
            "tracer": tracer if traced else None,
        })
    return passes


def summary(values: list[float]) -> dict:
    """Median, plus the highest percentile with TAIL_SAMPLES samples beyond it."""
    import numpy as np

    out = {"median": statistics.median(values), "n": len(values)}
    for pct in (99.9, 99, 95, 90, 75, 50):
        if len(values) * (1 - pct / 100) >= TAIL_SAMPLES:
            out[f"p{pct:g}"] = float(np.percentile(values, pct))
            break
    return out


def _fmt(name: str, unit: str, s: dict) -> str:
    tail = [f"{k}={v:.4f}" for k, v in s.items() if k.startswith("p")]
    tail = " ".join(tail) or f"no percentile (needs >= {2 * TAIL_SAMPLES} samples)"
    return f"  {name:<14} median={s['median']:.4f} {unit}  {tail}  n={s['n']}"


def report(args, env, passes, setup_times, peak_mb, checker) -> tuple[dict, dict]:
    """Print the human-readable report; return the result line and the record."""
    records = [r for p in passes for r in p["stages"]]
    failed = sum(1 for r in records if r["problems"])
    plain = [p for p in passes if not p["traced"]]
    stage_times: dict[str, list[float]] = {}
    for p in plain:
        for r in p["stages"]:
            stage_times.setdefault(f"{r['stage'].name}_s", []).append(r["seconds"])

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    for key, value in env.items():
        print(f"  env.{key} = {value}")
    rows = {"run_s": summary([p["seconds"] for p in plain]), **{
        k: summary(v) for k, v in stage_times.items()}}
    rows["setup_s"] = summary(setup_times)
    for name, s in rows.items():
        print(_fmt(name, "s", s))
    print(f"  {'peak_rss_mb':<14} {peak_mb:.1f} MiB")
    print(f"  {'failed_ratio':<14} {failed}/{len(records)} = "
          f"{failed / len(records):.4f} (failed stages / attempted stages)")
    for p_i, p in enumerate(passes):
        for r in p["stages"]:
            for problem in r["problems"]:
                print(f"  FAILED pass {p_i} {r['stage'].name}: {problem}")
    digests = {k: sorted(v) for k, v in checker.digests.items()}
    print(f"  digest stream={digests['stream']} model={digests['model']}")
    if checker.periods:
        print(f"  learned T={sorted(set(checker.periods))}")

    if args.trace:
        metrics = traced_metrics(passes)
        for name, value in metrics.items():
            print(f"  layer {name:<38} {value['value']:.6g} {value['unit']}")
    else:
        metrics = {
            "run_s": {"value": rows["run_s"]["median"], "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MiB"},
            "setup_s": {"value": rows["setup_s"]["median"], "unit": "s"},
        }
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
              "metrics": metrics}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "summaries": rows, "peak_rss_mb": peak_mb,
        "digests": digests, "learned_T": checker.periods, "result": result,
        "passes": [{
            "seconds": p["seconds"], "traced": p["traced"],
            "stages": [{"stage": r["stage"].name, "rc": r["rc"],
                        "seconds": r["seconds"], "problems": r["problems"]}
                       for r in p["stages"]],
            "spans": p["tracer"].span_records() if p["tracer"] else None,
        } for p in passes],
    }
    return result, record


def traced_metrics(passes: list[dict]) -> dict:
    """Per-layer medians over traced passes, plus the tracing overhead."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    per_pass = [p["tracer"].layer_metrics() for p in traced]
    metrics = {}
    for name in per_pass[0]:
        value = statistics.median(m[name] for m in per_pass)
        if name.endswith("_s"):
            unit = "s"
        elif name.endswith("_ratio"):
            unit = "ratio"
        elif name.endswith("_bytes"):
            unit = "bytes"
        else:
            unit = "count"
        metrics[name] = {"value": value, "unit": unit}
    untraced = statistics.median(p["seconds"] for p in plain)
    # passes of one pair share an input variant
    overhead = statistics.median(
        t["seconds"] - u["seconds"] for u, t in zip(plain, traced))
    metrics["trace.untraced_run_s"] = {"value": untraced, "unit": "s"}
    metrics["trace.traced_run_s"] = {
        "value": statistics.median(p["seconds"] for p in traced), "unit": "s"}
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    metrics["trace.overhead_ratio"] = {"value": overhead / untraced, "unit": "ratio"}
    return metrics


def main(argv=None) -> int:
    nproc, cap = cap_blas_threads()
    cli = import_cbnet()
    from checks import Checker
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--inputs", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if args.setup_only:
        workload.setup(args.inputs, args.seed)
        return 0

    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        inputs = work / "inputs"
        setup_times = timed_setup(workload, args.seed, inputs)
        passes = measure(cli, workload, inputs, work, args.seed, args.seconds,
                         bool(args.trace))
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        checker = Checker()
        check_stages([r for p in passes for r in p["stages"]], checker)
        result, record = report(args, environment(nproc, cap), passes,
                                setup_times, peak_mb, checker)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    saved = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    saved.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(f"  details in {saved.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
