"""The benchmark's workloads: generated inputs and the CLI stages of one pass.

A pass is one closed-loop request of a single client: its stages run in
order through ``cbnet.cli.main``, and the next pass starts when this one
ends.  Inputs are made from the seed alone; ``cbnet`` only sees the files.

Pass i of a run works on input variant i mod VARIANTS, each variant drawn
from (seed, variant).  How much work a blind period search does depends on
the stream it is given, so one run covers several streams and its median
pass time does not hang on a single draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

ROAD_SLOTS = 360_000
ROAD_CELLS = 3
PLANTED_PERIOD = 12
PLANTED_SLOTS = 36_000
PLANTED_FLIP = 0.05
CMI_M = 12
CMI_N = 36_000
VARIANTS = 4


@dataclass(frozen=True)
class Stage:
    """One CLI invocation and the check of what it wrote."""

    name: str
    argv: list[str]
    check: Callable  # (checks.Checker) -> list[str] of problems


@dataclass(frozen=True)
class Workload:
    name: str
    #: (inputs dir, seed): writes the generated inputs (the timed set-up)
    setup: Callable[[Path, int], None]
    #: (inputs dir, pass output dir, seed, variant) -> the stages of one pass
    stages: Callable[[Path, Path, int, int], list[Stage]]


def variant_seed(seed: int, variant: int) -> int:
    """Seed of one input variant of a run seeded with ``seed``."""
    return int(np.random.SeedSequence([seed, variant]).generate_state(1)[0])


def planted_stream(m: int, n: int, seed: int) -> np.ndarray:
    """(m, n) stream repeating a period-12 pattern with 5% of bits flipped.

    The pattern is one fixed random draw per M and the seed draws the flips,
    so every seed asks the period search the same question under new noise;
    a seed-drawn pattern would change the search path, and with it the work,
    from seed to seed.
    """
    pattern = np.random.Generator(np.random.PCG64([0, m]))
    base = pattern.integers(0, 2, size=(m, PLANTED_PERIOD), dtype=np.int64)
    values = np.tile(base, n // PLANTED_PERIOD)
    noise = np.random.Generator(np.random.PCG64([seed, m]))
    return values ^ (noise.random(values.shape) < PLANTED_FLIP)


def write_stream(values: np.ndarray, path: Path) -> None:
    """Stream CSV in the ``slot,s1,...,sM`` format of ``cbnet simulate``."""
    m, n = values.shape
    table = np.column_stack([np.arange(1, n + 1), values.T])
    header = ",".join(["slot", *(f"s{i + 1}" for i in range(m))])
    np.savetxt(path, table, fmt="%d", delimiter=",", header=header, comments="")


def learn_export(stream: Path, out: Path, period: int | None = None) -> list[Stage]:
    """``learn`` (blind or at a fixed period) then ``export --dot --csv-dir``."""
    model, dot, csv_dir = out / "model.json", out / "model.dot", out / "matrices"
    learn = ["learn", "--input", str(stream), "--output", str(model)]
    if period is not None:
        learn += ["--period", str(period)]
    return [
        Stage("learn", learn, lambda c: c.model(stream, model, period)),
        Stage("export",
              ["export", "--model", str(model), "--dot", str(dot),
               "--csv-dir", str(csv_dir)],
              lambda c: c.export(model, dot, csv_dir)),
    ]


def _no_inputs(inputs: Path, seed: int) -> None:
    return None


def _planted_setup(m: int):
    def setup(inputs: Path, seed: int) -> None:
        for v in range(VARIANTS):
            values = planted_stream(m, PLANTED_SLOTS, variant_seed(seed, v))
            write_stream(values, inputs / f"stream-{v}.csv")
    return setup


def _planted_stages(period: int | None):
    def stages(inputs: Path, out: Path, seed: int, variant: int) -> list[Stage]:
        return learn_export(inputs / f"stream-{variant}.csv", out, period)
    return stages


def _road_stages(inputs: Path, out: Path, seed: int, variant: int) -> list[Stage]:
    stream = out / "road.csv"
    simulate = Stage(
        "simulate",
        ["simulate", "--cells", str(ROAD_CELLS), "--slots", str(ROAD_SLOTS),
         "--speed-kmh", "43.2:72.0", "--seed", str(variant_seed(seed, variant)),
         "--out", str(stream)],
        lambda c: c.stream_csv(stream, ROAD_CELLS, ROAD_SLOTS),
    )
    return [simulate, *learn_export(stream, out)]


def _cmi_stages(inputs: Path, out: Path, seed: int, variant: int) -> list[Stage]:
    bench = out / "bench.csv"
    return [Stage(
        "bench",
        ["bench", "--M", str(CMI_M), "--N", str(CMI_N), "--repeat", "1",
         "--seed", str(variant_seed(seed, variant)), "--out", str(bench)],
        lambda c: c.bench_csv(bench, CMI_M),
    )]


#: why each workload is in the benchmark: BENCHMARK.json and README.md
WORKLOADS = {
    w.name: w
    for w in (
        Workload("road-360k", _no_inputs, _road_stages),
        Workload("wide-m12", _planted_setup(12), _planted_stages(PLANTED_PERIOD)),
        Workload("blind-m8", _planted_setup(8), _planted_stages(None)),
        Workload("cmi-m12", _no_inputs, _cmi_stages),
    )
}
