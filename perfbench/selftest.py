"""Harness self-test: injected faults are counted as failed stages, not crashes.

Run from the repository root:

    python3 perfbench/selftest.py

A small planted stream (M=4, period 12, 1200 slots) goes through the same
stage runner and checks as the benchmark.  A clean pass must count no
failure; then three faults are injected, and each must be counted against
the stage whose output it breaks:

* one CPT entry of the model JSON changed after ``learn`` wrote it;
* a stream too short to search for a period (``cbnet learn`` exits 2, so
  the ``export`` that needs its model fails too);
* a recount that folds the stream one slot off.

Exits 0 when every case counts exactly the expected failures.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def main() -> int:
    run.cap_blas_threads()
    cli = run.import_cbnet()
    from checks import Checker, recount_cpt
    from workloads import PLANTED_PERIOD, learn_export, planted_stream, write_stream

    def failed_stages(stages, checker=None, tamper=None) -> list[str]:
        records = [run.run_stage(cli, s) for s in stages]
        if tamper is not None:
            tamper()
        run.check_stages(records, checker or Checker())
        return [r["stage"].name for r in records if r["problems"]]

    def off_by_one_slot(values, period, t, eps):
        return recount_cpt(values[:, 1:], period, t, eps)

    work = run.OUT / f"selftest-{os.getpid()}"
    try:
        work.mkdir(parents=True)
        stream, short = work / "stream.csv", work / "short.csv"
        write_stream(planted_stream(4, 100 * PLANTED_PERIOD, seed=0), stream)
        write_stream(planted_stream(4, PLANTED_PERIOD, seed=0)[:, :5], short)
        model = work / "corrupt" / "model.json"

        def corrupt_one_entry():
            doc = json.loads(model.read_text())
            doc["cpts"][0][0][0] = 0.25 if doc["cpts"][0][0][0] != 0.25 else 0.75
            model.write_text(json.dumps(doc))

        for out in ("clean", "corrupt", "short", "recount"):
            (work / out).mkdir()
        cases = []
        cases.append(("clean", [], failed_stages(
            learn_export(stream, work / "clean", PLANTED_PERIOD))))
        cases.append(("corrupted CPT entry", ["learn"], failed_stages(
            learn_export(stream, work / "corrupt", PLANTED_PERIOD),
            tamper=corrupt_one_entry)))
        cases.append(("stream too short", ["learn", "export"], failed_stages(
            learn_export(short, work / "short"))))
        cases.append(("wrong recount", ["learn"], failed_stages(
            learn_export(stream, work / "recount", PLANTED_PERIOD),
            checker=Checker(recount=off_by_one_slot))))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ok = True
    for name, expected, got in cases:
        verdict = "ok" if got == expected else "WRONG"
        ok &= got == expected
        print(f"selftest {name:<20} failed stages {got} (expected {expected}) {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
