"""Command-line interface: formats, determinism, round trips, exit codes."""

import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cbnet import (
    CbnModel,
    CliqueCPT,
    DependenceMatrix,
    ObservationStream,
    learn_cbn,
)
from cbnet.cli import (
    CLIQUE_PREFIX,
    EPS_MIN,
    MODEL_FORMAT,
    main,
    model_from_dict,
    model_to_dict,
    read_model_json,
    read_stream_csv,
    write_matrix_csv,
    write_model_json,
)
from cbnet.cpt import UNSEEN


def run_cli(*argv):
    return main([str(a) for a in argv])


def run_fresh(code: str, **env) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports this checkout's cbnet."""
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src, **env}
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)


def simulate(tmp_path, name="obs.csv", slots=400, seed=1, extra=()):
    out = tmp_path / name
    code = run_cli(
        "simulate", "--cells", 3, "--slots", slots,
        "--speed-kmh", "100.8:158.4", "--seed", seed, "--out", out, *extra,
    )
    assert code == 0
    return out


class TestSimulateCommand:
    def test_csv_layout_and_sidecar(self, tmp_path):
        out = simulate(tmp_path)
        lines = out.read_text().splitlines()
        assert lines[0] == "slot,s1,s2,s3"
        assert len(lines) == 401
        assert lines[1].startswith("1,")
        meta = json.loads((tmp_path / "obs.csv.meta.json").read_text())
        assert meta["seed"] == 1 and meta["slots"] == 400

    def test_zero_arrival_rate_all_zeros(self, tmp_path):
        out = simulate(tmp_path, extra=("--arrival-rate", 0))
        stream = read_stream_csv(out)
        assert stream.values.sum() == 0

    def test_byte_identical_reruns(self, tmp_path):
        a = simulate(tmp_path, "a.csv", seed=7)
        b = simulate(tmp_path, "b.csv", seed=7)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_speed_flag(self, tmp_path, capsys):
        code = run_cli(
            "simulate", "--slots", 10, "--speed-kmh", "fast",
            "--out", tmp_path / "x.csv",
        )
        assert code != 0
        assert "speed" in capsys.readouterr().err

    # NaN rates only: an infinite one would never end a run that slipped
    # past the check (tests/test_simulator.py builds those configs instead)
    @pytest.mark.parametrize("flag", ["--arrival-rate", "--traffic-rate"])
    def test_nan_rate_rejected(self, tmp_path, capsys, flag):
        out = tmp_path / "x.csv"
        assert run_cli("simulate", "--slots", 10, flag, "nan", "--out", out) == 2
        assert not out.exists()
        assert "must be finite" in capsys.readouterr().err

    def test_negative_seed_rejected(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run_cli("simulate", "--slots", 10, "--seed", -1, "--out", out) == 2
        assert "seed" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_unallocatable_stream_fails_fast(self, tmp_path, capsys):
        # 2**64 bytes: refused before the first draw, not after 2**32
        # simulated seconds
        out = tmp_path / "big.csv"
        start = time.perf_counter()
        code = run_cli("simulate", "--cells", 2**32, "--slots", 2**32, "--out", out)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert "4294967296 cells x 4294967296 slots" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("flags", [
        ["--arrival-rate", "1e300"],
        ["--traffic-rate", "1e300"],
        ["--arrival-rate", "1e300", "--traffic-rate", "1e300"],  # inf sessions
    ])
    def test_impossible_rate_fails_fast(self, tmp_path, capsys, flags):
        # refused before the first draw: 1e300 users once filled 2 GB in
        # 2 minutes
        out = tmp_path / "huge.csv"
        start = time.perf_counter()
        code = run_cli("simulate", "--slots", 10, *flags, "--out", out)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert "cannot be allocated" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


class TestLearnCommand:
    def test_period_override_model_shape(self, tmp_path):
        obs = simulate(tmp_path, slots=2000)
        model_path = tmp_path / "model.json"
        assert run_cli("learn", "--input", obs, "--output", model_path,
                       "--period", 8) == 0
        doc = json.loads(model_path.read_text())
        assert doc["M"] == 3 and doc["T"] == 8
        assert len(doc["cpts"]) == 7 and len(doc["deps"]) == 7
        assert np.array(doc["cpts"][0]).shape == (8, 3)
        assert doc["ts_star"] is None  # estimation skipped

    @pytest.mark.parametrize("period", [0, 1001])
    def test_period_out_of_range(self, tmp_path, capsys, period):
        obs = simulate(tmp_path, slots=2000)
        model_path = tmp_path / "model.json"
        assert run_cli("learn", "--input", obs, "--output", model_path,
                       "--period", period) == 2
        assert not model_path.exists()
        assert f"period {period} outside [1, 1000]" in capsys.readouterr().err

    def test_learned_period_recorded(self, tmp_path):
        obs = simulate(tmp_path, slots=36000, seed=3)
        model_path = tmp_path / "model.json"
        assert run_cli("learn", "--input", obs, "--output", model_path) == 0
        doc = json.loads(model_path.read_text())
        assert 7 <= doc["T"] <= 11
        assert doc["ts_star"] >= 1 and doc["tp"] >= 1

    def test_corrupt_csv_fails_without_output(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("slot,s1\n1,0\n2,banana\n")
        model_path = tmp_path / "model.json"
        code = run_cli("learn", "--input", bad, "--output", model_path)
        assert code != 0
        assert not model_path.exists()
        assert "bad.csv" in capsys.readouterr().err

    def test_undecodable_csv_fails_without_output(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"slot,s1\n1,0\n2,\xff\n3,1\n")
        model_path = tmp_path / "model.json"
        assert run_cli("learn", "--input", bad, "--output", model_path) == 2
        assert not model_path.exists()
        assert f"{bad}:3: not UTF-8 text" in capsys.readouterr().err

    def test_non_binary_value_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("slot,s1\n1,0\n2,2\n")
        assert run_cli("learn", "--input", bad, "--output", tmp_path / "m.json") != 0

    def test_missing_header_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,0\n")
        assert run_cli("learn", "--input", bad, "--output", tmp_path / "m.json") != 0

    def test_oversized_field_rejected(self, tmp_path, capsys):
        # the csv module refuses fields over its 131072-char limit
        bad = tmp_path / "bad.csv"
        bad.write_text("slot,s1\n1,0\n2,0\n3," + "0" * 131_073 + "\n")
        model_path = tmp_path / "model.json"
        assert run_cli("learn", "--input", bad, "--output", model_path) == 2
        assert not model_path.exists()
        assert f"{bad}:4: field larger than field limit" in capsys.readouterr().err

    def test_too_many_sensors_rejected(self, tmp_path, capsys):
        from cbnet.cpt import M_MAX

        m = M_MAX + 1
        wide = tmp_path / "wide.csv"
        header = ",".join(["slot"] + [f"s{i + 1}" for i in range(m)])
        rows = [
            f"{t + 1}," + ",".join(str((t + i) % 2) for i in range(m)) for t in range(8)
        ]
        wide.write_text("\n".join([header, *rows]) + "\n")
        model_path = tmp_path / "model.json"
        assert run_cli("learn", "--input", wide, "--output", model_path) == 2
        assert not model_path.exists()
        assert f"sensor count {m}" in capsys.readouterr().err

    def test_blind_learn_draws_no_random_numbers(self, tmp_path):
        # the period search takes the exact mean of its shuffle null, so a
        # blind learn never even loads numpy.random
        obs, model_path = simulate(tmp_path, slots=3000), tmp_path / "model.json"
        argv = ["learn", "--input", str(obs), "--output", str(model_path)]
        code = ("import sys; from cbnet.cli import main; "
                f"sys.exit(main({argv!r}) or 'numpy.random' in sys.modules)")
        proc = run_fresh(code)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(model_path.read_text())["tp"] >= 2

    def test_learn_and_export_leave_numpy_ma_unloaded(self, tmp_path):
        # numpy 2.4's np.unique without return_* flags imports numpy.ma,
        # ~1.1 MiB of resident memory that no stage needs
        obs, model_path = tmp_path / "wide.csv", tmp_path / "model.json"
        rng = np.random.default_rng(12)
        from cbnet.stream_csv import write_stream_csv

        write_stream_csv(ObservationStream((rng.random((12, 600)) < 0.5).astype(np.int8)), obs)
        runs = [["learn", "--input", str(obs), "--output", str(model_path), "--period", "4"],
                ["export", "--model", str(model_path), "--dot", str(tmp_path / "m.dot"),
                 "--csv-dir", str(tmp_path / "matrices")]]
        code = ("import sys; from cbnet.cli import main; "
                f"sys.exit(any(main(argv) for argv in {runs!r}) or 'numpy.ma' in sys.modules)")
        proc = run_fresh(code)
        assert proc.returncode == 0, proc.stderr
        assert len(list((tmp_path / "matrices").iterdir())) == 6

    def test_out_of_memory_exits_two(self, tmp_path):
        # M = 20 at period 12: each clique's 2^20 x 20 tables are 160 MiB,
        # and the interpreter sets its own 512 MiB address-space limit
        obs, model_path = tmp_path / "wide.csv", tmp_path / "model.json"
        rng = np.random.default_rng(20)
        values = (rng.random((20, 240)) < 0.5).astype(np.int8)
        from cbnet.stream_csv import write_stream_csv

        write_stream_csv(ObservationStream(values), obs)
        argv = ["learn", "--input", str(obs), "--output", str(model_path), "--period", "12"]
        code = ("import resource, sys; "
                "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20)); "
                f"from cbnet.cli import main; sys.exit(main({argv!r}))")
        proc = run_fresh(code, OPENBLAS_NUM_THREADS="1")
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("cbnet learn: Unable to allocate"), proc.stderr
        assert not model_path.exists()


    def test_epsilon_floor_exports(self, tmp_path):
        # this stream has CPT entries clamped to 1 - eps, written below 1
        obs = simulate(tmp_path, slots=3000)
        model_path = tmp_path / "model.json"
        assert run_cli("learn", "--input", obs, "--output", model_path,
                       "--period", 6, "--epsilon", "5e-13") == 0
        doc = json.loads(model_path.read_text())
        assert EPS_MIN == 5e-13 and doc["epsilon"] == EPS_MIN
        assert max(np.max(cpt) for cpt in doc["cpts"]) == 0.999999999999
        assert run_cli("export", "--model", model_path, "--dot", tmp_path / "g.dot",
                       "--csv-dir", tmp_path / "mats") == 0

    @pytest.mark.parametrize("eps", ["4e-13", "1e-14"])
    def test_epsilon_below_floor_rejected(self, tmp_path, capsys, eps):
        obs = simulate(tmp_path, slots=3000)
        model_path = tmp_path / "model.json"
        assert run_cli("learn", "--input", obs, "--output", model_path,
                       "--period", 6, "--epsilon", eps) == 2
        assert not model_path.exists()
        assert "[5e-13, 0.5)" in capsys.readouterr().err
        # refused before the stream is read
        assert run_cli("learn", "--input", tmp_path / "missing.csv",
                       "--output", model_path, "--epsilon", eps) == 2
        assert "--epsilon" in capsys.readouterr().err


class TestExportCommand:
    @pytest.fixture()
    def model_path(self, tmp_path):
        obs = simulate(tmp_path, slots=2000)
        path = tmp_path / "model.json"
        run_cli("learn", "--input", obs, "--output", path, "--period", 8)
        return path

    def test_dot_counts(self, tmp_path, model_path):
        dot = tmp_path / "g.dot"
        assert run_cli("export", "--model", model_path, "--dot", dot) == 0
        text = dot.read_text()
        assert text.count(" -> ") == 63  # 7 cliques x 9 edges
        assert text.count("[label=") == 24  # one node per (sensor, phase)

    def test_threshold_keeps_self_and_stronger(self, tmp_path, model_path):
        dot = tmp_path / "g.dot"
        run_cli("export", "--model", model_path, "--dot", dot, "--threshold", 1.0)
        doc = json.loads(model_path.read_text())
        expect = sum(
            (np.array(dep) >= 1.0).sum() for dep in doc["deps"]
        )
        assert dot.read_text().count(" -> ") == expect
        # diagonals are 1.0, so at least the self-edges survive
        assert expect >= 21

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_threshold_rejected(self, tmp_path, model_path, capsys, value):
        dot = tmp_path / "g.dot"
        assert run_cli("export", "--model", model_path, "--dot", dot,
                       f"--threshold={value}") == 2
        assert not dot.exists()
        assert "--threshold" in capsys.readouterr().err

    def test_matrix_round_trip(self, tmp_path, model_path):
        out_dir = tmp_path / "mats"
        assert run_cli("export", "--model", model_path, "--csv-dir", out_dir) == 0
        doc = json.loads(model_path.read_text())
        for t in range(1, 8):
            cpt = np.loadtxt(out_dir / f"cpt_{t:02d}.csv", delimiter=",")
            dep = np.loadtxt(out_dir / f"dep_{t:02d}.csv", delimiter=",")
            np.testing.assert_allclose(cpt, np.array(doc["cpts"][t - 1]), atol=1e-9)
            np.testing.assert_allclose(dep, np.array(doc["deps"][t - 1]), atol=1e-9)

    def test_matrix_csv_matches_savetxt(self, tmp_path):
        rng = np.random.default_rng(2)
        wide = np.full((4096, 12), 0.5)
        seen = rng.random(4096) < 0.03  # a wide-m12 CPT sees ~3% of its rows
        wide[seen] = rng.random((seen.sum(), 12))
        tables = [
            np.where(rng.random((16, 4)) < 0.5, 0.5, rng.random((16, 4))),
            wide,
            np.array([[0.25]]),
            rng.random((5, 1)),
            rng.random((4, 6)).T,
        ]
        for table in tables:
            write_matrix_csv(table, tmp_path / "a.csv")
            np.savetxt(tmp_path / "b.csv", table, delimiter=",", fmt="%.12g")
            assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_unmarked_model_rejected(self, tmp_path, model_path, capsys):
        # a model file without the layout marker stores deps child-first;
        # export refuses it instead of drawing every edge reversed
        doc = json.loads(model_path.read_text())
        assert doc["format"] == "cbnet-model/2"
        del doc["format"]
        old = tmp_path / "old.json"
        old.write_text(json.dumps(doc))
        dot = tmp_path / "g.dot"
        assert run_cli("export", "--model", old, "--dot", dot) == 2
        assert not dot.exists()
        assert "format" in capsys.readouterr().err

    @staticmethod
    def small_model(**fields):
        """A valid M=2, T=3 model document, with ``fields`` replaced."""
        doc = {
            "format": "cbnet-model/2", "M": 2, "T": 3,
            "cpts": [[[0.5, 0.25]] * 4] * 2,
            "deps": [[[1.0, 0.5], [0.0, 1.0]]] * 2,
        }
        doc.update(fields)
        return doc

    @pytest.mark.parametrize("field, value", [
        ("deps", [[[1.0, 0.0]]] * 2),  # 1 x 2 matrices: was an IndexError
        ("cpts", 5),  # was a TypeError
        ("cpts", [[[0.5, 0.5]] * 3] * 2),  # 3 rows where 2^M = 4: was exported
        ("cpts", [[[0.5, 0.5]] * 4]),  # one clique where T - 1 = 2
        ("cpts", [[[0.5, 1.0]] * 4] * 2),
        ("cpts", [[[0.5, None]] * 4] * 2),
        ("deps", [[[1.0, -0.5], [0.0, 1.0]]] * 2),
        ("deps", [[[1.0, float("inf")], [0.0, 1.0]]] * 2),
        ("M", 0),
        ("M", 21),
        ("M", "2"),
        ("M", True),
        ("T", 0),
        ("T", 3.0),
    ])
    def test_malformed_model_rejected(self, tmp_path, capsys, field, value):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(self.small_model(**{field: value})))
        dot, mats = tmp_path / "g.dot", tmp_path / "mats"
        code = run_cli("export", "--model", path, "--dot", dot, "--csv-dir", mats)
        assert code == 2
        assert not dot.exists() and not mats.exists()
        assert f"model field '{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize("fields, edges", [
        ({}, 8),
        ({"T": 1, "cpts": [], "deps": []}, 0),  # one phase, no clique
        ({"ts_star": None, "tp": None}, 8),  # learned at a given period
        ({"ts_star": 1, "tp": 3}, 8),  # found by the search
        ({"ts_star": 3, "tp": 3}, 8),
    ])
    def test_well_formed_model_exported(self, tmp_path, fields, edges):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(self.small_model(**fields)))
        dot = tmp_path / "g.dot"
        assert run_cli("export", "--model", path, "--dot", dot) == 0
        assert dot.read_text().count(" -> ") == edges

    @pytest.mark.parametrize("fields, field", [
        ({"ts_star": 0, "tp": 3}, "ts_star"),
        ({"ts_star": 4, "tp": 3}, "ts_star"),  # above T
        ({"ts_star": 2.0, "tp": 3}, "ts_star"),
        ({"ts_star": True, "tp": 3}, "ts_star"),
        ({"ts_star": "2", "tp": 3}, "ts_star"),
        ({"ts_star": 2}, "tp"),  # a search without its confirmed lag
        ({"ts_star": 2, "tp": 2}, "tp"),  # a confirmed lag other than T
        ({"ts_star": 2, "tp": 3.0}, "tp"),
        ({"tp": 3}, "tp"),  # a confirmed lag without a search
        ({"ts_star": None, "tp": False}, "tp"),
    ])
    def test_malformed_search_fields_rejected(self, tmp_path, capsys, fields, field):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(self.small_model(**fields)))
        dot = tmp_path / "g.dot"
        assert run_cli("export", "--model", path, "--dot", dot) == 2
        assert not dot.exists()
        assert f"model field '{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize("text, kind", [
        ("5", "int"),
        ("null", "NoneType"),
        ("true", "bool"),
        ("1.5", "float"),
        ('"M T cpts deps"', "str"),  # holds every field name
        ("[]", "list"),
    ])
    def test_non_object_model_rejected(self, tmp_path, capsys, text, kind):
        path = tmp_path / "model.json"
        path.write_text(text)
        dot, mats = tmp_path / "g.dot", tmp_path / "mats"
        code = run_cli("export", "--model", path, "--dot", dot, "--csv-dir", mats)
        assert code == 2
        assert not dot.exists() and not mats.exists()
        assert f"model file holds {kind!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("cut", [slice(0, 20), slice(0, -2)])
    def test_truncated_model_rejected(self, tmp_path, model_path, capsys, cut):
        path = tmp_path / "truncated.json"
        path.write_bytes(model_path.read_bytes()[cut])
        dot = tmp_path / "g.dot"
        assert run_cli("export", "--model", path, "--dot", dot) == 2
        assert not dot.exists()
        assert f"cbnet export: {path}: " in capsys.readouterr().err

    def test_undecodable_model_rejected(self, tmp_path, model_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(model_path.read_bytes().replace(b'"format"', b'"\xffformat"'))
        dot = tmp_path / "g.dot"
        assert run_cli("export", "--model", path, "--dot", dot) == 2
        assert not dot.exists()
        assert f"cbnet export: {path}: 'utf-8' codec" in capsys.readouterr().err

    def test_missing_model_field(self, tmp_path, capsys):
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps({"M": 3, "T": 8, "cpts": []}))
        assert run_cli("export", "--model", broken, "--dot", tmp_path / "g.dot") != 0
        assert "deps" in capsys.readouterr().err

    def test_csv_dir_not_made_writes_nothing(self, tmp_path, model_path, capsys):
        # a regular file where the matrix directory should go
        mats = tmp_path / "notadir"
        mats.write_text("")
        dot = tmp_path / "g.dot"
        code = run_cli("export", "--model", model_path, "--dot", dot, "--csv-dir", mats)
        assert code == 2
        assert not dot.exists()
        assert "File exists" in capsys.readouterr().err


class TestBenchCommand:
    def test_row_count_contract(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert run_cli("bench", "--M", "2,4,6", "--N", 10000, "--repeat", 3,
                       "--out", out) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 18 + 3  # header + records + summaries
        summaries = [l for l in lines if "speedup_median" in l]
        assert len(summaries) == 3

    def test_timeout_sentinel(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert run_cli("bench", "--M", "8", "--N", 20000, "--repeat", 3,
                       "--timeout-secs", 1e-9, "--out", out) == 0
        rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
        # trial 1 of each method runs and exceeds the timeout; 2 and 3 do not run
        for method in ("proposed", "conventional"):
            times = [float(r[4]) for r in rows if r[2] == method]
            assert times[0] > 0 and times[1:] == [-1.0, -1.0]
        speedup = [float(r[4]) for r in rows if r[2] == "speedup_median"]
        assert len(speedup) == 1 and speedup[0] > 0

    @pytest.mark.parametrize("m", ["0", "4,21", "-3"])
    def test_sensor_count_out_of_range(self, tmp_path, capsys, m):
        out = tmp_path / "bench.csv"
        assert run_cli("bench", f"--M={m}", "--N", 1000, "--out", out) == 2
        assert not out.exists()
        assert "--M" in capsys.readouterr().err

    @pytest.mark.parametrize("m", [",", ""])
    def test_sensor_list_empty(self, tmp_path, capsys, m):
        out = tmp_path / "bench.csv"
        assert run_cli("bench", f"--M={m}", "--N", 1000, "--out", out) == 2
        assert not out.exists()
        assert "--M" in capsys.readouterr().err

    @pytest.mark.parametrize("m", ["a", "4,x"])
    def test_sensor_list_not_integers(self, tmp_path, capsys, m):
        out = tmp_path / "bench.csv"
        assert run_cli("bench", f"--M={m}", "--N", 1000, "--out", out) == 2
        assert not out.exists()
        assert "--M" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [0, -5])
    def test_slot_count_below_one(self, tmp_path, capsys, n):
        out = tmp_path / "bench.csv"
        assert run_cli("bench", "--M", 4, f"--N={n}", "--out", out) == 2
        assert not out.exists()
        assert "--N" in capsys.readouterr().err

    @pytest.mark.parametrize("secs", ["nan", "inf", "0", "-1"])
    def test_timeout_not_positive(self, tmp_path, capsys, secs):
        out = tmp_path / "bench.csv"
        assert run_cli("bench", "--M", 4, "--N", 1000, "--repeat", 2,
                       f"--timeout-secs={secs}", "--out", out) == 2
        assert not out.exists()
        assert "--timeout-secs" in capsys.readouterr().err

    @pytest.mark.parametrize("repeat", [0, -1])
    def test_repeat_below_one(self, tmp_path, capsys, repeat):
        out = tmp_path / "bench.csv"
        assert run_cli("bench", "--M", 4, "--N", 1000, "--repeat", repeat,
                       "--out", out) == 2
        assert not out.exists()
        assert "--repeat" in capsys.readouterr().err


def reference_model_json(doc: dict) -> str:
    """The model file as nested ``.tolist()`` lists and ``json.dumps`` write it.

    Every clique entry is rounded to 12 significant digits on its own; one
    top-level key, and one clique matrix, per line.
    """
    lines = []
    for key in sorted(doc):
        value = doc[key]
        if key in ("cpts", "deps") and len(value):
            cliques = [
                json.dumps([[float(f"{v:.12g}") for v in row]
                            for row in np.asarray(table).tolist()])
                for table in value
            ]
            text = "[\n    " + ",\n    ".join(cliques) + "\n  ]"
        else:
            text = json.dumps(value, sort_keys=True)
        lines.append(f"{json.dumps(key)}: {text}")
    return "{\n  " + ",\n  ".join(lines) + "\n}\n"


def learned_model(m: int, period: int, slots: int = 240):
    rng = np.random.default_rng(m * 100 + period)
    stream = ObservationStream((rng.random((m, slots)) < 0.4).astype(np.int8))
    return learn_cbn(stream, period=period)


#: entries that must survive the row grouping: the clamps, a signed zero,
#: and pairs that differ in their bits but print alike at 12 digits
ENTRIES = [
    EPS_MIN, 1 - EPS_MIN, 1e-3, 1 - 1e-3, 0.5, 0.0, -0.0, 0.25, 1.0, 1 / 3,
    math.nextafter(1 / 3, 1), 0.1, math.nextafter(0.1, 0), 123456.789, 1e-300,
]


def _twin(v: float) -> float:
    """An entry that equals ``v`` or prints like it, with other bits."""
    return -v if v == 0 else math.nextafter(v, math.inf)


def _table(base, masks, picks, layout) -> np.ndarray:
    """Rows of ``picks`` from ``base`` and its twins, in the given layout.

    Twin rows swap some entries of ``base`` for ``_twin`` of them, so rows
    repeat, and rows that differ only in their bits sit side by side.  Pick
    4 is a row of the default ``UNSEEN``, which the writers share a text for.
    """
    distinct = [[_twin(v) if flip else v for v, flip in zip(base, mask)]
                for mask in masks]
    default = [UNSEEN] * len(base)
    table = np.array([distinct[p % len(distinct)] if p < 4 else default for p in picks],
                     dtype=np.float64)
    if layout == "transposed":
        return np.ascontiguousarray(table.T).T
    if layout == "strided":
        return np.repeat(table, 2, axis=0)[::2]
    return table


tables = st.integers(1, 5).flatmap(lambda width: st.builds(
    _table,
    st.lists(st.sampled_from(ENTRIES) | st.floats(width=64),
             min_size=width, max_size=width),
    st.lists(st.lists(st.booleans(), min_size=width, max_size=width),
             min_size=1, max_size=4),
    st.lists(st.integers(0, 4), min_size=1, max_size=24),
    st.sampled_from(["c", "transposed", "strided"]),
))


@st.composite
def models(draw):
    """Models of M <= 4 and T <= 4, B in (EPS_MIN, 1 - EPS_MIN), finite D >= 0,
    learned at a given period or by a search that found ts_star <= T."""
    m, period = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    probs = st.floats(EPS_MIN, 1 - EPS_MIN, exclude_min=True, exclude_max=True)
    cpts = draw(arrays(np.float64, (period - 1, 2**m, m), elements=probs))
    weights = st.floats(0.0, allow_infinity=False)
    deps = draw(arrays(np.float64, (period - 1, m, m), elements=weights))
    counts = np.zeros(2**m, dtype=np.int64)
    return CbnModel(
        M=m,
        period=period,
        cpts=tuple(CliqueCPT(M=m, B=B, counts=counts) for B in cpts),
        deps=tuple(DependenceMatrix(M=m, D=D) for D in deps),
        ts_star=draw(st.none() | st.integers(1, period)),
        provenance={},
    )


def at_precision(table: np.ndarray) -> np.ndarray:
    """Every entry rounded to the 12 significant digits of the model file."""
    return np.array([float(f"{v:.12g}") for v in table.ravel().tolist()]).reshape(
        table.shape)


class TestModelJson:
    @settings(max_examples=200, deadline=None)
    @given(model=models())
    def test_round_trip(self, model):
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "a.json", Path(tmp) / "b.json"
            write_model_json(model_to_dict(model), first)
            with open(first) as fh:
                back = model_from_dict(json.load(fh))
            assert (back.M, back.period, back.ts_star) == (
                model.M, model.period, model.ts_star)
            for a, b in zip(back.cpts, model.cpts, strict=True):
                assert np.array_equal(a.B, at_precision(b.B))
                assert a.counts is None  # model files store no counts
            for a, b in zip(back.deps, model.deps, strict=True):
                assert np.array_equal(a.D, at_precision(b.D))
            # the rounded model is written again to the same bytes
            write_model_json(model_to_dict(back), second)
            assert second.read_bytes() == first.read_bytes()

    def test_round_trip_at_precision(self, tmp_path):
        rng = np.random.default_rng(0)
        stream = ObservationStream((rng.random((2, 1000)) < 0.4).astype(np.int8))
        model = learn_cbn(stream, period=5)
        path = tmp_path / "model.json"
        write_model_json(model_to_dict(model), path)
        with open(path) as fh:
            back = model_from_dict(json.load(fh))
        assert back.period == model.period and back.M == model.M
        for a, b in zip(back.cpts, model.cpts):
            np.testing.assert_allclose(a.B, b.B, rtol=1e-11)
        for a, b in zip(back.deps, model.deps):
            np.testing.assert_allclose(a.D, b.D, rtol=1e-11)

    def test_document_leaves_model_provenance_unchanged(self):
        # cmd_learn adds the input path to the document's provenance
        model = learned_model(2, 3)
        before = dict(model.provenance)
        doc = model_to_dict(model)
        doc["provenance"]["input"] = "obs.csv"
        assert model.provenance == before and "input" not in model.provenance

    @pytest.mark.parametrize("m", [1, 3, 8, 12])
    @pytest.mark.parametrize("period", [1, 2, 12])
    def test_learned_model_matches_reference(self, tmp_path, m, period):
        doc = model_to_dict(learned_model(m, period))
        assert len(doc["cpts"]) == len(doc["deps"]) == period - 1
        path = tmp_path / "model.json"
        write_model_json(doc, path)
        assert path.read_bytes() == reference_model_json(doc).encode()

    @pytest.mark.parametrize("rows", [1, 4096])
    def test_default_rows_match_reference(self, tmp_path, rows):
        # a wide-m12 CPT sees ~3% of its 4096 rows; 0.0 and -0.0 are equal
        # but written differently, so they sit side by side
        rng = np.random.default_rng(rows)
        table = np.full((rows, 12), UNSEEN)
        seen = np.flatnonzero(rng.random(rows) < 0.03)
        table[seen] = rng.random((len(seen), 12))
        table[seen[:1], :4] = [0.0, -0.0, -0.0, 0.0]
        doc = {"M": 12, "cpts": [table, table[::-1]], "deps": [table]}
        write_model_json(doc, tmp_path / "model.json")
        assert (tmp_path / "model.json").read_bytes() == reference_model_json(doc).encode()
        write_matrix_csv(table, tmp_path / "a.csv")
        np.savetxt(tmp_path / "b.csv", table, delimiter=",", fmt="%.12g")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @settings(max_examples=200, deadline=None)
    @given(cpt=tables, dep=tables)
    def test_tables_match_reference(self, cpt, dep):
        doc = {"M": 1, "cpts": [cpt, dep], "deps": [dep]}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.json"
            write_model_json(doc, path)
            assert path.read_bytes() == reference_model_json(doc).encode()
            write_matrix_csv(cpt, Path(tmp) / "a.csv")
            np.savetxt(Path(tmp) / "b.csv", cpt, delimiter=",", fmt="%.12g")
            assert (Path(tmp) / "a.csv").read_bytes() == (Path(tmp) / "b.csv").read_bytes()


def reference_read(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def outcome(read, path):
    """The model that ``read`` of the file gives, as bytes, or its error."""
    try:
        model = model_from_dict(read(path))
    except ValueError as exc:
        return type(exc), str(exc)
    tables = [cpt.B for cpt in model.cpts] + [dep.D for dep in model.deps]
    return (model.M, model.period, model.ts_star, model.provenance,
            [(t.dtype.str, t.shape, t.tobytes()) for t in tables])


def assert_reads_alike(path):
    """``read_model_json`` gives what ``json.load`` gives, bit for bit."""
    assert outcome(read_model_json, path) == outcome(reference_read, path)


def whole_text_parses(path, monkeypatch) -> int:
    """How often ``read_model_json(path)`` hands the whole file to json.loads."""
    text, loads, calls = Path(path).read_text(encoding="utf-8"), json.loads, []

    def counting(s, *args, **kwargs):
        calls.append(s == text)
        return loads(s, *args, **kwargs)

    monkeypatch.setattr(json, "loads", counting)
    read_model_json(path)
    monkeypatch.undo()
    return sum(calls)


def layouts(text: str) -> dict[str, str]:
    """The writer's text, and the same document as json writes it otherwise."""
    doc = json.loads(text)
    return {
        "writer": text,
        "compact": json.dumps(doc),
        "indent": json.dumps(doc, indent=2),
        "crlf": text.replace("\n", "\r\n"),
    }


def _entry_table(rows: int, width: int):
    """Tables of ENTRIES, their twins and any float, rows repeated."""
    return st.builds(
        _table,
        st.lists(st.sampled_from(ENTRIES) | st.floats(width=64),
                 min_size=width, max_size=width),
        st.lists(st.lists(st.booleans(), min_size=width, max_size=width),
                 min_size=1, max_size=4),
        st.lists(st.integers(0, 4), min_size=rows, max_size=rows),
        st.just("c"),
    )


#: provenance values that look like what the reader puts in the text
MARK_LIKE = [10**20, 10**20 + 1, str(10**20), 1e20, CLIQUE_PREFIX + "[0.5]]", "[[0.5]]"]


@st.composite
def entry_docs(draw):
    """Model documents of M <= 3 whose tables hold ENTRIES and their twins."""
    m, period = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return {
        "format": MODEL_FORMAT,
        "M": m,
        "T": period,
        "cpts": [draw(_entry_table(2**m, m)) for _ in range(period - 1)],
        "deps": [draw(_entry_table(m, m)) for _ in range(period - 1)],
        "provenance": draw(st.dictionaries(
            st.text(max_size=3), st.sampled_from(MARK_LIKE) | st.integers(), max_size=2)),
    }


class TestReadModelJson:
    @settings(max_examples=100, deadline=None)
    @given(doc=models().map(model_to_dict) | entry_docs())
    def test_reads_as_json_load(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.json"
            write_model_json(doc, path)
            for text in layouts(path.read_text()).values():
                path.write_bytes(text.encode())
                assert_reads_alike(path)

    @pytest.mark.parametrize("layout", ["writer", "compact", "indent", "crlf"])
    def test_learned_model_in_each_layout(self, tmp_path, layout):
        path = tmp_path / "model.json"
        write_model_json(model_to_dict(learned_model(3, 5)), path)
        path.write_bytes(layouts(path.read_text())[layout].encode())
        assert_reads_alike(path)

    @pytest.mark.parametrize("clique", [0, 2])  # the first cpts line, the first deps line
    @pytest.mark.parametrize("entry, bulk", [
        (None, True),  # a second space after a comma
        ("0.12345678901234567", True),
        ("1", False),
        ("NaN", True),
    ])
    def test_edited_clique_line(self, tmp_path, monkeypatch, clique, entry, bulk):
        path = tmp_path / "model.json"
        write_model_json(model_to_dict(learned_model(3, 3)), path)
        lines = path.read_text().split("\n")
        n = [i for i, line in enumerate(lines) if line.startswith(CLIQUE_PREFIX)][clique]
        if entry is None:
            lines[n] = lines[n].replace(", ", ",  ", 1)
        else:
            lines[n] = CLIQUE_PREFIX + "[" + entry + lines[n][lines[n].index(","):]
        path.write_text("\n".join(lines))
        assert_reads_alike(path)
        assert whole_text_parses(path, monkeypatch) == (0 if bulk else 1)

    @pytest.mark.parametrize("where", ["before", "after"])
    @pytest.mark.parametrize("value", ["5", "[\n    [[0.5, 0.5]]\n  ]"])
    def test_duplicate_cpts_key(self, tmp_path, where, value):
        path = tmp_path / "model.json"
        write_model_json(model_to_dict(learned_model(1, 2)), path)
        text = path.read_text()
        extra = f'"cpts": {value},\n  '
        at = text.index('"cpts"') if where == "before" else text.index('"epsilon"')
        path.write_text(text[:at] + extra + text[at:])
        assert_reads_alike(path)

    @pytest.mark.parametrize("value", MARK_LIKE)
    def test_mark_like_provenance(self, tmp_path, monkeypatch, value):
        path = tmp_path / "model.json"
        doc = model_to_dict(learned_model(2, 3))
        doc["provenance"]["mark"] = value
        write_model_json(doc, path)
        assert_reads_alike(path)
        # an int with the digits of a mark (10**20 + clique number) sends
        # the file to json.loads
        forged = any(str(10**20 + t) in json.dumps(value) for t in range(4))
        assert whole_text_parses(path, monkeypatch) == (1 if forged else 0)

    @pytest.mark.parametrize("held", ["1e20", str(10**20)])
    def test_number_equal_to_a_mark(self, tmp_path, held):
        # the clique line sits under another key, and cpts holds a number
        # that equals its mark: json reads a cpts of one number
        path = tmp_path / "model.json"
        path.write_text(
            '{\n  "M": 1,\n  "T": 2,\n  "format": "cbnet-model/2",\n'
            f'  "x": [\n{CLIQUE_PREFIX}[0.5], [0.5]]\n  ],\n'
            f'  "cpts": [{held}],\n  "deps": []\n}}\n')
        assert_reads_alike(path)
        assert "model field 'cpts'" in outcome(read_model_json, path)[1]

    def test_wide_model_read_in_bulk(self, tmp_path, monkeypatch):
        # 4096-row cliques at M=12, as the wide-m12 benchmark writes them
        path = tmp_path / "model.json"
        write_model_json(model_to_dict(learned_model(12, 3)), path)
        assert whole_text_parses(path, monkeypatch) == 0
        assert_reads_alike(path)
