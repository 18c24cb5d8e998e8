"""Acceptance gate: ten end-to-end checks with pinned tolerances and budgets.

Each check prints one summary line when it passes; assertion messages carry
the measured numbers when it fails. Checks 1-3 hold the implementation to
independent oracles under a time budget, 4-5 pin the semantic gating rules,
6 proves the canonical wiring is the raw engine, 7 is a statistical
smoke test for the diversity trend, 8-10 pin variant invariants, file-level
reproducibility, and the decomposition engine's bookkeeping.
"""

import math
import random
import statistics
import time

import numpy as np
import pytest

from conftest import blob_dataset, exchanged, make_individual

from semogp import (
    Dataset,
    GPParams,
    SemanticConfig,
    run_experiment,
    run_variant,
    synthetic_blobs,
)
from semogp.dataset import write_synthetic_csv
from semogp.emo import (
    MoeadEngine,
    Nsga2Engine,
    Spea2Engine,
    canonical_density,
    dominates,
    fast_nondominated_sort,
    spea2_fitness,
    tchebycheff,
)
from semogp.gp_core import Constant, Feature, PrimitiveSet, SemanticsMemo, Variation, node_count, to_prefix
from semogp.harness import ExperimentConfig
from semogp.metrics import HV_REFERENCE, hypervolume_2d, unique_solutions
from semogp.objectives import ClassificationEvaluator
from semogp.semantic_emo import SSC_MAX_TRIALS, SscCounters, sdo_extend, ssc_crossover
from semogp.semantics import RULE_ABOVE, RULE_BAND, Pivot, SemanticConfig, count_distances

from test_emo import peel_front_oracle


def full_synthetic_dataset(n_cases=200, imbalance=9, seed=0) -> Dataset:
    rows = synthetic_blobs(n_cases, imbalance, seed)
    features = np.array([[x0, x1] for x0, x1, _ in rows])
    labels = np.array([label == "pos" for _, _, label in rows])
    return Dataset(features, labels)


def test_criterion_01_sort_matches_independent_oracle():
    rng = random.Random(11)
    start = time.perf_counter()
    for case in range(100):
        n = rng.randint(1, 500)
        m = rng.choice((2, 3))
        if case % 2:
            objs = np.array([[rng.uniform(0.0, 1.0) for _ in range(m)] for _ in range(n)])
        else:
            # Quantized coordinates force duplicates and dominance ties.
            objs = np.array([[rng.randint(0, 4) / 4.0 for _ in range(m)] for _ in range(n)])
        assert fast_nondominated_sort(objs) == peel_front_oracle(objs)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"sort oracle sweep took {elapsed:.1f}s (budget 30s)"
    print(
        f"criterion 01 PASS: 100 populations (n <= 500, m in {{2,3}}) "
        f"match the peeling oracle exactly in {elapsed:.1f}s"
    )


def spea2_total_fitness(objs) -> np.ndarray:
    """Raw fitness plus canonical density, as Spea2Engine adds them without a hook."""
    raw = spea2_fitness(objs)
    nondominated = np.flatnonzero(raw == 0).tolist()
    return raw + canonical_density([None] * len(objs), nondominated, objs, None)


def test_criterion_02_spea2_fitness_matches_brute_force():
    rng = random.Random(7)
    start = time.perf_counter()
    assert spea2_total_fitness([(0.3, 0.7)]).tolist() == [0.5]
    for case in range(50):
        n = rng.randint(2, 100)
        if case % 3:
            objs = [(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)) for _ in range(n)]
        else:
            objs = [(rng.randint(0, 3) / 3.0, rng.randint(0, 3) / 3.0) for _ in range(n)]
        fitness = spea2_total_fitness(objs)
        strength = [sum(1 for j in range(n) if dominates(objs[i], objs[j])) for i in range(n)]
        raw = [
            sum(strength[j] for j in range(n) if dominates(objs[j], objs[i]))
            for i in range(n)
        ]
        k = min(max(math.isqrt(n), 1), n - 1)
        for i in range(n):
            dists = sorted(math.dist(objs[i], objs[j]) for j in range(n) if j != i)
            expected = raw[i] + 1.0 / (dists[k - 1] + 2.0)
            assert math.isclose(fitness[i], expected, rel_tol=1e-12), (
                f"pool {case}, member {i}: fitness {fitness[i]!r} "
                f"vs brute force {expected!r}"
            )
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"fitness sweep took {elapsed:.1f}s (budget 10s)"
    print(
        f"criterion 02 PASS: 50 pools (n <= 100) match the pure-python "
        f"fitness within 1e-12 relative in {elapsed:.1f}s"
    )


def test_criterion_03_hypervolume_matches_monte_carlo():
    assert hypervolume_2d([(0.5, 0.5)], (1.0, 1.0)) == 0.25
    assert abs(hypervolume_2d([(0.2, 0.8), (0.6, 0.4)], (1.0, 1.0)) - 0.32) < 1e-15
    rng = random.Random(19)
    sampler = np.random.default_rng(19)
    samples = sampler.random((1_000_000, 2)) * np.asarray(HV_REFERENCE)
    area = float(np.prod(HV_REFERENCE))
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        k = rng.randint(1, 15)
        front = np.array([[rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)] for _ in range(k)])
        exact = hypervolume_2d([tuple(p) for p in front], HV_REFERENCE)
        covered = (samples[:, None, :] >= front[None, :, :]).all(axis=2).any(axis=1)
        estimate = covered.mean() * area
        worst = max(worst, abs(exact - estimate))
        assert abs(exact - estimate) < 0.005, (
            f"hypervolume {exact:.6f} vs Monte Carlo {estimate:.6f} on {k}-point front"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 20.0, f"hypervolume sweep took {elapsed:.1f}s (budget 20s)"
    print(
        f"criterion 03 PASS: 20 fronts within 0.005 of a 10^6-sample "
        f"Monte Carlo estimate (worst {worst:.5f}) in {elapsed:.1f}s; "
        f"hand values 0.25 and 0.32 exact"
    )


def test_criterion_04_distance_rules_partition_the_cases():
    rng = random.Random(5)
    for case in range(10_000):
        length = rng.randint(1, 40)
        p = np.array([rng.uniform(-2.0, 2.0) for _ in range(length)])
        v = np.array([rng.uniform(-2.0, 2.0) for _ in range(length)])
        lbss = rng.uniform(0.0, 1.0)
        ubss = lbss if case % 10 == 0 else lbss + rng.uniform(0.0, 1.0)
        above, band = (
            count_distances(p[None, :], v, SemanticConfig(lbss=lbss, ubss=ubss, distance_rule=rule))[0]
            for rule in (RULE_ABOVE, RULE_BAND)
        )
        below = int((np.abs(p - v) < lbss).sum())
        assert above + band + below == length, (
            f"case {case}: above={above} band={band} below={below} length={length} "
            f"bounds=({lbss}, {ubss})"
        )
    print(
        "criterion 04 PASS: 10000 random pairs split exactly into "
        "below-band / in-band / above-band case counts"
    )


def test_criterion_05_gated_crossover_trial_accounting():
    features = np.array([[0.0], [0.2]])
    memo = SemanticsMemo(features)
    rng = random.Random(0)

    feature_parent = make_individual(tree=Feature(0))
    constant_parent = make_individual(tree=Constant(0.1))

    # Vacuous bounds accept the very first trial.
    cfg = SemanticConfig(approach="ssc", lbss=0.0, ubss=math.inf)
    stats = SscCounters()
    ssc_crossover(feature_parent, constant_parent, cfg, rng, 8, memo, stats)
    assert (stats.calls, stats.trials, stats.accepted) == (1, 1, 1)

    # Single-node identical parents always exchange identical semantics, so a
    # positive lower bound rejects every trial and the parents come back.
    cfg = SemanticConfig(approach="ssc", lbss=0.1, ubss=0.5)
    stats = SscCounters()
    other_parent = make_individual(tree=Feature(0))
    points = ssc_crossover(feature_parent, other_parent, cfg, rng, 8, memo, stats)
    c1, c2 = exchanged(feature_parent, other_parent, points)
    assert (stats.calls, stats.trials, stats.accepted) == (1, SSC_MAX_TRIALS, 0)
    assert to_prefix(c1) == "x0" and to_prefix(c2) == "x0"

    # A swap whose exchanged semantics land inside the band is accepted at
    # once: |0 - 0.1| and |0.2 - 0.1| average to 0.1.
    cfg = SemanticConfig(approach="ssc", lbss=0.05, ubss=0.5)
    stats = SscCounters()
    points = ssc_crossover(feature_parent, constant_parent, cfg, rng, 8, memo, stats)
    c1, c2 = exchanged(feature_parent, constant_parent, points)
    assert (stats.calls, stats.trials, stats.accepted) == (1, 1, 1)
    assert to_prefix(c1) == "0.1" and to_prefix(c2) == "x0"
    print(
        "criterion 05 PASS: gated crossover accepts vacuous bounds on trial 1, "
        f"burns all {SSC_MAX_TRIALS} trials on in-gate rejection, and swaps in-band subtrees"
    )


def test_criterion_06_canonical_variant_is_the_raw_engine():
    ds = blob_dataset(n_cases=60, imbalance=3, seed=0)
    gp = GPParams(pop_size=20, generations=6, init_min_depth=2, init_max_depth=4)
    checked = 0
    for engine_name in ("nsga2", "spea2"):
        for seed in range(5):
            result = run_variant(
                engine_name, SemanticConfig(approach="canonical"), ds, gp=gp, seed=seed
            )

            rng = random.Random(seed)
            evaluator = ClassificationEvaluator(ds)
            variation = Variation(PrimitiveSet(ds.n_features), gp)
            if engine_name == "nsga2":
                engine = Nsga2Engine(evaluator, variation, rng)
            else:
                engine = Spea2Engine(evaluator, variation, rng)
            engine.initialize()
            fronts = [engine.front()]
            for _ in range(1, gp.generations):
                engine.step()
                fronts.append(engine.front())

            assert len(result.generations) == len(fronts)
            for row, front in zip(result.generations, fronts):
                objs = [tuple(ind.objectives.tolist()) for ind in front]
                assert row.hypervolume == hypervolume_2d(objs, HV_REFERENCE)
                assert row.unique_count == unique_solutions(objs)
                assert row.front_size == len(front)
                assert row.mean_nodes == statistics.fmean(
                    node_count(ind.tree) for ind in front
                )
            manual = sorted(
                (to_prefix(ind.tree), float(ind.objectives[0]), float(ind.objectives[1]))
                for ind in fronts[-1]
            )
            reported = sorted(
                (member.program, member.objectives[0], member.objectives[1])
                for member in result.front
            )
            assert reported == manual
            checked += 1
    print(
        f"criterion 06 PASS: canonical runs are bit-identical to hook-free "
        f"engines across {checked} engine/seed combinations"
    )


def test_criterion_07_sdo_diversity_trend():
    """Statistical smoke test for the headline diversity trend.

    Expected trend: with the default bounds on the default 1:9 synthetic
    dataset (200 cases, population 100, 30 generations, 11 seeds), the
    third-criterion variant should keep noticeably more distinct trade-offs
    on the final front than canonical selection (a 1.2x median ratio) while
    conceding nothing in hypervolume. A failure here flags the defaults for
    investigation rather than proving a specific code defect: the front's
    distinct-vector count is capped by the number of reachable true-positive
    levels (21 at 20 positive cases), and both variants operate near that
    ceiling at this scale.
    """
    ds = full_synthetic_dataset()
    gp = GPParams()
    uniq = {"canonical": [], "sdo": []}
    hv = {"canonical": [], "sdo": []}
    start = time.perf_counter()
    for seed in range(11):
        for approach in ("canonical", "sdo"):
            result = run_variant(
                "nsga2", SemanticConfig(approach=approach), ds, gp=gp, seed=seed
            )
            last = result.generations[-1]
            uniq[approach].append(last.unique_count)
            hv[approach].append(last.hypervolume)
    elapsed = time.perf_counter() - start

    unique_canonical = statistics.median(uniq["canonical"])
    unique_sdo = statistics.median(uniq["sdo"])
    hv_canonical = statistics.median(hv["canonical"])
    hv_sdo = statistics.median(hv["sdo"])
    ratio = unique_sdo / unique_canonical

    assert elapsed < 300.0, f"trend runs took {elapsed:.0f}s (budget 300s)"
    assert hv_sdo >= hv_canonical, (
        f"median hypervolume regressed: sdo {hv_sdo:.4f} < canonical {hv_canonical:.4f}"
    )
    assert ratio >= 1.2, (
        f"expected-trend assertion: median unique solutions sdo={unique_sdo} vs "
        f"canonical={unique_canonical} gives ratio {ratio:.2f} < 1.2 "
        f"(per-seed canonical={uniq['canonical']}, sdo={uniq['sdo']}; "
        f"median hypervolume canonical={hv_canonical:.4f}, sdo={hv_sdo:.4f}, "
        f"{elapsed:.0f}s). Both variants sit near the 21-level true-positive "
        f"ceiling of this dataset scale; investigate the defaults before "
        f"concluding a regression."
    )
    print(
        f"criterion 07 PASS: unique-solution ratio {ratio:.2f} >= 1.2 with "
        f"hypervolume {hv_canonical:.4f} -> {hv_sdo:.4f} in {elapsed:.0f}s"
    )


def test_criterion_08_third_criterion_extension_invariants():
    rng = random.Random(3)
    sampler = np.random.default_rng(3)
    members = [
        make_individual(
            semantics=sampler.uniform(-2.0, 2.0, size=25),
            objectives=(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)),
        )
        for _ in range(10_000)
    ]
    pivot = Pivot(members[17].semantics, 17)
    cfg = SemanticConfig(approach="sdo")
    extended = sdo_extend(members, np.stack([ind.objectives for ind in members]), pivot, cfg)
    base = np.stack([ind.objectives for ind in members])
    assert extended.shape == (10_000, 3)
    assert np.array_equal(extended[:, :2], base), "base objective entries changed"
    assert (extended[:, 2] <= 0.0).all() and (extended[:, 2] >= -1.0).all()

    ds = blob_dataset(n_cases=60, imbalance=3, seed=0)
    gp = GPParams(pop_size=12, generations=4, init_min_depth=2, init_max_depth=4)
    for engine_name in ("nsga2", "spea2", "moead"):
        result = run_variant(engine_name, SemanticConfig(approach="sdo"), ds, gp=gp, seed=1)
        vectors = [member.objectives for member in result.front]
        assert all(len(v) == 2 for v in vectors)
        for i, a in enumerate(vectors):
            for j, b in enumerate(vectors):
                assert i == j or not dominates(a, b), (
                    f"{engine_name}: reported front member {a} dominates {b}"
                )
    print(
        "criterion 08 PASS: extension preserved all 10000 base objective "
        "pairs bitwise; reported fronts stay 2-entry and mutually non-dominated"
    )


def test_criterion_09_result_files_are_byte_reproducible(tmp_path):
    data = tmp_path / "blobs.csv"
    write_synthetic_csv(data, 80, 4, 0)
    base = ExperimentConfig(
        dataset=str(data),
        engine="spea2",
        approach="sdo",
        seeds=[0, 1],
        pop_size=10,
        generations=3,
        init_min_depth=1,
        init_max_depth=3,
        output_dir=str(tmp_path / "serial"),
        n_workers=1,
    )
    import dataclasses

    parallel = dataclasses.replace(
        base, output_dir=str(tmp_path / "parallel"), n_workers=4
    )
    run_experiment(base)
    run_experiment(parallel)
    serial_files = sorted(p.name for p in (tmp_path / "serial").iterdir())
    parallel_files = sorted(p.name for p in (tmp_path / "parallel").iterdir())
    assert serial_files == parallel_files and serial_files
    for name in serial_files:
        left = (tmp_path / "serial" / name).read_bytes()
        right = (tmp_path / "parallel" / name).read_bytes()
        assert left == right, f"{name} differs between serial and 4-worker runs"
    print(
        f"criterion 09 PASS: {len(serial_files)} result files byte-identical "
        f"between sequential and 4-worker experiments"
    )


def test_criterion_10_decomposition_ideal_is_monotone():
    assert tchebycheff((0.4, 0.6), (0.5, 0.5), (0.0, 0.0)) == pytest.approx(0.3)
    assert tchebycheff((0.4, 0.6), (1.0, 0.0), (0.0, 0.0)) == pytest.approx(0.4)
    assert tchebycheff((0.7, 0.7), (0.5, 0.5), (0.7, 0.7)) == 0.0

    ds = blob_dataset(n_cases=60, imbalance=3, seed=0)
    gp = GPParams(pop_size=12, generations=6, init_min_depth=2, init_max_depth=4)
    generations_checked = 0
    for seed in range(5):
        rng = random.Random(seed)
        evaluator = ClassificationEvaluator(ds)
        variation = Variation(PrimitiveSet(ds.n_features), gp)
        engine = MoeadEngine(evaluator, variation, rng)
        engine.initialize()
        for _ in range(1, gp.generations):
            engine.step()
        history = engine.ideal_history
        assert len(history) == gp.generations
        for before, after in zip(history, history[1:]):
            assert (after <= before).all(), (
                f"seed {seed}: ideal point rose from {before} to {after}"
            )
            generations_checked += 1
    print(
        f"criterion 10 PASS: ideal point componentwise non-increasing over "
        f"{generations_checked} generation steps (5 seeds); scalarization hand values exact"
    )
