"""The benchmark's probes and tracer find every semogp name they patch.

bench/tracing.py patches semogp functions and methods by name from outside
the package, so a refactor that renames or removes one of them would only
show in a traced benchmark run. This runs the probes and the tracer over
tiny runs of each engine and checks that they record what the benchmark
reads and that uninstalling them restores every patched name. It also
builds every config bench/run.py runs and validates it, so that a config
key the benchmark sets cannot be retired or renamed unnoticed, and runs
bench/checks.py's output check, which reads the config echo and re-scores
fronts by semogp names of its own.
"""

import importlib
import importlib.util
import os
import random
import sys
from pathlib import Path

from semogp.gp_core import Constant, PrimitiveSet, full_tree, grow_tree

from conftest import left_comb, reference_shape

BENCH_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
BENCH_RUN = BENCH_TRACING.with_name("run.py")
BENCH_CHECKS = BENCH_TRACING.with_name("checks.py")


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_tracing():
    return _load("bench_tracing", BENCH_TRACING)


def test_benchmark_configs_validate(monkeypatch):
    # bench/run.py pins thread counts in os.environ and puts bench/ on
    # sys.path when it is imported; both are restored after the test.
    monkeypatch.setattr(os, "environ", dict(os.environ))
    monkeypatch.setattr(sys, "path", list(sys.path))
    run = _load("bench_run", BENCH_RUN)
    harness = importlib.import_module("semogp.harness")
    checked = 0
    for workload in run.WORKLOADS.values():
        for pair in workload.pairs:
            cfg = run.config({"harness": harness}, workload, "data.csv", pair, 0, "out")
            for point in harness.expand_grid(cfg):
                point.validate()
                checked += 1
    assert checked == sum(len(w.pairs) for w in run.WORKLOADS.values())


def test_output_check_passes_on_real_runs(blob_csv, tmp_path):
    checks = _load("bench_checks", BENCH_CHECKS)
    names = ("dataset", "gp_core", "harness", "metrics", "objectives", "results")
    mods = {name: importlib.import_module(f"semogp.{name}") for name in names}
    for engine, approach in (("nsga2", "ssc"), ("spea2", "scd"), ("moead", "sdo")):
        out_dir = tmp_path / f"{engine}_{approach}"
        cfg = mods["harness"].ExperimentConfig(
            dataset=str(blob_csv),
            engine=engine,
            approach=approach,
            pop_size=8,
            generations=2,
            init_min_depth=1,
            init_max_depth=3,
            seeds=[1],
            output_dir=str(out_dir),
        )
        runs = mods["harness"].run_experiment(cfg)
        assert checks.check_runs(mods, runs, blob_csv, 1, cfg.train_fraction, out_dir) == []


def _snapshot(tracing, mods):
    """Every module attribute and every patched class's own attributes."""
    classes = {(mod, cls) for mod, cls, _ in tracing.SPANNED_METHODS}
    classes |= {("emo", cls) for cls in tracing.ENGINES}
    owners = list(mods.values()) + [getattr(mods[mod], cls) for mod, cls in sorted(classes)]
    return {id(owner): (owner, dict(vars(owner))) for owner in owners}


def test_engines_define_initialize_and_step_in_their_own_class_bodies():
    # The probes and the tracer read cls.__dict__[method], so a method an
    # engine inherited from its base would fail inside Tracer.install.
    tracing = _load_tracing()
    emo = importlib.import_module("semogp.emo")
    for cls_name in tracing.ENGINES:
        own = vars(getattr(emo, cls_name))
        for method in ("initialize", "step"):
            assert method in own, (
                f"{cls_name}.{method} must be defined in {cls_name}'s own class body: "
                f"bench/tracing.py wraps {cls_name}.__dict__[{method!r}] to time and trace each engine"
            )


def test_probes_and_tracer_patch_and_restore(blob_csv, tmp_path):
    tracing = _load_tracing()
    mods = {name: importlib.import_module(f"semogp.{name}") for name in tracing.MODULES}
    before = _snapshot(tracing, mods)
    probes = tracing.Probes(mods, collect_trees=True)
    tracer = tracing.Tracer(mods)
    probes.install()
    tracer.install()
    try:
        for engine, approach in (("nsga2", "ssc"), ("spea2", "scd"), ("moead", "sdo")):
            cfg = mods["harness"].ExperimentConfig(
                dataset=str(blob_csv),
                engine=engine,
                approach=approach,
                pop_size=8,
                generations=2,
                init_min_depth=1,
                init_max_depth=3,
                output_dir=str(tmp_path / "out"),
            )
            tracer.run_id += 1
            assert len(mods["harness"].run_experiment(cfg)) == 1
    finally:
        tracer.uninstall()
        probes.uninstall()

    calls, _, _ = tracer.self_times()
    for name in (
        "emo.Nsga2Engine.step",
        "emo.Spea2Engine.step",
        "emo.MoeadEngine.step",
        "semantic_emo.ssc_crossover",
        "harness.attach_test_metrics",
        "harness.run_experiment",
        "objectives.evaluate_tree",
        "gp_core.evaluate_semantics",
    ):
        assert calls.get(name, 0) > 0, name
    assert tracer.ssc_stats
    # Generation 0 is the initial population: one step per two-generation run.
    assert len(probes.step_s) == 3
    # nodes_per_s counts the trees the probe sees at gp_core.evaluate_semantics:
    # every scoring and both subtrees of every ssc trial must reach that name.
    trials = sum(stats.trials for stats in tracer.ssc_stats.values())
    assert trials > 0
    assert len(probes.evaluated_trees) == calls["objectives.evaluate_tree"] + 2 * trials

    after = _snapshot(tracing, mods)
    assert after.keys() == before.keys()
    for key, (owner, attrs) in before.items():
        restored = after[key][1]
        assert restored.keys() == attrs.keys(), owner
        changed = [name for name, value in attrs.items() if restored[name] is not value]
        assert not changed, (owner, changed)


def test_node_counter_counts_every_node():
    # bench/run.py sizes the evaluated trees for nodes_per_s with this clone.
    tracing = _load_tracing()
    gp_core = importlib.import_module("semogp.gp_core")
    node_count = tracing.recursion_clone(gp_core.node_count)
    ps = PrimitiveSet(n_features=3)
    rng = random.Random(0)
    trees = [Constant(0.5), left_comb(17), full_tree(ps, 6, rng)]
    trees += [grow_tree(ps, depth, rng) for depth in range(9)]
    for tree in trees:
        assert node_count(tree) == reference_shape(tree)[0]
