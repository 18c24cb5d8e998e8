"""semogp benchmark: closed-loop experiment passes, output checks, tracing.

Run from the root of a checkout:

    python3 bench/run.py --workload select --seed 0 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 0     # every workload in turn

A workload is a list of (engine, approach) pairs run over several
replicates. Replicate i has its own synthetic dataset, drawn from --seed,
and runs GP seed i. One pass runs every pair on every replicate through
``harness.run_experiment`` (CSV load, split, evolution, test scoring and
persistence), one call after the other in this process with n_workers=1.

--trace 0 repeats passes while another fits in --seconds and prints the
end-to-end metrics; --trace 1 runs an untraced and a traced pass and
prints the per-layer metrics. The outputs are checked (see checks.py).
Times are in reference seconds: wall seconds scaled by the host's speed,
taken from a fixed kernel timed between runs (see hostspeed.py).
The last line of standard output is one JSON object; the lines above it
are for people. The exit code is 0 only when every run passed its checks.
"""

import os

# Pin BLAS and OpenMP pools before numpy loads: the benchmark is one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# Relative to the workload's directory under WORK, the working directory
# while a workload runs.
DATA_DIR = Path("data")
WARM_DIR = Path("warm")
OUT_DIR = Path("out")

sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402

# setup_s is the median over twice this many fresh processes: half are
# started before the timed passes and half after them, so that the median
# spans the run's window rather than the few seconds before it.
SETUP_SAMPLES = 3
IMBALANCE = 9
TRAIN_FRACTION = 0.7

APPROACHES = ("canonical", "ssc", "scd", "sdo")


@dataclass(frozen=True)
class Workload:
    name: str
    n_cases: int
    pop_size: int
    generations: int
    pairs: tuple
    replicates: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("eval-large", 5000, 100, 10, tuple(("nsga2", a) for a in APPROACHES), 20),
        # The desk protocol's data and generations at population 50, so that
        # a pass holds 64 runs; the SPEA2 archive is the population size.
        Workload(
            "select",
            200,
            50,
            30,
            (("spea2", "canonical"), ("spea2", "sdo"), ("moead", "canonical"), ("moead", "sdo")),
            16,
        ),
    )
}

END_TO_END_UNITS = {
    "pass_s": "s",
    "nodes_per_s": "1/s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "hv_mean": "1",
}


def replicate_inputs(workload: Workload, seed: int) -> list[tuple[int, int]]:
    """(data seed, GP seed) per replicate.

    The datasets are the inputs and come from the workload seed. The GP
    seeds are part of the experiment protocol, as in the paper's grids:
    replicate i always runs GP seed i.
    """
    rng = random.Random(f"{workload.name}/{seed}")
    return [(rng.randrange(2**31), index) for index in range(workload.replicates)]


def import_semogp() -> dict:
    """Import semogp from the checkout's src/ and return its modules."""
    package = importlib.import_module("semogp")
    if not Path(package.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"semogp imported from {package.__file__}, not from {SRC}")
    modules = {name: importlib.import_module(f"semogp.{name}") for name in tracing.MODULES}
    modules["semogp"] = package
    return modules


def config(mods, workload: Workload, csv_path, approach_pair, gp_seed, out_dir, **overrides):
    engine, approach = approach_pair
    fields = dict(
        dataset=str(csv_path),
        engine=engine,
        approach=approach,
        pop_size=workload.pop_size,
        generations=workload.generations,
        train_fraction=TRAIN_FRACTION,
        seeds=[gp_seed],
        output_dir=str(out_dir),
        n_workers=1,
    )
    fields.update(overrides)
    return mods["harness"].ExperimentConfig(**fields)


def set_up(workload: Workload, inputs) -> tuple[dict, list[Path]]:
    """Import semogp, write every replicate's CSV and warm each pair."""
    mods = import_semogp()
    DATA_DIR.mkdir()
    csv_paths = []
    for index, (data_seed, _) in enumerate(inputs):
        path = DATA_DIR / f"replicate{index}.csv"
        mods["dataset"].write_synthetic_csv(path, workload.n_cases, IMBALANCE, data_seed)
        csv_paths.append(path)
    # A two-generation run of each pair lets numpy and the engines finish
    # their lazy first-call work before anything is timed.
    for pair in workload.pairs:
        cfg = config(mods, workload, csv_paths[0], pair, 0, WARM_DIR, pop_size=8, generations=2)
        mods["harness"].run_experiment(cfg)
    shutil.rmtree(WARM_DIR)
    hostspeed.warm_up()
    return mods, csv_paths


def measure_setup(workload: Workload, seed: int) -> list[float]:
    """Reference seconds from process start to the end of set_up, in fresh processes.

    Each sample starts a new interpreter that imports numpy and semogp,
    writes the CSVs, warms up, prints CLOCK_MONOTONIC and a host speed
    sample, and exits. The clock is system-wide, so the sample runs from
    this process's spawn call to the child's last step before the first
    run would start; it is scaled by the host speed sampled here before the
    spawn and in the child after set_up.
    """
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        before = hostspeed.sample()
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        child = subprocess.run([*command, "--setup-only"], capture_output=True, text=True, timeout=120, check=True)
        done, after = map(float, child.stdout.split()[-2:])
        samples.append((done - start) * hostspeed.scale(before, after))
    return samples


@dataclass
class PassResult:
    pass_s: float  # reference seconds of the run_experiment calls
    wall_s: float  # their wall seconds
    nodes: int | None  # tree nodes they evaluated, when counted
    hypervolumes: list
    attempted: int
    failed: int
    digest: str
    bytes_written: int
    step_s: list  # reference seconds of each engine step


def run_pass(mods, workload, inputs, csv_paths, probe, check: bool) -> PassResult:
    """One closed-loop pass; probe (Probes or Tracer) is installed meanwhile.

    Only the run_experiment calls are timed. The host speed is sampled
    before the first call and after each one, and a call and its engine
    steps are scaled by the samples on either side. When the probe collects
    the trees handed to evaluate_semantics, they are sized after each call
    returns, by a node_count that cannot reach the probe; otherwise nodes
    is None. With check, outputs are checked after the probe is
    removed; later passes over the same inputs are held to the checked pass
    by their digest.
    """
    node_count = tracing.recursion_clone(mods["gp_core"].node_count)
    trees = probe.evaluated_trees
    steps = getattr(probe, "step_s", [])
    out_dir = OUT_DIR
    shutil.rmtree(out_dir, ignore_errors=True)
    finished = []
    pass_s = wall_s = 0.0
    nodes = 0
    attempted = failed = 0
    gc.collect()
    before = hostspeed.sample()
    probe.install()
    try:
        for index, (_, gp_seed) in enumerate(inputs):
            for pair in workload.pairs:
                attempted += 1
                cfg = config(mods, workload, csv_paths[index], pair, gp_seed, out_dir / f"replicate{index}")
                if isinstance(probe, tracing.Tracer):
                    probe.run_id = attempted
                first_step = len(steps)
                start = time.perf_counter()
                try:
                    runs = mods["harness"].run_experiment(cfg)
                except Exception:
                    runs = None
                    failed += 1
                    traceback.print_exc(file=sys.stderr)
                elapsed = time.perf_counter() - start
                after = hostspeed.sample()
                scale = hostspeed.scale(before, after)
                before = after
                wall_s += elapsed
                pass_s += elapsed * scale
                steps[first_step:] = [step * scale for step in steps[first_step:]]
                if trees is not None:
                    nodes += sum(node_count(tree) for tree in trees)
                    trees.clear()
                if runs is not None:
                    finished.append((runs, csv_paths[index], gp_seed, cfg.output_dir))
    finally:
        probe.uninstall()
    hypervolumes = []
    for runs, csv_path, gp_seed, run_dir in finished:
        problems = checks.check_runs(mods, runs, csv_path, gp_seed, TRAIN_FRACTION, run_dir) if check else []
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        failed += bool(problems)
        hypervolumes.extend(run.generations[-1].hypervolume for run in runs)
    digest = checks.digest(out_dir)
    bytes_written = sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())
    shutil.rmtree(out_dir, ignore_errors=True)
    return PassResult(
        pass_s,
        wall_s,
        nodes if trees is not None else None,
        hypervolumes,
        attempted,
        failed,
        digest,
        bytes_written,
        steps,
    )


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, mods, inputs, csv_paths, seconds, seed):
    # Only the first pass, which is checked, collects trees to count nodes;
    # the later ones time the runs and the engine steps and nothing else.
    setup_samples = measure_setup(workload, seed)
    started = time.perf_counter()
    passes = [run_pass(mods, workload, inputs, csv_paths, tracing.Probes(mods, collect_trees=True), check=True)]
    while time.perf_counter() - started + statistics.median(p.wall_s for p in passes) <= seconds:
        passes.append(run_pass(mods, workload, inputs, csv_paths, tracing.Probes(mods), check=False))
    setup_samples += measure_setup(workload, seed)
    first = passes[0]
    problems = []
    if any(p.digest != first.digest for p in passes):
        problems.append("passes over the same inputs wrote different files")
    pass_s = statistics.median(p.pass_s for p in passes)
    steps_ms = [s * 1000.0 for p in passes for s in p.step_s]
    values = {
        "pass_s": pass_s,
        "nodes_per_s": first.nodes / pass_s,
        "step_ms_p50": statistics.median(steps_ms),
        "step_ms_p90": percentile(steps_ms, 90),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "hv_mean": statistics.fmean(first.hypervolumes) if first.hypervolumes else 0.0,
    }
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes) + len(problems)
    info = {
        "passes": f"{len(passes)} (pass_s each: {', '.join(f'{p.pass_s:.3f}' for p in passes)})",
        "wall seconds per pass": ", ".join(f"{p.wall_s:.3f}" for p in passes),
        "runs per pass": first.attempted,
        "step samples": len(steps_ms),
        "nodes per pass": first.nodes,
        "setup_s samples": ", ".join(f"{x:.4f}" for x in setup_samples),
        "error_rate": f"{failed / attempted:.4f} ({failed}/{attempted} runs)",
        "result_digest": first.digest,
    }
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return {name: metric(values[name], END_TO_END_UNITS[name]) for name in END_TO_END_UNITS}, attempted, failed, info


def per_layer(workload, mods, inputs, csv_paths):
    # The untraced pass is the base of the tracing overhead; the traced pass
    # counts the nodes.
    untraced = run_pass(mods, workload, inputs, csv_paths, tracing.Probes(mods), check=True)
    tracer = tracing.Tracer(mods)
    traced = run_pass(mods, workload, inputs, csv_paths, tracer, check=False)
    problems = []
    if untraced.digest != traced.digest:
        problems.append("the traced pass wrote different files")
    values = layer_metrics(tracer, traced, untraced)
    attempted = untraced.attempted + traced.attempted
    failed = untraced.failed + traced.failed + len(problems)
    _, self_s, _ = tracer.self_times()
    ranked = sorted(self_s.items(), key=lambda item: -item[1])[:8]
    info = {
        "traced wall_s": f"{traced.wall_s:.4f}",
        "untraced wall_s": f"{untraced.wall_s:.4f}",
        "spans": len(tracer.spans),
        "heaviest layers": ", ".join(f"{name} {seconds / traced.wall_s:.1%}" for name, seconds in ranked),
        "result_digest": traced.digest,
        "error_rate": f"{failed / attempted:.4f} ({failed}/{attempted} runs)",
    }
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return values, attempted, failed, info


LAYER_CALLS_AND_SELF = (
    "gp_core.evaluate_semantics",
    "gp_core.pick_crossover_point",
    "gp_core.tree_depth",
    "gp_core.replace_subtree",
    "gp_core.subtree_mutation",
    "objectives.evaluate_tree",
    "emo.spea2_truncate",
    "emo.moead_replacements",
    "emo.fast_nondominated_sort",
    "emo.crowding_distance",
    "emo.spea2_fitness",
    "semantic_emo.ssc_crossover",
    "semantics.count_distances",
    "semantics.ssc_distance",
    "semantics.select_pivot",
)
LAYER_SELF_ONLY = (
    "objectives.confusion",
    "semantic_emo.select_front_pivot",
    "semantic_emo.sdo_extend",
    "semantic_emo.scd_assign",
    "metrics.hypervolume_2d",
    "metrics.unique_solutions",
    "results.save_run",
    "dataset.load_csv",
    "dataset.stratified_split",
)


def layer_metrics(tracer, traced: PassResult, untraced: PassResult) -> dict:
    calls, self_s, total_s = tracer.self_times()
    out = {}
    for name in LAYER_CALLS_AND_SELF:
        out[f"{name}.calls"] = metric(calls.get(name, 0), "count")
        out[f"{name}.self_s"] = metric(self_s.get(name, 0.0), "s")
    for name in LAYER_SELF_ONLY:
        out[f"{name}.self_s"] = metric(self_s.get(name, 0.0), "s")
    out["gp_core.evaluate_semantics.nodes"] = metric(traced.nodes, "count")
    out["gp_core.evaluate_semantics.ssc_self_s"] = metric(
        tracer.self_seconds_under("gp_core.evaluate_semantics", "semantic_emo.ssc_crossover"), "s"
    )
    out["emo.spea2_truncate.removed"] = metric(tracer.counts["emo.spea2_truncate.removed"], "count")
    out["emo.moead_replacements.replaced"] = metric(tracer.counts["emo.moead_replacements.replaced"], "count")
    out["emo.tchebycheff.calls"] = metric(tracer.counts["emo.tchebycheff.calls"], "count")
    out["emo.dominates.calls"] = metric(tracer.counts["emo.dominates.calls"], "count")
    trials = sum(stats.trials for stats in tracer.ssc_stats.values())
    accepted = sum(stats.accepted for stats in tracer.ssc_stats.values())
    out["semantic_emo.ssc.trials"] = metric(trials, "count")
    out["semantic_emo.ssc.accepted"] = metric(accepted, "count")
    out["semantic_emo.ssc.accept_ratio"] = metric(accepted / trials if trials else 0.0, "ratio")
    out["results.save_run.bytes"] = metric(traced.bytes_written, "B")
    out["harness.test_eval_s"] = metric(total_s.get("harness.attach_test_metrics", 0.0), "s")
    module_self = {module: 0.0 for module in tracing.MODULES}
    for name, seconds in self_s.items():
        module_self[name.split(".", 1)[0]] += seconds
    for module, seconds in module_self.items():
        out[f"{module}.self_s"] = metric(seconds, "s")
    out["trace.wall_s"] = metric(traced.wall_s, "s")
    out["trace.unattributed_s"] = metric(traced.wall_s - sum(module_self.values()), "s")
    # In reference seconds, so that the host's drift between the passes
    # does not read as tracing cost.
    out["trace.overhead_frac"] = metric(traced.pass_s / untraced.pass_s - 1.0, "ratio")
    return out


def enter_workdir(name: str) -> str:
    """Make WORK/name afresh and change into it; return the previous cwd.

    Working there with relative paths keeps the dataset path echoed into
    every result file, and with it result_digest, the same in every run
    and every checkout.
    """
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    previous = os.getcwd()
    os.chdir(work)
    return previous


def leave_workdir(name: str, previous: str) -> None:
    os.chdir(previous)
    shutil.rmtree(WORK / name, ignore_errors=True)


def run_workload(workload: Workload, seed: int, seconds: int, trace: bool) -> tuple[dict, bool]:
    inputs = replicate_inputs(workload, seed)
    previous = enter_workdir(workload.name)
    try:
        mods, csv_paths = set_up(workload, inputs)
        if trace:
            metrics, attempted, failed, info = per_layer(workload, mods, inputs, csv_paths)
        else:
            metrics, attempted, failed, info = end_to_end(workload, mods, inputs, csv_paths, seconds, seed)
    finally:
        leave_workdir(workload.name, previous)
    print(
        f"workload {workload.name} seed {seed}: {len(workload.pairs)} pairs x {workload.replicates} replicates,"
        f" {workload.n_cases} cases, pop {workload.pop_size}, {workload.generations} generations"
    )
    for name, entry in metrics.items():
        print(f"  {name:<44} {entry['value']:>16.6g} {entry['unit']}")
    for key, value in info.items():
        print(f"  {key}: {value}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, failed == 0


def setup_only(workload: Workload, seed: int) -> int:
    """The child of measure_setup: set up, print CLOCK_MONOTONIC and a host speed sample, exit."""
    name = f"{workload.name}.setup"
    previous = enter_workdir(name)
    try:
        set_up(workload, replicate_inputs(workload, seed))
        done = time.clock_gettime(time.CLOCK_MONOTONIC)
        speed = hostspeed.sample()
    finally:
        leave_workdir(name, previous)
    print(f"{done!r} {speed!r}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "semogp" / "__init__.py").is_file():
        print(f"semogp sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        return setup_only(WORKLOADS[args.workload], args.seed)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    try:
        for name in names:
            result, passed = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
            ok &= passed
            print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
