"""Experiment driver: configuration, seeded runs, persistence, summaries.

A JSON configuration names a dataset and the runs to make on it: the
engine, the approach and the similarity bounds may each be a list, and
expand_grid crosses them into a grid of single-valued points, keeping only
the engine x approach pairs of semantic_emo.PAIRS. Every grid point and
seed becomes one fully deterministic run: the seed drives
the train/test split and the evolution, results are written atomically,
and re-running the same configuration and seed reproduces the files byte
for byte.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import multiprocessing
import statistics
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, make_dataclass, replace
from itertools import permutations, product
from pathlib import Path

from .dataset import Dataset, load_csv, minmax_apply, minmax_fit, stratified_split
from .gp_core import GPParams, parse_prefix
from .metrics import HV_REFERENCE, hypervolume_2d
from .objectives import CLASSIFICATION_THRESHOLD, ClassificationEvaluator
from .results import RunResult, check_type, load_run, save_run
from .semantic_emo import ENGINES, PAIRS, check_engine, run_variant
from .semantics import APPROACHES, SemanticConfig


# Every GP and semantic setting, flat: named, typed and defaulted by its param class.
_Settings = make_dataclass(
    "_Settings",
    [(f.name, f.type, field(default=f.default)) for cls in (SemanticConfig, GPParams) for f in fields(cls)],
    kw_only=True,
)


# The keys that may hold a list of values, one grid axis each, in expand_grid's order.
GRID_KEYS = ("engine", "approach", "lbss", "ubss")


@dataclass(kw_only=True)
class ExperimentConfig(_Settings):
    """Everything needed to reproduce a batch of runs.

    Besides the run-level fields below it carries every GPParams and
    SemanticConfig setting under its own name; those classes check them.
    Each GRID_KEYS key may be a single value or a list; expand_grid turns
    lists into the cross-product of single-valued configurations.
    """

    dataset: str
    label_column: int = -1
    positive_label: str | None = None
    engine: str = "nsga2"
    train_fraction: float = 0.7
    scale_features: bool = False
    seeds: list[int] = field(default_factory=lambda: [0])
    output_dir: str = "results"
    n_workers: int = 1

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as handle:
            raw = json.load(handle)
        if not isinstance(raw, dict):
            raise ValueError(f"{path} must hold a JSON object of config keys, got {type(raw).__name__}")
        known = {f.name for f in cls.__dataclass_fields__.values()}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "dataset" not in raw:
            raise ValueError("config must name a dataset file")
        cfg = cls(**raw)
        cfg._check_types()
        return cfg

    def _check_types(self):
        """Check each value against the type its class declares for the key, or a list of it
        for a GRID_KEYS key; lbss and ubss may also be strings that float() parses ("inf")."""
        for name, hint in typing.get_type_hints(type(self)).items():
            if name in GRID_KEYS:
                single = hint | str if name in ("lbss", "ubss") else hint
                hint = single | list[single]
            check_type(name, getattr(self, name), hint)

    def validate(self):
        """Check every setting of a single-valued configuration, reading no file."""
        self._check_types()
        for name in GRID_KEYS:
            if isinstance(getattr(self, name), (list, tuple)):
                raise ValueError(f"{name} holds a grid list; validate each point expand_grid makes of it")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie strictly between 0 and 1")
        if not self.seeds:
            raise ValueError("seeds must be non-empty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must be distinct")
        if self.n_workers < 1:
            raise ValueError("n_workers must be at least 1")
        self.gp_params()
        check_engine(self.engine, self.semantic_config())

    def _params(self, cls, **given):
        values = {f.name: getattr(self, f.name) for f in fields(cls) if f.name not in given}
        return cls(**values, **given)

    def gp_params(self) -> GPParams:
        return self._params(GPParams)

    def semantic_config(self) -> SemanticConfig:
        return self._params(SemanticConfig, lbss=_bound("lbss", self.lbss), ubss=_bound("ubss", self.ubss))

    def echo(self, seed: int) -> dict:
        """Config record stored with each run, sufficient to re-run it.

        Every field, with lbss and ubss as the floats semantic_config()
        parsed and seeds as [seed], plus the fixed CLASSIFICATION_THRESHOLD
        that scored the run. Operational knobs that cannot change the
        computed results (output_dir, n_workers) are excluded so files for
        the same configuration and seed stay byte-identical wherever and
        however they were produced.
        """
        payload = asdict(self) | asdict(self.semantic_config())
        payload |= {"threshold": CLASSIFICATION_THRESHOLD, "seeds": [seed]}
        return {k: v for k, v in payload.items() if k not in ("output_dir", "n_workers")}


def _bound(name: str, value) -> float:
    """One similarity bound as a float; a value float() cannot parse names its key."""
    try:
        return float(value)
    except ValueError:
        message = f"{name} must be a number or a numeric string such as 'inf'"
        raise ValueError(f"{message}, got {value!r}") from None


def expand_grid(cfg: ExperimentConfig) -> list[ExperimentConfig]:
    """The cross-product of the GRID_KEYS values, as single-valued configs.

    A list must be non-empty and repeat no value (bounds compared as the
    floats _bound parses). Points come in product order over GRID_KEYS:
    engine, approach, lbss, then ubss. A point whose engine and approach
    are both known but not a pair of PAIRS (scd on moead) is left out; if
    none is left, all are returned, for validate to reject with
    check_engine's message. Canonical reads no bound but still runs at
    every bound point, so that each (engine, lbss, ubss) cell summarize
    compares within holds a canonical row.
    """
    cfg._check_types()
    axes = []
    for name in GRID_KEYS:
        value = getattr(cfg, name)
        entries = value if isinstance(value, (list, tuple)) else [value]
        if not entries:
            raise ValueError(f"{name} must be a non-empty list")
        if name in ("lbss", "ubss"):
            entries = [_bound(name, entry) for entry in entries]
        if len(set(entries)) != len(entries):
            raise ValueError(f"{name} must not repeat a value, got {value!r}")
        axes.append(entries)
    points = [replace(cfg, **dict(zip(GRID_KEYS, values))) for values in product(*axes)]
    unpaired = set(product(ENGINES, APPROACHES)) - set(PAIRS)
    return [p for p in points if (p.engine, p.approach) not in unpaired] or points


def _attach_test_metrics(result: RunResult, test_ds):
    # Programs round-trip exactly through their prefix text, so each
    # distinct text is scored once and its repeats share the objectives.
    evaluator = ClassificationEvaluator(test_ds)
    scores: dict[str, tuple[float, ...]] = {}
    for member in result.front:
        if member.program not in scores:
            scored = evaluator.evaluate_tree(parse_prefix(member.program))
            scores[member.program] = tuple(float(x) for x in scored.objectives)
        member.test_objectives = scores[member.program]


@functools.lru_cache(maxsize=1)
def _seed_split(full: Dataset, train_fraction: float, seed: int, scale_features: bool) -> tuple[Dataset, Dataset]:
    """One seed's train and test Datasets, min-max scaled by train's ranges if scale_features.

    The last split is kept: a call with the same Dataset object (a Dataset
    hashes by identity), fraction, seed and scale_features returns the same
    (immutable) Datasets, so the runs on one seed share one training
    Dataset. A failed split is not kept.
    """
    train, test = stratified_split(full, train_fraction, seed)
    if scale_features:
        mins, maxs = minmax_fit(train)
        train, test = minmax_apply(train, mins, maxs), minmax_apply(test, mins, maxs)
    return train, test


def _run_seed(cfg: ExperimentConfig, full: Dataset, seed: int) -> RunResult:
    """Split, evolve and score on the held-out split: one seed's whole run."""
    train, test = _seed_split(full, cfg.train_fraction, seed, cfg.scale_features)
    result = run_variant(
        cfg.engine,
        cfg.semantic_config(),
        train,
        cfg.gp_params(),
        seed=seed,
    )
    result.config = cfg.echo(seed)
    _attach_test_metrics(result, test)
    return result


# A pool worker's full Dataset: unpickled once, when the worker starts, so
# that all its runs hand _seed_split (and so emo._scored_population) one
# Dataset, which both key on.
_worker_dataset: Dataset | None = None


def _hold_dataset(full: Dataset):
    global _worker_dataset
    _worker_dataset = full


def _run_in_worker(cfg: ExperimentConfig, seed: int) -> RunResult:
    return _run_seed(cfg, _worker_dataset, seed)


def run_experiment(cfg: ExperimentConfig) -> list[RunResult]:
    """Run every grid point and seed of a configuration and persist results.

    Every grid point is checked before the dataset is read, once. A (grid
    point, seed) pair fully determines its output files: the seed drives
    both the stratified split and the evolution. The headline metrics are
    computed on the training split; each front member also carries its
    objectives on the held-out split.

    The runs go seed by seed, each seed's grid points (every engine x
    approach pair and bound point of it) one after another, so that they
    share the seed's split and initial population (see _seed_split and
    emo._scored_population; moead/sdo, with its own population size,
    builds its own). Each run's files are saved
    as soon as the run finishes, in that seed-major order; the results are
    returned point by point and seed by seed. With n_workers > 1, the runs
    share one pool of at most that many worker processes (and at most one
    per run). Each worker receives the dataset once, when it starts, so
    its runs on one seed share that seed's split and initial population
    too. Files are still written here, as each result comes back in run
    order, byte-identical to a sequential run's.
    """
    points = expand_grid(cfg)
    for point in points:
        point.validate()
    full = load_csv(cfg.dataset, cfg.label_column, cfg.positive_label)
    jobs = [(point, seed) for seed in cfg.seeds for point in points]
    n_workers = min(cfg.n_workers, len(jobs))
    pool = None
    if n_workers > 1:
        pool = ProcessPoolExecutor(
            max_workers=n_workers,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_hold_dataset,
            initargs=(full,),
        )
    runs = []
    with pool or contextlib.nullcontext():
        results = pool.map(_run_in_worker, *zip(*jobs)) if pool else (_run_seed(p, full, s) for p, s in jobs)
        for result in results:
            save_run(result, cfg.output_dir)
            runs.append(result)
    # Seed-major: point p's runs are every len(points)-th from index p.
    return [result for p in range(len(points)) for result in runs[p :: len(points)]]


def load_results(directory) -> list[RunResult]:
    """Load every run result found in a directory, sorted by file name."""
    directory = Path(directory)
    paths = sorted(directory.glob("*.json"))
    if not paths:
        raise ValueError(f"no result files in {directory}")
    return [load_run(path) for path in paths]


@dataclass(frozen=True, order=True)
class ConfigKey:
    engine: str
    approach: str
    lbss: float
    ubss: float
    distance_rule: str


@dataclass
class ConfigSummary:
    key: ConfigKey
    n_runs: int
    metrics: dict[str, dict[str, float]]


@dataclass
class Summary:
    configs: list[ConfigSummary]
    unique_ratios: list[dict]


def _config_key(result: RunResult) -> ConfigKey:
    cfg = result.config
    return ConfigKey(
        engine=result.engine,
        approach=result.approach,
        lbss=float(cfg.get("lbss", math.nan)),
        ubss=float(cfg.get("ubss", math.nan)),
        distance_rule=str(cfg.get("distance_rule", "band")),
    )


def _settings(result: RunResult) -> dict:
    """A run's config without its seed: what the runs of one group share."""
    return {k: v for k, v in result.config.items() if k not in ("seed", "seeds")}


def _test_hypervolume(result: RunResult) -> float | None:
    """Hypervolume of the final front on the held-out split, if it was scored."""
    points = [member.test_objectives for member in result.front]
    if any(point is None for point in points):
        return None
    return hypervolume_2d(points, HV_REFERENCE)


def summarize(results) -> Summary:
    """Aggregate final-generation metrics per configuration.

    test_hypervolume covers only the runs whose front members all carry
    held-out objectives, and is absent when no run of a configuration does.

    Runs grouped under one ConfigKey must agree on every other config key
    but the seed; otherwise a ValueError names the keys they differ in.

    Also builds the pairwise table of median unique-solution counts between
    approaches, compared only within one (engine, lbss, ubss, distance_rule)
    cell: each row names its cell and reports median(a) / median(b).
    """
    results = list(results)
    if not results:
        raise ValueError("no results to summarize")
    groups: dict[ConfigKey, list[RunResult]] = {}
    for result in results:
        groups.setdefault(_config_key(result), []).append(result)
    for key, group in groups.items():
        first = _settings(group[0])
        for other in map(_settings, group[1:]):
            differing = sorted(k for k in first.keys() | other.keys() if first.get(k) != other.get(k))
            if differing:
                raise ValueError(f"runs grouped as {key} differ in config keys {differing}")

    configs = []
    for key in sorted(groups):
        rows = [r.generations[-1] for r in groups[key]]
        test_hvs = [hv for hv in map(_test_hypervolume, groups[key]) if hv is not None]
        metrics = {}
        for name, values in (
            ("hypervolume", [row.hypervolume for row in rows]),
            ("test_hypervolume", test_hvs),
            ("unique_count", [float(row.unique_count) for row in rows]),
            ("mean_nodes", [row.mean_nodes for row in rows]),
        ):
            if not values:
                continue
            metrics[name] = {
                "mean": statistics.fmean(values),
                "median": statistics.median(values),
                "min": min(values),
                "max": max(values),
            }
        configs.append(ConfigSummary(key=key, n_runs=len(groups[key]), metrics=metrics))

    # One cell per (engine, lbss, ubss, distance_rule): median unique counts by approach.
    cells: dict[tuple, dict[str, float]] = {}
    for cs in configs:
        key = cs.key
        cell = cells.setdefault((key.engine, key.lbss, key.ubss, key.distance_rule), {})
        cell[key.approach] = cs.metrics["unique_count"]["median"]
    ratios = []
    for (engine, lbss, ubss, rule), medians in sorted(cells.items()):
        for a, b in permutations(medians, 2):
            ratios.append(
                {
                    "engine": engine,
                    "lbss": lbss,
                    "ubss": ubss,
                    "distance_rule": rule,
                    "approach_a": a,
                    "approach_b": b,
                    "ratio": math.inf if medians[b] == 0 else medians[a] / medians[b],
                }
            )
    return Summary(configs=configs, unique_ratios=ratios)


def format_summary(summary: Summary) -> str:
    """Plain-text tables for terminal display."""
    lines = []
    header = (
        f"{'engine':<8}{'approach':<11}{'lbss':<9}{'ubss':<9}{'rule':<7}{'runs':<6}"
        f"{'hv med':<10}{'test hv med':<13}{'uniq med':<10}{'nodes med':<10}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for cs in summary.configs:
        key = cs.key
        test_hv = cs.metrics.get("test_hypervolume")
        test_hv_med = "-" if test_hv is None else f"{test_hv['median']:.4f}"
        lines.append(
            f"{key.engine:<8}{key.approach:<11}{key.lbss:<9g}{key.ubss:<9g}"
            f"{key.distance_rule:<7}{cs.n_runs:<6}"
            f"{cs.metrics['hypervolume']['median']:<10.4f}"
            f"{test_hv_med:<13}"
            f"{cs.metrics['unique_count']['median']:<10g}"
            f"{cs.metrics['mean_nodes']['median']:<10.2f}"
        )
    if summary.unique_ratios:
        lines.append("")
        lines.append("median unique-solution ratios (approach A / approach B):")
        for row in summary.unique_ratios:
            lines.append(
                f"  {row['engine']} lbss={row['lbss']:g} ubss={row['ubss']:g} {row['distance_rule']}:"
                f" {row['approach_a']} / {row['approach_b']} = {row['ratio']:.2f}"
            )
    return "\n".join(lines)
