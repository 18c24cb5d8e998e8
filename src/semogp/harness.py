"""Experiment driver: configuration, seeded runs, persistence, summaries.

A JSON configuration names a dataset and one engine/approach combination
(the similarity bounds may be lists, expanded into a grid of runs). Every
seed becomes one fully deterministic run: the seed drives the train/test
split and the evolution, results are written atomically, and re-running the
same configuration and seed reproduces the files byte for byte.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import numbers
import statistics
import types
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, make_dataclass, replace
from itertools import repeat
from pathlib import Path

from .dataset import Dataset, load_csv, minmax_apply, minmax_fit, stratified_split
from .emo import EngineParams
from .gp_core import GPParams, evaluate_semantics, parse_prefix
from .objectives import CLASSIFICATION_THRESHOLD, classify, confusion, objective_vector
from .results import RunResult, load_run, save_run
from .semantic_emo import SemanticConfig, check_engine, run_variant
from .semantics import SimilarityBounds


# Every GP, engine and semantic setting, flat: named, typed and defaulted by
# its param class, with SemanticConfig.bounds as lbss and ubss.
_Settings = make_dataclass(
    "_Settings",
    [
        (f.name, f.type, field(default=f.default))
        for cls in (SemanticConfig, SimilarityBounds, GPParams, EngineParams)
        for f in fields(cls)
        if f.name != "bounds"
    ],
    kw_only=True,
)


# lbss and ubss may also be grid lists, and strings that float() parses ("inf").
_BOUND_HINT = float | str | list[float | str]


def _matches(value, hint) -> bool:
    """Whether value has the declared type; ints count as floats, bools as neither."""
    if typing.get_origin(hint) is types.UnionType:
        return any(_matches(value, arg) for arg in typing.get_args(hint))
    if typing.get_origin(hint) is list:
        (item,) = typing.get_args(hint)
        return isinstance(value, (list, tuple)) and all(_matches(v, item) for v in value)
    if hint in (int, float):
        kind = numbers.Integral if hint is int else numbers.Real
        return isinstance(value, kind) and not isinstance(value, bool)
    return isinstance(value, hint)


@dataclass(kw_only=True)
class ExperimentConfig(_Settings):
    """Everything needed to reproduce a batch of runs.

    Besides the run-level fields below it carries every GPParams,
    EngineParams and SemanticConfig setting under its own name; those
    classes check them. lbss and ubss may be single values or lists;
    expand_grid turns lists into the cross-product of single-valued
    configurations.
    """

    dataset: str
    label_column: int = -1
    positive_label: str | None = None
    engine: str = "nsga2"
    train_fraction: float = 0.7
    scale_features: bool = False
    threshold: float = CLASSIFICATION_THRESHOLD
    seeds: list[int] = field(default_factory=lambda: [0])
    output_dir: str = "results"
    n_workers: int = 1

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as handle:
            raw = json.load(handle)
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
        """Check each value against the type its class declares for the key."""
        for name, hint in typing.get_type_hints(type(self)).items():
            if name in ("lbss", "ubss"):
                hint = _BOUND_HINT
            value = getattr(self, name)
            if not _matches(value, hint):
                shown = hint.__name__ if isinstance(hint, type) else hint
                raise ValueError(f"{name} must be of type {shown}, got {value!r}")

    def validate(self):
        """Check every setting of a single-valued configuration, reading no file."""
        self._check_types()
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie strictly between 0 and 1")
        if not self.seeds:
            raise ValueError("seeds must be non-empty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must be distinct")
        if self.n_workers < 1:
            raise ValueError("n_workers must be at least 1")
        self.gp_params()
        self.engine_params()
        check_engine(self.engine, self.semantic_config())

    def is_grid(self) -> bool:
        return isinstance(self.lbss, (list, tuple)) or isinstance(self.ubss, (list, tuple))

    def bounds(self) -> SimilarityBounds:
        values = {}
        for name in ("lbss", "ubss"):
            value = getattr(self, name)
            try:
                values[name] = float(value)
            except ValueError:
                message = f"{name} must be a number or a numeric string such as 'inf'"
                raise ValueError(f"{message}, got {value!r}") from None
        return SimilarityBounds(**values)

    def _params(self, cls, **given):
        values = {f.name: getattr(self, f.name) for f in fields(cls) if f.name not in given}
        return cls(**values, **given)

    def gp_params(self) -> GPParams:
        return self._params(GPParams)

    def engine_params(self) -> EngineParams:
        return self._params(EngineParams)

    def semantic_config(self) -> SemanticConfig:
        return self._params(SemanticConfig, bounds=self.bounds())

    def echo(self, seed: int) -> dict:
        """Config record stored with each run, sufficient to re-run it.

        Operational knobs that cannot change the computed results
        (output_dir, n_workers) are excluded so files for the same
        configuration and seed stay byte-identical wherever and however
        they were produced.
        """
        payload = asdict(self)
        payload.update(asdict(self.bounds()))
        payload["seeds"] = [seed]
        del payload["output_dir"]
        del payload["n_workers"]
        return payload


def expand_grid(cfg: ExperimentConfig) -> list[ExperimentConfig]:
    """Cross-product of the lbss and ubss lists, as single-valued configs."""
    lbss_values = list(cfg.lbss) if isinstance(cfg.lbss, (list, tuple)) else [cfg.lbss]
    ubss_values = list(cfg.ubss) if isinstance(cfg.ubss, (list, tuple)) else [cfg.ubss]
    if not lbss_values or not ubss_values:
        raise ValueError("lbss/ubss lists must be non-empty")
    return [
        replace(cfg, lbss=float(lb), ubss=float(ub))
        for lb in lbss_values
        for ub in ubss_values
    ]


def _attach_test_metrics(result: RunResult, test_ds, threshold: float):
    # Programs round-trip exactly through their prefix text.
    for member in result.front:
        tree = parse_prefix(member.program)
        semantics = evaluate_semantics(tree, test_ds.features)
        counts = confusion(classify(semantics, threshold), test_ds.labels)
        member.test_objectives = tuple(float(x) for x in objective_vector(counts))


def _run_seed(cfg: ExperimentConfig, full: Dataset, seed: int) -> RunResult:
    """Split, evolve and score on the held-out split: one seed's whole run."""
    train, test = stratified_split(full, cfg.train_fraction, seed)
    if cfg.scale_features:
        mins, maxs = minmax_fit(train)
        train = minmax_apply(train, mins, maxs)
        test = minmax_apply(test, mins, maxs)
    result = run_variant(
        cfg.engine,
        cfg.semantic_config(),
        train,
        cfg.gp_params(),
        cfg.engine_params(),
        seed=seed,
        threshold=cfg.threshold,
        config_echo=cfg.echo(seed),
    )
    _attach_test_metrics(result, test, cfg.threshold)
    return result


def run_experiment(cfg: ExperimentConfig) -> list[RunResult]:
    """Run every seed of a single-valued configuration and persist results.

    Each seed drives both the stratified split and the evolution, so a
    (configuration, seed) pair fully determines its output files. The
    headline metrics are computed on the training split; each front member
    also carries its objectives on the held-out split.

    With n_workers > 1 and several seeds, the seeds run in that many worker
    processes (at most one per seed); files are still written here, in seed
    order, and are byte-identical to a sequential run's.
    """
    if cfg.is_grid():
        raise ValueError("grid configs must be expanded first (expand_grid)")
    cfg.validate()
    full = load_csv(cfg.dataset, cfg.label_column, cfg.positive_label)
    jobs = (repeat(cfg), repeat(full), cfg.seeds)
    n_workers = min(cfg.n_workers, len(cfg.seeds))
    if n_workers == 1:
        return _save_each(map(_run_seed, *jobs), cfg.output_dir)
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=n_workers, mp_context=context) as pool:
        return _save_each(pool.map(_run_seed, *jobs), cfg.output_dir)


def _save_each(runs, output_dir) -> list[RunResult]:
    """Save each result as it arrives, in arrival order."""
    results = []
    for result in runs:
        save_run(result, output_dir)
        results.append(result)
    return results


def load_results(directory) -> list[RunResult]:
    """Load every run result found in a directory, sorted by file name."""
    directory = Path(directory)
    paths = sorted(directory.glob("*.json"))
    if not paths:
        raise ValueError(f"no result files in {directory}")
    return [load_run(path) for path in paths]


@dataclass(frozen=True)
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


def summarize(results) -> Summary:
    """Aggregate final-generation metrics per configuration.

    Also builds the pairwise table of median unique-solution counts between
    approaches, engine by engine: each row reports median(a) / median(b).
    """
    results = list(results)
    if not results:
        raise ValueError("no results to summarize")
    groups: dict[ConfigKey, list[RunResult]] = {}
    for result in results:
        groups.setdefault(_config_key(result), []).append(result)

    configs = []
    for key in sorted(groups, key=lambda k: (k.engine, k.approach, k.lbss, k.ubss, k.distance_rule)):
        rows = [r.generations[-1] for r in groups[key]]
        metrics = {}
        for name, values in (
            ("hypervolume", [row.hypervolume for row in rows]),
            ("unique_count", [float(row.unique_count) for row in rows]),
            ("mean_nodes", [row.mean_nodes for row in rows]),
        ):
            metrics[name] = {
                "mean": statistics.fmean(values),
                "median": statistics.median(values),
                "min": min(values),
                "max": max(values),
            }
        configs.append(ConfigSummary(key=key, n_runs=len(groups[key]), metrics=metrics))

    by_engine_approach: dict[tuple[str, str], list[float]] = {}
    for result in results:
        pair = (result.engine, result.approach)
        by_engine_approach.setdefault(pair, []).append(
            float(result.generations[-1].unique_count)
        )
    medians = {pair: statistics.median(vals) for pair, vals in by_engine_approach.items()}
    ratios = []
    engines = sorted({pair[0] for pair in medians})
    for engine in engines:
        approaches = sorted(pair[1] for pair in medians if pair[0] == engine)
        for a in approaches:
            for b in approaches:
                if a == b:
                    continue
                denom = medians[(engine, b)]
                ratio = math.inf if denom == 0 else medians[(engine, a)] / denom
                ratios.append(
                    {"engine": engine, "approach_a": a, "approach_b": b, "ratio": ratio}
                )
    return Summary(configs=configs, unique_ratios=ratios)


def format_summary(summary: Summary) -> str:
    """Plain-text tables for terminal display."""
    lines = []
    header = (
        f"{'engine':<8}{'approach':<11}{'lbss':<9}{'ubss':<9}{'rule':<7}{'runs':<6}"
        f"{'hv med':<10}{'uniq med':<10}{'nodes med':<10}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for cs in summary.configs:
        key = cs.key
        lines.append(
            f"{key.engine:<8}{key.approach:<11}{key.lbss:<9g}{key.ubss:<9g}"
            f"{key.distance_rule:<7}{cs.n_runs:<6}"
            f"{cs.metrics['hypervolume']['median']:<10.4f}"
            f"{cs.metrics['unique_count']['median']:<10g}"
            f"{cs.metrics['mean_nodes']['median']:<10.2f}"
        )
    if summary.unique_ratios:
        lines.append("")
        lines.append("median unique-solution ratios (approach A / approach B):")
        for row in summary.unique_ratios:
            lines.append(
                f"  {row['engine']}: {row['approach_a']} / {row['approach_b']}"
                f" = {row['ratio']:.2f}"
            )
    return "\n".join(lines)
