"""Reading results back: load a directory of run files and summarize it.

harness writes the files, through results.save_run; this module only reads them.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from itertools import permutations
from pathlib import Path

from .metrics import HV_REFERENCE, hypervolume_2d
from .results import RunResult, load_run


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
