"""Run result containers with deterministic JSON/CSV persistence.

Each run produces one JSON file (configuration echo plus the final front)
and one CSV file of per-generation statistics. Serialization is canonical:
sorted keys, repr-rounded floats, atomic replace on write. Wall time is
kept on the in-memory result only, so files for the same configuration and
seed are byte-identical across runs.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from .metrics import GenerationStats

GEN_STATS_COLUMNS = ("generation", "hypervolume", "unique_count", "mean_nodes", "front_size")


@dataclass
class FrontMember:
    """One final-front solution: program text, objectives, size."""

    program: str
    objectives: tuple[float, float]
    nodes: int
    test_objectives: tuple[float, float] | None = None


@dataclass
class RunResult:
    """Everything recorded for a single seeded run."""

    engine: str
    approach: str
    seed: int
    config: dict
    front: list[FrontMember]
    generations: list[GenerationStats]
    wall_time_s: float | None = field(default=None, compare=False)

    def validate(self):
        if not self.front:
            raise ValueError("a run must report at least one front member")
        if not self.generations:
            raise ValueError("a run must report at least one generation row")
        for row in self.generations:
            if row.unique_count > row.front_size:
                raise ValueError("unique_count cannot exceed front_size")


def run_file_stem(result: RunResult) -> str:
    cfg = result.config
    return (
        f"{result.engine}_{result.approach}"
        f"_lb{cfg.get('lbss')}_ub{cfg.get('ubss')}_{cfg.get('distance_rule')}"
        f"_seed{result.seed}"
    )


def _atomic_write(path: Path, text: str):
    handle = tempfile.NamedTemporaryFile(
        "w", dir=path.parent, prefix=path.name + ".", suffix=".tmp", delete=False
    )
    try:
        handle.write(text)
        handle.close()
        os.replace(handle.name, path)
    except BaseException:
        handle.close()
        if os.path.exists(handle.name):
            os.unlink(handle.name)
        raise


def save_run(result: RunResult, directory) -> tuple[Path, Path]:
    """Write the JSON and CSV files for one run; returns their paths.

    Files of the same configuration and seed are replaced. A file name
    already used by a run of another configuration raises ValueError: the
    name covers only the engine, approach, bounds, rule and seed.
    """
    result.validate()
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    stem = run_file_stem(result)
    json_path = directory / f"{stem}.json"
    csv_path = directory / f"{stem}.csv"
    if json_path.exists():
        with open(json_path) as handle:
            existing = json.load(handle).get("config")
        # Compared as JSON text, so the loaded copy and the one in memory agree.
        if json.dumps(existing, sort_keys=True) != json.dumps(result.config, sort_keys=True):
            raise ValueError(f"{json_path} holds a run of another configuration; use another output directory")

    payload = {
        "engine": result.engine,
        "approach": result.approach,
        "seed": result.seed,
        "config": result.config,
        "front": [
            {
                "program": m.program,
                "objectives": [float(x) for x in m.objectives],
                "nodes": m.nodes,
                "test_objectives": None
                if m.test_objectives is None
                else [float(x) for x in m.test_objectives],
            }
            for m in result.front
        ],
    }
    _atomic_write(json_path, json.dumps(payload, sort_keys=True, indent=2) + "\n")

    lines = [",".join(GEN_STATS_COLUMNS)]
    for row in result.generations:
        lines.append(
            f"{row.generation},{row.hypervolume!r},{row.unique_count},"
            f"{row.mean_nodes!r},{row.front_size}"
        )
    _atomic_write(csv_path, "\n".join(lines) + "\n")
    return json_path, csv_path


def load_run(json_path) -> RunResult:
    """Rebuild a RunResult from its JSON file and sibling CSV file."""
    json_path = Path(json_path)
    with open(json_path) as handle:
        payload = json.load(handle)
    front = [
        FrontMember(
            program=item["program"],
            objectives=tuple(float(x) for x in item["objectives"]),
            nodes=int(item["nodes"]),
            test_objectives=None
            if item.get("test_objectives") is None
            else tuple(float(x) for x in item["test_objectives"]),
        )
        for item in payload["front"]
    ]
    generations = []
    csv_path = json_path.with_suffix(".csv")
    with open(csv_path, newline="") as handle:
        for row in csv.DictReader(handle):
            generations.append(
                GenerationStats(
                    generation=int(row["generation"]),
                    hypervolume=float(row["hypervolume"]),
                    unique_count=int(row["unique_count"]),
                    mean_nodes=float(row["mean_nodes"]),
                    front_size=int(row["front_size"]),
                )
            )
    return RunResult(
        engine=payload["engine"],
        approach=payload["approach"],
        seed=int(payload["seed"]),
        config=payload["config"],
        front=front,
        generations=generations,
    )
