"""Run result containers with deterministic JSON/CSV persistence.

Each run produces one JSON file (every RunResult field but the generations
and the wall time) and one CSV file with a column per GenerationStats
field; both layouts follow the record classes. Serialization is canonical:
sorted keys, repr-rounded floats, atomic replace on write. Wall time is
kept on the in-memory result only, so files for the same configuration and
seed are byte-identical across runs.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
import typing
from collections import Counter
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

from .metrics import GenerationStats


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
            row.validate()


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


# The generations go to the CSV, a column per field, cast to its declared
# type; the wall time is kept in memory only; the rest goes to the JSON.
_COLUMNS = typing.get_type_hints(GenerationStats)
_JSON_KEYS = {f.name for f in fields(RunResult)} - {"generations", "wall_time_s"}
_MEMBER_KEYS = {f.name for f in fields(FrontMember)}
_REQUIRED_MEMBER_KEYS = {f.name for f in fields(FrontMember) if f.default is MISSING}


def save_run(result: RunResult, directory) -> tuple[Path, Path]:
    """Write the JSON and CSV files for one run; returns their paths.

    Files of the same configuration and seed are replaced. A file name
    already used by a run of another configuration, or by a file that holds
    no run result, raises ValueError: the name covers only the engine,
    approach, bounds, rule and seed.
    """
    result.validate()
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    stem = run_file_stem(result)
    json_path = directory / f"{stem}.json"
    csv_path = directory / f"{stem}.csv"
    if json_path.exists():
        try:
            existing = json.loads(json_path.read_text())
        except (UnicodeDecodeError, json.JSONDecodeError):
            existing = None
        if not isinstance(existing, dict) or "config" not in existing:
            raise ValueError(f"{json_path} holds no run result; use another output directory")
        # Compared as JSON text, so the loaded copy and the one in memory agree.
        if json.dumps(existing["config"], sort_keys=True) != json.dumps(result.config, sort_keys=True):
            raise ValueError(f"{json_path} holds a run of another configuration; use another output directory")

    payload = {key: value for key, value in asdict(result).items() if key in _JSON_KEYS}
    _atomic_write(json_path, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    # Cast before repr: repr(np.float64(x)) is not repr(float(x)) under numpy 2.
    lines = [",".join(_COLUMNS)] + [
        ",".join(repr(kind(getattr(row, name))) for name, kind in _COLUMNS.items())
        for row in result.generations
    ]
    _atomic_write(csv_path, "\n".join(lines) + "\n")
    return json_path, csv_path


def _load_generations(csv_path: Path) -> list[GenerationStats]:
    """GenerationStats rows of a CSV file, its header naming each field once."""
    with open(csv_path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, [])
        missing = Counter(list(_COLUMNS)) - Counter(header)
        unknown = Counter(header) - Counter(list(_COLUMNS))
        if missing or unknown:
            raise ValueError(
                f"{csv_path} is not a generations file: missing columns {sorted(missing)},"
                f" unknown or repeated columns {sorted(unknown)}"
            )
        generations = []
        for cells in reader:
            if not cells:
                continue
            if len(cells) != len(header):
                raise ValueError(f"{csv_path} line {reader.line_num}: {len(cells)} cells, expected {len(header)}")
            row = {}
            for name, cell in zip(header, cells):
                kind = _COLUMNS[name]
                try:
                    row[name] = kind(cell)
                except ValueError:
                    message = f"{csv_path} line {reader.line_num}, column {name}: {cell!r} is not"
                    raise ValueError(f"{message} of type {kind.__name__}") from None
            generations.append(GenerationStats(**row))
    return generations


def _front_member(json_path: Path, index: int, item) -> FrontMember:
    """One entry of a run file's front; an entry that is no front member names its keys."""
    keys = set(item) if isinstance(item, dict) else set()
    missing, unknown = sorted(_REQUIRED_MEMBER_KEYS - keys), sorted(keys - _MEMBER_KEYS)
    if missing or unknown:
        message = f"{json_path} is not a run result: front entry {index} is not a front member"
        raise ValueError(f"{message}: missing keys {missing}, unknown keys {unknown}")
    return FrontMember(**{key: tuple(v) if isinstance(v, list) else v for key, v in item.items()})


def load_run(json_path) -> RunResult:
    """Rebuild a RunResult from its JSON file and sibling CSV file."""
    json_path = Path(json_path)
    payload = json.loads(json_path.read_text())
    keys = set(payload) if isinstance(payload, dict) else set()
    if keys != _JSON_KEYS:
        missing, unknown = sorted(_JSON_KEYS - keys), sorted(keys - _JSON_KEYS)
        raise ValueError(f"{json_path} is not a run result: missing keys {missing}, unknown keys {unknown}")
    front = payload.pop("front")
    if not isinstance(front, list):
        raise ValueError(f"{json_path} is not a run result: its front is a {type(front).__name__}, not a list")
    front = [_front_member(json_path, index, item) for index, item in enumerate(front)]
    generations = _load_generations(json_path.with_suffix(".csv"))
    return RunResult(**payload, front=front, generations=generations)
