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
import numbers
import os
import tempfile
import types
import typing
from collections import Counter
from dataclasses import MISSING, dataclass, field, fields
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


def _matches(value, hint) -> bool:
    """Whether value has the declared type; ints count as floats, bools as neither, lists as tuples."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType:
        return any(_matches(value, arg) for arg in args)
    if origin is list:
        return isinstance(value, (list, tuple)) and all(_matches(v, args[0]) for v in value)
    if origin is tuple:
        return isinstance(value, (list, tuple)) and len(value) == len(args) and all(map(_matches, value, args))
    if hint in (int, float):
        kind = numbers.Integral if hint is int else numbers.Real
        return isinstance(value, kind) and not isinstance(value, bool)
    return isinstance(value, hint)


def check_type(name: str, value, hint):
    """Raise ValueError naming name unless value has the declared type (see _matches)."""
    if not _matches(value, hint):
        shown = hint.__name__ if isinstance(hint, type) else hint
        raise ValueError(f"{name} must be of type {shown}, got {value!r}")


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
# type; the wall time is kept in memory only; the rest goes to the JSON,
# where the front is a list of objects, each checked as a front member.
_COLUMNS = typing.get_type_hints(GenerationStats)
_JSON_TYPES = typing.get_type_hints(RunResult) | {"front": list}
del _JSON_TYPES["generations"], _JSON_TYPES["wall_time_s"]
_MEMBER_TYPES = typing.get_type_hints(FrontMember)
_REQUIRED_MEMBER_KEYS = {f.name for f in fields(FrontMember) if f.default is MISSING}


def read_json(path):
    """The JSON value a file holds; a file that does not decode or parse raises
    ValueError naming it."""
    try:
        return json.loads(Path(path).read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read {path} as JSON: {exc}") from None


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
            existing = read_json(json_path)
        except ValueError:
            existing = None
        if not isinstance(existing, dict) or "config" not in existing:
            raise ValueError(f"{json_path} holds no run result; use another output directory")
        # Compared as JSON text, so the loaded copy and the one in memory agree.
        if json.dumps(existing["config"], sort_keys=True) != json.dumps(result.config, sort_keys=True):
            raise ValueError(f"{json_path} holds a run of another configuration; use another output directory")

    # Read field by field: asdict would deep-copy every generation row only to drop it.
    payload = {key: getattr(result, key) for key in _JSON_TYPES}
    payload["front"] = [{f.name: getattr(member, f.name) for f in fields(FrontMember)} for member in result.front]
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
    try:
        with open(csv_path, newline="") as handle:
            lines = handle.readlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"cannot decode {csv_path}: {exc}") from None
    reader = csv.reader(lines)
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


def _checked(json_path: Path, where: str, item, types: dict, required) -> dict:
    """item, once it is a JSON object with every required key, no key that
    types does not name and each value of its type; else a ValueError
    naming the file, where in it and the key."""
    keys = set(item) if isinstance(item, dict) else set()
    missing, unknown = sorted(required - keys), sorted(keys - types.keys())
    message = f"{json_path} is not a run result{where}"
    if missing or unknown:
        raise ValueError(f"{message}: missing keys {missing}, unknown keys {unknown}")
    for key, value in item.items():
        check_type(f"{message}: key {key}", value, types[key])
    return item


def load_run(json_path) -> RunResult:
    """Rebuild a RunResult from its JSON file and sibling CSV file, held to RunResult.validate."""
    json_path = Path(json_path)
    payload = _checked(json_path, "", read_json(json_path), _JSON_TYPES, _JSON_TYPES.keys())
    front = []
    for index, item in enumerate(payload.pop("front")):
        where = f": front entry {index} is not a front member"
        item = _checked(json_path, where, item, _MEMBER_TYPES, _REQUIRED_MEMBER_KEYS)
        front.append(FrontMember(**{key: tuple(v) if isinstance(v, list) else v for key, v in item.items()}))
    result = RunResult(**payload, front=front, generations=_load_generations(json_path.with_suffix(".csv")))
    try:
        result.validate()
    except ValueError as exc:
        raise ValueError(f"{json_path} is not a run result: {exc}") from None
    return result
