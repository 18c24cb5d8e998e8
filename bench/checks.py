"""Output checks for benchmark runs and the digest of the files they wrote."""

from __future__ import annotations

import hashlib
from pathlib import Path


def check_runs(mods: dict, runs, csv_path, gp_seed: int, train_fraction: float, out_dir) -> list[str]:
    """Problems found in the results of one run_experiment call.

    Each result must validate; each final-front program must re-parse and
    re-score on the training split to exactly its stored objectives; the
    final hypervolume must equal hypervolume_2d of the front; and the files
    written must load back to an equal result.
    """
    gp_core, objectives, metrics, results = mods["gp_core"], mods["objectives"], mods["metrics"], mods["results"]
    dataset = mods["dataset"]
    problems = []
    if len(runs) != 1:
        return [f"{csv_path}: expected one result, got {len(runs)}"]
    run = runs[0]
    label = f"{run.engine}/{run.approach} seed {gp_seed}"
    try:
        run.validate()
    except ValueError as exc:
        return [f"{label}: {exc}"]
    train, _ = dataset.stratified_split(dataset.load_csv(csv_path), train_fraction, gp_seed)
    threshold = run.config["threshold"]
    for member in run.front:
        tree = gp_core.parse_prefix(member.program)
        semantics = gp_core.evaluate_semantics(tree, train.features)
        counts = objectives.confusion(objectives.classify(semantics, threshold), train.labels)
        rescored = tuple(float(x) for x in objectives.objective_vector(counts))
        if rescored != tuple(member.objectives):
            problems.append(f"{label}: {member.program} scores {rescored}, stored {member.objectives}")
    hv = metrics.hypervolume_2d([m.objectives for m in run.front], metrics.HV_REFERENCE)
    if hv != run.generations[-1].hypervolume:
        problems.append(f"{label}: front hypervolume {hv!r}, reported {run.generations[-1].hypervolume!r}")
    path = Path(out_dir) / f"{results.run_file_stem(run)}.json"
    if not path.is_file() or not path.with_suffix(".csv").is_file():
        problems.append(f"{label}: result files missing")
    elif results.load_run(path) != run:
        problems.append(f"{label}: {path.name} does not load back to the run's result")
    return problems


def digest(directory) -> str:
    """sha256 over every file under directory: relative path, then bytes."""
    directory = Path(directory)
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(path.relative_to(directory).as_posix().encode())
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()
