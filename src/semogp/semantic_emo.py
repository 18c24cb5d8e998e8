"""Semantic mechanisms wired into the engines.

Three approaches modify one mechanism each; build_engine installs each
as a hook, leaving the engine loops untouched:

* ssc  - crossover points are redrawn until the exchanged subtrees' mean
         absolute semantic difference falls inside the similarity bounds.
* scd  - the engine's diversity estimate (NSGA-II crowding, SPEA2 density)
         is replaced by each member's case-count distance to a pivot chosen
         from the sparsest region of the current first front; MOEA/D has
         no crowding for it to replace.
* sdo  - that same pivot distance, negated and normalized, is appended as a
         third minimization objective and selection runs on three entries.

Reported fronts always carry the plain two-entry objective vectors.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from .dataset import Dataset
from .emo import (
    MoeadEngine,
    Nsga2Engine,
    Spea2Engine,
    crowding_distance,
    fast_nondominated_sort,
)
from .gp_core import (
    GPParams,
    Individual,
    Path,
    Population,
    PrimitiveSet,
    SemanticsMemo,
    Variation,
    draw_exchange,
    evaluate_semantics,
    node_count,
    to_prefix,
)
from .metrics import HV_REFERENCE, GenerationStats, hypervolume_2d, unique_solutions
from .objectives import CLASSIFICATION_THRESHOLD, ClassificationEvaluator
from .results import FrontMember, RunResult
from .semantics import APPROACHES, Pivot, SemanticConfig, count_distances, select_pivot, ssc_distance

# Candidate point pairs ssc_crossover draws before it falls back.
SSC_MAX_TRIALS = 4


@dataclass
class SscCounters:
    """Tally of gated-crossover activity; the benchmark reads its trials and acceptances."""

    calls: int = 0
    trials: int = 0
    accepted: int = 0


def ssc_crossover(
    p1: Individual,
    p2: Individual,
    cfg: SemanticConfig,
    rng: random.Random,
    max_depth: int,
    memo: SemanticsMemo,
    stats: SscCounters,  # bench/tracing.py reads stats as positional argument 6
) -> tuple[Path, Path] | None:
    """Where two parents exchange subtrees, gated on the subtrees' similarity.

    Candidate exchanges are drawn through draw_exchange, up to
    SSC_MAX_TRIALS times, each trial scoring both subtrees; a trial is
    accepted when the mean absolute difference between the two selected
    subtrees' outputs lies in [lbss, ubss] and both offspring would respect
    max_depth. Its points are returned; if no trial qualifies, the final
    trial's (or None, keeping the parents, if those offspring would be too
    deep). It builds no offspring: as Variation's hook, it only decides.

    Subtrees are scored on memo.features through memo; build_engine passes
    its evaluator's, so subtrees of parents it has just scored are looked
    up. A parent's semantics, when not None, must be
    evaluate_semantics(parent.tree, memo.features): a pick that is a
    parent's whole tree, or holds a parent's root, reads them (see
    SemanticsMemo.scored) instead of walking that tree again.
    """
    stats.calls += 1
    features = memo.features
    with memo.scored((p1, p2)):
        for _ in range(SSC_MAX_TRIALS):
            stats.trials += 1
            point1, point2, sub1, sub2, fits = draw_exchange(p1.tree, p2.tree, rng, max_depth)
            distance = ssc_distance(
                evaluate_semantics(sub1, features, memo), evaluate_semantics(sub2, features, memo)
            )
            if fits and cfg.lbss <= distance <= cfg.ubss:
                stats.accepted += 1
                return point1, point2
    return (point1, point2) if fits else None


def _require_semantics(members: Population):
    for ind in members:
        if ind.semantics is None:
            raise ValueError("members must carry cached semantics")


def scd_assign(members: Population, pivot: Pivot, cfg: SemanticConfig) -> np.ndarray:
    """Crowding surrogate: each member's case-count distance to the pivot.

    Larger values play the role of larger crowding distances, so members
    whose behaviour relates to the pivot on many cases are preferred by the
    engines' diversity mechanisms.
    """
    members = list(members)
    if not members:
        raise ValueError("members must be non-empty")
    _require_semantics(members)
    rows = [ind.semantics for ind in members]
    return count_distances(rows, pivot.semantics, cfg)


def sdo_extend(members: Population, pivot: Pivot, cfg: SemanticConfig) -> np.ndarray:
    """Objective matrix extended with a third entry -d/l per member.

    d is the member's case-count distance to the pivot and l the number of
    cases, so minimizing the third entry maximizes the count. The first two
    columns are the members' objective vectors, bitwise unchanged.
    """
    members = list(members)
    counts = scd_assign(members, pivot, cfg)
    base = np.stack([ind.objectives for ind in members])
    if base.shape[1] != 2:
        raise ValueError("expected 2-entry objective vectors to extend")
    third = -counts / pivot.semantics.size
    return np.column_stack([base, third])


def _front_pivot(members: Population, front: list[int], objs: np.ndarray, rng: random.Random) -> Pivot:
    """Pivot from the sparsest region of one front.

    front indexes both members and the rows of objs, on which crowding is
    measured; the returned source_index refers to members.
    """
    crowd = crowding_distance(objs[front])
    picked = select_pivot([members[i].semantics for i in front], crowd, rng)
    return Pivot(picked.semantics, front[picked.source_index])


def select_front_pivot(members: Population, rng: random.Random) -> Pivot:
    """Pivot from the sparsest region of the pool's first front.

    The first front and its crowding distances are computed on the plain
    two-entry objective vectors; the returned source_index refers to the
    full member list.
    """
    members = list(members)
    _require_semantics(members)
    base = np.stack([ind.objectives for ind in members])
    return _front_pivot(members, fast_nondominated_sort(base)[0], base, rng)


class SdoObjectives:
    """Selection space of (objective 1, objective 2, -pivot distance / l).

    refresh re-selects the pivot from the pool's current first front and
    extends every member; vector extends a single later individual against
    that same pivot.
    """

    n_objectives = 3

    def __init__(self, cfg: SemanticConfig):
        self.cfg = cfg
        self.pivot: Pivot | None = None

    def refresh(self, members: Population, rng: random.Random) -> np.ndarray:
        self.pivot = select_front_pivot(members, rng)
        return sdo_extend(members, self.pivot, self.cfg)

    def vector(self, ind: Individual) -> np.ndarray:
        if self.pivot is None:
            raise ValueError("refresh must run before extending single members")
        counts = count_distances([ind.semantics], self.pivot.semantics, self.cfg)
        third = -float(counts[0]) / self.pivot.semantics.size
        return np.append(ind.objectives, third)


@dataclass
class ScdCrowding:
    """NSGA-II crowding policy: pivot distance counts for the whole pool."""

    cfg: SemanticConfig

    def __call__(self, members, fronts, objs, rng):
        return scd_assign(members, _front_pivot(members, fronts[0], objs, rng), self.cfg)


@dataclass
class ScdDensity:
    """SPEA2 density replacement: 1 / (pivot distance count + 2).

    Mirrors the canonical 1 / (sigma_k + 2) shape so values stay below the
    dominance granularity of the raw fitness.
    """

    cfg: SemanticConfig

    def __call__(self, members, objs, raw, rng):
        front = [i for i in range(len(members)) if raw[i] == 0]
        counts = scd_assign(members, _front_pivot(members, front, objs, rng), self.cfg)
        return 1.0 / (counts + 2.0)


@dataclass
class ScdArchiveRank:
    """MOEA/D archive ordering by pivot distance counts (larger kept); unused,
    as MoeadEngine takes no diversity hook, but bench/tracing.py names it."""

    cfg: SemanticConfig

    def __call__(self, members, objs, rng):
        pivot = _front_pivot(members, list(range(len(members))), objs, rng)
        return scd_assign(members, pivot, self.cfg)


def _generation_stats(generation: int, front: Population) -> GenerationStats:
    objs = [ind.objectives for ind in front]
    return GenerationStats(
        generation=generation,
        hypervolume=hypervolume_2d(objs, HV_REFERENCE),
        unique_count=unique_solutions(front),
        mean_nodes=statistics.fmean(node_count(ind.tree) for ind in front),
        front_size=len(front),
    )


# Each engine and the scd hook that replaces its diversity estimate, if any.
_ENGINES = {
    "nsga2": (Nsga2Engine, ScdCrowding),
    "spea2": (Spea2Engine, ScdDensity),
    "moead": (MoeadEngine, None),
}
ENGINES = tuple(_ENGINES)
# The engine x approach pairs that run: every approach on every engine but
# scd where the engine has no scd hook. The paper's 11, engine by engine.
PAIRS = tuple((e, a) for e, (_, scd) in _ENGINES.items() for a in APPROACHES if a != "scd" or scd is not None)


def check_engine(engine: str, cfg: SemanticConfig):
    """Reject an unknown engine, and a pair not in PAIRS (scd on an engine with no scd hook)."""
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    if (engine, cfg.approach) not in PAIRS:
        raise ValueError(f"scd replaces a crowding mechanism {engine} does not have")


def build_engine(
    engine: str,
    cfg: SemanticConfig,
    evaluator: ClassificationEvaluator,
    variation: Variation,
    rng: random.Random,
):
    """Assemble an engine with the approach's hook installed (ssc's on a copy of variation)."""
    check_engine(engine, cfg)
    engine_cls, scd_cls = _ENGINES[engine]
    space = SdoObjectives(cfg) if cfg.approach == "sdo" else None
    diversity = scd_cls(cfg) if cfg.approach == "scd" else None
    if cfg.approach == "ssc":
        memo, max_depth, stats = evaluator.memo, variation.params.max_depth, SscCounters()
        variation = replace(
            variation,
            crossover=lambda a, b, r: ssc_crossover(a, b, cfg, r, max_depth, memo, stats),
        )
    return engine_cls(evaluator, variation, rng, space, diversity)


def run_variant(
    engine: str,
    cfg: SemanticConfig,
    dataset: Dataset,
    gp: GPParams = GPParams(),
    *,
    seed: int = 0,
) -> RunResult:
    """Run one engine/approach combination on a dataset for one seed.

    Records one GenerationStats row per generation, starting with the
    initial population (generation 0), each describing the first front in
    the plain two-objective space. The returned final front is that first
    front, sorted by objectives then program text.

    The config echo names every setting that shaped the run as
    ExperimentConfig does (engine, the SemanticConfig and GPParams fields),
    plus the fixed CLASSIFICATION_THRESHOLD and its seed. run_experiment
    stores its config file's echo (ExperimentConfig.echo) in its place.
    """
    rng = random.Random(seed)
    evaluator = ClassificationEvaluator(dataset)
    variation = Variation(PrimitiveSet(dataset.n_features), gp)
    eng = build_engine(engine, cfg, evaluator, variation, rng)

    start = time.perf_counter()
    eng.initialize()
    front = eng.front()
    stats = [_generation_stats(0, front)]
    for generation in range(1, gp.generations):
        eng.step()
        front = eng.front()
        stats.append(_generation_stats(generation, front))
    wall = time.perf_counter() - start

    members = [
        FrontMember(
            program=to_prefix(ind.tree),
            objectives=(float(ind.objectives[0]), float(ind.objectives[1])),
            nodes=node_count(ind.tree),
        )
        for ind in front
    ]
    members.sort(key=lambda member: (member.objectives, member.program))
    result = RunResult(
        engine=engine,
        approach=cfg.approach,
        seed=seed,
        config={"engine": engine, **asdict(cfg), **asdict(gp), "threshold": CLASSIFICATION_THRESHOLD, "seed": seed},
        front=members,
        generations=stats,
        wall_time_s=wall,
    )
    result.validate()
    return result
