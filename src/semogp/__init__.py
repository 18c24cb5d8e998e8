"""Semantic operators for multi-objective genetic programming.

Evolves arithmetic classifier programs on imbalanced binary data under two
conflicting class-accuracy objectives, with optional semantic mechanisms
(gated crossover, semantic crowding, a semantic third criterion) plugged
into NSGA-II, SPEA2, or MOEA/D.
"""

from .dataset import (
    Dataset,
    DatasetError,
    load_csv,
    stratified_split,
    synthetic_blobs,
    write_synthetic_csv,
)
from .emo import (
    EngineParams,
    MoeadEngine,
    Nsga2Engine,
    Spea2Engine,
    crowding_distance,
    dominates,
    fast_nondominated_sort,
    moead_replacements,
    spea2_fitness,
    spea2_truncate,
    tchebycheff,
)
from .gp_core import (
    GPParams,
    Individual,
    PrimitiveSet,
    Variation,
    evaluate_semantics,
    node_count,
    parse_prefix,
    ramped_half_and_half,
    subtree_crossover,
    subtree_mutation,
    to_prefix,
    tree_depth,
)
from .harness import ExperimentConfig, expand_grid, load_results, run_experiment, summarize
from .metrics import HV_REFERENCE, GenerationStats, hypervolume_2d, size_stats, unique_solutions
from .objectives import (
    CLASSIFICATION_THRESHOLD,
    ClassificationEvaluator,
    ConfusionCounts,
    classify,
    confusion,
    objective_vector,
)
from .results import FrontMember, RunResult, load_run, save_run
from .semantic_emo import (
    SemanticConfig,
    SscCounters,
    run_variant,
    scd_assign,
    sdo_extend,
    select_front_pivot,
    ssc_crossover,
)
from .semantics import (
    Pivot,
    SimilarityBounds,
    select_pivot,
    ssc_distance,
)

__version__ = "0.1.0"
