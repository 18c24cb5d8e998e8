"""Semantic operators for multi-objective genetic programming.

Evolves arithmetic classifier programs on imbalanced binary data under two
conflicting class-accuracy objectives, with optional semantic mechanisms
(gated crossover, semantic crowding, a semantic third criterion) plugged
into NSGA-II, SPEA2, or MOEA/D.
"""

from .dataset import Dataset, synthetic_blobs
from .gp_core import GPParams
from .harness import ExperimentConfig, run_experiment
from .metrics import GenerationStats
from .results import RunResult
from .semantic_emo import SemanticConfig, run_variant

__version__ = "0.1.0"
