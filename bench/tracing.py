"""Probes and in-memory span tracing of semogp, installed from outside it.

Probes time each engine step and, on the one pass that counts nodes,
collect the trees handed to evaluate_semantics; they are all an untraced
pass installs. A Tracer replaces public functions of the semogp modules
with wrappers that record one span per call: name, start, end, parent span
and run id. Every module attribute bound to an original function is
patched, so aliases made by ``from .x import f`` are traced too, and
``uninstall`` puts every original back. Self-recursive helpers run a clone
whose own name resolves to the unwrapped clone, so a recursion is one span
and pays no wrapper cost.

Functions called hundreds of thousands of times per pass with tiny bodies
(``tchebycheff``, ``dominates``) are counted, not spanned; their time stays
in the caller's self time.
"""

from __future__ import annotations

import time
import types
from collections import defaultdict

MODULES = (
    "dataset",
    "gp_core",
    "objectives",
    "semantics",
    "emo",
    "semantic_emo",
    "metrics",
    "results",
    "harness",
)

# Module-level functions traced as spans, per module.
SPANNED = {
    "dataset": ("load_csv", "stratified_split", "minmax_fit", "minmax_apply"),
    "gp_core": (
        "evaluate_semantics",
        "tree_depth",
        "node_count",
        "replace_subtree",
        "pick_crossover_point",
        "pick_uniform_point",
        "subtree_at",
        "subtree_crossover",
        "subtree_mutation",
        "ramped_half_and_half",
        "grow_tree",
        "full_tree",
        "to_prefix",
        "parse_prefix",
    ),
    "objectives": ("classify", "confusion", "objective_vector"),
    "semantics": ("ssc_distance", "count_distances", "select_pivot"),
    "emo": (
        "fast_nondominated_sort",
        "dominance_matrix",
        "crowding_distance",
        "nsga2_survivors",
        "spea2_fitness",
        "spea2_truncate",
        "simplex_lattice_weights",
        "neighborhoods",
        "moead_replacements",
        "canonical_crowding",
        "canonical_archive_rank",
    ),
    "semantic_emo": (
        "ssc_crossover",
        "scd_assign",
        "sdo_extend",
        "select_front_pivot",
        "build_engine",
        "run_variant",
    ),
    "metrics": ("hypervolume_2d", "unique_solutions", "size_stats"),
    "results": ("save_run", "load_run", "run_file_stem"),
    # _attach_test_metrics is private but is the whole test-split scoring step.
    "harness": ("run_experiment", "_attach_test_metrics"),
}

# Methods traced as spans: (module, class, method). Span names drop the class
# for the evaluator (objectives.evaluate_tree) and keep it for the engines.
SPANNED_METHODS = (
    ("gp_core", "Variation", "breed_pair"),
    ("gp_core", "Variation", "breed_one"),
    ("objectives", "ClassificationEvaluator", "evaluate_tree"),
    ("objectives", "ClassificationEvaluator", "evaluate_all"),
    ("emo", "Nsga2Engine", "initialize"),
    ("emo", "Nsga2Engine", "step"),
    ("emo", "Spea2Engine", "initialize"),
    ("emo", "Spea2Engine", "step"),
    ("emo", "MoeadEngine", "initialize"),
    ("emo", "MoeadEngine", "step"),
    ("semantic_emo", "SdoObjectives", "refresh"),
    ("semantic_emo", "SdoObjectives", "vector"),
    ("semantic_emo", "ScdCrowding", "__call__"),
    ("semantic_emo", "ScdDensity", "__call__"),
    ("semantic_emo", "ScdArchiveRank", "__call__"),
)

COUNTED = {"emo": ("tchebycheff", "dominates")}

ENGINES = ("Nsga2Engine", "Spea2Engine", "MoeadEngine")

# Recursive helpers that call themselves through their module globals.
SELF_RECURSIVE = {"tree_depth", "node_count", "replace_subtree", "to_prefix", "grow_tree", "full_tree"}

METHOD_NAMES = {
    ("objectives", "ClassificationEvaluator", "evaluate_tree"): "objectives.evaluate_tree",
    ("objectives", "ClassificationEvaluator", "evaluate_all"): "objectives.evaluate_all",
}


def recursion_clone(fn):
    """Copy of fn whose own global name is bound to the unwrapped copy."""
    scope = dict(fn.__globals__)
    clone = types.FunctionType(fn.__code__, scope, fn.__name__, fn.__defaults__, fn.__closure__)
    clone.__kwdefaults__ = fn.__kwdefaults__
    scope[fn.__name__] = clone
    return clone


class Patcher:
    """Swaps semogp functions for wrappers and puts the originals back."""

    def __init__(self, modules: dict):
        self.modules = modules
        self._undo: list[tuple[object, str, object]] = []

    def _replace_everywhere(self, original, replacement):
        for module in self.modules.values():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, replacement)

    def _replace_method(self, cls, method, make_wrapper):
        original = cls.__dict__[method]
        self._undo.append((cls, method, original))
        setattr(cls, method, make_wrapper(original))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Probes(Patcher):
    """Engine step durations, and optionally the trees handed to evaluate_semantics.

    evaluated_trees is None unless collect_trees is set.
    """

    def __init__(self, modules: dict, collect_trees: bool = False):
        super().__init__(modules)
        self.step_s: list[float] = []
        self.evaluated_trees: list | None = [] if collect_trees else None

    def install(self):
        clock = time.perf_counter
        steps = self.step_s
        trees = self.evaluated_trees

        def time_step(original):
            def step(engine):
                start = clock()
                try:
                    return original(engine)
                finally:
                    steps.append(clock() - start)

            return step

        for cls_name in ENGINES:
            self._replace_method(getattr(self.modules["emo"], cls_name), "step", time_step)
        if trees is None:
            return
        original = self.modules["gp_core"].evaluate_semantics

        def evaluate_semantics(tree, *args, **kwargs):
            trees.append(tree)
            return original(tree, *args, **kwargs)

        self._replace_everywhere(original, evaluate_semantics)


class Tracer(Patcher):
    """Records spans and counts while installed on a set of semogp modules.

    spans holds [name, start, end, parent_index, run_id] lists; parent_index
    is -1 for a root span. run_id is set by the caller before each run.
    """

    def __init__(self, modules: dict):
        super().__init__(modules)
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.run_id = 0
        self.evaluated_trees: list = []
        self.ssc_stats: dict[int, object] = {}
        self._stack: list[int] = []

    def _span(self, name, fn, after=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.run_id]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # Counters taken after a call returns, outside its span.
    def _after_evaluate(self, args, kwargs, result):
        self.evaluated_trees.append(args[0] if args else kwargs["tree"])

    def _after_truncate(self, args, kwargs, result):
        objectives = args[0] if args else kwargs["objectives"]
        self.counts["emo.spea2_truncate.removed"] += len(objectives) - len(result)

    def _after_replacements(self, args, kwargs, result):
        self.counts["emo.moead_replacements.replaced"] += len(result)

    def _after_ssc(self, args, kwargs, result):
        # run_variant builds one SscCounters per run and passes it as the
        # seventh argument; it accumulates over the run, so keep the object.
        stats = args[6] if len(args) > 6 else kwargs.get("stats")
        if stats is not None:
            self.ssc_stats[id(stats)] = stats

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        after = {
            "gp_core.evaluate_semantics": self._after_evaluate,
            "emo.spea2_truncate": self._after_truncate,
            "emo.moead_replacements": self._after_replacements,
            "semantic_emo.ssc_crossover": self._after_ssc,
        }
        for mod_name, names in SPANNED.items():
            module = self.modules[mod_name]
            for fn_name in names:
                original = getattr(module, fn_name)
                target = recursion_clone(original) if fn_name in SELF_RECURSIVE else original
                name = f"{mod_name}.{fn_name.lstrip('_')}"
                self._replace_everywhere(original, self._span(name, target, after.get(name)))
        for mod_name, names in COUNTED.items():
            module = self.modules[mod_name]
            for fn_name in names:
                original = getattr(module, fn_name)
                self._replace_everywhere(original, self._counter(f"{mod_name}.{fn_name}.calls", original))
        for key in SPANNED_METHODS:
            mod_name, cls_name, method = key
            name = METHOD_NAMES.get(key, f"{mod_name}.{cls_name}.{method}")
            self._replace_method(
                getattr(self.modules[mod_name], cls_name), method, lambda fn, n=name: self._span(n, fn)
            )

    def self_times(self) -> tuple[dict, dict, dict]:
        """Per-name call counts, self seconds and inclusive seconds."""
        child = self._child_seconds()
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[index]
            total_s[name] += end - start
        return calls, self_s, total_s

    def self_seconds_under(self, name: str, parent_name: str) -> float:
        """Self seconds of the spans called name whose parent is parent_name."""
        spans = self.spans
        child = self._child_seconds()
        return sum(
            (end - start) - child[index]
            for index, (span_name, start, end, parent, _) in enumerate(spans)
            if span_name == name and parent >= 0 and spans[parent][0] == parent_name
        )

    def _child_seconds(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return child
