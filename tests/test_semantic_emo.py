"""Gated crossover, semantic crowding, the third objective, run orchestration."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from semogp import gp_core
from semogp.emo import (
    BaseObjectives,
    MoeadEngine,
    Nsga2Engine,
    Spea2Engine,
    fast_nondominated_sort,
    nsga2_survivors,
)
from semogp.gp_core import (
    Call,
    Constant,
    Feature,
    GPParams,
    evaluate_semantics,
    to_prefix,
)
from semogp.harness import ExperimentConfig
from semogp.metrics import GenerationStats
from semogp.objectives import ClassificationEvaluator
from semogp.semantics import RULE_ABOVE, RULE_BAND, Pivot, SimilarityBounds, ssc_distance
from semogp.semantic_emo import (
    APPROACHES,
    ENGINES,
    SSC_MAX_TRIALS,
    ScdArchiveRank,
    ScdCrowding,
    ScdDensity,
    SdoObjectives,
    SemanticConfig,
    SscCounters,
    build_engine,
    run_variant,
    scd_assign,
    sdo_extend,
    select_front_pivot,
    ssc_crossover,
)

from conftest import PAIRS, ScriptedRandom, blob_dataset, left_comb, make_individual

# Parametrized ids read "approach-engine", e.g. "sdo-moead".
PAIR_IDS = [f"{a}-{e}" for e, a in PAIRS]
BAND_CFG = SemanticConfig(approach="scd", distance_rule=RULE_BAND)
ABOVE_CFG = SemanticConfig(approach="scd", distance_rule=RULE_ABOVE)


class TestSemanticConfig:
    def test_defaults(self):
        cfg = SemanticConfig()
        assert cfg.approach == "canonical"
        assert cfg.bounds == SimilarityBounds(0.01, 0.5)
        assert cfg.distance_rule == RULE_BAND
        assert SSC_MAX_TRIALS == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            SemanticConfig(approach="telepathy")
        with pytest.raises(ValueError):
            SemanticConfig(distance_rule="nearest")

    def test_known_names(self):
        assert ENGINES == ("nsga2", "spea2", "moead")
        assert APPROACHES == ("canonical", "ssc", "scd", "sdo")


class TestSscCrossover:
    FEATURES = np.array([[0.0], [0.2]])

    def setup_method(self):
        self.memo = gp_core.SemanticsMemo(self.FEATURES)

    def test_identical_parents_never_accepted(self):
        cfg = SemanticConfig(approach="ssc", bounds=SimilarityBounds(0.1, 0.5))
        parent = make_individual(tree=Feature(0))
        stats = SscCounters()
        c1, c2 = ssc_crossover(
            parent, parent, cfg, random.Random(0), 17, self.FEATURES, stats, self.memo
        )
        assert stats.calls == 1
        assert stats.trials == SSC_MAX_TRIALS
        assert stats.accepted == 0
        assert c1 == parent.tree
        assert c2 == parent.tree

    def test_vacuous_bounds_accept_first_trial(self):
        cfg = SemanticConfig(approach="ssc", bounds=SimilarityBounds(0.0, float("inf")))
        parent = make_individual(tree=Feature(0))
        stats = SscCounters()
        ssc_crossover(parent, parent, cfg, random.Random(0), 17, self.FEATURES, stats, self.memo)
        assert stats.trials == 1
        assert stats.accepted == 1

    def test_in_band_swap_is_accepted(self):
        # Subtree outputs differ by 0.1 per case, inside [0.01, 0.5].
        cfg = SemanticConfig(approach="ssc")
        p1 = make_individual(tree=Feature(0))
        p2 = make_individual(tree=Constant(0.1))
        stats = SscCounters()
        c1, c2 = ssc_crossover(p1, p2, cfg, random.Random(0), 17, self.FEATURES, stats, self.memo)
        assert stats.accepted == 1
        assert (c1, c2) == (Constant(0.1), Feature(0))

    def test_depth_violations_fall_back_to_parents(self):
        cfg = SemanticConfig(approach="ssc", bounds=SimilarityBounds(0.0, float("inf")))
        p1 = make_individual(tree=left_comb(17))
        p2 = make_individual(tree=left_comb(17))
        script = [0.0, "last", 0.0, 0] * SSC_MAX_TRIALS
        rng = ScriptedRandom(script)
        c1, c2 = ssc_crossover(p1, p2, cfg, rng, 17, self.FEATURES, SscCounters(), self.memo)
        assert not rng.script
        assert c1 is p1.tree
        assert c2 is p2.tree

    def test_offspring_respect_max_depth(self):
        cfg = SemanticConfig(approach="ssc", bounds=SimilarityBounds(0.0, float("inf")))
        rng = random.Random(6)
        from semogp.gp_core import PrimitiveSet, grow_tree, tree_depth

        ps = PrimitiveSet(n_features=1)
        for _ in range(100):
            p1 = make_individual(tree=grow_tree(ps, rng.randint(1, 5), rng))
            p2 = make_individual(tree=grow_tree(ps, rng.randint(1, 5), rng))
            c1, c2 = ssc_crossover(p1, p2, cfg, rng, 6, self.FEATURES, SscCounters(), self.memo)
            assert tree_depth(c1) <= 6
            assert tree_depth(c2) <= 6

    def test_memo_of_another_feature_matrix_rejected(self):
        p1 = make_individual(tree=Feature(0), semantics=(0.0, 0.2))
        p2 = make_individual(tree=Constant(0.0), semantics=(0.0, 0.0))
        cfg = SemanticConfig(approach="ssc", bounds=SimilarityBounds(0.3, 0.4))
        with pytest.raises(ValueError, match="another feature matrix"):
            ssc_crossover(p1, p2, cfg, random.Random(0), 17, self.FEATURES.copy(), SscCounters(), self.memo)


def reference_ssc_crossover(p1, p2, cfg, rng, max_depth, features, stats):
    """ssc_crossover as it was: both offspring built on every trial."""
    memo = gp_core.SemanticsMemo(features)
    stats.calls += 1
    final_pair = None
    for _ in range(SSC_MAX_TRIALS):
        stats.trials += 1
        point1 = gp_core.pick_crossover_point(p1.tree, rng)
        point2 = gp_core.pick_crossover_point(p2.tree, rng)
        sub1 = gp_core.subtree_at(p1.tree, point1)
        sub2 = gp_core.subtree_at(p2.tree, point2)
        distance = ssc_distance(
            evaluate_semantics(sub1, features, memo), evaluate_semantics(sub2, features, memo)
        )
        child1 = gp_core.replace_subtree(p1.tree, point1, sub2)
        child2 = gp_core.replace_subtree(p2.tree, point2, sub1)
        depth_ok = gp_core.tree_depth(child1) <= max_depth and gp_core.tree_depth(child2) <= max_depth
        if depth_ok and cfg.bounds.lbss <= distance <= cfg.bounds.ubss:
            stats.accepted += 1
            return child1, child2
        final_pair = (child1, child2) if depth_ok else None
    if final_pair is not None:
        return final_pair
    return p1.tree, p2.tree


SSC_PS = gp_core.PrimitiveSet(n_features=2)
SSC_FEATURES = np.array([[0.0, 1.0], [0.2, -0.5], [0.7, 0.1]])
# Vacuous bounds accept every trial that fits; the other two reject some trials.
SSC_BOUNDS = [SimilarityBounds(0.0, float("inf")), SimilarityBounds(0.1, 0.5), SimilarityBounds(0.3, 0.4)]
ssc_trees = st.builds(
    lambda method, depth, seed: make_individual(tree=method(SSC_PS, depth, random.Random(seed))),
    st.sampled_from([gp_core.grow_tree, gp_core.full_tree]),
    st.integers(0, 8),
    st.integers(0, 2**32 - 1),
)


def ssc_against_reference(p1, p2, bounds, seed, max_depth):
    """Run ssc_crossover and the reference from one seed; assert they agree."""
    cfg = SemanticConfig(approach="ssc", bounds=bounds)
    fast, slow = random.Random(seed), random.Random(seed)
    got_stats, want_stats = SscCounters(), SscCounters()
    memo = gp_core.SemanticsMemo(SSC_FEATURES)
    got = ssc_crossover(p1, p2, cfg, fast, max_depth, SSC_FEATURES, got_stats, memo)
    want = reference_ssc_crossover(p1, p2, cfg, slow, max_depth, SSC_FEATURES, want_stats)
    assert got == want
    assert (got[0] is p1.tree, got[1] is p2.tree) == (want[0] is p1.tree, want[1] is p2.tree)
    assert got_stats == want_stats
    assert fast.getstate() == slow.getstate()
    return got, got_stats


class TestSscOracle:
    """Offspring built only for the returned pair, against the build-every-trial form."""

    @settings(max_examples=300, deadline=None)
    @given(ssc_trees, ssc_trees, st.sampled_from(SSC_BOUNDS), st.integers(0, 2**32 - 1), st.integers(3, 17))
    def test_matches_reference(self, p1, p2, bounds, seed, max_depth):
        ssc_against_reference(p1, p2, bounds, seed, max_depth)

    def test_accept_reject_and_depth_fallback_occur(self):
        # The hypothesis draws above reach all three; this pins that they do.
        rng = random.Random(17)
        outcomes = set()
        for _ in range(400):
            p1 = make_individual(tree=gp_core.grow_tree(SSC_PS, rng.randint(1, 8), rng))
            p2 = make_individual(tree=gp_core.grow_tree(SSC_PS, rng.randint(1, 8), rng))
            bounds = rng.choice(SSC_BOUNDS)
            (c1, _), stats = ssc_against_reference(p1, p2, bounds, rng.getrandbits(32), rng.randint(3, 17))
            if stats.accepted:
                outcomes.add("accept")
            elif c1 is p1.tree:
                outcomes.add("fallback to parents")
            else:
                outcomes.add("last trial kept")
        assert outcomes == {"accept", "fallback to parents", "last trial kept"}


class ScdFixture:
    # Pivot is member 1; band counts use bounds (0.01, 0.5).
    SEMANTICS = [
        (0.0, 0.0, 0.0, 0.0),
        (0.0, 0.1, 0.2, 0.3),
        (2.0, 2.0, 2.0, 2.0),
        (1.0, 0.3, 0.0, 0.0),
    ]
    OBJECTIVES = [(0.0, 1.0), (0.5, 0.5), (2.0, 2.0), (1.0, 0.0)]

    @classmethod
    def members(cls):
        return [
            make_individual(semantics=s, objectives=o)
            for s, o in zip(cls.SEMANTICS, cls.OBJECTIVES)
        ]


class TestScdAssign:
    def test_band_counts(self):
        members = ScdFixture.members()
        pivot = Pivot(np.asarray(ScdFixture.SEMANTICS[1]), 1)
        counts = scd_assign(members, pivot, BAND_CFG)
        assert counts.tolist() == [3.0, 0.0, 0.0, 3.0]

    def test_above_counts(self):
        members = ScdFixture.members()
        pivot = Pivot(np.asarray(ScdFixture.SEMANTICS[1]), 1)
        counts = scd_assign(members, pivot, ABOVE_CFG)
        assert counts.tolist() == [0.0, 0.0, 4.0, 1.0]

    def test_pivot_counts_zero_to_itself(self):
        members = ScdFixture.members()
        pivot = Pivot(np.asarray(ScdFixture.SEMANTICS[1]), 1)
        for cfg in (BAND_CFG, ABOVE_CFG):
            assert scd_assign(members, pivot, cfg)[1] == 0.0

    def test_missing_semantics_rejected(self):
        members = [make_individual(objectives=(0.1, 0.2))]
        with pytest.raises(ValueError, match="semantics"):
            scd_assign(members, Pivot(np.zeros(2), 0), BAND_CFG)


class TestSdoExtend:
    def test_third_entry_hand_cases(self):
        members = ScdFixture.members()
        pivot = Pivot(np.asarray(ScdFixture.SEMANTICS[1]), 1)
        extended = sdo_extend(members, pivot, ABOVE_CFG)
        assert extended.shape == (4, 3)
        assert extended[:, 2].tolist() == [0.0, 0.0, -1.0, -0.25]

    def test_all_cases_distant_gives_minus_one(self):
        members = [make_individual(semantics=(9.0, 9.0), objectives=(0.5, 0.5))]
        pivot = Pivot(np.zeros(2), 0)
        extended = sdo_extend(members, pivot, ABOVE_CFG)
        assert extended[0, 2] == -1.0

    def test_base_objectives_preserved_bitwise(self):
        members = ScdFixture.members()
        pivot = Pivot(np.asarray(ScdFixture.SEMANTICS[1]), 1)
        extended = sdo_extend(members, pivot, BAND_CFG)
        base = np.stack([m.objectives for m in members])
        assert np.array_equal(extended[:, :2], base)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_base_columns_are_the_objectives_bit_for_bit(self, data):
        n = data.draw(st.integers(1, 20))
        cases = data.draw(st.integers(1, 8))
        finite = st.floats(-2.0, 2.0, allow_nan=False)
        semantics = data.draw(hnp.arrays(np.float64, (n, cases), elements=finite))
        objectives = data.draw(hnp.arrays(np.float64, (n, 2), elements=st.floats(allow_nan=False)))
        pivot = Pivot(data.draw(hnp.arrays(np.float64, cases, elements=finite)), 0)
        members = [
            make_individual(semantics=s, objectives=o) for s, o in zip(semantics, objectives)
        ]
        extended = sdo_extend(members, pivot, data.draw(st.sampled_from([BAND_CFG, ABOVE_CFG])))
        assert np.array_equal(extended[:, :2].view(np.int64), objectives.view(np.int64))


class TestSelectFrontPivot:
    def test_sparsest_front_member_wins(self):
        members = ScdFixture.members()
        pivot = select_front_pivot(members, random.Random(0))
        # Front is {0, 1, 3}; member 1 holds the only finite crowding.
        assert pivot.source_index == 1
        assert np.array_equal(pivot.semantics, np.asarray(ScdFixture.SEMANTICS[1]))

    def test_small_front_uniform_choice_stays_on_front(self):
        members = [
            make_individual(semantics=(0.0,), objectives=(0.0, 1.0)),
            make_individual(semantics=(1.0,), objectives=(1.0, 0.0)),
            make_individual(semantics=(2.0,), objectives=(2.0, 2.0)),
        ]
        picks = {
            select_front_pivot(members, random.Random(seed)).source_index
            for seed in range(30)
        }
        assert picks == {0, 1}


class TestPolicies:
    def test_scd_crowding_replaces_canonical_values(self):
        members = ScdFixture.members()
        objs = np.stack([m.objectives for m in members])
        fronts = fast_nondominated_sort(objs)
        counts = ScdCrowding(BAND_CFG)(members, fronts, objs, random.Random(0))
        assert counts.tolist() == [3.0, 0.0, 0.0, 3.0]

    def test_scd_density_shape(self):
        members = ScdFixture.members()
        objs = np.stack([m.objectives for m in members])
        raw = np.array([0.0, 0.0, 5.0, 0.0])
        density = ScdDensity(BAND_CFG)(members, objs, raw, random.Random(0))
        assert density.tolist() == [0.2, 0.5, 0.5, 0.2]

    def test_scd_archive_rank(self):
        members = [
            make_individual(semantics=(0.0, 0.0, 0.0, 0.0), objectives=(0.0, 1.0)),
            make_individual(semantics=(0.0, 0.1, 0.2, 0.3), objectives=(0.5, 0.5)),
            make_individual(semantics=(1.0, 0.3, 0.0, 0.0), objectives=(1.0, 0.0)),
        ]
        objs = np.stack([m.objectives for m in members])
        ranks = ScdArchiveRank(BAND_CFG)(members, objs, random.Random(0))
        assert ranks.tolist() == [3.0, 0.0, 3.0]

    def test_sdo_space_vector_matches_refresh(self):
        space = SdoObjectives(SemanticConfig(approach="sdo", distance_rule=RULE_ABOVE))
        members = ScdFixture.members()
        matrix = space.refresh(members, random.Random(0))
        for row, member in zip(matrix, members):
            assert np.array_equal(space.vector(member), row)

    def test_sdo_vector_requires_refresh(self):
        space = SdoObjectives(SemanticConfig(approach="sdo"))
        with pytest.raises(ValueError, match="refresh"):
            space.vector(make_individual(semantics=(0.0,), objectives=(0.1, 0.2)))


class TestScdGenerationTrace:
    """One full NSGA-II survivor selection with semantic crowding, by hand.

    Six staircase members form the first front; the all-dyadic spacing makes
    member 2 the unique lowest-index max-crowding pivot. Band counts to its
    semantics then rank the front: member 5 holds the lowest count among the
    candidates and must be the one dropped.
    """

    OBJS = [
        (0.0, 1.0),
        (0.125, 0.875),
        (0.25, 0.625),
        (0.5, 0.375),
        (0.75, 0.25),
        (1.0, 0.0),
        (0.5, 1.0),
        (0.7, 0.8),
        (1.0, 0.5),
        (1.1, 1.1),
    ]
    SEMS = [
        (0.3, 0.3, 0.3),
        (0.0, 0.0, 0.0),
        (0.0, 0.0, 0.0),
        (0.2, 0.6, 0.0),
        (0.05, 0.05, 5.0),
        (1.0, 1.0, 1.0),
        (9.0, 9.0, 9.0),
        (9.0, 9.0, 9.0),
        (9.0, 9.0, 9.0),
        (9.0, 9.0, 9.0),
    ]

    def test_hand_trace(self):
        members = [
            make_individual(semantics=s, objectives=o)
            for s, o in zip(self.SEMS, self.OBJS)
        ]
        objs = np.stack([m.objectives for m in members])
        fronts = fast_nondominated_sort(objs)
        assert fronts == [[0, 1, 2, 3, 4, 5], [6, 7, 8], [9]]
        counts = ScdCrowding(BAND_CFG)(members, fronts, objs, random.Random(0))
        assert counts.tolist() == [3.0, 0.0, 0.0, 1.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        survivors = nsga2_survivors(fronts, counts, 5)
        assert sorted(survivors) == [0, 1, 2, 3, 4]


class TestBuildEngine:
    def setup_method(self):
        self.ds = blob_dataset(n_cases=40, imbalance=3, seed=0)

    def make(self, engine, cfg):
        from semogp.gp_core import PrimitiveSet, Variation
        from semogp.objectives import ClassificationEvaluator

        params = GPParams(pop_size=8, generations=2, init_min_depth=2, init_max_depth=3)
        return build_engine(
            engine,
            cfg,
            ClassificationEvaluator(self.ds),
            Variation(PrimitiveSet(self.ds.n_features), params),
            random.Random(0),
        )

    def test_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            self.make("hillclimb", SemanticConfig())

    def test_scd_moead_rejected_by_default(self):
        with pytest.raises(ValueError, match="scd replaces a crowding mechanism moead does not have"):
            self.make("moead", SemanticConfig(approach="scd"))

    def test_sdo_uses_three_entry_space(self):
        engine = self.make("nsga2", SemanticConfig(approach="sdo"))
        assert engine.space.n_objectives == 3

    def test_canonical_uses_base_space(self):
        engine = self.make("spea2", SemanticConfig())
        assert engine.space.n_objectives == 2

    @pytest.mark.parametrize("engine,approach", PAIRS, ids=PAIR_IDS)
    def test_each_approach_installs_its_hook(self, engine, approach):
        built = self.make(engine, SemanticConfig(approach=approach))
        engine_cls, scd_cls = {
            "nsga2": (Nsga2Engine, ScdCrowding),
            "spea2": (Spea2Engine, ScdDensity),
            "moead": (MoeadEngine, None),
        }[engine]
        assert type(built) is engine_cls
        assert type(built.diversity) is (scd_cls if approach == "scd" else type(None))
        assert type(built.space) is (SdoObjectives if approach == "sdo" else BaseObjectives)


@pytest.fixture(scope="module")
def dataset():
    return blob_dataset(n_cases=60, imbalance=3, seed=0)


class TestRunVariant:
    GP = GPParams(pop_size=16, generations=4, init_min_depth=2, init_max_depth=4)

    @pytest.mark.parametrize("engine,approach", PAIRS, ids=PAIR_IDS)
    def test_every_valid_combination_runs(self, dataset, engine, approach):
        cfg = SemanticConfig(approach=approach)
        result = run_variant(engine, cfg, dataset, gp=self.GP, seed=1)
        assert result.engine == engine
        assert result.approach == approach
        assert len(result.generations) == self.GP.generations
        assert result.generations[0].generation == 0
        assert [row.generation for row in result.generations] == list(range(4))
        assert result.front
        for member in result.front:
            assert len(member.objectives) == 2
            assert member.nodes >= 1

    def test_front_is_sorted_and_parseable(self, dataset):
        from semogp.gp_core import parse_prefix

        result = run_variant("nsga2", SemanticConfig(), dataset, gp=self.GP, seed=2)
        keys = [(m.objectives[0], m.objectives[1], m.program) for m in result.front]
        assert keys == sorted(keys)
        for member in result.front:
            tree = parse_prefix(member.program)
            assert to_prefix(tree) == member.program

    def test_deterministic_per_seed(self, dataset):
        payload = lambda r: (
            [(m.program, m.objectives) for m in r.front],
            r.generations,
        )
        a = run_variant("spea2", SemanticConfig(approach="sdo"), dataset, gp=self.GP, seed=3)
        b = run_variant("spea2", SemanticConfig(approach="sdo"), dataset, gp=self.GP, seed=3)
        assert payload(a) == payload(b)

    def test_memo_capacity_leaves_every_pair_unchanged(self, monkeypatch):
        # Every valid pair on 200 cases: the default memo, a one-entry memo
        # that evicts on every store, and no memo give equal results.
        data = blob_dataset(n_cases=200, imbalance=9, seed=0)
        gp = GPParams(pop_size=30, generations=8)

        def runs(capacity):
            assert ClassificationEvaluator(data).memo.capacity == capacity
            return [run_variant(e, SemanticConfig(approach=a), data, gp=gp, seed=11) for e, a in PAIRS]

        default = runs(gp_core.MEMO_ENTRIES)
        monkeypatch.setattr(gp_core, "MEMO_ENTRIES", 1)
        one_entry = runs(1)
        monkeypatch.setattr(gp_core, "MEMO_BYTES", 0)
        assert default == one_entry == runs(0)

    def test_seed_changes_the_run(self, dataset):
        a = run_variant("nsga2", SemanticConfig(), dataset, gp=self.GP, seed=4)
        b = run_variant("nsga2", SemanticConfig(), dataset, gp=self.GP, seed=5)
        assert [(m.program, m.objectives) for m in a.front] != [
            (m.program, m.objectives) for m in b.front
        ] or a.generations != b.generations

    def test_unknown_approach_rejected(self, dataset):
        with pytest.raises(ValueError):
            run_variant("nsga2", SemanticConfig(approach="psychic"), dataset, gp=self.GP)

    def test_stats_rows_are_generation_stats(self, dataset):
        result = run_variant("moead", SemanticConfig(), dataset, gp=self.GP, seed=7)
        for row in result.generations:
            assert isinstance(row, GenerationStats)
            assert row.front_size >= 1
            assert row.unique_count <= row.front_size
            assert 0.0 <= row.hypervolume <= 1.01 * 1.01

    def test_wall_time_recorded_in_memory(self, dataset):
        result = run_variant("nsga2", SemanticConfig(), dataset, gp=self.GP, seed=8)
        assert result.wall_time_s is not None
        assert result.wall_time_s > 0

    def test_config_echo_defaults(self, dataset):
        cfg = SemanticConfig(distance_rule=RULE_ABOVE)
        result = run_variant("nsga2", cfg, dataset, gp=self.GP, seed=9, threshold=0.25)
        assert result.config["engine"] == "nsga2"
        assert result.config["approach"] == "canonical"
        assert result.config["seed"] == 9
        assert result.config["pop_size"] == 16
        assert result.config["distance_rule"] == RULE_ABOVE
        # The echo names every setting of the run as ExperimentConfig does,
        # so the run can be configured again from it.
        settings = {k: v for k, v in result.config.items() if k != "seed"}
        rebuilt = ExperimentConfig(dataset="d.csv", **settings)
        assert rebuilt.semantic_config() == cfg
        assert rebuilt.gp_params() == self.GP
        assert rebuilt.threshold == 0.25
