"""Tree representation, initialization, evaluation, and variation operators."""

import dataclasses
import gc
import math
import pickle
import random
import struct
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semogp import gp_core
from semogp.gp_core import (
    CROSSOVER_DEPTH_RETRIES,
    DIV_EPSILON,
    FUNCTION_POINT_BIAS,
    FUNCTIONS,
    VALUE_CLAMP,
    Call,
    Constant,
    Feature,
    GPParams,
    Individual,
    PrimitiveSet,
    SemanticsMemo,
    Variation,
    evaluate_semantics,
    feature_bound,
    full_tree,
    grow_tree,
    node_count,
    parse_prefix,
    pick_crossover_point,
    pick_uniform_point,
    ramped_half_and_half,
    replace_subtree,
    subtree_at,
    subtree_crossover,
    subtree_mutation,
    to_prefix,
    tree_depth,
)

from conftest import ScriptedRandom, exchanged, left_comb, reference_shape, same_bits


PS = PrimitiveSet(n_features=2)


def sample_tree():
    # (+ x0 (* 0.5 x1))
    return Call("+", Feature(0), Call("*", Constant(0.5), Feature(1)))


def iter_paths(tree, _prefix=()):
    """Yield (path, node) pairs in preorder; paths are tuples of 0/1 steps.

    The path-listing oracle for the pickers, which descend by counts instead.
    """
    yield _prefix, tree
    if isinstance(tree, Call):
        yield from iter_paths(tree.left, _prefix + (0,))
        yield from iter_paths(tree.right, _prefix + (1,))


def listed_crossover_point(tree, rng):
    """pick_crossover_point as it was: list every path, then index a pool."""
    function_paths = []
    terminal_paths = []
    for path, node in iter_paths(tree):
        (function_paths if isinstance(node, Call) else terminal_paths).append(path)
    if function_paths and (not terminal_paths or rng.random() < FUNCTION_POINT_BIAS):
        pool = function_paths
    else:
        pool = terminal_paths
    return pool[rng.randrange(len(pool))]


def listed_uniform_point(tree, rng):
    """pick_uniform_point as it was."""
    paths = [path for path, _ in iter_paths(tree)]
    return paths[rng.randrange(len(paths))]


def reference_repr(tree):
    if isinstance(tree, Feature):
        return f"Feature(index={tree.index!r})"
    if isinstance(tree, Constant):
        return f"Constant(value={tree.value!r})"
    return f"Call(op={tree.op!r}, left={reference_repr(tree.left)}, right={reference_repr(tree.right)})"


def rebuilt(tree):
    """A structurally equal copy that shares no Call node with tree."""
    if isinstance(tree, Call):
        return Call(tree.op, rebuilt(tree.left), rebuilt(tree.right))
    return tree


def shape(tree):
    return tree.size, tree.depth, tree.n_functions


# Grown and full trees of depth 0 (a bare terminal) to 8, from any seed.
shaped_trees = st.builds(
    lambda method, depth, seed: method(PS, depth, random.Random(seed)),
    st.sampled_from([grow_tree, full_tree]),
    st.integers(0, 8),
    st.integers(0, 2**32 - 1),
)
seeds = st.integers(0, 2**32 - 1)


class TestShape:
    def test_nodes_are_immutable(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            Feature(0).index = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            sample_tree().op = "-"
        with pytest.raises(dataclasses.FrozenInstanceError):
            sample_tree().size = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            Feature(0).size = 2

    def test_depth_and_count(self):
        assert tree_depth(Feature(0)) == 0
        assert tree_depth(Constant(1.0)) == 0
        assert node_count(Feature(0)) == 1
        assert tree_depth(sample_tree()) == 2
        assert node_count(sample_tree()) == 5
        assert shape(Feature(0)) == shape(Constant(1.0)) == (1, 0, 0)
        assert shape(sample_tree()) == (5, 2, 2)

    def test_full_depth_three_has_fifteen_nodes(self):
        tree = full_tree(PS, 3, random.Random(0))
        assert tree_depth(tree) == 3
        assert node_count(tree) == 15

    def test_iter_paths_is_preorder(self):
        tree = sample_tree()
        paths = [path for path, _ in iter_paths(tree)]
        assert paths == [(), (0,), (1,), (1, 0), (1, 1)]

    @settings(max_examples=200, deadline=None)
    @given(shaped_trees, shaped_trees, seeds)
    def test_shape_fields_match_the_recursive_oracle(self, p1, p2, seed):
        rng = random.Random(seed)
        path = listed_uniform_point(p1, rng)
        made = [
            p1,
            p2,
            replace_subtree(p1, path, p2),
            *subtree_crossover(p1, p2, rng, max_depth=17),
            subtree_mutation(p1, PS, rng, max_depth=17, subtree_depth=4),
            parse_prefix(to_prefix(p1)),
        ]
        for tree in made:
            assert shape(tree) == reference_shape(tree), to_prefix(tree)
            assert (node_count(tree), tree_depth(tree)) == reference_shape(tree)[:2]

    @settings(max_examples=200, deadline=None)
    @given(shaped_trees)
    def test_equality_hash_and_repr_ignore_shape_fields(self, tree):
        twin = rebuilt(tree)
        assert twin == tree and hash(twin) == hash(tree)
        assert parse_prefix(to_prefix(tree)) == tree
        assert repr(tree) == reference_repr(tree)

    @settings(max_examples=100, deadline=None)
    @given(shaped_trees, st.integers(0, pickle.HIGHEST_PROTOCOL))
    def test_pickle_keeps_shape_fields(self, tree, protocol):
        copy = pickle.loads(pickle.dumps(tree, protocol))
        assert copy == tree and hash(copy) == hash(tree)
        assert shape(copy) == shape(tree) == reference_shape(tree)

    def test_subtree_at(self):
        tree = sample_tree()
        assert subtree_at(tree, ()) is tree
        assert subtree_at(tree, (1, 0)) == Constant(0.5)

    def test_replace_subtree_is_persistent(self):
        tree = sample_tree()
        swapped = replace_subtree(tree, (1,), Feature(0))
        assert swapped == Call("+", Feature(0), Feature(0))
        assert tree == sample_tree()


class TestInitialization:
    def test_ramped_depths_stay_in_range(self):
        trees = ramped_half_and_half(500, PS, random.Random(0), min_depth=2, max_depth=6)
        depths = [tree_depth(t) for t in trees]
        assert len(trees) == 500
        assert all(1 <= d <= 6 for d in depths)
        assert max(depths) >= 5

    def test_depth_one_ramp_is_all_three_node_trees(self):
        trees = ramped_half_and_half(20, PS, random.Random(1), min_depth=1, max_depth=1)
        for tree in trees:
            assert isinstance(tree, Call)
            assert node_count(tree) == 3

    def test_full_is_exact_grow_is_bounded(self):
        rng = random.Random(2)
        for target in (1, 2, 3, 4):
            assert tree_depth(full_tree(PS, target, rng)) == target
            for _ in range(20):
                depth = tree_depth(grow_tree(PS, target, rng))
                assert 1 <= depth <= target

    def test_grow_depth_zero_is_a_terminal(self):
        tree = grow_tree(PS, 0, random.Random(3))
        assert isinstance(tree, (Feature, Constant))

    def test_constants_respect_range(self):
        ps = PrimitiveSet(n_features=1)
        rng = random.Random(4)
        constants = []
        for _ in range(500):
            term = ps.random_terminal(rng)
            if isinstance(term, Constant):
                constants.append(term.value)
        assert constants
        assert all(-1.0 <= c <= 1.0 for c in constants)
        assert min(constants) < -0.9 and max(constants) > 0.9


class TestEvaluation:
    def test_hand_case(self):
        features = np.array([[2.0, 4.0], [1.0, -2.0]])
        out = evaluate_semantics(sample_tree(), features)
        assert out.tolist() == [4.0, 0.0]

    def test_protected_division_by_zero(self):
        tree = Call("/", Feature(0), Feature(1))
        features = np.array([[1.0, 0.0], [5.0, 2.0]])
        out = evaluate_semantics(tree, features)
        assert out.tolist() == [1.0, 2.5]

    def test_protected_division_near_zero(self):
        # The whole quotient collapses to 1.0 when |denominator| < epsilon.
        tree = Call("/", Constant(3.0), Feature(0))
        features = np.array([[DIV_EPSILON / 2], [-DIV_EPSILON / 2], [1.0]])
        out = evaluate_semantics(tree, features)
        assert out.tolist() == [1.0, 1.0, 3.0]

    def test_values_are_clamped(self):
        tree = Constant(VALUE_CLAMP)
        for _ in range(4):
            tree = Call("*", tree, tree)
        out = evaluate_semantics(tree, np.zeros((2, 1)))
        assert np.all(out == VALUE_CLAMP)

    @pytest.mark.parametrize("n", [1, 7, 8, 15, 16, 17, 140, 3500])
    def test_clamp_matches_np_clip_bit_for_bit(self, n):
        # NaNs of both signs with assorted payloads (quiet and signalling),
        # infinities, zeros, the clamp itself and the doubles next to it.
        nan_bits = [
            0x7FF8000000000000,
            0xFFF8000000000000,
            0x7FF8000000000123,
            0xFFFC0000000000AB,
            0x7FF0000000000001,
            0xFFF4000000000007,
        ]
        near = [VALUE_CLAMP, math.nextafter(VALUE_CLAMP, 0.0), math.nextafter(VALUE_CLAMP, math.inf)]
        values = [
            *np.array(nan_bits, dtype=np.uint64).view(np.float64).tolist(),
            math.inf,
            -math.inf,
            0.0,
            -0.0,
            1.5,
            *near,
            *(-c for c in near),
        ]
        a = np.array(random.Random(n).choices(values, k=n), dtype=np.float64)
        with np.errstate(invalid="ignore"):
            want = np.clip(a + 0.0, -VALUE_CLAMP, VALUE_CLAMP)
            got, bound = gp_core._apply("+", a, math.inf, 0.0, 0.0)
        assert bound == VALUE_CLAMP
        assert same_bits(got, want)

    def test_ten_thousand_random_trees_stay_finite(self):
        rng = random.Random(5)
        features = np.array(
            [
                [1e8, -1e8, 1e-12],
                [0.0, 1e9, -1e-9],
                [-5.0, 3.0, 7.0],
                [1e10, 1e10, -1e10],
            ]
        )
        ps = PrimitiveSet(n_features=3)
        for i in range(10_000):
            tree = grow_tree(ps, rng.randint(0, 4), rng)
            out = evaluate_semantics(tree, features)
            assert np.all(np.isfinite(out)), to_prefix(tree)
            assert np.all(np.abs(out) <= VALUE_CLAMP)

    def test_semantics_length_matches_cases(self):
        features = np.zeros((7, 2))
        assert evaluate_semantics(sample_tree(), features).shape == (7,)


def reference_semantics(tree, features):
    """The plain recursive walk that clamps after every function node: the oracle."""
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]

    def walk(node):
        if isinstance(node, Feature):
            return features[:, node.index]
        if isinstance(node, Constant):
            return np.full(n, node.value)
        a = walk(node.left)
        b = walk(node.right)
        if node.op == "+":
            out = a + b
        elif node.op == "-":
            out = a - b
        elif node.op == "*":
            out = a * b
        else:
            small = np.abs(b) < DIV_EPSILON
            out = np.divide(a, np.where(small, 1.0, b))
            out = np.where(small, 1.0, out)
        return np.clip(out, -VALUE_CLAMP, VALUE_CLAMP)

    result = walk(tree)
    return np.array(result, dtype=np.float64)


N_FEATURES = 3
EDGE_VALUES = (
    math.inf,
    -math.inf,
    math.nan,
    1e300,
    -1e300,
    -0.0,
    0.0,
    DIV_EPSILON / 2,
    -DIV_EPSILON / 2,
    DIV_EPSILON,
    VALUE_CLAMP,
    -VALUE_CLAMP,
    1e-300,
)
any_float = st.floats(allow_nan=True, allow_infinity=True)


def tree_strategy(constant_values):
    return st.recursive(
        st.one_of(st.integers(0, N_FEATURES - 1).map(Feature), constant_values.map(Constant)),
        lambda children: st.builds(Call, st.sampled_from(FUNCTIONS), children, children),
        max_leaves=40,
    )


trees = tree_strategy(st.one_of(st.floats(-1.0, 1.0), st.sampled_from(EDGE_VALUES), any_float))
finite_trees = tree_strategy(
    st.one_of(st.floats(-1.0, 1.0), st.floats(allow_nan=False, allow_infinity=False))
)
SCALES = (1.0, 1e-300, 1e-6, 1e3, 1e6, 1e12, 1e300)


def scaled_matrices(values):
    """0 to 5 rows of values, the whole matrix scaled from tiny to huge magnitudes."""
    rows = st.lists(st.lists(values, min_size=N_FEATURES, max_size=N_FEATURES), max_size=5)
    return st.builds(scaled_matrix, rows, st.sampled_from(SCALES))


def scaled_matrix(rows, scale):
    with np.errstate(over="ignore"):
        return np.array(rows, dtype=np.float64).reshape(len(rows), N_FEATURES) * scale


# Finite matrices of one magnitude, where most clamps are skipped, and
# matrices mixing in edge and non-finite values.
feature_matrices = st.one_of(
    scaled_matrices(st.floats(-10.0, 10.0)),
    scaled_matrices(st.one_of(st.floats(-10.0, 10.0), st.sampled_from(EDGE_VALUES), any_float)),
)


def float_of_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def nan_sum(a: int, b: int) -> Call:
    """(+ a b) over two NaN constants given by their bits."""
    return Call("+", Constant(float_of_bits(a)), Constant(float_of_bits(b)))


class TestEvaluationOracle:
    # Bit for bit but NaN's sign and payload, which Python floats and numpy
    # choose differently (see evaluate_semantics): both examples differ.
    @settings(max_examples=400, deadline=None)
    @given(trees, feature_matrices)
    @example(nan_sum(0x7FF8000000000000, 0xFFF8000000000000), np.zeros((2, N_FEATURES)))
    @example(nan_sum(0x7FF8000000000000, 0x7FF8000000000001), np.zeros((2, N_FEATURES)))
    def test_bit_identical_to_reference(self, tree, features):
        with np.errstate(all="ignore"):
            expected = reference_semantics(tree, features)
            out = evaluate_semantics(tree, features)
        nan = np.isnan(expected)
        assert out.dtype == expected.dtype and out.shape == expected.shape
        assert np.array_equal(np.isnan(out), nan), to_prefix(tree)
        assert same_bits(out[~nan], expected[~nan]), to_prefix(tree)

    @pytest.mark.parametrize("scale", [8.0, 1e3, 1e5, 1e8])
    def test_random_grown_trees_bit_identical(self, scale):
        # Typical programs on data whose magnitude puts many nodes near the clamp.
        rng = random.Random(3)
        ps = PrimitiveSet(n_features=N_FEATURES)
        data = np.random.default_rng(3).normal(scale=scale, size=(50, N_FEATURES))
        for _ in range(200):
            tree = grow_tree(ps, rng.randint(2, 8), rng)
            assert same_bits(evaluate_semantics(tree, data), reference_semantics(tree, data))

    @pytest.mark.parametrize("tree", [Feature(1), Constant(0.25), Constant(-0.0)])
    def test_terminal_roots_return_fresh_arrays(self, tree):
        features = np.arange(6.0).reshape(3, 2)
        features.setflags(write=False)
        out = evaluate_semantics(tree, features)
        assert out.dtype == np.float64 and out.shape == (3,)
        assert out.flags.writeable
        assert not np.shares_memory(out, features)
        assert same_bits(out, reference_semantics(tree, features))

    def test_constant_only_nan_takes_its_sign_from_python_floats(self):
        # Pinned, not a fault: a constant-only subtree is folded in Python
        # floats and the oracle adds numpy arrays, and the two need not give
        # a NaN the same sign bit (see evaluate_semantics). On x86-64 with
        # numpy 2.4 the output's top 16 bits are 0xfff8, the oracle's 0x7ff8.
        tree = parse_prefix("(+ (+ 0.0 nan) (+ inf -inf))")
        features = np.zeros((4, N_FEATURES))
        with np.errstate(all="ignore"):
            out = evaluate_semantics(tree, features)
            expected = reference_semantics(tree, features)
        folded = (0.0 + math.nan) + (math.inf + -math.inf)
        assert same_bits(out, np.full(4, folded))
        assert np.isnan(expected).all()

    def test_empty_matrix(self):
        out = evaluate_semantics(sample_tree(), np.zeros((0, 2)))
        assert out.dtype == np.float64 and out.shape == (0,)

    @settings(max_examples=200, deadline=None)
    @given(finite_trees, feature_matrices)
    def test_prefix_round_trip(self, tree, features):
        reparsed = parse_prefix(to_prefix(tree))
        assert reparsed == tree
        with np.errstate(all="ignore"):
            assert same_bits(
                evaluate_semantics(reparsed, features), evaluate_semantics(tree, features)
            )


def reference_divide(a, b):
    """A division node guarded element by element and always clamped: the oracle."""
    small = np.abs(b) < DIV_EPSILON
    out = np.where(small, 1.0, np.divide(a, np.where(small, 1.0, b)))
    return np.clip(out, -VALUE_CLAMP, VALUE_CLAMP)


TINY = math.nextafter(DIV_EPSILON, 0.0)
# Divisor columns, each with the dividend column [3.0, -1e9, 0.5, 7.0][:n].
DIVISORS = {
    "least exactly epsilon": [DIV_EPSILON, -2.0, 1e-3, 5.0],
    "least exactly -epsilon": [-DIV_EPSILON, 2.0, -4.0, 1e9],
    "least just below epsilon": [TINY, 2.0, 3.0, -1.0],
    "least just below, negative": [-TINY, -DIV_EPSILON, 1.0, 1.0],
    "nan entry": [math.nan, 2.0, -3.0, 4.0],
    "nan beside a small entry": [math.nan, 0.0, -3.0, 4.0],
    "positive zero": [0.0, 2.0, 3.0, 4.0],
    "negative zero": [-0.0, 2.0, 3.0, 4.0],
    "infinities": [math.inf, -math.inf, 2.0, -0.5],
    "all infinite": [math.inf, -math.inf, math.inf, -math.inf],
    "tiny quotients": [1e300, -1e300, 1e200, 1e100],
    "huge quotients": [1e-3, DIV_EPSILON, -1e-6, 2 * DIV_EPSILON],
}


class TestDivisionGuard:
    """A division takes its divisor's least magnitude once and clamps only where that can matter."""

    @staticmethod
    def columns(divisor):
        dividend = np.array([3.0, -1e9, 0.5, 7.0])
        return dividend, np.array(divisor, dtype=np.float64)

    @pytest.mark.parametrize("divisor", DIVISORS.values(), ids=DIVISORS.keys())
    def test_node_matches_the_old_guard_and_bounds_its_output(self, divisor):
        a, b = self.columns(divisor)
        with np.errstate(invalid="ignore"):
            out, bound = gp_core._apply("/", a, feature_bound(a[:, None]), b, feature_bound(b[:, None]))
            want = reference_divide(a, b)
        assert same_bits(out, want)
        assert type(bound) is float
        assert not (np.abs(out) > bound).any()

    @pytest.mark.parametrize("divisor", DIVISORS.values(), ids=DIVISORS.keys())
    def test_trees_match_the_reference_walk(self, divisor):
        a, b = self.columns(divisor)
        features = np.column_stack([a, b, np.array([1e6, -2.0, 0.25, 1e-12])])
        memo = SemanticsMemo(features)
        for text in (
            "(/ x0 x1)",
            "(/ 0.5 x1)",
            "(* (/ x0 x1) (/ x0 x1))",
            "(/ (* x0 x2) (- x1 x2))",
            "(+ (/ x2 x1) (/ x1 (* x1 x1)))",
            "(/ (/ x0 x1) (/ x1 x0))",
        ):
            tree = parse_prefix(text)
            with np.errstate(invalid="ignore", over="ignore"):
                want = reference_semantics(tree, features)
                assert same_bits(evaluate_semantics(tree, features), want), text
                assert same_bits(evaluate_semantics(tree, features, memo), want), text

    def test_empty_divisor(self):
        # A reduction over no rows needs its initial value: the least is inf.
        empty = np.zeros(0)
        out, bound = gp_core._apply("/", empty, 0.0, empty, 0.0)
        assert out.shape == (0,) and bound == 0.0 and type(bound) is float
        features = np.zeros((0, 2))
        for text in ("(/ x0 x1)", "(/ 1.0 (* x1 x0))", "(+ (/ x0 x1) 2.0)"):
            out = evaluate_semantics(parse_prefix(text), features)
            assert out.dtype == np.float64 and out.shape == (0,)

    def test_an_overflowing_bound_is_an_inf_float(self):
        # 1e300 / 1e-9 overflows: as Python floats that is inf, as numpy
        # scalars a RuntimeWarning, which this suite turns into a failure.
        a = np.array([1.0, -2.0])
        b = np.array([DIV_EPSILON, 4.0])
        out, bound = gp_core._apply("/", a, 1e300, b, 4.0)
        assert bound == VALUE_CLAMP and type(bound) is float
        assert same_bits(out, reference_divide(a, b))
        features = np.array([[1e300, DIV_EPSILON], [-1.0, 4.0]])
        tree = parse_prefix("(/ x0 x1)")
        with np.errstate(over="ignore"):
            want = reference_semantics(tree, features)
        # The array quotient itself overflows; only that is silenced.
        with np.errstate(over="ignore"):
            out = evaluate_semantics(tree, features)
        assert same_bits(out, want)
        assert out.tolist() == [VALUE_CLAMP, -0.25]

    def test_the_bound_comes_from_the_least_divisor(self):
        # 50 / DIV_EPSILON would be above the clamp; the least divisor gives 100.
        a = np.array([30.0, -50.0])
        out, bound = gp_core._apply("/", a, 50.0, np.array([0.5, -2.0]), 2.0)
        assert bound == 100.0 and out.tolist() == [60.0, 25.0]
        out, bound = gp_core._apply("/", a, 50.0, np.array([DIV_EPSILON, -2.0]), 2.0)
        assert bound == VALUE_CLAMP and out.tolist() == [VALUE_CLAMP, 25.0]

NEAR_CLAMP = (
    VALUE_CLAMP,
    -VALUE_CLAMP,
    float(np.nextafter(VALUE_CLAMP, 0.0)),
    float(np.nextafter(VALUE_CLAMP, math.inf)),
    -float(np.nextafter(VALUE_CLAMP, math.inf)),
    VALUE_CLAMP / 2,
    math.sqrt(VALUE_CLAMP),
)
near_clamp_values = st.one_of(
    st.floats(-1.0, 1.0),
    st.sampled_from(NEAR_CLAMP),
    st.floats(-2 * VALUE_CLAMP, 2 * VALUE_CLAMP),
)
# Finite matrices of 0 to 5 rows with entries at and around the +-1e10 clamp.
near_clamp_matrices = st.lists(
    st.lists(near_clamp_values, min_size=N_FEATURES, max_size=N_FEATURES), max_size=5
).map(lambda rows: np.array(rows, dtype=np.float64).reshape(len(rows), N_FEATURES))


class TestFeatureBound:
    @settings(max_examples=400, deadline=None)
    @given(finite_trees, st.one_of(near_clamp_matrices, scaled_matrices(st.floats(-10.0, 10.0))))
    def test_given_bound_is_bit_identical_and_finite(self, tree, features):
        with np.errstate(all="ignore"):
            out = evaluate_semantics(tree, features, SemanticsMemo(features))
            assert same_bits(out, evaluate_semantics(tree, features))
            assert same_bits(out, reference_semantics(tree, features))
        assert np.isfinite(out).all(), to_prefix(tree)

    @settings(max_examples=200, deadline=None)
    @given(trees, feature_matrices)
    def test_given_bound_matches_on_any_input(self, tree, features):
        with np.errstate(all="ignore"):
            out = evaluate_semantics(tree, features, SemanticsMemo(features))
            assert same_bits(out, evaluate_semantics(tree, features))

    def test_fortran_ordered_features_give_the_same_bits(self):
        rng = random.Random(5)
        data = np.random.default_rng(5).normal(scale=1e4, size=(40, N_FEATURES))
        columns = np.asfortranarray(data)
        memo = SemanticsMemo(columns)
        for _ in range(100):
            tree = grow_tree(PrimitiveSet(n_features=N_FEATURES), rng.randint(0, 8), rng)
            assert same_bits(evaluate_semantics(tree, columns, memo), evaluate_semantics(tree, data))


def check_memo(memo):
    """The memo's standing invariants: bounded, and every stored array read-only."""
    assert len(memo.entries) <= memo.capacity
    for _, value, _ in memo.entries.values():
        assert type(value) is not np.ndarray or not value.flags.writeable


class TestSemanticsMemo:
    @pytest.mark.parametrize("entries", [1, 2, 7, gp_core.MEMO_ENTRIES])
    @settings(max_examples=40, deadline=None)
    @given(parents=st.lists(finite_trees, min_size=2, max_size=4), features=feature_matrices, seed=seeds)
    def test_offspring_chains_match_unmemoized_and_reference(self, entries, parents, features, seed):
        # Offspring share every node off the variation path with their
        # parents; the pool keeps at most four trees, so dropped nodes die
        # and their ids can come back on new nodes while the memo holds them.
        # Constants are finite, as variation makes them; the matrices carry
        # NaN and inf.
        rng = random.Random(seed)
        ps = PrimitiveSet(n_features=N_FEATURES)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gp_core, "MEMO_ENTRIES", entries)
            memo = SemanticsMemo(features)
        assert memo.capacity == entries
        pool = list(parents)
        with np.errstate(all="ignore"):
            for _ in range(8):
                a, b = rng.sample(pool, 2)
                c1, c2 = subtree_crossover(a, b, rng, max_depth=17)
                c1 = subtree_mutation(c1, ps, rng, max_depth=17, subtree_depth=3)
                sub = subtree_at(c2, pick_crossover_point(c2, rng))
                for tree in (c1, c2, sub, a):
                    out = evaluate_semantics(tree, features, memo)
                    assert same_bits(out, evaluate_semantics(tree, features)), to_prefix(tree)
                    assert same_bits(out, reference_semantics(tree, features)), to_prefix(tree)
                    check_memo(memo)
                pool[rng.randrange(len(pool))] = c1
                pool[rng.randrange(len(pool))] = c2

    def test_holds_the_matrix_and_its_bound(self):
        features = np.array([[1.0, -4.0, 0.5], [2.0, 3.0, -0.25]])
        memo = SemanticsMemo(features)
        assert memo.features is features
        assert memo.bound == feature_bound(features) == 4.0
        assert memo.capacity == gp_core.MEMO_ENTRIES
        assert not memo.entries

    def test_results_are_shared_read_only_arrays(self):
        features = np.arange(12.0).reshape(4, 3)
        memo = SemanticsMemo(features)
        tree = sample_tree()
        out = evaluate_semantics(tree, features, memo)
        assert not out.flags.writeable
        assert evaluate_semantics(tree, features, memo) is out
        assert evaluate_semantics(tree, features).flags.writeable
        check_memo(memo)

    def test_refuses_another_matrix(self):
        features = np.arange(12.0).reshape(4, 3)
        memo = SemanticsMemo(features)
        for other in (features.copy(), features[:], np.zeros((4, 3))):
            with pytest.raises(ValueError, match="another feature matrix"):
                evaluate_semantics(sample_tree(), other, memo)

    def test_entry_of_another_node_misses(self):
        # An id that a dead node held and a new node reuses keeps a weak
        # reference to something else: it must be walked, not looked up.
        features = np.arange(12.0).reshape(4, 3)
        memo = SemanticsMemo(features)
        stale = Call("*", Feature(2), Feature(2))
        tree = Call("-", Feature(0), Feature(1))
        memo.entries[id(tree)] = (weakref.ref(stale), np.full(4, 99.0), 99.0)
        out = evaluate_semantics(tree, features, memo)
        assert same_bits(out, reference_semantics(tree, features))
        assert memo.entries[id(tree)][0]() is tree
        check_memo(memo)

    def test_an_entry_leaves_when_its_node_dies(self):
        features = np.arange(12.0).reshape(4, 3)
        memo = SemanticsMemo(features)
        tree = Call("+", Call("*", Feature(0), Feature(1)), Constant(1.0))
        evaluate_semantics(tree, features, memo)
        assert len(memo.entries) == 2
        kept = tree.left
        del tree
        assert [ref() for ref, _, _ in memo.entries.values()] == [kept]
        del kept
        assert not memo.entries

    def test_a_dropped_memo_frees_its_entries_by_reference_counting(self):
        # The entries' callbacks must not tie the memo or its entries into a cycle.
        features = np.arange(12.0).reshape(4, 3)
        memo = SemanticsMemo(features)
        tree = sample_tree()
        evaluate_semantics(tree, features, memo)
        entries = weakref.ref(memo.entries)
        assert entries()
        gc.collect()
        gc.disable()
        try:
            del memo
            assert entries() is None
        finally:
            gc.enable()

    def test_an_evaluation_leaves_no_cycle_that_holds_the_memo(self):
        # The recursive walk holds the memo's tables; it must not outlive the call.
        features = np.arange(12.0).reshape(4, 3)
        memo = SemanticsMemo(features)
        tree = sample_tree()
        entries = weakref.ref(memo.entries)
        gc.collect()
        gc.disable()
        try:
            evaluate_semantics(tree, features, memo)
            del memo
            assert entries() is None
        finally:
            gc.enable()

    def test_oldest_entry_leaves_first(self):
        features = np.arange(12.0).reshape(4, 3)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gp_core, "MEMO_ENTRIES", 2)
            memo = SemanticsMemo(features)
        nodes = [Call("+", Feature(i), Constant(1.0)) for i in range(3)]
        evaluate_semantics(nodes[0], features, memo)
        evaluate_semantics(nodes[1], features, memo)
        evaluate_semantics(nodes[0], features, memo)  # a hit moves it to the newest end
        evaluate_semantics(nodes[2], features, memo)
        assert [ref() for ref, _, _ in memo.entries.values()] == [nodes[0], nodes[2]]

    def test_capacity_is_zero_above_the_cut(self):
        cut = gp_core.MEMO_BYTES // (8 * gp_core.MEMO_ENTRIES)
        assert SemanticsMemo(np.zeros((cut, 2))).capacity == gp_core.MEMO_ENTRIES
        memo = SemanticsMemo(np.zeros((cut + 1, 2)))
        assert memo.capacity == 0
        out = evaluate_semantics(sample_tree(), memo.features, memo)
        assert out.flags.writeable and not memo.entries


def distinct_calls(trees):
    """The distinct function nodes of trees, by identity."""
    seen = {}
    stack = list(trees)
    while stack:
        node = stack.pop()
        if type(node) is Call and id(node) not in seen:
            seen[id(node)] = node
            stack += [node.left, node.right]
    return list(seen.values())


def offspring_batch(seed, n_cases=300):
    """Trees sharing subtrees as a generation's offspring do, on a matrix
    too large for the memo's entries, and those trees' parents.

    Besides crossover and mutation offspring it holds a repeated tree, a
    parent's subtree as a whole tree and a bare terminal.
    """
    rng = random.Random(seed)
    ps = PrimitiveSet(n_features=N_FEATURES)
    parents = [grow_tree(ps, rng.randint(2, 6), rng) for _ in range(6)]
    batch = []
    for _ in range(8):
        a, b = rng.sample(parents, 2)
        c1, c2 = subtree_crossover(a, b, rng, max_depth=17)
        batch += [c1, subtree_mutation(c2, ps, rng, max_depth=17, subtree_depth=3)]
    batch += [batch[0], subtree_at(parents[0], (0,)), Feature(1)]
    features = np.random.default_rng(seed).normal(scale=4.0, size=(n_cases, N_FEATURES))
    return batch, parents, features


def count_applies(monkeypatch):
    applied = []
    apply = gp_core._apply

    def counted(op, *args):
        applied.append(op)
        return apply(op, *args)

    monkeypatch.setattr(gp_core, "_apply", counted)
    return applied


class TestPlannedBatch:
    """Within planned(trees), each function node of the batch is computed once."""

    @pytest.mark.parametrize("seed", range(6))
    def test_outputs_match_unplanned_scoring(self, seed):
        batch, _, features = offspring_batch(seed)
        memo = SemanticsMemo(features)
        assert memo.capacity == 0
        with memo.planned(batch):
            got = [evaluate_semantics(tree, features, memo) for tree in batch]
        for tree, out in zip(batch, got):
            assert same_bits(out, evaluate_semantics(tree, features)), to_prefix(tree)
            assert same_bits(out, reference_semantics(tree, features)), to_prefix(tree)

    @pytest.mark.parametrize("seed", range(6))
    def test_one_apply_per_distinct_function_node(self, seed, monkeypatch):
        batch, _, features = offspring_batch(seed)
        memo = SemanticsMemo(features)
        unplanned = count_applies(monkeypatch)
        for tree in batch:
            evaluate_semantics(tree, features, memo)
        assert len(unplanned) == sum(tree.n_functions for tree in batch)
        planned = count_applies(monkeypatch)
        with memo.planned(batch):
            for tree in batch:
                evaluate_semantics(tree, features, memo)
        assert len(planned) == len(distinct_calls(batch)) < len(unplanned)

    @pytest.mark.parametrize("seed", range(3))
    def test_held_outputs_are_read_only_and_dropped_at_their_last_request(self, seed):
        batch, _, features = offspring_batch(seed)
        memo = SemanticsMemo(features)
        with memo.planned(batch):
            assert memo.requests and not memo.held
            assert all(count > 1 for count in memo.requests.values())
            for tree in batch:
                evaluate_semantics(tree, features, memo)
                for out, _ in memo.held.values():
                    assert type(out) is not np.ndarray or not out.flags.writeable
                assert memo.held.keys() <= memo.requests.keys()
            # Every request was made, so nothing is held any more.
            assert not memo.held and not memo.requests

    def test_state_is_empty_after_a_batch_that_raises(self, monkeypatch):
        batch, _, features = offspring_batch(0)
        memo = SemanticsMemo(features)
        apply = gp_core._apply
        calls = []

        def failing(*args):
            calls.append(args)
            if len(calls) == 40:
                raise FloatingPointError("raised inside the batch")
            return apply(*args)

        monkeypatch.setattr(gp_core, "_apply", failing)
        with pytest.raises(FloatingPointError):
            with memo.planned(batch):
                for tree in batch:
                    evaluate_semantics(tree, features, memo)
        assert memo.held == {} and memo.requests == {}
        monkeypatch.setattr(gp_core, "_apply", apply)
        for tree in batch:
            assert same_bits(evaluate_semantics(tree, features, memo), reference_semantics(tree, features))

    def test_a_memo_with_entries_plans_nothing(self):
        batch, _, features = offspring_batch(1, n_cases=40)
        memo = SemanticsMemo(features)
        assert memo.capacity == gp_core.MEMO_ENTRIES
        with memo.planned(batch):
            assert not memo.requests
            for tree in batch:
                out = evaluate_semantics(tree, features, memo)
                assert same_bits(out, reference_semantics(tree, features))
            assert not memo.held


class TestScoredMembers:
    """Within scored(members), a walk reaching a member's root reads its semantics."""

    def test_whole_and_containing_picks_read_the_semantics(self, monkeypatch):
        _, parents, features = offspring_batch(2)
        memo = SemanticsMemo(features)
        inner = parents[0]
        outer = Call("-", Call("*", inner, Feature(0)), Feature(1))
        members = [Individual(tree, evaluate_semantics(tree, features)) for tree in (inner, outer)]
        applied = count_applies(monkeypatch)
        with memo.scored(members):
            assert evaluate_semantics(outer, features, memo) is members[1].semantics
            assert evaluate_semantics(inner, features, memo) is members[0].semantics
            assert applied == []
            picked = subtree_at(outer, (0,))
            out = evaluate_semantics(picked, features, memo)
            assert applied == ["*"]
        assert same_bits(out, reference_semantics(picked, features))
        assert memo.held == {}

    def test_members_without_semantics_or_a_function_root_are_walked(self, monkeypatch):
        _, parents, features = offspring_batch(3)
        memo = SemanticsMemo(features)
        tree = parents[1]
        applied = count_applies(monkeypatch)
        with memo.scored([Individual(tree), Individual(Feature(0), np.zeros(len(features)))]):
            assert not memo.held
            out = evaluate_semantics(tree, features, memo)
        assert len(applied) == tree.n_functions
        assert same_bits(out, reference_semantics(tree, features))

    def test_state_is_empty_after_a_block_that_raises(self):
        _, parents, features = offspring_batch(4)
        memo = SemanticsMemo(features)
        member = Individual(parents[2], evaluate_semantics(parents[2], features))
        with pytest.raises(KeyError):
            with memo.scored([member]):
                assert memo.held
                raise KeyError("raised inside the block")
        assert memo.held == {}


class TestCrossover:
    def test_single_node_parents_swap_roots(self):
        c1, c2 = subtree_crossover(Feature(0), Constant(2.0), random.Random(0), max_depth=17)
        assert c1 == Constant(2.0)
        assert c2 == Feature(0)

    def test_offspring_respect_max_depth(self):
        rng = random.Random(6)
        for _ in range(500):
            p1 = grow_tree(PS, rng.randint(1, 6), rng)
            p2 = grow_tree(PS, rng.randint(1, 6), rng)
            c1, c2 = subtree_crossover(p1, p2, rng, max_depth=7)
            assert tree_depth(c1) <= 7
            assert tree_depth(c2) <= 7

    def test_parents_unchanged(self):
        rng = random.Random(7)
        p1 = grow_tree(PS, 4, rng)
        p2 = grow_tree(PS, 4, rng)
        before = (to_prefix(p1), to_prefix(p2))
        subtree_crossover(p1, p2, rng, max_depth=17)
        assert (to_prefix(p1), to_prefix(p2)) == before

    def test_depth_retries_then_parents_returned(self):
        # Script every attempt to graft p2's root onto p1's deepest function,
        # which always exceeds the depth cap, so all retries fail.
        p1 = left_comb(17)
        p2 = left_comb(17)
        script = [0.0, "last", 0.0, 0] * (1 + CROSSOVER_DEPTH_RETRIES)
        rng = ScriptedRandom(script)
        c1, c2 = subtree_crossover(p1, p2, rng, max_depth=17)
        assert not rng.script
        assert c1 is p1
        assert c2 is p2

    def test_function_bias_picks_function_points(self):
        tree = sample_tree()
        rng = ScriptedRandom([0.89, 0])
        assert pick_crossover_point(tree, rng) == ()
        rng = ScriptedRandom([0.91, 0])
        assert pick_crossover_point(tree, rng) == (0,)


def reference_subtree_crossover(p1, p2, rng, max_depth):
    """subtree_crossover as it was: both offspring built on every try."""
    for _ in range(1 + CROSSOVER_DEPTH_RETRIES):
        point1 = pick_crossover_point(p1, rng)
        point2 = pick_crossover_point(p2, rng)
        child1 = replace_subtree(p1, point1, subtree_at(p2, point2))
        child2 = replace_subtree(p2, point2, subtree_at(p1, point1))
        if tree_depth(child1) <= max_depth and tree_depth(child2) <= max_depth:
            return child1, child2
    return p1, p2


def reference_breed_one(variation, a, b, rng):
    """Variation.breed_one as it was: the first of two built offspring."""
    if rng.random() < variation.params.crossover_rate:
        if variation.crossover is not None:
            tree = exchanged(a, b, variation.crossover(a, b, rng))[0]
        else:
            tree = reference_subtree_crossover(a.tree, b.tree, rng, variation.params.max_depth)[0]
    else:
        tree = a.tree
    return variation._mutate(tree, rng)


def swapped_crossover(a, b, rng):
    """A crossover hook: plain crossover's points, drawn with the parents' roles swapped."""
    points = gp_core._crossover_points(b.tree, a.tree, rng, 9)
    return None if points is None else points[::-1]


class TestOffspringOracles:
    """Offspring built only once accepted, against the build-every-try forms."""

    @settings(max_examples=200, deadline=None)
    @given(shaped_trees, shaped_trees)
    def test_depth_after_replace_matches_the_built_tree(self, tree, replacement):
        for path, _ in iter_paths(tree):
            built = replace_subtree(tree, path, replacement)
            want = reference_shape(built)[1]
            assert gp_core._depth_after_replace(tree, path, replacement) == want == tree_depth(built)

    @settings(max_examples=300, deadline=None)
    @given(shaped_trees, shaped_trees, seeds, st.integers(3, 17))
    def test_crossover_matches_reference(self, p1, p2, seed, max_depth):
        fast, slow = random.Random(seed), random.Random(seed)
        got = subtree_crossover(p1, p2, fast, max_depth)
        want = reference_subtree_crossover(p1, p2, slow, max_depth)
        assert got == want
        assert (got[0] is p1) == (want[0] is p1)
        assert fast.getstate() == slow.getstate()

    @settings(max_examples=300, deadline=None)
    @given(
        shaped_trees,
        shaped_trees,
        seeds,
        st.integers(3, 17),
        st.sampled_from([0.0, 0.5, 1.0]),
        st.sampled_from([0.0, 0.5, 1.0]),
        st.sampled_from([None, swapped_crossover]),
    )
    def test_breed_one_matches_reference(self, t1, t2, seed, max_depth, cx_rate, mut_rate, hook):
        params = GPParams(
            init_max_depth=3, max_depth=max_depth, crossover_rate=cx_rate, mutation_rate=mut_rate
        )
        variation = Variation(PS, params, crossover=hook)
        a, b = Individual(tree=t1), Individual(tree=t2)
        fast, slow = random.Random(seed), random.Random(seed)
        got = variation.breed_one(a, b, fast)
        assert got == reference_breed_one(variation, a, b, slow)
        assert fast.getstate() == slow.getstate()

    def test_retries_and_give_ups_occur_and_match(self, monkeypatch):
        # The hypothesis draws above reach both; this pins that they do.
        picks = []
        pick = gp_core.pick_crossover_point

        def counted(tree, rng):
            picks.append(1)
            return pick(tree, rng)

        monkeypatch.setattr(gp_core, "pick_crossover_point", counted)
        rng = random.Random(21)
        crossings = give_ups = 0
        for _ in range(400):
            p1 = grow_tree(PS, rng.randint(2, 8), rng)
            p2 = grow_tree(PS, rng.randint(2, 8), rng)
            max_depth = rng.randint(3, 9)
            seed = rng.getrandbits(32)
            fast, slow = random.Random(seed), random.Random(seed)
            got = subtree_crossover(p1, p2, fast, max_depth)
            assert got == reference_subtree_crossover(p1, p2, slow, max_depth)
            assert fast.getstate() == slow.getstate()
            crossings += 1
            give_ups += got[0] is p1
        # Only subtree_crossover reads the patched picker, two picks a try.
        tries = len(picks) // 2
        assert give_ups > 0
        assert tries > crossings


class TestPointPicking:
    """The pickers descend by counts; listing every path is their oracle."""

    @settings(max_examples=300, deadline=None)
    @given(shaped_trees, seeds)
    def test_same_paths_and_draws_as_listing(self, tree, seed):
        fast, slow = random.Random(seed), random.Random(seed)
        for _ in range(6):
            assert pick_crossover_point(tree, fast) == listed_crossover_point(tree, slow)
            assert pick_uniform_point(tree, fast) == listed_uniform_point(tree, slow)
        assert fast.getstate() == slow.getstate()

    @settings(max_examples=100, deadline=None)
    @given(shaped_trees)
    def test_every_index_reaches_its_listed_path(self, tree):
        listed = list(iter_paths(tree))
        functions = [path for path, node in listed if isinstance(node, Call)]
        terminals = [path for path, node in listed if not isinstance(node, Call)]
        for k, (path, _) in enumerate(listed):
            assert pick_uniform_point(tree, ScriptedRandom([k])) == path
        for k, path in enumerate(functions):
            assert pick_crossover_point(tree, ScriptedRandom([0.0, k])) == path
        for k, path in enumerate(terminals):
            script = [0.95, k] if functions else [k]
            assert pick_crossover_point(tree, ScriptedRandom(script)) == path

    def test_bare_terminal_draws_only_the_index(self):
        rng, expected = random.Random(0), random.Random(0)
        assert pick_crossover_point(Constant(0.5), rng) == ()
        expected.randrange(1)
        assert rng.getstate() == expected.getstate()


class TestMutation:
    def test_respects_depth_budget(self):
        rng = random.Random(8)
        for _ in range(1000):
            tree = grow_tree(PS, rng.randint(1, 6), rng)
            mutated = subtree_mutation(tree, PS, rng, max_depth=6, subtree_depth=4)
            assert tree_depth(mutated) <= 6

    def test_terminal_parent_becomes_fresh_subtree(self):
        rng = ScriptedRandom([0])
        rng.script.append(0)
        mutated = subtree_mutation(Feature(1), PS, rng, max_depth=17, subtree_depth=4)
        assert tree_depth(mutated) <= 4

    def test_deterministic_per_seed(self):
        tree = sample_tree()
        a = subtree_mutation(tree, PS, random.Random(9), max_depth=17, subtree_depth=4)
        b = subtree_mutation(tree, PS, random.Random(9), max_depth=17, subtree_depth=4)
        assert a == b

    def test_original_not_modified(self):
        tree = sample_tree()
        subtree_mutation(tree, PS, random.Random(10), max_depth=17, subtree_depth=4)
        assert tree == sample_tree()


class TestSerialization:
    def test_prefix_format(self):
        assert to_prefix(sample_tree()) == "(+ x0 (* 0.5 x1))"
        assert to_prefix(Feature(3)) == "x3"
        assert to_prefix(Constant(-1.25)) == "-1.25"

    def test_round_trip_hand_case(self):
        assert parse_prefix("(+ x0 (* 0.5 x1))") == sample_tree()

    def test_round_trip_random_trees(self):
        rng = random.Random(11)
        for _ in range(200):
            tree = grow_tree(PS, rng.randint(0, 5), rng)
            assert parse_prefix(to_prefix(tree)) == tree

    def test_round_trip_preserves_semantics_exactly(self):
        rng = random.Random(12)
        features = np.array([[0.3, -1.7], [2.0, 0.0], [-9.9, 4.2]])
        for _ in range(100):
            tree = grow_tree(PS, rng.randint(0, 5), rng)
            reparsed = parse_prefix(to_prefix(tree))
            assert np.array_equal(
                evaluate_semantics(tree, features), evaluate_semantics(reparsed, features)
            )

    def test_parse_errors(self):
        with pytest.raises(ValueError, match="unknown operator"):
            parse_prefix("(^ x0 x1)")
        with pytest.raises(ValueError, match="trailing"):
            parse_prefix("x0 x1")
        with pytest.raises(ValueError):
            parse_prefix("(+ x0)")
        with pytest.raises(ValueError):
            parse_prefix("zebra")

    @pytest.mark.parametrize("text", ["", "(", "(+ x0", "(+ x0 x1"])
    def test_truncated_program_ends_early(self, text):
        with pytest.raises(ValueError, match="program ends early"):
            parse_prefix(text)


class TestParams:
    def test_defaults(self):
        params = GPParams()
        assert params.pop_size == 100
        assert params.generations == 30
        assert params.max_depth == 17
        assert params.crossover_rate == 0.9
        assert params.mutation_rate == 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            GPParams(pop_size=0)
        with pytest.raises(ValueError):
            GPParams(generations=0)
        with pytest.raises(ValueError):
            GPParams(crossover_rate=1.5)
        with pytest.raises(ValueError):
            GPParams(init_min_depth=4, init_max_depth=2)
        with pytest.raises(ValueError):
            GPParams(max_depth=1, init_max_depth=6)
        with pytest.raises(ValueError):
            GPParams(mutation_subtree_depth=-1)


class TestVariation:
    def test_zero_rates_copy_parents(self):
        variation = Variation(PS, GPParams(crossover_rate=0.0, mutation_rate=0.0))
        a = Individual(tree=sample_tree())
        b = Individual(tree=Feature(1))
        t1, t2 = variation.breed_pair(a, b, random.Random(0))
        assert t1 is a.tree
        assert t2 is b.tree

    def test_offspring_respect_max_depth(self):
        params = GPParams(crossover_rate=1.0, mutation_rate=1.0, max_depth=8)
        variation = Variation(PS, params)
        rng = random.Random(13)
        for _ in range(200):
            a = Individual(tree=grow_tree(PS, rng.randint(1, 6), rng))
            b = Individual(tree=grow_tree(PS, rng.randint(1, 6), rng))
            t1, t2 = variation.breed_pair(a, b, rng)
            assert tree_depth(t1) <= 8
            assert tree_depth(t2) <= 8

    def test_crossover_hook_is_used(self):
        calls = []

        def hook(a, b, rng):
            calls.append((a, b))
            return (), ()

        variation = Variation(PS, GPParams(crossover_rate=1.0, mutation_rate=0.0), crossover=hook)
        a = Individual(tree=Feature(0))
        b = Individual(tree=Feature(1))
        t1, t2 = variation.breed_pair(a, b, random.Random(0))
        assert calls == [(a, b)]
        assert (t1, t2) == (Feature(1), Feature(0))

    def test_breed_one_returns_first_child(self):
        variation = Variation(PS, GPParams(crossover_rate=1.0, mutation_rate=0.0))
        a = Individual(tree=Feature(0))
        b = Individual(tree=Constant(2.0))
        tree = variation.breed_one(a, b, random.Random(0))
        assert tree == Constant(2.0)

    def test_function_set_is_closed_arithmetic(self):
        assert FUNCTIONS == ("+", "-", "*", "/")
