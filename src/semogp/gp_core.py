"""Expression-tree programs: construction, variation, and vectorized evaluation.

Programs are binary arithmetic trees over the four operators +, -, * and a
protected division. Terminals are feature references and ephemeral random
constants. Trees are immutable values: variation builds new trees that share
unchanged subtrees with their parents.

Every node knows its own shape: a Call records its size, depth and number
of function nodes when it is built, and terminals carry the constants 1, 0
and 0. Depth and size are attribute reads, and point picking descends from
the root to the k-th node in preorder by those counts instead of listing
every path.
"""

from __future__ import annotations

import random
import weakref
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Union

import numpy as np

FUNCTIONS = ("+", "-", "*", "/")
DIV_EPSILON = 1e-9
# Magnitude clamp on every function node's output (evaluate_semantics skips
# it where it cannot change a value). Without it, repeated multiplication
# overflows float64 well inside the depth limit. So it also bounds every
# non-NaN element of any function node's output, which is the walk bound a
# scored parent's output is read with.
VALUE_CLAMP = 1e10
FUNCTION_POINT_BIAS = 0.9
CROSSOVER_DEPTH_RETRIES = 5
# SemanticsMemo keeps up to MEMO_ENTRIES recently used function-node
# outputs when that many float64 outputs fit in MEMO_BYTES; otherwise it
# keeps none of those, and only holds the outputs a planned batch shares.
MEMO_ENTRIES = 256
MEMO_BYTES = 1 << 19


@dataclass(frozen=True)
class Feature:
    """Terminal referencing one input feature."""

    index: int
    size: ClassVar[int] = 1
    depth: ClassVar[int] = 0
    n_functions: ClassVar[int] = 0


@dataclass(frozen=True)
class Constant:
    """Terminal holding an ephemeral random constant."""

    value: float
    size: ClassVar[int] = 1
    depth: ClassVar[int] = 0
    n_functions: ClassVar[int] = 0


@dataclass(frozen=True)
class Call:
    """Application of a binary operator to two subtrees.

    size (nodes), depth (a lone node is 0) and n_functions (Call nodes) are
    derived from the children on construction; they take no part in
    equality, hashing or repr.
    """

    op: str
    left: "Node"
    right: "Node"
    size: int = field(init=False, compare=False, repr=False)
    depth: int = field(init=False, compare=False, repr=False)
    n_functions: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        left, right = self.left, self.right
        object.__setattr__(self, "size", 1 + left.size + right.size)
        object.__setattr__(self, "depth", 1 + max(left.depth, right.depth))
        object.__setattr__(self, "n_functions", 1 + left.n_functions + right.n_functions)


Node = Union[Feature, Constant, Call]
Path = tuple[int, ...]


@dataclass
class Individual:
    """A program plus its cached behaviour and objective values.

    The caches are either None or consistent with the tree and the dataset
    the evaluator was built on; evaluated individuals are never mutated.
    semantics may be a read-only array that a SemanticsMemo, and so other
    individuals sharing the tree's root node, hold too. An initial
    member's tree and read-only arrays may be shared with the initial
    members of other runs on the same training data and seed.
    """

    tree: Node
    semantics: np.ndarray | None = None
    objectives: np.ndarray | None = None


Population = list[Individual]


@dataclass(frozen=True)
class PrimitiveSet:
    """Tree-building primitives: the features, constants in [-1, 1] and FUNCTIONS."""

    n_features: int

    def __post_init__(self):
        if self.n_features < 1:
            raise ValueError("primitive set needs at least one feature")

    def random_terminal(self, rng: random.Random) -> Node:
        # Uniform over the feature references plus one constant slot.
        pick = rng.randrange(self.n_features + 1)
        if pick == self.n_features:
            return Constant(rng.uniform(-1.0, 1.0))
        return Feature(pick)

    def random_function(self, rng: random.Random) -> str:
        return FUNCTIONS[rng.randrange(len(FUNCTIONS))]


def grow_tree(ps: PrimitiveSet, target_depth: int, rng: random.Random, _depth: int = 0) -> Node:
    """Grow-method tree of depth at most target_depth (root at depth 0).

    The root is a function node whenever target_depth >= 1, so grown trees
    always reach depth 1 or more unless a bare terminal was requested.
    """
    at_limit = _depth >= target_depth
    if at_limit or (_depth >= 1 and rng.random() < 0.5):
        return ps.random_terminal(rng)
    op = ps.random_function(rng)
    return Call(
        op,
        grow_tree(ps, target_depth, rng, _depth + 1),
        grow_tree(ps, target_depth, rng, _depth + 1),
    )


def full_tree(ps: PrimitiveSet, target_depth: int, rng: random.Random, _depth: int = 0) -> Node:
    """Full-method tree of exactly target_depth (root at depth 0)."""
    if _depth >= target_depth:
        return ps.random_terminal(rng)
    op = ps.random_function(rng)
    return Call(
        op,
        full_tree(ps, target_depth, rng, _depth + 1),
        full_tree(ps, target_depth, rng, _depth + 1),
    )


def ramped_half_and_half(
    pop_size: int,
    ps: PrimitiveSet,
    rng: random.Random,
    min_depth: int,
    max_depth: int,
) -> list[Node]:
    """Initial trees with depths ramped across [min_depth, max_depth].

    Alternates the full and grow methods while cycling the target depth, the
    classic half-and-half initialization.
    """
    if pop_size < 2:
        raise ValueError("population size must be at least 2")
    if not 1 <= min_depth <= max_depth:
        raise ValueError("need 1 <= min_depth <= max_depth")
    span = max_depth - min_depth + 1
    trees = []
    for i in range(pop_size):
        depth = min_depth + (i % span)
        method = full_tree if i % 2 == 0 else grow_tree
        trees.append(method(ps, depth, rng))
    return trees


def feature_bound(features: np.ndarray) -> float:
    """max |feature| over a feature matrix (0.0 for an empty one).

    It depends on the dataset alone, so a SemanticsMemo computes it once
    for every tree scored on its matrix.
    """
    return float(np.abs(np.asarray(features, dtype=np.float64)).max(initial=0.0))


class _NodeRef(weakref.ref):
    """A memo entry's weak reference to its node, carrying the entry's key."""

    __slots__ = ("key",)


def _forgetter(entries: OrderedDict) -> Callable[[_NodeRef], None]:
    """The callback that removes a node's entry from entries when the node dies.

    It holds entries weakly, so a memo and its entries are freed by
    reference counting alone.
    """
    table = weakref.ref(entries)

    def forget(ref: _NodeRef):
        live = table()
        if live is not None and live.get(ref.key, (None,))[0] is ref:
            del live[ref.key]

    return forget


class SemanticsMemo:
    """What evaluate_semantics reuses across the trees scored on one matrix.

    It holds the matrix, its feature_bound, and the outputs of recently
    computed function nodes keyed by node identity: id(node) maps to
    (weak reference to the node, output, walk bound). An entry leaves when
    its node dies, and counts only while its reference still resolves to
    the node looked up, so a reused id misses, and the memo never keeps a
    tree alive. The capacity most recently used entries are kept:
    MEMO_ENTRIES where that many outputs fit in MEMO_BYTES (at most 256
    cases by default), else 0, so that no node is kept. On larger matrices
    such entries save time only while they hold megabytes of outputs;
    planned batches reuse nodes there instead.

    At any size it also holds, in held, outputs that are certain to be
    read again: id(node) -> (output, walk bound). Within planned(trees),
    each function node the walks over a batch will request twice or more
    is held from its first computation to its last request, and requests
    counts the requests left. Within scored(members), the root of each
    member with semantics maps to them. Both are emptied when their block
    ends, however it ends, and the ids are those of nodes the caller keeps
    alive for the whole block, so no id can be reused inside it.
    """

    def __init__(self, features: np.ndarray):
        self.features = features
        self.bound = feature_bound(features)
        n_cases = np.shape(features)[0]
        self.capacity = MEMO_ENTRIES if MEMO_ENTRIES * 8 * n_cases <= MEMO_BYTES else 0
        self.entries: OrderedDict[int, tuple[_NodeRef, np.ndarray | float, float]] = OrderedDict()
        self.forget = _forgetter(self.entries)
        self.held: dict[int, tuple[np.ndarray | float, float]] = {}
        self.requests: dict[int, int] = {}

    @contextmanager
    def planned(self, trees):
        """Within the block, scoring each of trees once computes each of their function nodes once.

        A node's requests are one per tree rooted at it plus one per side
        of each distinct function node it is a child of, as every node
        requested is computed once and its children requested then. Each
        tree's root counts, so a tree scored twice in the batch is
        computed once. The caller keeps every tree alive until the block
        ends and scores no other tree through this memo inside it.

        A memo with a capacity plans nothing: its entries already keep
        recent nodes, and nodes held for the plan instead would be missing
        from them for the later batches and ssc trials that hit them.
        """
        counts: dict[int, int] = {}
        stack = [] if self.capacity else [tree for tree in trees if type(tree) is Call]
        push = stack.append
        while stack:
            node = stack.pop()
            key = id(node)
            if key in counts:
                counts[key] += 1
                continue
            counts[key] = 1
            if type(node.left) is Call:
                push(node.left)
            if type(node.right) is Call:
                push(node.right)
        self.requests.update((key, count) for key, count in counts.items() if count > 1)
        try:
            yield
        finally:
            self.held.clear()
            self.requests.clear()

    @contextmanager
    def scored(self, members):
        """Read each member's semantics for its function-node root while the block runs.

        A member's semantics, when not None, must be
        evaluate_semantics(member.tree, features), and the caller keeps
        every member's tree alive until the block ends. A walk that reaches
        such a root, as the whole tree or inside another, returns the
        semantics with VALUE_CLAMP as their bound.
        """
        for member in members:
            if type(member.tree) is Call and member.semantics is not None:
                self.held[id(member.tree)] = (member.semantics, VALUE_CLAMP)
        try:
            yield
        finally:
            self.held.clear()


def _apply(op: str, a, a_bound: float, b, b_bound: float):
    """One function node's (output, bound) from its children's.

    The output is clamped to +-VALUE_CLAMP only where its bound can exceed
    the clamp (a NaN or inf bound included), and is then a fresh array or a
    Python float. An array divisor's least magnitude is taken in one
    reduction: when it is at least DIV_EPSILON (an empty divisor's is
    inf), no element is protected and a_bound / least bounds the quotient;
    otherwise, a NaN least included, the protected quotient is bounded by
    a_bound / DIV_EPSILON or 1. Bounds are Python floats, so a bound that
    overflows is inf, never a numpy warning.
    """
    if op == "+":
        out, bound = a + b, a_bound + b_bound
    elif op == "-":
        out, bound = a - b, a_bound + b_bound
    elif op == "*":
        out, bound = a * b, a_bound * b_bound
    elif type(b) is not np.ndarray:
        if abs(b) < DIV_EPSILON:
            return 1.0, 1.0
        out, bound = a / b, a_bound / abs(b)
    else:
        magnitude = np.abs(b)
        least = float(np.minimum.reduce(magnitude, initial=np.inf))
        if least >= DIV_EPSILON:
            out, bound = a / b, a_bound / least
        else:
            small = magnitude < DIV_EPSILON
            out = np.where(small, 1.0, np.divide(a, np.where(small, 1.0, b)))
            bound = max(a_bound / DIV_EPSILON, 1.0)
    if bound <= VALUE_CLAMP:
        return out, bound
    if type(out) is np.ndarray:
        # Function-node outputs are fresh arrays, never views of features.
        # Two ufunc calls give np.clip's bits, NaNs included, without the
        # Python-level dispatch np.clip goes through.
        np.maximum(out, -VALUE_CLAMP, out=out)
        np.minimum(out, VALUE_CLAMP, out=out)
    else:
        out = min(max(out, -VALUE_CLAMP), VALUE_CLAMP)
    return out, VALUE_CLAMP


def evaluate_semantics(tree: Node, features: np.ndarray, memo: SemanticsMemo | None = None) -> np.ndarray:
    """Program outputs over every row of a feature matrix, as a float64 array.

    Division is protected (denominators below 1e-9 in magnitude yield 1.0)
    and the result is as if every function node's output were clamped to
    +-1e10, so the output is finite for any tree and any finite inputs.

    The clamp is skipped only where it is the identity. The walk carries a
    bound >= |value| for every non-NaN element, built from max |feature| and
    |constant| with the node's own operation (a division's from the least
    |divisor| the node sees, see _apply); round-to-nearest is monotone, so
    the computed value never exceeds the computed bound. Any such bound
    gives the same bits, as the clamp is the identity below it. A node whose
    bound is above the clamp, inf or NaN is clamped. Constants stay Python
    floats and broadcast; constant-only subtrees compute the same IEEE
    doubles in Python.

    Only the sign and the payload of a NaN can differ from an all-numpy
    walk: IEEE 754 does not fix which operand's NaN an operation returns,
    and Python's float arithmetic and numpy's vector loops choose
    differently. On x86-64, (+ (+ 0.0 nan) (+ inf -inf)) gives 0xfff8...
    from this walk and 0x7ff8... from numpy arrays, and (+ c1 c2) with c1 =
    0x7ff8...0 and c2 = 0x7ff8...1 gives ...1 from this walk and ...0 from
    numpy. Numpy does not agree with itself either: with a = 0x7ff8... and
    b = 0xfff8..., np.full(n, a) + np.full(n, b) gives a's NaN in its
    8-wide blocks and b's in the tail, so both signs in one array for n =
    15 or 17. Runs build no NaN constant, and the NaN is a NaN either way.

    memo, when given, must have been built on this very features object
    (ValueError otherwise); its bound is used, a function node it holds
    (see SemanticsMemo.planned and SemanticsMemo.scored) is read, not
    walked, and when its capacity is above 0 every other function node is
    looked up in its entries before being walked and stored in them after.
    The outputs are the same bits either way, but with a memo a
    function-node root's result may be a read-only array the memo holds,
    or a scored member's own semantics, and shared with other callers;
    without one it is a fresh array. Feature columns are read as
    features[:, i], which is contiguous for the Fortran-ordered matrices a
    Dataset holds.
    """
    if memo is None:
        column_bound, capacity, held, requests = feature_bound(features), 0, {}, {}
    elif memo.features is not features:
        raise ValueError("memo was built on another feature matrix")
    else:
        column_bound, capacity, entries, forget = memo.bound, memo.capacity, memo.entries, memo.forget
        held, requests = memo.held, memo.requests
    features = np.asarray(features, dtype=np.float64)

    def walk(node: Node):
        kind = type(node)
        if kind is Feature:
            return features[:, node.index], column_bound
        if kind is Constant:
            return node.value, abs(node.value)
        key = id(node)
        left = requests.get(key)
        entry = held.get(key)
        if entry is None and left:
            # The first of a planned node's requests: hold it for the rest.
            entry = held[key] = _apply(node.op, *walk(node.left), *walk(node.right))
            if type(entry[0]) is np.ndarray:
                entry[0].flags.writeable = False
        if entry is not None:
            if left == 1:
                del held[key], requests[key]
            elif left:
                requests[key] = left - 1
            return entry
        if not capacity:
            return _apply(node.op, *walk(node.left), *walk(node.right))
        entry = entries.pop(key, None)
        if entry is not None and entry[0]() is node:
            # Re-inserting moves the hit to the most recently used end.
            entries[key] = entry
            return entry[1], entry[2]
        out, bound = _apply(node.op, *walk(node.left), *walk(node.right))
        if type(out) is np.ndarray:
            out.flags.writeable = False
        ref = _NodeRef(node, forget)
        ref.key = key
        entries[key] = (ref, out, bound)
        if len(entries) > capacity:
            entries.popitem(last=False)
        return out, bound

    try:
        result, _ = walk(tree)
    finally:
        # walk refers to itself through its closure cell; deleting it breaks
        # that cycle, so a dropped memo's tables go by reference counting.
        del walk
    if type(result) is not np.ndarray:
        return np.full(features.shape[0], result, dtype=np.float64)
    if type(tree) is Feature:
        # A bare feature terminal is a view into the (possibly read-only) matrix.
        return result.copy()
    return result


def tree_depth(tree: Node) -> int:
    """Depth of the deepest node, with a lone node at depth 0."""
    return tree.depth


def node_count(tree: Node) -> int:
    return tree.size


def subtree_at(tree: Node, path: Path) -> Node:
    node = tree
    for step in path:
        node = node.left if step == 0 else node.right
    return node


def replace_subtree(tree: Node, path: Path, replacement: Node) -> Node:
    """New tree with the subtree at path swapped out; shares all other nodes."""
    if not path:
        return replacement
    if not isinstance(tree, Call):
        raise ValueError("path descends below a terminal")
    if path[0] == 0:
        return Call(tree.op, replace_subtree(tree.left, path[1:], replacement), tree.right)
    return Call(tree.op, tree.left, replace_subtree(tree.right, path[1:], replacement))


def _nth_in_preorder(tree: Node, k: int, count: str) -> Path:
    """Path to the k-th node, in preorder, among the Call nodes (count
    "n_functions") or among all nodes (count "size"); the root is one of them."""
    path = []
    node = tree
    while k:
        k -= 1
        left = node.left
        in_left = getattr(left, count)
        if k < in_left:
            path.append(0)
            node = left
        else:
            k -= in_left
            path.append(1)
            node = node.right
    return tuple(path)


def _nth_terminal(tree: Node, k: int) -> Path:
    """Path to the k-th terminal in preorder."""
    path = []
    node = tree
    while type(node) is Call:
        left = node.left
        in_left = left.size - left.n_functions
        if k < in_left:
            path.append(0)
            node = left
        else:
            k -= in_left
            path.append(1)
            node = node.right
    return tuple(path)


def pick_crossover_point(tree: Node, rng: random.Random) -> Path:
    # Koza-style bias: prefer function nodes 90% of the time when any exist.
    # Every tree has a terminal, so random() is drawn exactly when it has a function.
    n_functions = tree.n_functions
    if n_functions and rng.random() < FUNCTION_POINT_BIAS:
        return _nth_in_preorder(tree, rng.randrange(n_functions), "n_functions")
    return _nth_terminal(tree, rng.randrange(tree.size - n_functions))


def pick_uniform_point(tree: Node, rng: random.Random) -> Path:
    return _nth_in_preorder(tree, rng.randrange(tree.size), "size")


def _depth_after_replace(tree: Node, path: Path, replacement: Node) -> int:
    """tree_depth(replace_subtree(tree, path, replacement)), building nothing.

    The new tree's deepest node lies in the replacement, at len(path) plus
    its depth, or in the sibling subtree hanging off the path at some level.
    """
    depth = len(path) + replacement.depth
    node = tree
    for level, step in enumerate(path, 1):
        if step == 0:
            sibling, node = node.right, node.left
        else:
            sibling, node = node.left, node.right
        depth = max(depth, level + sibling.depth)
    return depth


def _crossover_points(p1: Node, p2: Node, rng: random.Random, max_depth: int) -> tuple[Path, Path] | None:
    """The points subtree_crossover exchanges at, or None when it gives up.

    Draws a point in each parent, and draws again, up to five more times,
    while either offspring would exceed max_depth. No offspring is built.
    """
    for _ in range(1 + CROSSOVER_DEPTH_RETRIES):
        point1 = pick_crossover_point(p1, rng)
        point2 = pick_crossover_point(p2, rng)
        if (
            _depth_after_replace(p1, point1, subtree_at(p2, point2)) <= max_depth
            and _depth_after_replace(p2, point2, subtree_at(p1, point1)) <= max_depth
        ):
            return point1, point2
    return None


def _exchange(p1: Node, p2: Node, point1: Path, point2: Path) -> tuple[Node, Node]:
    """The offspring of swapping p1's subtree at point1 with p2's at point2."""
    return (
        replace_subtree(p1, point1, subtree_at(p2, point2)),
        replace_subtree(p2, point2, subtree_at(p1, point1)),
    )


def subtree_crossover(p1: Node, p2: Node, rng: random.Random, max_depth: int) -> tuple[Node, Node]:
    """Exchange one subtree between two parents.

    Point selection is retried up to five times when an offspring would
    exceed max_depth; after that the parents are returned unchanged. Parents
    are never modified (trees are immutable).
    """
    points = _crossover_points(p1, p2, rng, max_depth)
    return (p1, p2) if points is None else _exchange(p1, p2, *points)


def subtree_mutation(
    tree: Node,
    ps: PrimitiveSet,
    rng: random.Random,
    max_depth: int,
    subtree_depth: int,
) -> Node:
    """Replace one uniformly chosen node's subtree with a fresh grown subtree.

    The fresh subtree's target depth is drawn from [0, subtree_depth] and
    capped so the result never exceeds max_depth.
    """
    path = pick_uniform_point(tree, rng)
    budget = max_depth - len(path)
    target = min(rng.randint(0, subtree_depth), budget)
    fresh = grow_tree(ps, target, rng)
    return replace_subtree(tree, path, fresh)


def to_prefix(tree: Node) -> str:
    """Serialize a tree to prefix form, e.g. (+ x0 (* 0.5 x1))."""
    if isinstance(tree, Feature):
        return f"x{tree.index}"
    if isinstance(tree, Constant):
        return repr(tree.value)
    return f"({tree.op} {to_prefix(tree.left)} {to_prefix(tree.right)})"


def parse_prefix(text: str) -> Node:
    """Parse the prefix form produced by to_prefix."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()

    def read(pos: int) -> tuple[Node, int]:
        tok = tokens[pos]
        if tok == "(":
            op = tokens[pos + 1]
            if op not in FUNCTIONS:
                raise ValueError(f"unknown operator {op!r}")
            left, pos = read(pos + 2)
            right, pos = read(pos)
            if tokens[pos] != ")":
                raise ValueError("expected closing parenthesis")
            return Call(op, left, right), pos + 1
        if tok.startswith("x") and tok[1:].isdigit():
            return Feature(int(tok[1:])), pos + 1
        return Constant(float(tok)), pos + 1

    try:
        node, end = read(0)
    except IndexError:  # read ran past the last token
        raise ValueError(f"program ends early: {text!r}") from None
    if end != len(tokens):
        raise ValueError("trailing tokens after program")
    return node


@dataclass(frozen=True)
class GPParams:
    """Run-level genetic programming parameters."""

    pop_size: int = 100
    generations: int = 30
    init_min_depth: int = 2
    init_max_depth: int = 6
    max_depth: int = 17
    crossover_rate: float = 0.9
    mutation_rate: float = 0.1
    mutation_subtree_depth: int = 4

    def __post_init__(self):
        if self.pop_size < 2:
            raise ValueError("pop_size must be at least 2")
        if self.generations < 1:
            raise ValueError("generations must be at least 1")
        if not 1 <= self.init_min_depth <= self.init_max_depth <= self.max_depth:
            raise ValueError("need 1 <= init_min_depth <= init_max_depth <= max_depth")
        for name in ("crossover_rate", "mutation_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.mutation_subtree_depth < 0:
            raise ValueError("mutation_subtree_depth must be non-negative")


@dataclass
class Variation:
    """Crossover-plus-mutation policy used by the engines to breed offspring.

    All offspring are built here. The crossover hook maps two evaluated parents and a generator
    to the points to exchange at, or None to keep them; without one, subtree crossover's are drawn.
    """

    primitives: PrimitiveSet
    params: GPParams = field(default_factory=GPParams)
    crossover: Callable[[Individual, Individual, random.Random], tuple[Path, Path] | None] | None = None

    def _points(self, a: Individual, b: Individual, rng: random.Random) -> tuple[Path, Path] | None:
        if rng.random() >= self.params.crossover_rate:
            return None
        if self.crossover is not None:
            return self.crossover(a, b, rng)
        return _crossover_points(a.tree, b.tree, rng, self.params.max_depth)

    def _mutate(self, tree: Node, rng: random.Random) -> Node:
        if rng.random() < self.params.mutation_rate:
            return subtree_mutation(
                tree,
                self.primitives,
                rng,
                self.params.max_depth,
                self.params.mutation_subtree_depth,
            )
        return tree

    def breed_pair(self, a: Individual, b: Individual, rng: random.Random) -> tuple[Node, Node]:
        points = self._points(a, b, rng)
        t1, t2 = (a.tree, b.tree) if points is None else _exchange(a.tree, b.tree, *points)
        return self._mutate(t1, rng), self._mutate(t2, rng)

    def breed_one(self, a: Individual, b: Individual, rng: random.Random) -> Node:
        """breed_pair's first offspring, drawing what breed_pair draws up to
        its second mutation; the second offspring is never built."""
        points = self._points(a, b, rng)
        tree = a.tree if points is None else replace_subtree(a.tree, points[0], subtree_at(b.tree, points[1]))
        return self._mutate(tree, rng)
