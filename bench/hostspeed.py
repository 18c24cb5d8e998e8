"""Host speed reference: a fixed kernel, timed next to every timed span.

The benchmark runs on a few cores of a shared host, and the speed of those
cores drifts by a quarter and more over tens of seconds: identical passes
over the same inputs took from 4.4 s to 6.5 s in one process. CPU time
drifts with wall time, so it is no way out. What does hold is the ratio of
a span's time to the time of a fixed reference kernel measured around it:
over eight identical passes its spread fell from 0.17 to 0.03.

So every timed span is reported in reference seconds: its wall seconds
times NOMINAL_S over the kernel's time around it, which is the span's
length on a host where the kernel takes NOMINAL_S. A program change moves
a span and not the kernel, which does not import semogp; a host change
moves both.

The kernel mixes what semogp spends its time on: a recursive walk over a
nested-tuple expression tree in Python, and numpy ufuncs on arrays of a
few hundred to a few thousand cases.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's typical time on the host the baselines were taken on (2 vCPUs
# at 2.1 GHz); a reference second is a wall second there at that speed.
NOMINAL_S = 0.0040
LOOPS = 16

_CASES = (np.linspace(-3.0, 3.0, 200), np.linspace(-3.0, 3.0, 2000))


def _tree(depth: int, index: int):
    if depth == 0:
        return ("x", index % 2) if index % 3 else ("c", 0.5 + index % 5)
    op = ("add", "sub", "mul", "div")[index % 4]
    return (op, _tree(depth - 1, 2 * index + 1), _tree(depth - 1, 2 * index + 2))


_TREE = _tree(5, 0)


def _evaluate(node, x):
    kind = node[0]
    if kind == "x":
        return x if node[1] else -x
    if kind == "c":
        return np.full_like(x, node[1])
    left = _evaluate(node[1], x)
    right = _evaluate(node[2], x)
    if kind == "add":
        return left + right
    if kind == "sub":
        return left - right
    if kind == "mul":
        return left * right
    return np.divide(left, right, out=np.ones_like(left), where=np.abs(right) > 1e-6)


def _kernel() -> float:
    total = 0.0
    for _ in range(LOOPS):
        for x in _CASES:
            total += float(np.count_nonzero(_evaluate(_TREE, x) > 0.0))
    return total


def sample() -> float:
    """Wall seconds of one kernel call."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def warm_up(calls: int = 3) -> None:
    """Run the kernel a few times, so that numpy's first-call work is done."""
    for _ in range(calls):
        _kernel()


def scale(before: float, after: float) -> float:
    """Reference seconds per wall second for a span between two samples."""
    return NOMINAL_S / (0.5 * (before + after))
