"""Computation semirings and the generic chain dynamic-programming evaluator.

Three semirings drive one shared fold: ordinary probability arithmetic,
max-plus (tropical) arithmetic, and lattice polygons under (convex hull
of union, Minkowski sum).  Summing a product of step weights over all
state paths of a chain is the same algorithm in each case; only the
(add, mul) pair changes.  Under max-plus the chain fold runs on a float
array and recovers the arg-max path from integer backpointers.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Iterable

import numpy as np

Point = tuple[int, int]

NEG_INF = float("-inf")


# ---------------------------------------------------------------------------
# lattice polygons


def _cross(o: Point, a: Point, b: Point) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points: Iterable[Point]) -> tuple[Point, ...]:
    """Convex hull of integer points, counter-clockwise, collinear points
    dropped, starting at the lexicographically smallest vertex.

    Returns () for no points, a single point, or a two-point segment in
    the degenerate cases.  Arithmetic is exact (Python ints).
    """
    pts = sorted({(int(x), int(y)) for x, y in points})
    if len(pts) <= 2:
        return tuple(pts)
    lower: list[Point] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Point] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return tuple(lower[:-1] + upper[:-1])


@dataclass(frozen=True)
class LatticePolygon:
    """Convex lattice polygon in canonical form.

    ``vertices`` are integer points in strict convex position, listed
    counter-clockwise starting at the lexicographically smallest vertex.
    The empty polygon (no vertices) is the additive identity of the
    polygon semiring; ``{(0, 0)}`` is the multiplicative identity.
    """

    vertices: tuple[Point, ...]

    def __post_init__(self):
        given = tuple((int(x), int(y)) for x, y in self.vertices)
        object.__setattr__(self, "vertices", given)
        canon = convex_hull(given)
        if canon != given:
            raise ValueError(
                f"vertices {given!r} are not in canonical hull form {canon!r}"
            )

    @classmethod
    def from_points(cls, points: Iterable[Point]) -> "LatticePolygon":
        return cls(convex_hull(points))

    @classmethod
    def empty(cls) -> "LatticePolygon":
        return cls(())

    @classmethod
    def point(cls, x: int, y: int) -> "LatticePolygon":
        return cls(((x, y),))

    @property
    def is_empty(self) -> bool:
        return not self.vertices


def polygon_sum(a: LatticePolygon, b: LatticePolygon) -> LatticePolygon:
    """Semiring addition: convex hull of the union of the two polygons."""
    return LatticePolygon.from_points(a.vertices + b.vertices)


def polygon_product(a: LatticePolygon, b: LatticePolygon) -> LatticePolygon:
    """Semiring multiplication: Minkowski sum of the two polygons."""
    if a.is_empty or b.is_empty:
        return LatticePolygon.empty()
    sums = [(p[0] + q[0], p[1] + q[1]) for p in a.vertices for q in b.vertices]
    return LatticePolygon.from_points(sums)


# ---------------------------------------------------------------------------
# semirings


@dataclass(frozen=True)
class Semiring:
    """Values under ``add`` and ``mul``, with identities ``zero`` and
    ``one``: ``mul`` distributes over ``add``, and ``zero`` absorbs under
    ``mul``."""

    zero: object
    one: object
    add: Callable
    mul: Callable


#: non-negative reals under (+, *)
ProbabilitySemiring = Semiring(0.0, 1.0, operator.add, operator.mul)
#: R u {-inf} under (max, +), on plain floats
MaxPlusSemiring = Semiring(NEG_INF, 0.0, max, operator.add)
#: lattice polygons under (hull of union, Minkowski sum)
PolygonSemiring = Semiring(
    LatticePolygon.empty(), LatticePolygon.point(0, 0), polygon_sum, polygon_product
)

_SEMIRINGS = {
    "prob": ProbabilitySemiring,
    "max-plus": MaxPlusSemiring,
    "polygon": PolygonSemiring,
}


def resolve_semiring(tag):
    if isinstance(tag, str):
        try:
            return _SEMIRINGS[tag.lower()]
        except KeyError:
            raise ValueError(f"unknown semiring tag {tag!r}") from None
    return tag


# ---------------------------------------------------------------------------
# chain specifications and evaluation


@dataclass(frozen=True, eq=False)
class ChainSpec:
    """Weights of a k-state chain with ``len(steps) + 1`` positions.

    ``initial[i]`` is the weight of starting in state i (first emission
    folded in by the caller); ``steps[t, i, j]`` is the weight of moving
    from state i at position t to state j at position t+1.  All weights
    must live in the semiring the chain is later evaluated under.
    ``steps`` is an array of shape ``(n - 1, k, k)``: an ndarray is kept
    as given, nested sequences are converted once (to floats for numbers,
    to an object array for other semiring values).  ``labels`` must be
    distinct: they fix the total order used for max-plus tie-breaking.
    They default to decimal state indices.  Specs compare and hash by
    identity, since array-valued fields have no elementwise ``==``.
    """

    initial: tuple
    steps: np.ndarray = ()
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        k = len(self.initial)
        if k == 0:
            raise ValueError("chain needs at least one state")
        object.__setattr__(self, "initial", tuple(self.initial))
        steps = self.steps
        if not isinstance(steps, np.ndarray):
            steps = tuple(tuple(tuple(row) for row in w) for w in steps)
            for t, w in enumerate(steps):
                if len(w) != k or any(len(row) != k for row in w):
                    raise ValueError(
                        f"step {t} is not a {k}x{k} matrix (got {len(w)} rows)"
                    )
            steps = np.array(steps).reshape(len(steps), k, k)
        elif steps.ndim != 3 or steps.shape[1:] != (k, k):
            raise ValueError(
                f"steps must have shape (n - 1, {k}, {k}), got {steps.shape}"
            )
        object.__setattr__(self, "steps", steps)
        if self.labels is None:
            object.__setattr__(self, "labels", tuple(str(i) for i in range(k)))
        elif len(self.labels) != k:
            raise ValueError(f"expected {k} state labels, got {len(self.labels)}")
        elif len(set(self.labels)) != k:
            raise ValueError("state labels must be distinct")

    @property
    def states(self) -> int:
        return len(self.initial)

    @property
    def length(self) -> int:
        return len(self.steps) + 1


@dataclass(frozen=True)
class ChainResult:
    """Value of a chain; ``path`` is the arg-max state sequence under
    max-plus (lexicographically smallest among ties), else None."""

    value: object
    path: tuple[str, ...] | None = None


def evaluate_chain(spec: ChainSpec, semiring) -> ChainResult:
    """Fold the chain: add over all state paths of the mul of path weights.

    Runs in O(length * states^2) semiring operations.  Under max-plus the
    chain weights must be plain floats (log weights); the result carries
    the arg-max path with exact ties broken by the lexicographically
    smallest label sequence.
    """
    sr = resolve_semiring(semiring)
    if sr is MaxPlusSemiring:
        return _argmax_chain(spec)
    cur = list(spec.initial)
    k = spec.states
    for w in spec.steps.tolist():
        cur = [
            reduce(sr.add, (sr.mul(cur[i], w[i][j]) for i in range(k)))
            for j in range(k)
        ]
    return ChainResult(reduce(sr.add, cur))


def _argmax_chain(spec: ChainSpec) -> ChainResult:
    # Max-plus fold with integer backpointers.  ``order`` lists the states
    # by the label sequence of their best prefix, smallest first; those
    # sequences are distinct because they end in distinct labels.  Rows
    # taken in that order, argmax picks the smallest prefix among tied
    # predecessors, and the next order sorts by (position of the chosen
    # prefix, label rank).  Nothing is materialized until the one
    # traceback at the end.
    k = spec.states
    by_label = sorted(range(k), key=lambda i: spec.labels[i])
    label_rank = np.empty(k, dtype=np.intp)
    label_rank[by_label] = np.arange(k)
    order = np.array(by_label)
    steps = np.asarray(spec.steps, dtype=float)
    back = np.empty((len(steps), k), dtype=np.intp)
    scores = np.asarray(spec.initial, dtype=float)
    for t, w in enumerate(steps):
        cand = (scores[:, None] + w)[order]
        pos = cand.argmax(axis=0)
        scores = cand.max(axis=0)
        back[t] = order[pos]
        order = (pos * k + label_rank).argsort()
    state = int(order[scores[order].argmax()])
    value = float(scores[state])
    path = [spec.labels[state]]
    for row in reversed(back.tolist()):
        state = row[state]
        path.append(spec.labels[state])
    return ChainResult(value, tuple(reversed(path)))
