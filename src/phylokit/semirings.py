"""Computation semirings and the generic chain and tree dynamic-programming
evaluators.

Four semirings drive one sum-product fold: probability arithmetic, its
log (log-sum-exp, +), max-plus (tropical) arithmetic, and lattice
polygons under (convex hull of union, Minkowski sum).  The fold has three
shapes: a chain (:func:`evaluate_chain`), the pair-HMM grid (``pairhmm``)
and a rooted tree (:func:`evaluate_tree`, edges into leaves in one array
step, then one step per internal edge, children before parents).
Summing a product of weights over all state paths of a chain, or over
all state labellings of a tree, is the same algorithm in each case; only
the (add, mul) pair of ufuncs changes.  Under max-plus the
chain fold also recovers the arg-max path from integer backpointers,
each state's best prefix packed into one complex key (log weight, label
sequence) that numpy's lexicographic complex order compares at once.
Under log-sum-exp the chain fold first multiplies blocks of about sqrt(n)
steps together in linear weights, all blocks at once, with a block
length certified to keep every path term above underflow; a chain of n
positions then takes about 2 sqrt(n) array steps instead of n.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

Point = tuple[int, int]

NEG_INF = float("-inf")

_log = logging.getLogger(__name__)


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
    """Values under the ufuncs ``add`` and ``mul``, with identities ``zero``
    and ``one``: ``mul`` distributes over ``add``, ``zero`` absorbs under
    ``mul``, and both act elementwise on arrays."""

    zero: object
    one: object
    add: np.ufunc
    mul: np.ufunc


#: non-negative reals under (+, *)
ProbabilitySemiring = Semiring(0.0, 1.0, np.add, np.multiply)
#: log-probabilities R u {-inf} under (log-sum-exp, +): no underflow
LogSemiring = Semiring(NEG_INF, 0.0, np.logaddexp, np.add)
#: R u {-inf} under (max, +)
MaxPlusSemiring = Semiring(NEG_INF, 0.0, np.maximum, np.add)
#: lattice polygons under (hull of union, Minkowski sum), on object arrays
PolygonSemiring = Semiring(
    LatticePolygon.empty(), LatticePolygon.point(0, 0),
    np.frompyfunc(polygon_sum, 2, 1), np.frompyfunc(polygon_product, 2, 1),
)


# ---------------------------------------------------------------------------
# chain specifications and evaluation


@dataclass(frozen=True, eq=False)
class ChainSpec:
    """Weights of a k-state chain with ``len(steps) + 1`` positions.

    ``initial[i]`` is the weight of starting in state i (first emission
    folded in by the caller); ``steps[t, i, j]`` is the weight of moving
    from state i at position t to state j at position t+1.  All weights
    must live in the semiring the chain is later evaluated under.
    ``steps`` is an array of shape ``(n - 1, k, k)`` or a nesting that
    ``np.asarray`` turns into one (``()`` is no steps; values other than
    numbers give an object array).  ``labels`` must be
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
        steps = np.asarray(self.steps)  # a ragged nesting raises here
        if steps.shape == (0,):
            steps = steps.reshape(0, k, k)
        if steps.ndim != 3 or steps.shape[1:] != (k, k):
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


def evaluate_chain(spec: ChainSpec, semiring: Semiring) -> ChainResult:
    """Fold the chain: add over all state paths of the mul of path weights.

    Runs in O(length * states^2) semiring operations, each sum in state
    order.  Under max-plus the chain weights must be floats (log weights);
    the result carries the arg-max path with exact ties broken by the
    lexicographically smallest label sequence.  A NaN weight, or +inf
    meeting -inf, lies outside max-plus: the value is then NaN and the
    path some path through a NaN, with no tie rule.  Every other semiring
    takes one array step per position, except ``LogSemiring``: its
    weights must be floats too, and its fold runs over block products
    (see :func:`_log_blocks`) in about 2 sqrt(length) array steps, equal
    to the per-position fold up to roundoff.
    """
    if semiring is MaxPlusSemiring:
        return _argmax_chain(spec)
    steps = _log_blocks(spec) if semiring is LogSemiring else spec.steps
    cur = np.asarray(spec.initial)
    for w in steps:
        cur = semiring.add.reduce(semiring.mul(cur[:, None], w), axis=0)
    # accumulate, unlike a 1-D reduce, sums strictly left to right
    return ChainResult(semiring.add.accumulate(cur).tolist()[-1])


#: positive entries of a block product stay above e**-_LOG_RANGE of their
#: row's sum, far from the smallest normal float (about e**-708)
_LOG_RANGE = 600.0
_TINY = np.finfo(float).tiny


def _log_blocks(spec: ChainSpec) -> np.ndarray:
    # The chain's log-weight steps, coarsened: the log of the product of
    # each block of L consecutive steps as one step, then the fewer than L
    # steps left over.  Each step is shifted by its largest finite entry
    # and exponentiated, one block column at a time, and the C running
    # products are multiplied by that column at once.  After each multiply
    # every row is divided by its sum (one more matmul), whose log goes
    # into a per-row scale; an all-zero row is a true zero and stays one.
    # Certificate: let s be the largest spread of a step (its largest
    # finite entry minus its smallest).  A shifted step's positive entries
    # are at least e**-s and its rows sum to at most k, so by induction
    # every positive entry of a product, and every term of a multiply,
    # stays above e**-(L (s + ln k)) of its row's sum.  L is the largest
    # length that keeps this above e**-_LOG_RANGE, and at most sqrt(n - 1),
    # so no path term underflows.  NaN or +inf weights, a spread too wide
    # for L = 2, and chains under 5 positions give L = 1: the steps as
    # they are, folded one position at a time.
    steps = np.asarray(spec.steps, dtype=float)
    count, k = len(steps), spec.states
    top = steps.max(axis=(1, 2), initial=NEG_INF)
    with np.errstate(invalid="ignore", over="ignore"):
        bottom = steps.min(axis=(1, 2), initial=np.inf, where=steps > NEG_INF)
        spread = float(np.max(top - bottom, initial=0.0))
    width = spread + math.log(k)  # 0 at one state: every product is 1
    no_nan_or_inf = width < math.inf and np.max(spec.initial) < math.inf
    length = math.isqrt(count) if no_nan_or_inf else 1
    if width > 0:
        length = min(length, int(_LOG_RANGE // width))
    length = max(length, 1)
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug(
            "log chain fold: %d steps, spread %.6g, block length %d",
            count, spread, length,
        )
    if length == 1:
        return steps
    blocks = count // length
    cut = blocks * length
    shift = np.where(top > NEG_INF, top, 0.0)  # an all -inf step stays 0
    prod = np.exp(steps[0:cut:length] - shift[0:cut:length, None, None])
    col, spare = np.empty_like(prod), np.empty_like(prod)
    ones = np.ones((k, 1))
    row_sum, log_scale = np.empty((blocks, k, 1)), np.zeros((blocks, k, 1))
    for j in range(1, length):
        np.subtract(steps[j:cut:length], shift[j:cut:length, None, None], out=col)
        np.exp(col, out=col)
        np.matmul(prod, col, out=spare)
        prod, spare = spare, prod
        np.matmul(prod, ones, out=row_sum)
        np.maximum(row_sum, _TINY, out=row_sum)
        prod /= row_sum
        log_scale += np.log(row_sum, out=row_sum)
    with np.errstate(divide="ignore"):
        log_prod = np.log(prod)
    log_prod += log_scale
    log_prod += shift[:cut].reshape(blocks, length).sum(axis=1)[:, None, None]
    return np.concatenate((log_prod, steps[cut:]))


def _argmax_chain(spec: ChainSpec) -> ChainResult:
    # Max-plus fold with integer backpointers, on packed complex keys.  A
    # state's best prefix is one complex number: its real part is the log
    # weight, its imaginary part minus a key that orders the prefixes by
    # label sequence.  The key's integer part ranks the prefix's first
    # positions, and each later position adds its label rank as one more
    # base-2**bits digit, an exact power-of-two multiple, so every key is
    # exact.  The prefixes are distinct (they end in distinct labels), and
    # so are their keys.  numpy orders complex numbers lexicographically,
    # so a max picks each state's best weight and, among exact ties, the
    # smallest label sequence, and the real parts are the plain float
    # sums.  After ``period`` digits the 52-bit key is full, and the keys
    # are replaced by their ranks (one argsort).  The steps are made
    # complex one block of ``period`` at a time, each transposed so a
    # state's candidates are one row.  Per position one add turns the
    # step's row into its candidates in place and one max keeps the best;
    # the block's backpointers then come from one argmax over all its
    # candidates.  Nothing else is materialized until the one traceback.
    k = spec.states
    by_label = sorted(range(k), key=lambda i: spec.labels[i])
    label_rank = np.empty(k)
    label_rank[by_label] = np.arange(k)
    bits = max(1, (k - 1).bit_length())
    period = 52 // bits - 1
    digits = np.ldexp(label_rank, -bits * np.arange(1, period + 1)[:, None])
    steps = np.asarray(spec.steps, dtype=float)
    back = np.empty((len(steps), k), dtype=np.intp)
    scores = np.empty(k, dtype=complex)
    scores.real = spec.initial
    scores.imag = -label_rank
    add, best = np.add, np.maximum.reduce  # bound once: the loop is call-bound
    for start in range(0, len(steps), period):
        block = steps[start : start + period].transpose(0, 2, 1).astype(complex)
        block.imag = -digits[: len(block), :, None]
        for w in block:
            add(scores, w, w)
            best(w, 1, out=scores)
        block.argmax(axis=2, out=back[start : start + len(block)])
        scores.imag[scores.imag.argsort()] = np.arange(1 - k, 1)
    state = int(scores.argmax())
    value = float(scores.real[state])
    path = [spec.labels[state]]
    for row in reversed(back.tolist()):
        state = row[state]
        path.append(spec.labels[state])
    return ChainResult(value, tuple(reversed(path)))


# ---------------------------------------------------------------------------
# tree specifications and evaluation


@dataclass(frozen=True, eq=False)
class TreeSpec:
    """Weights of a k-state model on a rooted tree of ``len(parents)`` nodes.

    Node 0 is the root and every other node follows its parent:
    ``parents[0]`` is -1 and ``0 <= parents[v] < v`` for v >= 1.  Node v
    hangs from its parent by edge v - 1, and ``weights[v - 1, i, j]`` is
    the weight of moving from state i at the parent to state j at v.
    ``root[i]`` is the weight of state i at the root and ``leaves[v, i]``
    the evidence for state i at node v, ``one`` where there is none (at
    internal nodes and unlabeled leaves, which sums them out).  All
    weights must live in the semiring the tree is later evaluated under.
    ``weights`` and ``leaves`` are arrays of shape ``(nodes - 1, k, k)``
    and ``(nodes, k)`` or nestings that ``np.asarray`` turns into them,
    as in :class:`ChainSpec`.  Specs compare and hash by identity.
    """

    parents: np.ndarray
    weights: np.ndarray
    root: tuple
    leaves: np.ndarray

    def __post_init__(self):
        k = len(self.root)
        if k == 0:
            raise ValueError("tree needs at least one state")
        object.__setattr__(self, "root", tuple(self.root))
        parents = np.asarray(self.parents)
        n = len(parents)
        if parents.ndim != 1 or n == 0 or parents.dtype.kind != "i":
            raise ValueError("parents must be a non-empty 1-D array of node indices")
        # a negative parent cast to unsigned is at least 2**63
        ahead = parents[1:].astype(np.uint64) < np.arange(1, n, dtype=np.uint64)
        if parents[0] != -1 or not ahead.all():
            raise ValueError("parents[0] must be -1 and each parent must precede its child")
        object.__setattr__(self, "parents", parents)
        weights = np.asarray(self.weights)  # a ragged nesting raises here
        if weights.shape == (0,):
            weights = weights.reshape(0, k, k)
        if weights.shape != (n - 1, k, k):
            raise ValueError(
                f"weights must have shape ({n - 1}, {k}, {k}), got {weights.shape}"
            )
        object.__setattr__(self, "weights", weights)
        leaves = np.asarray(self.leaves)
        if leaves.shape != (n, k):
            raise ValueError(f"leaves must have shape ({n}, {k}), got {leaves.shape}")
        object.__setattr__(self, "leaves", leaves)

    @property
    def states(self) -> int:
        return len(self.root)

    @property
    def nodes(self) -> int:
        return len(self.parents)


def evaluate_tree(spec: TreeSpec, semiring: Semiring) -> object:
    """Fold the tree: add over all state labellings of its nodes of the mul
    of the root weight, every edge weight and every node's leaf message.

    A node's message is its leaf message times, for each child, the sum
    over the child's states of the edge weight times the child's message;
    the value is the sum over root states of the root weight times the
    root's message, in state order.  The edges into childless nodes are
    stepped in one array call, then the others one at a time in reverse
    node order, so every child is done before its parent: O(nodes *
    states^2) semiring operations in about as many array steps as there
    are internal nodes.
    """
    sr, parents, weights = semiring, spec.parents, spec.weights
    msg = spec.leaves.astype(np.result_type(spec.leaves, weights))
    kids = np.bincount(parents[1:], minlength=spec.nodes)[1:]  # of nodes 1, 2, ...
    leaf = (kids == 0).nonzero()[0] + 1  # the childless nodes but the root
    step = sr.add.reduce(sr.mul(weights[leaf - 1], msg[leaf][:, None]), axis=2)
    sr.mul.at(msg, parents[leaf], step)
    above = parents.tolist()
    for edge in kids.nonzero()[0][::-1].tolist():
        step = sr.add.reduce(sr.mul(weights[edge], msg[edge + 1]), axis=1)
        row = msg[above[edge + 1]]
        sr.mul(row, step, out=row)
    # accumulate, unlike a 1-D reduce, sums strictly left to right
    return sr.add.accumulate(sr.mul(np.asarray(spec.root), msg[0])).tolist()[-1]
