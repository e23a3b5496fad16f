"""Continuous-time substitution models on trees.

The single-rate symmetric (Jukes-Cantor) model everywhere: rate
matrices and their exponentials, the closed-form substitution matrix,
branch lengths via the log-determinant, per-edge (theta, pi)
parameters, pattern probabilities on leaf-labeled trees by pruning with
a uniform root, the three-leaf Fourier invariant, the distance
correction from observed site differences, and sequence simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .alphabet import NUCLEOTIDES, encode
from .semirings import LogSemiring, TreeSpec, evaluate_tree
from .trees import PhyloTree


class SaturationError(ValueError):
    """Observed differences too high for a finite distance estimate."""


# ---------------------------------------------------------------------------
# rate and substitution matrices


@dataclass(frozen=True)
class RateMatrix:
    """Generator of a continuous-time substitution process: non-negative
    off-diagonal entries, zero row sums, negative diagonal."""

    q: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        if q.shape != (4, 4):
            raise ValueError(f"rate matrix must be 4x4, got {q.shape}")
        if not np.isfinite(q).all():
            raise ValueError("rates must be finite (not NaN or inf)")
        off = q[~np.eye(4, dtype=bool)]
        if (off < 0).any():
            raise ValueError("off-diagonal rates must be non-negative")
        if np.abs(q.sum(axis=1)).max() > 1e-12:
            raise ValueError("rate-matrix rows must sum to 0")
        if (np.diag(q) >= 0).any():
            raise ValueError("diagonal rates must be negative")
        q.setflags(write=False)
        object.__setattr__(self, "q", q)


def jc_rate_matrix(alpha: float) -> RateMatrix:
    """Rate matrix with a single off-diagonal rate ``alpha`` > 0."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    q = np.full((4, 4), alpha)
    np.fill_diagonal(q, -3.0 * alpha)
    return RateMatrix(q)


def substitution_matrix(alpha: float, t: float) -> np.ndarray:
    """Closed-form substitution matrix of the single-rate model: diagonal
    entries (1 + 3 e^{-4 alpha t})/4, off-diagonal (1 - e^{-4 alpha t})/4."""
    if not (math.isfinite(alpha) and math.isfinite(t)):
        raise ValueError("alpha and t must be finite (not NaN or inf)")
    if alpha < 0 or t < 0:
        raise ValueError("alpha and t must be non-negative")
    decay = math.exp(-4.0 * alpha * t)
    p = np.full((4, 4), (1.0 - decay) / 4.0)
    np.fill_diagonal(p, (1.0 + 3.0 * decay) / 4.0)
    return p


def branch_length_of(p: np.ndarray) -> float:
    """Expected substitutions per site of a substitution matrix:
    -(1/4) log det P.  Requires det P > 0 (unsaturated)."""
    p = np.asarray(p, dtype=float)
    if p.shape != (4, 4):
        raise ValueError(f"substitution matrix must be 4x4, got {p.shape}")
    sign, logdet = np.linalg.slogdet(p)
    if sign <= 0:
        raise ValueError("substitution matrix has non-positive determinant")
    return float(-0.25 * logdet)


# ---------------------------------------------------------------------------
# per-edge parameters


@dataclass(frozen=True)
class JcEdge:
    """Edge parameters: probability ``theta`` of observing the same
    letter across the edge and ``pi`` of each specific change, with
    theta + 3 pi = 1."""

    theta: float
    pi: float

    def __post_init__(self):
        if not (math.isfinite(self.theta) and math.isfinite(self.pi)):
            raise ValueError("theta and pi must be finite (not NaN or inf)")
        if not 0.0 <= self.pi <= 0.25:
            raise ValueError(f"pi must lie in [0, 1/4], got {self.pi}")
        if abs(self.theta + 3.0 * self.pi - 1.0) > 1e-12:
            raise ValueError("theta + 3 pi must equal 1")

    def matrix(self) -> np.ndarray:
        p = np.full((4, 4), self.pi)
        np.fill_diagonal(p, self.theta)
        return p


def edge_params_from_length(b: float) -> JcEdge:
    """(theta, pi) for an edge of branch length b: pi = (1 - e^{-4b/3})/4."""
    if b < 0:
        raise ValueError(f"branch length must be non-negative, got {b}")
    pi = 0.25 * (1.0 - math.exp(-4.0 * b / 3.0))
    return JcEdge(theta=1.0 - 3.0 * pi, pi=pi)


def jc_distance(n: int, k: int) -> float:
    """Maximum-likelihood distance from k differing sites out of n:
    -(3/4) log(1 - 4k/(3n)).  Raises :class:`SaturationError` when
    4k >= 3n."""
    if n < 1:
        raise ValueError("site count must be at least 1")
    if not 0 <= k <= n:
        raise ValueError("difference count must lie in [0, n]")
    ratio = 1.0 - (4.0 * k) / (3.0 * n)
    if ratio <= 0.0:
        raise SaturationError(
            f"{k} differences in {n} sites exceed the resolvable fraction 3/4"
        )
    return -0.75 * math.log(ratio)


# ---------------------------------------------------------------------------
# pattern probabilities on trees

#: a leaf's log message, by the code of its letter
_LOG_INDICATOR = np.where(np.eye(4, dtype=bool), LogSemiring.one, LogSemiring.zero)


def _rooted_edges(tree: PhyloTree) -> tuple[int, list[tuple[int, int]]]:
    """The root (the first internal node, else the first leaf by label) and
    the parent->child edges of ``children_from(root)``, parents first."""
    root = next((v for v in tree.nodes() if not tree.is_leaf(v)), None)
    if root is None:
        root = tree.node_of(min(tree.taxa))
    children = tree.children_from(root).items()
    return root, [(parent, child) for parent, kids in children for child in kids]


def log_pattern_probability(tree: PhyloTree, pattern: Mapping[str, str]) -> float:
    """log of the probability of observing ``pattern`` (taxon -> nucleotide)
    at the leaves, with a uniform root distribution: one ``evaluate_tree``
    fold of JC log weights under ``LogSemiring``, which do not underflow.
    Reversibility of the symmetric model makes the value independent of
    which node plays the root.
    """
    taxa = tree.taxa
    if not taxa:
        raise ValueError("tree has no leaves")
    missing = [t for t in taxa if t not in pattern]
    if missing:
        raise ValueError(f"pattern is missing leaves: {missing}")
    letters = [pattern[t] for t in taxa]
    try:
        if set(map(len, letters)) != {1}:
            raise ValueError("a leaf's letter is not one character")
        codes = encode("".join(letters))
    except ValueError:  # encode leaf by leaf to name the first bad one
        for t, letter in zip(taxa, letters):
            try:
                (_,) = encode(letter)
            except ValueError:  # a bad character, or not exactly one
                raise ValueError(f"invalid nucleotide {letter!r} for leaf {t!r}") from None
        raise
    root, edges = _rooted_edges(tree)
    index = {root: 0} | {child: i for i, (_, child) in enumerate(edges, 1)}
    # log pi off the diagonal, log theta = log(1 - 3 pi) on it; pi = -expm1(-4 b / 3) / 4
    decay = np.expm1(np.array([tree.edge_length(p, c) for p, c in edges]) * (-4.0 / 3.0))
    with np.errstate(divide="ignore"):  # log pi is -inf at b = 0
        weights = np.repeat(np.log(decay * -0.25), 16).reshape(-1, 4, 4)
    weights.reshape(-1, 16)[:, ::5] = np.log1p(decay * 0.75)[:, None]
    leaves = np.full((len(index), 4), LogSemiring.one)
    leaves[[index[tree.node_of(t)] for t in taxa]] = _LOG_INDICATOR[codes]
    parents = np.array([-1] + [index[parent] for parent, _ in edges])
    spec = TreeSpec(parents, weights, (math.log(0.25),) * 4, leaves)
    return evaluate_tree(spec, LogSemiring)


def pattern_probability(tree: PhyloTree, pattern: Mapping[str, str]) -> float:
    """exp of :func:`log_pattern_probability`; may underflow to 0.0."""
    return math.exp(log_pattern_probability(tree, pattern))


def all_same_probability(tree: PhyloTree) -> tuple[float, float]:
    """(probability that one fixed letter appears at every leaf,
    probability that all leaves agree on any letter).  By symmetry the
    second is four times the first."""
    p_single = pattern_probability(tree, {t: "A" for t in tree.taxa})
    return p_single, 4.0 * p_single


# ---------------------------------------------------------------------------
# the three-leaf star: class probabilities and the Fourier invariant


@dataclass(frozen=True)
class ClawClassProbabilities:
    """Probabilities of the five observation classes at a three-leaf
    star, up to the uniform factors 1/4, 1/24, 1/12."""

    all_same: float
    all_different: float
    same_12: float
    same_13: float
    same_23: float

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (
            self.all_same,
            self.all_different,
            self.same_12,
            self.same_13,
            self.same_23,
        )


def claw_class_probabilities(
    e1: JcEdge | tuple[float, float],
    e2: JcEdge | tuple[float, float],
    e3: JcEdge | tuple[float, float],
) -> ClawClassProbabilities:
    """The trilinear class map of the three-leaf star with edge
    parameters (theta_i, pi_i)."""
    (t1, p1), (t2, p2), (t3, p3) = (
        (e.theta, e.pi) if isinstance(e, JcEdge) else (float(e[0]), float(e[1]))
        for e in (e1, e2, e3)
    )
    return ClawClassProbabilities(
        all_same=t1 * t2 * t3 + 3 * p1 * p2 * p3,
        all_different=6 * t1 * p2 * p3 + 6 * p1 * t2 * p3 + 6 * p1 * p2 * t3
        + 6 * p1 * p2 * p3,
        same_12=3 * t1 * t2 * p3 + 3 * p1 * p2 * t3 + 6 * p1 * p2 * p3,
        same_13=3 * t1 * p2 * t3 + 3 * p1 * t2 * p3 + 6 * p1 * p2 * p3,
        same_23=3 * p1 * t2 * t3 + 3 * t1 * p2 * p3 + 6 * p1 * p2 * p3,
    )


@dataclass(frozen=True)
class FourierInvariant:
    """Fourier coordinates of the three-leaf class probabilities and the
    residual of the cubic q000*q111^2 - q011*q101*q110 that vanishes
    exactly on the model."""

    q111: float
    q110: float
    q101: float
    q011: float
    q000: float
    residual: float


def claw_fourier_invariant(
    p123: float, pdis: float, p12: float, p13: float, p23: float
) -> FourierInvariant:
    """Linear change of coordinates on the five class probabilities of a
    three-leaf star, plus the hypersurface residual."""
    third = 1.0 / 3.0
    q111 = p123 + third * pdis - third * p12 - third * p13 - third * p23
    q110 = p123 - third * pdis + p12 - third * p13 - third * p23
    q101 = p123 - third * pdis - third * p12 + p13 - third * p23
    q011 = p123 - third * pdis - third * p12 - third * p13 + p23
    q000 = p123 + pdis + p12 + p13 + p23
    residual = q000 * q111**2 - q011 * q101 * q110
    return FourierInvariant(
        q111=q111, q110=q110, q101=q101, q011=q011, q000=q000, residual=residual
    )


# ---------------------------------------------------------------------------
# simulation

_ROOT_STREAM = np.uint64(0xFFFFFFFFFFFFFFFF)
_FRESH = np.zeros(4, dtype=np.uint64)  # Philox's counter and buffer at the first word
_LETTERS = bytes.maketrans(bytes(range(4)), NUCLEOTIDES.encode("ascii"))


def _stream(seed: int, index, philox: np.random.Philox) -> np.random.Philox:
    """``philox`` re-keyed in place to the counter-based stream keyed by
    (seed, index), at its first word: the words of
    ``np.random.Philox(key=[seed, index])``, for a fraction of its set-up."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, index], dtype=np.uint64)
    philox.state = {
        "bit_generator": "Philox",
        "state": {"counter": _FRESH, "key": key},
        "buffer": _FRESH,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return philox


def _lanes(stream, length: int) -> np.ndarray:
    """``length`` uniform 16-bit lanes from ceil(length / 4) raw words:
    lane s is bits 16 (s mod 4) .. 16 (s mod 4) + 15 of word s // 4, on
    every CPU."""
    raw = stream.random_raw(-(-length // 4))
    return raw.astype("<u8", copy=False).view("<u2")[:length]


def _evolve(src: np.ndarray, theta: float, stream) -> np.ndarray:
    """The letter codes ``src`` after one edge that keeps a letter with
    probability ``theta``, drawing from ``stream``.

    With K = ceil(theta * 2**69), a site keeps its letter when its lane
    is below t = K >> 53 and mutates when it is above.  A lane equal to t
    reads the next word w (ties in site order) and mutates iff
    w >> 11 >= K mod 2**53, so a site keeps with probability exactly
    K / 2**69.  Each mutated site then reads one more word (in site order)
    and adds the offset 1 + ((w >> 11) * 3 >> 53), each of 1, 2, 3 within
    2**-53 of 1/3.
    """
    lanes = _lanes(stream, src.size)
    num, den = theta.as_integer_ratio()
    k = -(-(num << 69) // den)
    t, c = k >> 53, k & (2**53 - 1)
    hit = np.flatnonzero(lanes >= t)
    tie = np.flatnonzero(lanes[hit] == t)
    if tie.size:
        hit = np.delete(hit, tie[stream.random_raw(tie.size) >> 11 < c])
    offset = ((stream.random_raw(hit.size) >> 11) * 3 >> 53).astype(np.uint8) + 1
    out = src.copy()
    out[hit] = (src[hit] + offset) & 3
    return out


def simulate_leaf_sequences(
    tree: PhyloTree, length: int, seed: int
) -> dict[str, str]:
    """Evolve ``length`` independent sites down the tree.

    Root states are uniform; each edge substitutes letters with its
    (theta, pi) matrix.  Randomness comes from counter-based streams
    keyed by (seed, edge index), the root's by (seed, 2**64 - 1), so the
    result does not depend on edge evaluation order and repeats exactly
    for a fixed seed.  A stream's raw words serve four sites each, one
    16-bit lane per site: the root letter is the top two bits of its
    lane, and an edge compares lanes against theta as :func:`_evolve`
    describes.  A zero-length edge copies its parent without a draw.
    Only raw words and integer operations decide the letters, so the
    output is the same on every numpy version and CPU.
    """
    if length < 1:
        raise ValueError("length must be at least 1")
    root, edges = _rooted_edges(tree)
    philox = np.random.Philox(0)
    root_lanes = _lanes(_stream(seed, _ROOT_STREAM, philox), length)
    states: dict[int, np.ndarray] = {root: (root_lanes >> 14).astype(np.uint8)}
    for index, (parent, child) in enumerate(edges):
        edge = edge_params_from_length(tree.edge_length(parent, child))
        if edge.pi == 0.0:
            states[child] = states[parent]
        else:
            states[child] = _evolve(states[parent], edge.theta, _stream(seed, index, philox))
    return {
        tree.label_of(leaf): states[leaf].tobytes().translate(_LETTERS).decode("ascii")
        for leaf in tree.leaves()
    }
