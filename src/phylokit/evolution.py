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


def matrix_exponential(a: np.ndarray, tol: float = 1e-13) -> np.ndarray:
    """exp(a) by scaling-and-squaring on the truncated Taylor series.

    Serves as the generic cross-check for the closed-form substitution
    matrix; ``tol`` bounds the truncation error of the scaled series.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    norm = np.abs(a).sum(axis=1).max()
    squarings = max(0, int(math.ceil(math.log2(norm))) + 1) if norm > 0 else 0
    scaled = a / (2**squarings)
    result = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    k = 1
    while True:
        term = term @ scaled / k
        result = result + term
        if np.abs(term).max() < tol:
            break
        k += 1
        if k > 200:
            raise RuntimeError("matrix exponential did not converge")
    for _ in range(squarings):
        result = result @ result
    return result


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


def is_stochastic(p: np.ndarray, tol: float = 1e-9) -> bool:
    p = np.asarray(p, dtype=float)
    return bool((p >= -tol).all() and np.abs(p.sum(axis=1) - 1.0).max() <= tol)


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


def _pruning_root(tree: PhyloTree) -> int:
    for node in tree.nodes():
        if not tree.is_leaf(node):
            return node
    return tree.node_of(min(tree.taxa))


def pattern_probability(tree: PhyloTree, pattern: Mapping[str, str]) -> float:
    """Probability of observing ``pattern`` (taxon -> nucleotide) at the
    leaves, with a uniform root distribution.

    Computed by leaf-to-root elimination; reversibility of the symmetric
    model makes the value independent of which node plays the root.
    """
    taxa = tree.taxa
    if not taxa:
        raise ValueError("tree has no leaves")
    missing = [t for t in taxa if t not in pattern]
    if missing:
        raise ValueError(f"pattern is missing leaves: {missing}")
    # a leaf (which may serve as the root) starts from its observed-letter
    # indicator, any other node from ones, which sums an unlabeled leaf out;
    # walked backwards, the preorder reaches every child before its parent
    onehot, ones = np.eye(4), np.ones(4)
    below = {}
    for t in taxa:
        try:
            (code,) = encode(pattern[t])
        except ValueError:  # a bad character, or not exactly one
            raise ValueError(f"invalid nucleotide {pattern[t]!r} for leaf {t!r}") from None
        below[tree.node_of(t)] = onehot[code]
    root = _pruning_root(tree)
    for parent, kids in reversed(tree.children_from(root).items()):
        for child in reversed(kids):
            p = edge_params_from_length(tree.edge_length(parent, child)).matrix()
            below[parent] = below.get(parent, 1.0) * (p @ below.pop(child, ones))
    return float(np.full(4, 0.25) @ below[root])


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


def _stream(seed: int, index) -> np.random.Generator:
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(index)],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def simulate_leaf_sequences(
    tree: PhyloTree, length: int, seed: int
) -> dict[str, str]:
    """Evolve ``length`` independent sites down the tree.

    Root states are uniform; each edge substitutes letters with its
    (theta, pi) matrix.  Randomness is drawn from counter-based streams
    keyed by (seed, edge index) with one counter position per site, so
    the result does not depend on edge evaluation order and repeats
    exactly for a fixed seed.
    """
    if length < 1:
        raise ValueError("length must be at least 1")
    root = _pruning_root(tree)
    states: dict[int, np.ndarray] = {
        root: (_stream(seed, _ROOT_STREAM).random(length) * 4).astype(np.int8)
    }
    edges = [(p, c) for p, kids in tree.children_from(root).items() for c in kids]
    for index, (parent, child) in enumerate(edges):
        edge = edge_params_from_length(tree.edge_length(parent, child))
        src = states[parent]
        if edge.pi == 0.0:
            states[child] = src
            continue
        u = _stream(seed, index).random(length)
        mutated = u >= edge.theta
        offset = np.minimum(((u - edge.theta) / edge.pi).astype(np.int8), 2) + 1
        out = src.copy()
        out[mutated] = (src[mutated] + offset[mutated]) % 4
        states[child] = out
    letters = np.frombuffer(NUCLEOTIDES.encode("ascii"), dtype=np.uint8)
    return {
        tree.label_of(leaf): letters[states[leaf]].tobytes().decode("ascii")
        for leaf in tree.leaves()
    }
