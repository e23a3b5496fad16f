"""Pairwise alignment as a three-state pair hidden Markov model.

An alignment of sequences of lengths n and m is a word over {M, I, D}
with #M + #D = n and #M + #I = m: M consumes a letter of both sequences,
D one letter of the first, I one letter of the second.  The same grid
dynamic program, parameterized by a semiring, yields the total
generation probability (sum over alignments of the word's parameter
monomial), the best-scoring alignment under max-plus, and the lattice
polygon of achievable (mismatch count, indel count) pairs for
parametric alignment.

Probability and max-plus sweep the grid one anti-diagonal at a time,
each diagonal a numpy vector per state.  Probability rescales every
diagonal by an exact power of two and carries the exponent, so
:func:`log_pair_probability` is finite where the probability underflows.
Max-plus records, per cell and state, which predecessor states tie for
the maximum.  Exact ties are resolved once, after the sweep: the nodes
on optimal paths are marked backwards, and the word is read forwards
taking the smallest letter (D < I < M) into a marked node, which yields
the lexicographically smallest optimal word.

The polygon needs no hull until the end.  Alignments with the same
number of M letters share an indel count, so the polygon is the hull of
the least and the greatest mismatch count per M count at the final cell.
One integer sweep by word length carries both extremes for every (cell,
M count) node, and each node keeps the last letter of its
lexicographically smallest extreme word, found by prefix ranks; one
traceback per vertex reads its witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .alphabet import NUCLEOTIDES, encode  # NUCLEOTIDES is re-exported
from .semirings import LatticePolygon, ProbabilitySemiring, Semiring, convex_hull

#: Transition-table state order.
STATES = ("M", "I", "D")
_S = {s: i for i, s in enumerate(STATES)}

NEG_INF = float("-inf")

#: Refuse to materialize more alignments than this.
ENUMERATION_CAP = 10**6


# ---------------------------------------------------------------------------
# combinatorics of alignment words


def delannoy_count(n: int, m: int) -> int:
    """Number of alignments of sequences of lengths n and m, by the
    recurrence D(n,m) = D(n-1,m) + D(n,m-1) + D(n-1,m-1) with unit
    boundary values.  Exact integer arithmetic."""
    if n < 0 or m < 0:
        raise ValueError("lengths must be non-negative")
    row = [1] * (m + 1)
    for _ in range(n):
        new = [1] * (m + 1)
        for j in range(1, m + 1):
            new[j] = new[j - 1] + row[j] + row[j - 1]
        row = new
    return row[m]


def is_alignment(word: str, n: int, m: int) -> bool:
    """Whether ``word`` is a valid alignment of lengths (n, m)."""
    if any(c not in "MID" for c in word):
        return False
    nm = word.count("M")
    return nm + word.count("D") == n and nm + word.count("I") == m


def validate_alignment(word: str, n: int, m: int) -> None:
    if not is_alignment(word, n, m):
        raise ValueError(
            f"{word!r} is not an alignment of sequence lengths ({n}, {m})"
        )


def enumerate_alignments(n: int, m: int, cap: int = ENUMERATION_CAP) -> list[str]:
    """All alignments of lengths (n, m), lexicographic with D < I < M.

    Raises if the count exceeds ``cap``.
    """
    count = delannoy_count(n, m)
    if count > cap:
        raise ValueError(
            f"{count} alignments of lengths ({n}, {m}) exceed the cap of {cap}"
        )
    out: list[str] = []
    stack = [("", n, m)]
    while stack:
        prefix, r1, r2 = stack.pop()
        if r1 == 0 or r2 == 0:  # only D or only I letters remain: one word
            out.append(prefix + "D" * r1 + "I" * r2)
            continue
        # push M, then I, then D, so that D pops first
        stack.append((prefix + "M", r1 - 1, r2 - 1))
        stack.append((prefix + "I", r1, r2 - 1))
        stack.append((prefix + "D", r1 - 1, r2))
    return out


# ---------------------------------------------------------------------------
# parameters


@dataclass(frozen=True)
class PairHmmParams:
    """The 33 pair-HMM parameters: a 3x3 transition table over (M, I, D),
    a 4x4 match-emission table, and length-4 insertion and deletion
    emission vectors.

    ``mode="algebraic"`` places no normalization constraints (any
    non-negative reals); ``mode="stochastic"`` requires transition rows
    and each emission block to sum to 1.
    """

    trans: np.ndarray
    emit_match: np.ndarray
    emit_insert: np.ndarray
    emit_delete: np.ndarray
    mode: str = "algebraic"

    def __post_init__(self):
        trans = np.asarray(self.trans, dtype=float)
        em = np.asarray(self.emit_match, dtype=float)
        ei = np.asarray(self.emit_insert, dtype=float)
        ed = np.asarray(self.emit_delete, dtype=float)
        if trans.shape != (3, 3):
            raise ValueError(f"transition table must be 3x3, got {trans.shape}")
        if em.shape != (4, 4):
            raise ValueError(f"match emissions must be 4x4, got {em.shape}")
        if ei.shape != (4,) or ed.shape != (4,):
            raise ValueError("insert/delete emissions must have length 4")
        for arr in (trans, em, ei, ed):
            if not (np.isfinite(arr) & (arr >= 0)).all():
                raise ValueError("parameters must be finite and non-negative")
        if self.mode == "stochastic":
            if np.abs(trans.sum(axis=1) - 1.0).max() > 1e-9:
                raise ValueError("stochastic mode: transition rows must sum to 1")
            for name, total in (
                ("match", em.sum()),
                ("insert", ei.sum()),
                ("delete", ed.sum()),
            ):
                if abs(total - 1.0) > 1e-9:
                    raise ValueError(f"stochastic mode: {name} emissions must sum to 1")
        elif self.mode != "algebraic":
            raise ValueError(f"unknown mode {self.mode!r}")
        for arr in (trans, em, ei, ed):
            arr.setflags(write=False)
        object.__setattr__(self, "trans", trans)
        object.__setattr__(self, "emit_match", em)
        object.__setattr__(self, "emit_insert", ei)
        object.__setattr__(self, "emit_delete", ed)

    def to_dict(self) -> dict:
        return {
            "S": self.trans.tolist(),
            "tM": self.emit_match.tolist(),
            "tI": self.emit_insert.tolist(),
            "tD": self.emit_delete.tolist(),
            "mode": self.mode,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PairHmmParams":
        if not isinstance(data, dict):
            raise ValueError("pair-HMM parameters must be a JSON object")
        missing = [key for key in ("S", "tM", "tI", "tD") if key not in data]
        if missing:
            raise ValueError(
                f"pair-HMM parameters need S, tM, tI and tD: missing {missing[0]!r}"
            )
        return cls(
            trans=np.array(data["S"], dtype=float),
            emit_match=np.array(data["tM"], dtype=float),
            emit_insert=np.array(data["tI"], dtype=float),
            emit_delete=np.array(data["tD"], dtype=float),
            mode=data.get("mode", "algebraic"),
        )


@dataclass(frozen=True)
class ScoringScheme:
    """Match/mismatch/indel scoring: a match scores +1, a mismatch
    scores -mismatch, an inserted or deleted letter scores -gap."""

    mismatch: float
    gap: float

    def __post_init__(self):
        if not (0 <= self.mismatch < math.inf and 0 <= self.gap < math.inf):
            raise ValueError("mismatch and gap penalties must be finite and non-negative")


def scoring_scheme_params(scheme: ScoringScheme) -> PairHmmParams:
    """Pair-HMM parameters whose logs realize the simple scoring scheme:
    unit transitions, match emissions e^{+1} (same letter) or
    e^{-mismatch}, and indel emissions e^{-gap}."""
    return _log_weight_params(1.0, scheme.mismatch, scheme.gap)


def _log_weight_params(match: float, mismatch: float, gap: float) -> PairHmmParams:
    """Unit transitions, match emissions e^{match} (same letter) or
    e^{-mismatch}, and indel emissions e^{-gap}."""
    em = np.full((4, 4), math.exp(-mismatch))
    np.fill_diagonal(em, math.exp(match))
    indel = np.full(4, math.exp(-gap))
    return PairHmmParams(
        trans=np.ones((3, 3)),
        emit_match=em,
        emit_insert=indel.copy(),
        emit_delete=indel.copy(),
        mode="algebraic",
    )


def _check_sequences(s1: str, s2: str) -> tuple[np.ndarray, np.ndarray]:
    """The nucleotide codes of two non-empty sequences."""
    codes = []
    for name, s in (("first", s1), ("second", s2)):
        if not s:
            raise ValueError(f"{name} sequence is empty")
        try:
            codes.append(encode(s))
        except ValueError as exc:
            raise ValueError(f"{exc} of the {name} sequence") from None
    return codes[0], codes[1]


# ---------------------------------------------------------------------------
# direct evaluation of one alignment word


def _columns(word: str, s1: str, s2: str):
    """The columns of an alignment word of s1 and s2 in order: (state,
    letter of s1 or None, letter of s2 or None), None marking a gap."""
    validate_alignment(word, len(s1), len(s2))
    i = j = 0
    for state in word:
        a = b = None
        if state != "I":
            a, i = s1[i], i + 1
        if state != "D":
            b, j = s2[j], j + 1
        yield state, a, b


def _factors(p: PairHmmParams, word: str, s1: str, s2: str):
    """The factors of one word's parameter monomial in word order: each
    position's transition from the previous state (none for the first
    position), then its emission."""
    codes = _check_sequences(s1, s2)
    for k, (state, a, b) in enumerate(_columns(word, *codes)):
        if k:
            yield float(p.trans[_S[word[k - 1]], _S[state]])
        if state == "M":
            yield float(p.emit_match[a, b])
        elif state == "I":
            yield float(p.emit_insert[b])
        else:
            yield float(p.emit_delete[a])


def alignment_monomial(p: PairHmmParams, word: str, s1: str, s2: str) -> float:
    """Value of the parameter monomial of one alignment word: the first
    state's emission times transition-emission factors for the rest."""
    value = 1.0
    for factor in _factors(p, word, s1, s2):
        value *= factor
    return value


def log_alignment_monomial(p: PairHmmParams, word: str, s1: str, s2: str) -> float:
    """Log of :func:`alignment_monomial`, summed factor by factor in word
    order, so it stays finite where the product underflows."""
    score = 0.0
    for factor in _factors(p, word, s1, s2):
        if factor == 0.0:
            return NEG_INF
        score += math.log(factor)
    return score


# ---------------------------------------------------------------------------
# the shared grid dynamic program

# Node (i, j, k) holds the semiring total over alignment prefixes that
# consume i letters of the first and j of the second sequence and end in
# state k.  The empty prefix at (0, 0) is a fourth, start state, whose
# transitions carry no factor: the first position has only its emission.
# The grid is swept one anti-diagonal d = i + j (rows lo .. hi) at a time
# on buffers made once per call: three (4, n + 2) diagonals, states by
# row with row i at column i + 1 (column 0 is the missing row -1), and
# one (3 targets, 4 sources, n + 1) buffer of candidates, (predecessor
# times transition) times emission.  Spans only grow upwards, so what a
# diagonal reads and none wrote is zero, as are the states that cannot
# occur (M or I at j = 0, M or D at i = 0).
#
# Probability rescales every diagonal by an exact power of two, so that
# its largest entry lies in [1/2, 1), and carries the exponents apart
# (Durbin et al., Biological Sequence Analysis, 1998, section 3.6).  The
# log of the total is then finite however far the total underflows.
#
# Max-plus adds in the order (prev + log trans) + log emit and keeps, per
# node, a bit mask of the predecessor states that reach the maximum
# exactly.  Its zero is NaN under fmax, not the -inf of MaxPlusSemiring,
# so a missing state neither wins nor ties with a node whose best is -inf.
# Ties are resolved once, at the end: every node on an optimal path is
# marked backwards from the best final states, and the word is read
# forwards from (0, 0), taking the smallest letter (D < I < M) into a
# marked node by a tight edge; as words ending at one cell are never
# prefixes of one another, that is the lexicographically smallest one.

_START = 3
_VITERBI = Semiring(np.nan, 0.0, np.fmax, np.add)
#: (rows, columns) that each state's letter consumes, by state index
_MOVES = ((1, 1), (0, 1), (1, 0))
_WALK_ORDER = (_S["D"], _S["I"], _S["M"])
_SOURCE_BITS = np.array([[1], [2], [4], [8]], dtype=np.uint8)
#: _KEEP[k, v] is 0xFF if state bit k of the mask v is set, else 0
_KEEP = np.array([[255 * (v >> k & 1) for v in range(8)] for k in range(3)], np.uint8)


def _sweep(tables, c1: np.ndarray, c2: np.ndarray, sr: Semiring, step):
    """Run the grid over the anti-diagonals d = 1 .. n + m of the
    sequences with nucleotide codes ``c1`` and ``c2``.

    ``tables`` are the transition, match, insert and delete tables in the
    values of the float semiring ``sr``.  ``step(d, lo, hi, cand, nodes)``
    sees views of diagonal d's (3, 4, w) candidates by target and source
    and its (3, w) sums for rows lo .. hi, and may rewrite ``nodes`` in
    place.  Returns the final cell's M, I and D."""
    trans, match, insert, delete = tables
    trans = np.vstack((trans, np.full(3, sr.one))).T[:, :, None]  # [target, source]
    a, b = (np.concatenate(([0], c)) for c in (c1, c2))  # 1-based letters
    n, m = len(a) - 1, len(b) - 1
    ins_rev, del_pad = insert[b[::-1]], delete[a]  # ins_rev[m - j]: into column j
    # (i, d - i) emits match_at[n + m - d + at[i]] = match[a[i], b[d - i]]
    match_at = np.concatenate((np.zeros(n), match[:, b[::-1]].ravel()))
    at, emit_m = a * (m + 1) + np.arange(n + 1), np.empty(n + 1)
    vals = np.full((3, 4, n + 2), sr.zero)  # diagonal d in vals[d % 3]
    vals[0, _START, 1] = sr.one
    cand = np.empty((3, 4, n + 1))
    for d in range(1, n + m + 1):
        lo, hi = max(0, d - m), min(n, d)
        rows, cols = slice(lo, hi + 1), slice(m - d + lo, m - d + hi + 1)
        c = cand[:, :, :hi - lo + 1]
        # sources: M row i - 1 of diagonal d - 2, I row i and D row i - 1 of d - 1
        sr.mul(vals[(d - 2) % 3, :, rows], trans[0], c[0])
        sr.mul(vals[(d - 1) % 3, :, lo + 1:hi + 2], trans[1], c[1])
        sr.mul(vals[(d - 1) % 3, :, rows], trans[2], c[2])
        e = emit_m[:hi - lo + 1]
        match_at[n + m - d:].take(at[rows], None, e)
        sr.mul(c[0], e, c[0])
        sr.mul(c[1], ins_rev[cols], c[1])
        sr.mul(c[2], del_pad[rows], c[2])
        nodes = vals[d % 3, :3, lo + 1:hi + 2]
        sr.add.reduce(c, 1, None, nodes)
        step(d, lo, hi, c, nodes)
        if d == 2:  # the start node feeds diagonals 1 and 2 only
            vals[0, _START, 1] = sr.zero
    return vals[(n + m) % 3, :3, n + 1]


def _scaled_probability(p: PairHmmParams, s1: str, s2: str) -> tuple[float, int]:
    """(mantissa, exponent) with pair probability = mantissa * 2**exponent."""
    codes = _check_sequences(s1, s2)
    exps = [0, 0]  # binary exponents of the diagonals so far, from d = -1

    def step(d, lo, hi, cand, nodes):
        # M comes from diagonal d - 2: express it in d - 1's units
        np.ldexp(nodes[0], exps[-2] - exps[-1], nodes[0])
        shift = math.frexp(nodes.max())[1]
        exps.append(exps[-1] + shift)
        np.ldexp(nodes, -shift, nodes)

    tables = (p.trans, p.emit_match, p.emit_insert, p.emit_delete)
    final = _sweep(tables, *codes, ProbabilitySemiring, step)
    return float(final.sum()), exps[-1]


def _mark(tight: np.ndarray, best_final: np.ndarray, n: int, m: int, base) -> np.ndarray:
    """Masks of the states whose nodes lie on tight paths to a best final
    state, laid out as ``tight``.  A slice that reaches past a diagonal's
    rows carries only empty masks: no tight edge leaves row or column -1."""
    marked = np.zeros(tight.shape[1], dtype=np.uint8)
    marked[-1] = np.packbits(best_final, bitorder="little")[0]
    buf = np.empty((3, min(n, m) + 1), dtype=np.uint8)
    for d in range(n + m, 1, -1):  # diagonal 0 is never read
        lo, hi = max(0, d - m), min(n, d)
        bits = buf[:, :hi - lo + 1]
        _KEEP.take(marked[base[d] + lo:base[d] + hi + 1], 1, bits)
        bits &= tight[:, base[d] + lo:base[d] + hi + 1]
        marked[base[d - 2] + lo - 1:base[d - 2] + hi] |= bits[0]
        marked[base[d - 1] + lo:base[d - 1] + hi + 1] |= bits[1]
        marked[base[d - 1] + lo - 1:base[d - 1] + hi] |= bits[2]
    return marked


# ---------------------------------------------------------------------------
# the parametric polygon sweep

# An alignment prefix at cell (i, j) with t M letters has indel count
# i + j - 2t, so for each node (i, j, t) only the least and the greatest
# achievable mismatch count x matter: every other point of the node lies
# between them on one horizontal line.  The polygon is the hull of those
# two extremes at the final cell, over t = 0 .. min(n, m) (Pachter &
# Sturmfels, "Parametric inference for biological sequence analysis",
# PNAS 2004, compute the same polygon by hull-and-Minkowski propagation).
# Both extremes are minima of an integer count that each M letter raises
# by 0 or 1: the lo side counts mismatches, the hi side equal letters
# (t minus x, which is least where x is greatest).
#
# The sweep runs by word length l = i + j - t.  A layer is indexed by
# (a, b) = (#D, #I), so i = l - b, j = l - a, t = l - a - b, and all three
# predecessors lie in layer l - 1: D at (a - 1, b), I at (a, b - 1) and M
# at (a, b) itself.  Layer l's box is a in [max(0, l - m), min(n, l)] by
# b in [max(0, l - n), min(m, l)]; its entries with a + b > l stand for no
# node and stay above every real count.  Two (2, n + 2, m + 2) buffers,
# with (a, b) at [a + 1, b + 1], alternate between layers: a layer reads
# only the previous layer's box and entries that no layer has written.
# The M step of layer l is a plain slice of the flipped step table.
#
# Witnesses use prefix ranks, as semirings._argmax_chain does.  All words
# that reach a layer have the same length, so a node's lexicographically
# smallest extreme word is the smallest (predecessor's word, letter) over
# the predecessors that reach the node's extreme, with D < I < M.  Each
# node carries a key that orders those words: 4 * (its predecessor's key)
# + letter, so the letter is the key's low two bits.  The count and the
# key are packed into one int64, count high, and one minimum compares
# both.  Keys grow two bits per layer; when the next layer could carry
# into the count, the layer's keys are replaced by their ranks (one
# argsort).  Each node stores its two letters (lo side in bits 0-1, hi
# side in bits 2-3); a vertex's witness is read back from the final cell.

_LETTERS = "DIM"  # polygon letter codes, in witness order
_LETTER_D, _LETTER_I, _LETTER_M = range(3)


def _polygon_sweep(c1: np.ndarray, c2: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
    """Least and greatest mismatch counts at the final cell by M count
    t = 0 .. min(n, m), and each layer's letters by (a, b) in its box,
    for the sequences with nucleotide codes ``c1`` and ``c2``."""
    n, m = len(c1), len(c2)
    # entries with no node start at ``absent`` and grow by at most one per
    # layer, so the packed count never reaches the sign bit
    absent = min(n, m) + 1
    bits = 63 - (absent + n + m).bit_length()
    mask = (1 << bits) - 1
    if 4 * 2 * (n + 1) * (m + 1) > mask:  # ranks of a full box, shifted once
        raise ValueError(f"sequence lengths ({n}, {m}) are too large for a polygon")
    match = c1[:, None] == c2[None, :]
    counts = np.zeros((2, n + 1, m + 1), dtype=np.int64)
    counts[0, 1:, 1:] = ~match
    counts[1, 1:, 1:] = match
    # m_step[s, m - l + a, n - l + b]: packed step of the M letter into
    # node (a, b) of layer l, which enters cell (l - b, l - a)
    m_step = (counts[:, ::-1, ::-1].transpose(0, 2, 1) << bits) + _LETTER_M
    prev = np.full((2, n + 2, m + 2), absent << bits, dtype=np.int64)
    cur = prev.copy()
    cur[:, 1, 1] = 0  # layer 0: the empty word
    key_bound = 0
    letters = [None]
    ends = np.empty((2, min(n, m) + 1), dtype=np.int64)
    for l in range(1, n + m + 1):
        prev, cur = cur, prev
        a0, a1, b0, b1 = max(0, l - m), min(n, l), max(0, l - n), min(m, l)
        src = prev[:, a0:a1 + 2, b0:b1 + 2]
        src = src + (src & mask) * 3  # key -> 4 * key
        box = cur[:, a0 + 1:a1 + 2, b0 + 1:b1 + 2]
        np.minimum(src[:, :-1, 1:], src[:, 1:, :-1] + _LETTER_I, out=box)
        steps = m_step[:, m - l + a0:m - l + a1 + 1, n - l + b0:n - l + b1 + 1]
        np.minimum(box, src[:, 1:, 1:] + steps, out=box)
        side = (box & 3).astype(np.uint8)
        letters.append(side[0] | side[1] << 2)
        if l >= max(n, m):  # the box corner (a0, b0) is the final cell
            ends[:, n + m - l] = box[:, 0, 0] >> bits
        key_bound = 4 * key_bound + 3
        if 4 * key_bound + 3 > mask:
            # valid keys of one side are distinct (one word per node), so
            # any ranking consistent with their order keeps every choice
            keys = box & mask
            order = keys.ravel().argsort()
            ranks = np.empty(order.size, dtype=np.int64)
            ranks[order] = np.arange(order.size)
            box += ranks.reshape(keys.shape) - keys
            key_bound = order.size - 1
    return ends[0], np.arange(ends.shape[1]) - ends[1], letters


# ---------------------------------------------------------------------------
# public operations


class ScoredAlignment(NamedTuple):
    word: str
    score: float


@dataclass(frozen=True)
class ParametricPolygon:
    """Convex hull of the (mismatch count, indel count) pairs achievable
    by alignments of one sequence pair, with one witness alignment per
    vertex.  The indel count aggregates insertions and deletions."""

    polygon: LatticePolygon
    witnesses: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "vertices": [list(v) for v in self.polygon.vertices],
            "witnesses": list(self.witnesses),
        }


def pair_probability(p: PairHmmParams, s1: str, s2: str) -> float:
    """Total weight of generating the two sequences: the sum over all
    alignments of the alignment's parameter monomial, in O(n*m).  Below
    the smallest double this is 0.0; :func:`log_pair_probability` stays
    finite."""
    mantissa, exponent = _scaled_probability(p, s1, s2)
    try:
        return math.ldexp(mantissa, exponent)
    except OverflowError:  # above the largest double, as a float product
        return math.inf


def log_pair_probability(p: PairHmmParams, s1: str, s2: str) -> float:
    """Natural log of :func:`pair_probability`, computed from the scaled
    sweep, so it is finite even where the probability underflows."""
    mantissa, exponent = _scaled_probability(p, s1, s2)
    if mantissa == 0.0:
        return NEG_INF
    return math.log(mantissa) + exponent * math.log(2.0)


def viterbi_alignment(p: PairHmmParams, s1: str, s2: str) -> ScoredAlignment:
    """Alignment with the largest log monomial; exact ties resolved by
    the lexicographically smallest word under D < I < M."""
    return _viterbi(p, *_check_sequences(s1, s2))


def _viterbi(p: PairHmmParams, c1: np.ndarray, c2: np.ndarray) -> ScoredAlignment:
    """:func:`viterbi_alignment` of the sequences with codes c1 and c2."""
    n, m = len(c1), len(c2)
    with np.errstate(divide="ignore"):
        tables = [np.log(t) for t in (p.trans, p.emit_match, p.emit_insert, p.emit_delete)]
    # tight[k, base[d] + i]: bit s set when predecessor state s reaches the
    # maximum at node (i, d - i, k); a guard entry, then each diagonal by row
    starts = accumulate((min(n, m, d, n + m - d) + 1 for d in range(n + m)), initial=1)
    base = [start - max(0, d - m) for d, start in enumerate(starts)]
    tight = np.zeros((3, (n + 1) * (m + 1) + 1), dtype=np.uint8)
    flags = np.empty((3, 4, n + 1), dtype=np.uint8)

    def step(d, lo, hi, cand, nodes):
        f = flags[:, :, :hi - lo + 1]
        np.equal(cand, nodes[:, None, :], f)
        f *= _SOURCE_BITS
        np.add.reduce(f, 1, None, tight[:, base[d] + lo:base[d] + hi + 1])

    final = _sweep(tables, c1, c2, _VITERBI, step)
    score = np.fmax.reduce(final)
    marked = _mark(tight, final == score, n, m, base).data
    tight = [t.data for t in tight]
    word = []
    i = j = 0
    state = _START
    while i < n or j < m:
        for k in _WALK_ORDER:
            di, dj = _MOVES[k]
            if i + di > n or j + dj > m:
                continue
            node = base[i + di + j + dj] + i + di
            if marked[node] >> k & 1 and tight[k][node] >> state & 1:
                break
        word.append(STATES[k])
        i, j, state = i + di, j + dj, k
    return ScoredAlignment("".join(word), float(score))


def score_alignment_basic(scheme: ScoringScheme, s1: str, s2: str) -> ScoredAlignment:
    """Best alignment under +1 match / -mismatch / -gap position scores.

    By construction this is :func:`viterbi_alignment` on
    :func:`scoring_scheme_params`, whose logs are these position scores
    up to rounding, with zero transition weights; the reported score
    re-scores the word in exact position arithmetic.  Penalties above
    700, whose weights e^{-penalty} would underflow, first have all
    three log weights divided by max(mismatch, gap) / 700, which keeps
    the arg-max.  A score that is not finite raises ``ValueError``.

    Ties are broken on the rounded logs, not on the exact scores:
    ``A``/``C`` at mismatch 0.125 and gap 0.0625 gives ``M`` (log weight
    -0.12499999999999994) over ``DI`` (-0.12499999999999996), although
    both score -0.125 and D < I < M would pick ``DI``.  The division is
    in floats too: once a penalty exceeds the unit match score about
    1e16-fold, the +-1 letter weights round away in ``exp``, all words
    with the fewest indels tie and D < I < M picks one (``ACGT``/``ACG``
    at mismatch 1 and gap 1e308 gives ``DMMM``).
    """
    c1, c2 = _check_sequences(s1, s2)
    c = max(1.0, scheme.mismatch / 700, scheme.gap / 700)
    params = _log_weight_params(1.0 / c, scheme.mismatch / c, scheme.gap / c)
    best = _viterbi(params, c1, c2)
    columns = _columns(best.word, c1.tolist(), c2.tolist())
    same = [a == b for state, a, b in columns if state == "M"]
    matches, indels = sum(same), len(best.word) - len(same)
    score = matches - scheme.mismatch * (len(same) - matches) - scheme.gap * indels
    if not math.isfinite(score):
        raise ValueError(f"alignment score {score} is not finite")
    return ScoredAlignment(best.word, float(score))


def parametric_polygon(s1: str, s2: str) -> ParametricPolygon:
    """Lattice polygon of achievable (mismatch, indel) counts.

    Every optimal alignment under any choice of mismatch/gap penalties
    sits at a vertex of this polygon, so it partitions the penalty plane
    into regions of constant optimal alignment.  Each vertex carries its
    lexicographically smallest witness alignment.
    """
    c1, c2 = _check_sequences(s1, s2)
    n, m = len(c1), len(c2)
    lo, hi, letters = _polygon_sweep(c1, c2)
    y = (n + m - 2 * np.arange(len(lo))).tolist() * 2
    vertices = convex_hull(zip(lo.tolist() + hi.tolist(), y))

    def witness(x: int, y: int) -> str:
        t = (n + m - y) // 2
        shift = 0 if x == lo[t] else 2
        a, b = n - t, m - t
        word = []
        for l in range(n + m - t, 0, -1):
            k = letters[l][a - max(0, l - m), b - max(0, l - n)] >> shift & 3
            word.append(_LETTERS[k])
            if k == _LETTER_D:
                a -= 1
            elif k == _LETTER_I:
                b -= 1
        return "".join(reversed(word))

    return ParametricPolygon(
        polygon=LatticePolygon(vertices),
        witnesses=tuple(witness(x, y) for x, y in vertices),
    )


def format_alignment(word: str, s1: str, s2: str) -> str:
    """Two-row gapped rendering of an alignment word."""
    columns = list(_columns(word, s1, s2))
    top = "".join(a or "-" for _, a, _ in columns)
    bottom = "".join(b or "-" for _, _, b in columns)
    return top + "\n" + bottom
