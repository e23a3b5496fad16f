"""Alignment counting/enumeration, the pair model's total probability
and decoding against word-enumeration oracles, scoring-scheme
equivalence, and parametric polygons against reachable-point hulls."""

import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import phylokit
from phylokit import pairhmm
from phylokit.pairhmm import (
    PairHmmParams,
    ScoringScheme,
    alignment_monomial,
    delannoy_count,
    enumerate_alignments,
    format_alignment,
    is_alignment,
    log_alignment_monomial,
    log_pair_probability,
    pair_probability,
    parametric_polygon,
    score_alignment_basic,
    scoring_scheme_params,
    viterbi_alignment,
)
from phylokit.semirings import convex_hull

from conftest import gift_wrap_hull, rng

# the 25 alignment words of a length-2 / length-3 sequence pair
WORDS_2_3 = [
    "IIIDD", "IIDID", "IIDDI", "IDIID", "IDIDI", "IDDII",
    "DIIID", "DIIDI", "DIDII", "DDIII",
    "MIID", "MIDI", "MDII", "IMID", "IMDI", "IIMD",
    "IIDM", "IDMI", "IDIM", "DMII", "DIMI", "DIIM",
    "MMI", "MIM", "IMM",
]

_NUC = "ACGT"
_IDX = {c: i for i, c in enumerate(_NUC)}


def _random_pair_params(g, mode="algebraic") -> PairHmmParams:
    trans = g.random((3, 3)) + 0.05
    em = g.random((4, 4)) + 0.05
    ei = g.random(4) + 0.05
    ed = g.random(4) + 0.05
    if mode == "stochastic":
        trans /= trans.sum(axis=1, keepdims=True)
        em /= em.sum()
        ei /= ei.sum()
        ed /= ed.sum()
    return PairHmmParams(
        trans=trans, emit_match=em, emit_insert=ei, emit_delete=ed, mode=mode
    )


def _random_dna(g, n: int) -> str:
    return "".join(_NUC[i] for i in g.integers(0, 4, size=n))


def _local_monomial(p: PairHmmParams, word: str, s1: str, s2: str) -> float:
    """Test-local evaluation of one alignment word's monomial."""
    order = {"M": 0, "I": 1, "D": 2}
    i = j = 0
    value = 1.0
    for pos, state in enumerate(word):
        if state in "MD":
            i += 1
        if state in "MI":
            j += 1
        if pos > 0:
            value *= p.trans[order[word[pos - 1]], order[state]]
        if state == "M":
            value *= p.emit_match[_IDX[s1[i - 1]], _IDX[s2[j - 1]]]
        elif state == "I":
            value *= p.emit_insert[_IDX[s2[j - 1]]]
        else:
            value *= p.emit_delete[_IDX[s1[i - 1]]]
    return float(value)


def _local_log_monomial(p, word, s1, s2) -> float:
    order = {"M": 0, "I": 1, "D": 2}
    i = j = 0
    score = 0.0
    for pos, state in enumerate(word):
        if state in "MD":
            i += 1
        if state in "MI":
            j += 1
        if pos > 0:
            score = score + math.log(p.trans[order[word[pos - 1]], order[state]])
        if state == "M":
            score = score + math.log(p.emit_match[_IDX[s1[i - 1]], _IDX[s2[j - 1]]])
        elif state == "I":
            score = score + math.log(p.emit_insert[_IDX[s2[j - 1]]])
        else:
            score = score + math.log(p.emit_delete[_IDX[s1[i - 1]]])
    return score


def _class_point(word: str, s1: str, s2: str) -> tuple[int, int]:
    """(mismatch, indel) counts of one alignment word."""
    i = j = mismatches = indels = 0
    for state in word:
        if state == "M":
            i += 1
            j += 1
            if s1[i - 1] != s2[j - 1]:
                mismatches += 1
        elif state == "I":
            j += 1
            indels += 1
        else:
            i += 1
            indels += 1
    return mismatches, indels


def _reachable_points(s1: str, s2: str) -> set[tuple[int, int]]:
    """All achievable (mismatch, indel) pairs by set-valued recursion
    over prefix cells (independent of any hull machinery)."""
    n, m = len(s1), len(s2)
    reach = {(0, 0): {(0, 0)}}
    for i in range(n + 1):
        for j in range(m + 1):
            if i == 0 and j == 0:
                continue
            acc = set()
            if i >= 1 and j >= 1:
                bump = 0 if s1[i - 1] == s2[j - 1] else 1
                acc |= {(x + bump, y) for x, y in reach[(i - 1, j - 1)]}
            if j >= 1:
                acc |= {(x, y + 1) for x, y in reach[(i, j - 1)]}
            if i >= 1:
                acc |= {(x, y + 1) for x, y in reach[(i - 1, j)]}
            reach[(i, j)] = acc
    return reach[(n, m)]


_MOVES = {"M": (1, 1), "I": (0, 1), "D": (1, 0)}


def _reference_viterbi(p: PairHmmParams, s1: str, s2: str) -> tuple[str, float]:
    """Plain grid DP carrying, per cell and final state, the best log
    score and the lexicographically smallest full word that reaches it.
    Scores add in the order (prev + log trans) + log emit."""
    order = {"M": 0, "I": 1, "D": 2}
    lt, lm = np.log(p.trans), np.log(p.emit_match)
    li, ld = np.log(p.emit_insert), np.log(p.emit_delete)
    n, m = len(s1), len(s2)
    best: dict = {}
    for i in range(n + 1):
        for j in range(m + 1):
            for state, (di, dj) in _MOVES.items():
                pi, pj = i - di, j - dj
                if pi < 0 or pj < 0:
                    continue
                if state == "M":
                    e = float(lm[_IDX[s1[i - 1]], _IDX[s2[j - 1]]])
                elif state == "I":
                    e = float(li[_IDX[s2[j - 1]]])
                else:
                    e = float(ld[_IDX[s1[i - 1]]])
                if (pi, pj) == (0, 0):
                    cands = [(e, state)]
                else:
                    cands = [
                        (score + float(lt[order[prev], order[state]]) + e, word + state)
                        for prev, (score, word) in best[(pi, pj)].items()
                    ]
                top = max(score for score, _ in cands)
                word = min(w for score, w in cands if score == top)
                best.setdefault((i, j), {})[state] = (top, word)
    final = best[(n, m)].values()
    top = max(score for score, _ in final)
    return min(w for score, w in final if score == top), top


def _reference_polygon(s1: str, s2: str) -> list[tuple[tuple[int, int], str]]:
    """Plain grid DP carrying, per cell, each hull vertex of the reachable
    (mismatch, indel) points with the lexicographically smallest full
    word that reaches it; (vertex, witness) pairs of the final cell."""
    n, m = len(s1), len(s2)
    cells = {(0, 0): {(0, 0): ""}}
    for i in range(n + 1):
        for j in range(m + 1):
            if i == 0 and j == 0:
                continue
            merged: dict = {}
            for state, (di, dj) in _MOVES.items():
                if i - di < 0 or j - dj < 0:
                    continue
                if state == "M":
                    dx, dy = int(s1[i - 1] != s2[j - 1]), 0
                else:
                    dx, dy = 0, 1
                for (x, y), word in cells[(i - di, j - dj)].items():
                    point, cand = (x + dx, y + dy), word + state
                    if point not in merged or cand < merged[point]:
                        merged[point] = cand
            cells[(i, j)] = {v: merged[v] for v in gift_wrap_hull(merged)}
    return list(cells[(n, m)].items())


def _tie_pairs(g, count: int) -> list[tuple[str, str]]:
    """Random pairs and tandem-repeat pairs (period 1 to 3), lengths 11-30."""
    pairs = []
    for t in range(count):
        n, m = (int(v) for v in g.integers(11, 31, size=2))
        if t % 2:
            unit = _random_dna(g, int(g.integers(1, 4)))
            reps = unit * (max(n, m) // len(unit) + 2)
            phase = int(g.integers(0, len(unit)))
            pairs.append((reps[:n], reps[phase:phase + m]))
        else:
            pairs.append((_random_dna(g, n), _random_dna(g, m)))
    return pairs


# ---------------------------------------------------------------------------
# counting and enumeration


def test_delannoy_values():
    assert delannoy_count(2, 3) == 25
    assert delannoy_count(1, 1) == 3
    assert delannoy_count(0, 7) == 1
    assert delannoy_count(5, 0) == 1
    assert delannoy_count(10, 10) == 8097453


@given(st.integers(0, 12), st.integers(0, 12))
def test_delannoy_matches_binomial_sum(n, m):
    # independent closed form: sum over k of C(n,k) C(m,k) 2^k
    expected = sum(math.comb(n, k) * math.comb(m, k) * 2**k for k in range(min(n, m) + 1))
    assert delannoy_count(n, m) == expected


def test_delannoy_matches_generating_function():
    # coefficients of 1/(1 - x - y - xy) by truncated series multiplication
    N = 8
    coeffs = [[0] * (N + 1) for _ in range(N + 1)]
    coeffs[0][0] = 1
    for total in range(1, 2 * N + 1):
        for n in range(N + 1):
            m = total - n
            if not 0 <= m <= N:
                continue
            value = 0
            if n >= 1:
                value += coeffs[n - 1][m]
            if m >= 1:
                value += coeffs[n][m - 1]
            if n >= 1 and m >= 1:
                value += coeffs[n - 1][m - 1]
            coeffs[n][m] = value
    for n in range(N + 1):
        for m in range(N + 1):
            if (n, m) != (0, 0):
                assert delannoy_count(n, m) == coeffs[n][m]


def test_enumerate_1_1():
    assert set(enumerate_alignments(1, 1)) == {"DI", "ID", "M"}


def test_enumerate_2_3_is_the_25_word_set():
    words = enumerate_alignments(2, 3)
    assert len(words) == 25
    assert set(words) == set(WORDS_2_3)


def test_enumerate_3_3_counts_and_validity():
    words = enumerate_alignments(3, 3)
    assert len(words) == delannoy_count(3, 3) == 63
    assert len(set(words)) == 63
    assert all(is_alignment(w, 3, 3) for w in words)


def test_enumerate_is_sorted_with_d_before_i_before_m():
    words = enumerate_alignments(2, 2)
    assert words == sorted(words)
    assert words[0] == "DDII"
    assert words[-1] == "MM"


def test_enumeration_cap():
    with pytest.raises(ValueError, match="8097453"):
        enumerate_alignments(10, 10, cap=10**6)


def test_enumerate_long_words_need_no_recursion():
    assert enumerate_alignments(1500, 0) == ["D" * 1500]
    words = enumerate_alignments(1500, 1)
    assert len(words) == delannoy_count(1500, 1) == 3001
    assert words[0] == "D" * 1500 + "I"
    assert words[-1] == "M" + "D" * 1499


def test_alignment_validation():
    assert is_alignment("MIID", 2, 3)
    assert not is_alignment("MIID", 3, 2)
    assert not is_alignment("MXI", 1, 2)


# ---------------------------------------------------------------------------
# pair probability


def test_pair_probability_1_1_formula():
    g = rng(61)
    p = _random_pair_params(g)
    s1, s2 = "A", "C"
    i, k = _IDX["A"], _IDX["C"]
    expected = (
        p.emit_match[i, k]
        + p.emit_insert[k] * p.trans[1, 2] * p.emit_delete[i]
        + p.emit_delete[i] * p.trans[2, 1] * p.emit_insert[k]
    )
    assert pair_probability(p, s1, s2) == pytest.approx(float(expected), rel=1e-12)


def test_pair_probability_2_3_equals_sum_of_25_monomials():
    g = rng(62)
    for _ in range(20):
        p = _random_pair_params(g)
        s1 = _random_dna(g, 2)
        s2 = _random_dna(g, 3)
        brute = sum(_local_monomial(p, w, s1, s2) for w in WORDS_2_3)
        assert pair_probability(p, s1, s2) == pytest.approx(brute, rel=1e-12)


def test_pair_probability_matches_enumeration_all_sizes_to_6():
    g = rng(63)
    for n in range(1, 7):
        for m in range(1, 7):
            p = _random_pair_params(g)
            s1, s2 = _random_dna(g, n), _random_dna(g, m)
            brute = sum(
                _local_monomial(p, w, s1, s2) for w in enumerate_alignments(n, m)
            )
            assert pair_probability(p, s1, s2) == pytest.approx(brute, rel=1e-12)


def test_pair_probability_input_validation():
    g = rng(64)
    p = _random_pair_params(g)
    with pytest.raises(ValueError, match="empty"):
        pair_probability(p, "", "ACGT")
    with pytest.raises(ValueError, match="position 2"):
        pair_probability(p, "ACXT", "ACGT")


def test_log_pair_probability_matches_log_of_probability_to_size_6():
    g = rng(72)
    for n in range(1, 7):
        for m in range(1, 7):
            p = _random_pair_params(g)
            s1, s2 = _random_dna(g, n), _random_dna(g, m)
            assert log_pair_probability(p, s1, s2) == pytest.approx(
                math.log(pair_probability(p, s1, s2)), rel=1e-12
            )


def test_log_pair_probability_is_finite_where_probability_underflows():
    g = rng(73)
    p = _random_pair_params(g, mode="stochastic")
    n = m = 400
    s1, s2 = _random_dna(g, n), _random_dna(g, m)
    assert pair_probability(p, s1, s2) == 0.0
    value = log_pair_probability(p, s1, s2)
    assert math.isfinite(value)
    best = viterbi_alignment(p, s1, s2).score
    tol = 1e-9 * (n + m)
    assert best - tol <= value <= best + math.log(delannoy_count(n, m)) + tol


def test_pair_probability_overflows_to_inf_with_a_finite_log():
    p = scoring_scheme_params(ScoringScheme(mismatch=0.0, gap=0.0))
    s = "A" * 400
    assert pair_probability(p, s, s) == math.inf
    value = log_pair_probability(p, s, s)
    # every alignment weighs e^{#M} >= 1, and the all-M word weighs e^400
    assert 400.0 < value <= 400.0 + math.log(delannoy_count(400, 400))


@pytest.mark.parametrize("x", [1e155, 1e200, 1e300, 1e-200, 1e-300])
def test_log_pair_probability_is_finite_at_extreme_parameters(x):
    # every parameter equals x, so a word of length L weighs x**(2L - 1):
    # L emissions and L - 1 transitions
    data = {"S": [[x] * 3] * 3, "tM": [[x] * 4] * 4, "tI": [x] * 4, "tD": [x] * 4}
    p = PairHmmParams.from_dict(data)
    logs = [(2 * len(w) - 1) * math.log(x) for w in enumerate_alignments(4, 4)]
    top = max(logs)
    want = top + math.log(sum(math.exp(v - top) for v in logs))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = log_pair_probability(p, "ACGT", "ACGT")
        assert pair_probability(p, "ACGT", "ACGT") == (math.inf if x > 1 else 0.0)
    assert got == pytest.approx(want, rel=1e-14)


def test_log_alignment_monomial_is_finite_on_a_long_word():
    g = rng(74)
    p = _random_pair_params(g, mode="stochastic")
    n = m = 300
    s1, s2 = _random_dna(g, n), _random_dna(g, m)
    word, i, j = [], 0, 0
    while i < n or j < m:
        letters = [c for c, (di, dj) in _MOVES.items() if i + di <= n and j + dj <= m]
        c = letters[int(g.integers(0, len(letters)))]
        word.append(c)
        i, j = i + _MOVES[c][0], j + _MOVES[c][1]
    word = "".join(word)
    assert alignment_monomial(p, word, s1, s2) == 0.0
    value = log_alignment_monomial(p, word, s1, s2)
    assert math.isfinite(value)
    assert value == pytest.approx(_local_log_monomial(p, word, s1, s2), rel=1e-12)


def test_monomials_match_the_local_evaluation_on_every_word_to_size_4():
    # every word of these sizes, so also those that start or end with
    # runs of D and I
    g = rng(75)
    for n in range(1, 5):
        for m in range(1, 5):
            p = _random_pair_params(g)
            s1, s2 = _random_dna(g, n), _random_dna(g, m)
            for w in enumerate_alignments(n, m):
                assert alignment_monomial(p, w, s1, s2) == _local_monomial(p, w, s1, s2)
                want = _local_log_monomial(p, w, s1, s2)
                assert log_alignment_monomial(p, w, s1, s2) == want


def test_monomial_degrees_for_2_3():
    # degree = #states + #transitions = 2 len(word) - 1: 9, 7, 5
    assert {2 * len(w) - 1 for w in WORDS_2_3} == {5, 7, 9}


# ---------------------------------------------------------------------------
# decoding


def test_viterbi_total_tie_gives_all_d_then_all_i():
    p = PairHmmParams(
        trans=np.ones((3, 3)),
        emit_match=np.ones((4, 4)),
        emit_insert=np.ones(4),
        emit_delete=np.ones(4),
    )
    best = viterbi_alignment(p, "ACG", "TT")
    assert best.word == "DDDII"
    assert best.score == pytest.approx(0.0, abs=1e-12)


def test_viterbi_strong_match_preference_gives_all_m():
    em = np.full((4, 4), 0.01)
    np.fill_diagonal(em, 0.9)
    p = PairHmmParams(
        trans=np.full((3, 3), 0.5),
        emit_match=em,
        emit_insert=np.full(4, 0.01),
        emit_delete=np.full(4, 0.01),
    )
    assert viterbi_alignment(p, "ACGT", "ACGT").word == "MMMM"


def test_viterbi_matches_enumeration_argmax():
    g = rng(65)
    for trial in range(25):
        n, m = 1 + trial % 4, 1 + (trial // 2) % 4
        p = _random_pair_params(g)
        s1, s2 = _random_dna(g, n), _random_dna(g, m)
        best_score, best_word = None, None
        for w in enumerate_alignments(n, m):
            score = _local_log_monomial(p, w, s1, s2)
            if (
                best_score is None
                or score > best_score
                or (score == best_score and w < best_word)
            ):
                best_score, best_word = score, w
        got = viterbi_alignment(p, s1, s2)
        assert got.word == best_word
        assert got.score == pytest.approx(best_score, rel=1e-12)


def test_viterbi_word_is_valid_and_rescores_consistently():
    g = rng(66)
    for _ in range(10):
        p = _random_pair_params(g)
        s1, s2 = _random_dna(g, 6), _random_dna(g, 9)
        got = viterbi_alignment(p, s1, s2)
        assert is_alignment(got.word, 6, 9)
        rescored = math.log(alignment_monomial(p, got.word, s1, s2))
        assert got.score == pytest.approx(rescored, rel=1e-10)


def _integer_log_params(g) -> PairHmmParams:
    """Integer log weights, with transition costs: exact ties whose
    optimal paths enter a cell from different states."""
    return PairHmmParams(
        trans=np.exp(-g.integers(0, 4, size=(3, 3)).astype(float)),
        emit_match=np.exp(np.where(np.eye(4, dtype=bool), 1.0, -1.0)),
        emit_insert=np.exp(np.full(4, -float(g.integers(0, 3)))),
        emit_delete=np.exp(np.full(4, -float(g.integers(0, 3)))),
    )


def test_viterbi_matches_reference_dp_beyond_enumeration_sizes():
    g = rng(75)
    for s1, s2 in _tie_pairs(g, 16):
        for p in (
            _random_pair_params(g),
            scoring_scheme_params(ScoringScheme(mismatch=1.0, gap=1.0)),
            _integer_log_params(g),
        ):
            word, score = _reference_viterbi(p, s1, s2)
            got = viterbi_alignment(p, s1, s2)
            assert got.word == word
            assert got.score == score


def test_viterbi_all_ones_model_at_200_gives_all_d_then_all_i():
    p = PairHmmParams(
        trans=np.ones((3, 3)),
        emit_match=np.ones((4, 4)),
        emit_insert=np.ones(4),
        emit_delete=np.ones(4),
    )
    g = rng(76)
    s1, s2 = _random_dna(g, 200), _random_dna(g, 200)
    assert viterbi_alignment(p, s1, s2).word == "D" * 200 + "I" * 200


# ---------------------------------------------------------------------------
# the grid sweep against a per-diagonal stacking copy

# A test-local grid sweep that stacks each diagonal's predecessors and
# emissions into fresh arrays, marks ties per state with clamped row
# spans and indexes cells i * (m + 1) + j.  The package's sweep on
# preallocated buffers must reproduce it bit for bit: words, scores and
# (mantissa, exponent) pairs.
_GRID_MOVES = ((1, 1), (0, 1), (1, 0))


def _stacked_sweep(tables, s1, s2, zero, start, step):
    match, insert, delete = tables
    a = np.array([_IDX[c] for c in s1], dtype=np.intp)
    b = np.array([_IDX[c] for c in s2], dtype=np.intp)
    n, m = len(a), len(b)
    a_pad = np.concatenate(([0], a))
    b_rev = np.concatenate((b[::-1], [0]))
    ins_rev, del_pad = insert[b_rev], delete[a_pad]
    prev2 = np.full((4, n + 2), zero)
    prev1 = np.full((4, n + 2), zero)
    prev1[3, 1] = start
    for d in range(1, n + m + 1):
        lo, hi = max(0, d - m), min(n, d)
        rows, up = slice(lo + 1, hi + 2), slice(lo, hi + 1)
        cols = slice(m - d + lo, m - d + hi + 1)
        src = np.stack((prev2[:, up], prev1[:, rows], prev1[:, up]))
        emit = np.stack((match[a_pad[up], b_rev[cols]], ins_rev[cols], del_pad[up]))
        cur = np.full((4, n + 2), zero)
        cur[:3, rows] = step(d, lo, hi, src, emit)
        prev2, prev1 = prev1, cur
    return prev1[:3, n + 1]


def _stacked_scaled_probability(p, s1, s2):
    trans = np.vstack((p.trans, np.ones(3))).T[:, :, None]
    exps = [0, 0]

    def step(d, lo, hi, src, emit):
        cand = src * trans
        cand *= emit[:, None, :]
        raw = cand.sum(axis=1)
        raw[0] = np.ldexp(raw[0], exps[-2] - exps[-1])
        shift = math.frexp(raw.max())[1]
        exps.append(exps[-1] + shift)
        return np.ldexp(raw, -shift)

    tables = (p.emit_match, p.emit_insert, p.emit_delete)
    final = _stacked_sweep(tables, s1, s2, 0.0, 1.0, step)
    return float(final.sum()), exps[-1]


def _stacked_viterbi(p, s1, s2):
    n, m = len(s1), len(s2)
    with np.errstate(divide="ignore"):
        trans = np.vstack((np.log(p.trans), np.zeros(3))).T[:, :, None]
        tables = (np.log(p.emit_match), np.log(p.emit_insert), np.log(p.emit_delete))
    tight = np.zeros((3, (n + 1) * (m + 1)), dtype=np.uint8)

    def step(d, lo, hi, src, emit):
        cand = src + trans
        cand += emit[:, None, :]
        best = np.fmax.reduce(cand, axis=1)
        ties = np.packbits(cand == best[:, None, :], axis=1, bitorder="little")
        tight[:, d + lo * m:d + hi * m + 1:m] = ties[:, 0]
        return best

    final = _stacked_sweep(tables, s1, s2, np.nan, 0.0, step)
    score = np.fmax.reduce(final)
    marked = np.zeros((n + 1) * (m + 1), dtype=np.uint8)
    marked[-1] = np.packbits(final == score, bitorder="little")[0]
    for d in range(n + m, 0, -1):
        lo, hi = max(0, d - m), min(n, d)
        for k, (di, dj) in enumerate(_GRID_MOVES):
            first, last = max(lo, di), min(hi, d - dj)
            if first > last:
                continue
            cells = slice(d + first * m, d + last * m + 1, m)
            back = di * (m + 1) + dj
            preds = slice(cells.start - back, cells.stop - back, m)
            marked[preds] |= tight[k, cells] * ((marked[cells] >> k) & 1)
    word = []
    i = j = 0
    state = 3
    while i < n or j < m:
        for k in (2, 1, 0):  # D < I < M
            di, dj = _GRID_MOVES[k]
            cell = (i + di) * (m + 1) + j + dj
            if (
                i + di <= n
                and j + dj <= m
                and marked[cell] >> k & 1
                and tight[k, cell] >> state & 1
            ):
                break
        word.append("MID"[k])
        i, j, state = i + di, j + dj, k
    return "".join(word), float(score)


def _assert_same_as_stacked(p, s1, s2):
    got = viterbi_alignment(p, s1, s2)
    word, score = _stacked_viterbi(p, s1, s2)
    assert (got.word, repr(got.score)) == (word, repr(score)), (s1, s2)
    want = _stacked_scaled_probability(p, s1, s2)
    assert repr(pairhmm._scaled_probability(p, s1, s2)) == repr(want), (s1, s2)


def _sweep_oracle_pairs(g, count: int) -> list[tuple[str, str]]:
    """Random, tandem-repeat (period 1 to 3) and A/C-only pairs of
    lengths 1-60; every fifth pair has one sequence of length 1."""
    pairs = []
    for t in range(count):
        n, m = (int(v) for v in g.integers(1, 61, size=2))
        if t % 5 == 4:
            n, m = (1, m) if t % 10 == 4 else (n, 1)
        kind = t % 3
        if kind == 0:
            pairs.append((_random_dna(g, n), _random_dna(g, m)))
        elif kind == 1:
            unit = _random_dna(g, int(g.integers(1, 4)))
            reps = unit * (max(n, m) // len(unit) + 2)
            phase = int(g.integers(0, len(unit)))
            pairs.append((reps[:n], reps[phase:phase + m]))
        else:
            pairs.append(tuple("".join("AC"[c] for c in g.integers(0, 2, k)) for k in (n, m)))
    return pairs


def _zero_transition_params(g) -> PairHmmParams:
    """Random weights with some transitions exactly 0 (log -inf)."""
    trans = g.random((3, 3)) + 0.05
    trans[g.random((3, 3)) < 0.4] = 0.0
    return PairHmmParams(
        trans=trans,
        emit_match=g.random((4, 4)) + 0.05,
        emit_insert=g.random(4) + 0.05,
        emit_delete=g.random(4) + 0.05,
    )


_SWEEP_PARAM_MAKERS = (
    _random_pair_params,
    lambda g: scoring_scheme_params(
        ScoringScheme(mismatch=float(g.integers(0, 3)), gap=float(g.integers(0, 3)))
    ),
    _integer_log_params,
    _zero_transition_params,
)


def test_sweep_matches_the_stacked_sweep_on_random_tie_and_two_letter_pairs():
    g = rng(90)
    for t, (s1, s2) in enumerate(_sweep_oracle_pairs(g, 240)):
        _assert_same_as_stacked(_SWEEP_PARAM_MAKERS[t % 4](g), s1, s2)


def test_sweep_matches_the_stacked_sweep_where_the_start_source_drops_out():
    # the start node is a source on diagonals 1 and 2 only: these pairs end
    # on either side of that switch, or run long past it on one row
    g = rng(93)
    for n, m in ((1, 1), (1, 2), (2, 1), (2, 2), (1, 40), (40, 1)):
        for make in _SWEEP_PARAM_MAKERS:
            for s1, s2 in ((_random_dna(g, n), _random_dna(g, m)), ("A" * n, "A" * m)):
                _assert_same_as_stacked(make(g), s1, s2)


def test_sweep_matches_the_stacked_sweep_at_underflow_and_overflow():
    g = rng(91)
    p = _random_pair_params(g, mode="stochastic")
    s1, s2 = _random_dna(g, 310), _random_dna(g, 300)
    assert pair_probability(p, s1, s2) == 0.0
    _assert_same_as_stacked(p, s1, s2)
    p = scoring_scheme_params(ScoringScheme(mismatch=0.0, gap=0.0))
    s1, s2 = "A" * 400, "A" * 390
    assert pair_probability(p, s1, s2) == math.inf
    _assert_same_as_stacked(p, s1, s2)


def test_grid_memory_at_400_stays_small():
    g = rng(92)
    p = _random_pair_params(g)
    s1, s2 = _random_dna(g, 400), _random_dna(g, 400)
    for run in (viterbi_alignment, log_pair_probability):
        tracemalloc.start()
        try:
            run(p, s1, s2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, run.__name__


# ---------------------------------------------------------------------------
# scoring schemes


def test_score_identical_sequences():
    best = score_alignment_basic(ScoringScheme(mismatch=1.0, gap=2.0), "ACGT", "ACGT")
    assert best.word == "MMMM"
    assert best.score == 4.0


def test_score_single_mismatch_beats_expensive_gaps():
    best = score_alignment_basic(ScoringScheme(mismatch=1.0, gap=10.0), "ACGT", "ACGA")
    assert best.word == "MMMM"
    assert best.score == 2.0
    # the brute-force check over all 321 alignments
    words = enumerate_alignments(4, 4)
    assert len(words) == 321

    def score(w):
        x, y = _class_point(w, "ACGT", "ACGA")
        matches = w.count("M") - x
        return matches - 1.0 * x - 10.0 * y

    assert max(score(w) for w in words) == 2.0


def test_scoring_scheme_equals_specialized_decoder():
    g = rng(67)
    for _ in range(100):
        mis = float(g.random() * 3)
        gap = float(g.random() * 3)
        scheme = ScoringScheme(mismatch=mis, gap=gap)
        s1 = _random_dna(g, int(g.integers(1, 7)))
        s2 = _random_dna(g, int(g.integers(1, 7)))
        direct = score_alignment_basic(scheme, s1, s2)
        via_params = viterbi_alignment(scoring_scheme_params(scheme), s1, s2)
        assert direct.word == via_params.word
        assert direct.score == pytest.approx(via_params.score, rel=1e-9, abs=1e-9)


def test_score_matches_reference_dp_beyond_enumeration_sizes():
    g = rng(77)
    for (s1, s2), (mis, gap) in zip(
        _tie_pairs(g, 12), [(1.0, 2.0), (0.5, 1.0), (2.0, 1.5), (1.0, 1.0)] * 3
    ):
        scheme = ScoringScheme(mismatch=mis, gap=gap)
        word, _ = _reference_viterbi(scoring_scheme_params(scheme), s1, s2)
        assert score_alignment_basic(scheme, s1, s2).word == word


def test_scoring_scheme_rejects_negative_penalties():
    with pytest.raises(ValueError):
        ScoringScheme(mismatch=-0.5, gap=1.0)


def test_scoring_scheme_rejects_non_finite_penalties():
    for bad in (math.nan, math.inf, -math.inf):
        for mismatch, gap in ((bad, 1.0), (1.0, bad)):
            with pytest.raises(ValueError, match="finite and non-negative"):
                ScoringScheme(mismatch=mismatch, gap=gap)


def test_score_survives_penalties_past_exp_underflow():
    # e^-800 is 0.0: without scaling every indel weighs -inf, all words
    # tie and the all-indel word DDDDIII (score -5600) comes back
    best = score_alignment_basic(ScoringScheme(mismatch=1.0, gap=800.0), "ACGT", "ACG")
    assert (best.word, best.score) == ("MMMD", -797.0)
    g = rng(79)
    for mis, gap in ((1.0, 800.0), (800.0, 1.0), (800.0, 1e4), (1e4, 800.0), (1e4, 1e4)):
        for _ in range(12):
            s1 = _random_dna(g, int(g.integers(1, 6)))
            s2 = _random_dna(g, int(g.integers(1, 6)))

            def exact(w):
                x, y = _class_point(w, s1, s2)
                return (w.count("M") - x) - mis * x - gap * y

            want = max(exact(w) for w in enumerate_alignments(len(s1), len(s2)))
            got = score_alignment_basic(ScoringScheme(mismatch=mis, gap=gap), s1, s2)
            assert got.score == exact(got.word) == want, (s1, s2, mis, gap)


def test_score_rejects_a_total_that_is_not_finite():
    scheme = ScoringScheme(mismatch=1.0, gap=1e308)
    with pytest.raises(ValueError, match="not finite"):
        score_alignment_basic(scheme, "ACGTA", "ACG")  # two indels: -inf
    best = score_alignment_basic(scheme, "ACGT", "ACG")
    # 1e308 swamps the +-1 letter scores, so every one-indel word ties
    assert best.score == -1e308
    assert best.word.count("D") == 1 and "I" not in best.word


# ---------------------------------------------------------------------------
# parametric polygons


def test_polygon_identical_sequences_contains_origin():
    poly = parametric_polygon("ACGTT", "ACGTT")
    assert (0, 0) in poly.polygon.vertices
    origin = poly.polygon.vertices.index((0, 0))
    assert poly.witnesses[origin] == "MMMMM"


def test_polygon_small_case_matches_enumeration_hull():
    s1, s2 = "AC", "GTA"
    words = enumerate_alignments(2, 3)
    pts = [_class_point(w, s1, s2) for w in words]
    expected = gift_wrap_hull(pts)
    poly = parametric_polygon(s1, s2)
    assert poly.polygon.vertices == expected
    # witnesses achieve their vertices and are the lexicographic minima
    for vertex, witness in zip(poly.polygon.vertices, poly.witnesses):
        assert _class_point(witness, s1, s2) == vertex
        best = min(w for w, p in zip(words, pts) if p == vertex)
        assert witness == best


def test_polygon_matches_enumeration_hull_random_small():
    g = rng(68)
    for _ in range(25):
        n, m = int(g.integers(1, 6)), int(g.integers(1, 6))
        s1, s2 = _random_dna(g, n), _random_dna(g, m)
        words = enumerate_alignments(n, m)
        pts = [_class_point(w, s1, s2) for w in words]
        poly = parametric_polygon(s1, s2)
        assert poly.polygon.vertices == gift_wrap_hull(pts)
        for vertex, witness in zip(poly.polygon.vertices, poly.witnesses):
            assert _class_point(witness, s1, s2) == vertex
            assert witness == min(w for w, p in zip(words, pts) if p == vertex)


def test_polygon_matches_reachability_hull_up_to_length_10():
    g = rng(69)
    for _ in range(100):
        n, m = int(g.integers(1, 11)), int(g.integers(1, 11))
        s1, s2 = _random_dna(g, n), _random_dna(g, m)
        poly = parametric_polygon(s1, s2)
        expected = gift_wrap_hull(_reachable_points(s1, s2))
        assert poly.polygon.vertices == expected
        for vertex, witness in zip(poly.polygon.vertices, poly.witnesses):
            assert is_alignment(witness, n, m)
            assert _class_point(witness, s1, s2) == vertex


def test_polygon_matches_reference_dp_beyond_enumeration_sizes():
    g = rng(78)
    for s1, s2 in _tie_pairs(g, 8):
        poly = parametric_polygon(s1, s2)
        assert list(zip(poly.polygon.vertices, poly.witnesses)) == _reference_polygon(s1, s2)


def _hull_per_cell_polygon(s1: str, s2: str) -> list[tuple[tuple[int, int], str]]:
    """Polygon by hull-per-cell propagation, the design the extreme-count
    sweep replaced: each cell keeps its hull vertices with the letters
    that reach them from a vertex of the letter's predecessor cell; the
    nodes on paths to each final vertex are marked backwards and the
    witness is walked forwards taking the smallest letter (D < I < M)
    into a marked node.  (vertex, witness) pairs of the final cell."""
    n, m = len(s1), len(s2)

    def step(i, j, state):
        return (int(s1[i - 1] != s2[j - 1]), 0) if state == "M" else (0, 1)

    hulls = {(0, 0): {(0, 0): ""}}
    for i in range(n + 1):
        for j in range(m + 1):
            if i == 0 and j == 0:
                continue
            cand: dict = {}
            for state, (di, dj) in _MOVES.items():
                if di <= i and dj <= j:
                    dx, dy = step(i, j, state)
                    for x, y in hulls[(i - di, j - dj)]:
                        q = (x + dx, y + dy)
                        cand[q] = cand.get(q, "") + state
            hulls[(i, j)] = {v: cand[v] for v in convex_hull(cand)}
    vertices = tuple(hulls[(n, m)])
    reach = {(n, m): {v: 1 << b for b, v in enumerate(vertices)}}
    for i in range(n, -1, -1):
        for j in range(m, -1, -1):
            for (x, y), bits in reach.get((i, j), {}).items():
                for state in hulls[(i, j)][(x, y)]:
                    di, dj = _MOVES[state]
                    dx, dy = step(i, j, state)
                    pred = reach.setdefault((i - di, j - dj), {})
                    pred[(x - dx, y - dy)] = pred.get((x - dx, y - dy), 0) | bits

    def witness(b):
        word, i, j, point = [], 0, 0, (0, 0)
        while (i, j) != (n, m):
            for state in "DIM":
                di, dj = _MOVES[state]
                if i + di <= n and j + dj <= m:
                    dx, dy = step(i + di, j + dj, state)
                    nxt = (point[0] + dx, point[1] + dy)
                    if reach.get((i + di, j + dj), {}).get(nxt, 0) >> b & 1:
                        break
            word.append(state)
            i, j, point = i + di, j + dj, nxt
        return "".join(word)

    return [(v, witness(b)) for b, v in enumerate(vertices)]


def _polygon_oracle_pairs(g, count: int, max_len: int) -> list[tuple[str, str]]:
    """Random, period-1-3 tandem-repeat and two-letter (A/C only, dense
    in ties) pairs of lengths 1 to ``max_len``, in turn."""
    pairs = []
    for t in range(count):
        n, m = (int(v) for v in g.integers(1, max_len + 1, size=2))
        if t % 3 == 0:
            pairs.append((_random_dna(g, n), _random_dna(g, m)))
        elif t % 3 == 1:
            unit = _random_dna(g, int(g.integers(1, 4)))
            reps = unit * (max(n, m) // len(unit) + 2)
            phase = int(g.integers(0, len(unit)))
            pairs.append((reps[:n], reps[phase:phase + m]))
        else:
            s1, s2 = ("".join("AC"[c] for c in g.integers(0, 2, size=k)) for k in (n, m))
            pairs.append((s1, s2))
    return pairs


def _vertex_witness_pairs(s1: str, s2: str) -> list[tuple[tuple[int, int], str]]:
    poly = parametric_polygon(s1, s2)
    return list(zip(poly.polygon.vertices, poly.witnesses))


def test_polygon_matches_hull_per_cell_propagation_to_length_90():
    g = rng(80)
    pairs = _polygon_oracle_pairs(g, 36, 90)
    pairs += [("A", "C"), ("G", "G"), ("T", _random_dna(g, 90)), ("AC" * 45, "A")]
    pairs += [("A" + "C" * 59, "C" * 60), ("CA" * 40, "AC" * 41)]
    for s1, s2 in pairs:
        assert _vertex_witness_pairs(s1, s2) == _hull_per_cell_polygon(s1, s2), (s1, s2)


def test_polygon_matches_reference_dp_on_two_letter_pairs():
    g = rng(81)
    pairs = _polygon_oracle_pairs(g, 36, 40)[2::3]
    assert all(set(s1 + s2) <= set("AC") for s1, s2 in pairs)
    for s1, s2 in pairs + [("A", "CACA"), ("ACCA", "C")]:
        assert _vertex_witness_pairs(s1, s2) == _reference_polygon(s1, s2), (s1, s2)


def test_polygon_memory_at_200_stays_small():
    # letters are stored for each layer's box only, one byte per node:
    # well below a whole (layers, n + 1, m + 1) table
    g = rng(82)
    s1, s2 = _random_dna(g, 200), _random_dna(g, 200)
    tracemalloc.start()
    try:
        parametric_polygon(s1, s2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_polygon_vertex_growth_script_runs():
    script = Path(__file__).resolve().parents[1] / "scripts" / "polygon_vertex_growth.py"
    src = str(Path(phylokit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(script), "--max-length", "10", "--trials", "2"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    header = done.stdout.splitlines()[0].split()
    assert header == ["n", "mean_vertices", "max_vertices", "n^(2/3)", "alignments"]


def test_polygon_vertex_count_is_trivially_below_delannoy():
    g = rng(70)
    for n in (10, 25, 50):
        s1, s2 = _random_dna(g, n), _random_dna(g, n)
        poly = parametric_polygon(s1, s2)
        assert 1 <= len(poly.polygon.vertices) <= delannoy_count(n, n)


# ---------------------------------------------------------------------------
# misc


def test_format_alignment_rendering():
    assert format_alignment("MIID", "AG", "CTT") == "A--G\nCTT-"
    assert format_alignment("DDMII", "ACG", "TCC") == "ACG--\n--TCC"
    assert format_alignment("IIMDD", "GTA", "CCG") == "--GTA\nCCG--"


def test_pair_params_validation_and_round_trip():
    g = rng(71)
    p = _random_pair_params(g, mode="stochastic")
    again = PairHmmParams.from_dict(p.to_dict())
    assert (again.trans == p.trans).all()
    with pytest.raises(ValueError, match="stochastic"):
        PairHmmParams(
            trans=np.ones((3, 3)),
            emit_match=np.ones((4, 4)),
            emit_insert=np.ones(4),
            emit_delete=np.ones(4),
            mode="stochastic",
        )
    with pytest.raises(ValueError, match="non-negative"):
        PairHmmParams(
            trans=-np.ones((3, 3)),
            emit_match=np.ones((4, 4)),
            emit_insert=np.ones(4),
            emit_delete=np.ones(4),
        )
