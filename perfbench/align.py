"""The ``align`` workload: pair-HMM grid jobs on random DNA pairs.

Nearly all of its time is in ``pairhmm``'s grid dynamic program; it does
not touch ``hmm``, ``treespace`` or ``evolution``.  A quarter of the
pairs are tandem repeats, where exact max-plus ties are common, and one
job in twenty is ``pair_probability`` on a pair long enough (n, m >= 300)
that the probability is below the smallest double.
"""

from __future__ import annotations

import math

import numpy as np

import reference as ref
from harness import Job, ReferenceMismatch, Verdict, stratified

MODULE = "pairhmm"
LENGTHS = (40, 140)
# two polygons per round at the same size, so that the 90th percentile
# falls between them and not at the edge of a group of jobs
POLYGON_LENGTH = 70
POLYGON_SMALL_LENGTH = 30
LONG_PAIR = (310, 300)  # lengths of the pair that underflows
SCORE_SETTINGS = [(1.0, 2.0), (0.5, 1.0), (2.0, 1.5), (1.0, 1.0)]
# penalty settings at which a polygon's best vertex must match the
# optimal alignment score
POLYGON_SETTINGS = [(1.0, 2.0), (0.5, 0.75), (3.0, 1.0)]

# one round: (kind, number of size strata, strata that get tandem pairs)
ROUND = [
    ("prob", 6, {2}),
    ("prob_long", 1, set()),
    ("viterbi", 6, {1, 4}),
    ("score", 4, {2}),
    ("polygon_small", 1, {0}),
    ("polygon", 2, set()),
]


def _random_seq(rng, n: int) -> str:
    return "".join(ref.NUC[i] for i in rng.integers(0, 4, n))


def _pair(rng, n: int, m: int, tie: bool) -> tuple[str, str]:
    if not tie:
        return _random_seq(rng, n), _random_seq(rng, m)
    unit = _random_seq(rng, int(rng.integers(1, 4)))
    reps = unit * (max(n, m) // len(unit) + 2)
    phase = int(rng.integers(0, len(unit)))
    return reps[:n], reps[phase:phase + m]


def _pair_params(pk, rng):
    mm = rng.uniform(0.8, 0.9)
    ext = rng.uniform(0.45, 0.55)
    trans = [
        [mm, (1 - mm) / 2, (1 - mm) / 2],
        [1 - ext - 0.1, ext, 0.1],
        [1 - ext - 0.1, 0.1, ext],
    ]
    diag = rng.uniform(0.15, 0.2)
    match = np.full((4, 4), (1 - 4 * diag) / 12)
    np.fill_diagonal(match, diag)
    return pk.pairhmm.PairHmmParams(
        trans=trans,
        emit_match=match,
        emit_insert=rng.dirichlet(np.full(4, 20.0)),
        emit_delete=rng.dirichlet(np.full(4, 20.0)),
        mode="stochastic",
    )


def _tables(p):
    return p.trans, p.emit_match, p.emit_insert, p.emit_delete


def _prob_job(p, s1, s2, tie) -> Job:
    n, m = len(s1), len(s2)
    memo = {}

    def check(out):
        if "dp" not in memo:
            memo["dp"] = ref.pair_dp(*_tables(p), s1, s2)
        log_p, best = memo["dp"]
        job.underflow = log_p < ref.LOG_TINY
        if not (isinstance(out, float) and out >= 0.0):
            return Verdict(False, f"not a probability: {out!r}")
        if out == 0.0:
            return Verdict(
                False,
                f"0.0 with finite Viterbi score {best:.1f} (n={n}, m={m})",
                known="underflow" if job.underflow else None,
            )
        tol = 1e-9 * (n + m)
        if not best - tol <= math.log(out) <= best + ref.log_delannoy(n, m) + tol:
            return Verdict(False, f"log prob {math.log(out)} outside [viterbi, viterbi + log D]")
        return Verdict(True)

    job = Job("prob", MODULE, lambda api: api.pair_probability(p, s1, s2), check,
               tie=tie)
    return job


def _viterbi_job(p, s1, s2, tie) -> Job:
    n, m = len(s1), len(s2)
    memo = {}

    def check(out):
        if ref.word_counts(out.word, s1, s2) is None:
            return Verdict(False, f"{out.word[:20]!r}... is not an alignment")
        tol = 1e-9 * (n + m)
        rescored = ref.log_monomial(*_tables(p), out.word, s1, s2)
        if abs(rescored - out.score) > tol:
            return Verdict(False, f"score {out.score} re-scores to {rescored}")
        if "best" not in memo:
            memo["best"] = ref.pair_dp(*_tables(p), s1, s2)[1]
        if abs(memo["best"] - out.score) > tol:
            return Verdict(False, f"score {out.score} is not the optimum {memo['best']}")
        return Verdict(True)

    return Job("viterbi", MODULE, lambda api: api.viterbi_alignment(p, s1, s2), check,
               tie=tie)


def _score_job(pk, setting, s1, s2, tie) -> Job:
    n, m = len(s1), len(s2)
    mismatch, gap = setting
    scheme = pk.pairhmm.ScoringScheme(mismatch=mismatch, gap=gap)
    memo = {}

    def check(out):
        counts = ref.word_counts(out.word, s1, s2)
        if counts is None:
            return Verdict(False, f"{out.word[:20]!r}... is not an alignment")
        matches, mism, indels = counts
        tol = 1e-9 * (n + m)
        if abs(matches - mismatch * mism - gap * indels - out.score) > tol:
            return Verdict(False, f"score {out.score} does not re-score")
        if "best" not in memo:
            memo["best"] = ref.best_basic_score(mismatch, gap, s1, s2)
        if abs(memo["best"] - out.score) > tol:
            return Verdict(False, f"score {out.score} is not the optimum {memo['best']}")
        return Verdict(True)

    return Job("score", MODULE, lambda api: api.score_alignment_basic(scheme, s1, s2), check,
               tie=tie)


def _polygon_job(s1, s2, tie) -> Job:
    n, m = len(s1), len(s2)
    memo = {}

    def check(out):
        vertices = [tuple(v) for v in out.polygon.vertices]
        if not vertices or len(vertices) != len(out.witnesses):
            return Verdict(False, "vertices and witnesses do not pair up")
        for v, w in zip(vertices, out.witnesses):
            counts = ref.word_counts(w, s1, s2)
            if counts is None or counts[1:] != v:
                return Verdict(False, f"witness {w[:20]!r}... does not realize {v}")
        for mismatch, gap in POLYGON_SETTINGS:
            key = (mismatch, gap)
            if key not in memo:
                memo[key] = ref.best_basic_score(mismatch, gap, s1, s2)
            # matches = (n + m - indels) / 2 - mismatches
            top = max((n + m - y) / 2 - x - mismatch * x - gap * y for x, y in vertices)
            if abs(top - memo[key]) > 1e-9 * (n + m):
                return Verdict(False, f"best vertex {top} != optimum {memo[key]} at {key}")
        return Verdict(True)

    return Job("polygon", MODULE, lambda api: api.parametric_polygon(s1, s2), check,
               tie=tie)


def make_round(env, rng, index: int) -> list[Job]:
    pk, scale = env.pk, env.scale
    p = _pair_params(pk, rng)
    jobs = []
    for kind, strata, tie_strata in ROUND:
        for s in range(strata):
            if kind == "prob_long":
                s1, s2 = (_random_seq(rng, n) for n in LONG_PAIR)
                jobs.append(_prob_job(p, s1, s2, False))
                continue
            if kind == "polygon":
                n = max(4, round(POLYGON_LENGTH * scale))
            elif kind == "polygon_small":
                n = max(4, round(POLYGON_SMALL_LENGTH * scale))
            else:
                n = max(4, round(stratified(*LENGTHS, s, strata) * scale))
            # the second sequence is 5% longer or shorter, alternately
            m = round(n * (1.05 if s % 2 else 0.95))
            s1, s2 = _pair(rng, n, m, s in tie_strata)
            # measured, not assumed: both sequences have a period <= 4
            tie = ref.min_period(s1) is not None and ref.min_period(s2) is not None
            if kind == "prob":
                jobs.append(_prob_job(p, s1, s2, tie))
            elif kind == "viterbi":
                jobs.append(_viterbi_job(p, s1, s2, tie))
            elif kind == "score":
                jobs.append(_score_job(pk, SCORE_SETTINGS[s % len(SCORE_SETTINGS)], s1, s2, tie))
            else:  # polygon, polygon_small
                jobs.append(_polygon_job(s1, s2, tie))
    order = rng.permutation(len(jobs))
    return [jobs[i] for i in order]


def warmup(env, api) -> None:
    pk = env.pk
    p = _pair_params(pk, np.random.Generator(np.random.Philox(0)))
    s1, s2 = "ACGTTGCA", "ACGTGCAT"
    api.pair_probability(p, s1, s2)
    api.viterbi_alignment(p, s1, s2)
    api.score_alignment_basic(pk.pairhmm.ScoringScheme(mismatch=1.0, gap=2.0), s1, s2)
    api.parametric_polygon(s1, s2)


def reference_check(pk) -> None:
    """The README's polygon example, exactly."""
    poly = pk.pairhmm.parametric_polygon("ACGGTAC", "AGGTTACA")
    got = list(zip([tuple(v) for v in poly.polygon.vertices], poly.witnesses))
    want = [((0, 3), "MDMMIMMMI"), ((2, 1), "MMMMMMMI"),
            ((7, 1), "IMMMMMMM"), ((0, 15), "DDDDDDDIIIIIIII")]
    if got != want:
        raise ReferenceMismatch(f"README polygon example gives {got}")
