"""Semiring values, polygon arithmetic, and the chain and tree evaluators,
checked against path and labelling enumeration and gift-wrapping oracles."""

import itertools
import logging
import math
import operator
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phylokit.semirings import (
    ChainSpec,
    LatticePolygon,
    LogSemiring,
    MaxPlusSemiring,
    PolygonSemiring,
    ProbabilitySemiring,
    TreeSpec,
    convex_hull,
    evaluate_chain,
    evaluate_tree,
    polygon_product,
    polygon_sum,
)

from conftest import block_lengths, gift_wrap_hull, rng

# dyadic grid values make float + and * exact, so algebraic laws can be
# asserted with == rather than tolerances
dyadic = st.integers(0, 4096).map(lambda k: k / 256.0)
points = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
polygons = st.lists(points, min_size=0, max_size=7).map(LatticePolygon.from_points)


# ---------------------------------------------------------------------------
# lattice polygons


def test_hull_canonical_form_drops_collinear():
    poly = LatticePolygon.from_points([(0, 0), (1, 0), (2, 0), (2, 2), (0, 2), (1, 1)])
    assert poly.vertices == ((0, 0), (2, 0), (2, 2), (0, 2))


def test_hull_degenerate_cases():
    assert LatticePolygon.from_points([]).vertices == ()
    assert LatticePolygon.from_points([(3, 4), (3, 4)]).vertices == ((3, 4),)
    segment = LatticePolygon.from_points([(0, 0), (2, 2), (1, 1), (3, 3)])
    assert segment.vertices == ((0, 0), (3, 3))


def test_noncanonical_vertex_list_rejected():
    with pytest.raises(ValueError):
        LatticePolygon(vertices=((1, 1), (0, 0)))
    with pytest.raises(ValueError):
        LatticePolygon(vertices=((0, 0), (1, 0), (2, 0)))


def test_polygon_sum_of_two_points_is_segment():
    a = LatticePolygon.point(0, 0)
    b = LatticePolygon.point(1, 1)
    assert polygon_sum(a, b).vertices == ((0, 0), (1, 1))


def test_polygon_sum_idempotent():
    p = LatticePolygon.from_points([(0, 0), (3, 0), (0, 3)])
    assert polygon_sum(p, p) == p


def test_polygon_product_identity_and_parallelogram():
    p = LatticePolygon.from_points([(0, 0), (2, 1), (1, 3)])
    assert polygon_product(p, PolygonSemiring.one) == p
    horizontal = LatticePolygon.from_points([(0, 0), (1, 0)])
    vertical = LatticePolygon.from_points([(0, 0), (0, 1)])
    square = polygon_product(horizontal, vertical)
    assert square.vertices == ((0, 0), (1, 0), (1, 1), (0, 1))


def test_polygon_ops_match_gift_wrapping_oracle():
    g = rng(11)
    for _ in range(200):
        pts_a = [tuple(map(int, g.integers(-8, 9, size=2))) for _ in range(5)]
        pts_b = [tuple(map(int, g.integers(-8, 9, size=2))) for _ in range(5)]
        a = LatticePolygon.from_points(pts_a)
        b = LatticePolygon.from_points(pts_b)
        assert polygon_sum(a, b).vertices == gift_wrap_hull(pts_a + pts_b)
        pairwise = [
            (p[0] + q[0], p[1] + q[1]) for p in a.vertices for q in b.vertices
        ]
        assert polygon_product(a, b).vertices == gift_wrap_hull(pairwise)


@given(polygons, polygons)
def test_polygon_addition_commutes(a, b):
    assert polygon_sum(a, b) == polygon_sum(b, a)
    assert polygon_product(a, b) == polygon_product(b, a)


@given(polygons, polygons, polygons)
@settings(max_examples=60)
def test_polygon_semiring_laws(a, b, c):
    add, mul = polygon_sum, polygon_product
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert add(a, PolygonSemiring.zero) == a
    assert mul(a, PolygonSemiring.one) == a
    assert mul(a, PolygonSemiring.zero) == PolygonSemiring.zero
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


# ---------------------------------------------------------------------------
# scalar semiring laws


@given(dyadic, dyadic, dyadic)
@settings(max_examples=60)
def test_probability_semiring_laws(a, b, c):
    sr = ProbabilitySemiring
    assert sr.add(sr.add(a, b), c) == sr.add(a, sr.add(b, c))
    assert sr.mul(sr.mul(a, b), c) == sr.mul(a, sr.mul(b, c))
    assert sr.add(a, sr.zero) == a
    assert sr.mul(a, sr.one) == a
    assert sr.mul(a, sr.add(b, c)) == sr.add(sr.mul(a, b), sr.mul(a, c))


tropicals = st.one_of(
    st.just(float("-inf")), st.integers(-300, 300).map(lambda k: k / 4.0)
)


@given(tropicals, tropicals, tropicals)
@settings(max_examples=60)
def test_maxplus_semiring_laws(a, b, c):
    sr = MaxPlusSemiring
    assert sr.add(sr.add(a, b), c) == sr.add(a, sr.add(b, c))
    assert sr.mul(sr.mul(a, b), c) == sr.mul(a, sr.mul(b, c))
    assert sr.add(a, sr.zero) == a
    assert sr.mul(a, sr.one) == a
    assert sr.mul(a, sr.zero) == sr.zero
    assert sr.mul(a, sr.add(b, c)) == sr.add(sr.mul(a, b), sr.mul(a, c))


# ---------------------------------------------------------------------------
# chain evaluation


def _enumerate_paths(spec: ChainSpec):
    k = spec.states
    for path in itertools.product(range(k), repeat=spec.length):
        yield path


def _path_value_prob(spec, path):
    value = spec.initial[path[0]]
    for t, w in enumerate(spec.steps):
        value = value * w[path[t]][path[t + 1]]
    return value


def _path_score(spec, path):
    score = spec.initial[path[0]]
    for t, w in enumerate(spec.steps):
        score = score + w[path[t]][path[t + 1]]
    return score


def _path_minkowski_points(spec, path):
    # one path's polygon: Minkowski-sum vertex sets by brute force
    sums = set(spec.initial[path[0]].vertices)
    for t, w in enumerate(spec.steps):
        step_pts = w[path[t]][path[t + 1]].vertices
        sums = {(a[0] + b[0], a[1] + b[1]) for a in sums for b in step_pts}
    return sums


def _check_chain_against_paths(sr, g, sizes, draw, path_weight, total):
    """Fold chains of each (states, positions) size under the record ``sr``,
    weights drawn by ``draw(g, shape)`` (initial, then all steps), and
    compare with ``total`` of the ``path_weight`` of every state path."""
    for k, n in sizes:
        spec = ChainSpec(initial=tuple(draw(g, k)), steps=draw(g, (n - 1, k, k)))
        want = total([path_weight(spec, p) for p in _enumerate_paths(spec)])
        assert evaluate_chain(spec, sr).value == want


def _log_fold_by_steps(spec: ChainSpec) -> float:
    # the log-sum-exp fold with one array step per position, as it ran
    # before block products: the oracle of the blocked LogSemiring fold
    cur = np.asarray(spec.initial, dtype=float)
    for w in np.asarray(spec.steps, dtype=float):
        cur = np.logaddexp.reduce(cur[:, None] + w, axis=0)
    return np.logaddexp.accumulate(cur).tolist()[-1]


def _check_log_fold_against_steps(spec: ChainSpec):
    got, want = evaluate_chain(spec, LogSemiring).value, _log_fold_by_steps(spec)
    if math.isfinite(want):
        assert got == pytest.approx(want, rel=1e-12)
    else:  # -inf, +inf or NaN: the same one
        assert got == want or (math.isnan(got) and math.isnan(want))


def _log_weights(g, shape):
    # at most -1.5 < log(1/3) - 0.4: with up to three states every total
    # is below -0.4, so rel 1e-12 never turns into an absolute test near 0
    values = g.uniform(-6.0, -1.5, size=shape)
    values[g.random(shape) < 0.15] = -math.inf
    return values


def test_chain_single_position_sums_initial_weights():
    assert evaluate_chain(ChainSpec(initial=(0.2, 0.8)), ProbabilitySemiring).value == 1.0


def test_chain_dimension_mismatch_is_an_error():
    for steps in (
        (((0.5, 0.5),),),
        np.zeros((2, 0, 0)),
        # ragged nestings
        (((0.5, 0.5), (0.5,)),),
        (((0.5, 0.5), (0.5, 0.5)), ((0.5,), (0.5, 0.5))),
        (((0.5, 0.5), (0.5, 0.5)), ((0.5, 0.5),)),
    ):
        with pytest.raises(ValueError):
            ChainSpec(initial=(1.0, 1.0), steps=steps)


def test_chain_prob_matches_exhaustive_path_sum():
    _check_chain_against_paths(
        ProbabilitySemiring, rng(21), [(2, 5)] * 25, lambda g, shape: g.random(shape),
        _path_value_prob, lambda ws: pytest.approx(sum(ws), rel=1e-12),
    )


def test_chain_log_matches_logaddexp_over_enumerated_paths():
    _check_chain_against_paths(
        LogSemiring, rng(34), [(1 + t % 3, 1 + t % 6) for t in range(30)],
        _log_weights, _path_score,
        lambda ws: pytest.approx(np.logaddexp.reduce(ws), rel=1e-12),
    )


def test_chain_log_blocks_match_the_per_position_fold(caplog):
    # k 1-5, n 2-2,000, weights uniform on [-w, 0] with 15% -inf; at
    # w = 1,400 one step's spread is too wide for any block
    caplog.set_level(logging.DEBUG, logger="phylokit.semirings")
    g = rng(35)
    lengths = set()
    for trial in range(1200):
        k, n = int(g.integers(1, 6)), int(g.integers(2, 2001))
        w = (8.0, 20.0, 60.0, 1400.0)[trial % 4]
        initial, steps = -g.uniform(0.0, w, k), -g.uniform(0.0, w, (n - 1, k, k))
        initial[g.random(k) < 0.15] = -math.inf
        steps[g.random(steps.shape) < 0.15] = -math.inf
        _check_log_fold_against_steps(ChainSpec(initial=tuple(initial), steps=steps))
        (length,) = block_lengths(caplog)
        assert 1 <= length <= max(1, math.isqrt(n - 1))
        assert length == 1 or k == 1 or w < 1400.0
        lengths.add(length)
    assert 1 in lengths and max(lengths) > 30


@pytest.mark.parametrize("k", [1, 2, 3])
def test_chain_log_blocks_at_square_lengths_and_with_tails(k, caplog):
    caplog.set_level(logging.DEBUG, logger="phylokit.semirings")
    g = rng(36 + k)
    # n - 1 around L**2, with L = sqrt(n - 1)
    for count in (48, 49, 50, 63, 64, 65):
        steps = -g.uniform(0.0, 20.0, (count, k, k))
        _check_log_fold_against_steps(ChainSpec(initial=(0.0,) * k, steps=steps))
        assert block_lengths(caplog) == [math.isqrt(count)]
    # a spread of 52 - ln k caps L at 600 // 52 = 11, and 1,005 steps
    # leave a tail of 4 (one state has no spread: L = 31, a tail of 13)
    steps = -g.uniform(0.0, 20.0, (1005, k, k))
    if k > 1:
        steps[:, 0, 0], steps[:, 0, 1] = math.log(k) - 52.0, 0.0
    _check_log_fold_against_steps(ChainSpec(initial=(0.0,) * k, steps=steps))
    assert block_lengths(caplog) == [11 if k > 1 else 31]


def test_chain_log_blocks_at_the_edges(caplog):
    caplog.set_level(logging.DEBUG, logger="phylokit.semirings")
    inf, nan = math.inf, math.nan
    g = rng(37)
    steps = -g.uniform(0.0, 5.0, (400, 3, 3))
    # one step that is all -inf makes every path zero
    dead = steps.copy()
    dead[217] = -inf
    spec = ChainSpec(initial=(0.0, -1.0, -2.0), steps=dead)
    assert evaluate_chain(spec, LogSemiring).value == _log_fold_by_steps(spec) == -inf
    # one state: the sum of the weights, blocked at flat and spread steps
    for single in (np.zeros((399, 1, 1)), steps[:, :1, :1]):
        value = evaluate_chain(ChainSpec(initial=(-0.5,), steps=single), LogSemiring).value
        assert value == pytest.approx(-0.5 + single.sum(), rel=1e-12)
    assert block_lengths(caplog) == [20, 19, 20]
    # NaN and +inf weights, in a step or in the initial vector, fold per
    # position and give the loop's NaN or +inf
    with np.errstate(invalid="ignore"):
        for initial, weight in (
            ((0.0, -1.0, -2.0), nan),
            ((0.0, -1.0, -2.0), inf),
            ((nan, -1.0, -2.0), -1.0),
            ((inf, -1.0, -2.0), -1.0),
        ):
            bad = steps.copy()
            bad[:, 1, 2] = -inf
            bad[123, 0, 0] = weight
            spec = ChainSpec(initial=initial, steps=bad)
            _check_log_fold_against_steps(spec)
            assert not math.isfinite(evaluate_chain(spec, LogSemiring).value)
    assert block_lengths(caplog) == [1] * 8


def test_chain_maxplus_matches_exhaustive_argmax():
    g = rng(22)
    for trial in range(40):
        k = 2 + trial % 2
        n = 2 + trial % 6
        spec = ChainSpec(
            initial=tuple(g.random(k)),
            steps=tuple(
                tuple(map(tuple, g.random((k, k)))) for _ in range(n - 1)
            ),
        )
        best_score, best_word = None, None
        for path in _enumerate_paths(spec):
            score = _path_score(spec, path)
            word = tuple(spec.labels[i] for i in path)
            if (
                best_score is None
                or score > best_score
                or (score == best_score and word < best_word)
            ):
                best_score, best_word = score, word
        got = evaluate_chain(spec, MaxPlusSemiring)
        assert got.path == best_word
        assert got.value == pytest.approx(best_score, rel=1e-12)


def test_chain_total_tie_returns_lexicographically_smallest_path():
    spec = ChainSpec(
        initial=(0.5, 0.5, 0.5),
        steps=tuple(
            tuple(tuple(0.25 for _ in range(3)) for _ in range(3)) for _ in range(4)
        ),
    )
    assert evaluate_chain(spec, MaxPlusSemiring).path == ("0",) * 5

    named = ChainSpec(
        initial=(1.0, 1.0),
        steps=(((0.0, 0.0), (0.0, 0.0)),),
        labels=("intron", "exon"),
    )
    assert evaluate_chain(named, MaxPlusSemiring).path == ("exon", "exon")


def test_chain_maxplus_on_logs_matches_max_log_monomial():
    _check_chain_against_paths(
        MaxPlusSemiring, rng(23), [(2 + t % 2, 5 + t % 4) for t in range(20)],
        lambda g, shape: np.log(g.random(shape)), _path_score,
        lambda ws: pytest.approx(max(ws), rel=1e-12),
    )


def _random_triangles(g, shape):
    out = np.empty(shape, dtype=object)
    for index in np.ndindex(shape):
        pts = [tuple(map(int, g.integers(0, 5, size=2))) for _ in range(3)]
        out[index] = LatticePolygon.from_points(pts)
    return out


def test_chain_polygon_semiring_matches_pathwise_oracle():
    # the union of the paths' point sets, gift-wrapped at the end
    _check_chain_against_paths(
        PolygonSemiring, rng(24), [(2, 4)] * 10, _random_triangles,
        _path_minkowski_points,
        lambda clouds: LatticePolygon(gift_wrap_hull(set().union(*clouds))),
    )


def test_convex_hull_matches_gift_wrapping_on_random_clouds():
    g = rng(25)
    for _ in range(300):
        pts = [tuple(map(int, g.integers(-10, 11, size=2))) for _ in range(g.integers(1, 12))]
        assert convex_hull(pts) == gift_wrap_hull(pts)


def _maxplus_by_enumeration(initial, steps, labels):
    """Best score and the smallest label word among the paths reaching it,
    scored by summing left to right as the fold does."""
    k, n = len(initial), len(steps) + 1
    paths = np.array(list(itertools.product(range(k), repeat=n)))
    scores = initial[paths[:, 0]]
    for t in range(n - 1):
        scores = scores + steps[t, paths[:, t], paths[:, t + 1]]
    best = scores.max()
    word = min(tuple(labels[i] for i in p) for p in paths[scores == best])
    return best, word


def test_chain_maxplus_fold_matches_enumeration_on_dense_ties():
    # integer log weights make exact ties common; permuted labels make
    # label order differ from index order; -inf entries cut paths
    g = rng(26)
    names = ("a", "b", "c", "d")
    for trial in range(120):
        k = 1 + trial % 4
        n = 1 + (trial // 4) % 7
        labels = tuple(names[i] for i in g.permutation(k))
        initial = g.integers(-2, 1, size=k).astype(float)
        steps = g.integers(-3, 1, size=(n - 1, k, k)).astype(float)
        initial[g.random(k) < 0.15] = -math.inf
        steps[g.random(steps.shape) < 0.15] = -math.inf
        best, word = _maxplus_by_enumeration(initial, steps, labels)
        got = evaluate_chain(
            ChainSpec(initial=tuple(initial), steps=steps, labels=labels),
            MaxPlusSemiring,
        )
        assert got.value == best
        assert got.path == word


def _maxplus_by_prefixes(initial, steps, labels):
    """Max-plus fold carrying (score, label word) per state: each state
    keeps its best predecessor's word, the smaller word on exact ties."""
    best = [(s, (lab,)) for s, lab in zip(initial.tolist(), labels)]
    for w in steps.tolist():
        nxt = []
        for j, lab in enumerate(labels):
            cands = [(s + w[i][j], word) for i, (s, word) in enumerate(best)]
            top = max(c[0] for c in cands)
            nxt.append((top, min(word for c, word in cands if c == top) + (lab,)))
        best = nxt
    top = max(s for s, _ in best)
    return top, min(word for s, word in best if s == top)


@pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 9, 17])
def test_chain_maxplus_fold_keeps_tie_order_across_rerankings(k):
    # the packed prefix keys are re-ranked every 52 // bits - 1 steps
    # (bits = max(1, (k - 1).bit_length())): 9 steps at k = 17, 51 at
    # k <= 2, so chains of up to 200 positions cross that boundary several
    # times, with dense integer ties, -inf cuts and permuted labels
    g = rng(28 + k)
    names = [f"q{i:02d}" for i in range(k)]
    for n in (2, 51, 52, 53, 120, 200):
        labels = tuple(names[i] for i in g.permutation(k))
        initial = g.integers(-1, 1, size=k).astype(float)
        steps = g.integers(-2, 1, size=(n - 1, k, k)).astype(float)
        initial[g.random(k) < 0.2] = -math.inf
        steps[g.random(steps.shape) < 0.2] = -math.inf
        best, word = _maxplus_by_prefixes(initial, steps, labels)
        got = evaluate_chain(
            ChainSpec(initial=tuple(initial), steps=steps, labels=labels),
            MaxPlusSemiring,
        )
        assert (got.value, got.path) == (best, word)


def test_chain_maxplus_fold_on_infinite_weights():
    inf = math.inf
    # every path is -inf: the smallest label word still wins the tie
    dead = ChainSpec(initial=(-inf, -inf), steps=np.zeros((1, 2, 2)), labels=("b", "a"))
    got = evaluate_chain(dead, MaxPlusSemiring)
    assert (got.value, got.path) == (-inf, ("a", "a"))
    # +inf meets -inf: the value is NaN
    spec = ChainSpec(initial=(inf, 0.0), steps=[[[-inf, 0.0], [0.0, 0.0]]])
    with np.errstate(invalid="ignore"):
        got = evaluate_chain(spec, MaxPlusSemiring)
    assert math.isnan(got.value)
    assert got.path == ("0", "0")


def test_chain_array_steps_match_tuple_steps():
    g = rng(27)
    for trial in range(20):
        k, n = 2 + trial % 3, 2 + trial % 5
        initial = tuple(g.integers(-2, 1, size=k).astype(float))
        steps = g.integers(-2, 1, size=(n - 1, k, k)).astype(float)
        labels = tuple("xyzw"[i] for i in g.permutation(k))
        as_array = ChainSpec(initial=initial, steps=steps, labels=labels)
        as_tuple = ChainSpec(
            initial=initial,
            steps=tuple(tuple(map(tuple, w)) for w in steps.tolist()),
            labels=labels,
        )
        assert as_array.steps is steps
        assert (as_array.length, as_array.states) == (n, k)
        for sr in (MaxPlusSemiring, ProbabilitySemiring):
            a, b = evaluate_chain(as_array, sr), evaluate_chain(as_tuple, sr)
            assert (a.value, a.path) == (b.value, b.path)
    with pytest.raises(ValueError):
        ChainSpec(initial=(0.0, 0.0), steps=np.zeros((3, 2, 3)))


def test_chain_rejects_duplicate_labels():
    # with states 0 and 1 both labelled "a", paths 1-0-0 and 0-2-0 below
    # both score 0 and read ("a", "a", "a") and ("a", "b", "a"); ranking
    # prefixes by position and label would wrongly return the second
    inf = math.inf
    w0 = np.array([[-1.0, -5.0, 0.0], [0.0, -5.0, -1.0], [-1.0, -5.0, -1.0]])
    w1 = np.full((3, 3), -inf)
    w1[:, 0] = 0.0
    with pytest.raises(ValueError, match="distinct"):
        ChainSpec(initial=(0.0, 0.0, 0.0), steps=np.stack([w0, w1]), labels=("a", "a", "b"))
    spec = ChainSpec(initial=(0.0, 0.0, 0.0), steps=np.stack([w0, w1]), labels=("a", "c", "b"))
    best, word = _maxplus_by_enumeration(np.zeros(3), spec.steps, spec.labels)
    got = evaluate_chain(spec, MaxPlusSemiring)
    assert (got.value, got.path) == (best, word) == (0.0, ("a", "b", "a"))


# ---------------------------------------------------------------------------
# the ufunc protocol


def _random_floats(g, shape):
    return g.random(shape) * 10.0 ** g.integers(-8, 8, size=shape)


def _random_tropicals(g, shape):
    values = g.integers(-40, 40, size=shape) / 4.0 + g.random(shape)
    values[g.random(shape) < 0.2] = -math.inf
    return values


def _random_polygons(g, shape):
    out = np.empty(shape, dtype=object)
    for index in np.ndindex(shape):
        pts = [tuple(map(int, g.integers(-4, 5, size=2))) for _ in range(g.integers(0, 5))]
        out[index] = LatticePolygon.from_points(pts)
    return out


_RECORDS = (
    (ProbabilitySemiring, operator.add, operator.mul, _random_floats),
    (MaxPlusSemiring, max, operator.add, _random_tropicals),
    (PolygonSemiring, polygon_sum, polygon_product, _random_polygons),
    (LogSemiring, lambda x, y: float(np.logaddexp(x, y)), operator.add, _random_tropicals),
)


@pytest.mark.parametrize(
    "sr, add, mul, draw", _RECORDS, ids=("prob", "max-plus", "polygon", "log")
)
def test_semiring_ufuncs_act_elementwise_and_fold_left_to_right(sr, add, mul, draw):
    g = rng(31)
    for _ in range(40):
        shape = tuple(int(x) for x in g.integers(1, 7, size=2))
        a, b = draw(g, shape), draw(g, shape)
        rows_a, rows_b = a.tolist(), b.tolist()
        for ufunc, op in ((sr.add, add), (sr.mul, mul)):
            assert ufunc(a, b).tolist() == [
                [op(x, y) for x, y in zip(r, s)] for r, s in zip(rows_a, rows_b)
            ]
        columns = [list(col) for col in zip(*rows_a)]
        assert sr.add.reduce(a, axis=0).tolist() == [reduce(add, c) for c in columns]
        for row in rows_a:  # the final sum of evaluate_chain
            assert sr.add.accumulate(np.array(row)).tolist()[-1] == reduce(add, row)


def _generator_fold(spec, add, mul):
    # the chain fold as a scalar generator: per position and target state,
    # a left-to-right sum over the source states
    cur = list(spec.initial)
    k = spec.states
    for w in spec.steps.tolist():
        cur = [reduce(add, (mul(cur[i], w[i][j]) for i in range(k))) for j in range(k)]
    return reduce(add, cur)


def test_chain_array_fold_equals_the_generator_fold():
    g = rng(32)
    for trial in range(60):
        k, n = 1 + trial % 5, int(g.integers(1, 31))
        initial = tuple(_random_floats(g, k).tolist())
        spec = ChainSpec(initial=initial, steps=_random_floats(g, (n - 1, k, k)))
        got = evaluate_chain(spec, ProbabilitySemiring).value
        assert type(got) is float
        assert got == _generator_fold(spec, operator.add, operator.mul)
    for trial in range(15):
        k, n = 1 + trial % 3, 1 + trial % 5
        spec = ChainSpec(
            initial=tuple(_random_polygons(g, k)),
            steps=_random_polygons(g, (n - 1, k, k)),
        )
        got = evaluate_chain(spec, PolygonSemiring).value
        assert got == _generator_fold(spec, polygon_sum, polygon_product)


def test_chain_spec_gives_one_array_form_for_every_steps_input():
    g = rng(33)
    for k in range(1, 5):
        initial = (0.0,) * k
        empty = np.zeros((0, k, k))
        for steps in ((), [], empty):
            spec = ChainSpec(initial=initial, steps=steps)
            assert (spec.steps.shape, spec.steps.dtype) == (empty.shape, empty.dtype)
            assert spec.length == 1
        arr = _random_floats(g, (3, k, k))
        as_array = ChainSpec(initial=initial, steps=arr)
        as_nesting = ChainSpec(initial=initial, steps=tuple(map(tuple, arr.tolist())))
        assert as_array.steps is arr
        assert (as_nesting.steps.shape, as_nesting.steps.dtype) == (arr.shape, arr.dtype)
        assert np.array_equal(as_nesting.steps, arr)
        polygons = _random_polygons(g, (2, k, k))
        nested = ChainSpec(initial=tuple(polygons[0, 0]), steps=polygons.tolist()).steps
        assert (nested.shape, nested.dtype) == (polygons.shape, polygons.dtype)


# ---------------------------------------------------------------------------
# tree evaluation


def _random_tree_spec(g, nodes, k, draw, one):
    """A random rooted tree with every parent before its child, so degree-2
    nodes occur, weights from ``draw``, and ``one`` as the leaf message of
    every internal node and of about a third of the childless ones."""
    parents = [-1] + [int(g.integers(0, v)) for v in range(1, nodes)]
    leaves = draw(g, (nodes, k))
    childless = set(range(nodes)) - set(parents)
    for v in range(nodes):
        if v not in childless or g.random() < 0.3:
            leaves[v] = one
    return TreeSpec(parents, draw(g, (nodes - 1, k, k)), tuple(draw(g, k)), leaves)


def _labelling_weights(spec, mul):
    """The mul of the root weight, leaf messages and edge weights of every
    labelling of the nodes, in lexicographic order of the labellings."""
    for labels in itertools.product(range(spec.states), repeat=spec.nodes):
        terms = [spec.root[labels[0]]]
        terms += [spec.leaves[v][s] for v, s in enumerate(labels)]
        terms += [
            spec.weights[v - 1][labels[p]][labels[v]]
            for v, p in enumerate(spec.parents.tolist()) if v
        ]
        yield reduce(mul, terms)


@pytest.mark.parametrize(
    "sr, add, mul, draw", _RECORDS, ids=("prob", "max-plus", "polygon", "log")
)
def test_tree_fold_matches_the_sum_over_labellings(sr, add, mul, draw):
    g = rng(40)
    for trial in range(30):
        k, nodes = 1 + trial % 3, 1 + trial % 6
        if sr is PolygonSemiring and k ** nodes > 250:
            k = 1 + k // 3
        spec = _random_tree_spec(g, nodes, k, draw, sr.one)
        want = reduce(add, _labelling_weights(spec, mul))
        got = evaluate_tree(spec, sr)
        if sr is PolygonSemiring or not math.isfinite(want):
            assert got == want
        else:
            assert got == pytest.approx(want, rel=1e-12)


def test_tree_spec_refuses_malformed_input():
    parents, weights, leaves = [-1, 0, 0], np.zeros((2, 2, 2)), np.zeros((3, 2))
    TreeSpec(parents, weights, (0.0, 0.0), leaves)
    for bad in (
        dict(weights=np.zeros((2, 2, 3))),
        dict(weights=np.zeros((3, 2, 2))),
        dict(weights=(((0.0, 0.0), (0.0,)), ((0.0, 0.0), (0.0, 0.0)))),  # ragged
        dict(root=(0.0, 0.0, 0.0)),
        dict(root=(0.0,)),
        dict(root=()),
        dict(leaves=np.zeros((3, 3))),
        dict(leaves=np.zeros((2, 2))),
        dict(parents=[-1, 1, 0]),  # a node is its own parent
        dict(parents=[-1, 2, 0]),  # a parent after its child
        dict(parents=[-1, 0, -1]),  # a second root
        dict(parents=[0, 0, 0]),
        dict(parents=[-1, 0, 0.0]),
        dict(parents=[[-1, 0, 0]]),
    ):
        args = dict(parents=parents, weights=weights, root=(0.0, 0.0), leaves=leaves)
        with pytest.raises(ValueError):
            TreeSpec(**(args | bad))


def test_tree_of_one_node_sums_its_leaf_message():
    for weights in ((), [], np.zeros((0, 3, 3))):
        spec = TreeSpec([-1], weights, (0.25, 0.5, 0.25), [[1.0, 0.0, 2.0]])
        assert spec.weights.shape == (0, 3, 3)
        assert evaluate_tree(spec, ProbabilitySemiring) == 0.75
