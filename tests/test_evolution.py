"""Substitution matrices against a series-exponential oracle, pattern
probabilities against an any-root pruning oracle, the three-leaf
Fourier invariant, distance correction values, and simulation."""

import hashlib
import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from phylokit import evolution
from phylokit.codonmodel import IndependenceParams, segre_residual
from phylokit.evolution import (
    JcEdge,
    RateMatrix,
    SaturationError,
    all_same_probability,
    branch_length_of,
    claw_class_probabilities,
    claw_fourier_invariant,
    edge_params_from_length,
    jc_distance,
    jc_rate_matrix,
    log_pattern_probability,
    pattern_probability,
    simulate_leaf_sequences,
    substitution_matrix,
)
from phylokit.formats import bundled_reference_tree, parse_newick
from phylokit.semirings import (
    LogSemiring,
    MaxPlusSemiring,
    ProbabilitySemiring,
    TreeSpec,
    evaluate_tree,
)
from phylokit.trees import PhyloTree

from conftest import caterpillar, random_tree, rng

NUC = "ACGT"


def matrix_exponential(a: np.ndarray, tol: float = 1e-13) -> np.ndarray:
    """exp(a) by scaling-and-squaring on the truncated Taylor series: the
    generic cross-check for the closed-form substitution matrix; ``tol``
    bounds the truncation error of the scaled series."""
    a = np.asarray(a, dtype=float)
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
        assert k <= 200, "matrix exponential did not converge"
    for _ in range(squarings):
        result = result @ result
    return result


def is_stochastic(p: np.ndarray, tol: float = 1e-9) -> bool:
    p = np.asarray(p, dtype=float)
    return bool((p >= -tol).all() and np.abs(p.sum(axis=1) - 1.0).max() <= tol)


def _local_pruning(tree, pattern, root):
    """Test-local pruning with an explicit root node."""
    idx = {c: i for i, c in enumerate(NUC)}

    def edge_matrix(length):
        pi = 0.25 * (1 - math.exp(-4 * length / 3))
        p = np.full((4, 4), pi)
        np.fill_diagonal(p, 1 - 3 * pi)
        return p

    def below(node, parent):
        if tree.is_leaf(node):
            out = np.zeros(4)
            out[idx[pattern[tree.label_of(node)]]] = 1.0
        else:
            out = np.ones(4)
        for child, length in tree.neighbors(node).items():
            if child != parent:
                out = out * (edge_matrix(length) @ below(child, node))
        return out

    return float(np.full(4, 0.25) @ below(root, None))


# ---------------------------------------------------------------------------
# substitution matrices and branch lengths


def test_substitution_matrix_at_zero_time_is_identity():
    assert np.allclose(substitution_matrix(0.7, 0.0), np.eye(4), atol=0)


def test_substitution_matrix_saturates_to_uniform():
    p = substitution_matrix(5.0, 10.0)  # alpha * t = 50
    assert np.abs(p - 0.25).max() < 1e-20


def test_substitution_matrix_matches_series_exponential():
    q = jc_rate_matrix(0.25).q
    closed = substitution_matrix(0.25, 1.0)
    series = matrix_exponential(q * 1.0)
    assert np.abs(closed - series).max() < 1e-10
    for alpha, t in [(0.1, 0.3), (1.5, 2.0), (0.01, 40.0)]:
        assert np.abs(
            substitution_matrix(alpha, t) - matrix_exponential(jc_rate_matrix(alpha).q * t)
        ).max() < 1e-10


def test_substitution_matrix_rejects_negative_inputs():
    with pytest.raises(ValueError):
        substitution_matrix(-1.0, 1.0)
    with pytest.raises(ValueError):
        substitution_matrix(1.0, -0.5)


def _nan_at(table, index):
    table = np.array(table, dtype=float)
    table[index] = np.nan
    return table


_JC_Q = np.full((4, 4), 0.5) - 2.0 * np.eye(4)
_UNIFORM_CODONS = np.full((4, 4, 4), 1 / 64)


@pytest.mark.parametrize(
    "build",
    [
        lambda: IndependenceParams(_nan_at(np.full((4, 4), 1 / 16), (0, 1)), np.full(4, 0.25)),
        lambda: RateMatrix(_nan_at(_JC_Q, (2, 3))),
        lambda: JcEdge(theta=math.nan, pi=0.1),
        lambda: jc_rate_matrix(math.nan),
        lambda: substitution_matrix(math.nan, 1.0),
        lambda: segre_residual(_nan_at(_UNIFORM_CODONS, (1, 2, 3))),
    ],
    ids=["IndependenceParams", "RateMatrix", "JcEdge", "jc_rate_matrix",
         "substitution_matrix", "segre_residual"],
)
def test_parameter_records_reject_nan(build):
    with pytest.raises(ValueError, match="finite"):
        build()


def test_semigroup_property_on_random_rates():
    g = rng(81)
    for _ in range(20):
        alpha = float(g.random() * 2 + 0.01)
        for s in (0.05, 0.4, 1.3):
            for t in (0.1, 0.9, 2.5):
                left = substitution_matrix(alpha, s) @ substitution_matrix(alpha, t)
                right = substitution_matrix(alpha, s + t)
                assert np.abs(left - right).max() < 1e-10


def test_rate_matrix_validation_and_stochastic_exponentials():
    with pytest.raises(ValueError):
        RateMatrix(np.zeros((4, 4)))
    with pytest.raises(ValueError):
        RateMatrix(np.eye(4))
    g = rng(82)
    raw = g.random((4, 4))
    np.fill_diagonal(raw, 0.0)
    q = raw - np.diag(raw.sum(axis=1))
    RateMatrix(q)  # validates
    for t in (0.1, 1.0, 10.0):
        assert is_stochastic(matrix_exponential(q * t))
    # a non-rate matrix fails the stochasticity probe
    bad = q.copy()
    bad[0, 0] += 0.3  # row sum now positive
    assert not all(
        is_stochastic(matrix_exponential(bad * t)) for t in (0.1, 1.0, 10.0)
    )


def test_branch_length_identity_is_zero():
    assert branch_length_of(np.eye(4)) == 0.0


def test_branch_length_round_trips_alpha_t():
    for alpha, t in [(0.3, 1.0), (1.2, 0.25), (0.05, 6.0)]:
        assert branch_length_of(substitution_matrix(alpha, t)) == pytest.approx(
            3 * alpha * t, rel=1e-10
        )


def test_branch_length_determinant_identity():
    pi = 0.1
    p = JcEdge(theta=1 - 3 * pi, pi=pi).matrix()
    assert branch_length_of(p) == pytest.approx(-0.75 * math.log(1 - 4 * pi), rel=1e-12)


def test_branch_length_rejects_singular_matrices():
    with pytest.raises(ValueError, match="determinant"):
        branch_length_of(np.full((4, 4), 0.25))


# ---------------------------------------------------------------------------
# edge parameters


def test_edge_params_at_zero_and_saturation():
    edge = edge_params_from_length(0.0)
    assert (edge.theta, edge.pi) == (1.0, 0.0)
    far = edge_params_from_length(100.0)
    assert abs(far.pi - 0.25) < 1e-30


def test_edge_params_round_trip_through_branch_length():
    for b in (0.01, 0.3, 1.7, 4.0):
        edge = edge_params_from_length(b)
        assert branch_length_of(edge.matrix()) == pytest.approx(b, rel=1e-12)


def test_edge_params_reject_negative_length():
    with pytest.raises(ValueError):
        edge_params_from_length(-0.1)


# ---------------------------------------------------------------------------
# pattern probabilities


def _two_leaf_tree(b1, b2):
    tree = PhyloTree()
    root = tree.add_node()
    tree.add_edge(tree.add_node(label="x"), root, b1)
    tree.add_edge(tree.add_node(label="y"), root, b2)
    return tree


def _claw_tree(b1, b2, b3):
    tree = PhyloTree()
    root = tree.add_node()
    for name, b in zip("xyz", (b1, b2, b3)):
        tree.add_edge(tree.add_node(label=name), root, b)
    return tree


def test_two_leaf_class_totals():
    tree = _two_leaf_tree(0.2, 0.5)
    e1, e2 = edge_params_from_length(0.2), edge_params_from_length(0.5)
    same = sum(pattern_probability(tree, {"x": c, "y": c}) for c in NUC)
    assert same == pytest.approx(e1.theta * e2.theta + 3 * e1.pi * e2.pi, rel=1e-12)
    different = sum(
        pattern_probability(tree, {"x": a, "y": b})
        for a in NUC
        for b in NUC
        if a != b
    )
    expected = 3 * e1.theta * e2.pi + 3 * e1.pi * e2.theta + 6 * e1.pi * e2.pi
    assert different == pytest.approx(expected, rel=1e-12)
    assert same + different == pytest.approx(1.0, rel=1e-12)


def test_claw_all_same_total():
    tree = _claw_tree(0.1, 0.4, 0.9)
    edges = [edge_params_from_length(b) for b in (0.1, 0.4, 0.9)]
    total = sum(
        pattern_probability(tree, {"x": c, "y": c, "z": c}) for c in NUC
    )
    t = [e.theta for e in edges]
    p = [e.pi for e in edges]
    assert total == pytest.approx(t[0] * t[1] * t[2] + 3 * p[0] * p[1] * p[2], rel=1e-12)


def test_pattern_probabilities_sum_to_one_random_trees():
    for seed, n in [(83, 4), (84, 5), (85, 6)]:
        tree = random_tree(seed, n)
        taxa = tree.taxa
        total = sum(
            pattern_probability(tree, dict(zip(taxa, letters)))
            for letters in itertools.product(NUC, repeat=n)
        )
        assert total == pytest.approx(1.0, abs=1e-10)


def test_pattern_probability_root_placement_invariance():
    tree = random_tree(86, 5)
    g = rng(87)
    pattern = {t: NUC[i] for t, i in zip(tree.taxa, g.integers(0, 4, size=5))}
    reference = pattern_probability(tree, pattern)
    # any node of the tree can serve as the root
    for root in tree.nodes():
        assert _local_pruning(tree, pattern, root) == pytest.approx(
            reference, abs=1e-12
        )
    # as can a new node splitting any edge at any interior point
    for u, v, length in tree.edges():
        split = tree.copy()
        mid = split.split_edge(u, v, 0.3 * length)
        assert _local_pruning(split, pattern, mid) == pytest.approx(
            reference, abs=1e-12
        )
        assert pattern_probability(split, pattern) == pytest.approx(
            reference, abs=1e-12
        )


def _breadth_first_pruning(tree, pattern):
    """Pruning from the same root by an independent walk: (node, parent)
    pairs breadth first, walked backwards, each node multiplying in its
    children in adjacency order through edge matrices stored both ways."""
    mats = {}
    for u, v, length in tree.edges():
        mats[(u, v)] = mats[(v, u)] = edge_params_from_length(length).matrix()
    root, _ = evolution._rooted_edges(tree)
    order = [(root, None)]
    for node, parent in order:
        order.extend((child, node) for child in tree.neighbors(node) if child != parent)
    below = {}
    for node, parent in reversed(order):
        if tree.is_leaf(node):
            out = np.zeros(4)
            out[NUC.index(pattern[tree.label_of(node)])] = 1.0
        else:
            out = np.ones(4)
        for child in tree.neighbors(node):
            if child != parent:
                out = out * (mats[(node, child)] @ below.pop(child))
        below[node] = out
    return float(np.full(4, 0.25) @ below[root])


def test_pattern_probability_matches_breadth_first_pruning():
    from phylokit.formats import parse_newick

    g = rng(89)
    cases = []
    for seed in range(60):
        tree = random_tree(900 + seed, int(g.integers(3, 61)))
        for _ in range(3):
            letters = g.integers(0, 4, size=len(tree.taxa))
            cases.append((tree, {t: NUC[i] for t, i in zip(tree.taxa, letters)}))
    two = PhyloTree()  # no internal node: the root is a leaf
    two.add_edge(two.add_node(label="x"), two.add_node(label="y"), 0.3)
    cases += [(two, {"x": a, "y": b}) for a in NUC for b in NUC]
    rooted = parse_newick("((a:0.1,b:0.2):0.05,(c:0.3,(d:0.15,e:0.25):0.4):0.6);")
    assert 2 in [rooted.degree(v) for v in rooted.nodes()]
    cases += [(rooted, dict(zip("abcde", letters))) for letters in ("AAAAA", "ACGTA", "TTGCA")]
    # mostly A, so the value stays far from underflow
    deep = caterpillar(1200, 3400)
    for flips in (0, 5, 40):
        pattern = {t: "A" for t in deep.taxa}
        for t in g.choice(deep.taxa, size=flips, replace=False):
            pattern[str(t)] = NUC[int(g.integers(1, 4))]
        cases.append((deep, pattern))
    for tree, pattern in cases:
        expected = _breadth_first_pruning(tree, pattern)
        assert expected > 0.0
        assert pattern_probability(tree, pattern) == pytest.approx(expected, rel=1e-12)
        log_p = log_pattern_probability(tree, pattern)
        assert log_p == pytest.approx(math.log(expected), rel=1e-12)


def test_pattern_probability_missing_leaf_is_an_error():
    tree = _claw_tree(0.1, 0.2, 0.3)
    with pytest.raises(ValueError, match="missing"):
        pattern_probability(tree, {"x": "A", "y": "C"})


def test_pattern_errors_name_the_first_bad_leaf_in_taxon_order():
    tree = _claw_tree(0.1, 0.2, 0.3)
    for bad, message in (
        ({"x": "A", "y": "u", "z": "-"}, "invalid nucleotide 'u' for leaf 'y'"),
        ({"x": "A", "y": "CG", "z": ""}, "invalid nucleotide 'CG' for leaf 'y'"),
        ({"x": "A", "y": "c", "z": ""}, "invalid nucleotide '' for leaf 'z'"),
        ({"x": "ß", "y": "A", "z": "A"}, "invalid nucleotide 'ß' for leaf 'x'"),
        ({"x": "N", "y": "A", "z": "A"}, "invalid nucleotide 'N' for leaf 'x'"),
    ):
        with pytest.raises(ValueError) as info:
            log_pattern_probability(tree, bad)
        assert str(info.value) == message
    # lowercase letters read as their uppercase
    mixed = log_pattern_probability(tree, {"x": "a", "y": "c", "z": "G"})
    assert mixed == log_pattern_probability(tree, {"x": "A", "y": "C", "z": "G"})


def test_all_same_probability_degenerate_trees():
    tree = _two_leaf_tree(0.0, 0.0)
    p_single, p_any = all_same_probability(tree)
    assert p_any == pytest.approx(1.0, rel=1e-12)
    saturated = _two_leaf_tree(200.0, 200.0)
    _, p_any = all_same_probability(saturated)
    assert p_any == pytest.approx(0.25, rel=1e-9)


@pytest.mark.parametrize("position", ["first", "last"])
def test_all_same_probability_sums_out_an_unlabeled_leaf(position):
    def hub_tree(unlabeled):
        tree = PhyloTree()
        if unlabeled == "first":  # node 0, so pruning hangs the tree from it
            tree.add_node()
        hub = tree.add_node()
        for label, length in (("a", 0.1), ("b", 0.2), ("c", 0.3)):
            tree.add_edge(hub, tree.add_node(label=label), length)
        if unlabeled:
            tree.add_edge(hub, tree.add_node() if unlabeled == "last" else 0, 0.4)
        return tree

    want = all_same_probability(hub_tree(None))
    assert all_same_probability(hub_tree(position)) == pytest.approx(want, rel=1e-12)


def _log_spine(tree, n):
    """log of the probability that every leaf of the caterpillar reads A,
    by a two-scalar loop along the spine, rescaled at every step."""

    def edge(u, v):
        pi = 0.25 * (1.0 - math.exp(-4.0 * tree.edge_length(u, v) / 3.0))
        return 1.0 - 3.0 * pi, pi

    def leaf(i):
        label = f"c{i:05d}"
        node = tree.node_of(label)
        return edge(node, next(iter(tree.neighbors(node))))

    # x, y: probability that every leaf so far reads A, given that the
    # current spine node holds A, or a given other letter, over exp(log_scale)
    spine = list(range(n - 2))
    (t0, p0), (t1, p1) = leaf(0), leaf(1)
    x, y, log_scale = t0 * t1, p0 * p1, 0.0
    for k, (u, v) in enumerate(zip(spine, spine[1:])):
        theta, pi = edge(u, v)
        x, y = theta * x + 3.0 * pi * y, pi * x + (theta + 2.0 * pi) * y
        for i in [k + 2] + ([n - 1] if v == spine[-1] else []):
            theta, pi = leaf(i)
            x, y = x * theta, y * pi
        scale = max(x, y)
        x, y, log_scale = x / scale, y / scale, log_scale + math.log(scale)
    return log_scale + math.log(0.25 * (x + 3.0 * y))


def test_all_same_probability_on_a_deep_caterpillar_matches_the_spine():
    n = 10_000
    tree = caterpillar(n, 3200)
    want = _log_spine(tree, n)
    p_single, p_any = all_same_probability(tree)
    assert p_single == pytest.approx(math.exp(want), rel=1e-9)
    assert p_any == 4.0 * p_single
    # ten times longer branches: the probability underflows, its log does not
    tree = caterpillar(n, 3200, lengths=(0.01, 0.1))
    want = _log_spine(tree, n)
    assert want < math.log(5e-324)
    all_a = dict.fromkeys(tree.taxa, "A")
    assert log_pattern_probability(tree, all_a) == pytest.approx(want, rel=1e-12)
    assert all_same_probability(tree) == (0.0, 0.0)


def test_zero_length_edges_raise_no_warning():
    zero = random_tree(91, 12, min_length=0.0, max_length=0.0)
    assert {length for _, _, length in zero.edges()} == {0.0}
    claw = _claw_tree(0.0, 0.3, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert all_same_probability(zero) == (0.25, 1.0)
        all_c = dict.fromkeys(zero.taxa, "C")
        assert log_pattern_probability(zero, all_c) == math.log(0.25)
        mixed = dict.fromkeys(zero.taxa, "A") | {zero.taxa[0]: "G"}
        assert log_pattern_probability(zero, mixed) == float("-inf")
        assert pattern_probability(zero, mixed) == 0.0
        acg = {"x": "A", "y": "C", "z": "G"}
        assert log_pattern_probability(claw, acg) == float("-inf")
        want = pattern_probability(claw, {"x": "A", "y": "C", "z": "A"})
    assert want == pytest.approx(0.25 * edge_params_from_length(0.3).pi, rel=1e-12)


def _jc_log_spec(tree, pattern):
    """The log-weight tree spec of ``pattern`` on the rooted edge list:
    logs of ``edge_params_from_length`` matrices, a uniform root, and the
    log of each leaf's letter indicator (ones at every other node)."""
    root, edges = evolution._rooted_edges(tree)
    order = [root] + [child for _, child in edges]
    index = {v: i for i, v in enumerate(order)}
    lengths = [tree.edge_length(p, c) for p, c in edges]
    indicators = [
        np.eye(4)[NUC.index(pattern[tree.label_of(v)])] if tree.is_leaf(v) else np.ones(4)
        for v in order
    ]
    with np.errstate(divide="ignore"):
        weights = np.log([edge_params_from_length(b).matrix() for b in lengths])
        leaves = np.log(indicators)
    parents = [-1] + [index[p] for p, _ in edges]
    return TreeSpec(parents, weights, (math.log(0.25),) * 4, leaves)


def _best_internal_labelling(tree, pattern):
    """The largest log probability of a full labelling that agrees with
    ``pattern``, by enumerating the letters of every unlabeled node: log 1/4
    plus each edge's log substitution probability, in any orientation."""
    free = [v for v in tree.nodes() if not tree.is_leaf(v)]
    fixed = {tree.node_of(t): NUC.index(x) for t, x in pattern.items()}
    with np.errstate(divide="ignore"):
        logs = [
            (u, v, np.log(edge_params_from_length(b).matrix()).tolist())
            for u, v, b in tree.edges()
        ]
    best = -math.inf
    for letters in itertools.product(range(4), repeat=len(free)):
        x = fixed | dict(zip(free, letters))
        best = max(best, math.log(0.25) + sum(w[x[u]][x[v]] for u, v, w in logs))
    return best


def test_tree_fold_under_three_records():
    # a degree-2 root, a zero-length internal edge, a zero-length pendant
    # edge (f) and an unlabeled leaf beside a and b: seven leaves, five
    # unlabeled nodes
    tree = parse_newick("((a:0.1,b:0.2):0.05,((c:0.3,f:0.0):0.1,(d:0.15,e:0.25):0.0):0.6);")
    tree.add_edge(next(iter(tree.neighbors(tree.node_of("a")))), tree.add_node(), 0.3)
    assert sorted(map(tree.degree, tree.nodes())) == [1] * 7 + [2, 3, 3, 3, 4]
    assert 0.0 in {length for _, _, length in tree.edges()}
    g = rng(95)
    for _ in range(8):
        pattern = {t: NUC[i] for t, i in zip(tree.taxa, g.integers(0, 4, size=6))}
        spec = _jc_log_spec(tree, pattern)
        log_p = log_pattern_probability(tree, pattern)
        assert evaluate_tree(spec, LogSemiring) == pytest.approx(log_p, rel=1e-12)
        best = _best_internal_labelling(tree, pattern)
        assert math.isfinite(best)
        assert evaluate_tree(spec, MaxPlusSemiring) == pytest.approx(best, rel=1e-12)
        linear = [np.exp(x) for x in (spec.weights, spec.root, spec.leaves)]
        got = evaluate_tree(TreeSpec(spec.parents, *linear), ProbabilitySemiring)
        assert got == pytest.approx(math.exp(log_p), rel=1e-12)


# ---------------------------------------------------------------------------
# the three-leaf Fourier invariant


def test_claw_classes_match_pattern_probabilities():
    tree = _claw_tree(0.15, 0.35, 0.6)
    edges = [edge_params_from_length(b) for b in (0.15, 0.35, 0.6)]
    classes = claw_class_probabilities(*edges)
    assert pattern_probability(tree, {"x": "A", "y": "A", "z": "A"}) == pytest.approx(
        classes.all_same / 4, rel=1e-12
    )
    assert pattern_probability(tree, {"x": "A", "y": "C", "z": "G"}) == pytest.approx(
        classes.all_different / 24, rel=1e-12
    )
    assert pattern_probability(tree, {"x": "A", "y": "A", "z": "C"}) == pytest.approx(
        classes.same_12 / 12, rel=1e-12
    )
    assert pattern_probability(tree, {"x": "A", "y": "C", "z": "A"}) == pytest.approx(
        classes.same_13 / 12, rel=1e-12
    )
    assert pattern_probability(tree, {"x": "C", "y": "A", "z": "A"}) == pytest.approx(
        classes.same_23 / 12, rel=1e-12
    )
    # the five classes exhaust the 64 patterns
    total = (
        4 * classes.all_same / 4
        + 24 * classes.all_different / 24
        + 12 * classes.same_12 / 12
        + 12 * classes.same_13 / 12
        + 12 * classes.same_23 / 12
    )
    assert total == pytest.approx(1.0, rel=1e-12)


def test_fourier_invariant_vanishes_on_model_points():
    g = rng(88)
    for _ in range(1000):
        edges = [edge_params_from_length(float(b)) for b in g.random(3) * 3]
        classes = claw_class_probabilities(*edges)
        inv = claw_fourier_invariant(*classes.as_tuple())
        assert abs(inv.residual) <= 1e-12
        assert inv.q000 == pytest.approx(1.0, abs=1e-9)


def test_fourier_invariant_vanishes_without_normalization():
    g = rng(89)
    for _ in range(200):
        # arbitrary (theta, pi) pairs, no theta + 3 pi = 1 constraint
        pairs = [(float(a), float(b)) for a, b in g.random((3, 2))]
        classes = claw_class_probabilities(*pairs)
        inv = claw_fourier_invariant(*classes.as_tuple())
        assert abs(inv.residual) <= 1e-10


def test_fourier_coordinates_factor_over_edges():
    # each coordinate of the changed basis is a product of per-edge
    # terms, theta - pi or theta + 3 pi
    g = rng(92)
    for _ in range(50):
        pairs = [(float(a), float(b)) for a, b in g.random((3, 2))]
        classes = claw_class_probabilities(*pairs)
        inv = claw_fourier_invariant(*classes.as_tuple())
        minus = [t - p for t, p in pairs]
        plus = [t + 3 * p for t, p in pairs]
        assert inv.q111 == pytest.approx(minus[0] * minus[1] * minus[2], rel=1e-9, abs=1e-12)
        assert inv.q110 == pytest.approx(minus[0] * minus[1] * plus[2], rel=1e-9, abs=1e-12)
        assert inv.q101 == pytest.approx(minus[0] * plus[1] * minus[2], rel=1e-9, abs=1e-12)
        assert inv.q011 == pytest.approx(plus[0] * minus[1] * minus[2], rel=1e-9, abs=1e-12)
        assert inv.q000 == pytest.approx(plus[0] * plus[1] * plus[2], rel=1e-9, abs=1e-12)


def test_fourier_invariant_unit_vector_hand_evaluation():
    inv = claw_fourier_invariant(1.0, 0.0, 0.0, 0.0, 0.0)
    assert (inv.q111, inv.q110, inv.q101, inv.q011, inv.q000) == (1, 1, 1, 1, 1)
    assert inv.residual == 0.0
    shifted = claw_fourier_invariant(0.0, 1.0, 0.0, 0.0, 0.0)
    third = 1.0 / 3.0
    assert shifted.q111 == pytest.approx(third)
    assert shifted.q110 == pytest.approx(-third)
    assert shifted.q000 == 1.0


def test_fourier_invariant_generic_points_do_not_vanish():
    g = rng(90)
    nonzero = 0
    for _ in range(100):
        values = [float(v) for v in g.random(5)]
        if abs(claw_fourier_invariant(*values).residual) > 1e-6:
            nonzero += 1
    assert nonzero >= 99


# ---------------------------------------------------------------------------
# distances


def test_jc_distance_reference_values():
    assert jc_distance(14202, 7132) == pytest.approx(0.830536, abs=1e-6)
    assert jc_distance(14202, 183) == pytest.approx(0.0130, abs=5e-4)
    assert jc_distance(500, 0) == 0.0


def test_two_taxa_exact_fit_curve():
    # every (pi1, pi2) with (1 - 4 pi1)(1 - 4 pi2) = 1 - 4k/(3n) is an
    # exact fit for k observed differences in n sites, and the two
    # branch lengths always sum to the corrected distance
    g = rng(93)
    n, k = 5000, 1400
    target = 1 - 4 * k / (3 * n)
    for _ in range(20):
        pi1 = float(g.random() * 0.25 * (1 - target))
        pi2 = 0.25 * (1 - target / (1 - 4 * pi1))
        assert 0 <= pi2 < 0.25
        b1 = -0.75 * math.log(1 - 4 * pi1)
        b2 = -0.75 * math.log(1 - 4 * pi2)
        tree = _two_leaf_tree(b1, b2)
        p_diff = sum(
            pattern_probability(tree, {"x": a, "y": b})
            for a in NUC
            for b in NUC
            if a != b
        )
        assert p_diff == pytest.approx(k / n, rel=1e-10)
        assert b1 + b2 == pytest.approx(jc_distance(n, k), rel=1e-10)


def test_jc_distance_saturation_and_validation():
    with pytest.raises(SaturationError):
        jc_distance(100, 75)
    with pytest.raises(SaturationError):
        jc_distance(100, 99)
    with pytest.raises(ValueError):
        jc_distance(0, 0)
    with pytest.raises(ValueError):
        jc_distance(10, 11)


# ---------------------------------------------------------------------------
# simulation


def test_simulation_zero_lengths_copies_root():
    tree = _claw_tree(0.0, 0.0, 0.0)
    seqs = simulate_leaf_sequences(tree, 50, seed=5)
    assert seqs["x"] == seqs["y"] == seqs["z"]


def test_simulation_is_deterministic_per_seed():
    tree = random_tree(91, 6)
    a = simulate_leaf_sequences(tree, 40, seed=123)
    b = simulate_leaf_sequences(tree, 40, seed=123)
    c = simulate_leaf_sequences(tree, 40, seed=124)
    assert a == b
    assert a != c


def test_simulation_distance_concentrates():
    tree = _two_leaf_tree(0.18, 0.12)  # leaf-to-leaf distance 0.3
    seqs = simulate_leaf_sequences(tree, 10**6, seed=77)
    diffs = sum(1 for a, b in zip(seqs["x"], seqs["y"]) if a != b)
    estimate = jc_distance(10**6, diffs)
    assert 0.29 <= estimate <= 0.31


def test_simulation_base_frequencies_near_uniform():
    tree = _two_leaf_tree(0.4, 0.4)
    seqs = simulate_leaf_sequences(tree, 200_000, seed=9)
    for taxon in ("x", "y"):
        counts = np.array([seqs[taxon].count(c) for c in NUC]) / 200_000
        assert np.abs(counts - 0.25).max() < 0.01


# sha256 over seeds 0-2 of ">name\nsequence\n" in name order; any change
# to the streams, their order or the mutation step changes these
SIMULATION_PINS = {
    ("reference", 1): "d8cf7e01fba6075e65f16e8b5e8748322cc779fc2de7d251341e5b21e7e1fe12",
    ("reference", 777): "6d6a43e332a6ae398a9b1a27ed74e16fcb1e881418e6bf074f3e2da04851f489",
    ("reference", 5000): "fc7dbf7c446292cb572cab1b9a246e97c42b7dcef4e381404424215fd20c5591",
    ("claw", 1): "4f2f900dc98337263adb7e134d2adef926998ae921d8b676d98f0ade59c054eb",
    ("claw", 777): "df847caaf5b449e68e33c242879b24710d3f88b21b5940f191d2de3e0fe0a7ca",
    ("claw", 5000): "9985923698f091f1ab41b8c7e61a33904f2345162e17be7c98594ed248d9c45a",
}


@pytest.mark.parametrize("tree_name, length", sorted(SIMULATION_PINS))
def test_simulated_sequences_are_pinned(tree_name, length):
    # the claw's zero-length edge copies its parent without a draw
    trees = {"reference": bundled_reference_tree, "claw": lambda: _claw_tree(0.2, 0.0, 0.7)}
    tree = trees[tree_name]()
    digest = hashlib.sha256()
    for seed in range(3):
        for name, seq in sorted(simulate_leaf_sequences(tree, length, seed).items()):
            digest.update(f">{name}\n{seq}\n".encode("ascii"))
    assert digest.hexdigest() == SIMULATION_PINS[tree_name, length]


def _philox(seed, index):
    return np.random.Philox(key=np.array([seed & (2**64 - 1), index], dtype=np.uint64))


def test_rekeyed_stream_equals_a_fresh_philox():
    philox = np.random.Philox(0)
    philox.random_raw(3)  # mid-buffer: re-keying must start at the first word
    for seed, index in ((0, 0), (3, 17), (2**40 + 5, evolution._ROOT_STREAM), (-1, 2), (2**70 + 9, 5)):
        got = evolution._stream(seed, index, philox).random_raw(1001)
        assert np.array_equal(got, _philox(seed, index).random_raw(1001)), (seed, index)


def test_lanes_are_the_16_bit_fields_of_the_raw_words():
    for length in (1, 3, 4, 5, 4001):
        words = _philox(7, 3).random_raw(-(-length // 4))
        want = [(int(words[s // 4]) >> (16 * (s % 4))) & 0xFFFF for s in range(length)]
        assert evolution._lanes(_philox(7, 3), length).tolist() == want


def test_root_letters_are_the_top_two_bits_of_the_root_lanes():
    tree = _claw_tree(0.0, 0.0, 0.0)  # every leaf copies the root
    for seed, length in ((5, 50), (2**40 + 5, 4003)):
        lanes = evolution._lanes(_philox(seed, evolution._ROOT_STREAM), length)
        want = "".join(NUC[lane >> 14] for lane in lanes.tolist())
        assert simulate_leaf_sequences(tree, length, seed) == dict.fromkeys("xyz", want)


class _StubStream:
    """Hands out queued raw words and records how many each call asked for."""

    def __init__(self, *chunks):
        self.chunks = [np.array(c, dtype=np.uint64) for c in chunks]
        self.sizes = []

    def random_raw(self, size):
        self.sizes.append(size)
        chunk = self.chunks.pop(0)
        assert chunk.size == size
        return chunk


@pytest.mark.parametrize("b", [0.003, 0.1, 0.7, 5.0])
def test_tie_lane_decides_by_the_exact_fraction(b):
    theta = edge_params_from_length(b).theta
    t = math.floor(theta * 2.0**16)
    c = math.ceil((theta * 2.0**16 - t) * 2.0**53)
    assert 0 < t and t + 1 < 2**16 and 0 < c < 2**53
    # keeping with probability t / 2**16 + c / 2**69 is ceil(theta 2**69) / 2**69
    assert t * 2**53 + c == math.ceil(Fraction(theta) * 2**69)
    lanes = (t - 1) | t << 16 | (t + 1) << 32 | t << 48  # keep, tie, mutate, tie
    below, at = (c - 1) << 11 | 0x7FF, c << 11
    src = np.array([0, 1, 2, 3], dtype=np.uint8)
    # offset words: 0 gives offset 1, 2**64 - 1 gives offset 3
    for ties, mutated in (((below, at), [2, 3]), ((at, below), [1, 2])):
        stream = _StubStream([lanes], ties, [0, 2**64 - 1])
        out = evolution._evolve(src, theta, stream)
        want = src.copy()
        want[mutated] = (src[mutated] + [1, 3]) % 4
        assert out.tolist() == want.tolist() and stream.sizes == [1, 2, 2]


def _chi2(counts, expected):
    counts, expected = np.asarray(counts, float), np.asarray(expected, float)
    return float(((counts - expected) ** 2 / expected).sum())


@pytest.mark.parametrize("b", [0.003, 0.05, 0.4, 3.0])
def test_simulated_mutations_and_offsets_follow_the_model(b):
    # y copies the root; x differs from it where the edge mutated, by the offset
    n = 10**6
    seqs = simulate_leaf_sequences(_two_leaf_tree(b, 0.0), n, seed=31)
    x, y = (np.frombuffer(seqs[k].encode(), np.uint8) for k in "xy")
    codes = np.zeros(256, np.uint8)
    codes[np.frombuffer(NUC.encode(), np.uint8)] = range(4)
    offset = (codes[x].astype(int) - codes[y]) % 4
    mutated = np.count_nonzero(offset)
    p = 3 * edge_params_from_length(b).pi
    # critical values at p = 1e-6: 23.93 for 1 degree of freedom, 27.63 for 2
    assert _chi2([mutated, n - mutated], [n * p, n * (1 - p)]) < 23.93
    assert _chi2(np.bincount(offset, minlength=4)[1:], [mutated / 3] * 3) < 27.63


def _leaves_beyond_edge_order(tree: PhyloTree, root: int) -> list[tuple[int, int]]:
    """The rooted edge order by one ``leaves_beyond`` call per edge: the
    children of each node sorted by the smallest label beyond them, "~"
    where there is none, in depth-first order from the root."""
    order, stack, seen = [], [root], {root}
    while stack:
        node = stack.pop()
        children = sorted(
            (c for c in tree.neighbors(node) if c not in seen),
            key=lambda c: min(tree.leaves_beyond(node, c), default="~"),
        )
        for child in children:
            order.append((node, child))
            seen.add(child)
        stack.extend(reversed(children))
    return order


def _preorder_edges(tree: PhyloTree, root: int) -> list[tuple[int, int]]:
    """Parent->child edges of ``children_from``, in its preorder: the
    order simulation numbers its edge streams by."""
    return [(p, c) for p, kids in tree.children_from(root).items() for c in kids]


def test_rooted_edge_order_matches_leaves_beyond_order():
    trees = [random_tree(seed, 3 + seed % 25) for seed in range(40)]
    odd = PhyloTree()  # a label above "~" and a side with no label
    hub, mid = odd.add_node(), odd.add_node()
    for label in ("b", "\u00e9"):
        odd.add_edge(hub, odd.add_node(label=label), 0.1)
    odd.add_edge(hub, mid, 0.1)
    odd.add_edge(mid, odd.add_node(), 0.1)
    odd.add_edge(mid, odd.add_node(label="a"), 0.1)
    for tree in trees + [odd]:
        for root in tree.nodes():
            assert _preorder_edges(tree, root) == _leaves_beyond_edge_order(tree, root)


def test_rooted_edge_order_on_a_2000_leaf_caterpillar():
    tree = caterpillar(2000, 3300)
    root, edges = evolution._rooted_edges(tree)
    assert edges == _preorder_edges(tree, root) == _leaves_beyond_edge_order(tree, root)


def test_simulation_validation():
    tree = _two_leaf_tree(0.1, 0.1)
    with pytest.raises(ValueError):
        simulate_leaf_sequences(tree, 0, seed=1)
