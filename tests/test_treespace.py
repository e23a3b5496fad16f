"""Metric and four-point checks, splits, neighbor joining round trips,
subtree-length maps with the generalized cherry criterion, the six-taxon
linear relations, and topology counting."""

import json
import math
import re
import warnings
from itertools import combinations

import numpy as np
import pytest

from phylokit.formats import (
    bundled_distance_matrix,
    bundled_reference_tree,
    emit_newick,
    format_m_dissimilarity,
    parse_m_dissimilarity,
    parse_newick,
)
from phylokit.treespace import (
    DissimilarityMap,
    MDissimilarityMap,
    Split,
    check_four_point,
    check_m_tree,
    check_metric,
    cherries,
    generalized_neighbor_join,
    generalized_nj_cherry,
    gr36_residuals,
    m_dissimilarity,
    neighbor_join,
    pairwise_from_3map,
    random_binary_tree,
    schroder_count,
    splits_compatible,
    splits_of_tree,
    tree_metric,
)

from conftest import caterpillar, keyed_m_map, m_map_dict, random_tree, rng


def _dm(taxa, entries):
    n = len(taxa)
    values = np.zeros((n, n))
    for (a, b), v in entries.items():
        i, j = taxa.index(a), taxa.index(b)
        values[i, j] = values[j, i] = v
    return DissimilarityMap(taxa=tuple(taxa), values=values)


def _split_lengths(tree):
    """Split -> branch length for every edge of a (suppressed) tree."""
    collapsed = tree.suppress_unifurcations()
    taxa = frozenset(collapsed.taxa)
    out = {}
    for u, v, length in collapsed.edges():
        side = collapsed.leaves_beyond(u, v)
        out[Split(inside=side, taxa=taxa)] = length
    return out


# ---------------------------------------------------------------------------
# metric and four-point checks


def test_zero_map_is_a_metric():
    assert check_metric(_dm(["a", "b", "c"], {}))


def test_metric_violation_reports_first_triple():
    verdict = check_metric(
        _dm(["1", "2", "3"], {("1", "2"): 3.0, ("1", "3"): 1.0, ("2", "3"): 1.0})
    )
    assert not verdict
    assert verdict.violation == ("1", "3", "2")


def test_negative_entry_fails_the_metric_check():
    verdict = check_metric(_dm(["a", "b", "c"], {("a", "b"): -0.5}))
    assert not verdict


def test_random_tree_metrics_pass_both_checks():
    for seed in range(100):
        tree = random_tree(1000 + seed, 4 + seed % 6)
        dm = tree_metric(tree)
        assert check_metric(dm)
        assert check_four_point(dm)


def test_four_point_violation_case():
    dm = _dm(
        ["u", "v", "x", "y"],
        {
            ("u", "v"): 2.0,
            ("x", "y"): 2.0,
            ("u", "x"): 1.0,
            ("u", "y"): 1.0,
            ("v", "x"): 1.0,
            ("v", "y"): 1.0,
        },
    )
    verdict = check_four_point(dm)
    assert not verdict
    assert verdict.violation == ("u", "v", "x", "y")


def test_four_point_vacuous_below_four_taxa():
    assert check_four_point(_dm(["a", "b", "c"], {("a", "b"): 9.0}))


# ---------------------------------------------------------------------------
# tree metrics


def test_tree_metric_two_and_three_leaves():
    from phylokit.trees import PhyloTree

    tree = PhyloTree()
    root = tree.add_node()
    tree.add_edge(tree.add_node(label="a"), root, 1.5)
    tree.add_edge(tree.add_node(label="b"), root, 2.25)
    assert tree_metric(tree).get("a", "b") == pytest.approx(3.75)

    claw = PhyloTree()
    hub = claw.add_node()
    for name, b in zip("abc", (1.0, 2.0, 4.0)):
        claw.add_edge(claw.add_node(label=name), hub, b)
    dm = tree_metric(claw)
    assert dm.get("a", "b") == 3.0
    assert dm.get("a", "c") == 5.0
    assert dm.get("b", "c") == 6.0


def test_reference_tree_metric_matches_bundled_matrix_entry():
    tree = bundled_reference_tree()
    dm = tree_metric(tree)
    assert dm.get("hs", "pt") == pytest.approx(0.013, abs=1e-9)
    assert bundled_distance_matrix().get("hs", "pt") == 0.013


# ---------------------------------------------------------------------------
# splits


def test_quartet_tree_splits():
    tree = neighbor_join(
        _dm(
            ["1", "2", "3", "4"],
            {
                ("1", "2"): 2.0,
                ("1", "3"): 5.0,
                ("1", "4"): 5.0,
                ("2", "3"): 5.0,
                ("2", "4"): 5.0,
                ("3", "4"): 2.0,
            },
        )
    )
    system = splits_of_tree(tree)
    assert system.is_binary and len(system) == 5
    taxa = frozenset("1234")
    assert Split(inside=frozenset("12"), taxa=taxa) in system.as_set()


def test_star_tree_has_trivial_splits_and_flag():
    from phylokit.trees import PhyloTree

    star = PhyloTree()
    hub = star.add_node()
    for name in "abcde":
        star.add_edge(star.add_node(label=name), hub, 1.0)
    system = splits_of_tree(star)
    assert len(system) == 5
    assert not system.is_binary
    assert all(min(len(s.inside), len(s.outside)) == 1 for s in system)


def test_reference_tree_has_17_splits():
    system = splits_of_tree(bundled_reference_tree())
    assert len(system) == 17 == 2 * 10 - 3
    assert system.is_binary


def test_split_compatibility_cases():
    taxa = frozenset("12345")
    nested = Split(inside=frozenset("12"), taxa=taxa)
    finer = Split(inside=frozenset("1"), taxa=taxa)
    assert splits_compatible(nested, finer)
    quartet = frozenset("1234")
    crossing = Split(inside=frozenset("12"), taxa=quartet)
    other = Split(inside=frozenset("13"), taxa=quartet)
    assert not splits_compatible(crossing, other)
    with pytest.raises(ValueError):
        splits_compatible(nested, crossing)


def test_splits_of_one_tree_are_pairwise_compatible():
    tree = random_tree(1101, 8)
    system = splits_of_tree(tree)
    splits = list(system)
    for i, s1 in enumerate(splits):
        for s2 in splits[i + 1:]:
            assert splits_compatible(s1, s2)


# ---------------------------------------------------------------------------
# neighbor joining


def test_nj_three_taxa_solves_the_claw():
    dm = _dm(
        ["a", "b", "c"], {("a", "b"): 3.0, ("a", "c"): 5.0, ("b", "c"): 6.0}
    )
    tree = neighbor_join(dm)
    lengths = _split_lengths(tree)
    taxa = frozenset("abc")
    assert lengths[Split(inside=frozenset("a"), taxa=taxa)] == pytest.approx(1.0)
    assert lengths[Split(inside=frozenset("b"), taxa=taxa)] == pytest.approx(2.0)
    assert lengths[Split(inside=frozenset("c"), taxa=taxa)] == pytest.approx(4.0)


def test_nj_round_trips_random_trees():
    for seed in range(60):
        tree = random_tree(1200 + seed, 4 + seed % 9)
        dm = tree_metric(tree)
        rebuilt = neighbor_join(dm)
        assert splits_of_tree(rebuilt).as_set() == splits_of_tree(tree).as_set()
        want = _split_lengths(tree)
        got = _split_lengths(rebuilt)
        assert set(want) == set(got)
        for split, length in want.items():
            assert got[split] == pytest.approx(length, abs=1e-9)


def test_nj_first_pick_is_a_cherry_of_the_source_tree():
    # the minimizing pair of the criterion on a tree metric is a cherry
    for seed in range(40):
        tree = random_tree(1300 + seed, 6 + seed % 5)
        dm = tree_metric(tree)
        n = dm.size
        values = dm.values
        r = values.sum(axis=1)
        q = (n - 2) * values - r[:, None] - r[None, :]
        np.fill_diagonal(q, np.inf)
        i, j = np.unravel_index(int(q.argmin()), q.shape)
        pair = frozenset({dm.taxa[i], dm.taxa[j]})
        assert pair in cherries(tree)


def test_nj_reproduces_reference_tree_from_bundled_matrix():
    tree = neighbor_join(bundled_distance_matrix())
    reference = bundled_reference_tree()
    assert splits_of_tree(tree).as_set() == splits_of_tree(reference).as_set()
    got = _split_lengths(tree)
    for split, printed in _split_lengths(reference).items():
        assert abs(got[split] - printed) <= 0.002


def test_nj_total_tie_joins_lexicographically_smallest_pair():
    # equidistant taxa tie every criterion entry; the first join must be
    # the alphabetically first pair, making the run deterministic
    taxa = ("delta", "alpha", "echo", "bravo", "charlie")
    n = len(taxa)
    values = np.full((n, n), 2.0)
    np.fill_diagonal(values, 0.0)
    tree = neighbor_join(DissimilarityMap(taxa=taxa, values=values))
    assert frozenset({"alpha", "bravo"}) in cherries(tree)


def test_nj_input_validation():
    with pytest.raises(ValueError, match="at least 3"):
        neighbor_join(_dm(["a", "b"], {("a", "b"): 1.0}))
    with pytest.raises(ValueError, match="NaN"):
        DissimilarityMap(taxa=("a", "b"), values=np.array([[0, np.nan], [np.nan, 0]]))


def test_nj_clamps_negative_lengths_with_warning():
    dm = _dm(
        ["a", "b", "c", "d"],
        {
            ("a", "b"): 0.1,
            ("a", "c"): 1.0,
            ("a", "d"): 1.1,
            ("b", "c"): 0.2,
            ("b", "d"): 0.3,
            ("c", "d"): 1.2,
        },
    )
    with pytest.warns(UserWarning, match="clamping"):
        tree = neighbor_join(dm)
    assert all(length >= 0 for _, _, length in tree.edges())


# ---------------------------------------------------------------------------
# m-dissimilarity maps


def test_m2_dissimilarity_is_the_tree_metric():
    tree = random_tree(1400, 7)
    dm = tree_metric(tree)
    md = m_dissimilarity(tree, 2)
    for i, a in enumerate(dm.taxa):
        for b in dm.taxa[i + 1:]:
            assert md.get(a, b) == pytest.approx(dm.get(a, b), rel=1e-12)


def test_m_dissimilarity_rejects_out_of_range_orders():
    tree = random_tree(1399, 5)
    with pytest.raises(ValueError, match="m must lie"):
        m_dissimilarity(tree, 1)
    with pytest.raises(ValueError, match="m must lie"):
        m_dissimilarity(tree, 6)


def test_claw_3_dissimilarity_is_total_length():
    from phylokit.trees import PhyloTree

    claw = PhyloTree()
    hub = claw.add_node()
    for name, b in zip("abc", (1.0, 2.0, 4.0)):
        claw.add_edge(claw.add_node(label=name), hub, b)
    md = m_dissimilarity(claw, 3)
    assert md.get("a", "b", "c") == pytest.approx(7.0)


def test_3_dissimilarity_median_vertex_identity():
    tree = random_tree(1401, 6)
    dm = tree_metric(tree)
    md = m_dissimilarity(tree, 3)
    from itertools import combinations

    for a, b, c in combinations(dm.taxa, 3):
        expected = 0.5 * (dm.get(a, b) + dm.get(a, c) + dm.get(b, c))
        assert md.get(a, b, c) == pytest.approx(expected, rel=1e-12)


def test_generalized_cherry_at_m2_matches_pairwise_criterion():
    # the identity is a formula specialization, so it must hold for
    # arbitrary symmetric inputs, not just tree metrics
    g = rng(1402)
    taxa = tuple("abcdefg")
    n = len(taxa)
    raw = g.random((n, n)) * 5
    values = (raw + raw.T) / 2
    np.fill_diagonal(values, 0.0)
    dm = DissimilarityMap(taxa=taxa, values=values)
    md_values = {
        frozenset((a, b)): dm.get(a, b)
        for i, a in enumerate(taxa)
        for b in taxa[i + 1:]
    }
    md = keyed_m_map(taxa, 2, md_values)
    _, table = generalized_nj_cherry(md)
    r = dm.values.sum(axis=1)
    for (a, b), q in table.items():
        i, j = dm.taxa.index(a), dm.taxa.index(b)
        expected = (n - 2) * dm.values[i, j] - r[i] - r[j]
        assert q == pytest.approx(expected, rel=1e-9)


def test_generalized_cherry_property_random_trees():
    for seed in range(60):
        tree = random_tree(1500 + seed, 8)
        md = m_dissimilarity(tree, 3)
        pair, _ = generalized_nj_cherry(md)
        assert frozenset(pair) in cherries(tree)


def test_generalized_cherry_needs_more_taxa_than_subset_size():
    md = MDissimilarityMap(taxa=("a", "b", "c"), m=3, values=[1.0])
    with pytest.raises(ValueError, match="more taxa"):
        generalized_nj_cherry(md)


def test_generalized_cherry_on_reference_tree():
    md = m_dissimilarity(bundled_reference_tree(), 3)
    pair, _ = generalized_nj_cherry(md)
    assert frozenset(pair) in {
        frozenset({"hs", "pt"}),
        frozenset({"mm", "rn"}),
        frozenset({"tn", "tr"}),
    }


def test_generalized_nj_recovers_topology():
    for seed in range(200):
        n = 5 + seed % 4
        tree = random_tree(1600 + seed, n)
        rebuilt = generalized_neighbor_join(m_dissimilarity(tree, 3))
        want = {(s.inside, s.outside) for s in splits_of_tree(tree)}
        got = {(s.inside, s.outside) for s in splits_of_tree(rebuilt)}
        assert want == got


def test_generalized_nj_four_taxa_base_case():
    # a 3-map on four taxa has a two-dimensional kernel that moves the
    # three quartet pair-sums freely, so no algorithm can recover the
    # quartet split from it; the run must still produce a valid binary
    # tree on the right taxa via the single fallback pairing
    tree = random_tree(1700, 4)
    rebuilt = generalized_neighbor_join(m_dissimilarity(tree, 3))
    assert rebuilt.taxa == tree.taxa
    assert splits_of_tree(rebuilt).is_binary


def test_generalized_nj_stable_under_tiny_noise():
    tree = random_tree(1701, 7)
    md = m_dissimilarity(tree, 3)
    g = rng(1702)
    noisy = MDissimilarityMap(
        taxa=md.taxa,
        m=3,
        values=[v + float(g.random() - 0.5) * 2e-6 for v in md.values.tolist()],
    )
    rebuilt = generalized_neighbor_join(noisy)
    assert splits_of_tree(rebuilt).as_set() == splits_of_tree(tree).as_set()


def test_generalized_nj_rejects_unsupported_orders():
    tree = random_tree(1703, 6)
    with pytest.raises(ValueError, match="3-dissimilarity"):
        generalized_neighbor_join(m_dissimilarity(tree, 2))


# ---------------------------------------------------------------------------
# m-tree membership


def test_tree_derived_3_maps_are_m_trees():
    tree = random_tree(1800, 7)
    assert check_m_tree(m_dissimilarity(tree, 3))


def test_random_3_maps_are_rejected_with_witness():
    g = rng(1801)
    taxa = tuple("abcdefg")
    from itertools import combinations

    values = {frozenset(s): float(g.random() * 10) for s in combinations(taxa, 3)}
    verdict = check_m_tree(keyed_m_map(taxa, 3, values))
    assert not verdict
    assert verdict.witness is not None


def test_m_tree_vacuous_flag():
    tree = random_tree(1802, 4)
    verdict = check_m_tree(m_dissimilarity(tree, 3))
    assert verdict and verdict.vacuous


def test_m2_tree_check_equals_four_point():
    tree = random_tree(1803, 6)
    md = m_dissimilarity(tree, 2)
    assert check_m_tree(md)
    dm = tree_metric(tree)
    assert check_four_point(dm)


# ---------------------------------------------------------------------------
# the six-taxon linear relations


def test_gr36_residuals_vanish_on_tree_maps():
    for seed in range(30):
        tree = random_tree(1900 + seed, 6)
        residuals = gr36_residuals(m_dissimilarity(tree, 3))
        assert max(abs(r) for r in residuals) <= 1e-10


def test_gr36_residuals_nonzero_on_random_maps():
    g = rng(1901)
    from itertools import combinations

    taxa = tuple("uvwxyz")
    hits = 0
    for _ in range(50):
        values = {frozenset(s): float(g.random() * 5) for s in combinations(taxa, 3)}
        residuals = gr36_residuals(keyed_m_map(taxa, 3, values))
        if max(abs(r) for r in residuals) > 1e-6:
            hits += 1
    assert hits == 50


def test_gr36_residuals_invariant_under_taxon_weight_shifts():
    g = rng(1902)
    tree = random_tree(1903, 6)
    md = m_dissimilarity(tree, 3)
    base = gr36_residuals(md)
    weights = {t: float(g.random() * 3) for t in md.taxa}
    shifted = keyed_m_map(
        md.taxa, 3, {k: v + sum(weights[t] for t in k) for k, v in m_map_dict(md).items()}
    )
    got = gr36_residuals(shifted)
    assert np.allclose(got, base, atol=1e-9)


def test_gr36_requires_six_taxa():
    tree = random_tree(1904, 7)
    with pytest.raises(ValueError, match="six"):
        gr36_residuals(m_dissimilarity(tree, 3))


# ---------------------------------------------------------------------------
# topology counting


def test_schroder_values():
    assert schroder_count(3) == 1
    assert schroder_count(4) == 3
    assert schroder_count(5) == 15
    assert schroder_count(10) == 2027025
    with pytest.raises(ValueError):
        schroder_count(2)


def test_random_binary_trees_are_binary():
    for seed in range(10):
        tree = random_tree(2000 + seed, 9)
        assert splits_of_tree(tree).is_binary
        internal_degrees = {
            tree.degree(v) for v in tree.nodes() if not tree.is_leaf(v)
        }
        assert internal_degrees == {3}


# ---------------------------------------------------------------------------
# array scans against copies of the plain loops they replaced


def _loop_check_metric(delta):
    taxa = sorted(delta.taxa)
    for x in taxa:
        for y in taxa:
            if y == x:
                continue
            for z in taxa:
                if z == y:
                    continue
                if delta.get(x, z) > delta.get(x, y) + delta.get(y, z) + 1e-15:
                    return (x, y, z)
    return None


def _loop_check_four_point(delta):
    from itertools import combinations

    taxa = sorted(delta.taxa)
    for a, b, c, d in combinations(taxa, 4):
        sums = sorted(
            (
                delta.get(a, b) + delta.get(c, d),
                delta.get(a, c) + delta.get(b, d),
                delta.get(a, d) + delta.get(b, c),
            )
        )
        if sums[2] - sums[1] > 1e-9:
            return (a, b, c, d)
    return None


def _symmetric(g, n, draw):
    upper = np.triu(draw(g, (n, n)), 1)
    return upper + upper.T


def _shuffled_taxa(g, n):
    # declared order differs from sorted order, so the scans must permute
    return tuple(f"x{int(i):02d}" for i in g.permutation(n))


def _witness_cases():
    """(name, DissimilarityMap) over the input families the scans must
    agree on: exact ties, entries on the slack boundaries, negative
    entries, perturbed tree metrics and plain noise."""
    slack = 1e-9
    families = {
        "uniform": lambda g, s: g.uniform(0.0, 1.0, s),
        "integer": lambda g, s: g.integers(0, 4, s).astype(float),
        "negative": lambda g, s: g.integers(-1, 4, s).astype(float),
        # pair-sums of 0, slack and 2 slack: differences of exactly the slack
        "four_point_slack": lambda g, s: g.choice([0.0, slack], s, p=[0.7, 0.3]),
        # exact multiples of 2^-32: differences just below and above it
        "four_point_grid": lambda g, s: g.integers(0, 12, s) * 2.0**-32,
        "triangle_slack": lambda g, s: g.integers(0, 4, s) * 1e-15,
    }
    for fi, (name, draw) in enumerate(families.items()):
        for seed in range(12):
            g = rng(9100 + 100 * fi + seed)
            n = int(g.integers(4, 12))
            values = _symmetric(g, n, draw)
            yield name, DissimilarityMap(taxa=_shuffled_taxa(g, n), values=values)
    for seed in range(12):
        # points on a line: triangle sums equal up to the last bit
        g = rng(9700 + seed)
        n = int(g.integers(4, 12))
        points = g.uniform(0.0, 1000.0, n)
        values = np.abs(points[:, None] - points[None, :])
        yield "line", DissimilarityMap(taxa=_shuffled_taxa(g, n), values=values)
    for seed in range(24):
        # three taxa, d(x,z) at the larger of (d(x,y) + d(y,z)) + 1e-15
        # and d(x,y) + (d(y,z) + 1e-15), drawn where the two differ
        g = rng(9750 + seed)
        while True:
            a, b = g.uniform(0.1, 1.0, 2)
            if (a + b) + 1e-15 != a + (b + 1e-15):
                break
        values = np.zeros((3, 3))
        values[0, 1] = values[1, 0] = a
        values[1, 2] = values[2, 1] = b
        values[0, 2] = values[2, 0] = max((a + b) + 1e-15, a + (b + 1e-15))
        yield "triangle_grouping", DissimilarityMap(taxa=_shuffled_taxa(g, 3), values=values)
    for seed in range(12):
        g = rng(9800 + seed)
        n = int(g.integers(5, 14))
        base = tree_metric(random_tree(9850 + seed, n))
        values = np.array(base.values)
        i, j = sorted(g.choice(n, 2, replace=False))
        values[i, j] = values[j, i] = values[i, j] * g.uniform(1.05, 1.6)
        yield "perturbed", DissimilarityMap(taxa=base.taxa, values=values)
        yield "tree", base
        # the diagonal need only be zero within 1e-12; y = x and z = y
        # must still be skipped
        values = np.array(base.values)
        np.fill_diagonal(values, g.uniform(-1e-12, 1e-12, n))
        yield "tree", DissimilarityMap(taxa=base.taxa, values=values)
    # benchmark size: a 30-taxon tree metric, and one whose violations all
    # lie past the tenth taxon.  Quartets through one taxon bound every
    # violation to twice theirs (the four-point condition in Gromov
    # products), so this needs the slack: the cross pairs (p, r) and (q, s)
    # of a quartet pq|rs grow by 8e-10, which moves any quartet holding one
    # of them by 8e-10, under the slack, and pq|rs itself by 1.6e-9.
    base = tree_metric(random_tree(9900, 30))
    yield "tree", base
    w, x, y, z = (base.taxa[k] for k in (12, 17, 21, 26))
    # the pairing with the least sum is the quartet's split pq|rs
    p, q, r, s = min(
        ((w, x, y, z), (w, y, x, z), (w, z, x, y)),
        key=lambda t: base.get(t[0], t[1]) + base.get(t[2], t[3]),
    )
    values = np.array(base.values)
    for u, v in ((p, r), (q, s)):
        i, j = base.index(u), base.index(v)
        values[i, j] = values[j, i] = values[i, j] + 8e-10
    yield "late_violation", DissimilarityMap(taxa=base.taxa, values=values)


def test_witnesses_match_the_loop_scans():
    verdicts = {}
    for name, delta in _witness_cases():
        want4 = _loop_check_four_point(delta)
        want3 = _loop_check_metric(delta)
        four, metric = check_four_point(delta), check_metric(delta)
        assert four.ok == (want4 is None) and four.violation == want4, name
        assert metric.ok == (want3 is None) and metric.violation == want3, name
        verdicts.setdefault(name, set()).add((four.ok, metric.ok))
        if name == "late_violation":
            assert sorted(delta.taxa).index(want4[0]) >= 10
    # every family with failures shows them, and the boundary families
    # also pass some inputs, so both sides of each slack are exercised
    assert (False, False) in verdicts["negative"]
    assert any(not ok4 for ok4, _ in verdicts["perturbed"])
    assert verdicts["tree"] == {(True, True)}
    assert verdicts["late_violation"] == {(False, True)}
    for name in ("four_point_slack", "four_point_grid"):
        assert {ok4 for ok4, _ in verdicts[name]} == {True, False}
    for name in ("triangle_slack", "line", "triangle_grouping"):
        assert {ok3 for _, ok3 in verdicts[name]} == {True, False}


@pytest.mark.parametrize("block", [1, 7, 300])
def test_four_point_in_triple_blocks_matches_one_block(monkeypatch, block):
    import phylokit.treespace as treespace

    cases = list(_witness_cases())
    want = [check_four_point(delta) for _, delta in cases]
    monkeypatch.setattr(treespace, "_TRIPLE_BLOCK", block)
    for (name, delta), verdict in zip(cases, want):
        assert check_four_point(delta) == verdict, name


def _loop_neighbor_join(delta):
    """The pair-by-pair agglomeration loop neighbor_join replaced."""
    import warnings

    from phylokit.trees import PhyloTree

    tree = PhyloTree()
    nodes = [tree.add_node(label=t) for t in delta.taxa]
    keys = list(delta.taxa)
    values = np.array(delta.values)
    ties = 0

    def attach(node, hub, length):
        tree.add_edge(node, hub, 0.0 if length < 0 else length)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        while len(nodes) > 3:
            m = len(nodes)
            r = values.sum(axis=1)
            q = (m - 2) * values - r[:, None] - r[None, :]
            best = None
            for a in range(m):
                for b in range(a + 1, m):
                    cand = (q[a, b], tuple(sorted((keys[a], keys[b]))))
                    if best is None or cand < best[0]:
                        best = (cand, a, b)
            _, a, b = best
            ties += int((q[np.triu_indices(m, 1)] == q[a, b]).sum() > 1)
            dab = values[a, b]
            la = 0.5 * dab + (r[a] - r[b]) / (2.0 * (m - 2))
            hub = tree.add_node()
            attach(nodes[a], hub, la)
            attach(nodes[b], hub, dab - la)
            merged = 0.5 * (values[a] + values[b] - dab)
            keep = [x for x in range(m) if x not in (a, b)]
            values = np.vstack(
                [
                    np.hstack([values[np.ix_(keep, keep)], merged[keep, None]]),
                    np.hstack([merged[keep], [0.0]]),
                ]
            )
            nodes = [nodes[x] for x in keep] + [hub]
            keys = [keys[x] for x in keep] + [min(keys[a], keys[b])]
        hub = tree.add_node()
        for a in range(3):
            b, c = [x for x in range(3) if x != a]
            attach(nodes[a], hub, 0.5 * (values[a, b] + values[a, c] - values[b, c]))
    return tree, ties


def test_nj_matches_the_loop_agglomeration_on_tied_integer_matrices():
    import warnings

    from phylokit.formats import emit_newick

    tied_steps = 0
    for seed in range(30):
        g = rng(9900 + seed)
        n = int(g.integers(4, 16))
        values = _symmetric(g, n, lambda g, s: g.integers(1, 4, s).astype(float))
        delta = DissimilarityMap(taxa=_shuffled_taxa(g, n), values=values)
        want, ties = _loop_neighbor_join(delta)
        tied_steps += ties
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = neighbor_join(delta)
        assert emit_newick(got) == emit_newick(want)
        assert got.edges() == want.edges()
    assert tied_steps >= 30


def test_nj_matches_the_loop_agglomeration_on_exact_and_noisy_float_matrices():
    # row sums and the criterion round differently in the two forms, so
    # lengths agree to roundoff and quartet-stage ties may join in either
    # order; the Newick text and every split's length must still agree
    import warnings

    from phylokit.formats import emit_newick

    for seed, n in enumerate((20, 50, 100, 200)):
        g = rng(9950 + seed)
        base = tree_metric(random_tree(9960 + seed, n))
        perm = g.permutation(n)
        taxa = tuple(base.taxa[i] for i in perm)
        exact = base.values[np.ix_(perm, perm)]
        noisy = exact + _symmetric(g, n, lambda g, s: np.abs(g.normal(0.0, 0.02, s)))
        for values in (exact, noisy):
            delta = DissimilarityMap(taxa=taxa, values=values)
            want, _ = _loop_neighbor_join(delta)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                got = neighbor_join(delta)
            assert emit_newick(got) == emit_newick(want)
            want_lengths, got_lengths = _split_lengths(want), _split_lengths(got)
            assert set(got_lengths) == set(want_lengths)
            for split, length in want_lengths.items():
                assert got_lengths[split] == pytest.approx(length, rel=1e-12, abs=0.0)


def test_dissimilarity_map_rejects_infinite_entries():
    for bad in (np.inf, -np.inf):
        with pytest.raises(ValueError, match="inf"):
            DissimilarityMap(taxa=("a", "b"), values=np.array([[0, bad], [bad, 0]]))


def test_dissimilarity_map_refuses_an_entry_whose_mean_overflows():
    taxa = ("a", "b", "c", "d")
    values = np.ones((4, 4)) - np.eye(4)
    for big in (1e308, -1e308, np.finfo(float).max):
        values[2, 3] = values[3, 2] = big
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no RuntimeWarning on the way
            with pytest.raises(ValueError) as info:
                DissimilarityMap(taxa=taxa, values=values)
        assert str(info.value) == (
            f"entry d[c,d]={float(big)!r} is too large to symmetrize: d[i,j] + d[j,i] overflows"
        )
    for fits in (8e307, -8e307, np.finfo(float).max / 2):
        values[2, 3] = values[3, 2] = fits
        dm = DissimilarityMap(taxa=taxa, values=values)
        assert dm.get("c", "d") == dm.get("d", "c") == float(fits)


def test_m_dissimilarity_map_rejects_non_finite_values():
    taxa = ("a", "b", "c", "d")
    for bad in (np.nan, np.inf, -np.inf):
        values = {frozenset(s): 1.0 for s in combinations(taxa, 3)}
        values[frozenset("abd")] = bad
        with pytest.raises(ValueError, match="finite"):
            keyed_m_map(taxa, 3, values)


# ---------------------------------------------------------------------------
# m-map arrays against the frozenset-dict code they replaced


def _loop_m_dissimilarity(tree, m):
    taxa = tree.taxa
    edge_sides = [(tree.leaves_beyond(u, v), ln) for u, v, ln in tree.edges()]
    values = {}
    for subset in combinations(taxa, m):
        chosen = frozenset(subset)
        total = 0.0
        for side, ln in edge_sides:
            if 0 < len(chosen & side) < m:
                total += ln
        values[chosen] = total
    return values


def _loop_generalized_nj_cherry(delta_m):
    taxa, values = delta_m.taxa, m_map_dict(delta_m)
    n, m = len(taxa), delta_m.m
    single = {
        t: sum(
            values[frozenset((t,) + y)]
            for y in combinations([s for s in taxa if s != t], m - 1)
        )
        for t in taxa
    }
    table = {}
    for i, j in combinations(sorted(taxa), 2):
        rest = [t for t in taxa if t not in (i, j)]
        joint = sum(values[frozenset((i, j) + y)] for y in combinations(rest, m - 2))
        table[(i, j)] = (n - 2) / (m - 1) * joint - single[i] - single[j]
    pair = min(table, key=lambda p: (table[p], p))
    return pair, table


def _loop_pairwise_from_3map(md):
    taxa, keyed = md.taxa, m_map_dict(md)
    n = len(taxa)
    all_pairs_sum = 2.0 * sum(keyed.values()) / (n - 2)
    row = {}
    for t in taxa:
        acc = sum(v for k, v in keyed.items() if t in k)
        row[t] = (2.0 * acc - all_pairs_sum) / (n - 3)
    values = np.zeros((n, n))
    for a, b in combinations(range(n), 2):
        x, y = taxa[a], taxa[b]
        joint = sum(v for k, v in keyed.items() if x in k and y in k)
        values[a, b] = values[b, a] = (2.0 * joint - row[x] - row[y]) / (n - 4)
    return DissimilarityMap(taxa=taxa, values=values)


def _loop_generalized_neighbor_join(delta_m):
    from phylokit.trees import PhyloTree

    tree = PhyloTree()
    node_of = {t: tree.add_node(label=t) for t in delta_m.taxa}
    active = set(delta_m.taxa)
    values = m_map_dict(delta_m)
    pair_dist = {}
    if delta_m.size >= 5:
        derived = _loop_pairwise_from_3map(delta_m)
        for a, b in combinations(delta_m.taxa, 2):
            pair_dist[frozenset((a, b))] = derived.get(a, b)

    def join(x, y):
        hub = tree.add_node()
        tree.add_edge(node_of.pop(x), hub, 0.0)
        tree.add_edge(node_of.pop(y), hub, 0.0)
        z = min(x, y)
        node_of[z] = hub
        rest = [t for t in active if t not in (x, y)]
        pendant = pair_dist.get(frozenset((x, y)), 0.0)
        for i, j in combinations(rest, 2):
            values[frozenset((z, i, j))] = (
                0.5 * (values[frozenset((x, i, j))] + values[frozenset((y, i, j))])
                - 0.5 * pendant
            )
        for k in rest:
            pair_dist[frozenset((z, k))] = 0.5 * (
                pair_dist.get(frozenset((x, k)), 0.0)
                + pair_dist.get(frozenset((y, k)), 0.0)
                - pendant
            )
        active.difference_update((x, y))
        active.add(z)

    while len(active) > 4:
        sub = keyed_m_map(sorted(active), 3, values)
        join(*_loop_generalized_nj_cherry(sub)[0])
    quartet = sorted(active)
    if pair_dist:
        best = None
        for x, y in combinations(quartet, 2):
            r_x = sum(pair_dist[frozenset((x, k))] for k in quartet if k != x)
            r_y = sum(pair_dist[frozenset((y, k))] for k in quartet if k != y)
            cand = (2.0 * pair_dist[frozenset((x, y))] - r_x - r_y, (x, y))
            if best is None or cand < best:
                best = cand
        join(*best[1])
    else:
        join(quartet[0], quartet[1])
    hub = tree.add_node()
    for t in sorted(active):
        tree.add_edge(node_of[t], hub, 0.0)
    return tree


def _m_map_cases(m, seed, count, sizes):
    """(family, map) pairs: maps of random trees, of trees whose branch
    lengths are all dyadic so that symmetric cherries tie exactly, and
    uniform noise; declared taxon orders are shuffled for half of them."""
    for c in range(count):
        g = rng(seed + c)
        n = int(g.integers(*sizes))
        family = ("tree", "equal", "uniform")[c % 3]
        if family == "uniform":
            taxa = tuple(f"x{i:02d}" for i in range(n))
            values = {frozenset(s): float(g.random() * 5) for s in combinations(taxa, m)}
        else:
            lengths = (1.0, 1.0) if family == "equal" else (0.05, 1.0)
            tree = random_binary_tree([f"x{i:02d}" for i in range(n)], g, *lengths)
            taxa, values = tree.taxa, _loop_m_dissimilarity(tree, m)
        if c % 2:
            taxa = tuple(taxa[i] for i in g.permutation(n))
        yield family, keyed_m_map(taxa, m, values)


def test_m_dissimilarity_matches_the_subset_loop():
    for seed in range(40):
        n = 4 + seed % 9
        tree = random_tree(11000 + seed, n)
        for m in range(2, min(n, 5) + 1):
            want = _loop_m_dissimilarity(tree, m)
            got = m_dissimilarity(tree, m)
            assert list(want) == list(map(frozenset, combinations(got.taxa, m)))
            for x, v in zip(got.values.tolist(), want.values(), strict=True):
                assert abs(x - v) <= 1e-12 * max(1.0, abs(v))


def _leaves_beyond_splits(tree):
    """The splits of ``tree`` in output order, by one ``leaves_beyond``
    walk per edge."""
    taxa = frozenset(tree.taxa)
    found = set()
    for u, v, _ in tree.edges():
        side = tree.leaves_beyond(u, v)
        if side and side != taxa:
            found.add(Split(inside=side, taxa=taxa))
    return sorted(found, key=lambda s: (len(s.inside), sorted(s.inside)))


def test_splits_and_m_maps_match_the_leaves_beyond_walks():
    from phylokit.trees import PhyloTree

    trees = [random_tree(11500 + seed, 4 + seed % 9) for seed in range(12)]
    for tree in trees[:6]:  # subdivided edges: degree-2 nodes, repeated splits
        for u, v, length in tree.edges()[::2]:
            tree.split_edge(u, v, length / 3)
    trees.append(parse_newick("((a:1,b:2):0.5,(c:1,(d:1,e:0.2):0.3):0.25);"))
    leaf_first = PhyloTree()  # nodes()[0] is a leaf
    first, hub = leaf_first.add_node(label="m"), leaf_first.add_node()
    leaf_first.add_edge(first, hub, 0.4)
    for name, length in (("b", 0.1), ("z", 0.2), ("a", 0.3)):
        leaf_first.add_edge(hub, leaf_first.add_node(label=name), length)
    trees += [leaf_first, caterpillar(9, 11600)]
    for tree in trees:
        want = _leaves_beyond_splits(tree)
        system = splits_of_tree(tree)
        assert list(system) == want
        assert system.is_binary == (len(want) == 2 * len(tree.taxa) - 3)
        for m in range(2, min(len(tree.taxa), 4) + 1):
            got = m_dissimilarity(tree, m)
            loop = _loop_m_dissimilarity(tree, m)
            assert list(loop) == list(map(frozenset, combinations(got.taxa, m)))
            assert [v.hex() for v in got.values.tolist()] == [v.hex() for v in loop.values()]


def test_generalized_cherry_matches_the_dict_sums():
    compared = 0
    for m in (2, 3, 4):
        for family, md in _m_map_cases(m, 11100 + 100 * m, 60, (m + 1, 11)):
            want_pair, want = _loop_generalized_nj_cherry(md)
            pair, table = generalized_nj_cherry(md)
            assert list(table) == list(want)
            scale = max(abs(v) for v in want.values())
            for key, v in want.items():
                assert abs(table[key] - v) <= 1e-9 * scale, (family, m)
            # with J(x,y) the sum over subsets holding x and y and R its row
            # sums, Q = ((n-2) J(x,y) - (R_x + R_y)) / (m-1); the bound is
            # relative to the largest entry, as entries near zero cancel
            taxa, n, keyed = sorted(md.taxa), md.size, m_map_dict(md)
            joint = {}
            for x, y in combinations(taxa, 2):
                joint[x, y] = joint[y, x] = sum(
                    v for k, v in keyed.items() if x in k and y in k
                )
            row = {x: sum(joint[x, y] for y in taxa if y != x) for x in taxa}
            for x, y in combinations(taxa, 2):
                nj = ((n - 2) * joint[x, y] - (row[x] + row[y])) / (m - 1)
                assert abs(table[x, y] - nj) <= 1e-12 * scale, (family, m, x, y)
            # dyadic lengths make every sum exact, so tied pairs are
            # broken identically; elsewhere a near tie may flip by roundoff
            low = sorted(want.values())
            if family == "equal" or low[1] - low[0] > 1e-9 * scale:
                assert pair == want_pair, (family, m)
                compared += 1
    assert compared >= 160


def test_generalized_nj_joins_at_the_last_active_slot(monkeypatch):
    """The two edge cases of the in-place join, each against the dict
    joins: a first cherry holding the alphabetically last taxon, whose
    slot is the last active one, and a join whose smaller-named member
    sits in the last active slot, so the merged cluster is written there
    and then moved into the other member's slot."""
    import phylokit.treespace as treespace

    picks = []  # (active clusters, slot of the smaller name, the other slot)
    pick = treespace._pick_cherry

    def recorded(d, keys, q, pair_sums):
        a, b, r = pick(d, keys, q, pair_sums)
        picks.append((len(d), *sorted((a, b), key=keys.__getitem__)))
        return a, b, r

    monkeypatch.setattr(treespace, "_pick_cherry", recorded)
    for seed, n, hit in (
        (13002, 7, lambda: picks[0][2] == n - 1),
        (13021, 8, lambda: any(m > 4 and a == m - 1 for m, a, _ in picks)),
    ):
        picks.clear()
        md = m_dissimilarity(random_tree(seed, n), 3)
        got = generalized_neighbor_join(md)
        assert hit(), picks
        assert emit_newick(got) == emit_newick(_loop_generalized_neighbor_join(md))


def test_pairwise_from_3map_matches_the_subset_scans():
    for family, md in _m_map_cases(3, 11500, 60, (5, 16)):
        want = _loop_pairwise_from_3map(md)
        got = pairwise_from_3map(md)
        assert got.taxa == want.taxa
        scale = max(1.0, np.abs(want.values).max())
        assert np.abs(got.values - want.values).max() <= 1e-9 * scale, family


def test_generalized_nj_matches_the_dict_joins():
    families = {}
    tied = 0
    for family, md in _m_map_cases(3, 12000, 600, (4, 16)):
        want = _loop_generalized_neighbor_join(md)
        got = generalized_neighbor_join(md)
        # the two cherries of the final quartet tie in exact arithmetic,
        # so which is joined first follows roundoff; the text does not
        assert emit_newick(got) == emit_newick(want), family
        families[family] = families.get(family, 0) + 1
        if family == "equal" and md.size > 4:
            q = sorted(_loop_generalized_nj_cherry(md)[1].values())
            tied += q[0] == q[1]
    assert families == {"tree": 200, "equal": 200, "uniform": 200}
    assert tied >= 30


def _m_map_three_ways(md, g):
    """``md``, the map rebuilt from a writable copy of its values (then
    overwritten, which the map must not see), and its JSON round trip
    with the subset keys shuffled."""
    copy = md.values.copy()
    rebuilt = MDissimilarityMap(md.taxa, md.m, copy)
    copy[:] = -1.0
    data = json.loads(format_m_dissimilarity(md))
    items = list(data["values"].items())
    data["values"] = dict(items[i] for i in g.permutation(len(items)))
    return md, rebuilt, parse_m_dissimilarity(json.dumps(data))


def test_m_map_layout_is_the_same_however_the_map_is_built():
    checked = set()
    for m in (3, 4):
        for family, md in _m_map_cases(m, 12300 + 100 * m, 30, (m + 2, 11)):
            maps = _m_map_three_ways(md, rng(12300 + md.size))
            want = md.values.tolist()
            assert len(want) == math.comb(md.size, m)
            outputs = []
            for other in maps:
                assert other.values.tolist() == want, (family, m)
                assert other.values.dtype == np.float64
                with pytest.raises(ValueError, match="read-only"):
                    other.values[0] = 1.0
                verdict = check_m_tree(other)
                got = [generalized_nj_cherry(other), verdict.ok, verdict.witness]
                if m == 3:
                    got += [
                        pairwise_from_3map(other).values.tolist(),
                        emit_newick(generalized_neighbor_join(other)),
                    ]
                outputs.append(got)
            assert outputs[0] == outputs[1] == outputs[2], (family, m)
            checked.add((m, family, verdict.ok))
    assert {(m, "tree", True) for m in (3, 4)} <= checked
    assert {(m, "uniform", False) for m in (3, 4)} <= checked


def test_m_map_reader_names_the_missing_or_bad_subset():
    def parse(taxa, m, values):
        keyed = {",".join(sorted(k)): v for k, v in values.items()}
        return parse_m_dissimilarity(json.dumps({"taxa": list(taxa), "m": m, "values": keyed}))

    values = {frozenset(s): 1.0 for s in combinations("abcde", 3)}
    holed = {k: v for k, v in values.items() if k != set("ace")}
    with pytest.raises(ValueError, match=r"missing value for subset \['a', 'c', 'e'\]"):
        parse("abcde", 3, holed)
    for key in ("ab", "abz", "abcd"):
        with pytest.raises(ValueError, match=re.escape(f"bad subset key {sorted(key)}")):
            parse("abcde", 3, {frozenset(key): 1.0, **values})
    # the order and the taxa are checked before the keys
    for m in (1, 6):
        with pytest.raises(ValueError, match=re.escape(f"m must lie in [2, 5], got {m}")):
            parse("abcde", m, holed)
    with pytest.raises(ValueError, match="taxa must be distinct"):
        parse("abcda", 3, holed)
    # the constructor takes one value per subset, in combinations order
    for bad in ([1.0] * 9, [1.0] * 11, [[1.0] * 10]):
        with pytest.raises(ValueError, match="expected 10 values, one per subset"):
            MDissimilarityMap(tuple("abcde"), 3, bad)


def test_m_map_get_names_the_first_unknown_taxon():
    md = m_dissimilarity(random_tree(12400, 5), 3)
    a, b = md.taxa[:2]
    assert md.get(b, a, md.taxa[4]) == m_map_dict(md)[frozenset((a, b, md.taxa[4]))]
    with pytest.raises(KeyError, match="unknown taxon 'zz'"):
        md.get(a, b, "zz")
    with pytest.raises(KeyError, match="unknown taxon 'yy'"):
        md.get("yy", a, "zz")
    with pytest.raises(ValueError, match="need 3 distinct taxa"):
        md.get(a, a, "zz")


def test_m_map_get_reads_every_subset_at_its_combinations_rank():
    g = rng(12500)
    for n, m in ((5, 2), (6, 3), (8, 4), (7, 7)):
        taxa = tuple(f"x{i}" for i in g.permutation(n))
        md = MDissimilarityMap(taxa, m, np.arange(math.comb(n, m)) + 0.5)
        for rank, subset in enumerate(combinations(taxa, m)):
            shuffled = [subset[i] for i in g.permutation(m)]
            assert md.get(*subset) == md.get(*shuffled) == rank + 0.5, (n, m, subset)


def test_maps_compare_by_identity():
    dm = tree_metric(random_tree(12600, 5))
    md = m_dissimilarity(random_tree(12600, 5), 3)
    twin = MDissimilarityMap(md.taxa, md.m, md.values)
    assert dm == dm and md == md
    assert dm != DissimilarityMap(dm.taxa, dm.values) and md != twin
    assert len({dm, md, twin}) == 3


def test_generalized_nj_builds_the_subset_rows_once(monkeypatch):
    import phylokit.treespace as treespace

    calls = []
    subsets = treespace._subsets

    def counted(n, m):
        calls.append((n, m))
        return subsets(n, m)

    monkeypatch.setattr(treespace, "_subsets", counted)
    for seed, n in ((12650, 4), (12651, 5), (12652, 9)):
        md = m_dissimilarity(random_tree(seed, n), 3)
        calls.clear()
        generalized_neighbor_join(md)
        assert calls == [(n, 3)]


def test_generalized_nj_recovers_topology_on_30_to_40_taxa():
    for seed, n in ((12700, 30), (12701, 35), (12702, 40)):
        tree = random_tree(seed, n)
        rebuilt = generalized_neighbor_join(m_dissimilarity(tree, 3))
        assert splits_of_tree(rebuilt).as_set() == splits_of_tree(tree).as_set()


# ---------------------------------------------------------------------------
# tree-metric checks against the stack-and-sort scan and the pinned-slice
# dict walk they replaced


def _stacked_four_point(delta):
    taxa = sorted(delta.taxa)
    order = [delta.taxa.index(t) for t in taxa]
    dist = delta.values[np.ix_(order, order)]
    n = len(taxa)
    cs, ds = np.triu_indices(n, 1)
    cd = dist[cs, ds]
    first = np.cumsum(np.arange(n - 1, 0, -1))
    for a in range(n - 3):
        for b in range(a + 1, n - 2):
            c, d = cs[first[b]:], ds[first[b]:]
            sums = np.stack(
                (dist[a, b] + cd[first[b]:], dist[a, c] + dist[b, d], dist[a, d] + dist[b, c]),
                axis=1,
            )
            sums.sort(axis=1)
            bad = sums[:, 2] - sums[:, 1] > 1e-9
            if bad.any():
                k = int(bad.argmax())
                return (taxa[a], taxa[b], taxa[c[k]], taxa[d[k]])
    return None


def _restrict(delta_m, keyed, fixed):
    fixed = frozenset(fixed)
    rest = tuple(t for t in delta_m.taxa if t not in fixed)
    n = len(rest)
    values = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            values[i, j] = values[j, i] = keyed[fixed | {rest[i], rest[j]}]
    return DissimilarityMap(taxa=rest, values=values)


def _restrict_check_m_tree(delta_m):
    """(ok, vacuous, witness) by pinning through the frozenset dict."""
    n, m = delta_m.size, delta_m.m
    if n < m + 2:
        return (True, True, None)
    keyed = m_map_dict(delta_m)
    for fixed in combinations(delta_m.taxa, m - 2):
        induced = _restrict(delta_m, keyed, fixed)
        metric = check_metric(induced)
        if not metric:
            return (False, False, (tuple(fixed), metric.violation))
        four = _stacked_four_point(induced)
        if four is not None:
            return (False, False, (tuple(fixed), four))
    return (True, False, None)


def _four_point_cases():
    """(family, map) on 4-40 taxa: integer maps (dense exact ties),
    tree metrics of dyadic-length trees (exact ties that pass), those
    with one entry raised by 1, and tree metrics with random lengths,
    plain and with one entry scaled."""
    for seed in range(40):
        g = rng(13000 + seed)
        n = int(g.integers(4, 41))
        taxa = _shuffled_taxa(g, n)
        yield "integer", DissimilarityMap(
            taxa=taxa, values=_symmetric(g, n, lambda g, s: g.integers(0, 6, s).astype(float))
        )
        equal = tree_metric(random_binary_tree(taxa, g, 1.0, 1.0))
        yield "tree", equal
        values = np.array(equal.values)
        i, j = sorted(g.choice(n, 2, replace=False))
        values[i, j] = values[j, i] = values[i, j] + 1.0
        yield "perturbed", DissimilarityMap(taxa=equal.taxa, values=values)
        base = tree_metric(random_binary_tree(taxa, g))
        yield "tree", base
        values = np.array(base.values)
        values[i, j] = values[j, i] = values[i, j] * g.uniform(1.05, 1.6)
        yield "perturbed", DissimilarityMap(taxa=base.taxa, values=values)


def test_four_point_matches_the_stack_and_sort_scan():
    verdicts = {}
    for family, delta in _four_point_cases():
        want = _stacked_four_point(delta)
        got = check_four_point(delta)
        assert (got.ok, got.violation) == (want is None, want), family
        verdicts.setdefault(family, set()).add(got.ok)
    assert verdicts == {"integer": {False}, "tree": {True}, "perturbed": {True, False}}


def test_m_tree_matches_the_pinned_dict_walk():
    verdicts = {}
    for m in (2, 3, 4, 5):
        for seed in range(16):
            g = rng(13500 + 100 * m + seed)
            n = int(g.integers(m + 1, m + 8))
            names = [f"x{i:02d}" for i in range(n)]
            family = ("tree", "equal", "perturbed", "integer")[seed % 4]
            if family == "integer":
                values = {
                    frozenset(s): float(g.integers(0, 4)) for s in combinations(names, m)
                }
            else:
                lengths = (1.0, 1.0) if family == "equal" else (0.05, 1.0)
                values = m_map_dict(m_dissimilarity(random_binary_tree(names, g, *lengths), m))
                if family == "perturbed":
                    key = list(values)[int(g.integers(len(values)))]
                    values[key] *= g.uniform(1.05, 1.6)
            taxa = tuple(names[i] for i in g.permutation(n))
            md = keyed_m_map(taxa, m, values)
            got = check_m_tree(md)
            want = _restrict_check_m_tree(md)
            assert (got.ok, got.vacuous, got.witness) == want, (family, m)
            verdicts.setdefault(family, set()).add((got.ok, got.vacuous))
    assert verdicts["tree"] == verdicts["equal"] == {(True, False), (True, True)}
    assert (False, False) in verdicts["perturbed"] and (False, False) in verdicts["integer"]
