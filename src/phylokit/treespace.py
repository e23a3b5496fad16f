"""Phylogenetic combinatorics: dissimilarity maps, the four-point
condition, splits and their compatibility, neighbor-joining, subtree-
length maps on m-subsets with the generalized cherry criterion, and the
linear relations cutting out tree-derived 3-maps on six taxa.
"""

from __future__ import annotations

import math
import warnings
from bisect import insort
from dataclasses import dataclass
from itertools import chain, combinations, permutations

import numpy as np

from .trees import PhyloTree

_SYM_TOL = 1e-9
_FOUR_POINT_SLACK = 1e-9
#: the most (b, c, d) triples :func:`check_four_point` holds at once
_TRIPLE_BLOCK = 2**15


# ---------------------------------------------------------------------------
# dissimilarity maps


@dataclass(frozen=True, eq=False)
class DissimilarityMap:
    """Symmetric pairwise values on a declared taxon order, zero on the
    diagonal.  Entries may be negative (dissimilarity, not metric).  Maps
    compare and hash by identity: array fields have no elementwise ``==``."""

    taxa: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        taxa = tuple(self.taxa)
        if len(set(taxa)) != len(taxa):
            raise ValueError("taxa must be distinct")
        values = np.asarray(self.values, dtype=float)
        n = len(taxa)
        if values.shape != (n, n):
            raise ValueError(f"expected a {n}x{n} table, got {values.shape}")
        if not np.isfinite(values).all():
            raise ValueError("dissimilarity values must be finite (not NaN or inf)")
        if np.abs(np.diag(values)).max(initial=0.0) > 1e-12:
            raise ValueError("diagonal must be zero")
        asym = np.abs(values - values.T)
        if asym.max(initial=0.0) > _SYM_TOL:
            i, j = np.unravel_index(int(asym.argmax()), asym.shape)
            raise ValueError(
                f"asymmetric entries d[{taxa[i]},{taxa[j]}]={values[i, j]!r} "
                f"vs d[{taxa[j]},{taxa[i]}]={values[j, i]!r}"
            )
        with np.errstate(over="ignore"):
            mean = (values + values.T) / 2.0
        finite = np.isfinite(mean)
        if not finite.all():  # d[i,j] + d[j,i] overflows above about 8.99e307
            i, j = np.unravel_index(int(finite.argmin()), finite.shape)
            raise ValueError(
                f"entry d[{taxa[i]},{taxa[j]}]={float(values[i, j])!r} is too large "
                "to symmetrize: d[i,j] + d[j,i] overflows"
            )
        mean.setflags(write=False)
        object.__setattr__(self, "taxa", taxa)
        object.__setattr__(self, "values", mean)

    @property
    def size(self) -> int:
        return len(self.taxa)

    def index(self, taxon: str) -> int:
        try:
            return self.taxa.index(taxon)
        except ValueError:
            raise KeyError(f"unknown taxon {taxon!r}") from None

    def get(self, a: str, b: str) -> float:
        return float(self.values[self.index(a), self.index(b)])


@dataclass(frozen=True)
class Verdict:
    """Outcome of a tree-metric check and its first violating taxa: a
    triple for :func:`check_metric`, a quartet for :func:`check_four_point`."""

    ok: bool
    violation: tuple[str, ...] | None = None

    def __bool__(self):
        return self.ok


def _sorted_values(delta: DissimilarityMap) -> tuple[list[str], np.ndarray]:
    """Taxa in sorted order and the value table permuted to match."""
    order = sorted(range(delta.size), key=delta.taxa.__getitem__)
    return [delta.taxa[i] for i in order], delta.values[np.ix_(order, order)]


def check_metric(delta: DissimilarityMap) -> Verdict:
    """Non-negativity plus the triangle inequality.

    A violating triple (x, y, z) means d(x,z) > d(x,y) + d(y,z); taking
    z = x makes a negative entry a violation too.  The lexicographically
    first violating triple is reported.
    """
    taxa, dist = _sorted_values(delta)
    n = len(taxa)
    for x in range(n):
        # bad[y, z]: d(x,z) > d(x,y) + d(y,z), for y != x and z != y
        bad = dist[x][None, :] > (dist[x][:, None] + dist) + 1e-15
        bad[x] = False
        np.fill_diagonal(bad, False)
        if bad.any():
            y, z = divmod(int(bad.argmax()), n)
            return Verdict(False, (taxa[x], taxa[y], taxa[z]))
    return Verdict(True)


def check_four_point(delta: DissimilarityMap) -> Verdict:
    """For every four taxa, the two largest of the three pair-sums must
    agree (within a slack of 1e-9).  Vacuously true below four taxa.
    The lexicographically first violating quartet is reported.

    The triples b < c < d are built once per call in row-major order,
    with their sums d(c,d), d(b,d) and d(b,c); each first taxon a then
    scans the triples with b > a, a suffix, in one array pass.  Past
    ``_TRIPLE_BLOCK`` triples they are built one block of b at a time,
    each block scanned by every a that has no earlier violation, so
    memory stays bounded."""
    taxa, dist = _sorted_values(delta)
    n = len(taxa)
    # every pair c < d in row-major order; first[b] is where c > b begins
    cs, ds = np.triu_indices(n, 1)
    cd = dist[cs, ds]
    first = np.cumsum(np.arange(n - 1, 0, -1))
    sizes = len(cs) - first  # triples with each b
    before = np.concatenate(([0], np.cumsum(sizes)))  # triples with smaller b
    witness, end = None, n - 3  # only a < end can give an earlier quartet
    b0 = 1
    while b0 < n - 2 and end:
        b1 = int(np.searchsorted(before, before[b0] + _TRIPLE_BLOCK, "right")) - 1
        b1 = min(n - 2, max(b0 + 1, b1))
        # the triples with b0 <= b < b1; those with b > a start at at[a + 1 - b0]
        at = before[b0:b1 + 1] - before[b0]
        b = np.repeat(np.arange(b0, b1), sizes[b0:b1])
        pair = np.arange(at[-1]) + np.repeat(first[b0:b1] - at[:-1], sizes[b0:b1])
        c, d = cs[pair], ds[pair]
        bcd, bd, bc = cd[pair], dist[b, d], dist[b, c]
        for a in range(min(end, b1 - 1)):
            s = at[max(0, a + 1 - b0)]
            row = dist[a]
            x = row[b[s:]] + bcd[s:]
            y, z = row[c[s:]] + bd[s:], row[d[s:]] + bc[s:]
            # the largest and the middle sum, the same floats sorting would give
            hi, lo = np.maximum(x, y), np.minimum(x, y)
            top, mid = np.maximum(hi, z), np.maximum(lo, np.minimum(hi, z))
            bad = top - mid > _FOUR_POINT_SLACK
            if bad.any():
                k = s + int(bad.argmax())
                witness, end = (a, b[k], c[k], d[k]), a
                break
        b0 = b1
    if witness is None:
        return Verdict(True)
    return Verdict(False, tuple(taxa[x] for x in witness))


def tree_metric(tree: PhyloTree) -> DissimilarityMap:
    """Pairwise path-length map of a tree, in sorted taxon order: each
    edge adds its length to every pair of taxa it separates."""
    taxa, sides, lengths = _edge_sides(tree)
    values = (sides * lengths[:, None]).T @ ~sides
    return DissimilarityMap(taxa=taxa, values=values + values.T)


# ---------------------------------------------------------------------------
# splits


@dataclass(frozen=True)
class Split:
    """Bipartition of a taxon set; the stored side is the one containing
    the smallest taxon label."""

    inside: frozenset[str]
    taxa: frozenset[str]

    def __post_init__(self):
        inside = frozenset(self.inside)
        taxa = frozenset(self.taxa)
        if not inside or inside == taxa or not inside <= taxa:
            raise ValueError("a split needs two nonempty sides")
        if min(taxa) not in inside:
            inside = taxa - inside
        object.__setattr__(self, "inside", inside)
        object.__setattr__(self, "taxa", taxa)

    @property
    def outside(self) -> frozenset[str]:
        return self.taxa - self.inside

    def sides(self) -> tuple[frozenset[str], frozenset[str]]:
        return self.inside, self.outside


def splits_compatible(s1: Split, s2: Split) -> bool:
    """True when some pair of sides (one from each split) is disjoint."""
    if s1.taxa != s2.taxa:
        raise ValueError("splits are over different taxon sets")
    a, b = s1.sides()
    a2, b2 = s2.sides()
    return not (a & a2) or not (a & b2) or not (b & a2) or not (b & b2)


@dataclass(frozen=True)
class SplitSystem:
    """Distinct splits of a tree.  A binary tree on n taxa has exactly
    2n - 3; fewer flags an unresolved (or subdivided) tree."""

    splits: tuple[Split, ...]
    is_binary: bool

    def __iter__(self):
        return iter(self.splits)

    def __len__(self):
        return len(self.splits)

    def as_set(self) -> frozenset[Split]:
        return frozenset(self.splits)


def _edge_sides(tree: PhyloTree) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """The sorted taxa, a boolean (edges, taxa) array whose row e marks the
    taxa beyond edge e of ``tree.edges()`` from the tree's first node, and
    the edge lengths: one backward pass over the tree hung from that node."""
    taxa, edges = tree.taxa, tree.edges()
    children = tree.children_from(tree.nodes()[0]) if tree.num_nodes else {}
    row = {(u, v): e for e, (u, v, _) in enumerate(edges)}
    up = {c: row[min(p, c), max(p, c)] for p, kids in children.items() for c in kids}
    column = {t: i for i, t in enumerate(taxa)}
    sides = np.zeros((len(edges), len(taxa)), dtype=bool)
    for node, kids in reversed(children.items()):  # every child before its parent
        if node in up:  # not the first node
            if tree.is_leaf(node):
                sides[up[node], column[tree.label_of(node)]] = True
            for c in kids:
                sides[up[node]] |= sides[up[c]]
    return taxa, sides, np.array([ln for _, _, ln in edges])


def splits_of_tree(tree: PhyloTree) -> SplitSystem:
    """Bipartitions induced by deleting each edge, deduplicated (the two
    halves of a subdivided edge induce the same split)."""
    if len(tree.taxa) < 2:
        raise ValueError("splits need at least two taxa")
    taxa, sides, _ = _edge_sides(tree)
    inside = sides[:, :1] == sides  # each row flipped to the side holding taxa[0]
    inside = inside[~inside.all(axis=1)]
    # by size, then sorted labels: taxa are the columns in sorted order, so at
    # one size the label lists ascend exactly as the complements' bits do
    keys = zip(inside.sum(axis=1).tolist(), map(bytes, np.packbits(~inside, axis=1)))
    rows = dict(zip(keys, inside))  # one row per distinct split
    names, everyone = np.array(taxa, dtype=object), frozenset(taxa)
    ordered = tuple(
        Split(inside=frozenset(names[rows[key]]), taxa=everyone) for key in sorted(rows)
    )
    return SplitSystem(splits=ordered, is_binary=len(ordered) == 2 * len(taxa) - 3)


def cherries(tree: PhyloTree) -> set[frozenset[str]]:
    """Leaf pairs separated by a single internal vertex."""
    collapsed = tree.suppress_unifurcations()
    collapsed.children_from(collapsed.nodes()[0])  # rejects graphs that are not trees
    out = set()
    for node in collapsed.nodes():
        if collapsed.is_leaf(node):
            continue
        leaf_nbrs = [
            collapsed.label_of(x)
            for x in collapsed.neighbors(node)
            if collapsed.is_leaf(x)
        ]
        out.update(
            frozenset(p) for p in combinations(sorted(leaf_nbrs), 2)
        )
    return out


# ---------------------------------------------------------------------------
# neighbor joining


def _pick_cherry(d: np.ndarray, keys, q: np.ndarray, pair_sums: np.ndarray):
    """Arg-min (a, b) of the cherry criterion (m-2) d(i,j) - (r_i + r_j) on
    an m x m table d, and d's row sums r.  The criterion stays in the flat
    buffer ``q``'s first m*m entries with an inf diagonal (bit-symmetric
    where d is); exact ties go to the smallest sorted pair of ``keys``,
    as a < b where d is bit-symmetric."""
    m = len(d)
    r = d.sum(axis=1)
    crit, sums = q[: m * m].reshape(m, m), pair_sums[: m * m].reshape(m, m)
    np.add(r[:, None], r, out=sums)
    np.subtract(np.multiply(d, m - 2, out=crit), sums, out=crit)
    q[: m * m : m + 1] = np.inf  # crit's diagonal
    a, b = min(
        (divmod(int(t), m) for t in np.flatnonzero(crit == crit.min())),
        key=lambda pair: sorted((keys[pair[0]], keys[pair[1]])),
    )
    return a, b, r


def neighbor_join(delta: DissimilarityMap) -> PhyloTree:
    """Agglomerate the pair minimizing (n-2) d(i,j) - (r_i + r_j), assign
    cherry edge lengths by the divergence-corrected formula, and reduce
    with d(z,k) = (d(x,k) + d(y,k) - d(x,y))/2.

    Works in place on one n x n copy of the table, whose leading m x m
    block holds the m active clusters: a join writes the merged row into
    the slot of the older cherry member and moves the last active row
    into the other member's slot.  The criterion is :func:`_pick_cherry`'s
    in two preallocated buffers.  Each cherry is oriented by join order
    (leaves in input order, then hubs in the order they are made), which
    fixes the sign of r_a - r_b in its edge lengths.

    Exact tree metrics are reconstructed exactly (up to roundoff); ties
    in the criterion go to the lexicographically smallest label pair.
    Negative edge lengths from noisy inputs are clamped to zero with a
    warning.
    """
    n = delta.size
    if n < 3:
        raise ValueError("neighbor joining needs at least 3 taxa")

    tree = PhyloTree()
    # node ids count up in join order: leaves in input order, then hubs
    nodes = [tree.add_node(label=t) for t in delta.taxa]
    # sort key of an agglomerated cluster: its smallest original label
    keys = list(delta.taxa)
    values = np.array(delta.values)
    # criterion and pair-sum scratch, each used as one contiguous m x m block
    q, pair_sums = np.empty(n * n), np.empty(n * n)

    def attach(node: int, hub: int, length: float, key: str) -> None:
        if length < 0:
            if length < -1e-12:
                warnings.warn(
                    f"clamping negative branch length {length:.3e} on the "
                    f"edge above {key!r}",
                    stacklevel=3,
                )
            length = 0.0
        tree.add_edge(node, hub, length)

    for m in range(n, 3, -1):
        d = values[:m, :m]
        a, b, r = _pick_cherry(d, keys, q, pair_sums)
        if nodes[a] > nodes[b]:
            a, b = b, a
        dab = d[a, b]
        la = 0.5 * dab + (r[a] - r[b]) / (2.0 * (m - 2))
        lb = dab - la
        hub = tree.add_node()
        attach(nodes[a], hub, la, keys[a])
        attach(nodes[b], hub, lb, keys[b])

        # d is exactly symmetric, so the merged row is 0 at a and at b
        d[a] = d[:, a] = 0.5 * (d[a] + d[b] - dab)
        d[b] = d[m - 1]
        d[:, b] = d[:, m - 1]
        nodes[a], keys[a] = hub, min(keys[a], keys[b])
        nodes[b], keys[b] = nodes[m - 1], keys[m - 1]
        del nodes[m - 1], keys[m - 1]

    order = sorted(range(3), key=nodes.__getitem__)
    values = values[np.ix_(order, order)]
    hub = tree.add_node()
    for a in range(3):
        b, c = [x for x in range(3) if x != a]
        la = 0.5 * (values[a, b] + values[a, c] - values[b, c])
        attach(nodes[order[a]], hub, la, keys[order[a]])
    return tree


# ---------------------------------------------------------------------------
# m-dissimilarity maps


@dataclass(frozen=True, eq=False)
class MDissimilarityMap:
    """One value per m-element subset of the taxa, as a read-only float
    array in ``combinations(taxa, m)`` order.  Maps compare and hash by
    identity: array fields have no elementwise ``==``."""

    taxa: tuple[str, ...]
    m: int
    values: np.ndarray

    def __post_init__(self):
        taxa = tuple(self.taxa)
        count = _subset_count(taxa, self.m)
        values = np.array(self.values, dtype=float)
        if values.shape != (count,):
            raise ValueError(f"expected {count} values, one per subset, got {values.shape}")
        if not np.isfinite(values).all():
            raise ValueError("m-dissimilarity values must be finite (not NaN or inf)")
        values.setflags(write=False)
        object.__setattr__(self, "taxa", taxa)
        object.__setattr__(self, "values", values)

    @property
    def size(self) -> int:
        return len(self.taxa)

    def get(self, *taxa: str) -> float:
        if len(taxa) != self.m or len(set(taxa)) != self.m:
            raise ValueError(f"need {self.m} distinct taxa, got {taxa!r}")
        unknown = [t for t in taxa if t not in self.taxa]
        if unknown:
            raise KeyError(f"unknown taxon {unknown[0]!r}")
        # in combinations order, c_0 < ... < c_{m-1} has rank C(n,m) - 1 - sum C(n-1-c_i, m-i)
        n, m, cs = self.size, self.m, sorted(map(self.taxa.index, taxa))
        rank = math.comb(n, m) - 1 - sum(math.comb(n - 1 - c, m - i) for i, c in enumerate(cs))
        return float(self.values[rank])


def _subset_count(taxa: tuple[str, ...], m: int) -> int:
    """C(n, m) for n distinct taxa and 2 <= m <= n; anything else is refused."""
    if len(set(taxa)) != len(taxa):
        raise ValueError("taxa must be distinct")
    if not 2 <= m <= len(taxa):
        raise ValueError(f"m must lie in [2, {len(taxa)}], got {m}")
    return math.comb(len(taxa), m)


def _subsets(n: int, m: int) -> np.ndarray:
    """Every m-subset of range(n), one ascending row each, in combinations order."""
    rows = chain.from_iterable(combinations(range(n), m))
    return np.fromiter(rows, dtype=np.intp).reshape(-1, m)


def m_dissimilarity(tree: PhyloTree, m: int) -> MDissimilarityMap:
    """Total branch length of the subtree spanned by each m-subset.

    An edge belongs to the spanned subtree exactly when both of its
    sides contain a taxon of the subset.  At m = 2 this is the pairwise
    path-length map.
    """
    taxa, sides, lengths = _edge_sides(tree)
    _subset_count(taxa, m)
    members = _subsets(len(taxa), m)
    totals = np.zeros(len(members))
    for side, ln in zip(sides, lengths.tolist()):  # this order fixes the float sums
        hits = side[members].sum(axis=1)
        totals[(hits > 0) & (hits < m)] += ln
    return MDissimilarityMap(taxa=taxa, m=m, values=totals)


def _subset_sums(delta_m: MDissimilarityMap, members: np.ndarray) -> np.ndarray:
    """Sum of the values of every subset containing each taxon pair, from
    the map's member rows ``_subsets(n, m)``: exactly symmetric, with a zero
    diagonal.  Row i sums to m-1 times the sum over the subsets holding i."""
    n, m = delta_m.size, delta_m.m
    joint = np.zeros((n, n))
    for a, b in combinations(range(m), 2):
        np.add.at(joint, (members[:, a], members[:, b]), delta_m.values)
    return joint + joint.T


def generalized_nj_cherry(delta_m: MDissimilarityMap):
    """Arg-min pair of the subtree-length cherry criterion.

    Q(i,j) = (n-2)/(m-1) * sum of delta(i,j,Y) over (m-2)-subsets Y
    avoiding i,j, minus the sums of delta(i,Y') and delta(j,Y') over
    (m-1)-subsets.  On maps derived from a tree the minimizing pair is a
    cherry.  Returns the pair and the full Q table keyed by sorted label
    pairs; ties go to the lexicographically smallest pair.  With J(i,j)
    the first sum, row i of J sums to (m-1) times the second, so Q is
    :func:`_pick_cherry`'s criterion on J divided by m-1.
    """
    taxa = delta_m.taxa
    n, m = len(taxa), delta_m.m
    if n <= m:
        raise ValueError(f"need more taxa than the subset size ({n} <= {m})")
    order = sorted(range(n), key=taxa.__getitem__)
    names = [taxa[i] for i in order]
    joint, q = _subset_sums(delta_m, _subsets(n, m))[np.ix_(order, order)], np.empty(n * n)
    a, b, _ = _pick_cherry(joint, names, q, np.empty(n * n))
    q = q.reshape(n, n) / (m - 1)
    table = {(names[i], names[j]): float(q[i, j]) for i, j in combinations(range(n), 2)}
    return (names[a], names[b]), table


def pairwise_from_3map(md: MDissimilarityMap, members=None) -> DissimilarityMap:
    """Pairwise distances implied by a tree-derived 3-map (n >= 5).

    With delta(i,j,k) = (d(i,j) + d(i,k) + d(j,k)) / 2, summing over the
    third taxon, over pairs through one taxon, and over all triples
    gives linear relations that invert to d.  On four taxa the map has a
    two-dimensional kernel and no inverse exists.  ``members`` may pass in ``_subsets(n, 3)``.
    """
    n = md.size
    if md.m != 3:
        raise ValueError("expected a 3-dissimilarity map")
    if n < 5:
        raise ValueError("pairwise inversion needs at least 5 taxa")
    total = sum(md.values.tolist())  # = (n-2)/2 * sum of all pairwise d
    all_pairs_sum = 2.0 * total / (n - 2)
    joint = _subset_sums(md, _subsets(n, 3) if members is None else members)
    # joint's row sums: ((n-3) * r_t + all_pairs_sum), twice the triples through t
    row = (joint.sum(axis=1) - all_pairs_sum) / (n - 3)
    # joint_xy = ((n-4) * d(x,y) + r_x + r_y) / 2
    values = np.triu((2.0 * joint - row[:, None] - row[None, :]) / (n - 4), 1)
    return DissimilarityMap(taxa=md.taxa, values=values + values.T)


def generalized_neighbor_join(delta_m: MDissimilarityMap) -> PhyloTree:
    """Tree topology from a 3-dissimilarity map by repeated cherry
    picking: neighbor joining on J(i,j) = sum over k of delta(i,j,k)
    (see :func:`generalized_nj_cherry`), in place as :func:`neighbor_join`
    runs: slots in declared taxon order, merging into the smaller name's slot.

    Joining a cherry (x, y) into z replaces triple values by the average
    (delta(x,i,j) + delta(y,i,j)) / 2.  The triple array is then no
    longer an exact 3-map (every z-triple still carries half the two
    pendant edges), but only its criterion is read: on r clusters a
    shift c on every triple through z adds c to J(i,j) and 2c (r-2) to
    R_i off z, c (r-2) to J(z,j) and c (r-2)(r-1) to R_z, so every entry
    of (r-2) J(i,j) - (R_i + R_j) moves by -3c (r-2) and no pick
    changes.  Pairwise distances from :func:`pairwise_from_3map`, carried
    along with the (d(x,k) + d(y,k) - d(x,y)) / 2 reduction, resolve the
    final quartet, where the triple criterion is constant across pairs
    (four triple values cannot tell the three quartet topologies apart).
    Exact on maps of the form m_dissimilarity(tree, 3) with five or more
    taxa; four-taxon input falls back to the lexicographically smallest
    pairing.  Only the topology is inferred; branch lengths are zero.
    """
    if delta_m.m != 3:
        raise ValueError("only 3-dissimilarity maps are supported")
    if delta_m.size < 4:
        raise ValueError("need at least 4 taxa")

    tree = PhyloTree()
    nodes = [tree.add_node(label=t) for t in delta_m.taxa]
    # clusters are named by their smallest member, the tie-breaking key
    n, names = delta_m.size, list(delta_m.taxa)
    members, triples = _subsets(n, 3), np.zeros((n, n, n))  # zero where indices repeat
    for i, j, k in permutations(members.T):
        triples[i, j, k] = delta_m.values
    # on four taxa every pairing ties, and zero pairs take the smallest
    pairs = np.array(pairwise_from_3map(delta_m, members).values) if n > 4 else np.zeros((4, 4))
    q, pair_sums = np.empty(n * n), np.empty(n * n)

    for m in range(n, 3, -1):
        t, p = triples[:m, :m, :m], pairs[:m, :m]
        # the quartet stage reads pairs, whose criterion picks a true cherry
        a, b, _ = _pick_cherry(t.sum(axis=2) if m > 4 else p, names, q, pair_sums)
        if names[a] > names[b]:
            a, b = b, a
        hub = tree.add_node()
        tree.add_edge(nodes[a], hub, 0.0)
        tree.add_edge(nodes[b], hub, 0.0)
        merged = 0.5 * (t[a] + t[b])
        merged[a] = merged[:, a] = 0.0
        np.fill_diagonal(merged, 0.0)
        t[a] = t[:, a] = t[:, :, a] = merged
        # p is exactly symmetric, so [a, a] = (0 + p[a, b] - p[a, b]) / 2 = 0
        p[a] = p[:, a] = 0.5 * (p[a] + p[b] - p[a, b])
        t[b], t[:, b], t[:, :, b] = t[m - 1], t[:, m - 1], t[:, :, m - 1]
        p[b], p[:, b] = p[m - 1], p[:, m - 1]
        nodes[a] = hub
        nodes[b], names[b] = nodes[m - 1], names[m - 1]
        del nodes[m - 1], names[m - 1]

    hub = tree.add_node()
    for node in nodes:
        tree.add_edge(node, hub, 0.0)
    return tree


@dataclass(frozen=True)
class MTreeVerdict:
    ok: bool
    vacuous: bool = False
    witness: tuple | None = None

    def __bool__(self):
        return self.ok


def check_m_tree(delta_m: MDissimilarityMap) -> MTreeVerdict:
    """Whether every induced pairwise map (pinning m-2 taxa) is a tree
    metric, i.e. non-negative, triangle, and four-point.  Needs at least
    m + 2 taxa to be informative; below that the verdict is vacuously
    true and flagged."""
    n, m = delta_m.size, delta_m.m
    if n < m + 2:
        return MTreeVerdict(True, vacuous=True)
    members, vals = _subsets(n, m), delta_m.values
    # every subset once per choice of its two free members, ordered by the
    # pinned rest as ``combinations`` visits it: each slice is one block
    pairs = list(combinations(range(m), 2))
    free = np.concatenate([members[:, pair] for pair in pairs])
    pinned = np.concatenate([np.delete(members, pair, axis=1) for pair in pairs])
    # the pinned positions read as one base-n number
    order = np.argsort(pinned @ n ** np.arange(m - 3, -1, -1), kind="stable")
    free, vals = free[order], np.tile(vals, len(pairs))[order]
    block = (n - m + 2) * (n - m + 1) // 2
    for start, fixed in zip(range(0, len(order), block), combinations(range(n), m - 2)):
        i, j = free[start:start + block].T
        table = np.zeros((n, n))
        table[i, j] = table[j, i] = vals[start:start + block]
        rest = [x for x in range(n) if x not in fixed]
        induced = DissimilarityMap([delta_m.taxa[x] for x in rest], table[np.ix_(rest, rest)])
        for check in (check_metric, check_four_point):
            verdict = check(induced)
            if not verdict:
                pinned_taxa = tuple(delta_m.taxa[x] for x in fixed)
                return MTreeVerdict(False, witness=(pinned_taxa, verdict.violation))
    return MTreeVerdict(True)


# The five 8-term linear relations satisfied exactly by 3-maps of the
# form delta(i,j,k) = (d(i,j) + d(i,k) + d(j,k))/2, taxa numbered 1..6.
_GR36_EQUATIONS = (
    ((123, 145, 246, 356), (124, 135, 236, 456)),
    ((123, 145, 346, 256), (134, 125, 236, 456)),
    ((123, 245, 146, 356), (124, 235, 136, 456)),
    ((123, 345, 246, 156), (234, 135, 126, 456)),
    ((123, 345, 146, 256), (134, 235, 126, 456)),
)
# each code's position among the 20 values, in combinations order
_GR36_RANKS = {int("".join(s)): r for r, s in enumerate(combinations("123456", 3))}


def gr36_residuals(delta3: MDissimilarityMap) -> tuple[float, float, float, float, float]:
    """Left-minus-right of the five linear relations, taxa taken in the
    map's declared order.  All five vanish on tree-derived 3-maps."""
    if delta3.size != 6 or delta3.m != 3:
        raise ValueError("expected a 3-dissimilarity map on six taxa")
    vals = delta3.values.tolist()
    return tuple(
        sum(vals[_GR36_RANKS[c]] for c in lhs) - sum(vals[_GR36_RANKS[c]] for c in rhs)
        for lhs, rhs in _GR36_EQUATIONS
    )


def schroder_count(n: int) -> int:
    """Number of trivalent tree topologies on n labeled leaves: the
    double factorial 1 * 3 * 5 * ... * (2n - 5), exactly."""
    if n < 3:
        raise ValueError("need at least 3 taxa")
    return math.prod(range(1, 2 * n - 4, 2))


# ---------------------------------------------------------------------------
# random trees (test and simulation support)


def random_binary_tree(
    taxa, rng: np.random.Generator, min_length: float = 0.05, max_length: float = 1.0
) -> PhyloTree:
    """Uniform-ish random unrooted binary tree: leaves are attached one
    at a time to a uniformly chosen existing edge, with branch lengths
    drawn uniformly from [min_length, max_length]."""
    names = sorted(taxa)
    if len(names) < 3:
        raise ValueError("need at least 3 taxa")

    def length() -> float:
        return float(rng.uniform(min_length, max_length))

    tree = PhyloTree()
    hub = tree.add_node()
    edges = []  # the (u, v) pairs of tree.edges(), sorted; new ids are the largest
    for name in names[:3]:
        leaf = tree.add_node(label=name)
        tree.add_edge(leaf, hub, length())
        edges.append((hub, leaf))
    for name in names[3:]:
        u, v = edges.pop(int(rng.integers(len(edges))))
        mid = tree.split_edge(u, v, tree.edge_length(u, v) / 2.0)
        leaf = tree.add_node(label=name)
        tree.add_edge(leaf, mid, length())
        insort(edges, (u, mid))
        insort(edges, (v, mid))
        edges.append((mid, leaf))
    return tree
