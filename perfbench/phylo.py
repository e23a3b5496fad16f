"""The ``phylo`` workload: tree jobs, none of which touch the semiring DP.

Simulation and the alignment pipeline are numpy work dominated by the
site count; neighbor joining and the four-point and triangle checks are
pure-Python O(n^3) to O(n^5) loops.  The pipeline takes its two kinds of
input, an alignment and a distance matrix, through different code.  One
job in twenty runs a ~1,200-leaf caterpillar through pruning and a
Newick round trip, which exceeds the recursion limit at this version.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re

import numpy as np

import reference as ref
from harness import Job, ReferenceMismatch, Verdict, stratified

# (taxa range, sites range) per size stratum, for simulation and for the
# alignment pipeline; many taxa go with few sites so every stratum costs
# about the same
SHAPES = [((10, 20), (60_000, 100_000)), ((20, 35), (40_000, 60_000)),
          ((35, 50), (25_000, 40_000)), ((50, 60), (20_000, 25_000))]
NJ_TAXA = (100, 200)
FOURPOINT_TAXA = (30, 40)
DEEP_LEAVES = (1150, 1250)
# one round
ROUND = {"simulate": 4, "pipeline_aln": 4, "pipeline_dist": 4, "nj": 3,
         "fourpoint_tree": 2, "fourpoint_perturbed": 2, "deep": 1}

BUNDLED = "src/phylokit/data/vertebrates10.phy"
# the bundled-matrix pipeline at this version; README: pSame ~ 0.00966,
# p42 ~ 4.5e-60
BUNDLED_P_SAME = 0.009660055586240565
BUNDLED_P42 = 4.525472236960356e-60

_LEAF = re.compile(r"[(,]\s*([^(),:;\s]+)")


# ---------------------------------------------------------------------------
# inputs


class Tree:
    """A random unrooted binary tree built by attaching leaves to
    uniformly chosen edges, with the path length between every pair of
    nodes kept up to date as it grows."""

    def __init__(self, rng, n: int, lo: float, hi: float, prefix: str = "t"):
        size = 2 * n - 2
        self.adj: dict[int, dict[int, float]] = {i: {} for i in range(size)}
        self.labels: dict[int, str] = {}
        dist = np.zeros((size, size))
        names = [f"{prefix}{i:03d}" for i in range(n)]
        # a hub (node 0) with the first three leaves
        for leaf in (1, 2, 3):
            self._edge(0, leaf, rng.uniform(lo, hi))
            self.labels[leaf] = names[leaf - 1]
            dist[0, leaf] = dist[leaf, 0] = self.adj[0][leaf]
        for a, b in ((1, 2), (1, 3), (2, 3)):
            dist[a, b] = dist[b, a] = dist[a, 0] + dist[0, b]
        edges = [(0, 1), (0, 2), (0, 3)]
        nxt = 4
        for name in names[3:]:
            k = int(rng.integers(len(edges)))
            u, v = edges[k]
            length = self.adj[u].pop(v)
            del self.adj[v][u]
            a = length * rng.uniform(0.2, 0.8)
            mid, leaf = nxt, nxt + 1
            nxt += 2
            self._edge(u, mid, a)
            self._edge(mid, v, length - a)
            self._edge(mid, leaf, rng.uniform(lo, hi))
            self.labels[leaf] = name
            row = np.minimum(dist[u, :mid] + a, dist[v, :mid] + length - a)
            dist[mid, :mid] = dist[:mid, mid] = row
            dist[leaf, :mid] = dist[:mid, leaf] = row + self.adj[mid][leaf]
            dist[leaf, mid] = dist[mid, leaf] = self.adj[mid][leaf]
            edges[k] = (u, mid)
            edges += [(mid, v), (mid, leaf)]
        self.names = names
        order = sorted(self.labels, key=self.labels.get)
        self.dist = dist[np.ix_(order, order)]  # leaf distances, names order

    def _edge(self, u, v, length):
        self.adj[u][v] = self.adj[v][u] = float(length)

    def phylo(self, pk):
        tree = pk.trees.PhyloTree()
        ids = {x: tree.add_node(label=self.labels.get(x)) for x in self.adj}
        for u, nbrs in self.adj.items():
            for v, length in nbrs.items():
                if u < v:
                    tree.add_edge(ids[u], ids[v], length)
        return tree

    def simulate(self, rng, sites: int) -> dict[str, bytes]:
        """Jukes-Cantor sites evolved down the tree by the benchmark
        itself: on an edge of length b a site is redrawn uniformly with
        probability 1 - exp(-4b/3)."""
        states = {0: rng.integers(0, 4, sites, dtype=np.uint8)}
        stack = [0]
        while stack:
            x = stack.pop()
            for y, b in self.adj[x].items():
                if y in states:
                    continue
                child = states[x].copy()
                hit = rng.random(sites) < 1.0 - math.exp(-4.0 * b / 3.0)
                child[hit] = rng.integers(0, 4, int(hit.sum()), dtype=np.uint8)
                states[y] = child
                stack.append(y)
        letters = np.frombuffer(b"ACGT", dtype=np.uint8)
        return {lab: letters[states[x]].tobytes() for x, lab in self.labels.items()}


def _phylo_adjacency(tree):
    """(adjacency, labels) of a phylokit tree, read through its public
    accessors."""
    adj = {u: dict(tree.neighbors(u)) for u in tree.nodes()}
    labels = {u: tree.label_of(u) for u in tree.leaves()}
    return adj, labels


def _caterpillar(pk, rng, n: int):
    """A caterpillar on n leaves whose spine is added first, so that the
    first internal node, where pruning starts, is at one end; plus the
    same tree as nested Newick text."""
    tree = pk.trees.PhyloTree()
    adj: dict[int, dict[int, float]] = {}
    labels: dict[int, str] = {}

    def edge(u, v, length):
        tree.add_edge(u, v, length)
        adj.setdefault(u, {})[v] = adj.setdefault(v, {})[u] = length

    spine = [tree.add_node() for _ in range(n - 2)]
    for a, b in zip(spine, spine[1:]):
        edge(a, b, float(rng.uniform(0.001, 0.01)))
    names = [f"d{i:04d}" for i in range(n)]
    pendant = rng.uniform(0.001, 0.01, n)
    hosts = [spine[0]] + spine + [spine[-1]]
    for name, host, length in zip(names, hosts, pendant):
        leaf = tree.add_node(label=name)
        labels[leaf] = name
        edge(host, leaf, float(length))
    parts = ["(" * (n - 1), f"{names[0]}:{pendant[0]:.6f},{names[1]}:{pendant[1]:.6f})"]
    for k in range(2, n):
        parts.append(f":0.005000,{names[k]}:{pendant[k]:.6f})")
    return tree, adj, labels, "".join(parts) + ";"


# ---------------------------------------------------------------------------
# jobs


def _capture_cli(api, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = api.cli_main(argv)
    return code, out.getvalue()


def _report_checks(code, text, taxa) -> tuple[Verdict | None, dict | None]:
    if code != 0:
        return Verdict(False, f"exit code {code}"), None
    report = json.loads(text)
    p_same, p_any = report["pSame"], report["pAny"]
    if not 0.0 < p_same <= 1.0 or abs(p_any - 4.0 * p_same) > 1e-12 * p_any:
        return Verdict(False, f"pAny {p_any} != 4 pSame {p_same}"), None
    want = report["motifLength"] * math.log10(p_any)
    if report["motifLength"] != 42 or abs(report["log10P42"] - want) > 1e-9 * abs(want):
        return Verdict(False, f"log10P42 {report['log10P42']} != 42 log10 pAny"), None
    if sorted(_LEAF.findall(report["newick"])) != sorted(taxa):
        return Verdict(False, "Newick output does not name the input taxa"), None
    return None, report


def _simulate_job(pk, tree: Tree, sites: int, seed: int, path) -> Job:
    phylo_tree = tree.phylo(pk)

    def run(api):
        seqs = api.simulate_leaf_sequences(phylo_tree, sites, seed)
        text = api.write_fasta(sorted(seqs.items()))
        path.write_text(text)
        return seqs, text

    def check(out):
        seqs, text = out
        if sorted(seqs) != tree.names:
            return Verdict(False, "simulated taxa differ from the tree's")
        for name, seq in seqs.items():
            codes = np.frombuffer(seq.encode("ascii"), dtype=np.uint8)
            if len(seq) != sites or np.isin(codes, np.frombuffer(b"ACGT", np.uint8), invert=True).any():
                return Verdict(False, f"sequence {name} has the wrong length or letters")
        records = [r.split("\n", 1) for r in text.split(">")[1:]]
        if [(h.strip(), body.replace("\n", "")) for h, body in records] != sorted(seqs.items()):
            return Verdict(False, "FASTA text does not hold the simulated sequences")
        # Jukes-Cantor: the first two taxa differ at 3/4 (1 - e^{-4d/3})
        # of sites, up to six standard errors
        d = tree.dist[0, 1]
        p = 0.75 * (1.0 - math.exp(-4.0 * d / 3.0))
        a = np.frombuffer(seqs[tree.names[0]].encode(), np.uint8)
        b = np.frombuffer(seqs[tree.names[1]].encode(), np.uint8)
        seen = float((a != b).mean())
        if abs(seen - p) > 6.0 * math.sqrt(p * (1.0 - p) / sites) + 1e-9:
            return Verdict(False, f"difference rate {seen:.4f}, expected {p:.4f}")
        return Verdict(True)

    return Job("simulate", "evolution", run, check)


def _pipeline_aln_job(path, taxa: list[str], sites: int) -> Job:
    memo = {}

    def expected():
        if "pairs" not in memo:
            rows = {}
            for block in path.read_bytes().split(b">")[1:]:
                head, body = block.split(b"\n", 1)
                rows[head.decode().strip()] = np.frombuffer(body.replace(b"\n", b""), np.uint8)
            names = sorted(rows)
            mat = np.stack([rows[t] for t in names])
            pairs = {}
            for i, a in enumerate(names):
                diff = (mat[i + 1:] != mat[i]).sum(axis=1)
                for b, k in zip(names[i + 1:], diff.tolist()):
                    pairs[(a, b)] = k
            memo["pairs"] = pairs
        return memo["pairs"]

    def check(out):
        bad, report = _report_checks(*out, taxa)
        if bad:
            return bad
        pairs = expected()
        if len(report["pairwise"]) != len(pairs):
            return Verdict(False, "pairwise table has the wrong number of pairs")
        for row in report["pairwise"]:
            a, b = row["pair"]
            k = pairs.get((a, b), pairs.get((b, a)))
            dist = -0.75 * math.log(1.0 - 4.0 * k / (3.0 * sites))
            if row["n"] != sites or row["k"] != k or abs(row["distance"] - dist) > 1e-12 * max(dist, 1.0):
                return Verdict(False, f"pair {a},{b}: got {row}, expected k={k}, d={dist}")
        return Verdict(True)

    argv = ["pipeline", "--alignment", str(path)]
    return Job("pipeline_aln", "pipeline", lambda api: _capture_cli(api, argv), check)


def _pipeline_dist_job(root, taxa) -> Job:
    argv = ["pipeline", "--distances", str(root / BUNDLED)]

    def check(out):
        bad, report = _report_checks(*out, taxa)
        if bad:
            return bad
        if abs(report["pSame"] - BUNDLED_P_SAME) > 1e-6 * BUNDLED_P_SAME:
            return Verdict(False, f"pSame {report['pSame']} != {BUNDLED_P_SAME}")
        return Verdict(True)

    return Job("pipeline_dist", "pipeline", lambda api: _capture_cli(api, argv), check)


def _nj_job(pk, tree: Tree) -> Job:
    dm = pk.treespace.DissimilarityMap(taxa=tuple(tree.names), values=tree.dist)

    def check(out):
        adj, labels = _phylo_adjacency(out)
        if sorted(labels.values()) != tree.names:
            return Verdict(False, "NJ tree has the wrong taxa")
        got = ref.leaf_distances(adj, labels, tree.names)
        if np.abs(got - tree.dist).max() > 1e-6:
            return Verdict(False, f"NJ tree metric off by {np.abs(got - tree.dist).max():.2e}")
        if ref.nontrivial_splits(adj, labels) != ref.nontrivial_splits(tree.adj, tree.labels):
            return Verdict(False, "NJ splits differ from the source tree's")
        return Verdict(True)

    return Job("nj", "treespace", lambda api: api.neighbor_join(dm), check)


def _fourpoint_job(pk, rng, tree: Tree, perturb: bool) -> Job:
    values = tree.dist.copy()
    n = len(tree.names)
    if perturb:
        i = int(rng.integers(0, n // 2))
        j = int(rng.integers(i + 1, n))
        bump = rng.uniform(0.2, 0.6) * values[i, j]
        values[i, j] += bump
        values[j, i] += bump
    dm = pk.treespace.DissimilarityMap(taxa=tuple(tree.names), values=values)
    memo = {}

    def check(out):
        four, metric = out
        if "want" not in memo:
            memo["want"] = (ref.first_four_point_violation(dm.taxa, dm.values),
                            ref.first_triangle_violation(dm.taxa, dm.values))
        want4, want3 = memo["want"]
        if not perturb and (want4 or want3):
            return Verdict(False, "a tree metric input failed its own reference check")
        got4 = None if four.ok else tuple(four.violation)
        got3 = None if metric.ok else tuple(metric.violation)
        if got4 != want4:
            return Verdict(False, f"four-point witness {got4}, first violation is {want4}")
        if got3 != want3:
            return Verdict(False, f"triangle witness {got3}, first violation is {want3}")
        return Verdict(True)

    return Job("fourpoint", "treespace",
               lambda api: (api.check_four_point(dm), api.check_metric(dm)), check)


def _deep_job(pk, rng, n: int) -> Job:
    tree, adj, labels, text = _caterpillar(pk, rng, n)
    names = sorted(labels.values())

    def run(api):
        # every step runs even when an earlier one fails
        out, errors = {}, []
        for key, step in (("p", lambda: api.all_same_probability(tree)),
                          ("emitted", lambda: api.emit_newick(tree)),
                          ("parsed", lambda: api.parse_newick(text))):
            try:
                out[key] = step()
            except Exception as exc:  # reported by the check
                errors.append(exc)
        return out, errors

    def check(result):
        out, errors = result
        if errors:
            kinds = sorted({type(e).__name__ for e in errors})
            known = "recursion" if kinds == ["RecursionError"] else None
            return Verdict(False, f"{len(errors)} of 3 steps raised {kinds}", known=known)
        p_same, p_any = out["p"]
        want = ref.jc_all_same(adj, labels)
        if abs(p_same - want) > 1e-9 * want or abs(p_any - 4.0 * p_same) > 1e-12 * p_any:
            return Verdict(False, f"pSame {p_same}, expected {want}")
        if sorted(_LEAF.findall(out["emitted"])) != names:
            return Verdict(False, "emitted Newick does not name the taxa")
        if list(out["parsed"].taxa) != names:
            return Verdict(False, "parsed Newick has the wrong taxa")
        return Verdict(True)

    return Job("deep", "evolution", run, check, deep=True)


def make_round(env, rng, index: int) -> list[Job]:
    pk, scale, workdir = env.pk, env.scale, env.workdir
    jobs = []
    bundled_taxa = _bundled_taxa(env.root)
    for s in range(ROUND["simulate"]):
        (tlo, thi), (slo, shi) = SHAPES[s]
        taxa = max(4, round(stratified(tlo, thi, 0, 1) * scale))
        sites = max(200, round(stratified(slo, shi, 0, 1) * scale))
        tree = Tree(rng, taxa, 0.005, 0.1)
        jobs.append(_simulate_job(pk, tree, sites, int(rng.integers(2**31)),
                                  workdir / f"sim-{index}-{s}.fa"))
    for s in range(ROUND["pipeline_aln"]):
        (tlo, thi), (slo, shi) = SHAPES[s]
        taxa = max(4, round(stratified(tlo, thi, 0, 1) * scale))
        sites = max(200, round(stratified(slo, shi, 0, 1) * scale))
        tree = Tree(rng, taxa, 0.005, 0.1)
        path = workdir / f"aln-{index}-{s}.fa"
        seqs = tree.simulate(rng, sites)
        path.write_bytes(b"".join(b">%s\n%s\n" % (k.encode(), v) for k, v in sorted(seqs.items())))
        jobs.append(_pipeline_aln_job(path, tree.names, sites))
    for _ in range(ROUND["pipeline_dist"]):
        jobs.append(_pipeline_dist_job(env.root, bundled_taxa))
    for s in range(ROUND["nj"]):
        n = max(5, round(stratified(*NJ_TAXA, s, ROUND["nj"]) * scale))
        jobs.append(_nj_job(pk, Tree(rng, n, 0.05, 1.0)))
    for kind in ("fourpoint_tree", "fourpoint_perturbed"):
        for s in range(ROUND[kind]):
            n = max(6, round(stratified(*FOURPOINT_TAXA, s, ROUND[kind]) * scale))
            jobs.append(_fourpoint_job(pk, rng, Tree(rng, n, 0.05, 1.0), kind.endswith("perturbed")))
    for _ in range(ROUND["deep"]):
        jobs.append(_deep_job(pk, rng, int(rng.integers(DEEP_LEAVES[0], DEEP_LEAVES[1] + 1))))
    order = rng.permutation(len(jobs))
    return [jobs[i] for i in order]


def _bundled_taxa(root) -> list[str]:
    lines = (root / BUNDLED).read_text().split("\n")[1:]
    return sorted(line.split()[0] for line in lines if line.strip())


def warmup(env, api) -> None:
    pk = env.pk
    rng = np.random.Generator(np.random.Philox(0))
    tree = Tree(rng, 6, 0.05, 0.2)
    t = tree.phylo(pk)
    api.write_fasta(sorted(api.simulate_leaf_sequences(t, 100, 1).items()))
    dm = pk.treespace.DissimilarityMap(taxa=tuple(tree.names), values=tree.dist)
    api.neighbor_join(dm)
    api.check_four_point(dm)
    api.check_metric(dm)
    api.all_same_probability(t)
    api.parse_newick(api.emit_newick(t))
    path = env.workdir / "warmup.fa"
    path.write_bytes(b"".join(b">%s\n%s\n" % (k.encode(), v) for k, v in tree.simulate(rng, 200).items()))
    _capture_cli(api, ["pipeline", "--alignment", str(path)])


def reference_check(api, root) -> None:
    """The README's bundled-matrix pipeline figures."""
    code, text = _capture_cli(api, ["pipeline", "--distances", str(root / BUNDLED)])
    if code != 0:
        raise ReferenceMismatch(f"bundled pipeline exited with {code}")
    report = json.loads(text)
    if abs(report["pSame"] - BUNDLED_P_SAME) > 1e-6 * BUNDLED_P_SAME:
        raise ReferenceMismatch(f"bundled pSame {report['pSame']}, expected {BUNDLED_P_SAME}")
    if abs(report["p42"] - BUNDLED_P42) > 42e-6 * BUNDLED_P42 or f"{report['p42']:.2e}" != "4.53e-60":
        raise ReferenceMismatch(f"bundled p42 {report['p42']}, expected {BUNDLED_P42}")
