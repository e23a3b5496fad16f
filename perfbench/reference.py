"""Independent reference computations used by the output checks.

Everything here is written against the published definitions, not
against phylokit's code: numpy dynamic programs over anti-diagonals for
the pair HMM, a numpy max-plus/forward pass for HMMs, and iterative tree
walks.  Nothing here is timed; it runs only in the checks.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

NUC = "ACGT"
_NUC_CODE = np.full(256, -1, dtype=np.int64)
for _i, _c in enumerate(NUC):
    _NUC_CODE[ord(_c)] = _i

# log of the smallest positive double (5e-324)
LOG_TINY = math.log(5e-324)


def encode(seq: str) -> np.ndarray:
    return _NUC_CODE[np.frombuffer(seq.encode("ascii"), dtype=np.uint8)]


# ---------------------------------------------------------------------------
# pair HMM


def pair_dp(trans, emit_match, emit_insert, emit_delete, s1: str, s2: str):
    """(log total weight, max log monomial) of a pair HMM over all
    alignments of s1 and s2.  The first alignment column carries no
    transition factor.  Cells are visited one anti-diagonal at a time,
    each diagonal stored as a vector indexed by the row i."""
    with np.errstate(divide="ignore"):
        lt = np.log(np.asarray(trans, dtype=float))
        lm = np.log(np.asarray(emit_match, dtype=float))
        li = np.log(np.asarray(emit_insert, dtype=float))
        ld = np.log(np.asarray(emit_delete, dtype=float))
    a, b = encode(s1), encode(s2)
    n, m = len(a), len(b)
    out = []
    for combine in (np.logaddexp, np.maximum):
        # per diagonal d: vectors over i = 0..n for states M, I, D;
        # the start cell (0, 0) enters every state with weight 1
        ninf = np.full(n + 1, -np.inf)
        prev2 = prev1 = None
        start = np.zeros(3)
        for d in range(1, n + m + 1):
            cur = [ninf.copy(), ninf.copy(), ninf.copy()]
            lo, hi = max(0, d - m), min(n, d)
            i = np.arange(lo, hi + 1)
            j = d - i

            def enter(src, k, rows):
                """Best/total weight entering state k at the given rows
                from the source diagonal's cells at the same rows."""
                vals = [src[s][rows] + lt[s, k] for s in range(3)]
                return combine(combine(vals[0], vals[1]), vals[2])

            # match: from (i-1, j-1) on diagonal d-2
            sel = (i >= 1) & (j >= 1)
            ii, jj = i[sel], j[sel]
            if ii.size:
                e = lm[a[ii - 1], b[jj - 1]]
                if d == 2:
                    cur[0][ii] = e + start[0]
                else:
                    cur[0][ii] = e + enter(prev2, 0, ii - 1)
            # insert: from (i, j-1) on diagonal d-1
            sel = j >= 1
            ii, jj = i[sel], j[sel]
            if ii.size:
                e = li[b[jj - 1]]
                if d == 1:
                    cur[1][ii] = e + start[1]
                else:
                    cur[1][ii] = e + enter(prev1, 1, ii)
            # delete: from (i-1, j) on diagonal d-1
            sel = i >= 1
            ii, jj = i[sel], j[sel]
            if ii.size:
                e = ld[a[ii - 1]]
                if d == 1:
                    cur[2][ii] = e + start[2]
                else:
                    cur[2][ii] = e + enter(prev1, 2, ii - 1)
            prev2, prev1 = prev1, cur
        final = [prev1[s][n] for s in range(3)]
        out.append(float(combine(combine(final[0], final[1]), final[2])))
    return out[0], out[1]


def log_monomial(trans, emit_match, emit_insert, emit_delete, word, s1, s2) -> float:
    """Log of one alignment word's monomial, summed in log space so it
    does not underflow on long alignments."""
    with np.errstate(divide="ignore"):
        lt = np.log(np.asarray(trans, dtype=float))
        lm = np.log(np.asarray(emit_match, dtype=float))
        li = np.log(np.asarray(emit_insert, dtype=float))
        ld = np.log(np.asarray(emit_delete, dtype=float))
    a, b = encode(s1), encode(s2)
    w = np.frombuffer(word.encode("ascii"), dtype=np.uint8)
    st = np.where(w == ord("M"), 0, np.where(w == ord("I"), 1, 2))
    i = np.cumsum(st != 1)  # letters of s1 consumed after each column
    j = np.cumsum(st != 2)
    emit = np.where(
        st == 0,
        lm[a[np.maximum(i - 1, 0)], b[np.maximum(j - 1, 0)]],
        np.where(st == 1, li[b[np.maximum(j - 1, 0)]], ld[a[np.maximum(i - 1, 0)]]),
    )
    return float(emit.sum() + lt[st[:-1], st[1:]].sum())


def word_counts(word: str, s1: str, s2: str) -> tuple[int, int, int] | None:
    """(matches, mismatches, indels) of an alignment word, or None when
    the word is not an alignment of the two sequences."""
    if set(word) - set("MID"):
        return None
    nm, ni, nd = word.count("M"), word.count("I"), word.count("D")
    if nm + nd != len(s1) or nm + ni != len(s2):
        return None
    a, b = encode(s1), encode(s2)
    w = np.frombuffer(word.encode("ascii"), dtype=np.uint8)
    st = w == ord("M")
    i = np.cumsum(w != ord("I"))[st] - 1
    j = np.cumsum(w != ord("D"))[st] - 1
    mism = int((a[i] != b[j]).sum())
    return nm - mism, mism, ni + nd


def best_basic_score(mismatch: float, gap: float, s1: str, s2: str) -> float:
    """Optimal +1 / -mismatch / -gap global alignment score
    (Needleman-Wunsch), one anti-diagonal at a time."""
    a, b = encode(s1), encode(s2)
    n, m = len(a), len(b)
    sub = np.where(a[:, None] == b[None, :], 1.0, -mismatch)
    prev2 = np.full(n + 1, -np.inf)
    prev2[0] = 0.0  # diagonal 0: the empty prefix pair
    prev1 = np.full(n + 1, -np.inf)
    prev1[0] = prev1[1] = -gap  # diagonal 1 (n, m >= 1)
    for d in range(2, n + m + 1):
        cur = np.full(n + 1, -np.inf)
        i = np.arange(max(0, d - m), min(n, d) + 1)
        j = d - i
        best = np.full(i.size, -np.inf)
        sel = (i >= 1) & (j >= 1)
        best[sel] = prev2[i[sel] - 1] + sub[i[sel] - 1, j[sel] - 1]
        sel = j >= 1
        best[sel] = np.maximum(best[sel], prev1[i[sel]] - gap)
        sel = i >= 1
        best[sel] = np.maximum(best[sel], prev1[i[sel] - 1] - gap)
        cur[i] = best
        prev2, prev1 = prev1, cur
    return float(prev1[n])


def log_delannoy(n: int, m: int) -> float:
    """log of the number of alignments, sum_k C(n,k) C(m,k) 2^k."""
    return math.log(sum(math.comb(n, k) * math.comb(m, k) * 2**k for k in range(min(n, m) + 1)))


def min_period(seq: str, limit: int = 4) -> int | None:
    """Smallest period p <= limit of the whole string, else None."""
    for p in range(1, limit + 1):
        if len(seq) > p and seq[p:] == seq[:-p]:
            return p
    return None


# ---------------------------------------------------------------------------
# hidden Markov models


def hmm_viterbi_forward(trans, emit, init, obs) -> tuple[float, float]:
    """(best log path term, log probability of the observation)."""
    with np.errstate(divide="ignore"):
        lt, le, l0 = np.log(trans), np.log(emit), np.log(init)
    obs = np.asarray(obs)
    v = l0 + le[:, obs[0]]
    alpha = init * emit[:, obs[0]]
    log_p = 0.0
    for t in range(len(obs)):
        if t:
            v = (v[:, None] + lt).max(axis=0) + le[:, obs[t]]
            alpha = (alpha @ trans) * emit[:, obs[t]]
        s = alpha.sum()
        log_p += math.log(s)
        alpha = alpha / s
    return float(v.max()), log_p


def hmm_path_log_term(trans, emit, init, obs, path_idx) -> float:
    with np.errstate(divide="ignore"):
        lt, le, l0 = np.log(trans), np.log(emit), np.log(init)
    p = np.asarray(path_idx)
    obs = np.asarray(obs)
    return float(l0[p[0]] + le[p, obs].sum() + lt[p[:-1], p[1:]].sum())


# ---------------------------------------------------------------------------
# trees given as adjacency maps {node: {neighbor: length}} with leaf labels


def leaf_distances(adj, labels, taxa) -> np.ndarray:
    """Leaf-to-leaf path lengths in the given taxon order (iterative)."""
    node_of = {lab: node for node, lab in labels.items()}
    index = {node_of[t]: k for k, t in enumerate(taxa)}
    out = np.zeros((len(taxa), len(taxa)))
    for t in taxa:
        src = node_of[t]
        dist = {src: 0.0}
        stack = [src]
        while stack:
            x = stack.pop()
            for y, ln in adj[x].items():
                if y not in dist:
                    dist[y] = dist[x] + ln
                    stack.append(y)
        for node, k in index.items():
            out[index[src], k] = dist[node]
    return out


def nontrivial_splits(adj, labels) -> set[frozenset]:
    """Nontrivial leaf bipartitions, each given by the side without the
    alphabetically first taxon.  Zero-length edges still count."""
    taxa = sorted(labels.values())
    first = taxa[0]
    node_of = {lab: node for node, lab in labels.items()}
    root = node_of[first]
    parent = {root: None}
    order = [root]
    stack = [root]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in parent:
                parent[y] = x
                order.append(y)
                stack.append(y)
    below: dict[int, frozenset] = {}
    for x in reversed(order):
        own = {labels[x]} if x in labels and x != root else set()
        kids = [below[y] for y in adj[x] if parent.get(y) == x]
        below[x] = frozenset(own.union(*kids)) if kids else frozenset(own)
    n = len(taxa)
    return {s for x, s in below.items() if x != root and 1 < len(s) < n - 1}


def first_triangle_violation(taxa, values):
    """Lexicographically first (x, y, z) over sorted taxa, y != x,
    z != y, with d(x,z) > d(x,y) + d(y,z) + 1e-15; None if none."""
    order = np.argsort(np.array(taxa, dtype=object))
    d = values[np.ix_(order, order)]
    n = len(taxa)
    viol = d[:, None, :] > (d[:, :, None] + d[None, :, :]) + 1e-15
    idx = np.arange(n)
    viol[idx, idx, :] = False  # y == x
    viol[:, idx, idx] = False  # z == y
    hits = np.argwhere(viol)
    if hits.size == 0:
        return None
    x, y, z = hits[0]
    names = [taxa[k] for k in order]
    return names[x], names[y], names[z]


def first_four_point_violation(taxa, values, slack=1e-9):
    """Lexicographically first quartet of sorted taxa whose two largest
    pair sums differ by more than ``slack``; None if none."""
    order = np.argsort(np.array(taxa, dtype=object))
    d = values[np.ix_(order, order)]
    n = len(taxa)
    if n < 4:
        return None
    q = np.array(list(combinations(range(n), 4)))
    a, b, c, e = q.T
    sums = np.sort(np.stack([d[a, b] + d[c, e], d[a, c] + d[b, e], d[a, e] + d[b, c]]), axis=0)
    bad = np.flatnonzero(sums[2] - sums[1] > slack)
    if bad.size == 0:
        return None
    names = [taxa[k] for k in order]
    return tuple(names[k] for k in q[bad[0]])


def quartet_rank(n: int, quartet) -> int:
    """0-based position of a sorted index quartet in lexicographic
    combination order."""
    rank, prev = 0, -1
    for pos, c in enumerate(quartet):
        for v in range(prev + 1, c):
            rank += math.comb(n - 1 - v, 3 - pos)
        prev = c
    return rank


def jc_all_same(adj, labels) -> float:
    """Probability that every leaf shows A under Jukes-Cantor with a
    uniform root, by iterative post-order pruning."""
    root = next(iter(adj))
    parent = {root: None}
    order = [root]
    stack = [root]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in parent:
                parent[y] = x
                order.append(y)
                stack.append(y)
    like: dict[int, np.ndarray] = {}
    for x in reversed(order):
        vec = np.zeros(4) if x in labels else np.ones(4)
        if x in labels:
            vec[0] = 1.0
        for y, ln in adj[x].items():
            if parent.get(y) == x:
                pi = 0.25 * (1.0 - math.exp(-4.0 * ln / 3.0))
                mat = np.full((4, 4), pi)
                np.fill_diagonal(mat, 1.0 - 3.0 * pi)
                vec = vec * (mat @ like.pop(y))
        like[x] = vec
    return float(np.full(4, 0.25) @ like[root])
