"""Shared test helpers: independent geometry oracles and random-model
generators used across the suite."""

from __future__ import annotations

import logging
import re
from itertools import combinations

import numpy as np
import pytest

from phylokit.trees import PhyloTree
from phylokit.treespace import MDissimilarityMap, random_binary_tree


def rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))


def block_lengths(caplog) -> list[int]:
    """Block length of every log chain fold that ``caplog`` recorded since
    its last clear, in order; clears it.  Each record must be at DEBUG."""
    records = [r for r in caplog.records if r.name == "phylokit.semirings"]
    caplog.clear()
    assert all(r.levelno == logging.DEBUG for r in records)
    return [int(re.search(r"block length (\d+)$", r.getMessage()).group(1)) for r in records]


# ---------------------------------------------------------------------------
# gift-wrapping convex hull: an independent check of the package's
# monotone-chain hull


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def gift_wrap_hull(points) -> tuple:
    """Jarvis-march hull, counter-clockwise from the lexicographically
    smallest vertex, collinear points dropped."""
    pts = sorted({(int(x), int(y)) for x, y in points})
    if len(pts) <= 2:
        return tuple(pts)
    start = pts[0]
    hull = [start]
    cur = start
    while True:
        cand = None
        for p in pts:
            if p == cur:
                continue
            if cand is None:
                cand = p
                continue
            turn = _cross(cur, cand, p)
            far = (p[0] - cur[0]) ** 2 + (p[1] - cur[1]) ** 2 > (
                cand[0] - cur[0]
            ) ** 2 + (cand[1] - cur[1]) ** 2
            if turn < 0 or (turn == 0 and far):
                cand = p
        if cand == start:
            break
        hull.append(cand)
        cur = cand
        if len(hull) > len(pts):  # pragma: no cover - guards a broken oracle
            raise AssertionError("gift wrapping failed to close")
    return tuple(hull)


def random_tree(seed: int, n: int, min_length=0.05, max_length=1.0):
    taxa = [f"t{i:02d}" for i in range(n)]
    return random_binary_tree(taxa, rng(seed), min_length, max_length)


def caterpillar(n: int, seed: int, lengths=(0.001, 0.01)) -> PhyloTree:
    """Caterpillar on n leaves c00000, c00001, ...: a path of n - 2
    internal nodes, built first so that node 0 is one end of it, with
    the first two leaves on that end, the last two on the other and one
    leaf on each node between.  Branch lengths are drawn uniformly from
    ``lengths``, by default [0.001, 0.01]."""
    g = rng(seed)
    tree = PhyloTree()
    spine = [tree.add_node() for _ in range(n - 2)]
    for a, b in zip(spine, spine[1:]):
        tree.add_edge(a, b, float(g.uniform(*lengths)))
    hosts = [spine[0]] + spine + [spine[-1]]
    for i, host in enumerate(hosts):
        tree.add_edge(host, tree.add_node(label=f"c{i:05d}"), float(g.uniform(*lengths)))
    return tree

def keyed_m_map(taxa, m: int, values: dict) -> MDissimilarityMap:
    """The m-map on ``taxa`` whose value on each m-subset is
    ``values[frozenset(subset)]``; keys naming no m-subset are ignored."""
    taxa = tuple(taxa)
    return MDissimilarityMap(taxa, m, [values[frozenset(s)] for s in combinations(taxa, m)])


def m_map_dict(md: MDissimilarityMap) -> dict:
    """frozenset subset -> value of an m-map, in ``combinations`` order."""
    return dict(zip(map(frozenset, combinations(md.taxa, md.m)), md.values.tolist()))


@pytest.fixture
def fixed_rng():
    return rng(20240901)


def pytest_runtest_logreport(report):
    # one visible line per acceptance criterion, independent of -s
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    digits = "".join(c for c in name.partition("_criterion_")[2] if c.isdigit())
    if report.passed:
        import test_acceptance

        detail = test_acceptance.MESSAGES.get(int(digits or 0), name)
        print(f"\nACCEPTANCE {digits or '?'}: PASS - {detail}")
    elif report.failed:
        print(f"\nACCEPTANCE {digits or '?'}: FAIL - {name}")
