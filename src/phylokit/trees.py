"""Leaf-labeled trees with branch lengths.

The structure is an undirected adjacency map over integer node ids.
Leaves are exactly the labeled nodes.  Branch lengths are expected
substitutions per site, finite and non-negative.  Degree-2 internal
nodes are tolerated (Newick parsing produces one at a rooted top level);
they subdivide an edge without changing the tree's metric or splits, and
:meth:`PhyloTree.suppress_unifurcations` removes them.
"""

from __future__ import annotations

import math


class PhyloTree:
    def __init__(self):
        self._adj: dict[int, dict[int, float]] = {}
        self._label: dict[int, str] = {}
        self._node_of: dict[str, int] = {}
        self._next_id = 0

    # -- construction -------------------------------------------------

    def add_node(self, label: str | None = None) -> int:
        node = self._next_id
        self._next_id += 1
        self._adj[node] = {}
        if label is not None:
            if label in self._node_of:
                raise ValueError(f"duplicate leaf label {label!r}")
            self._label[node] = label
            self._node_of[label] = node
        return node

    def add_edge(self, u: int, v: int, length: float) -> None:
        if u == v:
            raise ValueError("self edge")
        if not 0 <= length < math.inf:  # also rejects NaN
            raise ValueError(
                f"branch length must be finite and non-negative, got {length}"
            )
        if v in self._adj[u]:
            raise ValueError(f"edge {u}-{v} already present")
        length = float(length) + 0.0  # -0.0 is stored as 0.0
        self._adj[u][v] = length
        self._adj[v][u] = length

    def copy(self) -> "PhyloTree":
        out = PhyloTree()
        out._adj = {u: dict(nbrs) for u, nbrs in self._adj.items()}
        out._label = dict(self._label)
        out._node_of = dict(self._node_of)
        out._next_id = self._next_id
        return out

    # -- queries ------------------------------------------------------

    @property
    def taxa(self) -> tuple[str, ...]:
        return tuple(sorted(self._node_of))

    @property
    def num_nodes(self) -> int:
        return len(self._adj)

    def nodes(self) -> list[int]:
        return sorted(self._adj)

    def leaves(self) -> list[int]:
        return sorted(self._label)

    def is_leaf(self, node: int) -> bool:
        return node in self._label

    def label_of(self, node: int) -> str:
        return self._label[node]

    def node_of(self, label: str) -> int:
        try:
            return self._node_of[label]
        except KeyError:
            raise KeyError(f"no leaf labeled {label!r}") from None

    def neighbors(self, node: int) -> dict[int, float]:
        return dict(self._adj[node])

    def degree(self, node: int) -> int:
        return len(self._adj[node])

    def edges(self) -> list[tuple[int, int, float]]:
        """All edges as (u, v, length) with u < v, sorted."""
        out = []
        for u in sorted(self._adj):
            for v, ln in self._adj[u].items():
                if u < v:
                    out.append((u, v, ln))
        return out

    def edge_length(self, u: int, v: int) -> float:
        return self._adj[u][v]

    def leaves_beyond(self, u: int, v: int) -> frozenset[str]:
        """Labels of leaves reachable from v when the edge u-v is cut."""
        seen = {u, v}
        stack = [v]
        found = []
        while stack:
            x = stack.pop()
            if x in self._label:
                found.append(self._label[x])
            for y in self._adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return frozenset(found)

    def children_from(self, root: int) -> dict[int, list[int]]:
        """Every node's children, keyed in preorder, when the tree hangs from
        ``root``; each list is ordered by the smallest taxon label at or below
        the child ("~" for a child with none; ties keep neighbor order).
        Raises ValueError if the graph is disconnected, has a cycle or has a
        labeled node with more than one neighbor."""
        children: dict[int, list[int]] = {root: []}
        nodes = [root]  # breadth-first, so every child follows its parent
        for node in nodes:
            for c in self._adj[node]:
                if c not in children:
                    children[c] = []
                    children[node].append(c)
                    nodes.append(c)
        n = len(nodes)
        if n != len(self._adj):
            raise ValueError(f"not a tree: disconnected, {n} of {len(self._adj)} nodes")
        if sum(map(len, self._adj.values())) != 2 * n - 2:
            raise ValueError(f"not a tree: a cycle, over {n - 1} edges on {n} nodes")
        for node, label in self._label.items():
            if len(self._adj[node]) > 1:
                raise ValueError(
                    f"not a tree: labeled node {label!r} has {len(self._adj[node])}"
                    " neighbors, but only leaves carry labels"
                )
        smallest = dict(self._label)  # only nodes with a label at or below
        key = lambda c: smallest.get(c, "~")
        for node in reversed(nodes):
            kids = children[node]
            kids.sort(key=key)
            for c in kids:  # sorted, so the first child with a label has the least
                if c in smallest:
                    if node not in smallest or smallest[c] < smallest[node]:
                        smallest[node] = smallest[c]
                    break
        preorder = {}
        stack = [root]
        while stack:
            node = stack.pop()
            preorder[node] = children[node]
            stack.extend(reversed(children[node]))
        return preorder

    # -- transforms ---------------------------------------------------

    def split_edge(self, u: int, v: int, length_from_u: float) -> int:
        """Subdivide the edge u-v, returning the new degree-2 node."""
        total = self._adj[u][v]
        if not 0.0 <= length_from_u <= total:
            raise ValueError("split point outside the edge")
        del self._adj[u][v]
        del self._adj[v][u]
        mid = self.add_node()
        self.add_edge(u, mid, length_from_u)
        self.add_edge(mid, v, total - length_from_u)
        return mid

    def suppress_unifurcations(self) -> "PhyloTree":
        """Copy with every unlabeled degree-2 node replaced by a single
        edge carrying the summed length.  Raises ValueError where that
        edge would join two nodes already joined (a cycle)."""
        out = self.copy()
        for node in list(out._adj):
            if node in out._label or len(out._adj[node]) != 2:
                continue
            (a, la), (b, lb) = out._adj[node].items()
            del out._adj[a][node]
            del out._adj[b][node]
            del out._adj[node]
            if b in out._adj[a]:  # a parallel edge: the graph has a cycle
                raise ValueError(f"not a tree: a cycle through node {node}")
            out._adj[a][b] = la + lb
            out._adj[b][a] = la + lb
        return out

    def __repr__(self):
        return f"PhyloTree(taxa={list(self.taxa)!r}, nodes={self.num_nodes})"
