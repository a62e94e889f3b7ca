"""Rooted tree constructors and A_alpha weightings.

Vertex indices are 0-based internally; all text output (edge lists,
reports) is 1-based.
"""
from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence


@dataclass(frozen=True)
class RootedTree:
    """A tree given by parent links plus a bottom-up processing order.

    `parent[v]` is None exactly for the root.  `order` is a permutation of
    the vertices in which every vertex appears before its parent.
    """

    n: int
    parent: tuple[Optional[int], ...]
    order: tuple[int, ...]

    def __post_init__(self):
        n = self.n
        if n < 1 or len(self.parent) != n or len(self.order) != n:
            raise ValueError("inconsistent tree sizes")
        roots = [v for v in range(n) if self.parent[v] is None]
        if len(roots) != 1:
            raise ValueError(f"expected exactly one root, found {len(roots)}")
        if sorted(self.order) != list(range(n)):
            raise ValueError("order is not a permutation of the vertices")
        pos = {v: i for i, v in enumerate(self.order)}
        for v in range(n):
            p = self.parent[v]
            if p is not None and pos[v] >= pos[p]:
                raise ValueError(f"order is not bottom-up at vertex {v}")

    @property
    def root(self) -> int:
        return self.order[-1]

    @cached_property
    def children(self) -> tuple[tuple[int, ...], ...]:
        kids: list[list[int]] = [[] for _ in range(self.n)]
        for v in range(self.n):
            p = self.parent[v]
            if p is not None:
                kids[p].append(v)
        return tuple(tuple(k) for k in kids)

    @cached_property
    def degree(self) -> tuple[int, ...]:
        return tuple(
            len(self.children[v]) + (0 if self.parent[v] is None else 1)
            for v in range(self.n)
        )

    def edges(self) -> list[tuple[int, int]]:
        """Edges as (child, parent) pairs, 0-based."""
        return [(v, p) for v, p in enumerate(self.parent) if p is not None]

    def edge_list_text(self) -> str:
        """1-based `u v` per line, for external inspection."""
        return "\n".join(f"{v + 1} {p + 1}" for v, p in self.edges())


@dataclass(frozen=True)
class CaterpillarSpec:
    """Pendant counts [r_1, ..., r_k] along a spine path of k vertices."""

    r: tuple[int, ...]

    def __post_init__(self):
        if len(self.r) < 1:
            raise ValueError("need at least one spine vertex")
        if any(ri < 0 for ri in self.r):
            raise ValueError("pendant counts must be non-negative")

    @property
    def k(self) -> int:
        return len(self.r)

    @property
    def n(self) -> int:
        return self.k + sum(self.r)

    def to_json(self) -> str:
        return json.dumps(list(self.r))

    @classmethod
    def from_json(cls, text: str) -> "CaterpillarSpec":
        data = json.loads(text)
        if not isinstance(data, list):
            raise ValueError("expected a JSON array of integers")
        return cls(tuple(int(x) for x in data))


@dataclass(frozen=True)
class WeightedTreeMatrix:
    """Symmetric tree matrix: per-vertex diagonal, per-edge off-diagonal.

    Edge weights are indexed by the child endpoint (the root entry is
    unused and stored as 0.0).  For A_alpha: diag(v) = alpha*deg(v) and
    every edge weight is 1 - alpha; `alpha` records that provenance.
    """

    tree: RootedTree
    diag: tuple[float, ...]
    edge_w: tuple[float, ...]
    alpha: Optional[float] = None

    def __post_init__(self):
        n = self.tree.n
        if len(self.diag) != n or len(self.edge_w) != n:
            raise ValueError("weight arrays must match vertex count")

    @cached_property
    def inertia_plan(self):
        """The matrix compiled for inertia counts (`diagonalize.InertiaPlan`)."""
        from .diagonalize import InertiaPlan

        return InertiaPlan.compile(self)

    def dense(self):
        """Assemble the dense symmetric matrix (numpy array)."""
        import numpy as np

        a = np.zeros((self.tree.n, self.tree.n))
        for v in range(self.tree.n):
            a[v, v] = self.diag[v]
        for v, p in self.tree.edges():
            a[v, p] = a[p, v] = self.edge_w[v]
        return a


def make_caterpillar(spec: CaterpillarSpec) -> RootedTree:
    """Caterpillar with spine v_1..v_k (v_k the root) and r_i pendant
    leaves at v_i.

    Spine vertices take indices 0..k-1; leaves follow, grouped by spine
    vertex.  The bottom-up order lists all leaves first, then the spine
    from v_1 up to v_k, so that diagonalization visits the spine in the
    natural order.
    """
    k = spec.k
    n = spec.n
    parent: list[Optional[int]] = [None] * n
    for i in range(k - 1):
        parent[i] = i + 1
    leaf = k
    leaves = []
    for i, ri in enumerate(spec.r):
        for _ in range(ri):
            parent[leaf] = i
            leaves.append(leaf)
            leaf += 1
    order = tuple(leaves + list(range(k)))
    return RootedTree(n=n, parent=tuple(parent), order=order)


def read_pendant_counts(tree: RootedTree, k: int) -> tuple[int, ...]:
    """Pendant-leaf counts of the first k (spine) vertices; inverse of
    make_caterpillar for trees built by it."""
    counts = []
    for i in range(k):
        counts.append(sum(1 for c in tree.children[i] if c >= k))
    return tuple(counts)


def make_starlike_1nn(n: int) -> RootedTree:
    """Starlike tree T_{1,n,n}: a root with one pendant vertex and two
    pendant paths of length n.  2n + 2 vertices, root degree 3."""
    if n < 1:
        raise ValueError("n must be >= 1")
    size = 2 * n + 2
    parent: list[Optional[int]] = [None] * size
    parent[1] = 0  # the pendant vertex
    # first path: 2..n+1, attached to the root at vertex 2
    parent[2] = 0
    for v in range(3, n + 2):
        parent[v] = v - 1
    # second path: n+2..2n+1
    parent[n + 2] = 0
    for v in range(n + 3, 2 * n + 2):
        parent[v] = v - 1
    order = tuple(
        list(range(n + 1, 1, -1)) + list(range(2 * n + 1, n + 1, -1)) + [1, 0]
    )
    return RootedTree(n=size, parent=tuple(parent), order=order)


def make_path(n: int) -> RootedTree:
    """Path P_n rooted at the last vertex."""
    if n < 1:
        raise ValueError("n must be >= 1")
    parent: list[Optional[int]] = [i + 1 for i in range(n - 1)] + [None]
    return RootedTree(n=n, parent=tuple(parent), order=tuple(range(n)))


def a_alpha_weights(tree: RootedTree, alpha: float) -> WeightedTreeMatrix:
    """A_alpha(G) = alpha*D(G) + (1-alpha)*A(G) as tree weights."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    diag = tuple(alpha * d for d in tree.degree)
    edge_w = tuple(
        0.0 if tree.parent[v] is None else 1.0 - alpha for v in range(tree.n)
    )
    return WeightedTreeMatrix(tree=tree, diag=diag, edge_w=edge_w, alpha=alpha)


def tree_from_edge_list(pairs: Sequence[tuple[int, int]], root: Optional[int] = None) -> RootedTree:
    """Build a RootedTree from 0-based undirected edges.

    The root defaults to the smallest vertex index.  The bottom-up order
    is a reversed breadth-first traversal from the root.
    """
    verts = sorted({u for e in pairs for u in e})
    n = len(verts)
    if verts != list(range(n)):
        raise ValueError("vertices must be 0..n-1")
    if len(pairs) != n - 1:
        raise ValueError("a tree on n vertices needs exactly n-1 edges")
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    r = 0 if root is None else root
    if not 0 <= r < n:
        raise ValueError(f"root must be a vertex 0..{n - 1}, got {root}")
    parent: list[Optional[int]] = [None] * n
    seen = [False] * n
    seen[r] = True
    queue = deque([r])
    bfs = []
    while queue:
        u = queue.popleft()
        bfs.append(u)
        for w in adj[u]:
            if not seen[w]:
                seen[w] = True
                parent[w] = u
                queue.append(w)
    if not all(seen):
        raise ValueError("edge list is not connected")
    return RootedTree(n=n, parent=tuple(parent), order=tuple(reversed(bfs)))
