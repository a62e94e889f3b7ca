"""Rooted tree constructors and A_alpha weightings.

Vertex indices are 0-based; the CLI's edge-list files are 1-based.
"""
from __future__ import annotations

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


@dataclass(frozen=True)
class WeightedTreeMatrix:
    """A_alpha(T) = alpha*D(T) + (1-alpha)*A(T) of a rooted tree T."""

    tree: RootedTree
    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")

    @cached_property
    def inertia_plan(self):
        """The matrix compiled for inertia counts (`diagonalize.InertiaPlan`)."""
        from .diagonalize import InertiaPlan

        return InertiaPlan.compile(self)

    def dense(self):
        """Assemble the dense symmetric matrix (numpy array)."""
        import numpy as np

        a = np.diag(self.alpha * np.array(self.tree.degree, dtype=float))
        for v, p in self.tree.edges():
            a[v, p] = a[p, v] = 1.0 - self.alpha
        return a


def make_caterpillar(r: Sequence[int]) -> RootedTree:
    """Caterpillar with spine v_1..v_k (v_k the root) and r_i pendant
    leaves at v_i, for the pendant counts r = [r_1, ..., r_k].

    Spine vertices take indices 0..k-1; leaves follow, grouped by spine
    vertex.  The bottom-up order lists all leaves first, then the spine
    from v_1 up to v_k, so that diagonalization visits the spine in the
    natural order.
    """
    k = len(r)
    if k < 1:
        raise ValueError("need at least one spine vertex")
    if any(ri < 0 for ri in r):
        raise ValueError("pendant counts must be non-negative")
    n = k + sum(r)
    parent: list[Optional[int]] = [None] * n
    for i in range(k - 1):
        parent[i] = i + 1
    leaf = k
    leaves = []
    for i, ri in enumerate(r):
        for _ in range(ri):
            parent[leaf] = i
            leaves.append(leaf)
            leaf += 1
    order = tuple(leaves + list(range(k)))
    return RootedTree(n=n, parent=tuple(parent), order=order)


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
    """A_alpha(G) = alpha*D(G) + (1-alpha)*A(G) of a tree."""
    return WeightedTreeMatrix(tree, alpha)


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
