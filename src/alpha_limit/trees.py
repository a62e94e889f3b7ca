"""Rooted tree constructors and A_alpha weightings.

Vertex indices are 0-based; the CLI's edge-list files are 1-based.
`RootedTree`, `Caterpillar` and `WeightedTreeMatrix` are read-only named
tuples: they unpack, and compare and hash by value, like plain tuples of
their fields.  A `Caterpillar` is a tree held as its pendant counts: its
fields are r and n, not parent links and an order, so it never equals a
`RootedTree`, but it reads like one (`parent`, `order`, `degree`,
`edges()`, `layout`) and every weighting and count takes either.
"""
from __future__ import annotations

import operator
from functools import cached_property
from itertools import chain, compress, repeat
from typing import NamedTuple, Optional, Sequence, Union


class TreeLayout(NamedTuple):
    """The alpha-free part of the inertia pass: the vertices with children,
    plus the root, bottom-up with their degrees and parent indices (the
    root's is the list's length), the leaf counts, and the maximum degree
    Delta, the largest listed degree (every vertex not listed is a leaf)."""

    degree: tuple[int, ...]
    parent: tuple[int, ...]
    leaf_parents: tuple[int, ...]
    leaf_counts: tuple[int, ...]
    max_degree: int


def _read_only(self, name, value):
    raise AttributeError(f"cannot set {name!r} of a {type(self).__name__}")


class RootedTree(
    NamedTuple(
        "RootedTree",
        [("n", int), ("parent", tuple[Optional[int], ...]), ("order", tuple[int, ...])],
    )
):
    """A tree given by parent links plus a bottom-up processing order.

    `parent[v]` is None exactly for the root.  `order` is a permutation of
    the vertices in which every vertex appears before its parent.
    """
    __setattr__ = _read_only

    def __new__(cls, n: int, parent: tuple[Optional[int], ...], order: tuple[int, ...]):
        if n < 1 or len(parent) != n or len(order) != n:
            raise ValueError("inconsistent tree sizes")
        roots = parent.count(None)
        if roots != 1:
            raise ValueError(f"expected exactly one root, found {roots}")
        root = parent.index(None)
        links = parent[:root] + parent[root + 1 :]
        if links and (min(links) < 0 or max(links) >= n):
            raise ValueError("parent links must be vertices 0..n-1")
        if len(set(order)) != n or min(order) != 0 or max(order) != n - 1:
            raise ValueError("order is not a permutation of the vertices")
        seen = [False] * n
        for v in order:
            seen[v] = True
            p = parent[v]
            if p is not None and seen[p]:
                raise ValueError(f"order is not bottom-up at vertex {v}")
        return super().__new__(cls, n, parent, order)

    @property
    def root(self) -> int:
        return self.order[-1]

    @cached_property
    def child_count(self) -> tuple[int, ...]:
        count = [0] * self.n
        for p in self.parent:
            if p is not None:
                count[p] += 1
        return tuple(count)

    @cached_property
    def degree(self) -> tuple[int, ...]:
        count, parent = self.child_count, self.parent
        return tuple([c + (p is not None) for c, p in zip(count, parent)])

    @cached_property
    def layout(self) -> TreeLayout:
        """The tree laid out for inertia counts, in one linear walk."""
        count, up = self.child_count, self.parent
        inner = [v for v in self.order[:-1] if count[v]] + [self.root]
        index = [0] * self.n
        for i, v in enumerate(inner):
            index[v] = i
        parent = [index[up[v]] for v in inner[:-1]] + [len(inner)]
        degree = [count[v] + 1 for v in inner]  # children and parent
        degree[-1] -= 1  # the root has no parent
        leaves = [count[v] for v in inner]  # children that are not inner
        for p in parent[:-1]:
            leaves[p] -= 1
        return _layout(tuple(degree), tuple(parent), leaves)

    def edges(self) -> list[tuple[int, int]]:
        """Edges as (child, parent) pairs, 0-based."""
        return [(v, p) for v, p in enumerate(self.parent) if p is not None]


class Caterpillar(NamedTuple("Caterpillar", [("r", tuple[int, ...]), ("n", int)])):
    """The tree `make_caterpillar(r)` builds, held as its pendant counts r
    and vertex count n.  Its `layout` comes from r in O(k); its parent
    links, order and the `RootedTree` fields derived from them are built
    on first use, so the inertia pass never builds a tuple of n entries.
    """

    @cached_property
    def parent(self) -> tuple[Optional[int], ...]:
        r, k = self.r, len(self.r)
        return tuple(range(1, k)) + (None,) + tuple(chain.from_iterable(map(repeat, range(k), r)))

    @cached_property
    def order(self) -> tuple[int, ...]:
        k = len(self.r)
        return tuple(range(k, self.n)) + tuple(range(k))

    @cached_property
    def layout(self) -> TreeLayout:
        """`RootedTree.layout` of this tree, in O(k) from r.

        The layout lists the spine v_1..v_k, except a bare v_1 (r_1 = 0,
        k > 1), which is then a leaf of v_2.  v_i has degree r_i + 2 less
        one at either end of the spine, and each listed vertex's parent is
        the next.
        """
        r = self.r
        degree = [ri + 2 for ri in r]
        degree[0] -= 1
        degree[-1] -= 1
        leaves = list(r)
        if len(r) > 1 and r[0] == 0:
            del degree[0], leaves[0]
            leaves[0] += 1
        return _layout(tuple(degree), tuple(range(1, len(degree) + 1)), leaves)

    root = RootedTree.root
    child_count = RootedTree.child_count
    degree = RootedTree.degree
    edges = RootedTree.edges
    __setattr__ = _read_only


Tree = Union[RootedTree, Caterpillar]


class WeightedTreeMatrix(
    NamedTuple("WeightedTreeMatrix", [("tree", Tree), ("alpha", float)])
):
    """A_alpha(T) = alpha*D(T) + (1-alpha)*A(T) of a rooted tree T."""
    __setattr__ = _read_only

    def __new__(cls, tree: Tree, alpha: float):
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        return super().__new__(cls, tree, alpha)

    @cached_property
    def diag(self) -> tuple[float, ...]:
        """The diagonal entries alpha*deg of the tree's `layout`, in its order."""
        alpha = self.alpha
        return tuple([alpha * g for g in self.tree.layout.degree])

    def dense(self) -> list[list[float]]:
        """The dense symmetric matrix as n rows of n floats, alpha*deg on
        the diagonal and 1 - alpha on each edge (`numpy.asarray` takes it)."""
        alpha, degree = self.alpha, self.tree.degree
        a = [[0.0] * v + [alpha * g] + [0.0] * (len(degree) - 1 - v) for v, g in enumerate(degree)]
        for v, p in self.tree.edges():
            a[v][p] = a[p][v] = 1.0 - alpha
        return a


def make_caterpillar(r: Sequence[int]) -> Caterpillar:
    """Caterpillar with spine v_1..v_k (v_k the root) and r_i pendant
    leaves at v_i, for the pendant counts r = [r_1, ..., r_k].

    Spine vertices take indices 0..k-1; leaves follow, grouped by spine
    vertex.  The bottom-up order lists all leaves first, then the spine
    from v_1 up to v_k, so that the inertia pass visits the spine in the
    natural order.  The record holds r and n only: the layout is O(k),
    and the O(n) parent links and order are built only when read.
    """
    if len(r) < 1:
        raise ValueError("need at least one spine vertex")
    try:  # a float count makes the sum a float, which is no index
        leaves = operator.index(sum(r))
    except TypeError:
        leaves = -1
    if leaves < 0 or min(r) < 0:
        raise ValueError("pendant counts must be non-negative integers")
    r = tuple(r)
    return Caterpillar(r, len(r) + leaves)


def _layout(degree: tuple[int, ...], parent: tuple[int, ...], leaves: list[int]) -> TreeLayout:
    """A `TreeLayout` from its degrees, parents and a leaf count per vertex."""
    leaf_parents = tuple(compress(range(len(leaves)), leaves))
    return TreeLayout(degree, parent, leaf_parents, tuple(filter(None, leaves)), max(degree))


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


def a_alpha_weights(tree: Tree, alpha: float) -> WeightedTreeMatrix:
    """A_alpha(G) = alpha*D(G) + (1-alpha)*A(G) of a tree."""
    return WeightedTreeMatrix(tree, alpha)


def tree_from_edge_list(pairs: Sequence[tuple[int, int]], root: Optional[int] = None) -> RootedTree:
    """Build a RootedTree from 0-based undirected edges.

    The root defaults to the smallest vertex index.  The bottom-up order
    is a reversed breadth-first traversal from the root.
    """
    labels = {u for e in pairs for u in e}
    n = len(labels)
    if labels != set(range(n)):
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
    bfs = [r]
    for u in bfs:  # the list grows as the search reaches new vertices
        for w in adj[u]:
            if not seen[w]:
                seen[w] = True
                parent[w] = u
                bfs.append(w)
    if len(bfs) < n:
        raise ValueError("edge list is not connected")
    return RootedTree(n=n, parent=tuple(parent), order=tuple(reversed(bfs)))
