"""What the inertia pass reads, against a plain reference.

`reference_plan` builds the pass's arrays the slow way, from a tree's
parent links and bottom-up order only, with child lists and dicts, and
imports nothing from `alpha_limit.diagonalize`.  The tree's `layout` and
the matrix's `diag` must give the same tuples and the same float bits on
every tree, both from the layout a `Caterpillar` builds from its pendant
counts and from the generic walk over the same tree."""
from __future__ import annotations

import random
from typing import Optional, Sequence

import pytest

from alpha_limit.shearer import build_shearer
from alpha_limit.trees import (
    RootedTree,
    a_alpha_weights,
    make_caterpillar,
    make_path,
    make_starlike_1nn,
    tree_from_edge_list,
)

ALPHAS = (0.0, 0.37, 0.5, 1.0)


def reference_plan(
    parent: Sequence[Optional[int]], order: Sequence[int], alpha: float
) -> tuple[dict, tuple[int, ...]]:
    """The pass's arrays and the vertex degrees of A_alpha(T).

    The pass lists the vertices that have children, plus the root, in the
    bottom-up order; for each its diagonal entry alpha*deg, the list index
    of its parent (the list's length for the root) and its number of leaf
    children, kept only where nonzero."""
    kids: dict[int, list[int]] = {v: [] for v in range(len(parent))}
    for v, p in enumerate(parent):
        if p is not None:
            kids[p].append(v)
    degree = tuple(len(kids[v]) + (parent[v] is not None) for v in kids)
    inner = [v for v in order if kids[v] or parent[v] is None]
    index = {v: i for i, v in enumerate(inner)}
    index[None] = len(inner)
    leaves = {i: sum(1 for c in kids[v] if not kids[c]) for i, v in enumerate(inner)}
    plan = {
        "diag": tuple(alpha * degree[v] for v in inner),
        "parent": tuple(index[parent[v]] for v in inner),
        "leaf_parents": tuple(i for i, m in leaves.items() if m),
        "leaf_counts": tuple(m for m in leaves.values() if m),
    }
    return plan, degree


def _bits(x):
    if isinstance(x, float):
        return x.hex()
    return tuple(_bits(y) for y in x) if isinstance(x, tuple) else x


def _relabelled_tree(rng: random.Random, n: int) -> RootedTree:
    """A uniform-attachment tree with shuffled labels and a random root."""
    label = list(range(n))
    rng.shuffle(label)
    edges = [(label[v], label[rng.randrange(v)]) for v in range(1, n)]
    return tree_from_edge_list(edges, root=rng.randrange(n))


def _random_trees():
    rng = random.Random(13)
    out = [RootedTree(n=1, parent=(None,), order=(0,))]
    for _ in range(40):
        out.append(_relabelled_tree(rng, rng.randint(2, 60)))
    for _ in range(10):  # child labels below their parents, reversed order
        n = rng.randint(1, 60)
        parent = (None,) + tuple(rng.randrange(v) for v in range(1, n))
        out.append(RootedTree(n=n, parent=parent, order=tuple(range(n - 1, -1, -1))))
    return out


def _trees():
    rng = random.Random(29)
    cases = [("random", t) for t in _random_trees()]
    cases += [("path", make_path(n)) for n in (1, 2, 3, 10, 57)]
    cases += [("star", make_caterpillar((m,))) for m in (0, 1, 2, 9)]
    cases += [("starlike", make_starlike_1nn(n)) for n in (1, 2, 7)]
    for _ in range(8):
        k = rng.randint(2, 12)
        r = (0,) + tuple(rng.randint(0, 4) for _ in range(k - 1))
        cases.append(("caterpillar r_1 = 0", make_caterpillar(r)))
    cases += [("caterpillar k = 1", make_caterpillar((m,))) for m in (3, 40)]
    for a, lam in ((0.1, 2.44), (0.01, 2.06), (0.1873, 2.1181)):
        for k in (1, 2, 17, 200):
            cases.append((f"G_{k} at ({a}, {lam})", make_caterpillar(build_shearer(a, lam, k).r)))
    return cases


def _rebuilt(tree) -> RootedTree:
    """The same tree as a checked `RootedTree`, so that its layout comes
    from the generic walk even for a `Caterpillar`."""
    return RootedTree(tree.n, tree.parent, tree.order)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_compile_matches_reference(alpha):
    for name, built in _trees():
        want, degree = reference_plan(built.parent, built.order, alpha)
        for tree in (built, _rebuilt(built)):
            M = a_alpha_weights(tree, alpha)
            for field, value in want.items():
                got = M.diag if field == "diag" else getattr(tree.layout, field)
                assert _bits(got) == _bits(value), (name, field)
            assert M.alpha == alpha
            assert tree.degree == degree, name
            assert tree.layout.max_degree == max(degree), name


def _caterpillar_counts():
    rng = random.Random(31)
    cases = [(m,) for m in (0, 1, 40)]  # k = 1
    cases += [(0, 0), (0, 3), (2, 0), (1, 1)]  # k = 2
    cases += [(0,) + tuple(rng.randint(0, 4) for _ in range(rng.randint(2, 12))) for _ in range(8)]
    cases += [tuple(rng.choice((0, 0, 1, 5)) for _ in range(rng.randint(1, 30))) for _ in range(30)]
    for a, lam in ((0.1, 2.44), (0.01, 2.06), (0.1873, 2.1181)):
        cases += [build_shearer(a, lam, k).r for k in (1, 2, 17, 200)]
    return cases


@pytest.mark.parametrize("r", _caterpillar_counts())
def test_caterpillar_layout_is_the_generic_layout(r):
    tree = make_caterpillar(r)
    assert tree.layout == _rebuilt(tree).layout
