"""Tree constructors, A_alpha weightings and their structural invariants."""
from __future__ import annotations

import math
import random

import pytest

from alpha_limit.diagonalize import dense_spectrum_oracle, spectral_radius
from alpha_limit.trees import (
    RootedTree,
    WeightedTreeMatrix,
    a_alpha_weights,
    make_caterpillar,
    make_path,
    make_starlike_1nn,
    tree_from_edge_list,
)


def _assert_bottom_up(tree: RootedTree):
    pos = {v: i for i, v in enumerate(tree.order)}
    for v in range(tree.n):
        p = tree.parent[v]
        if p is not None:
            assert pos[v] < pos[p]


def _assert_degree_sum(tree: RootedTree):
    assert sum(tree.degree) == 2 * (tree.n - 1)


def _pendant_counts(tree: RootedTree, k: int) -> tuple[int, ...]:
    """Leaf children of each of the k spine vertices."""
    return tuple(sum(1 for p in tree.parent[k:] if p == i) for i in range(k))


def test_caterpillar_single_leaf_is_path_2():
    tree = make_caterpillar((1,))
    assert tree.n == 2
    assert tree.degree == (1, 1)
    _assert_bottom_up(tree)


def test_caterpillar_4_0_1():
    tree = make_caterpillar((4, 0, 1))
    assert tree.n == 8
    # spine degrees: v_1 has 4 leaves + 1 spine edge, v_2 two spine edges,
    # v_3 one spine edge + 1 leaf
    assert tree.degree[:3] == (5, 2, 2)
    assert _pendant_counts(tree, 3) == (4, 0, 1)
    _assert_degree_sum(tree)
    _assert_bottom_up(tree)


def test_caterpillar_round_trip_random():
    rng = random.Random(7)
    for _ in range(50):
        k = rng.randint(1, 12)
        r = tuple(rng.randint(0, 5) for _ in range(k))
        tree = make_caterpillar(r)
        assert _pendant_counts(tree, k) == r
        _assert_degree_sum(tree)
        _assert_bottom_up(tree)


def test_caterpillar_validation():
    with pytest.raises(ValueError, match="at least one spine vertex"):
        make_caterpillar(())
    with pytest.raises(ValueError, match="non-negative"):
        make_caterpillar((1, -1))


def test_starlike_small_shapes():
    t1 = make_starlike_1nn(1)
    assert t1.n == 4
    assert sorted(t1.degree) == [1, 1, 1, 3]
    t2 = make_starlike_1nn(2)
    assert t2.n == 6
    assert t2.degree[0] == 3
    assert sorted(t2.degree).count(2) == 2
    for t in (t1, t2):
        _assert_degree_sum(t)
        _assert_bottom_up(t)
    with pytest.raises(ValueError):
        make_starlike_1nn(0)


def test_starlike_n5_radius_below_small_limit():
    tree = make_starlike_1nn(5)
    assert tree.n == 12
    spec = dense_spectrum_oracle(a_alpha_weights(tree, 0.0))
    assert spec[-1] < math.sqrt(2.0 + math.sqrt(5.0))


def test_a_alpha_weights_adjacency_and_degree_cases():
    tree = make_caterpillar((2, 1))
    m0 = a_alpha_weights(tree, 0.0).dense()
    assert all(m0[v, v] == 0.0 for v in range(tree.n))
    assert all(m0[v, p] == 1.0 for v, p in tree.edges())

    p3 = make_path(3)
    m1 = a_alpha_weights(p3, 1.0).dense()
    assert m1.tolist() == [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 1.0]]


def test_a_alpha_weights_starlike_122():
    tree = make_starlike_1nn(2)
    m = a_alpha_weights(tree, 0.1)
    a = m.dense()
    # root degree 3, path-interior degree 2, leaves degree 1
    assert a[0, 0] == pytest.approx(0.3)
    assert a[2, 2] == pytest.approx(0.2)
    assert a[1, 1] == pytest.approx(0.1)
    assert all(a[v, p] == pytest.approx(0.9) for v, p in tree.edges())
    assert m.alpha == 0.1


def test_a_alpha_weights_domain_error():
    tree = make_path(3)
    with pytest.raises(ValueError):
        a_alpha_weights(tree, -0.01)
    with pytest.raises(ValueError):
        a_alpha_weights(tree, 1.01)
    for alpha in (1.5, math.nan):
        with pytest.raises(ValueError, match=r"alpha must lie in \[0, 1\]"):
            WeightedTreeMatrix(tree, alpha)


def test_rooted_tree_validation():
    with pytest.raises(ValueError, match="inconsistent tree sizes"):
        RootedTree(n=3, parent=(1, None), order=(0, 1))
    with pytest.raises(ValueError, match="expected exactly one root, found 2"):
        RootedTree(n=2, parent=(None, None), order=(0, 1))
    with pytest.raises(ValueError, match="order is not a permutation"):
        RootedTree(n=2, parent=(1, None), order=(0, 0))
    with pytest.raises(ValueError, match="order is not bottom-up at vertex 0"):
        RootedTree(n=2, parent=(1, None), order=(1, 0))
    with pytest.raises(ValueError, match="order is not bottom-up at vertex 0"):
        RootedTree(n=2, parent=(0, None), order=(0, 1))  # a link to itself
    for link in (-1, 2):
        with pytest.raises(ValueError, match=r"parent links must be vertices 0\.\.n-1"):
            RootedTree(n=2, parent=(link, None), order=(0, 1))


def test_tree_records_are_read_only_values():
    tree = RootedTree(n=3, parent=(1, 2, None), order=(0, 1, 2))
    assert tree == make_path(3) and hash(tree) == hash(make_path(3))
    M = a_alpha_weights(tree, 0.25)
    assert M == WeightedTreeMatrix(tree=make_path(3), alpha=0.25)
    with pytest.raises(AttributeError):
        tree.parent = (None, 0, 1)
    with pytest.raises(AttributeError):
        M.alpha = 0.5
    assert tree.degree is tree.degree and tree.child_count is tree.child_count
    assert M.diag is M.diag


def test_tree_from_edge_list_round_trip():
    tree = make_caterpillar((2, 0, 3))
    rebuilt = tree_from_edge_list(tree.edges(), root=tree.root)
    assert rebuilt.n == tree.n
    assert sorted(rebuilt.degree) == sorted(tree.degree)
    _assert_bottom_up(rebuilt)


def test_tree_from_edge_list_errors():
    with pytest.raises(ValueError, match="needs exactly n-1 edges"):
        tree_from_edge_list([(0, 1), (2, 3)])  # disconnected, too few edges
    with pytest.raises(ValueError, match="needs exactly n-1 edges"):
        tree_from_edge_list([(0, 1), (1, 2), (2, 0)])  # cycle, too many edges
    with pytest.raises(ValueError, match=r"vertices must be 0\.\.n-1"):
        tree_from_edge_list([(1, 2)])  # no vertex 0
    with pytest.raises(ValueError, match="edge list is not connected"):
        tree_from_edge_list([(0, 1), (2, 2)])  # a loop in place of a tree edge


@pytest.mark.parametrize("root", [3, 5, -1])
def test_tree_from_edge_list_rejects_root_outside_vertices(root):
    with pytest.raises(ValueError, match="root must be a vertex 0..2"):
        tree_from_edge_list([(0, 1), (1, 2)], root=root)


def test_weighted_matrix_dense_is_symmetric():
    tree = make_caterpillar((3, 1, 2))
    m = a_alpha_weights(tree, 0.25).dense()
    assert (m == m.T).all()
    assert m.shape == (tree.n, tree.n)


def test_path_and_star_radii():
    # K_{1,4} as a one-vertex-spine caterpillar: rho = sqrt(4) = 2 at alpha 0
    star = make_caterpillar((4,))
    res = spectral_radius(a_alpha_weights(star, 0.0), 1e-12)
    assert res.value == pytest.approx(2.0, abs=1e-11)
