"""Congruence diagonalization, inertia counting, bisection and the dense
eigenvalue oracle."""
from __future__ import annotations

import json
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from alpha_limit.diagonalize import (
    count_eigenvalues_greater,
    dense_spectrum_oracle,
    diagonalize,
    spectral_radius,
)
from alpha_limit.shearer import build_shearer
from alpha_limit.trees import (
    CaterpillarSpec,
    RootedTree,
    WeightedTreeMatrix,
    a_alpha_weights,
    make_caterpillar,
    make_path,
)


def _random_tree(rng: random.Random, n: int) -> RootedTree:
    parent = [None] + [rng.randrange(v) for v in range(1, n)]
    return RootedTree(n=n, parent=tuple(parent), order=tuple(range(n - 1, -1, -1)))


def test_p2_zero_branch():
    res = diagonalize(a_alpha_weights(make_path(2), 0.0), 0.0)
    # leaf pivot 0 fires the zero branch: parent takes -1/2, leaf takes 2
    assert res.d == (2.0, -0.5)
    assert (res.n_pos, res.n_neg, res.n_zero) == (1, 1, 0)
    assert res.removed_edges == ()


def test_p3_zero_eigenvalue():
    res = diagonalize(a_alpha_weights(make_path(3), 0.0), 0.0)
    assert (res.n_pos, res.n_neg, res.n_zero) == (1, 1, 1)


def test_diag_result_json():
    res = diagonalize(a_alpha_weights(make_path(2), 0.0), 0.0)
    data = json.loads(res.to_json())
    assert data["d"] == [2.0, -0.5]
    assert data["n_pos"] == 1 and data["n_neg"] == 1 and data["n_zero"] == 0


def test_count_eigenvalues_greater_small_cases():
    p2 = a_alpha_weights(make_path(2), 0.0)
    assert count_eigenvalues_greater(p2, 0.0) == 1
    p3 = a_alpha_weights(make_path(3), 0.0)
    assert count_eigenvalues_greater(p3, 1.5) == 0
    assert count_eigenvalues_greater(p3, 1.0) == 1
    assert count_eigenvalues_greater(p3, -2.0) == 3


def test_count_matches_oracle_random():
    rng = random.Random(11)
    for _ in range(50):
        tree = _random_tree(rng, 10)
        M = a_alpha_weights(tree, rng.random())
        c = rng.uniform(-3.0, 3.0)
        spec = dense_spectrum_oracle(M)
        assert count_eigenvalues_greater(M, c) == sum(1 for ev in spec if ev > c)


def test_sylvester_consistency_200_random_trees():
    rng = random.Random(20240817)
    for _ in range(200):
        n = rng.randint(2, 12)
        tree = _random_tree(rng, n)
        M = a_alpha_weights(tree, rng.random())
        c = rng.uniform(-4.0, 4.0)
        res = diagonalize(M, -c)
        spec = dense_spectrum_oracle(M)
        pos = sum(1 for ev in spec if ev > c + 1e-8)
        neg = sum(1 for ev in spec if ev < c - 1e-8)
        assert (res.n_pos, res.n_neg, res.n_zero) == (pos, neg, n - pos - neg)


def test_inertia_permutation_invariance():
    # relabeling the vertices (hence reordering children) must not change
    # the inertia counts
    rng = random.Random(5)
    tree = make_caterpillar(CaterpillarSpec((3, 0, 2, 1)))
    base = a_alpha_weights(tree, 0.3)
    for _ in range(10):
        perm = list(range(tree.n))
        rng.shuffle(perm)
        inv = [0] * tree.n
        for i, v in enumerate(perm):
            inv[v] = i
        parent = [None] * tree.n
        for v, p in tree.edges():
            parent[inv[v]] = inv[p]
        order = tuple(inv[v] for v in tree.order)
        relabeled = RootedTree(n=tree.n, parent=tuple(parent), order=order)
        M = a_alpha_weights(relabeled, 0.3)
        for c in (-1.0, 0.0, 0.5, 2.0):
            r1 = diagonalize(base, -c)
            r2 = diagonalize(M, -c)
            assert (r1.n_pos, r1.n_neg, r1.n_zero) == (r2.n_pos, r2.n_neg, r2.n_zero)


def test_spectral_radius_simple_values():
    assert spectral_radius(
        a_alpha_weights(make_path(2), 0.0), 1e-12
    ).value == pytest.approx(1.0, abs=1e-11)
    star = make_caterpillar(CaterpillarSpec((4,)))
    assert spectral_radius(a_alpha_weights(star, 0.0), 1e-12).value == pytest.approx(
        2.0, abs=1e-11
    )


def test_spectral_radius_bracket_contract():
    res = spectral_radius(a_alpha_weights(make_path(10), 0.2), 1e-10)
    assert res.lower <= res.value <= res.upper
    assert res.upper - res.lower <= 1e-10
    assert res.iterations > 0


def test_spectral_radius_errors():
    with pytest.raises(ValueError):
        spectral_radius(a_alpha_weights(make_path(3), 0.0), 0.0)
    with pytest.raises(ValueError):
        spectral_radius(a_alpha_weights(make_path(1), 0.0), 1e-10)


def test_spectral_radius_bounds_hold_on_random_trees():
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randint(3, 14)
        tree = _random_tree(rng, n)
        a = rng.random()
        delta = max(tree.degree)
        res = spectral_radius(a_alpha_weights(tree, a), 1e-10)
        lower = 0.5 * (
            a * (delta + 1)
            + math.sqrt(a * a * (delta + 1) ** 2 + 4 * delta * (1 - 2 * a))
        )
        assert res.value >= lower - 1e-8
        assert res.value <= delta + 1e-8


def test_subgraph_monotonicity_nested_caterpillars():
    r = (3, 1, 2, 0, 1, 2, 1)
    prev = None
    for k in range(2, len(r) + 1):
        tree = make_caterpillar(CaterpillarSpec(r[:k]))
        rho = spectral_radius(a_alpha_weights(tree, 0.2), 1e-11).value
        if prev is not None:
            assert rho > prev
        prev = rho


def test_alpha_monotonicity():
    rng = random.Random(31)
    for _ in range(10):
        tree = _random_tree(rng, rng.randint(4, 12))
        a = rng.uniform(0.0, 0.8)
        b = rng.uniform(a + 0.1, 1.0)
        ra = spectral_radius(a_alpha_weights(tree, a), 1e-11).value
        rb = spectral_radius(a_alpha_weights(tree, b), 1e-11).value
        assert ra < rb + 1e-9


def test_oracle_small_exact_spectra():
    spec = dense_spectrum_oracle(a_alpha_weights(make_path(2), 0.0))
    assert spec == pytest.approx([-1.0, 1.0], abs=1e-12)
    spec = dense_spectrum_oracle(a_alpha_weights(make_path(3), 0.0))
    assert spec == pytest.approx([-math.sqrt(2), 0.0, math.sqrt(2)], abs=1e-12)


def test_oracle_half_alpha_p3():
    # A_{1/2}(P_3) is half the signless Laplacian of P_3, whose spectrum
    # {0, 1, 3} follows from det(Q - xI) = (1-x)·x·(x-3)
    spec = dense_spectrum_oracle(a_alpha_weights(make_path(3), 0.5))
    assert spec == pytest.approx([0.0, 0.5, 1.5], abs=1e-12)


def test_oracle_size_limit():
    with pytest.raises(ValueError):
        dense_spectrum_oracle(a_alpha_weights(make_path(65), 0.0))


def test_diagonalize_does_not_mutate_input():
    M = a_alpha_weights(make_path(4), 0.0)
    before = (M.tree.parent, M.diag, M.edge_w)
    diagonalize(M, 0.0)  # hits the zero branch on P_4 at eigenvalue shifts
    diagonalize(M, -1.0)
    assert (M.tree.parent, M.diag, M.edge_w) == before


# Shifts that sit exactly (or to rounding) on eigenvalues of integer-weighted
# subtrees: 0 on any tree with an odd part, +-1 on P_2, +-sqrt 2 on P_3.
EXACT_SHIFTS = [0.0, 1.0, -1.0, math.sqrt(2.0), -math.sqrt(2.0)]

# Eigenvalues closer than this to the shift are left to the reference count;
# eigvalsh is accurate to about n * eps * |M|, far below it for n <= 500.
EIG_BAND = 1e-8


@st.composite
def tree_matrices(draw):
    """A random tree on up to 500 vertices, A_alpha or generally weighted.

    `hubs` bounds the vertices a new vertex may attach to, so small values
    give bushy trees whose hubs carry many leaves; general weights draw
    leaf diagonals and edge weights from small integer-like sets, so the
    leaves under one parent fall into several groups."""
    n = draw(st.integers(1, 500))
    hubs = draw(st.integers(1, n))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    parent = [None] + [rng.randrange(min(v, hubs)) for v in range(1, n)]
    tree = RootedTree(n=n, parent=tuple(parent), order=tuple(range(n - 1, -1, -1)))
    if draw(st.booleans()):
        alpha = draw(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 1.0))
        return a_alpha_weights(tree, alpha)
    diag = tuple(rng.choice([0.0, 0.0, 1.0, -1.0, 0.5]) for _ in range(n))
    edge_w = tuple(
        0.0 if p is None else rng.choice([1.0, 1.0, 2.0, -1.0, 0.5]) for p in parent
    )
    return WeightedTreeMatrix(tree=tree, diag=diag, edge_w=edge_w)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(M=tree_matrices(), shifts=st.lists(st.floats(-4.0, 4.0), max_size=3))
def test_count_matches_reference_and_eigvalsh(M, shifts):
    ev = np.linalg.eigvalsh(M.dense())
    for c in EXACT_SHIFTS + shifts:
        count = count_eigenvalues_greater(M, c)
        assert count == diagonalize(M, -c).n_pos
        assert np.sum(ev > c + EIG_BAND) <= count <= np.sum(ev > c - EIG_BAND)


def test_count_with_two_zero_pivot_leaf_groups():
    # hub 1 under the root 0 carries two leaf groups that differ only in
    # their edge weight (2, 3: weight 1; 4, 5, 6: weight 2); at c = 0 both
    # groups have zero pivots, so the hub takes the zero branch once and is
    # detached from the root, which also has a zero-pivot leaf of its own
    parent = (None, 0, 1, 1, 1, 1, 1, 0)
    tree = RootedTree(n=8, parent=parent, order=(2, 3, 4, 5, 6, 1, 7, 0))
    M = WeightedTreeMatrix(
        tree=tree,
        diag=(1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
        edge_w=(0.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 1.0),
    )
    assert len(M.inertia_plan.leaf_groups) == 2
    ref = diagonalize(M, 0.0)
    assert ref.removed_edges == ((1, 0),)
    ev = np.linalg.eigvalsh(M.dense())
    assert count_eigenvalues_greater(M, 0.0) == ref.n_pos == np.sum(ev > EIG_BAND)


@pytest.mark.parametrize("alpha, lam", [(0.1, 2.44), (0.01, 2.06)])
def test_spectral_radius_matches_reference_bisection(alpha, lam, monkeypatch):
    seq = build_shearer(alpha, lam, 100)
    tree = make_caterpillar(seq.caterpillar_spec())
    planned = spectral_radius(a_alpha_weights(tree, alpha), 1e-12)
    monkeypatch.setattr(
        sys.modules["alpha_limit.diagonalize"],
        "count_eigenvalues_greater",
        lambda M, c: diagonalize(M, -c).n_pos,
    )
    reference = spectral_radius(a_alpha_weights(tree, alpha), 1e-12)
    assert (planned.lower, planned.upper, planned.iterations) == (
        reference.lower,
        reference.upper,
        reference.iterations,
    )
