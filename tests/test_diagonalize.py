"""Inertia counting, bisection and the dense eigenvalue oracle.

The float counts are checked against LAPACK and against the exact
`Fraction` pivots of `tests/exact_inertia.py`."""
from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from alpha_limit.diagonalize import (
    count_eigenvalues_greater,
    count_margin,
    dense_spectrum_oracle,
    spectral_radius,
)
from alpha_limit.shearer import build_shearer, classify_regime
from alpha_limit.trees import (
    RootedTree,
    a_alpha_weights,
    make_caterpillar,
    make_path,
)
from exact_inertia import exact_count_greater, exact_pivots


def _random_tree(rng: random.Random, n: int) -> RootedTree:
    parent = [None] + [rng.randrange(v) for v in range(1, n)]
    return RootedTree(n=n, parent=tuple(parent), order=tuple(range(n - 1, -1, -1)))


def _inertia(pivots) -> tuple[int, int, int]:
    pos = sum(1 for d in pivots if d > 0)
    neg = sum(1 for d in pivots if d < 0)
    return pos, neg, len(pivots) - pos - neg


def test_p2_zero_branch():
    tree = make_path(2)
    # leaf pivot 0 fires the zero branch: parent takes -1/2, leaf takes 2
    assert exact_pivots(tree.parent, tree.order, 0.0, 0) == [2, Fraction(-1, 2)]
    assert count_eigenvalues_greater(a_alpha_weights(tree, 0.0), 0.0) == 1


def test_p3_zero_eigenvalue():
    tree = make_path(3)
    assert _inertia(exact_pivots(tree.parent, tree.order, 0.0, 0)) == (1, 1, 1)
    assert count_eigenvalues_greater(a_alpha_weights(tree, 0.0), 0.0) == 1


def test_count_eigenvalues_greater_small_cases():
    p2 = a_alpha_weights(make_path(2), 0.0)
    assert count_eigenvalues_greater(p2, 0.0) == 1
    # the eigenvalue 1 lies 4e-13 above the shift, inside the pivmin band
    assert count_eigenvalues_greater(p2, 1 - 4e-13) == 1
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
        exact = _inertia(exact_pivots(tree.parent, tree.order, M.alpha, c))
        spec = dense_spectrum_oracle(M)
        pos = sum(1 for ev in spec if ev > c + 1e-8)
        neg = sum(1 for ev in spec if ev < c - 1e-8)
        assert exact == (pos, neg, n - pos - neg)
        assert count_eigenvalues_greater(M, c) == pos


def test_inertia_permutation_invariance():
    # relabeling the vertices (hence reordering children) must not change
    # the inertia counts
    rng = random.Random(5)
    tree = make_caterpillar((3, 0, 2, 1))
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
            assert count_eigenvalues_greater(M, c) == count_eigenvalues_greater(base, c)


def test_spectral_radius_simple_values():
    assert spectral_radius(
        a_alpha_weights(make_path(2), 0.0), 1e-12
    ).value == pytest.approx(1.0, abs=1e-11)
    star = make_caterpillar((4,))
    assert spectral_radius(a_alpha_weights(star, 0.0), 1e-12).value == pytest.approx(
        2.0, abs=1e-11
    )
    # rho(A_alpha(P_2)) = 1 for every alpha; just below 1 the leaf pivot
    # alpha - c lies in the pivmin band near the radius
    res = spectral_radius(a_alpha_weights(make_path(2), 0.9999999999999999), 1e-12)
    assert res.lower < 1.0 <= res.upper


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


@pytest.mark.parametrize("tol", [math.nan, math.inf])
def test_spectral_radius_rejects_non_finite_tol(tol):
    with pytest.raises(ValueError, match="tol must be a positive finite number"):
        spectral_radius(a_alpha_weights(make_path(3), 0.3), tol)


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
        tree = make_caterpillar(r[:k])
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


# Shifts that sit exactly (or to rounding) on eigenvalues of integer-weighted
# subtrees: 0 on any tree with an odd part, +-1 on P_2, +-sqrt 2 on P_3.
EXACT_SHIFTS = [0.0, 1.0, -1.0, math.sqrt(2.0), -math.sqrt(2.0)]

# Eigenvalues closer than this to the shift are left to the exact count;
# eigvalsh is accurate to about n * eps * |M|, far below it for n <= 500.
EIG_BAND = 1e-8

# Largest tree the Hypothesis test checks against the exact count, which
# grows much faster than linearly in n.
EXACT_MAX_N = 60


@st.composite
def tree_matrices(draw):
    """A_alpha of a random tree on up to 500 vertices.

    `hubs` bounds the vertices a new vertex may attach to, so small values
    give bushy trees whose hubs carry many leaves.  alpha = 0 and 1/2 give
    exact zero pivots at the shifts in EXACT_SHIFTS."""
    n = draw(st.integers(1, 500))
    hubs = draw(st.integers(1, n))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    parent = [None] + [rng.randrange(min(v, hubs)) for v in range(1, n)]
    tree = RootedTree(n=n, parent=tuple(parent), order=tuple(range(n - 1, -1, -1)))
    alpha = draw(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 1.0))
    return a_alpha_weights(tree, alpha)


def _within_margin(M, c: float, count: int) -> bool:
    """exact(c + eta) <= count <= exact(c - eta), eta = count_margin(M)."""
    tree, eta = M.tree, Fraction(count_margin(M))
    lo = exact_count_greater(tree.parent, tree.order, M.alpha, Fraction(c) + eta)
    hi = exact_count_greater(tree.parent, tree.order, M.alpha, Fraction(c) - eta)
    return lo <= count <= hi


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(M=tree_matrices(), shifts=st.lists(st.floats(-4.0, 4.0), max_size=3))
def test_count_matches_reference_and_eigvalsh(M, shifts):
    ev = np.linalg.eigvalsh(M.dense())
    for c in EXACT_SHIFTS + shifts:
        count = count_eigenvalues_greater(M, c)
        if M.tree.n <= EXACT_MAX_N:
            assert _within_margin(M, c, count)
        assert np.sum(ev > c + EIG_BAND) <= count <= np.sum(ev > c - EIG_BAND)


def test_count_with_zero_pivot_leaves_under_hub_and_root():
    # A_0: hub 1 under the root 0 carries leaves 2..6, and the root has a
    # leaf 7 of its own.  At c = 0 every leaf pivot is zero, so the hub
    # takes the zero branch and is detached from the root, which then
    # takes the zero branch through its own leaf
    parent = (None, 0, 1, 1, 1, 1, 1, 0)
    tree = RootedTree(n=8, parent=parent, order=(2, 3, 4, 5, 6, 1, 7, 0))
    M = a_alpha_weights(tree, 0.0)
    plan = M.inertia_plan
    assert (plan.leaf_parents, plan.leaf_counts) == ((0, 1), (5, 1))
    half = Fraction(-1, 2)
    assert exact_pivots(parent, tree.order, 0.0, 0) == [half, half, 2, 0, 0, 0, 0, 2]
    ev = np.linalg.eigvalsh(M.dense())
    assert count_eigenvalues_greater(M, 0.0) == 2 == np.sum(ev > EIG_BAND)
    for m in (1, 2, 3):
        assert count_eigenvalues_greater(M, 0.0, at_most=m) == min(2, m)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(M=tree_matrices(), shifts=st.lists(st.floats(-4.0, 4.0), max_size=3))
def test_capped_count_is_the_full_count_capped(M, shifts):
    plan = M.inertia_plan
    for c in EXACT_SHIFTS + shifts:
        full = plan.count_greater(c)
        for m in (1, 2, 3):
            assert plan.count_greater(c, at_most=m) == min(full, m)


def test_capped_count_on_p4_at_eigenvalue_shifts():
    # inner pivots of P_4 hit zero at the shifts +-1, mid-pass
    M = a_alpha_weights(make_path(4), 0.0)
    golden = (1 + math.sqrt(5.0)) / 2
    for c in EXACT_SHIFTS + [golden, golden - 1, -golden, 1 - golden]:
        full = count_eigenvalues_greater(M, c)
        assert _within_margin(M, c, full)
        for m in (1, 2, 3):
            assert count_eigenvalues_greater(M, c, at_most=m) == min(full, m)


# Shifts on eigenvalues of many small trees at alpha = 0 and 1/2.
SHARP_SHIFTS = (0.0, 0.5, -0.5, 1.0, -1.0, 1.5, 2.0)


def test_count_is_exact_at_eigenvalue_shifts():
    # the margin bracket cannot see an off-by-one in the pivmin band at an
    # eigenvalue; the exact count at the eigenvalue itself can
    rng = random.Random(1212)
    on_eigenvalue = 0
    for i in range(200):
        n = rng.randint(2, 40)
        hubs = (n, 1, rng.randint(2, 4))[i % 3]  # random trees, stars, leafy hubs
        parent = [None] + [rng.randrange(min(v, hubs)) for v in range(1, n)]
        tree = RootedTree(n=n, parent=tuple(parent), order=tuple(range(n - 1, -1, -1)))
        for alpha in (0.0, 0.5):
            M = a_alpha_weights(tree, alpha)
            for c in SHARP_SHIFTS:
                pivots = exact_pivots(parent, tree.order, alpha, c)
                on_eigenvalue += 0 in pivots
                exact = _inertia(pivots)[0]
                assert count_eigenvalues_greater(M, c) == exact
                # caps hit in the leaf stage and the main loop
                for m in range(exact + 2):
                    assert M.inertia_plan.count_greater(c, at_most=m) == min(exact, m)
    assert on_eigenvalue >= 500


def test_count_at_alpha_1_is_the_diagonal_count():
    # A_1(T) = D(T): the eigenvalues are the degrees, and every integer
    # shift sits on one of them
    rng = random.Random(1313)
    trees = [make_caterpillar((m,)) for m in (1, 2, 5)] + [make_path(n) for n in (2, 3, 7)]
    for _ in range(40):
        n = rng.randint(2, 40)
        hubs = rng.choice([n, 2])  # random trees and leafy two-hub trees
        parent = [None] + [rng.randrange(min(v, hubs)) for v in range(1, n)]
        trees.append(
            RootedTree(n=n, parent=tuple(parent), order=tuple(range(n - 1, -1, -1)))
        )
    for tree in trees:
        M = a_alpha_weights(tree, 1.0)
        delta = max(tree.degree)
        for j in range(-1, delta + 2):
            for c in (j - 1e-13, float(j), j + 1e-13):
                above = sum(1 for d in tree.degree if d > c)
                assert count_eigenvalues_greater(M, c) == above
                assert exact_count_greater(tree.parent, tree.order, 1, c) == above
                for m in (0, 1, 2):
                    assert count_eigenvalues_greater(M, c, at_most=m) == min(above, m)
        for hint in (None, float(delta)):
            res = spectral_radius(M, 1e-12, above=hint)
            assert res.lower < delta <= res.upper


def _plain_bisection(M, tol):
    """(lower, upper, iterations) of the bisection with one full count per
    step: the initial bracket of `spectral_radius`, no hint and no cap."""
    a, delta = M.alpha, max(M.tree.degree)
    lo = 0.5 * (
        a * (delta + 1) + math.sqrt(a * a * (delta + 1) ** 2 + 4 * delta * (1 - 2 * a))
    )
    lo -= 1e-9
    hi = delta + 1e-9
    iters = 0
    while hi - lo > tol and iters < 200:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if count_eigenvalues_greater(M, mid) >= 1:
            lo = mid
        else:
            hi = mid
        iters += 1
    return lo, hi, iters


def _replayed(M, above):
    res = spectral_radius(M, 1e-12, above=above)
    return res.lower, res.upper, res.iterations


# Ladders in both certified regimes, the two worked examples among them.
LADDER_POINTS = [(0.1, 2.44), (0.25, 3.6), (0.01, 2.06), (0.1, 2.2)]
LADDER = (4, 16, 64, 100, 256, 1024, 2000)

# A point where the float count at lambda itself is 1 for G_226.
SEED_912_POINT = (0.08963834194503933, 2.1651554605367416)


@pytest.mark.parametrize("alpha, lam", LADDER_POINTS)
def test_hinted_radius_replays_the_plain_bisection_on_ladders(alpha, lam):
    assert classify_regime(alpha, lam) is not None
    seqs = [build_shearer(alpha, lam, k) for k in LADDER]
    for seq in seqs:
        M = a_alpha_weights(make_caterpillar(seq.r), alpha)
        assert _replayed(M, lam) == _plain_bisection(M, 1e-12)


@pytest.mark.parametrize("k", [226, 452, 904])
def test_hinted_radius_replays_the_plain_bisection_at_seed_912_point(k):
    alpha, lam = SEED_912_POINT
    M = a_alpha_weights(make_caterpillar(build_shearer(alpha, lam, k).r), alpha)
    assert _replayed(M, lam) == _plain_bisection(M, 1e-12)


def test_wrong_hints_change_nothing():
    rng = random.Random(41)
    for _ in range(60):
        tree = _random_tree(rng, rng.randint(2, 40))
        M = a_alpha_weights(tree, rng.choice([0.0, 0.5, rng.random()]))
        plain = _plain_bisection(M, 1e-12)
        rho = 0.5 * (plain[0] + plain[1])
        eta = count_margin(M)
        delta = max(tree.degree)
        # hints within a few eta of the radius put it between the probes
        hints = [rho + j * eta / 2 for j in range(-9, 10)] + [
            rho - 0.1, rho - 1e-13, rho + 1e-13, delta - 1e-9, delta + 5.0,
            -1.0, 1e6, math.inf, math.nan,
        ]
        for above in hints:
            assert _replayed(M, above) == plain


def test_passes_count_the_inertia_passes():
    rng = random.Random(43)
    for _ in range(10):
        M = a_alpha_weights(_random_tree(rng, rng.randint(2, 30)), rng.random())
        res = spectral_radius(M, 1e-12)
        assert res.passes == res.iterations
    M = a_alpha_weights(make_caterpillar(build_shearer(0.1, 2.44, 400).r), 0.1)
    res = spectral_radius(M, 1e-12, above=2.44)
    assert res.passes <= 25 < res.iterations
    # a wrong hint costs at most the two probes; outside the initial
    # bracket it is not probed
    for above in (2.43, 2.5, 4.0):
        res = spectral_radius(M, 1e-12, above=above)
        assert res.passes <= res.iterations + 2
    res = spectral_radius(M, 1e-12, above=2.0)
    assert res.passes == res.iterations
