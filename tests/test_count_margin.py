"""The margin eta of a float inertia count, which lets the radius bisection
skip passes: exact(c + eta) <= count_eigenvalues_greater(M, c) <=
exact(c - eta), with exact() an eigenvalue count in rational arithmetic.

The exact count is the stdlib `Fraction` reference in
`tests/exact_inertia.py`, which shares no code with the package's kernel."""
from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from alpha_limit.diagonalize import count_eigenvalues_greater, count_margin
from alpha_limit.trees import RootedTree, a_alpha_weights
from exact_inertia import exact_count_greater

TREES = 210  # 15 shifts each: 3150 cases


def _parents(rng: random.Random, i: int) -> list:
    """Random trees, stars and leafy hubs on 3..20 vertices."""
    n = rng.randint(3, 20)
    kind = i % 3
    hubs = n if kind == 0 else 1 if kind == 1 else rng.randint(2, 3)
    return [None] + [rng.randrange(min(v, hubs)) for v in range(1, n)]


def test_float_count_is_an_exact_count_within_eta():
    rng = random.Random(20261018)
    cases = violations = 0
    for i in range(TREES):
        parent = _parents(rng, i)
        n = len(parent)
        alpha = (0.0, 0.5, rng.random())[(i // 3) % 3]
        tree = RootedTree(n=n, parent=tuple(parent), order=tuple(range(n - 1, -1, -1)))
        M = a_alpha_weights(tree, alpha)
        eta = Fraction(count_margin(M))
        for ev in sorted(np.linalg.eigvalsh(M.dense()))[-3:]:
            ev = float(ev)
            for c in (ev, math.nextafter(ev, math.inf), math.nextafter(ev, -math.inf),
                      ev + 5e-13, ev - 5e-13):
                got = count_eigenvalues_greater(M, c)
                lo = exact_count_greater(parent, tree.order, alpha, Fraction(c) + eta)
                hi = exact_count_greater(parent, tree.order, alpha, Fraction(c) - eta)
                cases += 1
                if not lo <= got <= hi:
                    violations += 1
                    print(f"tree {parent} alpha {alpha!r} c {c!r}: {lo} <= {got} <= {hi} fails")
    assert cases >= 3000
    assert violations == 0


def test_exact_count_on_known_spectra():
    # P_3 at alpha = 0 has eigenvalues -sqrt 2, 0, sqrt 2; the star K_{1,3}
    # at alpha = 1/2 is half the signless Laplacian, eigenvalues 0, 1/2, 1/2, 2
    p3 = [None, 0, 1]
    counts = [exact_count_greater(p3, (2, 1, 0), 0.0, c) for c in (-2, 0, 1, 2)]
    assert counts == [3, 1, 1, 0]
    star = [None, 0, 0, 0]
    order = (3, 2, 1, 0)
    counts = [exact_count_greater(star, order, 0.5, c) for c in ("-1", "0", "1/2", "3/2")]
    assert counts == [4, 3, 1, 1]


def test_eta_grows_with_the_maximum_degree():
    star = RootedTree(n=6, parent=(None, 0, 0, 0, 0, 0), order=(5, 4, 3, 2, 1, 0))
    path = RootedTree(n=3, parent=(None, 0, 1), order=(2, 1, 0))
    eps = np.finfo(float).eps
    assert count_margin(a_alpha_weights(star, 0.3)) == 1e-12 + 4 * eps * 8**2
    assert count_margin(a_alpha_weights(path, 0.3)) == 1e-12 + 4 * eps * 5**2
