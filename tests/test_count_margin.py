"""The margin eta of a float inertia count, which lets the radius bisection
skip passes: exact(c + eta) <= count_eigenvalues_greater(M, c) <=
exact(c - eta), with exact() an eigenvalue count in rational arithmetic.

The exact count is written here in stdlib `Fraction`s and shares no code
with the package's kernel."""
from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from alpha_limit.diagonalize import count_eigenvalues_greater, count_margin
from alpha_limit.trees import RootedTree, a_alpha_weights

TREES = 210  # 15 shifts each: 3150 cases


def exact_count_greater(parent: list, alpha: float, c: Fraction) -> int:
    """Eigenvalues of A_alpha(T) above c, from the exact pivots of the
    bottom-up congruence of A_alpha(T) - cI.  Vertex v's parent is below v,
    so v = n-1, ..., 0 is a bottom-up order.  A zero child pivot sets its
    parent to -w^2/2 and itself to 2, and detaches the parent."""
    n = len(parent)
    a = Fraction(alpha)
    w2 = (1 - a) ** 2
    kids = [[] for _ in range(n)]
    for v, p in enumerate(parent):
        if p is not None:
            kids[p].append(v)
    deg = [len(kids[v]) + (parent[v] is not None) for v in range(n)]
    d = [a * deg[v] - c for v in range(n)]
    attached = [True] * n
    for v in reversed(range(n)):
        live = [u for u in kids[v] if attached[u]]
        zero = next((u for u in live if d[u] == 0), None)
        if zero is None:
            d[v] -= sum(w2 / d[u] for u in live)
        else:
            d[v], d[zero] = -w2 / 2, Fraction(2)
            if parent[v] is not None:
                attached[v] = False
    return sum(1 for x in d if x > 0)


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
                lo = exact_count_greater(parent, alpha, Fraction(c) + eta)
                hi = exact_count_greater(parent, alpha, Fraction(c) - eta)
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
    assert [exact_count_greater(p3, 0.0, Fraction(c)) for c in (-2, 0, 1, 2)] == [3, 1, 1, 0]
    star = [None, 0, 0, 0]
    counts = [exact_count_greater(star, 0.5, Fraction(c)) for c in ("-1", "0", "1/2", "3/2")]
    assert counts == [4, 3, 1, 1]


def test_eta_grows_with_the_maximum_degree():
    star = RootedTree(n=6, parent=(None, 0, 0, 0, 0, 0), order=(5, 4, 3, 2, 1, 0))
    path = RootedTree(n=3, parent=(None, 0, 1), order=(2, 1, 0))
    eps = np.finfo(float).eps
    assert count_margin(a_alpha_weights(star, 0.3)) == 1e-12 + 4 * eps * 8**2
    assert count_margin(a_alpha_weights(path, 0.3)) == 1e-12 + 4 * eps * 5**2
