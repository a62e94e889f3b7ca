"""Golden radii on general trees, bit for bit.

For each tree and alpha the file `tests/golden/spectral_radius_bits.json`
pins the bracket of `spectral_radius(M, 1e-12)` (floats as `float.hex`)
with its iterations and inertia passes, the uncapped count at three fixed
shifts, and the estimate and passes of one `laguerre_descent` started at
the upper end of the bracket that `spectral_radius` starts from.  The
trees are relabelled uniform-attachment trees with random roots, paths,
stars, T_{1,n,n}, a double broom and Shearer caterpillars, so most of
them are not caterpillars and the generic layout walk builds their pass.
A change that means to alter these values regenerates the file with
`PYTHONPATH=src python tests/test_spectral_radius_bits.py` and says why.
"""
from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from alpha_limit.diagonalize import (
    _initial_bracket,
    count_eigenvalues_greater,
    laguerre_descent,
    spectral_radius,
)
from alpha_limit.shearer import build_shearer
from alpha_limit.trees import (
    RootedTree,
    a_alpha_weights,
    make_caterpillar,
    make_path,
    make_starlike_1nn,
    tree_from_edge_list,
)

GOLDEN = Path(__file__).parent / "golden" / "spectral_radius_bits.json"

ALPHAS = (0.0, 0.5, 1.0, random.Random(2207).random())
SHIFTS = (-1.0, 0.5, 2.0)
TOL = 1e-12


def _relabelled_tree(rng: random.Random, n: int) -> RootedTree:
    """A uniform-attachment tree with shuffled labels and a random root."""
    label = list(range(n))
    rng.shuffle(label)
    edges = [(label[v], label[rng.randrange(v)]) for v in range(1, n)]
    return tree_from_edge_list(edges, root=rng.randrange(n))


def _double_broom(m: int, length: int) -> RootedTree:
    """Two stars K_{1,m} whose centres are joined by a path of `length`
    edges."""
    parent = [None] + list(range(length)) + [0] * m + [length] * m
    n = len(parent)
    return RootedTree(n=n, parent=tuple(parent), order=tuple(range(n - 1, -1, -1)))


def _trees() -> dict[str, RootedTree]:
    rng = random.Random(2206)
    trees = {}
    for i, n in enumerate((2, 9, 40, 150, 400, 400)):
        trees[f"uniform {i} n={n}"] = _relabelled_tree(rng, n)
    trees.update({f"path {n}": make_path(n) for n in (2, 7, 120)})
    trees.update({f"star {m}": make_caterpillar((m,)) for m in (2, 9, 60)})
    trees.update({f"T_1,{n},{n}": make_starlike_1nn(n) for n in (1, 40)})
    trees["double broom 30, 12"] = _double_broom(30, 12)
    for a, lam in ((0.1, 2.44), (0.01, 2.06)):
        for k in (17, 64):
            trees[f"G_{k} at ({a}, {lam})"] = make_caterpillar(build_shearer(a, lam, k).r)
    return trees


def _case(tree: RootedTree, alpha: float) -> dict:
    M = a_alpha_weights(tree, alpha)
    res = spectral_radius(M, TOL)
    lo, hi = _initial_bracket(M)
    est, passes = laguerre_descent(M, hi + 1e-9, lo - 1e-9, TOL)
    return {
        "alpha": alpha.hex(),
        "lower": res.lower.hex(),
        "upper": res.upper.hex(),
        "iterations": res.iterations,
        "passes": res.passes,
        "counts": [count_eigenvalues_greater(M, c) for c in SHIFTS],
        "descent": [est.hex(), passes],
    }


def _cases() -> dict[str, list[dict]]:
    return {name: [_case(t, a) for a in ALPHAS] for name, t in _trees().items()}


TREES = _trees()


@pytest.mark.parametrize("name", list(TREES))
def test_spectral_radius_bits(name):
    golden = json.loads(GOLDEN.read_text())
    assert [_case(TREES[name], a) for a in ALPHAS] == golden[name]


@pytest.mark.parametrize("alpha, passes, descent", zip(ALPHAS, (48, 45, 11, 45), (5, 4, 3, 4)))
def test_double_broom_keeps_its_passes(alpha, passes, descent):
    # the double broom's descent contracts linearly, each step about 0.29
    # times the one before, so the cubic stop rule must not fire there
    M = a_alpha_weights(TREES["double broom 30, 12"], alpha)
    assert spectral_radius(M, TOL).passes == passes
    lo, hi = _initial_bracket(M)
    assert laguerre_descent(M, hi + 1e-9, lo - 1e-9, TOL)[1] == descent


def test_golden_lists_every_tree():
    assert list(json.loads(GOLDEN.read_text())) == list(TREES)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_cases(), indent=1) + "\n")
