"""Bottom-up congruence diagonalization of tree matrices.

Given a tree matrix M = A_alpha(T) and a shift x, produces a diagonal
matrix congruent to M + xI; the signs of the diagonal locate eigenvalues of M
relative to -x (Sylvester's law of inertia).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .trees import WeightedTreeMatrix

# A pivot with |d| <= ZERO_TOL triggers the zero branch.  Exact zeros only
# occur when the shift sits on an eigenvalue of an integer-weighted
# subtree, which the oracle tests exercise deliberately.
ZERO_TOL = 1e-12

MAX_BISECT_ITER = 200

ORACLE_MAX_N = 64


@dataclass(frozen=True)
class DiagResult:
    """Diagonal values (in bottom-up order) and inertia counts."""

    d: tuple[float, ...]
    removed_edges: tuple[tuple[int, int], ...]
    n_pos: int
    n_neg: int
    n_zero: int


@dataclass(frozen=True)
class SpectralRadiusResult:
    value: float
    lower: float
    upper: float
    iterations: int


def diagonalize(M: WeightedTreeMatrix, x: float) -> DiagResult:
    """Diagonalize M + xI by bottom-up congruence operations.

    Each non-leaf vertex absorbs -(m_ck)^2/d_c from every child c with a
    nonzero pivot; a zero child pivot instead forces the pair
    (d_k, d_j) := (-(m_jk)^2/2, 2) and disconnects v_k from its parent.
    The input is never mutated; edge removals act on a scratch copy.
    """
    tree = M.tree
    n = tree.n
    d = [M.diag[v] + x for v in range(n)]
    attached = [tree.parent[v] is not None for v in range(n)]
    removed: list[tuple[int, int]] = []
    for v in tree.order:
        kids = [c for c in tree.children[v] if attached[c]]
        if not kids:
            continue
        zero_kid = next((c for c in kids if abs(d[c]) <= ZERO_TOL), None)
        if zero_kid is None:
            d[v] -= sum(M.edge_w[c] ** 2 / d[c] for c in kids)
        else:
            d[v] = -(M.edge_w[zero_kid] ** 2) / 2.0
            d[zero_kid] = 2.0
            p = tree.parent[v]
            if p is not None:
                attached[v] = False
                removed.append((v, p))
    ordered = tuple(d[v] for v in tree.order)
    n_pos = sum(1 for di in ordered if di > ZERO_TOL)
    n_neg = sum(1 for di in ordered if di < -ZERO_TOL)
    return DiagResult(
        d=ordered,
        removed_edges=tuple(removed),
        n_pos=n_pos,
        n_neg=n_neg,
        n_zero=n - n_pos - n_neg,
    )


@dataclass(frozen=True)
class InertiaPlan:
    """An A_alpha tree matrix compiled once for repeated inertia counts.

    The bottom-up pass of `diagonalize`, in flat arrays: the vertices that
    have children, plus the root, listed bottom-up as plan indices 0..m-1,
    with their diagonal entries alpha*deg and the plan index of their
    parent (m for the root, a scratch slot).  Every edge has the squared
    weight w2 = (1-alpha)^2 and every leaf the diagonal entry alpha, so
    all leaves share one pivot and are folded into a count per parent.
    """

    alpha: float
    w2: float
    diag: tuple[float, ...]
    parent: tuple[int, ...]
    leaf_parents: tuple[int, ...]  # plan indices of vertices with leaves
    leaf_counts: tuple[int, ...]  # and their leaf counts

    @classmethod
    def compile(cls, M: WeightedTreeMatrix) -> "InertiaPlan":
        tree, alpha = M.tree, M.alpha
        kids, degree = tree.children, tree.degree
        inner = [v for v in tree.order if kids[v] or tree.parent[v] is None]
        index = {v: i for i, v in enumerate(inner)}
        leaves = [sum(1 for c in kids[v] if not kids[c]) for v in inner]
        return cls(
            alpha=alpha,
            w2=(1.0 - alpha) ** 2,
            diag=tuple(alpha * degree[v] for v in inner),
            parent=tuple(
                len(inner) if tree.parent[v] is None else index[tree.parent[v]]
                for v in inner
            ),
            leaf_parents=tuple(i for i, m in enumerate(leaves) if m),
            leaf_counts=tuple(m for m in leaves if m),
        )

    def count_greater(self, c: float) -> int:
        """Number of positive pivots of M - cI: `diagonalize(M, -c).n_pos`
        by the same recurrence, with a vertex's terms summed in another
        order (its m leaves add m * w2/d at once, first).

        Pivots are pushed up as they are found: acc[p] collects the terms
        w2/d of p's children.  A zero pivot sends its parent p into the
        zero branch of `diagonalize`: one zero child ends at the pivot 2
        (one positive count per such parent, whichever child it is), p at
        -w2/2 (never positive, marked by acc[p] = NaN), and p is detached
        (its push is redirected to the scratch slot).  A NaN pivot falls
        through to the push and spreads to its parent, as in the reference.
        """
        x = -c
        tol = ZERO_TOL
        nan = math.nan
        w = self.w2
        top = len(self.diag)
        acc = [0.0] * (top + 1)
        parent = list(self.parent)
        fired: set[int] = set()
        pos = 0
        t = self.alpha + x  # the pivot of every leaf
        if t > tol:
            pos += sum(self.leaf_counts)
        if -tol <= t <= tol:
            fired.update(self.leaf_parents)
            for p in self.leaf_parents:
                parent[p] = top
                acc[p] = nan
        else:  # a positive leaf pivot is counted and pushed
            q = w / t
            for p, m in zip(self.leaf_parents, self.leaf_counts):
                acc[p] += m * q
        for b, s, p in zip(self.diag, acc, parent):
            d = (b + x) - s
            if d > tol:
                pos += 1
            elif d >= -tol:
                if p < top:
                    fired.add(p)
                    parent[p] = top
                    acc[p] = nan
                continue
            acc[p] += w / d
        return pos + len(fired)


def count_eigenvalues_greater(M: WeightedTreeMatrix, c: float) -> int:
    """Number of eigenvalues of M strictly greater than c.

    Runs on the matrix's compiled `inertia_plan`; `diagonalize` is the
    per-vertex reference with the same counts.
    """
    return M.inertia_plan.count_greater(c)


def _initial_bracket(M: WeightedTreeMatrix) -> tuple[float, float]:
    """Bounds on rho(A_alpha(T)) for a tree of maximum degree delta: the
    star K_{1,delta} it contains from below, delta from above."""
    a = M.alpha
    delta = max(M.tree.degree)
    lo = 0.5 * (
        a * (delta + 1)
        + math.sqrt(a * a * (delta + 1) ** 2 + 4 * delta * (1 - 2 * a))
    )
    return lo, float(delta)


def spectral_radius(M: WeightedTreeMatrix, tol: float) -> SpectralRadiusResult:
    """Largest eigenvalue of M via bisection on the inertia count.

    c is below the spectral radius iff some eigenvalue exceeds c.  The
    initial bracket is nudged outward so it stays valid when the bound is
    attained exactly (e.g. paths and stars).
    """
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be a positive finite number")
    if M.tree.n < 2:
        raise ValueError("need at least two vertices")
    lo, hi = _initial_bracket(M)
    lo -= 1e-9
    hi += 1e-9
    iters = 0
    while hi - lo > tol and iters < MAX_BISECT_ITER:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if count_eigenvalues_greater(M, mid) >= 1:
            lo = mid
        else:
            hi = mid
        iters += 1
    return SpectralRadiusResult(
        value=0.5 * (lo + hi), lower=lo, upper=hi, iterations=iters
    )


def dense_spectrum_oracle(M: WeightedTreeMatrix) -> list[float]:
    """Full eigenvalue list from LAPACK (`numpy.linalg.eigvalsh`), sorted
    ascending.  Desk-scale verification only (n <= 64)."""
    if M.tree.n > ORACLE_MAX_N:
        raise ValueError(f"oracle is limited to n <= {ORACLE_MAX_N}")
    import numpy as np

    return [float(v) for v in np.linalg.eigvalsh(M.dense())]
