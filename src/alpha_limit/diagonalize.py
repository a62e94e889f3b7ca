"""Bottom-up congruence diagonalization of tree matrices.

Given a weighted tree matrix M and a shift x, produces a diagonal matrix
congruent to M + xI; the signs of the diagonal locate eigenvalues of M
relative to -x (Sylvester's law of inertia).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

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

    def to_json(self) -> str:
        return json.dumps(
            {
                "d": list(self.d),
                "n_pos": self.n_pos,
                "n_neg": self.n_neg,
                "n_zero": self.n_zero,
            }
        )


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
    """A tree matrix compiled once for repeated inertia counts.

    The bottom-up pass of `diagonalize`, in flat arrays: the vertices that
    have children, plus the root, listed bottom-up as plan indices 0..m-1,
    with their diagonal entries, the plan index of their parent (m for the
    root, a scratch slot) and the squared weight of the edge to it.  Leaf
    children are folded: leaves under one parent that share a diagonal
    entry and a squared edge weight share their pivot at every shift, so
    each such group is one count-weighted term.
    """

    diag: tuple[float, ...]
    parent: tuple[int, ...]
    w2: tuple[float, ...]
    # (leaf diagonal, squared leaf edge weight, parent plan indices, leaf
    # count under each parent, total leaf count) per distinct leaf pair
    leaf_groups: tuple[tuple[float, float, tuple[int, ...], tuple[int, ...], int], ...]

    @classmethod
    def compile(cls, M: WeightedTreeMatrix) -> "InertiaPlan":
        tree = M.tree
        kids = tree.children
        inner = [v for v in tree.order if kids[v] or tree.parent[v] is None]
        index = {v: i for i, v in enumerate(inner)}
        groups: dict[tuple[float, float], dict[int, int]] = {}
        for i, v in enumerate(inner):
            for c in kids[v]:
                if not kids[c]:
                    counts = groups.setdefault((M.diag[c], M.edge_w[c] ** 2), {})
                    counts[i] = counts.get(i, 0) + 1
        return cls(
            diag=tuple(M.diag[v] for v in inner),
            parent=tuple(
                len(inner) if tree.parent[v] is None else index[tree.parent[v]]
                for v in inner
            ),
            w2=tuple(M.edge_w[v] ** 2 for v in inner),
            leaf_groups=tuple(
                (dl, wl, tuple(counts), tuple(counts.values()), sum(counts.values()))
                for (dl, wl), counts in groups.items()
            ),
        )

    def count_greater(self, c: float) -> int:
        """Number of positive pivots of M - cI: `diagonalize(M, -c).n_pos`
        by the same recurrence, with a vertex's terms summed in another
        order (a folded group adds m * w^2/d at once).

        Pivots are pushed up as they are found: acc[p] collects the terms
        w^2/d of p's children.  A zero pivot sends its parent p into the
        zero branch of `diagonalize`: one zero child ends at the pivot 2
        (one positive count per such parent, whichever child it is), p at
        -w^2/2 (never positive, marked by acc[p] = NaN), and p is detached
        (its push is redirected to the scratch slot).  A NaN pivot falls
        through to the push and spreads to its parent, as in the reference.
        """
        x = -c
        tol = ZERO_TOL
        nan = math.nan
        top = len(self.diag)
        acc = [0.0] * (top + 1)
        parent = list(self.parent)
        fired: set[int] = set()
        pos = 0
        for dl, wl, parents, counts, total in self.leaf_groups:
            t = dl + x
            if t > tol:
                pos += total
            elif t >= -tol:
                fired.update(parents)
                for p in parents:
                    parent[p] = top
                    acc[p] = nan
                continue
            q = wl / t
            for p, m in zip(parents, counts):
                acc[p] += m * q
        for b, s, p, w in zip(self.diag, acc, parent, self.w2):
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
    tree = M.tree
    delta = max(tree.degree)
    if M.alpha is not None:
        a = M.alpha
        lo = 0.5 * (
            a * (delta + 1)
            + math.sqrt(a * a * (delta + 1) ** 2 + 4 * delta * (1 - 2 * a))
        )
        return lo, float(delta)
    # no A_alpha provenance: Gershgorin row sums
    row = [abs(M.diag[v]) for v in range(tree.n)]
    for v, p in tree.edges():
        row[v] += abs(M.edge_w[v])
        row[p] += abs(M.edge_w[v])
    r = max(row)
    return -r, r


def spectral_radius(M: WeightedTreeMatrix, tol: float) -> SpectralRadiusResult:
    """Largest eigenvalue of M via bisection on the inertia count.

    c is below the spectral radius iff some eigenvalue exceeds c.  The
    initial bracket is nudged outward so it stays valid when the bound is
    attained exactly (e.g. paths and stars).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
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


def _jacobi_eigenvalues(a: np.ndarray, sweeps: int = 60) -> np.ndarray:
    """Cyclic Jacobi rotations on a symmetric matrix; returns the sorted
    eigenvalues.  Intended for small matrices only."""
    a = a.astype(float).copy()
    n = a.shape[0]
    if n == 1:
        return a.reshape(1)
    scale = max(1.0, float(np.abs(a).max()))
    for _ in range(sweeps):
        off_m = a - np.diag(np.diag(a))
        off = math.sqrt(float((off_m**2).sum()))
        if off <= 1e-14 * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-18 * scale:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                if theta == 0.0:
                    t = 1.0
                elif abs(theta) > 1e150:
                    t = 0.5 / theta
                else:
                    t = math.copysign(
                        1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0)), theta
                    )
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rp = a[p, :].copy()
                rq = a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                cp = a[:, p].copy()
                cq = a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
    return np.sort(np.diag(a))


def dense_spectrum_oracle(M: WeightedTreeMatrix) -> list[float]:
    """Full eigenvalue list from an in-repo Jacobi eigensolver, sorted
    ascending.  Desk-scale verification only (n <= 64)."""
    if M.tree.n > ORACLE_MAX_N:
        raise ValueError(f"oracle is limited to n <= {ORACLE_MAX_N}")
    return [float(v) for v in _jacobi_eigenvalues(M.dense())]
