"""Eigenvalue location on trees by bottom-up congruence.

For a tree matrix M = A_alpha(T) and a shift c, M - cI is congruent to a
diagonal matrix whose entries (pivots) are found leaves first (Jacobs and
Trevisan, LAA 434, 2011); by Sylvester's law of inertia the number of
positive pivots is the number of eigenvalues of M above c.  Bisection on
that count brackets the spectral radius, and a dense LAPACK oracle checks
it on small trees.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

from .trees import WeightedTreeMatrix

# A pivot with |d| <= ZERO_TOL is replaced by -ZERO_TOL (LAPACK's "pivmin"
# rule for bisection), so no pivot is zero.  Exact zeros only occur when
# the shift sits on an eigenvalue of an integer-weighted subtree, which the
# oracle tests exercise deliberately.
ZERO_TOL = 5e-13

MAX_BISECT_ITER = 200

ORACLE_MAX_N = 64


@dataclass(frozen=True)
class SpectralRadiusResult:
    value: float
    lower: float
    upper: float
    iterations: int
    passes: int  # inertia passes run, the probes of a hint included


@dataclass(frozen=True)
class InertiaPlan:
    """An A_alpha tree matrix compiled once for repeated inertia counts.

    The pivots of M - cI, bottom-up: a vertex v gets d_v = alpha*deg(v)
    - c - sum w2/d_u over its children u, with w2 = (1-alpha)^2, and a
    pivot with |d| <= ZERO_TOL becomes -ZERO_TOL before it is used.  No
    pivot is then zero, so for w2 > 0 the steps are congruences and the
    positive pivots count the eigenvalues above c of M with a few
    diagonal entries lowered by at most 2*ZERO_TOL (see `count_margin`);
    at alpha = 1 (w2 = 0) M is the diagonal D(T), and the count is taken
    from the diagonal directly.

    The plan holds that pass in flat arrays: the vertices that have
    children, plus the root, listed bottom-up as plan indices 0..m-1,
    with their diagonal entries alpha*deg and the plan index of their
    parent (m for the root, a scratch slot).  Every leaf has the diagonal
    entry alpha, so all leaves share one pivot and are folded into a
    count per parent.
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
        count, up, degree = tree.child_count, tree.parent, tree.degree
        inner = [v for v in tree.order[:-1] if count[v]] + [tree.root]
        index = [0] * tree.n
        for i, v in enumerate(inner):
            index[v] = i
        parent = [index[up[v]] for v in inner[:-1]] + [len(inner)]
        leaves = [count[v] for v in inner]  # children that are not inner
        for p in parent[:-1]:
            leaves[p] -= 1
        return cls(
            alpha=alpha,
            w2=(1.0 - alpha) ** 2,
            diag=tuple(alpha * degree[v] for v in inner),
            parent=tuple(parent),
            leaf_parents=tuple(i for i, m in enumerate(leaves) if m),
            leaf_counts=tuple(m for m in leaves if m),
        )

    def count_greater(self, c: float, at_most: Optional[int] = None) -> int:
        """Number of positive pivots of M - cI, that is, of eigenvalues of
        M above c.  With at_most given, the count is min(that number,
        at_most): the running count pos never decreases, so the pass
        returns as soon as it reaches the cap.

        Pivots are pushed up as they are found: acc[p] collects the terms
        w2/d of p's children, and a vertex's m leaves add m * w2/d at
        once, first.  A pivot in [-ZERO_TOL, ZERO_TOL] is pushed as
        -ZERO_TOL, like any other negative pivot.
        """
        cap = sys.maxsize if at_most is None else at_most
        if self.w2 == 0.0:  # M = D(T): the pivots are the diagonal less c
            leaves = sum(self.leaf_counts) if self.alpha > c else 0
            return min(cap, sum(b > c for b in self.diag) + leaves)
        x = -c
        tol = ZERO_TOL
        w = self.w2
        acc = [0.0] * (len(self.diag) + 1)
        pos = 0
        t = self.alpha + x  # the pivot of every leaf
        if t > tol:
            pos += sum(self.leaf_counts)
            if pos >= cap:
                return cap
        elif t >= -tol:
            t = -tol
        q = w / t
        for p, m in zip(self.leaf_parents, self.leaf_counts):
            acc[p] += m * q
        for b, s, p in zip(self.diag, acc, self.parent):
            d = (b + x) - s
            if d > tol:
                pos += 1
                if pos >= cap:
                    return cap
            elif d >= -tol:
                d = -tol
            acc[p] += w / d
        return pos


def count_eigenvalues_greater(
    M: WeightedTreeMatrix, c: float, at_most: Optional[int] = None
) -> int:
    """Number of eigenvalues of M strictly greater than c, or at most
    at_most of them: the positive pivots of M - cI on the matrix's
    compiled `inertia_plan`, where a pivot with |d| <= ZERO_TOL becomes
    -ZERO_TOL (at alpha = 1, where M is diagonal, the diagonal entries
    above c).
    """
    return M.inertia_plan.count_greater(c, at_most)


def count_margin(M: WeightedTreeMatrix) -> float:
    """eta = 2 ZERO_TOL + 4 eps (Delta+3)^2, eps = 2^-52 and Delta the maximum
    degree: for every shift |c| <= Delta + 1 the float count satisfies

        exact(c + eta) <= count_eigenvalues_greater(M, c) <= exact(c - eta),

    where exact(c) counts the eigenvalues of M = A_alpha(T) above c in
    exact arithmetic.

    Derivation (the Sturm-count argument of Kahan, and Demmel, Dhillon and
    Ren, ETNA 3, 1995, carried over to trees).  Let u = eps/2 be the unit
    roundoff and g_k = k u / (1 - k u).  Every float operation is exact
    up to a factor 1 + delta with |delta| <= u.  The plan computes each
    pivot as d_v = fl(fl(b_v - c) - s_v), where b_v = fl(alpha deg v) and
    s_v is the float sum of at most deg v terms fl(w2 / d_u) over the
    children u (the m leaves of v enter as one term fl(m fl(w2 / t))), and
    w2 = fl(fl(1 - alpha)^2).  So

        d_v = (alpha deg v + e_v - c) - sum_u (1 - alpha)^2 (1 + th_u) / d_u

    holds exactly with |th_u| <= g_(Delta+5) (three roundings in w2, the
    division, the leaf multiply, at most Delta - 1 additions and the final
    subtraction) and |e_v| <= u alpha Delta + g_2 (2 Delta + 1) for
    |c| <= Delta + 1.  Each edge has one child, so each th_u belongs to one
    edge: the float pivots are the exact pivots of M~ - cI, where M~ has
    the edge entries (1 - alpha) sqrt(1 + th_u) and the diagonal entries
    alpha deg v + e_v.  Replacing a pivot |d_v| <= ZERO_TOL by -ZERO_TOL
    lowers that diagonal entry by at most 2 ZERO_TOL and never raises it,
    and leaves no zero pivot.  So the float count is exactly the count of
    M~ - Z at c, with Z diagonal and 0 <= Z <= 2 ZERO_TOL, and by the
    row-sum bound on the symmetric perturbation (each vertex has at most
    Delta edges, each entry moves by at most |th_u|)

        ||M~ - M|| <= u alpha Delta + g_2 (2 Delta + 1) + Delta g_(Delta+5)
                   <= 1.01 eps (Delta^2/2 + 5 Delta + 1) <= eps (Delta + 3)^2,

    using g_k <= 1.01 k u, true for every k u <= 0.01.

    Weyl's inequality moves every eigenvalue by at most that norm, and Z
    only lowers them, by at most 2 ZERO_TOL, which gives the two
    inequalities.  eta takes four times the rounding part, which leaves
    room for the roundings of the shifts that the bisection builds from
    eta.
    """
    delta = max(M.tree.degree)
    return 2.0 * ZERO_TOL + 4.0 * sys.float_info.epsilon * (delta + 3) ** 2


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


def spectral_radius(
    M: WeightedTreeMatrix, tol: float, above: Optional[float] = None
) -> SpectralRadiusResult:
    """Largest eigenvalue of M via bisection on the inertia count.

    c is below the spectral radius iff some eigenvalue exceeds c, so each
    step asks for at most one count.  The initial bracket is nudged
    outward so it stays valid when the bound is attained exactly (e.g.
    paths and stars).

    `above` is a hint that the radius lies at or just below it, and two
    counts check it, with eta = `count_margin(M)`.  A count of 0 at
    above - 2 eta means rho <= above - eta, so the float count at every
    midpoint >= above is 0 as well.  Otherwise rho > above - 3 eta, so the
    float count at every midpoint <= above - 4 eta is at least 1, and a
    count of 0 at above + 2 eta means rho <= above + 3 eta, so the float
    count at every midpoint >= above + 4 eta is 0.  The steps at those
    midpoints make no pass.  Every midpoint and decision is the one the
    plain bisection makes, so the result does not depend on the hint; a
    wrong hint costs at most the two probes, and one outside the initial
    bracket (where `count_margin` is not proven) is not probed.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be a positive finite number")
    if M.tree.n < 2:
        raise ValueError("need at least two vertices")
    lo, hi = _initial_bracket(M)
    lo -= 1e-9
    hi += 1e-9
    iters = passes = 0
    count_from = -math.inf  # midpoints up to here have a count >= 1
    skip_from = math.inf  # midpoints from here on have the count 0
    if above is not None and lo < above < hi:
        eta = count_margin(M)
        passes += 1
        if count_eigenvalues_greater(M, above - 2.0 * eta, at_most=1) == 0:
            skip_from = above
        else:
            count_from = above - 4.0 * eta
            passes += 1
            if count_eigenvalues_greater(M, above + 2.0 * eta, at_most=1) == 0:
                skip_from = above + 4.0 * eta
    while hi - lo > tol and iters < MAX_BISECT_ITER:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        iters += 1
        if mid <= count_from:
            lo = mid
        elif mid >= skip_from:
            hi = mid
        else:
            passes += 1
            if count_eigenvalues_greater(M, mid, at_most=1) >= 1:
                lo = mid
            else:
                hi = mid
    return SpectralRadiusResult(
        value=0.5 * (lo + hi), lower=lo, upper=hi, iterations=iters, passes=passes
    )


def dense_spectrum_oracle(M: WeightedTreeMatrix) -> list[float]:
    """Full eigenvalue list from LAPACK (`numpy.linalg.eigvalsh`), sorted
    ascending.  Desk-scale verification only (n <= 64)."""
    if M.tree.n > ORACLE_MAX_N:
        raise ValueError(f"oracle is limited to n <= {ORACLE_MAX_N}")
    import numpy as np

    return [float(v) for v in np.linalg.eigvalsh(M.dense())]
