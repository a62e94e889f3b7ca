"""Eigenvalue location on trees by bottom-up congruence.

For a tree matrix M = A_alpha(T) and a shift c, M - cI is congruent to a
diagonal matrix whose entries (pivots) are found leaves first (Jacobs and
Trevisan, LAA 434, 2011); by Sylvester's law of inertia the number of
positive pivots is the number of eigenvalues of M above c.  Bisection on
that count brackets the spectral radius, and a dense LAPACK oracle checks
it on small trees.

Each pass reads the matrix itself: the tree's alpha-free `layout` and
the diagonal `WeightedTreeMatrix.diag` scaled by alpha.
`SpectralRadiusResult` is a read-only named tuple: it unpacks, and
compares and hashes by value, like a plain tuple of its fields.
"""
from __future__ import annotations

import math
import sys
from typing import NamedTuple, Optional

from .trees import WeightedTreeMatrix

# A pivot with |d| <= ZERO_TOL is replaced by -ZERO_TOL (LAPACK's "pivmin"
# rule for bisection), so no pivot is zero and every step of a pass is a
# congruence, at alpha = 1 too.  As in LAPACK it sits near the safe
# minimum, so 2*ZERO_TOL vanishes in `count_margin`.  Every term w2/d is
# then at most 1e200 in size (w2 <= 1), so for n < 1e75 no sum overflows
# and no w2/d underflows (w2 > 0 is at least 2^-106 = 1.2e-32).
ZERO_TOL = 1e-200

ORACLE_MAX_N = 64

# `spectral_radius` runs a Laguerre descent once its bracket is this narrow.
LAGUERRE_WIDTH = 2.0**-6


class SpectralRadiusResult(NamedTuple):
    """`lower` and `upper` are the bisection's float-count decisions: the
    float count is at least 1 at `lower` and 0 at `upper`.  The proven
    bracket is [lower - eta, upper + eta], eta = `count_margin(M)`; the
    CLI prints it and `convergence_report` measures its gap from it."""

    value: float
    lower: float
    upper: float
    iterations: int
    passes: int  # inertia passes run: hint probes and descent passes included


def count_eigenvalues_greater(
    M: WeightedTreeMatrix, c: float, at_most: Optional[int] = None
) -> int:
    """Number of eigenvalues of M strictly greater than c: the positive
    pivots of M - cI.  With at_most given, the count is min(that number,
    at_most): the running count pos never decreases, so the pass returns
    as soon as it reaches the cap.

    The pivots are found bottom-up: a vertex v gets d_v = alpha*deg(v) -
    c - sum w2/d_u over its children u, with w2 = (1-alpha)^2, and a
    pivot with |d| <= ZERO_TOL becomes -ZERO_TOL before it is used.  No
    pivot is then zero, so the steps are congruences for every alpha in
    [0, 1], and the positive pivots count the eigenvalues above c of M
    with a few diagonal entries lowered by at most 2*ZERO_TOL (see
    `count_margin`).  At alpha = 1 (w2 = 0) every term w2/d is 0, so the
    pivots are the diagonal entries of M = D(T) less c.

    The pass reads the tree's alpha-free `layout` (`trees.TreeLayout`:
    the vertices that have children, plus the root, bottom-up; the root's
    parent is a scratch slot) and their diagonal entries `M.diag`.  Every
    leaf has the diagonal entry alpha, so all leaves share one pivot and
    are folded into a count per parent.  Pivots are pushed up as they are
    found: acc[p] collects the terms w2/d of p's children, and a vertex's
    m leaves add m * w2/d at once, first.
    """
    layout = M.tree.layout
    cap = sys.maxsize if at_most is None else at_most
    x = -c
    tol = ZERO_TOL
    w = (1.0 - M.alpha) ** 2
    diag = M.diag
    acc = [0.0] * (len(diag) + 1)
    pos = 0
    t = M.alpha + x  # the pivot of every leaf
    if t > tol:
        pos += sum(layout.leaf_counts)
        if pos >= cap:
            return cap
    elif t >= -tol:
        t = -tol
    q = w / t
    for p, m in zip(layout.leaf_parents, layout.leaf_counts):
        acc[p] += m * q
    for b, s, p in zip(diag, acc, layout.parent):
        d = (b + x) - s
        if d > tol:
            pos += 1
            if pos >= cap:
                return cap
        elif d >= -tol:
            d = -tol
        acc[p] += w / d
    return pos


def laguerre_descent(
    M: WeightedTreeMatrix, c: float, lo: float, tol: float
) -> tuple[float, int]:
    """Laguerre's iteration from c down onto the largest eigenvalue of M,
    as (estimate, passes run).

    Each pass runs the `count_eigenvalues_greater` recurrence with the
    leaves folded the same way, but with no pivmin rule, and carries each
    pivot's first and second derivative in c.  With r_u = d_u'/d_u and
    s_u = d_u''/d_u of the children u of v,

        d_v = b_v - c - sum w2/d_u,   d_v' = -1 + sum w2 r_u/d_u,
        d_v'' = sum w2 (s_u - 2 r_u^2)/d_u.

    det(M - cI) is the product of the pivots, so G = sum_v r_v =
    sum_i 1/(c - lambda_i) and H = sum_v (r_v^2 - s_v) = sum_i 1/(c -
    lambda_i)^2, the sums over all n vertices and eigenvalues.  Started
    right of the largest root of a real-rooted polynomial of degree n,
    the step c <- c - n/(G + sqrt((n-1)(nH - G^2))) falls monotonically
    and, near a simple root, cubically onto it (Li and Zeng, SIAM J.
    Sci. Comput. 15, 1994).

    The descent returns c at a zero pivot, at a step that is not finite
    or would leave (lo, c), and at the second step larger than a
    quarter of the step before it: slow steps mean a near multiple top
    eigenvalue, or rounding.  The first slow step is taken, since
    eigenvalues a little below the largest can slow the first steps (on
    Shearer caterpillars, for one).  A step of at most tol/4 is taken
    and ends the descent.  So does a step after a superlinear one (at
    most 1e-3 times the step before) when the cubic model predicts the
    next step, step^4/last^3, to be at most tol/8: no pass is run only
    to see it.  The estimate is no bound: only inertia counts prove
    where the radius lies.
    """
    layout = M.tree.layout
    w = (1.0 - M.alpha) ** 2
    diag = M.diag
    leaves = sum(layout.leaf_counts)
    n = len(diag) + leaves
    size = len(diag) + 1
    passes = 0
    last = math.inf
    slow = False
    while True:
        passes += 1
        x = -c
        a0, a1, a2 = [0.0] * size, [0.0] * size, [0.0] * size
        try:
            t = M.alpha + x  # the pivot of every leaf; d' = -1, d'' = 0
            r = -1.0 / t
            q = w / t
            g, h = leaves * r, leaves * r * r
            q1, q2 = q * r, -2.0 * q * r * r
            for p, m in zip(layout.leaf_parents, layout.leaf_counts):
                a0[p] += m * q
                a1[p] += m * q1
                a2[p] += m * q2
            for b, s0, s1, s2, p in zip(diag, a0, a1, a2, layout.parent):
                d = (b + x) - s0
                r = (s1 - 1.0) / d
                s = s2 / d
                g += r
                h += r * r - s
                q = w / d
                a0[p] += q
                a1[p] += q * r
                a2[p] += q * (s - 2.0 * r * r)
            step = n / (g + math.sqrt(max((n - 1) * (n * h - g * g), 0.0)))
        except ZeroDivisionError:
            return c, passes
        if not lo < c - step < c:  # a NaN step fails too
            return c, passes
        if step > last / 4:
            if slow:
                return c, passes
            slow = True
        if step <= tol / 4:
            return c - step, passes
        # the cubic stop; the first step has no step before it
        if last < math.inf and step <= 1e-3 * last:
            if step * (step / last) ** 3 <= tol / 8:
                return c - step, passes
        c -= step
        last = step


def count_margin(M: WeightedTreeMatrix) -> float:
    """eta = 2 ZERO_TOL + 4 eps (Delta+3)^2, eps = 2^-52 and Delta the maximum
    degree: for every shift |c| <= Delta + 1 the float count satisfies

        exact(c + eta) <= count_eigenvalues_greater(M, c) <= exact(c - eta),

    where exact(c) counts the eigenvalues of M = A_alpha(T) above c in
    exact arithmetic.

    Derivation (the Sturm-count argument of Kahan, and Demmel, Dhillon and
    Ren, ETNA 3, 1995, carried over to trees).  Let u = eps/2 be the unit
    roundoff and g_k = k u / (1 - k u).  For n < 1e75 no sum overflows
    and no term w2/d underflows (see ZERO_TOL), so every float operation
    is exact up to a factor 1 + delta with |delta| <= u.  The pass
    computes each pivot as d_v = fl(fl(b_v - c) - s_v), where b_v =
    fl(alpha deg v) and s_v is the float sum of at most deg v terms
    fl(w2 / d_u) over the children u (the m leaves of v enter as one term
    fl(m fl(w2 / t))), and w2 = fl(fl(1 - alpha)^2).  So

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
    inequalities with eps (Delta+3)^2 + 2 ZERO_TOL in place of eta.  In
    floats eta rounds to its rounding part 4 eps (Delta+3)^2, as 2 ZERO_TOL
    lies far below one ulp of it; the factor 4 covers 2 ZERO_TOL and the
    roundings of the shifts that the bisection builds from eta.
    """
    delta = M.tree.layout.max_degree
    return 2.0 * ZERO_TOL + 4.0 * sys.float_info.epsilon * (delta + 3) ** 2


def _initial_bracket(M: WeightedTreeMatrix) -> tuple[float, float]:
    """Bounds on rho(A_alpha(T)) for a tree of maximum degree delta: the
    star K_{1,delta} it contains from below, delta from above."""
    a = M.alpha
    delta = M.tree.layout.max_degree
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
    step asks for at most one count.  `lower` and `upper` are decisions
    of the float count, which can differ from the exact count within
    eta = `count_margin(M)` of an eigenvalue: the radius is proven to lie
    in [lower - eta, upper + eta], not in [lower, upper] (on P_2 at
    alpha = 0.17584436767598854, lower is the radius 1.0 itself).  The
    initial bracket is nudged outward so it stays valid when the bound is
    attained exactly (e.g. paths and stars).

    `above` is a hint that the radius lies at or just below it, and two
    counts probe it, with eta = `count_margin(M)`.  A count of 0 at
    above - 2 eta means rho <= above - eta, so the float count at every
    midpoint >= above is 0 as well.  Otherwise rho > above - 3 eta, so the
    float count at every midpoint <= above - 4 eta is at least 1, and a
    count of 0 at above + 2 eta means rho <= above + 3 eta, so the float
    count at every midpoint >= above + 4 eta is 0.  The steps at those
    midpoints make no pass.  A wrong hint costs at most the two probes,
    and one outside the initial bracket (where `count_margin` is not
    proven) is not probed.

    The bisection also makes its own hint.  When a step first narrows
    the bracket to at most `LAGUERRE_WIDTH` while the band still to count
    is wider, `laguerre_descent` runs from the upper end of
    that band, and its estimate, if it lies inside the bracket, is probed
    like `above`.  Each probe only proves what the float count at some
    midpoints is, so every midpoint and decision is the one the plain
    bisection makes, and neither hint can change `(lower, upper,
    iterations)`.  On the radius-trees benchmark inputs, the descent cuts
    the passes from about 42 to about 14; a near multiple top eigenvalue
    stops the descent early, at a cost of a few passes.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be a positive finite number")
    if M.tree.n < 2:
        raise ValueError("need at least two vertices")
    lo, hi = _initial_bracket(M)
    lo -= 1e-9
    hi += 1e-9
    iters = passes = 0
    eta = count_margin(M)
    count_from = -math.inf  # midpoints up to here have a count >= 1
    skip_from = math.inf  # midpoints from here on have the count 0

    def probe(h: float) -> None:
        nonlocal passes, count_from, skip_from
        passes += 1
        if count_eigenvalues_greater(M, h - 2.0 * eta, at_most=1) == 0:
            skip_from = min(skip_from, h)
            return
        count_from = max(count_from, h - 4.0 * eta)
        passes += 1
        if count_eigenvalues_greater(M, h + 2.0 * eta, at_most=1) == 0:
            skip_from = min(skip_from, h + 4.0 * eta)

    if above is not None and lo < above < hi:
        probe(above)
    descend = hi - lo > LAGUERRE_WIDTH  # until a step narrows the bracket to it
    while hi - lo > tol:
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
        if descend and hi - lo <= LAGUERRE_WIDTH:
            descend = False
            if skip_from - count_from > LAGUERRE_WIDTH:
                # rho <= min(hi, skip_from) + eta, so the descent starts at
                # or right of the radius, up to rounding
                h, k = laguerre_descent(M, min(hi, skip_from), lo, tol)
                passes += k
                if lo < h < hi:
                    probe(h)
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
