"""Exact references for the package's inertia counts: the pivots of
A_alpha(T) - cI in stdlib `Fraction`s, and a dense integer count by
Bareiss elimination that shares no step with any leaves-first pass.

It imports nothing from `alpha_limit`, so it shares no code with the
kernels it checks."""
from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence


def exact_pivots(
    parent: Sequence[Optional[int]], order: Sequence[int], alpha, c
) -> list[Fraction]:
    """Pivots d_v of the bottom-up congruence of A_alpha(T) - cI, indexed
    by vertex, in exact arithmetic.

    parent[v] is v's parent (None for the root), and order lists every
    vertex before its parent (a caterpillar's spine has parent > child,
    so range(n) is one).  alpha and c are taken exactly: a float as the
    binary value it holds, a Fraction or a decimal string as written.
    With w = 1 - alpha, a vertex's pivot is alpha*deg(v) - c minus w^2/d_u
    over its attached children u.  A zero child pivot d_u instead sets
    d_u := 2 and the vertex's pivot to -w^2/2, and detaches the vertex
    from its parent.  That step is a congruence only for w != 0; at
    alpha = 1 the matrix is diagonal, and its pivots are its diagonal
    entries deg(v) - c."""
    n = len(parent)
    a, c = Fraction(alpha), Fraction(c)
    w2 = (1 - a) ** 2
    kids: list[list[int]] = [[] for _ in range(n)]
    for v, p in enumerate(parent):
        if p is not None:
            kids[p].append(v)
    d = [a * (len(kids[v]) + (parent[v] is not None)) - c for v in range(n)]
    if w2 == 0:
        return d
    attached = [True] * n
    for v in order:
        live = [u for u in kids[v] if attached[u]]
        zero = next((u for u in live if d[u] == 0), None)
        if zero is None:
            d[v] -= sum(w2 / d[u] for u in live)
        else:
            d[v], d[zero] = -w2 / 2, Fraction(2)
            if parent[v] is not None:
                attached[v] = False
    return d


def exact_count_greater(
    parent: Sequence[Optional[int]], order: Sequence[int], alpha, c
) -> int:
    """Eigenvalues of A_alpha(T) above c: the positive exact pivots
    (Sylvester's law of inertia)."""
    return sum(1 for x in exact_pivots(parent, order, alpha, c) if x > 0)


def dense_count_greater(
    parent: Sequence[Optional[int]], alpha, c
) -> Optional[int]:
    """Eigenvalues of A_alpha(T) above c, counted on the dense matrix, or
    None when this elimination cannot decide the count.

    alpha and c are taken exactly (a float as the binary value it holds,
    or a Fraction), and with den the product of their denominators,
    den * (M - cI) is an integer matrix.  Bareiss's fraction-free
    elimination (Math. Comp. 22, 1968) runs on its upper triangle
    (A[i][k] = A[k][i] below it) and leaves the leading principal minor
    D_k as the k-th pivot, every division exact.  By Jacobi's rule each
    D_k with the sign of D_(k-1), D_0 = 1, is one positive eigenvalue.  A
    zero pivot is swapped, symmetrically, with the first later nonzero
    diagonal entry.  The block still to eliminate is the last pivot times
    the Schur complement of the rows eliminated, so once its diagonal is
    all zero, the block adds only zero eigenvalues if it is all zero
    (Haynsworth's inertia additivity), and otherwise the count is
    undecided and the result is None, as on P_2 at c = alpha."""
    p, q = alpha.as_integer_ratio()
    r, s = c.as_integer_ratio()
    b, shift, w = p * s, r * q, (q - p) * s  # den * (alpha, c, 1 - alpha)
    n = len(parent)
    A = [[0] * n for _ in range(n)]
    for v, u in enumerate(parent):
        if u is not None:
            A[min(u, v)][max(u, v)] = w
            A[u][u] += b
            A[v][v] += b
    for i in range(n):
        A[i][i] -= shift
    prev, pos = 1, 0
    for k in range(n):
        if A[k][k] == 0:
            j = next((j for j in range(k + 1, n) if A[j][j]), None)
            if j is None:
                return None if any(any(A[i][i:]) for i in range(k, n)) else pos
            # relabel k and j in the remaining block, stored above the diagonal
            A[k][k], A[j][j] = A[j][j], A[k][k]
            for m in range(k + 1, j):
                A[k][m], A[m][j] = A[m][j], A[k][m]
            for m in range(j + 1, n):
                A[k][m], A[j][m] = A[j][m], A[k][m]
        row = A[k]
        d = row[k]
        if (d > 0) == (prev > 0):
            pos += 1
        for i in range(k + 1, n):
            ri, e = A[i], row[i]
            for m in range(i, n):
                ri[m] = (d * ri[m] - e * row[m]) // prev
        prev = d
    return pos
