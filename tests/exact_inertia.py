"""Exact pivots of A_alpha(T) - cI in stdlib `Fraction`s: the reference
the package's float inertia counts are checked against.

It imports nothing from `alpha_limit`, so it shares no code with the
kernel it checks."""
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
    from its parent."""
    n = len(parent)
    a, c = Fraction(alpha), Fraction(c)
    w2 = (1 - a) ** 2
    kids: list[list[int]] = [[] for _ in range(n)]
    for v, p in enumerate(parent):
        if p is not None:
            kids[p].append(v)
    d = [a * (len(kids[v]) + (parent[v] is not None)) - c for v in range(n)]
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
