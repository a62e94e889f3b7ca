"""Closed-form alpha-lambda analysis: fixed points of the rational
recurrence, the functions F0..F3, the threshold curves tau0, tau1,
tau1', tau2, and related constants and identities.

`AlphaLambda` is a read-only named tuple: it unpacks, and compares and
hashes by value, like a plain tuple of its fields."""
from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

SQRT2 = math.sqrt(2.0)
SQRT5 = math.sqrt(5.0)

# lower end of every lambda bracket; all F's are defined and signed there
_LAMBDA_LO = 2.0 + 1e-9

# the upper bracket end starts here and doubles up to the cap; tau2 < 2^53
# for every double alpha < 1/2
_BRACKET_START = 8.0
_BRACKET_CAP = 2.0**80

# roots kept by the curve memo, least recently used dropped first.  The
# reuse is small: a certify op asks for at most three curves at its alpha
# (in `classify_regime` and in each rung's pairing check), the benchmark
# cycles through 12 such points and its traced curve probe through 300
# roots, and `tables all` keeps 28; a sweep re-reads a root only within
# its own row.  512 roots take about 100 KB.
CURVE_MEMO_SIZE = 512


def _core(lam: float, alpha: float) -> tuple[float, float, float, float, float]:
    """(disc, sq, theta, theta_prime, delta): the fixed-point discriminant,
    its square root, both fixed points of `phi`, and delta.

    theta_prime is derived from theta via the product identity
    theta*theta_prime = (1-alpha)^2; the direct form (2a-lam+sq)/2
    cancels catastrophically when lam is large.
    """
    disc = (2.0 * alpha - lam) ** 2 - 4.0 * (1.0 - alpha) ** 2
    sq = math.sqrt(disc)
    theta = 0.5 * ((2.0 * alpha - lam) - sq)
    theta_prime = (1.0 - alpha) ** 2 / theta
    delta = alpha + (1.0 - alpha) ** 2 / (lam - alpha)
    return disc, sq, theta, theta_prime, delta


class AlphaLambda(
    NamedTuple(
        "AlphaLambda",
        [("alpha", float), ("lam", float), ("delta", float), ("disc", float),
         ("theta", float), ("theta_prime", float)],
    )
):
    """A validated (alpha, lambda) pair with its derived quantities."""

    __slots__ = ()

    def __new__(cls, alpha: float, lam: float):
        if not 0.0 <= alpha < 1.0:
            raise ValueError("alpha must lie in [0, 1)")
        if not math.isfinite(lam):
            raise ValueError("lambda must be a finite number")
        if lam <= 2.0:
            raise ValueError("lambda must exceed 2")
        if lam >= 2.0**512:  # where (2*alpha - lam)**2 in _core overflows
            raise ValueError("lambda must be below 2**512 (about 1.34e154)")
        disc, _, theta, theta_prime, delta = _core(lam, alpha)
        return super().__new__(cls, alpha, lam, delta, disc, theta, theta_prime)


def phi(t: float, p: AlphaLambda) -> float:
    """The rational map whose fixed points are theta and theta_prime."""
    if t == 0.0:
        raise ValueError("phi is undefined at t = 0")
    return 2.0 * p.alpha - p.lam - (1.0 - p.alpha) ** 2 / t


def F0(lam: float, alpha: float) -> float:
    """Starlike-limit function; its unique root in (2, inf) is tau0."""
    _, sq, _, _, delta = _core(lam, alpha)
    return delta - sq


def F1(lam: float, alpha: float) -> float:
    """Pair-product bound; negative exactly on (tau1, tau1')."""
    _, _, _, theta_prime, delta = _core(lam, alpha)
    return (2.0 * alpha - lam + delta) * (theta_prime - delta) - 2.0 * (
        1.0 - alpha
    ) ** 2


def F2(lam: float, alpha: float) -> float:
    """Window-containment function -1 + alpha + delta - theta'; its root
    in (2, inf) is tau2.  Written as (2a - 1) + (1-a)^2/(lam - a) - theta',
    where 2a - 1 is exact and the other two terms are positive, so nothing
    cancels but the final sum, even as alpha -> 1/2 sends tau2 to infinity.
    """
    _, _, _, theta_prime, _ = _core(lam, alpha)
    return (2.0 * alpha - 1.0) + (1.0 - alpha) ** 2 / (lam - alpha) - theta_prime


def F3(lam: float, alpha: float) -> float:
    """Second factor of F1, delta + theta'; its root in (2, inf) is tau1'.

    delta + theta' = alpha + (1-a)^2 (|theta| - (lam - a)) / ((lam - a)|theta|),
    and |theta| - (lam - a) = (sq - lam)/2 = -2((1 - 2a) + a*lam)/(sq + lam),
    from disc - lam^2 = -4(1 - 2a + a*lam).  Every term of the fraction is
    then positive, so nothing cancels but the final difference, even as
    alpha -> 0.
    """
    _, sq, theta, _, _ = _core(lam, alpha)
    return alpha - 2.0 * (1.0 - alpha) ** 2 * ((1.0 - 2.0 * alpha) + alpha * lam) / (
        (sq + lam) * (lam - alpha) * -theta
    )


# curve kind -> F; the root of F in (2, inf) is the curve's value
_ROOT_CURVES = {"tau0": F0, "tau2": F2, "tau1_prime": F3}


@lru_cache(maxsize=CURVE_MEMO_SIZE)
def _curve_root(kind: str, alpha: float) -> float:
    """Root of the curve's F in (2, inf) at alpha.

    The upper bracket end doubles until F changes sign against
    F(_LAMBDA_LO); bisection on the sign of F then narrows the bracket
    until its ends are adjacent doubles, and the end with the smaller |F|
    is the root (the lower end on a tie).
    """
    F = _ROOT_CURVES[kind]
    lo, flo = _LAMBDA_LO, F(_LAMBDA_LO, alpha)
    hi, fhi = _BRACKET_START, F(_BRACKET_START, alpha)
    while not fhi * flo < 0:
        hi *= 2.0
        if hi > _BRACKET_CAP:
            raise ValueError("no sign change found while expanding the bracket")
        fhi = F(hi, alpha)
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return hi if abs(fhi) < abs(flo) else lo
        fm = F(mid, alpha)
        if fm == 0.0:
            return mid
        if flo * fm < 0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm


def tau0(alpha: float) -> float:
    """The starlike limit point: unique root of F0 in (2, inf)."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1.0]")
    return _curve_root("tau0", alpha)


def tau2(alpha: float) -> float:
    """Threshold above which every lambda is a limit point: root of F2.

    Defined for alpha < 1/2 only; at alpha = 1/2 the function F2 stays
    positive on all of (2, inf)."""
    if not 0.0 <= alpha < 0.5:
        raise ValueError("alpha must lie in [0, 0.5)")
    return _curve_root("tau2", alpha)


def tau1_interval(alpha: float) -> tuple[float, float]:
    """The interval (tau1, tau1') of certified limit points.

    tau1 coincides with tau0; tau1' is the unique root of F3.  At
    alpha = 0 the upper end is +infinity (returned as math.inf).
    Defined for alpha < alpha_star only."""
    a_star, _ = alpha_star()
    if not 0.0 <= alpha < a_star:
        raise ValueError(f"alpha must lie in [0, {a_star})")
    t1 = _curve_root("tau0", alpha)
    if alpha == 0.0:
        return t1, math.inf
    return t1, _curve_root("tau1_prime", alpha)


def alpha_star() -> tuple[float, float]:
    """The (alpha, lambda) point where the tau1 interval degenerates."""
    return (3.0 - SQRT2) / 7.0, (9.0 + 4.0 * SQRT2) / 7.0


def corollary_crossover() -> tuple[float, float]:
    """The (alpha, lambda) point where tau1' meets tau2."""
    return 1.0 - 2.0 * SQRT5 / 5.0, (-7.0 + 5.0 * SQRT5) / (3.0 * SQRT5 - 5.0)


def cubic_discriminant_d(alpha: float) -> float:
    """Discriminant-style quantity certifying the uniqueness of the F3
    root for alpha < 1/4; negative on (0, 1/4)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    a = alpha
    return (
        -23.0 * a**6
        + 200.0 * a**5
        - 732.0 * a**4
        + 1496.0 * a**3
        - 1886.0 * a**2
        + 1512.0 * a
        - 756.0
        + 216.0 / a
        - 27.0 / a**2
    )


def quartic_P_alpha(lam: float, alpha: float) -> float:
    """Quartic polynomial whose positive root reproduces tau0."""
    a = alpha
    return (
        -(lam**4)
        + 6.0 * a * lam**3
        + (-8.0 * a**2 - 8.0 * a + 4.0) * lam**2
        + (4.0 * a**3 + 12.0 * a**2 - 6.0 * a) * lam
        - 8.0 * a**3
        + 8.0 * a**2
        - 4.0 * a
        + 1.0
    )


# curve kind -> its value at alpha; each raises ValueError outside its
# alpha range
CURVES = {
    "tau0": tau0,
    "tau1": lambda alpha: tau1_interval(alpha)[0],
    "tau1_prime": lambda alpha: tau1_interval(alpha)[1],
    "tau2": tau2,
}

