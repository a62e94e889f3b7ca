"""Closed-form alpha-lambda analysis: fixed points of the rational
recurrence, the functions F0..F3, the threshold curves tau0, tau1,
tau1', tau2, and related constants and identities."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

SQRT2 = math.sqrt(2.0)
SQRT5 = math.sqrt(5.0)

# memoization key granularity for the threshold curves
_ALPHA_KEY_DIGITS = 12

# lower end of every lambda bracket; all F's are defined and signed there
_LAMBDA_LO = 2.0 + 1e-9

# the upper bracket end starts here and doubles up to the cap; bisection
# stops at this width, then this many Newton steps polish the root
_BRACKET_START = 8.0
_BRACKET_CAP = 2.0**40
_BISECT_TOL = 1e-13
_NEWTON_STEPS = 3


def _check_alpha(alpha: float, hi_open: float = 1.0, hi_closed: bool = False):
    ok = 0.0 <= alpha < hi_open or (hi_closed and alpha == hi_open)
    if not ok:
        upper = f"{hi_open}]" if hi_closed else f"{hi_open})"
        raise ValueError(f"alpha must lie in [0, {upper}")


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


@dataclass(frozen=True)
class AlphaLambda:
    """A validated (alpha, lambda) pair with its derived quantities."""

    alpha: float
    lam: float
    delta: float = field(init=False)
    disc: float = field(init=False)
    theta: float = field(init=False)
    theta_prime: float = field(init=False)

    def __post_init__(self):
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError("alpha must lie in [0, 1)")
        if not math.isfinite(self.lam):
            raise ValueError("lambda must be a finite number")
        if self.lam <= 2.0:
            raise ValueError("lambda must exceed 2")
        if self.lam >= 2.0**512:  # where (2*alpha - lam)**2 in _core overflows
            raise ValueError("lambda must be below 2**512 (about 1.34e154)")
        disc, _, theta, theta_prime, delta = _core(self.lam, self.alpha)
        object.__setattr__(self, "disc", disc)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "theta_prime", theta_prime)
        object.__setattr__(self, "delta", delta)


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
    """Window-containment function; its root in (2, inf) is tau2."""
    _, _, _, theta_prime, delta = _core(lam, alpha)
    return -1.0 + alpha + delta - theta_prime


def F3(lam: float, alpha: float) -> float:
    """Second factor of F1; its root in (2, inf) is tau1'."""
    _, _, _, theta_prime, delta = _core(lam, alpha)
    return delta + theta_prime


# curve kind -> (F, dF/dlam given sq = sqrt(disc)); the root of F in
# (2, inf) is the curve's value
_ROOT_CURVES = {
    "tau0": (
        F0,
        lambda lam, alpha, sq: -((1.0 - alpha) ** 2) / (lam - alpha) ** 2
        - (lam - 2.0 * alpha) / sq,
    ),
    "tau2": (
        F2,
        lambda lam, alpha, sq: -((1.0 - alpha) ** 2) / (lam - alpha) ** 2
        + 0.5
        - (lam - 2.0 * alpha) / (2.0 * sq),
    ),
    "tau1_prime": (
        F3,
        lambda lam, alpha, sq: -((1.0 - alpha) ** 2) / (lam - alpha) ** 2
        - 0.5
        + (lam - 2.0 * alpha) / (2.0 * sq),
    ),
}


@lru_cache(maxsize=None)
def _curve_root(kind: str, key: float) -> float:
    """Root of the curve's F in (2, inf) at alpha = key.

    The upper bracket end doubles until F changes sign against
    F(_LAMBDA_LO); bisection narrows the bracket, then Newton steps
    polish its midpoint.  A Newton step longer than four bracket widths
    is discarded and ends the polish, so the polish cannot diverge.
    """
    F, dF = _ROOT_CURVES[kind]
    lo, flo = _LAMBDA_LO, F(_LAMBDA_LO, key)
    hi = _BRACKET_START
    while not F(hi, key) * flo < 0:
        hi *= 2.0
        if hi > _BRACKET_CAP:
            raise ValueError("no sign change found while expanding the bracket")
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fm = F(mid, key)
        if fm == 0.0:
            return mid
        if flo * fm < 0:
            hi = mid
        else:
            lo, flo = mid, fm
    x = 0.5 * (lo + hi)
    span = max(hi - lo, _BISECT_TOL)
    for _ in range(_NEWTON_STEPS):
        dfx = dF(x, key, _core(x, key)[1])
        if dfx == 0.0:
            break
        xn = x - F(x, key) / dfx
        if abs(xn - x) > 4 * span:
            break
        x = xn
    return x


def _root(kind: str, alpha: float) -> float:
    return _curve_root(kind, round(alpha, _ALPHA_KEY_DIGITS))


def tau0(alpha: float) -> float:
    """The starlike limit point: unique root of F0 in (2, inf)."""
    _check_alpha(alpha, 1.0, hi_closed=True)
    return _root("tau0", alpha)


def tau2(alpha: float) -> float:
    """Threshold above which every lambda is a limit point: root of F2.

    Defined for alpha < 1/2 only; at alpha = 1/2 the function F2 stays
    positive on all of (2, inf)."""
    _check_alpha(alpha, 0.5)
    return _root("tau2", alpha)


def tau1_interval(alpha: float) -> tuple[float, float]:
    """The interval (tau1, tau1') of certified limit points.

    tau1 coincides with tau0; tau1' is the unique root of F3.  At
    alpha = 0 the upper end is +infinity (returned as math.inf).
    Defined for alpha < alpha_star only."""
    a_star, _ = alpha_star()
    if not 0.0 <= alpha < a_star:
        raise ValueError(f"alpha must lie in [0, {a_star})")
    t1 = tau0(alpha)
    if alpha == 0.0:
        return t1, math.inf
    return t1, _root("tau1_prime", alpha)


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

