"""Closed-form alpha-lambda analysis: fixed points, the F functions,
threshold curves, constants and identities."""
from __future__ import annotations

import math
import struct
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal, localcontext

import pytest

from alpha_limit import (
    AlphaLambda,
    F0,
    F1,
    F2,
    F3,
    alpha_star,
    corollary_crossover,
    cubic_discriminant_d,
    phi,
    quartic_P_alpha,
    tau0,
    tau1_interval,
    tau2,
)
from alpha_limit.cli import TABLE_ALPHAS
from alpha_limit.diagonalize import spectral_radius
from alpha_limit.trees import a_alpha_weights, make_starlike_1nn

SQRT5 = math.sqrt(5.0)


def test_alpha_lambda_validation():
    with pytest.raises(ValueError):
        AlphaLambda(1.0, 3.0)
    with pytest.raises(ValueError):
        AlphaLambda(-0.1, 3.0)
    with pytest.raises(ValueError):
        AlphaLambda(0.1, 2.0)
    # (2*alpha - lambda)**2 overflows from 2**512 on; below it lambda is
    # accepted as before
    assert math.isfinite(AlphaLambda(0.1, math.nextafter(2.0**512, 0.0)).theta)
    for lam in (2.0**512, 1e300):
        with pytest.raises(ValueError, match=r"lambda must be below 2\*\*512"):
            AlphaLambda(0.1, lam)


def test_alpha_lambda_is_a_read_only_value():
    p = AlphaLambda(0.1, 2.44)
    assert p == AlphaLambda(0.1, 2.44) == AlphaLambda(alpha=0.1, lam=2.44)
    assert hash(p) == hash(AlphaLambda(0.1, 2.44))
    with pytest.raises(AttributeError):
        p.lam = 2.5
    with pytest.raises(AttributeError):
        p.extra = 1.0


def test_fixed_point_algebra():
    for a, lam in [(0.0, 2.1), (0.1, 2.44), (0.3, 5.0), (0.49, 40.0)]:
        p = AlphaLambda(a, lam)
        assert p.disc > 0
        assert p.theta < p.theta_prime < 0
        assert p.theta * p.theta_prime == pytest.approx((1 - a) ** 2, rel=1e-10)
        assert p.theta + p.theta_prime == pytest.approx(2 * a - lam, rel=1e-10)
        assert phi(p.theta, p) == pytest.approx(p.theta, rel=1e-10)
        assert phi(p.theta_prime, p) == pytest.approx(p.theta_prime, rel=1e-10)


def test_phi_basic_values_and_domain():
    p = AlphaLambda(0.0, 3.0)
    assert phi(-1.0, p) == pytest.approx(-2.0)
    with pytest.raises(ValueError):
        phi(0.0, p)


def test_phi_iteration_converges_to_theta():
    p = AlphaLambda(0.1, 2.5)
    t = p.alpha - p.lam
    prev_dist = abs(t - p.theta)
    for _ in range(10000):
        t = phi(t, p)
        dist = abs(t - p.theta)
        assert dist <= prev_dist + 1e-15
        prev_dist = dist
    assert t == pytest.approx(p.theta, abs=1e-14)


def test_F0_examples():
    assert F0(math.sqrt(2.0 + SQRT5), 0.0) == pytest.approx(0.0, abs=1e-12)
    assert F0(3.0, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert F0(2.5, 0.1) < 0.0


def test_F2_examples_and_limits():
    a = 0.25
    assert F2(tau2(a), a) == pytest.approx(0.0, abs=1e-12)
    assert tau2(a) == pytest.approx(2.795171086, abs=1e-6)
    # limit toward lambda = 2 from above
    assert F2(2.0 + 1e-9, a) == pytest.approx(a + (1 - a) ** 2 / (2 - a), abs=1e-4)
    # limit toward infinity
    assert F2(1e9, a) == pytest.approx(-1.0 + 2.0 * a, abs=1e-6)


def test_F3_examples():
    t1p = tau1_interval(0.01)[1]
    assert t1p == pytest.approx(4.810633985, abs=1e-6)
    assert F3(t1p, 0.01) == pytest.approx(0.0, abs=1e-12)
    assert F3(1e9, 0.01) == pytest.approx(0.01, abs=1e-6)
    assert F3(tau0(0.1), 0.1) < 0.0


def test_F1_examples():
    assert F1(2.2, 0.01) < 0.0
    for a in (0.01, 0.1, 0.2):
        assert F1(tau0(a), a) == pytest.approx(0.0, abs=1e-9)


def test_factorization_identity_grid():
    for i in range(100):
        lam = 2.01 + i * (50.0 - 2.01) / 99
        for j in range(20):
            a = j * 0.49 / 19
            f1 = F1(lam, a)
            assert abs(f1 + F0(lam, a) * F3(lam, a)) <= 1e-10 * (1.0 + abs(f1))


def test_tau0_monotone_in_alpha():
    grid = [i / 40 for i in range(41)]
    vals = [tau0(a) for a in grid]
    assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))
    assert vals[0] == pytest.approx(math.sqrt(2.0 + SQRT5), abs=1e-10)


def test_sign_structure_around_roots():
    a = 0.1
    t0 = tau0(a)
    t2 = tau2(a)
    t1, t1p = tau1_interval(a)
    for i in range(1, 51):
        assert F0(t0 + i * 0.2, a) < 0.0
        assert F0(2.0 + (t0 - 2.0) * i / 51.0, a) > 0.0
        assert F2(t2 + i * 0.2, a) < 0.0
        assert F2(2.0 + (t2 - 2.0) * i / 51.0, a) > 0.0
        # F1 negative exactly between tau1 and tau1'
        inside = t1 + (t1p - t1) * i / 51.0
        assert F1(inside, a) < 0.0
        assert F1(t1p + i * 0.2, a) > 0.0
        assert F1(2.0 + (t1 - 2.0) * i / 51.0, a) > 0.0


def test_threshold_ordering():
    a_star_val, _ = alpha_star()
    for a in (0.01, 0.1, 0.2):
        t1, t1p = tau1_interval(a)
        assert t1 == tau0(a)
        assert t1 < t1p
    # above the crossover the certified intervals leave a gap
    assert tau1_interval(0.22)[1] == pytest.approx(2.103408681, abs=1e-6)
    assert tau2(0.22) == pytest.approx(2.692120306, abs=1e-6)
    assert tau1_interval(0.22)[1] < tau2(0.22)


def test_tau_domain_errors():
    assert tau0(0.0) > 2.0 and tau0(1.0) > 2.0  # both ends of [0, 1] included
    assert tau2(0.0) > 2.0
    for alpha in (1.5, -1e-300, math.nan):
        with pytest.raises(ValueError, match=r"^alpha must lie in \[0, 1\.0\]$"):
            tau0(alpha)
    for alpha in (0.5, math.nan):
        with pytest.raises(ValueError, match=r"^alpha must lie in \[0, 0\.5\)$"):
            tau2(alpha)
    a_star_val, _ = alpha_star()
    with pytest.raises(ValueError) as exc:
        tau1_interval(a_star_val)
    assert str(exc.value) == f"alpha must lie in [0, {a_star_val})"


def test_tau1_interval_alpha_zero_is_unbounded():
    t1, t1p = tau1_interval(0.0)
    assert t1 == pytest.approx(math.sqrt(2.0 + SQRT5), abs=1e-10)
    assert math.isinf(t1p)


def test_tau1_bottom_row_alpha_0226():
    # the published bottom-row pair (2.093719372, 2.094603459) is
    # reproduced at alpha = 0.226, not at the printed alpha = 0.2265409;
    # at 0.2265409 both endpoints collapse toward lambda* = 2.09383632...
    t1, t1p = tau1_interval(0.226)
    assert t1 == pytest.approx(2.093719372, abs=1e-6)
    assert t1p == pytest.approx(2.094603459, abs=1e-6)
    t1, t1p = tau1_interval(0.2265409)
    assert t1 == pytest.approx(2.0938363171016454, abs=1e-9)
    assert t1p == pytest.approx(2.093836349160891, abs=1e-9)


def test_constants():
    a_star_val, lam_star = alpha_star()
    assert a_star_val == pytest.approx((3.0 - math.sqrt(2.0)) / 7.0, abs=0)
    assert F0(lam_star, a_star_val) == pytest.approx(0.0, abs=1e-9)
    assert F3(lam_star, a_star_val) == pytest.approx(0.0, abs=1e-9)
    ca, cl = corollary_crossover()
    assert F2(cl, ca) == pytest.approx(0.0, abs=1e-10)
    assert F3(cl, ca) == pytest.approx(0.0, abs=1e-10)
    assert cl == pytest.approx((ca * ca + 3 * ca - 2) / (-1 + 3 * ca), abs=1e-12)


def test_cubic_discriminant():
    # at alpha = 1/8 the 216/a - 27/a^2 part vanishes
    a = 0.125
    assert 216.0 / a - 27.0 / a**2 == 0.0
    poly_only = (
        -23.0 * a**6
        + 200.0 * a**5
        - 732.0 * a**4
        + 1496.0 * a**3
        - 1886.0 * a**2
        + 1512.0 * a
        - 756.0
    )
    assert cubic_discriminant_d(a) == pytest.approx(poly_only, abs=0)
    assert cubic_discriminant_d(0.25) == pytest.approx(-176823.0 / 4096.0, abs=1e-12)
    for i in range(1, 101):
        assert cubic_discriminant_d(0.25 * i / 101.0) < 0.0
    with pytest.raises(ValueError):
        cubic_discriminant_d(0.0)


def test_quartic():
    for lam in (2.1, 2.5, 3.0):
        assert quartic_P_alpha(lam, 0.0) == pytest.approx(
            -(lam**4) + 4 * lam**2 + 1, abs=1e-12
        )
    assert quartic_P_alpha(math.sqrt(2.0 + SQRT5), 0.0) == pytest.approx(
        0.0, abs=1e-10
    )
    for a in (0.1, 0.3, 0.5):
        assert quartic_P_alpha(tau0(a), a) == pytest.approx(0.0, abs=1e-9)


def test_threshold_curve_residuals():
    assert abs(F0(tau0(0.3), 0.3)) <= 1e-10
    assert abs(F2(tau2(0.3), 0.3)) <= 1e-10
    assert abs(F3(tau1_interval(0.1)[1], 0.1)) <= 1e-10


# every alpha that `tables all` prints, and the default grid of `sweep`
# (50 points from 0 to 0.49)
CURVE_ALPHAS = sorted(
    set(sum(TABLE_ALPHAS.values(), [])) | {0.0 + i * (0.49 / 49) for i in range(50)}
)


def _curve_values():
    """(kind, F, tau, alpha) for each curve at each CURVE_ALPHAS value in
    its range: 58 tau0, 55 tau2 and 26 finite tau1' values."""
    a_star, _ = alpha_star()
    for a in CURVE_ALPHAS:
        yield "tau0", F0, tau0(a), a
        if a < 0.5:
            yield "tau2", F2, tau2(a), a
        if 0.0 < a < a_star:
            yield "tau1_prime", F3, tau1_interval(a)[1], a


def test_each_curve_value_sits_on_a_sign_change_of_its_F():
    def sign(x):
        return (x > 0.0) - (x < 0.0)

    off = []
    for kind, F, t, a in _curve_values():
        s = sign(F(t, a))
        neighbours = (math.nextafter(t, 0.0), math.nextafter(t, math.inf))
        if s != 0 and all(sign(F(x, a)) == s for x in neighbours):
            off.append((kind, a, t))
    assert off == []


def _decimal_root(kind: str, alpha: float) -> Decimal:
    """The curve's root in (2, inf), by bisection on F in 60-digit
    decimal arithmetic at the exact binary alpha."""
    with localcontext() as ctx:
        ctx.prec = 60
        a = Decimal(alpha)

        def F(lam):
            sq = ((2 * a - lam) ** 2 - 4 * (1 - a) ** 2).sqrt()
            theta_prime = 2 * (1 - a) ** 2 / ((2 * a - lam) - sq)
            delta = a + (1 - a) ** 2 / (lam - a)
            if kind == "tau0":
                return delta - sq
            if kind == "tau2":
                return -1 + a + delta - theta_prime
            return delta + theta_prime

        lo = 2 + Decimal("1e-20")
        positive_lo = F(lo) > 0
        hi = Decimal(8)
        while (F(hi) > 0) == positive_lo:
            hi *= 2
        while hi - lo > hi * Decimal("1e-50"):
            mid = (lo + hi) / 2
            if (F(mid) > 0) == positive_lo:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


def test_curve_values_against_a_decimal_reference():
    def doubles_apart(x: float, y: float) -> int:  # both positive
        return abs(struct.unpack("<q", struct.pack("<d", x))[0]
                   - struct.unpack("<q", struct.pack("<d", y))[0])

    worst = {"tau0": 0, "tau2": 0, "tau1_prime": 0}
    for kind, _, t, a in _curve_values():
        # float() of a Decimal rounds correctly
        worst[kind] = max(worst[kind], doubles_apart(t, float(_decimal_root(kind, a))))
    # the float F of tau2 and tau1' is noisy near the root, so those
    # values are not all correctly rounded; these bounds only keep them
    # from drifting further
    assert worst["tau0"] <= 1
    assert worst["tau2"] <= 28
    assert worst["tau1_prime"] <= 493


def test_concurrent_calls_match_serial():
    alphas = [i / 37 for i in range(18)]
    serial = [tau0(a) for a in alphas]
    with ThreadPoolExecutor(max_workers=8) as ex:
        for _ in range(3):
            concurrent = list(ex.map(tau0, alphas))
            assert concurrent == serial


def test_starlike_convergence_large_n():
    # the linear-time congruence pass on T_{1,n,n} evaluates the same
    # scalar recurrence as the closed-form analysis, so the explicit tree
    # stays cheap even at n = 10^4
    for a in (0.0, 0.1, 0.3):
        tree = make_starlike_1nn(10000)
        rho = spectral_radius(a_alpha_weights(tree, a), 1e-10).value
        assert abs(tau0(a) - rho) < 1e-4
