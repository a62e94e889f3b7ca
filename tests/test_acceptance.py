"""Acceptance gate: the ten headline checks, one test per criterion.

Each test records a single pass/fail line (printed in the terminal
summary by conftest) and then asserts.  Expected values are frozen
literals; tolerances are the stated contract, not what the code happens
to achieve.
"""
from __future__ import annotations

import math
import time

import pytest
from conftest import record_criterion

import alpha_limit as al
from alpha_limit import alpha_theory as at
from alpha_limit.cli import verify_inertia

SQRT2 = math.sqrt(2.0)
SQRT5 = math.sqrt(5.0)

TABLE1 = [
    (0.0, 2.058171027),
    (1e-5, 2.058172154),
    (1e-4, 2.058182294),
    (1e-3, 2.058283826),
    (1e-2, 2.059312583),
    (1e-1, 2.071110742),
    (0.3, 2.111760279),
    (0.5, 2.191487884),
    (0.9, 2.727297451),
    (0.9999, 2.999700025),
]

TABLE2 = [
    (0.0, 2.324717958),
    (1e-5, 2.324726949),
    (1e-4, 2.324807890),
    (1e-3, 2.325619037),
    (1e-2, 2.333907609),
    (1e-1, 2.439018189),
    (0.4, 4.271267076),
    (0.49, 26.75245169),
    (0.499, 251.7502495),
]

TABLE3 = [
    (0.0, 2.058171027, math.inf),
    (1e-5, 2.058172154, 46.43683033),
    (1e-4, 2.058182294, 21.58805390),
    (1e-3, 2.058283826, 10.08827222),
    (1e-2, 2.059312583, 4.810633985),
    (1e-1, 2.071110742, 2.479706668),
    (0.22, 2.092435365, 2.103408681),
    (0.226, 2.093719372, 2.094603459),
]

# 100-entry pendant-count list of the worked example at alpha=0.1,
# lambda=2.44 (frozen from the published run; integer-exact contract)
R_LIST_A01 = [
    4, 0, 1, 1, 1, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
    1, 0, 0, 1, 1, 1, 1, 1, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
    1, 1, 1, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 0, 1, 0, 1, 1, 1, 1,
    1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 1, 1, 1, 1, 1, 1, 1,
    1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 1, 1, 1, 0, 1, 0, 0,
]

# published 3-decimal spine values for the same run: first 16 and last 6
B_HEAD_A01 = [
    -0.555, -0.782, -0.757, -0.724, -0.676, -0.595, -0.879, -0.873,
    -0.866, -0.858, -0.85, -0.841, -0.83, -0.818, -0.804, -0.786,
]
B_TAIL_A01 = [-0.625, -0.499, -0.616, -0.478, -0.546, -0.856]

# 100-entry pendant-count list at alpha=0.01, lambda=2.06: r_1 = 2,
# single pendants at spine positions 11, 35, 60, 84, zero elsewhere
R_LIST_A001 = [0] * 100
R_LIST_A001[0] = 2
for _pos in (11, 35, 60, 84):
    R_LIST_A001[_pos - 1] = 1


def _clear_curve_caches():
    at._curve_root.cache_clear()


def test_criterion_1_table_tau0():
    _clear_curve_caches()
    t0 = time.perf_counter()
    worst = max(abs(al.tau0(a) - v) for a, v in TABLE1)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 1.0
    record_criterion(
        1, ok, f"tau0 table, 10 rows: worst abs err {worst:.2e}, {elapsed:.3f} s"
    )
    assert worst <= 1e-6
    assert elapsed < 1.0


def test_criterion_2_table_tau2():
    _clear_curve_caches()
    t0 = time.perf_counter()
    worst_abs = 0.0
    worst_rel = 0.0
    for a, v in TABLE2:
        got = al.tau2(a)
        if v > 100:
            worst_rel = max(worst_rel, abs(got - v) / v)
        else:
            worst_abs = max(worst_abs, abs(got - v))
    elapsed = time.perf_counter() - t0
    ok = worst_abs <= 1e-6 and worst_rel <= 1e-8 and elapsed < 1.0
    record_criterion(
        2,
        ok,
        f"tau2 table, 9 rows: worst abs {worst_abs:.2e}, "
        f"rel (251.75 row) {worst_rel:.2e}, {elapsed:.3f} s",
    )
    assert worst_abs <= 1e-6
    assert worst_rel <= 1e-8
    assert elapsed < 1.0


def test_criterion_3_table_tau1():
    _clear_curve_caches()
    t0 = time.perf_counter()
    worst = 0.0
    worst_row = None
    for a, lo, hi in TABLE3:
        g_lo, g_hi = al.tau1_interval(a)
        err = abs(g_lo - lo)
        if not math.isinf(hi):
            err = max(err, abs(g_hi - hi))
        else:
            err = err if math.isinf(g_hi) else math.inf
        if err > worst:
            worst, worst_row = err, a
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 1.0
    record_criterion(
        3,
        ok,
        f"tau1 interval table, 8 rows: worst abs err {worst:.2e} "
        f"(at alpha={worst_row}), {elapsed:.3f} s",
    )
    assert elapsed < 1.0
    # the bottom row's published pair belongs to alpha = 0.226, not to the
    # printed 0.2265409 (2e-9 below alpha*, where the interval collapses to
    # lambda*); test_alpha_theory.test_tau1_bottom_row_alpha_0226 pins both
    assert worst <= 1e-6


def test_criterion_4_constants():
    a_star, lam_star = al.alpha_star()
    e1 = abs(a_star - 0.2265409196609)
    e2 = abs(lam_star - 2.0938363213560)
    ca, cl = al.corollary_crossover()
    e3 = abs(ca - 0.105572809)
    e4 = abs(cl - 2.4472135954)
    e5 = abs(al.cubic_discriminant_d(0.25) - (-176823.0 / 4096.0))
    ok = e1 <= 1e-10 and e2 <= 1e-10 and e3 <= 1e-8 and e4 <= 1e-8 and e5 <= 1e-12
    record_criterion(
        4,
        ok,
        f"constants: alpha* {e1:.1e}, lambda* {e2:.1e}, "
        f"crossover ({e3:.1e}, {e4:.1e}), d(1/4) {e5:.1e}",
    )
    assert e1 <= 1e-10 and e2 <= 1e-10
    assert e3 <= 1e-8 and e4 <= 1e-8
    assert e5 <= 1e-12


def test_criterion_5_example_alpha_01():
    t0 = time.perf_counter()
    seq = al.build_shearer(0.1, 2.44, 100)
    r_exact = list(seq.r) == R_LIST_A01
    b_err = max(
        max(abs(seq.b[i] - B_HEAD_A01[i]) for i in range(len(B_HEAD_A01))),
        max(
            abs(seq.b[100 - len(B_TAIL_A01) + i] - B_TAIL_A01[i])
            for i in range(len(B_TAIL_A01))
        ),
    )
    tree = al.make_caterpillar(seq.r)
    sr = al.spectral_radius(al.a_alpha_weights(tree, 0.1), 1e-12)
    gap = 2.44 - sr.lower
    rho_err = abs(sr.value - 2.4399999999999995)
    elapsed = time.perf_counter() - t0
    ok = r_exact and b_err <= 5e-4 and 0 < gap < 1e-10 and rho_err <= 1e-9 and elapsed < 1.0
    record_criterion(
        5,
        ok,
        f"example (0.1, 2.44): r exact={r_exact}, b err {b_err:.1e}, "
        f"gap {gap:.1e}, rho err {rho_err:.1e}, {elapsed:.3f} s",
    )
    assert r_exact
    assert b_err <= 5e-4
    assert 0 < gap < 1e-10
    assert rho_err <= 1e-9
    assert elapsed < 1.0


def test_criterion_6_example_alpha_001():
    seq = al.build_shearer(0.01, 2.06, 100)
    r_exact = list(seq.r) == R_LIST_A001
    b1_err = abs(seq.b[0] - (-1.0738048780487808))
    pr = al.pairing_check(seq)
    by_pair = {(e.left, e.right): e.product for e in pr.pairs}
    expected_products = {
        (10, 11): 0.9780973959081004,
        (9, 12): 0.9768462311806901,
        (1, 20): 0.8888252835590791,
    }
    prod_err = max(
        abs(by_pair[key] - val) for key, val in expected_products.items()
    )
    below_bound = all(by_pair[key] < 0.9801 for key in expected_products)
    tree = al.make_caterpillar(seq.r)
    sr = al.spectral_radius(al.a_alpha_weights(tree, 0.01), 1e-12)
    rho_err = abs(sr.value - 2.0599985378552725)
    ok = (
        r_exact
        and b1_err <= 1e-12
        and prod_err <= 1e-10
        and below_bound
        and rho_err <= 1e-9
    )
    record_criterion(
        6,
        ok,
        f"example (0.01, 2.06): r exact={r_exact}, b_1 err {b1_err:.1e}, "
        f"products err {prod_err:.1e}, rho err {rho_err:.1e}",
    )
    assert r_exact
    assert b1_err <= 1e-12
    assert prod_err <= 1e-10
    assert below_bound
    # reference radius: a 50-digit dense eigensolve rounded to a double; the
    # old 2.059998455508993 lay 8.2e-8 below it.  Exact rational inertia
    # counts pin it (test_shearer.test_example_001_radius_cross_check)
    assert rho_err <= 1e-9


def test_criterion_7_inertia_oracle():
    t0 = time.perf_counter()
    ok = verify_inertia(trials=200, log=lambda *_: None)
    elapsed = time.perf_counter() - t0
    passed = ok and elapsed < 10.0
    record_criterion(
        7, passed, f"inertia vs dense oracle, 200 random trees: {elapsed:.2f} s"
    )
    assert ok
    assert elapsed < 10.0


def test_criterion_8_error_decay():
    ks = [10, 20, 40, 80, 160]
    all_below = True
    halving = True
    details = []
    for a, lam in [(0.1, 2.5), (0.25, 3.0)]:
        rep = al.convergence_report(a, lam, ks)
        for g, c in zip(rep.gap_k, rep.c_over_k):
            if not g < c:
                all_below = False
        # one-sided halving: the gap at least halves per doubling (slack
        # 1.3) until it reaches the bisection resolution floor
        for i in range(len(ks) - 1):
            g, g2 = rep.gap_k[i], rep.gap_k[i + 1]
            if not g2 <= max(1.3 * g / 2.0, 1e-12):
                halving = False
        details.append(f"({a},{lam}) gaps {['%.1e' % g for g in rep.gap_k]}")
    ok = all_below and halving
    record_criterion(
        8,
        ok,
        "error decay: gap_k < C/k at all samples="
        f"{all_below}, halving per doubling={halving}",
    )
    assert all_below, details
    assert halving, details


def test_criterion_9_identity_suite():
    worst_fact = 0.0
    worst_theta = 0.0
    for i in range(100):
        lam = 2.01 + i * (50.0 - 2.01) / 99
        for j in range(20):
            a = j * 0.49 / 19
            f1 = al.F1(lam, a)
            worst_fact = max(
                worst_fact,
                abs(f1 + al.F0(lam, a) * al.F3(lam, a)) / (1.0 + abs(f1)),
            )
            p = al.AlphaLambda(a, lam)
            worst_theta = max(
                worst_theta,
                abs(p.theta * p.theta_prime - (1 - a) ** 2) / (1 - a) ** 2,
                abs(p.theta + p.theta_prime - (2 * a - lam)) / abs(2 * a - lam),
            )
    worst_quartic = max(
        abs(al.quartic_P_alpha(al.tau0(a), a)) for a in (0.0, 0.1, 0.3, 0.5)
    )
    ok = worst_fact <= 1e-10 and worst_theta <= 1e-10 and worst_quartic <= 1e-8
    record_criterion(
        9,
        ok,
        f"identities: factorization {worst_fact:.1e}, fixed-point algebra "
        f"{worst_theta:.1e}, quartic residual {worst_quartic:.1e}",
    )
    assert worst_fact <= 1e-10
    assert worst_theta <= 1e-10
    assert worst_quartic <= 1e-8


def test_criterion_10_starlike_limit():
    close = True
    monotone = True
    worst = 0.0
    for a in (0.0, 0.1, 0.3):
        results = []
        for n in (10, 50, 200):
            tree = al.make_starlike_1nn(n)
            results.append(al.spectral_radius(al.a_alpha_weights(tree, a), 1e-12))
        # strict increase where the certified brackets separate; past
        # n = 50 the radii agree with tau0 to below double resolution,
        # so overlapping brackets count as increase-within-resolution
        for prev, nxt in zip(results, results[1:]):
            certified = prev.upper < nxt.lower
            widths = (prev.upper - prev.lower) + (nxt.upper - nxt.lower)
            if not (certified or nxt.value >= prev.value - widths):
                monotone = False
        gap = al.tau0(a) - results[-1].value
        worst = max(worst, abs(gap))
        if abs(gap) > 5e-3:
            close = False
    ok = close and monotone
    record_criterion(
        10,
        ok,
        f"starlike trees: |tau0 - rho(n=200)| <= {worst:.1e}, "
        f"monotone over n in (10, 50, 200)={monotone}",
    )
    assert close
    assert monotone
