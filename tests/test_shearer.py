"""Greedy caterpillar sequences and their convergence diagnostics."""
from __future__ import annotations

import math
import random
import re
from fractions import Fraction

import pytest

from alpha_limit import shearer
from alpha_limit.alpha_theory import AlphaLambda, alpha_star, tau1_interval, tau2
from alpha_limit.diagonalize import spectral_radius
from alpha_limit.shearer import (
    MAX_K,
    MAX_VERTICES,
    _spine,
    build_shearer,
    classify_regime,
    convergence_report,
    divergence_sum,
    epsilon_roots,
    pairing_check,
    sigma_bound,
    verify_window,
    zero_runs,
)
from alpha_limit.trees import a_alpha_weights, make_caterpillar
from exact_inertia import exact_count_greater, exact_pivots


def test_build_validation():
    with pytest.raises(ValueError):
        build_shearer(0.1, 2.44, 0)
    with pytest.raises(ValueError):
        build_shearer(0.1, 1.9, 5)


def test_convergence_report_hints_the_radius_with_lambda(monkeypatch):
    results = []

    def recording(*args, **kwargs):
        results.append(spectral_radius(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(shearer, "spectral_radius", recording)
    rep = convergence_report(0.1, 2.44, [20, 100, 400])
    assert [r.value for r in results] == list(rep.rho_k)
    # at k = 20 rho is 1.7e-4 below lambda, and the steps in between count;
    # from k = 100 on rho agrees with lambda to the bisection tolerance
    assert results[0].passes < results[0].iterations
    assert all(r.passes <= 25 < r.iterations for r in results[1:])


def test_k1_convention():
    a, lam = 0.1, 2.44
    seq = build_shearer(a, lam, 1)
    p = AlphaLambda(a, lam)
    r1 = math.floor((p.theta_prime - (a - lam) + a) / p.delta + 1e-12)
    assert seq.r == (r1,)
    assert seq.b[0] == pytest.approx(-a + (a - lam) + r1 * p.delta, abs=1e-14)
    pend = (1 - a) ** 2 / (lam - a) ** 2
    assert sigma_bound(seq) == pytest.approx(-seq.b[0] / (1 + r1 * pend), rel=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3, 60])
def test_spine_replay_reproduces_greedy_build(k):
    # the epsilon replay at eps = 0 runs the greedy build's recurrence
    for a, lam in [(0.1, 2.44), (0.01, 2.06), (0.1873, 2.1181)]:
        seq = build_shearer(a, lam, k)
        r, b = zip(*_spine(a, lam, k, r=seq.r))
        assert r == seq.r
        assert [x.hex() for x in b] == [x.hex() for x in seq.b]


def test_spine_matches_diagonalize_small_k():
    # the closed recurrence and the exact congruence diagonalization of
    # A_alpha - lam*I must agree on the spine pivots; tested at small k
    # where double precision still resolves the comparison (the drift
    # amplifies like the divergence sum for large k)
    for a, lam, k in [(0.1, 2.44, 12), (0.01, 2.06, 15), (0.25, 3.0, 10), (0.0, 2.5, 8)]:
        seq = build_shearer(a, lam, k)
        tree = make_caterpillar(seq.r)
        spine = exact_pivots(tree.parent, tree.order, a, Fraction(lam))[:k]
        for bj, dj in zip(seq.b, spine):
            assert float(dj) == pytest.approx(bj, abs=1e-10)


def test_window_and_maximality_hold_after_build():
    for a, lam, k in [(0.1, 2.44, 100), (0.25, 3.0, 60), (0.01, 2.06, 100)]:
        rep = verify_window(build_shearer(a, lam, k))
        assert rep.ok, rep.violations


def test_window_unit_band_distinguishes_regimes():
    # above tau2 every spine value stays in (-1 + alpha, 0)
    rep = verify_window(build_shearer(0.1, 2.44, 100))
    assert all(rep.in_unit_band)
    # in the small-lambda regime the band fails at the start of zero runs
    rep = verify_window(build_shearer(0.01, 2.06, 100))
    assert not rep.in_unit_band[0]
    assert rep.ok  # not a window violation
    assert rep.max_zero_run == 24


def test_maximality_is_tight():
    # incrementing any pendant count pushes the spine value past the
    # repelling fixed point
    seq = build_shearer(0.1, 2.44, 20)
    p = seq.params
    for j in range(seq.k):
        bumped = seq.b[j] + p.delta
        assert bumped >= p.theta_prime - 1e-9


def test_zero_runs_helper():
    assert zero_runs([2, 0, 0, 1, 0]) == [(2, 3), (5, 5)]
    assert zero_runs([0, 0]) == [(1, 2)]
    assert zero_runs([1, 1]) == []


def test_monotone_radii_and_gaps():
    prev_rho = None
    prev_gap = None
    for k in (5, 10, 20, 40):
        seq = build_shearer(0.1, 2.44, k)
        tree = make_caterpillar(seq.r)
        sr = spectral_radius(a_alpha_weights(tree, 0.1), 1e-12)
        gap = 2.44 - sr.value
        if prev_rho is not None:
            assert sr.value > prev_rho
            assert gap < prev_gap
        prev_rho, prev_gap = sr.value, gap


def test_epsilon_roots_decrease_and_bound_gap():
    seq = build_shearer(0.1, 2.44, 50)
    eps = epsilon_roots(seq, range(1, 51))
    assert all(e2 < e1 for e1, e2 in zip(eps, eps[1:]))
    for k in (10, 50):
        sub = build_shearer(0.1, 2.44, k)
        ek = epsilon_roots(sub, [k])[0]
        tree = make_caterpillar(sub.r)
        sr = spectral_radius(a_alpha_weights(tree, 0.1), 1e-13)
        assert 2.44 - sr.value < ek + 1e-12


def test_epsilon_root_is_a_sign_change():
    # just past eps_1 the first spine value turns non-negative
    a, lam = 0.1, 2.44
    seq = build_shearer(a, lam, 5)
    e1 = epsilon_roots(seq, [1])[0]

    def b1(eps):
        lam_e = lam - eps
        delta_e = a + (1 - a) ** 2 / (lam_e - a)
        return a - lam_e + seq.r[0] * delta_e

    assert b1(e1 * (1 + 1e-6)) > 0.0
    assert b1(e1 * (1 - 1e-6)) < 0.0


def test_epsilon_roots_index_validation():
    seq = build_shearer(0.1, 2.44, 5)
    with pytest.raises(ValueError):
        epsilon_roots(seq, [0])
    with pytest.raises(ValueError):
        epsilon_roots(seq, [6])
    assert epsilon_roots(seq, []) == []


def test_sigma_dominates_epsilon():
    prev_e = prev_s = None
    for k in (5, 10, 20, 50):
        seq = build_shearer(0.1, 2.44, k)
        ek = epsilon_roots(seq, [k])[0]
        sk = sigma_bound(seq)
        assert ek <= sk
        if prev_e is not None:
            assert ek < prev_e and sk < prev_s
        prev_e, prev_s = ek, sk


def test_sigma_below_c_over_k_above_tau2():
    a, lam = 0.1, 2.6
    assert lam > tau2(a)
    p = AlphaLambda(a, lam)
    for k in (10, 40, 160):
        seq = build_shearer(a, lam, k)
        assert sigma_bound(seq) <= (p.delta - p.theta_prime) / k


def test_divergence_sum_above_tau2():
    for k in (10, 50, 200):
        seq = build_shearer(0.1, 2.6, k)
        assert divergence_sum(seq) > k - 1


def test_divergence_sum_growth_small_lambda():
    vals = [divergence_sum(build_shearer(0.01, 2.06, k)) for k in (100, 200, 400)]
    assert vals[1] / vals[0] > 1.5
    assert vals[2] / vals[1] > 1.5


def test_divergence_sum_out_of_certified_regime_reports_only():
    # below tau0 no guarantee applies; the construction must still run
    seq = build_shearer(0.0, 2.01, 50)
    q = divergence_sum(seq)
    assert math.isfinite(q) and q >= 0.0


def test_divergence_sum_saturates():
    from alpha_limit.shearer import ShearerSequence

    p = AlphaLambda(0.0, 3.0)
    seq = ShearerSequence(params=p, r=(1,) * 6, b=(-1e-160,) * 6)
    assert divergence_sum(seq) == 1e300


def test_pairing_regime_refusals():
    with pytest.raises(ValueError):
        pairing_check(build_shearer(0.3, 3.5, 20))  # alpha past the degeneration
    with pytest.raises(ValueError):
        pairing_check(build_shearer(0.1, 2.6, 20))  # lambda past tau1'


def test_pairing_structure_on_small_lambda_example():
    seq = build_shearer(0.01, 2.06, 100)
    rep = pairing_check(seq)
    assert rep.ok
    assert rep.bound == pytest.approx(0.9801, abs=1e-12)
    assert (2, 10) in rep.runs
    # the final run touches the built prefix end and is skipped
    assert all(last < 100 for _, last in rep.runs)
    keys = {(e.left, e.right) for e in rep.pairs}
    assert {(10, 11), (9, 12), (1, 20)} <= keys
    # one pair per zero entry plus the base pair, per run
    for first, last in rep.runs:
        m = last - first + 1
        count = sum(1 for e in rep.pairs if first <= e.left <= last + 1 <= e.right)
        assert count <= m + 1


@pytest.mark.parametrize("k", [100, 400, 2320])
def test_pairing_stops_before_the_last_spine_vertex(k):
    # b_k carries the root's extra -alpha, so pairs ending at v_k are no
    # part of the chain argument; at (0.1873, 2.1181) they exceed the bound
    rep = pairing_check(build_shearer(0.1873, 2.1181, k))
    assert rep.ok
    assert all(e.right < k for e in rep.pairs)


def test_published_interior_spine_values():
    seq = build_shearer(0.01, 2.06, 100)
    assert seq.b[20] == pytest.approx(-0.8559245912071809, abs=1e-12)
    assert seq.b[23] == pytest.approx(-1.0026610413051416, abs=1e-12)


def test_example_001_radius_cross_check():
    # independent certificate for the radius at (0.01, 2.06), k=100: an
    # exact rational inertia count places it in
    # (2.0599985378552, 2.0599985378553], and above the earlier reference
    # 2.059998455508993 (8.2e-8 low); the bisection and LAPACK agree
    import numpy as np

    seq = build_shearer(0.01, 2.06, 100)
    tree = make_caterpillar(seq.r)
    M = a_alpha_weights(tree, 0.01)

    def count_above(shift: str) -> int:
        # Sylvester inertia in exact arithmetic with alpha = 1/100
        return exact_count_greater(tree.parent, tree.order, Fraction(1, 100), shift)

    assert count_above("2.0599985378552") == 1
    assert count_above("2.0599985378553") == 0
    assert count_above("2.059998455508993") == 1

    sr = spectral_radius(M, 1e-12)
    lapack_rho = float(np.linalg.eigvalsh(M.dense())[-1])
    assert sr.value == pytest.approx(lapack_rho, abs=1e-9)
    assert sr.value == pytest.approx(2.0599985378552725, abs=1e-9)


def test_classify_regime():
    assert classify_regime(0.1, 2.6) == "above-tau2"
    assert classify_regime(0.01, 2.06) == "tau1-interval"
    assert classify_regime(0.22, 2.4) is None  # inside the open gap
    assert classify_regime(0.6, 5.0) is None  # no thresholds defined


def _regime_by_hand(alpha, lam):
    if alpha < 0.5 and lam >= tau2(alpha):
        return "above-tau2"
    if alpha < alpha_star()[0]:
        t1, t1p = tau1_interval(alpha)
        if t1 <= lam < t1p:
            return "tau1-interval"
    return None


def test_classify_regime_matches_the_thresholds_on_a_grid():
    rng = random.Random(2024)
    points = [(rng.uniform(0.0, 0.6), rng.uniform(2.0, 4.0)) for _ in range(2000)]
    for _ in range(200):
        a = rng.uniform(0.0, 0.5)
        points.append((a, tau2(a)))  # on tau2: covered
        a = rng.uniform(1e-6, alpha_star()[0])
        t1, t1p = tau1_interval(a)
        points += [(a, t1), (a, t1p)]  # tau1 covered, tau1' not
    points += [(0.0, 2.5), (0.5, 3.0), (alpha_star()[0], 2.1)]
    regimes = [classify_regime(a, lam) for a, lam in points if lam > 2.0]
    assert regimes == [_regime_by_hand(a, lam) for a, lam in points if lam > 2.0]
    assert set(regimes) == {"above-tau2", "tau1-interval", None}


@pytest.mark.parametrize(
    "alpha, lam, clauses",
    [
        (0.22, 2.4, [f"lambda < tau2(0.22) = {tau2(0.22)}",
                     "lambda outside [tau1, tau1') = ["]),
        (0.6, 5.0, ["alpha >= 1/2: no tau2 threshold exists",
                    f"alpha >= alpha* = {alpha_star()[0]}: no tau1 interval"]),
    ],
)
def test_refusal_names_each_threshold_family(alpha, lam, clauses):
    with pytest.raises(ValueError) as exc:
        convergence_report(alpha, lam, [10])
    msg = str(exc.value)
    assert all(clause in msg for clause in clauses)
    assert msg.endswith("rerun with --exploratory (exploratory=True) to probe it anyway")


def test_convergence_report_refusal_and_exploratory():
    with pytest.raises(ValueError, match="exploratory"):
        convergence_report(0.22, 2.4, [10])
    rep = convergence_report(0.22, 2.4, [10], exploratory=True)
    assert rep.regime == "exploratory"
    assert len(rep.rho_k) == 1 and rep.gap_k[0] > 0


def test_convergence_report_boundary_flag():
    lam = tau2(0.1)
    rep = convergence_report(0.1, lam, [10])
    assert rep.boundary
    assert rep.regime == "above-tau2"
    rep = convergence_report(0.1, lam + 0.01, [10])
    assert not rep.boundary


def test_convergence_report_fields_and_determinism():
    rep1 = convergence_report(0.1, 2.44, [10, 20])
    rep2 = convergence_report(0.1, 2.44, [20, 10])
    assert rep1 == rep2  # order independent, sorted by k
    assert rep1.k == (10, 20)
    assert rep1.sequences == (build_shearer(0.1, 2.44, 10), build_shearer(0.1, 2.44, 20))
    for g, s, c in zip(rep1.gap_k, rep1.sigma_k, rep1.c_over_k):
        assert 0 < g
        assert g <= s + 1e-12
        assert g < c


def test_sequence_exports():
    seq = build_shearer(0.1, 2.44, 6)
    assert seq.k == len(seq.r) == len(seq.b) == 6


@pytest.mark.parametrize("alpha", [math.nan, math.inf])
def test_non_finite_alpha_is_rejected_before_the_regime_gate(alpha):
    with pytest.raises(ValueError, match=re.escape("alpha must lie in [0, 1)")):
        convergence_report(alpha, 2.5, [10])


@pytest.mark.parametrize("lam", [math.nan, math.inf])
def test_non_finite_lambda_is_rejected(lam):
    with pytest.raises(ValueError, match="finite"):
        convergence_report(0.1, lam, [10], exploratory=True)


@pytest.mark.parametrize(
    "alpha, lam, ks, message, built",
    [
        (0.1, 2.44, [10, MAX_K + 1], f"k must be at most {MAX_K}", 0),
        # r_1 grows like lambda^2 at alpha = 0: r = (999998, 499998, 499996)
        (0.0, 1000.0, [3], f"G_3 would have 1999995 vertices; at most {MAX_VERTICES}", 1),
    ],
)
def test_size_gate_refuses_before_any_tree_is_built(
    monkeypatch, alpha, lam, ks, message, built
):
    calls = {"build_shearer": 0, "make_caterpillar": 0}

    def counting(name):
        fn = getattr(shearer, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(shearer, name, counting(name))
    with pytest.raises(ValueError, match=re.escape(message)):
        convergence_report(alpha, lam, ks)
    assert calls == {"build_shearer": built, "make_caterpillar": 0}

