"""Greedy caterpillar sequences for a target spectral-radius limit, and
the convergence diagnostics that certify the limit."""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Optional, Sequence

from . import alpha_theory as at
from .alpha_theory import AlphaLambda
from .diagonalize import spectral_radius
from .trees import a_alpha_weights, make_caterpillar

# Guards floor() against values that are mathematically integral landing
# one ulp below; a flipped r_j would change the entire tail.
FLOOR_NUDGE = 1e-12

# Saturation cap for the divergence sum.
QK_CAP = 1e300

EPS_BISECT_TOL = 1e-13

_WINDOW_SLACK = 1e-9

# Largest G_k that convergence_report builds, by spine length and by
# vertex count (Python 3.11, one core): k = MAX_K at (0.1, 2.44), 181 893
# vertices, takes 2.2 s; a leafy G_k of MAX_VERTICES vertices (alpha = 0,
# lambda = 60, k = 900) takes 2.1 s and 185 MB.
MAX_K = 100_000
MAX_VERTICES = 1_000_000


@dataclass(frozen=True)
class ShearerSequence:
    """Pendant counts r_1..r_k and spine diagonal values b_1..b_k."""

    params: AlphaLambda
    r: tuple[int, ...]
    b: tuple[float, ...]

    @property
    def k(self) -> int:
        return len(self.r)


@dataclass(frozen=True)
class WindowReport:
    ok: bool
    violations: tuple[tuple[int, str], ...]  # (1-based index, reason)
    in_unit_band: tuple[bool, ...]  # -1 + alpha < b_j, per index
    max_zero_run: int


@dataclass(frozen=True)
class PairingEntry:
    left: int  # 1-based spine indices
    right: int
    product: float
    ok: bool


@dataclass(frozen=True)
class PairingReport:
    ok: bool
    bound: float  # (1 - alpha)^2
    pairs: tuple[PairingEntry, ...]
    runs: tuple[tuple[int, int], ...]  # zero runs as (first, last), 1-based


@dataclass(frozen=True)
class ConvergenceReport:
    alpha: float
    lam: float
    regime: str  # above-tau2 | tau1-interval | exploratory
    boundary: bool  # lambda sits exactly on tau2
    k: tuple[int, ...]
    rho_k: tuple[float, ...]
    gap_k: tuple[float, ...]
    sigma_k: tuple[float, ...]
    Qk: tuple[float, ...]
    c_over_k: tuple[float, ...]
    sequences: tuple[ShearerSequence, ...]  # G_k for each sampled k


def _spine(
    alpha: float,
    lam: float,
    k: int,
    r: Optional[Sequence[int]] = None,
    tp: Optional[float] = None,
) -> Iterator[tuple[int, float]]:
    """Yield (r_j, b_j) for j = 1..k: the spine pivots of A_alpha - lam*I
    on a caterpillar, leaf pivots folded in.

    b_j = phi(b_{j-1}) + r_j*delta, with phi replaced by alpha - lam at
    j = 1; the last vertex has one neighbour fewer, so its value carries
    an extra -alpha.  With r given the counts are replayed; otherwise each
    r_j is the largest count that keeps b_j below tp.  The float
    operations and their order are pinned bit for bit by the golden spine
    values in the tests.

    In exact arithmetic every greedy b_j < tp < 0 and every r_j >= 0.  At
    large lam, cancellation in b_j can break that in floats; a b_j that
    rounds to 0 or a negative r_j raises ValueError instead.
    """
    one_a2 = (1.0 - alpha) ** 2
    d = alpha + one_a2 / (lam - alpha)
    bj = None
    try:
        for j in range(1, k + 1):
            ph = alpha - lam if j == 1 else 2.0 * alpha - lam - one_a2 / bj
            extra = alpha if j == k else 0.0
            if r is None:
                rj = math.floor((tp - ph + extra) / d + FLOOR_NUDGE)
                if rj < 0:
                    raise ValueError(
                        "float breakdown in the spine recurrence: negative"
                        f" pendant count r_{j} = {rj}"
                    )
            else:
                rj = r[j - 1]
            bj = ph - extra + rj * d
            yield rj, bj
    except ZeroDivisionError:
        raise ValueError(
            f"float breakdown in the spine recurrence: b_{j - 1} rounds to 0"
        ) from None


def build_shearer(alpha: float, lam: float, k: int) -> ShearerSequence:
    """Build the greedy caterpillar sequence of length k for (alpha, lam).

    Pendant counts are maximal subject to keeping every spine diagonal
    value below theta_prime; the last spine vertex has one neighbour
    fewer, hence its own floor line.  For k = 1 the first and last lines
    merge: the single vertex carries only its pendant leaves.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    p = AlphaLambda(alpha, lam)
    r, b = zip(*_spine(alpha, lam, k, tp=p.theta_prime))
    return ShearerSequence(params=p, r=r, b=b)


def zero_runs(r: Sequence[int]) -> list[tuple[int, int]]:
    """Maximal runs of zero pendant counts as (first, last), 1-based."""
    runs = []
    start = None
    for i, ri in enumerate(r, start=1):
        if ri == 0 and start is None:
            start = i
        elif ri != 0 and start is not None:
            runs.append((start, i - 1))
            start = None
    if start is not None:
        runs.append((start, len(r)))
    return runs


def verify_window(seq: ShearerSequence) -> WindowReport:
    """Check the window bounds and the floor-maximality of every r_j.

    Interior values must satisfy theta' - delta <= b_j < theta'; the last
    value satisfies theta' - delta - alpha <= b_k < theta' (its floor
    line carries the extra alpha).  The -1 + alpha < b_j band is reported
    separately: it holds throughout only in the lambda > tau2 regime.
    """
    p = seq.params
    tp = p.theta_prime
    d = p.delta
    a = p.alpha
    viol: list[tuple[int, str]] = []
    for j, bj in enumerate(seq.b, start=1):
        lo = tp - d - (a if j == seq.k else 0.0)
        if not bj < tp:
            viol.append((j, f"b_{j} = {bj} not below theta_prime = {tp}"))
        if not bj >= lo - _WINDOW_SLACK:
            viol.append((j, f"b_{j} = {bj} below maximality floor {lo}"))
    in_band = tuple(-1.0 + a < bj for bj in seq.b)
    runs = zero_runs(seq.r)
    max_run = max((last - first + 1 for first, last in runs), default=0)
    return WindowReport(
        ok=not viol,
        violations=tuple(viol),
        in_unit_band=in_band,
        max_zero_run=max_run,
    )


def _past_root(seq: ShearerSequence, j: int, eps: float) -> bool:
    """True iff eps lies at or beyond the smallest positive root of
    b_j(eps), i.e. lambda - eps is at or below rho of the j-prefix.

    The spine values are recomputed with lambda -> lambda - eps and fixed
    pendant counts; if any earlier value turns non-negative, eps has
    already passed that vertex's root (the roots decrease along the
    spine), so the predicate is monotone on all of (0, lam - alpha).
    """
    p = seq.params
    spine = _spine(p.alpha, p.lam - eps, seq.k, r=seq.r)
    return any(bj >= 0.0 for _, bj in islice(spine, j))


def epsilon_roots(seq: ShearerSequence, j_list: Iterable[int]) -> list[float]:
    """Smallest positive roots eps_j of the perturbed spine values.

    Each root is bisected on (0, eps_0) with eps_0 = lam - alpha; the
    roots form a strictly decreasing sequence in j.  eps_k equals the
    true gap lam - rho(G_k), up to the bisection tolerance.
    """
    wanted = list(j_list)
    if not wanted:
        return []
    if min(wanted) < 1 or max(wanted) > seq.k:
        raise ValueError("requested index outside 1..k")
    roots: dict[int, float] = {}
    for j in sorted(set(wanted)):
        lo = 0.0
        hi = seq.params.lam - seq.params.alpha
        while hi - lo > EPS_BISECT_TOL:
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                break
            if _past_root(seq, j, mid):
                hi = mid
            else:
                lo = mid
        roots[j] = 0.5 * (lo + hi)
    return [roots[j] for j in wanted]


def sigma_bound(seq: ShearerSequence) -> float:
    """Root of the tangent line to eps -> b_k(eps) at eps = 0.

    The derivative d b_j / d eps follows from differentiating the spine
    recurrence: each pendant leaf adds (1 - alpha)^2 / (lam - alpha)^2.
    """
    a, lam = seq.params.alpha, seq.params.lam
    one_a2 = (1.0 - a) ** 2
    pend = one_a2 / (lam - a) ** 2
    db = 1.0 + seq.r[0] * pend
    for b_prev, rj in zip(seq.b, seq.r[1:]):
        db = 1.0 + one_a2 / b_prev ** 2 * db + rj * pend
    return -seq.b[-1] / db


def divergence_sum(seq: ShearerSequence) -> float:
    """Telescoped product sum Q_k, accumulated backwards for stability.

    Saturates at QK_CAP instead of overflowing; a saturated value still
    certifies divergence.
    """
    one_a2 = (1.0 - seq.params.alpha) ** 2
    s = 0.0
    for j in range(seq.k - 1):
        s = one_a2 / seq.b[j] ** 2 * (1.0 + s)
        if s > QK_CAP:
            return QK_CAP
    return s


def pairing_check(seq: ShearerSequence) -> PairingReport:
    """Verify the paired products around each zero run.

    For a maximal run r_{j+1} = ... = r_{j+m} = 0 followed by a nonzero
    count, the products b_{j+m-i+1} * b_{j+m+i} must stay below
    (1 - alpha)^2.  Only valid in the interval regime tau1 <= lam < tau1'
    with alpha below the degeneration point.

    Pairs stop before the last spine vertex v_k: it is the root, with one
    neighbour fewer, so b_k carries an extra -alpha and is not a value of
    the interior recurrence the chain argument is about.
    """
    a = seq.params.alpha
    miss = _tau1_miss(a, seq.params.lam)
    if miss is not None:
        raise ValueError(f"pairing argument needs the tau1 regime: {miss}")
    bound = (1.0 - a) ** 2
    pairs: list[PairingEntry] = []
    runs = [run for run in zero_runs(seq.r) if run[1] < seq.k]
    for first, last in runs:
        # pair outward from the run's end; the chain argument certifies
        # one step per zero entry plus the base pair
        m = last - first + 1
        for i in range(1, m + 2):
            left = last - i + 1
            right = last + i
            if left < 1 or right >= seq.k:
                break
            prod = seq.b[left - 1] * seq.b[right - 1]
            pairs.append(
                PairingEntry(left=left, right=right, product=prod, ok=prod < bound)
            )
    ok = all(p.ok for p in pairs)
    return PairingReport(ok=ok, bound=bound, pairs=tuple(pairs), runs=tuple(runs))


def _tau2_miss(alpha: float, lam: float) -> Optional[str]:
    """None if lambda >= tau2(alpha), else the clause saying why not."""
    if not alpha < 0.5:
        return "alpha >= 1/2: no tau2 threshold exists"
    t2 = at.tau2(alpha)
    return None if lam >= t2 else f"lambda < tau2({alpha}) = {t2}"


def _tau1_miss(alpha: float, lam: float) -> Optional[str]:
    """None if tau1 <= lambda < tau1' (alpha < alpha*), else why not."""
    a_star, _ = at.alpha_star()
    if not alpha < a_star:
        return f"alpha >= alpha* = {a_star}: no tau1 interval"
    t1, t1p = at.tau1_interval(alpha)
    return None if t1 <= lam < t1p else f"lambda outside [tau1, tau1') = [{t1}, {t1p})"


def classify_regime(alpha: float, lam: float) -> Optional[str]:
    """Which convergence guarantee covers (alpha, lam), if any."""
    if _tau2_miss(alpha, lam) is None:
        return "above-tau2"
    if _tau1_miss(alpha, lam) is None:
        return "tau1-interval"
    return None


def convergence_report(
    alpha: float,
    lam: float,
    k_samples: Iterable[int],
    exploratory: bool = False,
    tol: float = 1e-12,
) -> ConvergenceReport:
    """Build G_k for each sampled k and measure the approach to lam.

    The reported gap is lam minus the certified lower bracket end of the
    bisection, so it is a strict upper bound on the true gap and stays
    positive even when the spectral radius agrees with lam to within the
    bisection tolerance.  A point outside both certified regimes raises
    ValueError unless exploratory is set, and so do a k above MAX_K and a
    G_k of more than MAX_VERTICES vertices, before any tree is built.
    """
    p = AlphaLambda(alpha, lam)
    ks = sorted(set(k_samples))
    if ks and ks[-1] > MAX_K:
        raise ValueError(f"k must be at most {MAX_K}")
    regime = classify_regime(alpha, lam)
    boundary = alpha < 0.5 and lam == at.tau2(alpha)
    if regime is None:
        if not exploratory:
            raise ValueError(
                "no convergence guarantee covers this point ("
                f"{_tau2_miss(alpha, lam)}; {_tau1_miss(alpha, lam)}); rerun with"
                " --exploratory (exploratory=True) to probe it anyway"
            )
        regime = "exploratory"
    seqs = [build_shearer(alpha, lam, k) for k in ks]
    for seq in seqs:
        n = seq.k + sum(seq.r)
        if n > MAX_VERTICES:
            raise ValueError(
                f"G_{seq.k} would have {n} vertices; at most {MAX_VERTICES} are allowed"
            )
    rho_l, gap_l, sig_l, qk_l, ck_l = [], [], [], [], []
    c_const = p.delta - p.theta_prime
    for k, seq in zip(ks, seqs):
        tree = make_caterpillar(seq.r)
        sr = spectral_radius(a_alpha_weights(tree, alpha), tol, above=lam)
        rho_l.append(sr.value)
        gap_l.append(lam - sr.lower)
        sig_l.append(sigma_bound(seq))
        qk_l.append(divergence_sum(seq))
        ck_l.append(c_const / k)
    return ConvergenceReport(
        alpha=alpha,
        lam=lam,
        regime=regime,
        boundary=boundary,
        k=tuple(ks),
        rho_k=tuple(rho_l),
        gap_k=tuple(gap_l),
        sigma_k=tuple(sig_l),
        Qk=tuple(qk_l),
        c_over_k=tuple(ck_l),
        sequences=tuple(seqs),
    )
