"""Greedy caterpillar sequences for a target spectral-radius limit, and
the convergence diagnostics that certify the limit."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from . import alpha_theory as at
from .alpha_theory import AlphaLambda, phi
from .diagonalize import spectral_radius
from .trees import CaterpillarSpec, a_alpha_weights, make_caterpillar

# Guards floor() against values that are mathematically integral landing
# one ulp below; a flipped r_j would change the entire tail.
FLOOR_NUDGE = 1e-12

# Saturation cap for the divergence sum.
QK_CAP = 1e300

EPS_BISECT_TOL = 1e-13

_WINDOW_SLACK = 1e-9


@dataclass(frozen=True)
class ShearerSequence:
    """Pendant counts r_1..r_k, spine diagonal values b_1..b_k and the
    derivative d b_j / d eps at eps = 0."""

    params: AlphaLambda
    r: tuple[int, ...]
    b: tuple[float, ...]
    db: tuple[float, ...]

    @property
    def k(self) -> int:
        return len(self.r)

    def caterpillar_spec(self) -> CaterpillarSpec:
        return CaterpillarSpec(self.r)

    def to_json(self) -> str:
        return json.dumps(
            {
                "alpha": self.params.alpha,
                "lambda": self.params.lam,
                "k": self.k,
                "r": list(self.r),
                "b": list(self.b),
            }
        )

    def compact_text(self) -> str:
        return "[" + ", ".join(str(ri) for ri in self.r) + "]"


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

    def to_csv(self) -> str:
        lines = ["# alpha-limit v1", "k,rho,gap,sigma,c_over_k,Qk"]
        for i, ki in enumerate(self.k):
            lines.append(
                f"{ki},{self.rho_k[i]!r},{self.gap_k[i]!r},"
                f"{self.sigma_k[i]!r},{self.c_over_k[i]!r},{self.Qk[i]!r}"
            )
        return "\n".join(lines) + "\n"


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
    d = p.delta
    tp = p.theta_prime
    one_a2 = (1.0 - alpha) ** 2
    pend = one_a2 / (lam - alpha) ** 2  # per-pendant derivative drift
    r: list[int] = []
    b: list[float] = []
    db: list[float] = []

    def push(rj: int, bj: float, dbj: float):
        if rj < 0:
            raise RuntimeError(
                f"negative pendant count r_{len(r) + 1} = {rj}; recurrence invariant violated"
            )
        r.append(rj)
        b.append(bj)
        db.append(dbj)

    if k == 1:
        r1 = math.floor((tp - (alpha - lam) + alpha) / d + FLOOR_NUDGE)
        push(r1, -alpha + (alpha - lam) + r1 * d, 1.0 + r1 * pend)
    else:
        r1 = math.floor((tp - (alpha - lam)) / d + FLOOR_NUDGE)
        push(r1, alpha - lam + r1 * d, 1.0 + r1 * pend)
        for _ in range(2, k):
            ph = phi(b[-1], p)
            rj = math.floor((tp - ph) / d + FLOOR_NUDGE)
            bj = ph + rj * d
            dbj = 1.0 + one_a2 / b[-1] ** 2 * db[-1] + rj * pend
            push(rj, bj, dbj)
        ph = phi(b[-1], p)
        rk = math.floor((tp - ph + alpha) / d + FLOOR_NUDGE)
        bk = -alpha + ph + rk * d
        dbk = 1.0 + one_a2 / b[-1] ** 2 * db[-1] + rk * pend
        push(rk, bk, dbk)
    return ShearerSequence(params=p, r=tuple(r), b=tuple(b), db=tuple(db))


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
    a = seq.params.alpha
    lam = seq.params.lam - eps
    one_a2 = (1.0 - a) ** 2
    d = a + one_a2 / (lam - a)
    r = seq.r
    if seq.k == 1:
        return -a + (a - lam) + r[0] * d >= 0.0
    b = a - lam + r[0] * d
    if j == 1:
        return b >= 0.0
    for i in range(1, j):
        if b >= 0.0:
            return True
        b = 2.0 * a - lam - one_a2 / b + r[i] * d
        if i == seq.k - 1:
            b -= a
    return b >= 0.0


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
    """Root of the tangent line to eps -> b_k(eps) at eps = 0."""
    return -seq.b[-1] / seq.db[-1]


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
    """
    a = seq.params.alpha
    lam = seq.params.lam
    a_star, _ = at.alpha_star()
    if a >= a_star:
        raise ValueError(
            f"pairing argument requires alpha < {a_star}; got alpha = {a}"
        )
    t1, t1p = at.tau1_interval(a)
    if not t1 <= lam < t1p:
        raise ValueError(
            f"pairing argument requires lambda in [{t1}, {t1p}); got {lam}"
        )
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
            if left < 1 or right > seq.k:
                break
            prod = seq.b[left - 1] * seq.b[right - 1]
            pairs.append(
                PairingEntry(left=left, right=right, product=prod, ok=prod < bound)
            )
    ok = all(p.ok for p in pairs)
    return PairingReport(ok=ok, bound=bound, pairs=tuple(pairs), runs=tuple(runs))


def classify_regime(alpha: float, lam: float) -> Optional[str]:
    """Which convergence guarantee covers (alpha, lam), if any."""
    a_star, _ = at.alpha_star()
    if alpha < 0.5 and lam >= at.tau2(alpha):
        return "above-tau2"
    if alpha < a_star:
        t1, t1p = at.tau1_interval(alpha)
        if t1 <= lam < t1p:
            return "tau1-interval"
    return None


def uncovered_reason(alpha: float, lam: float) -> str:
    """Why neither regime of `classify_regime` covers (alpha, lam): one
    clause per threshold family."""
    if alpha < 0.5:
        msgs = [f"lambda < tau2({alpha}) = {at.tau2(alpha)}"]
    else:
        msgs = ["alpha >= 1/2: no tau2 threshold exists"]
    a_star, _ = at.alpha_star()
    if alpha < a_star:
        t1, t1p = at.tau1_interval(alpha)
        msgs.append(f"lambda outside [tau1, tau1') = [{t1}, {t1p})")
    else:
        msgs.append(f"alpha >= alpha* = {a_star}: no tau1 interval")
    return "; ".join(msgs)


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
    bisection tolerance.
    """
    regime = classify_regime(alpha, lam)
    boundary = alpha < 0.5 and lam == at.tau2(alpha)
    if regime is None:
        if not exploratory:
            raise ValueError(
                "no convergence guarantee covers this point ("
                + uncovered_reason(alpha, lam)
                + "); pass exploratory=True to probe it anyway"
            )
        regime = "exploratory"
    ks = sorted(set(k_samples))
    rho_l, gap_l, sig_l, qk_l, ck_l = [], [], [], [], []
    p = AlphaLambda(alpha, lam)
    c_const = p.delta - p.theta_prime
    for k in ks:
        seq = build_shearer(alpha, lam, k)
        tree = make_caterpillar(seq.caterpillar_spec())
        sr = spectral_radius(a_alpha_weights(tree, alpha), tol)
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
    )
