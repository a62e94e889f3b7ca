"""Independent checks of alpha-limit outputs.

Nothing here imports alpha_limit.  Radii come from numpy/scipy eigensolvers
on matrices assembled here from the tree's edges; threshold values are
checked against a few-line closed form of F0, F2 and F3 and against the
paper's published tables; regime labels against the closed forms of alpha*
and the corollary crossover.
"""
from __future__ import annotations

import math
import re

ALPHA_STAR = (3.0 - math.sqrt(2.0)) / 7.0
CROSSOVER = 1.0 - 2.0 / math.sqrt(5.0)

# An independent radius may sit this far outside a certified bracket: the
# eigensolvers agree with exact inertia counts to ~1e-13 on these sizes.
WIDEN = 1e-10

# Bisection stops once hi - lo <= tol; the CLI's default tol.
CLI_TOL = 1e-12

# The paper's published threshold tables (10 significant digits).  tau1 is
# tau0; the tau1' column is keyed by alpha.  `alpha-limit tables all`
# prints these rows anew (its tau1 sample 0.2265409 is not a published row
# and is checked by the root property alone).
PUBLISHED = {
    "tau0": {
        0.0: 2.058171027, 1e-5: 2.058172154, 1e-4: 2.058182294,
        1e-3: 2.058283826, 1e-2: 2.059312583, 1e-1: 2.071110742,
        0.3: 2.111760279, 0.5: 2.191487884, 0.9: 2.727297451,
        0.9999: 2.999700025,
    },
    "tau2": {
        0.0: 2.324717958, 1e-5: 2.324726949, 1e-4: 2.324807890,
        1e-3: 2.325619037, 1e-2: 2.333907609, 1e-1: 2.439018189,
        0.4: 4.271267076, 0.49: 26.75245169, 0.499: 251.7502495,
    },
    "tau1_prime": {
        0.0: math.inf, 1e-5: 46.43683033, 1e-4: 21.58805390,
        1e-3: 10.08827222, 1e-2: 4.810633985, 1e-1: 2.479706668,
        0.22: 2.103408681, 0.226: 2.094603459,
    },
}
PUBLISHED_REL = 1e-8

# Published pendant lists of the two worked examples (k = 100).
R_EXAMPLE = {
    (0.1, 2.44): (
        4, 0, 1, 1, 1, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
        1, 0, 0, 1, 1, 1, 1, 1, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
        1, 1, 1, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 0, 1, 0, 1, 1, 1, 1,
        1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 1, 1, 1, 1, 1, 1, 1,
        1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 1, 1, 1, 0, 1, 0, 0,
    ),
    (0.01, 2.06): tuple(
        2 if j == 1 else 1 if j in (11, 35, 60, 84) else 0 for j in range(1, 101)
    ),
}


# -- closed forms -----------------------------------------------------------

def delta_theta_sq(lam: float, a: float) -> tuple[float, float, float]:
    """delta, theta' (via theta*theta' = (1-a)^2) and the discriminant root."""
    sq = math.sqrt((2.0 * a - lam) ** 2 - 4.0 * (1.0 - a) ** 2)
    theta = 0.5 * ((2.0 * a - lam) - sq)
    return a + (1.0 - a) ** 2 / (lam - a), (1.0 - a) ** 2 / theta, sq


def F(kind: str, lam: float, a: float) -> float:
    d, tp, sq = delta_theta_sq(lam, a)
    if kind == "tau0":
        return d - sq
    if kind == "tau2":
        return -1.0 + a + d - tp
    return d + tp  # tau1_prime


def beyond(kind: str, lam: float, a: float) -> bool:
    """True iff lam lies above the unique root of F_kind in (2, inf)."""
    return (F(kind, lam, a) > 0) != (F(kind, 2.0 + 1e-9, a) > 0)


def root(kind: str, a: float) -> float:
    """The root of F_kind by plain bisection (used to place inputs)."""
    lo, hi = 2.0 + 1e-9, 8.0
    while not beyond(kind, hi, a):
        hi *= 2.0
        if hi > 2.0**40:
            return math.inf
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if beyond(kind, mid, a):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def is_root(kind: str, value: float, a: float, rel: float = 1e-9) -> bool:
    """F_kind changes sign within value * (1 +- rel): a printed root at 10
    significant digits is off by at most half a unit in its last digit."""
    h = rel * max(1.0, abs(value))
    return (F(kind, value - h, a) > 0) != (F(kind, value + h, a) > 0)


def c_const(a: float, lam: float) -> float:
    """C = delta - theta', the constant of the gap bound gap_k <= C/k."""
    d, tp, _ = delta_theta_sq(lam, a)
    return d - tp


def regime_of(a: float, lam: float) -> str:
    if a < 0.5 and beyond("tau2", lam, a):
        return "above-tau2"
    if a < ALPHA_STAR and beyond("tau0", lam, a) and not beyond("tau1_prime", lam, a):
        return "tau1-interval"
    return "none"


# -- independent radii ------------------------------------------------------

def caterpillar_edges(r) -> list[tuple[int, int]]:
    k = len(r)
    edges = [(i, i + 1) for i in range(k - 1)]
    leaf = k
    for i, ri in enumerate(r):
        for _ in range(ri):
            edges.append((i, leaf))
            leaf += 1
    return edges


def top_eigenvalue(n: int, edges, alpha: float) -> float:
    """Largest eigenvalue of A_alpha = alpha*D + (1-alpha)*A.

    Dense LAPACK up to n = 600.  Above that, Lanczos (eigsh, start vector
    of ones, which meets the positive Perron vector) finds a Ritz value e
    <= rho, and shift-invert at e + 1e-3 resolves rho inside the clusters
    that Shearer caterpillars have just below it.
    """
    import numpy as np

    deg = np.zeros(n)
    u = np.fromiter((e[0] for e in edges), dtype=np.int64, count=len(edges))
    v = np.fromiter((e[1] for e in edges), dtype=np.int64, count=len(edges))
    np.add.at(deg, u, 1.0)
    np.add.at(deg, v, 1.0)
    if n <= 600:
        m = np.diag(alpha * deg)
        m[u, v] = m[v, u] = 1.0 - alpha
        return float(np.linalg.eigvalsh(m)[-1])
    import scipy.sparse as sp
    from scipy.sparse.linalg import eigsh

    w = np.full(len(edges), 1.0 - alpha)
    m = sp.coo_matrix((w, (u, v)), shape=(n, n))
    m = (m + m.T + sp.diags(alpha * deg)).tocsc()
    start = np.ones(n)
    e = float(eigsh(m, k=1, which="LA", tol=1e-6, v0=start,
                    return_eigenvectors=False)[0])
    rho = float(eigsh(m, k=1, sigma=e + 1e-3, which="LM", v0=start,
                      return_eigenvectors=False)[0])
    if rho < e - 1e-6:
        raise ArithmeticError(f"shift-invert gave {rho} below the Ritz value {e}")
    return rho


def in_bracket(value: float, lower: float, upper: float) -> bool:
    return lower - WIDEN <= value <= upper + WIDEN


# -- CLI output -------------------------------------------------------------

def _num(text: str) -> float:
    return math.inf if text == "inf" else float(text)


def _threshold_problems(kind: str, a: float, value, where: str) -> list[str]:
    if value is None:
        return [f"{where}: {kind} missing"]
    if math.isinf(value):
        return [] if kind == "tau1_prime" and a == 0.0 else [f"{where}: {kind} = inf"]
    bad = []
    if not is_root(kind, value, a):
        bad.append(f"{where}: {kind} = {value!r} is not a root of its F")
    ref = PUBLISHED[kind].get(a)
    if ref is not None and abs(value - ref) > PUBLISHED_REL * max(1.0, ref):
        bad.append(f"{where}: {kind} = {value!r}, published {ref!r}")
    return bad


def check_tables(out: str) -> list[str]:
    """`tables all` text: every threshold a root, published rows matched."""
    lines = out.splitlines()[1:]
    bad = [] if len(lines) == 27 else [f"tables: {len(lines)} rows, expected 27"]
    for line in lines:
        cells = dict(re.findall(r"(\w+)=(\S+)", line))
        a = float(cells.pop("alpha"))
        for key, text in cells.items():
            kind = "tau0" if key == "tau1" else key  # tau1 coincides with tau0
            if text != "undefined":
                bad += _threshold_problems(kind, a, _num(text), f"tables alpha={a}")
            elif key == "tau0" or a < (0.5 if key == "tau2" else ALPHA_STAR):
                bad.append(f"tables alpha={a}: {key} undefined")
    return bad


def check_sweep(out: str) -> list[str]:
    """`sweep` csv: thresholds are roots, labels follow alpha* and the
    crossover, and interval-I holds exactly where tau1' >= tau2."""
    lines = out.splitlines()
    if lines[1] != "alpha,tau0,tau1_prime,tau2,regime":
        return ["sweep: unexpected header"]
    bad = []
    for line in lines[2:]:
        a_text, t0, t1p, t2, label = line.split(",")
        a = float(a_text)
        where = f"sweep alpha={a}"
        bad += _threshold_problems("tau0", a, _num(t0), where)
        if a < ALPHA_STAR:
            bad += _threshold_problems("tau1_prime", a, _num(t1p) if t1p else None, where)
        elif t1p:
            bad.append(f"{where}: tau1' printed beyond alpha*")
        bad += _threshold_problems("tau2", a, _num(t2) if t2 else None, where)
        if a >= ALPHA_STAR:
            want = "interval-II"
        elif a == 0.0 or a <= CROSSOVER:
            want = "interval-I"
        else:
            want = "gap"
        if label != want:
            bad.append(f"{where}: label {label}, closed forms give {want}")
        if t1p and t2 and (label == "interval-I") != (_num(t1p) >= _num(t2)):
            bad.append(f"{where}: label {label} disagrees with tau1' vs tau2")
    if len(lines) != 52:
        bad.append(f"sweep: {len(lines) - 2} rows, expected 50")
    return bad


def _caterpillar_problems(a, lam, k, r, gap, c_over_k, regime, where) -> list[str]:
    bad = []
    if tuple(r) != R_EXAMPLE[(a, lam)]:
        bad.append(f"{where}: pendant list differs from the published one")
    if regime != regime_of(a, lam):
        bad.append(f"{where}: regime {regime}, closed forms give {regime_of(a, lam)}")
    lower = lam - gap
    if not lower < lam:
        bad.append(f"{where}: bracket lower end {lower!r} not below lambda")
    c = c_const(a, lam)
    if not gap <= c / k:
        bad.append(f"{where}: gap {gap!r} above C/k = {c / k!r}")
    if abs(c_over_k - c / k) > 1e-9 * (c / k):
        bad.append(f"{where}: C/k printed {c_over_k!r}, closed form {c / k!r}")
    rho = top_eigenvalue(k + sum(r), caterpillar_edges(r), a)
    if not in_bracket(rho, lower, lower + CLI_TOL):
        bad.append(f"{where}: independent radius {rho!r} outside [{lower!r}, +tol]")
    return bad


def check_shearer(args: list[str], out: str) -> list[str]:
    """`shearer` text or json at a worked example.  The printed midpoint is
    not checked: only the bracket's lower end (lambda - gap) and its width
    bound are certified."""
    a, lam, k = float(args[2]), float(args[4]), int(args[6])
    where = f"shearer {a} {lam} {args[-1]}"
    if "json" in args:
        import json

        p = json.loads(out)
        return _caterpillar_problems(a, lam, k, p["r"], p["gap"], p["c_over_k"],
                                     p["regime"], where)
    head = dict(re.findall(r"(\w+)=(\S+)", out.splitlines()[1]))
    r = [int(x) for x in re.search(r"^r: \[(.*)\]$", out, re.M).group(1).split(", ")]
    gap = float(re.search(r"^gap <= (\S+)$", out, re.M).group(1))
    c_over_k = float(re.search(r"^C/k = (\S+)$", out, re.M).group(1))
    bad = _caterpillar_problems(a, lam, k, r, gap, c_over_k, head["regime"], where)
    for left, right, mark in re.findall(r"b_(\d+) \* b_(\d+) = \S+  (\w+)", out):
        if mark != "ok" and int(right) < k:
            bad.append(f"{where}: pair ({left}, {right}) {mark}")
    return bad


def check_spectral_radius(out: str, n: int, edges, alpha: float) -> list[str]:
    m = re.search(r"bracket \[(\S+), (\S+)\], (\d+) iterations", out)
    if m is None:
        return ["spectral-radius: no bracket printed"]
    lower, upper = float(m.group(1)), float(m.group(2))
    rho = top_eigenvalue(n, edges, alpha)
    if lower < upper and in_bracket(rho, lower, upper):
        return []
    return [f"spectral-radius: independent radius {rho!r} outside [{lower!r}, {upper!r}]"]
