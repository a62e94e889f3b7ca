"""Command-line front end: table reproduction, sequence reports, sweeps
and the invariant verification suites."""
from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import alpha_theory as at
from . import shearer as sh
from .diagonalize import (
    count_eigenvalues_greater,
    dense_spectrum_oracle,
    diagonalize,
    spectral_radius,
)
from .trees import (
    RootedTree,
    a_alpha_weights,
    tree_from_edge_list,
)

HEADER = "# alpha-limit v1"

# Regime labels for sweep output; downstream plotting depends on these.
LABEL_SINGLE = "interval-I"  # one interval [tau0, inf)
LABEL_GAP = "gap"  # tau1' < tau2 leaves an unverified gap
LABEL_TAIL = "interval-II"  # only [tau2, inf) is certified
LABEL_UNKNOWN = "unknown"  # alpha >= 1/2: nothing certified

TABLE_ALPHAS = {
    "tau0": [0.0, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 0.3, 0.5, 0.9, 0.9999],
    "tau2": [0.0, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 0.4, 0.49, 0.499],
    "tau1": [0.0, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 0.22, 0.2265409],
}


@dataclass
class RunConfig:
    subcommand: str
    alpha: Optional[float] = None
    lam: Optional[float] = None
    k: Optional[int] = None
    alphas: Optional[list[float]] = None
    fmt: str = "text"
    output: Optional[str] = None
    digits: int = 10
    tol: float = 1e-12
    exploratory: bool = False
    extra: dict = field(default_factory=dict)


def _fmt(value: float, digits: int) -> str:
    if math.isinf(value):
        return "inf"
    return f"{value:.{digits}g}"


def _emit(text: str, output: Optional[str]):
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _curve_value(kind: str, alpha: float) -> Optional[float]:
    try:
        if kind == "tau0":
            return at.tau0(alpha)
        if kind == "tau2":
            return at.tau2(alpha)
        if kind == "tau1":
            return at.tau1_interval(alpha)[0]
        if kind == "tau1_prime":
            return at.tau1_interval(alpha)[1]
    except ValueError:
        return None
    raise ValueError(f"unknown curve: {kind}")


def cmd_tables(cfg: RunConfig) -> int:
    which = cfg.extra["which"]
    kinds = ["tau0", "tau2", "tau1"] if which == "all" else [which]
    alphas = cfg.alphas
    lines = [HEADER]
    if cfg.fmt == "csv":
        lines.append("alpha,tau0,tau1,tau1_prime,tau2")
    rows = []
    for kind in kinds:
        for a in alphas if alphas is not None else TABLE_ALPHAS[kind]:
            row = {
                "alpha": a,
                "tau0": None,
                "tau1": None,
                "tau1_prime": None,
                "tau2": None,
            }
            if kind == "tau0":
                row["tau0"] = _curve_value("tau0", a)
            elif kind == "tau2":
                row["tau2"] = _curve_value("tau2", a)
            elif kind == "tau1":
                row["tau1"] = _curve_value("tau1", a)
                row["tau1_prime"] = _curve_value("tau1_prime", a)
            rows.append((kind, row))
    d = cfg.digits
    if cfg.fmt == "json":
        payload = []
        for kind, row in rows:
            obj = {"curve": kind, "alpha": row["alpha"]}
            for key in ("tau0", "tau1", "tau1_prime", "tau2"):
                v = row[key]
                if v is None:
                    obj[key] = None
                elif math.isinf(v):
                    obj[key] = "inf"
                else:
                    obj[key] = v
            payload.append(obj)
        _emit(json.dumps(payload, indent=2) + "\n", cfg.output)
        return 0
    for kind, row in rows:
        if cfg.fmt == "csv":
            cells = [_fmt(row["alpha"], d)]
            for key in ("tau0", "tau1", "tau1_prime", "tau2"):
                v = row[key]
                cells.append("" if v is None else _fmt(v, d))
            lines.append(",".join(cells))
        else:
            vals = []
            for key in ("tau0", "tau1", "tau1_prime", "tau2"):
                v = row[key]
                if kind == key or (kind == "tau1" and key in ("tau1", "tau1_prime")):
                    vals.append(f"{key}=" + ("undefined" if v is None else _fmt(v, d)))
            lines.append(f"alpha={_fmt(row['alpha'], d)}  " + "  ".join(vals))
    _emit("\n".join(lines) + "\n", cfg.output)
    return 0


def cmd_shearer(cfg: RunConfig) -> int:
    a, lam, k = cfg.alpha, cfg.lam, cfg.k
    if not (math.isfinite(a) and math.isfinite(lam)):
        raise ValueError("alpha and lambda must be finite numbers")
    regime = sh.classify_regime(a, lam)
    if regime is None and not cfg.exploratory:
        sys.stderr.write(
            "refusing: lambda is outside every certified regime ("
            + sh.uncovered_reason(a, lam)
            + "); rerun with --exploratory\n"
        )
        return 2
    report = sh.convergence_report(
        a, lam, [k], exploratory=cfg.exploratory, tol=cfg.tol
    )
    seq = sh.build_shearer(a, lam, k)
    d = cfg.digits
    if cfg.fmt == "json":
        payload = json.loads(seq.to_json())
        payload.update(
            {
                "regime": report.regime,
                "rho": report.rho_k[0],
                "gap": report.gap_k[0],
                "sigma": report.sigma_k[0],
                "Qk": report.Qk[0],
                "c_over_k": report.c_over_k[0],
            }
        )
        _emit(json.dumps(payload, indent=2) + "\n", cfg.output)
        return 0
    lines = [HEADER]
    lines.append(f"alpha={_fmt(a, d)} lambda={_fmt(lam, d)} k={k} regime={report.regime}")
    lines.append("r: " + seq.compact_text())
    lines.append("b: [" + ", ".join(_fmt(bj, d) for bj in seq.b) + "]")
    lines.append(f"rho(G_{k}) = {_fmt(report.rho_k[0], max(d, 16))}")
    lines.append(f"gap <= {_fmt(report.gap_k[0], d)}")
    lines.append(f"sigma_k = {_fmt(report.sigma_k[0], d)}")
    lines.append(f"Q_k = {_fmt(report.Qk[0], d)}")
    lines.append(f"C/k = {_fmt(report.c_over_k[0], d)}")
    if report.regime == "tau1-interval":
        pr = sh.pairing_check(seq)
        lines.append(f"pairing bound (1-alpha)^2 = {_fmt(pr.bound, d)}")
        for e in pr.pairs:
            mark = "ok" if e.ok else "FAIL"
            lines.append(
                f"  b_{e.left} * b_{e.right} = {_fmt(e.product, d)}  {mark}"
            )
    _emit("\n".join(lines) + "\n", cfg.output)
    return 0


def _sweep_row(a: float) -> dict:
    t0 = _curve_value("tau0", a)
    t1p = _curve_value("tau1_prime", a)
    t2 = _curve_value("tau2", a)
    crossover_alpha, _ = at.corollary_crossover()
    if t2 is None:
        label = LABEL_UNKNOWN
    elif t1p is None:
        label = LABEL_TAIL
    elif math.isinf(t1p) or a <= crossover_alpha:
        label = LABEL_SINGLE
    else:
        label = LABEL_GAP
    return {"alpha": a, "tau0": t0, "tau1_prime": t1p, "tau2": t2, "label": label}


def cmd_sweep(cfg: RunConfig) -> int:
    alphas = cfg.alphas or []
    workers = int(os.environ.get("ALPHA_LIMIT_THREADS", "1"))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(_sweep_row, alphas))
    else:
        results = [_sweep_row(a) for a in alphas]
    results.sort(key=lambda row: row["alpha"])
    d = cfg.digits
    if cfg.fmt == "json":
        payload = []
        for row in results:
            obj = dict(row)
            for key in ("tau0", "tau1_prime", "tau2"):
                v = obj[key]
                obj[key] = None if v is None else ("inf" if math.isinf(v) else v)
            payload.append(obj)
        _emit(json.dumps(payload, indent=2) + "\n", cfg.output)
        return 0
    lines = [HEADER, "alpha,tau0,tau1_prime,tau2,regime"]
    for row in results:
        cells = [_fmt(row["alpha"], d)]
        for key in ("tau0", "tau1_prime", "tau2"):
            v = row[key]
            cells.append("" if v is None else _fmt(v, d))
        cells.append(row["label"])
        lines.append(",".join(cells))
    _emit("\n".join(lines) + "\n", cfg.output)
    return 0


def _random_tree(rng: random.Random, n: int) -> RootedTree:
    parent = [None] + [rng.randrange(v) for v in range(1, n)]
    return RootedTree(n=n, parent=tuple(parent), order=tuple(range(n - 1, -1, -1)))


def verify_inertia(trials: int = 200, log=print) -> bool:
    rng = random.Random(20240817)
    ok = True
    for t in range(trials):
        n = rng.randint(2, 12)
        tree = _random_tree(rng, n)
        alpha = rng.random()
        c = rng.uniform(-4.0, 4.0)
        M = a_alpha_weights(tree, alpha)
        res = diagonalize(M, -c)
        spec = dense_spectrum_oracle(M)
        pos = sum(1 for ev in spec if ev > c + 1e-8)
        neg = sum(1 for ev in spec if ev < c - 1e-8)
        zero = n - pos - neg
        if (res.n_pos, res.n_neg, res.n_zero) != (pos, neg, zero):
            log(f"FAIL inertia trial {t}: {res.n_pos, res.n_neg, res.n_zero} vs {pos, neg, zero}")
            ok = False
    log(f"{'PASS' if ok else 'FAIL'} inertia: {trials} random trees vs dense oracle")
    return ok


def verify_identities(log=print) -> bool:
    ok = True
    lams = [2.01 + i * (50.0 - 2.01) / 99 for i in range(100)]
    alphas = [i * 0.49 / 19 for i in range(20)]
    worst = 0.0
    for lam in lams:
        for a in alphas:
            f1 = at.F1(lam, a)
            res = abs(f1 + at.F0(lam, a) * at.F3(lam, a)) / (1.0 + abs(f1))
            worst = max(worst, res)
            p = at.AlphaLambda(a, lam)
            if abs(p.theta * p.theta_prime - (1 - a) ** 2) > 1e-10 * (1 - a) ** 2 + 1e-12:
                ok = False
            if abs(p.theta + p.theta_prime - (2 * a - lam)) > 1e-10 * abs(2 * a - lam):
                ok = False
    if worst > 1e-10:
        ok = False
    log(f"{'PASS' if ok else 'FAIL'} identities: factorization residual {worst:.3e}")
    return ok


def verify_examples(log=print) -> bool:
    ok = True
    rep = sh.convergence_report(0.1, 2.44, [100])
    if abs(rep.rho_k[0] - 2.4399999999999995) > 1e-9:
        ok = False
    rep = sh.convergence_report(0.01, 2.06, [100])
    if abs(rep.rho_k[0] - 2.0599985378552725) > 1e-9:
        ok = False
    seq = sh.build_shearer(0.01, 2.06, 100)
    if abs(seq.b[0] - (-1.0738048780487808)) > 1e-12:
        ok = False
    pr = sh.pairing_check(seq)
    if not pr.ok:
        ok = False
    log(f"{'PASS' if ok else 'FAIL'} examples: both worked examples reproduce")
    return ok


def cmd_verify(cfg: RunConfig) -> int:
    suite = cfg.extra["suite"]
    checks = {
        "inertia": verify_inertia,
        "identities": verify_identities,
        "examples": verify_examples,
    }
    names = list(checks) if suite == "all" else [suite]
    ok = all(checks[name]() for name in names)
    return 0 if ok else 1


def cmd_spectral_radius(cfg: RunConfig) -> int:
    path = cfg.extra["edges"]
    pairs = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            u, v = line.split()
            pairs.append((int(u) - 1, int(v) - 1))
    tree = tree_from_edge_list(pairs)
    M = a_alpha_weights(tree, cfg.alpha)
    res = spectral_radius(M, cfg.tol)
    _emit(
        f"{HEADER}\nrho = {_fmt(res.value, max(cfg.digits, 16))} "
        f"(bracket [{res.lower!r}, {res.upper!r}], {res.iterations} iterations)\n",
        cfg.output,
    )
    return 0


def _parse_grid(args) -> Optional[list[float]]:
    if args.alphas:
        return [float(x) for x in args.alphas.split(",")]
    if args.start is not None:
        if args.stop is None:
            raise ValueError("--start needs --stop")
        if args.step is not None:
            if not args.step > 0:
                raise ValueError("--step must be positive")
            vals = []
            a = args.start
            while a <= args.stop + 1e-15:
                vals.append(round(a, 12))
                a += args.step
            return vals
        count = args.count or 10
        if count < 1:
            raise ValueError("grid must be non-empty")
        if count == 1:
            return [args.start]
        h = (args.stop - args.start) / (count - 1)
        return [args.start + i * h for i in range(count)]
    return None


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="alpha-limit")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--format", choices=["csv", "json", "text"], default="text")
        p.add_argument("-o", "--output", default=None)
        p.add_argument("--digits", type=int, default=10)

    p = sub.add_parser("tables", help="reproduce the threshold-curve tables")
    p.add_argument("which", choices=["tau0", "tau2", "tau1", "all"])
    p.add_argument("--paper-rows", action="store_true",
                   help="use the published sample points (default)")
    p.add_argument("--alphas", default=None, help="comma-separated alpha values")
    p.add_argument("--start", type=float, default=None)
    p.add_argument("--stop", type=float, default=None)
    p.add_argument("--step", type=float, default=None)
    p.add_argument("--count", type=int, default=None)
    common(p)

    p = sub.add_parser("shearer", help="build a caterpillar sequence and diagnostics")
    p.add_argument("-a", "--alpha", type=float, required=True)
    p.add_argument("-l", "--lam", "--lambda", dest="lam", type=float, required=True)
    p.add_argument("-k", type=int, default=100)
    p.add_argument("--exploratory", action="store_true")
    p.add_argument("--tol", type=float, default=1e-12)
    common(p)

    p = sub.add_parser("sweep", help="per-alpha threshold and regime summary")
    p.add_argument("--alphas", default=None)
    p.add_argument("--start", type=float, default=0.0)
    p.add_argument("--stop", type=float, default=0.49)
    p.add_argument("--step", type=float, default=None)
    p.add_argument("--count", type=int, default=50)
    common(p)

    p = sub.add_parser("verify", help="run the invariant suites")
    p.add_argument("suite", choices=["inertia", "identities", "examples", "all"])

    p = sub.add_parser("spectral-radius", help="spectral radius of a tree edge list")
    p.add_argument("--edges", required=True, help="file with 1-based `u v` lines")
    p.add_argument("-a", "--alpha", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    common(p)

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one subcommand.  Input the library rejects (a ValueError) ends
    with one line on stderr and exit code 2."""
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except ValueError as exc:
        sys.stderr.write(f"alpha-limit: error: {exc}\n")
        return 2


def _run(args) -> int:
    cfg = RunConfig(subcommand=args.subcommand)
    if hasattr(args, "format"):
        cfg.fmt = args.format
        cfg.output = args.output
        cfg.digits = args.digits
    if args.subcommand == "tables":
        cfg.alphas = _parse_grid(args)
        cfg.extra["which"] = args.which
        return cmd_tables(cfg)
    if args.subcommand == "shearer":
        cfg.alpha, cfg.lam, cfg.k = args.alpha, args.lam, args.k
        cfg.exploratory = args.exploratory
        cfg.tol = args.tol
        return cmd_shearer(cfg)
    if args.subcommand == "sweep":
        cfg.alphas = _parse_grid(args)
        return cmd_sweep(cfg)
    if args.subcommand == "verify":
        cfg.extra["suite"] = args.suite
        return cmd_verify(cfg)
    if args.subcommand == "spectral-radius":
        cfg.alpha = args.alpha
        cfg.tol = args.tol
        cfg.extra["edges"] = args.edges
        return cmd_spectral_radius(cfg)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    raise SystemExit(main())
