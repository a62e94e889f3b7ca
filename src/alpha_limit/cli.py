"""Command-line front end: table reproduction, sequence reports, sweeps
and the invariant verification suites."""
from __future__ import annotations

import argparse
import json
import math
import random
import sys
from typing import Optional, Sequence

from . import alpha_theory as at
from . import shearer as sh
from .diagonalize import (
    count_eigenvalues_greater,
    dense_spectrum_oracle,
    spectral_radius,
)
from .trees import (
    RootedTree,
    a_alpha_weights,
    tree_from_edge_list,
)

HEADER = "# alpha-limit v1"

# Largest --start/--stop grid: about 15 s of `tables all` or `sweep`.
MAX_GRID = 100_000

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


# Curve values each table reports, in column order, and every column of
# the csv and json table layouts.
TABLE_COLUMNS = {"tau0": ("tau0",), "tau2": ("tau2",), "tau1": ("tau1", "tau1_prime")}
CURVE_KEYS = ("tau0", "tau1", "tau1_prime", "tau2")
SWEEP_KEYS = ("tau0", "tau1_prime", "tau2")


def _fmt(value: float, digits: int) -> str:
    if math.isinf(value):
        return "inf"
    return f"{value:.{digits}g}"


def _json_value(v: Optional[float]):
    """An undefined threshold is null; an infinite one is the string "inf"."""
    if v is not None and math.isinf(v):
        return "inf"
    return v


def _csv_cell(v: Optional[float], digits: int) -> str:
    return "" if v is None else _fmt(v, digits)


def _emit(text: str, output: Optional[str]):
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _curve_value(kind: str, alpha: float) -> Optional[float]:
    curve = at.CURVES[kind]
    try:
        return curve(alpha)
    except ValueError:
        return None


def cmd_tables(args) -> int:
    kinds = list(TABLE_COLUMNS) if args.which == "all" else [args.which]
    alphas = _parse_grid(args)
    rows = [
        (kind, a, {key: _curve_value(key, a) for key in TABLE_COLUMNS[kind]})
        for kind in kinds
        for a in (alphas if alphas is not None else TABLE_ALPHAS[kind])
    ]
    d = args.digits
    if args.format == "json":
        payload = [
            {"curve": kind, "alpha": a}
            | {key: _json_value(vals.get(key)) for key in CURVE_KEYS}
            for kind, a, vals in rows
        ]
        _emit(json.dumps(payload, indent=2) + "\n", args.output)
        return 0
    lines = [HEADER]
    if args.format == "csv":
        lines.append(",".join(("alpha",) + CURVE_KEYS))
        for _, a, vals in rows:
            cells = [_fmt(a, d)] + [_csv_cell(vals.get(key), d) for key in CURVE_KEYS]
            lines.append(",".join(cells))
    else:
        for _, a, vals in rows:
            vals_text = (
                f"{key}=" + ("undefined" if v is None else _fmt(v, d))
                for key, v in vals.items()
            )
            lines.append(f"alpha={_fmt(a, d)}  " + "  ".join(vals_text))
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_shearer(args) -> int:
    a, lam, k = args.alpha, args.lam, args.k
    report = sh.convergence_report(
        a, lam, [k], exploratory=args.exploratory, tol=args.tol
    )
    seq = report.sequences[0]
    d = args.digits
    if args.format == "json":
        payload = {
            "alpha": a,
            "lambda": lam,
            "k": k,
            "r": list(seq.r),
            "b": list(seq.b),
            "regime": report.regime,
            "rho": report.rho_k[0],
            "gap": report.gap_k[0],
            "sigma": report.sigma_k[0],
            "Qk": report.Qk[0],
            "c_over_k": report.c_over_k[0],
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.output)
        return 0
    lines = [HEADER]
    lines.append(f"alpha={_fmt(a, d)} lambda={_fmt(lam, d)} k={k} regime={report.regime}")
    lines.append("r: [" + ", ".join(str(rj) for rj in seq.r) + "]")
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
    _emit("\n".join(lines) + "\n", args.output)
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


def cmd_sweep(args) -> int:
    results = [_sweep_row(a) for a in _parse_grid(args)]
    results.sort(key=lambda row: row["alpha"])
    d = args.digits
    if args.format == "json":
        payload = [
            row | {key: _json_value(row[key]) for key in SWEEP_KEYS} for row in results
        ]
        _emit(json.dumps(payload, indent=2) + "\n", args.output)
        return 0
    lines = [HEADER, "alpha,tau0,tau1_prime,tau2,regime"]
    for row in results:
        cells = [_fmt(row["alpha"], d)] + [_csv_cell(row[key], d) for key in SWEEP_KEYS]
        lines.append(",".join(cells + [row["label"]]))
    _emit("\n".join(lines) + "\n", args.output)
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
        spec = dense_spectrum_oracle(M)
        pos = sum(1 for ev in spec if ev > c + 1e-8)
        # the compiled kernel behind every spectral radius
        n_greater = count_eigenvalues_greater(M, c)
        if n_greater != pos:
            log(f"FAIL inertia trial {t}: count_eigenvalues_greater {n_greater} vs {pos}")
            ok = False
        # the capped count each bisection step asks for
        capped = count_eigenvalues_greater(M, c, at_most=1)
        if capped != min(pos, 1):
            log(f"FAIL inertia trial {t}: count capped at 1 is {capped} vs {min(pos, 1)}")
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
    seq = rep.sequences[0]
    if abs(seq.b[0] - (-1.0738048780487808)) > 1e-12:
        ok = False
    pr = sh.pairing_check(seq)
    if not pr.ok:
        ok = False
    log(f"{'PASS' if ok else 'FAIL'} examples: both worked examples reproduce")
    return ok


def cmd_verify(args) -> int:
    checks = {
        "inertia": verify_inertia,
        "identities": verify_identities,
        "examples": verify_examples,
    }
    names = list(checks) if args.suite == "all" else [args.suite]
    ok = all(checks[name]() for name in names)
    return 0 if ok else 1


def _read_edges(path: str) -> list[tuple[int, int]]:
    """0-based edges from a file of 1-based `u v` lines; blank lines and
    lines starting with `#` are skipped.  The file's vertices must be
    numbered exactly 1..n."""
    pairs = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            fields = line.split()
            if not fields or fields[0].startswith("#"):
                continue
            try:
                u, v = map(int, fields)
            except ValueError:
                raise ValueError(
                    f"{path} line {lineno}: expected two vertex numbers"
                ) from None
            pairs.append((u, v))
    verts = {u for e in pairs for u in e}
    if verts and (min(verts) != 1 or max(verts) != len(verts)):
        raise ValueError(
            f"{path}: vertices must be numbered 1..{len(verts)}, "
            f"found {min(verts)}..{max(verts)}"
        )
    return [(u - 1, v - 1) for u, v in pairs]


def cmd_spectral_radius(args) -> int:
    tree = tree_from_edge_list(_read_edges(args.edges))
    M = a_alpha_weights(tree, args.alpha)
    res = spectral_radius(M, args.tol)
    _emit(
        f"{HEADER}\nrho = {_fmt(res.value, max(args.digits, 16))} "
        f"(bracket [{res.lower!r}, {res.upper!r}], {res.iterations} iterations)\n",
        args.output,
    )
    return 0


def _parse_grid(args) -> Optional[list[float]]:
    """The alpha grid of `tables`/`sweep`, or None for the default rows.
    Its size is settled before any point is made: a grid too large to
    print in seconds, or one whose points would not advance, is refused."""
    if args.alphas:
        vals = [float(x) for x in args.alphas.split(",")]
        if not all(map(math.isfinite, vals)):
            raise ValueError("--alphas values must be finite")
        return vals
    if args.start is None:
        return None
    if args.stop is None:
        raise ValueError("--start needs --stop")
    if not all(map(math.isfinite, (args.start, args.stop, args.step or 0.0))):
        raise ValueError("--start, --stop and --step must be finite")
    if args.step is None:
        count = 10 if args.count is None else args.count
    elif not args.step > 0:
        raise ValueError("--step must be positive")
    else:
        spacing = math.ulp(max(abs(args.start), abs(args.stop)))
        if args.step < spacing:  # a smaller step may not advance the grid
            raise ValueError(f"--step must be at least the float spacing {spacing}")
        # a point at most 1e-9 of a step past the stop is still made:
        # (0.3 - 0.1) / 0.1 is 1.9999999999999998
        count = math.floor((args.stop - args.start) / args.step + 1e-9) + 1
    if count < 1:
        raise ValueError("grid must be non-empty")
    if count > MAX_GRID:
        raise ValueError(f"grid must have at most {MAX_GRID} points")
    if args.step is not None:
        return [round(args.start + i * args.step, 12) for i in range(count)]
    h = (args.stop - args.start) / max(count - 1, 1)
    return [args.start + i * h for i in range(count)]


def non_negative_int(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="alpha-limit")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def common(p, formats):
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("-o", "--output", default=None)
        p.add_argument("--digits", type=non_negative_int, default=10)

    p = sub.add_parser("tables", help="reproduce the threshold-curve tables")
    p.add_argument("which", choices=["tau0", "tau2", "tau1", "all"])
    p.add_argument("--alphas", default=None, help="comma-separated alpha values")
    p.add_argument("--start", type=float, default=None)
    p.add_argument("--stop", type=float, default=None)
    p.add_argument("--step", type=float, default=None)
    p.add_argument("--count", type=int, default=None)
    common(p, ["csv", "json", "text"])
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("shearer", help="build a caterpillar sequence and diagnostics")
    p.add_argument("-a", "--alpha", type=float, required=True)
    p.add_argument("-l", "--lam", "--lambda", dest="lam", type=float, required=True)
    p.add_argument("-k", type=int, default=100)
    p.add_argument("--exploratory", action="store_true")
    p.add_argument("--tol", type=float, default=1e-12)
    common(p, ["json", "text"])
    p.set_defaults(func=cmd_shearer)

    p = sub.add_parser("sweep", help="per-alpha threshold and regime summary")
    p.add_argument("--alphas", default=None)
    p.add_argument("--start", type=float, default=0.0)
    p.add_argument("--stop", type=float, default=0.49)
    p.add_argument("--step", type=float, default=None)
    p.add_argument("--count", type=int, default=50)
    common(p, ["csv", "json", "text"])
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run the invariant suites")
    p.add_argument("suite", choices=["inertia", "identities", "examples", "all"])
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("spectral-radius", help="spectral radius of a tree edge list")
    p.add_argument("--edges", required=True, help="file with 1-based `u v` lines")
    p.add_argument("-a", "--alpha", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    common(p, ["text"])
    p.set_defaults(func=cmd_spectral_radius)

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one subcommand.  Input the library rejects (a ValueError) and a
    file that cannot be read or written (an OSError) end with one line on
    stderr and exit code 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"alpha-limit: error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
