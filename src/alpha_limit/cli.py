"""Command-line front end: table reproduction, sequence reports, sweeps
and the invariant verification suites."""
from __future__ import annotations

import argparse
import contextlib
import itertools
import math
import sys
from typing import TYPE_CHECKING, Optional, Sequence

# The other modules, json and random are imported by the commands that
# run them, so `tables` and `sweep` load alpha_theory alone.
from . import alpha_theory as at

if TYPE_CHECKING:
    from .trees import RootedTree

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


# Curve values each table reports, in column order, every curve column of
# the csv and json table layouts, and the csv columns of a sweep.
TABLE_COLUMNS = {"tau0": ("tau0",), "tau2": ("tau2",), "tau1": ("tau1", "tau1_prime")}
CURVE_KEYS = ("tau0", "tau1", "tau1_prime", "tau2")
SWEEP_COLUMNS = ("alpha", "tau0", "tau1_prime", "tau2", "label")


def _fmt(value: float, digits: int) -> str:
    if math.isinf(value):
        return "inf"
    return f"{value:.{digits}g}"


def _rows_out(fmt: str, rows, keys, header: str, digits: int):
    """The output of `rows` (dicts), one row at a time: a JSON array of the
    whole dicts, framed as `json.dumps(list, indent=2)` frames it, with an
    infinite value as "inf" and an undefined one as null; or csv lines of
    the `keys` columns under `header`, an undefined value left empty.
    A row is flat, so the C encoder writes it whole: its item separator
    breaks the line and indents the next key as the indenting encoder
    (pure Python) would."""
    if fmt == "json":
        import json

        # the object's inside, one key per line
        encode = json.JSONEncoder(separators=(",\n    ", ": ")).encode
        sep = "[\n  {\n    "
        for row in rows:
            row = {k: "inf" if isinstance(v, float) and math.isinf(v) else v
                   for k, v in row.items()}
            yield sep + encode(row)[1:-1] + "\n  }"
            sep = ",\n  {\n    "
        yield "\n]\n"
        return
    yield f"{HEADER}\n{header}\n"
    for row in rows:
        cells = ("" if v is None else v if isinstance(v, str) else _fmt(v, digits)
                 for v in map(row.__getitem__, keys))
        yield ",".join(cells) + "\n"


def _emit(chunks, output: Optional[str]):
    """Write each string of `chunks` as it is made, into `output` or stdout."""
    with open(output, "w") if output else contextlib.nullcontext(sys.stdout) as fh:
        for chunk in chunks:
            fh.write(chunk)


def _curve_value(kind: str, alpha: float) -> Optional[float]:
    curve = at.CURVES[kind]
    try:
        return curve(alpha)
    except ValueError:
        return None


def cmd_tables(args) -> int:
    kinds = list(TABLE_COLUMNS) if args.which == "all" else [args.which]
    alphas = _parse_grid(args)
    rows = (
        {"curve": kind, "alpha": a}
        | {key: _curve_value(key, a) if key in TABLE_COLUMNS[kind] else None
           for key in CURVE_KEYS}
        for kind in kinds
        for a in (alphas if alphas is not None else TABLE_ALPHAS[kind])
    )
    d = args.digits
    if args.format == "text":
        lines = (
            f"alpha={_fmt(row['alpha'], d)}  " + "  ".join(
                f"{key}=" + ("undefined" if row[key] is None else _fmt(row[key], d))
                for key in TABLE_COLUMNS[row["curve"]]
            ) + "\n"
            for row in rows
        )
        _emit(itertools.chain([HEADER + "\n"], lines), args.output)
    else:
        keys = ("alpha",) + CURVE_KEYS
        _emit(_rows_out(args.format, rows, keys, ",".join(keys), d), args.output)
    return 0


def cmd_shearer(args) -> int:
    from . import shearer as sh

    a, lam, k = args.alpha, args.lam, args.k
    report = sh.convergence_report(
        a, lam, [k], exploratory=args.exploratory, tol=args.tol
    )
    seq = report.sequences[0]
    d = args.digits
    if args.format == "json":
        import json

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
        _emit([json.dumps(payload, indent=2) + "\n"], args.output)
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
    _emit(["\n".join(lines) + "\n"], args.output)
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
    # a row depends only on its alpha, so sorting the grid sorts the rows
    rows = map(_sweep_row, sorted(_parse_grid(args, 0.0, 0.49, 50)))
    header = "alpha,tau0,tau1_prime,tau2,regime"
    _emit(_rows_out(args.format, rows, SWEEP_COLUMNS, header, args.digits), args.output)
    return 0


def _exact_count_greater(tree: RootedTree, alpha, c) -> int:
    """Eigenvalues of A_alpha(tree) above c, counted exactly.

    alpha and c are taken exactly (a float as the binary value it holds,
    or a Fraction), and with den the product of their denominators,
    den * (M - cI) has the integer diagonal entries b deg(v) - shift and
    the integer edge entry w.  Its pivots are found leaves first along
    `tree.order` (Jacobs and Trevisan, LAA 434, 2011), each held as an
    unreduced integer fraction whose denominator stays positive, so its
    sign is its numerator's: a vertex's pivot is its diagonal entry less
    w^2 / d_u over its children u.  A zero child pivot takes the exact
    zero rule instead: that child's pivot becomes positive (2), the
    vertex's negative (-w^2 / 2), and the vertex leaves its parent.  The
    positive pivots are the count (Sylvester's law of inertia), so every
    count is decided.  The rule is a congruence only for w != 0; at
    alpha = 1 the matrix is diagonal and is counted from its diagonal.
    It reads only `tree.order`, `tree.parent` and `tree.degree`, not the
    `layout` the float pass reads, and shares no code with that pass; the
    tests also check it against a dense elimination."""
    p, q = alpha.as_integer_ratio()
    r, s = c.as_integer_ratio()
    b, shift, w = p * s, r * q, (q - p) * s  # den * (alpha, c, 1 - alpha)
    if not w:
        return sum(b * d > shift for d in tree.degree)
    w2, parent = w * w, tree.parent
    num = [b * d - shift for d in tree.degree]
    den = [1] * len(num)
    paired = [False] * len(num)  # a child's pivot was zero
    pos = 0
    for v in tree.order:
        if paired[v]:
            pos += 1  # the zero child's pivot is now 2, and v leaves its parent
            continue
        x, y, u = num[v], den[v], parent[v]
        pos += x > 0
        if u is None:
            continue
        if x == 0:
            paired[u] = True
            continue
        if x < 0:
            x, y = -x, -y  # w^2 d_v^-1 = w^2 y / x with x > 0
        num[u], den[u] = num[u] * x - w2 * y * den[u], den[u] * x
    return pos


def _within_margin(
    tree: RootedTree, alpha: float, c: float, eta: float, count: int, cap: int
) -> bool:
    """min(exact(c + eta), cap) <= count <= min(exact(c - eta), cap): what
    `count_margin` proves of a float count capped at cap."""
    from fractions import Fraction  # imported only when a float count differs

    c, eta = Fraction(c), Fraction(eta)
    lo, hi = (_exact_count_greater(tree, alpha, x) for x in (c + eta, c - eta))
    return min(lo, cap) <= count <= min(hi, cap)


def verify_inertia(trials: int = 200, log=print) -> bool:
    """Check `count_eigenvalues_greater`, and its count capped at 1, with
    the exact count of `_exact_count_greater` on seeded random trees.  A
    float count that differs from it passes only inside the margin bracket
    of `count_margin`."""
    import random

    from . import diagonalize as dg, trees

    rng = random.Random(20240817)
    ok = True
    for t in range(trials):
        n = rng.randint(2, 12)
        parent = (None,) + tuple(rng.randrange(v) for v in range(1, n))
        tree = trees.RootedTree(n=n, parent=parent, order=tuple(range(n - 1, -1, -1)))
        alpha = rng.random()
        c = rng.uniform(-4.0, 4.0)
        M = trees.a_alpha_weights(tree, alpha)
        pos = _exact_count_greater(tree, alpha, c)
        eta = dg.count_margin(M)
        # the inertia pass behind every spectral radius
        n_greater = dg.count_eigenvalues_greater(M, c)
        if n_greater != pos and not _within_margin(tree, alpha, c, eta, n_greater, n):
            log(f"FAIL inertia trial {t}: count_eigenvalues_greater {n_greater} vs {pos}")
            ok = False
        # the capped count each bisection step asks for
        capped = dg.count_eigenvalues_greater(M, c, at_most=1)
        if capped != min(pos, 1) and not _within_margin(tree, alpha, c, eta, capped, 1):
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
    from . import shearer as sh

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
    from . import diagonalize as dg, trees

    tree = trees.tree_from_edge_list(_read_edges(args.edges))
    M = trees.a_alpha_weights(tree, args.alpha)
    res = dg.spectral_radius(M, args.tol)
    eta = dg.count_margin(M)  # the float counts are proven only to within eta
    _emit(
        [f"{HEADER}\nrho = {_fmt(res.value, max(args.digits, 16))} "
         f"(bracket [{res.lower - eta!r}, {res.upper + eta!r}], {res.iterations} iterations)\n"],
        args.output,
    )
    return 0


def _parse_grid(
    args, start: Optional[float] = None, stop: Optional[float] = None, count: int = 10
) -> Optional[list[float]]:
    """The alpha grid of `tables`/`sweep`, with `start`, `stop` and `count`
    standing in for options not given, or None for the default rows.  Every
    option given is used or refused, and the grid's size is settled before
    any point is made: a grid too large to print in seconds, or one whose
    points would not advance, is refused."""
    given = [f"--{o}" for o in ("start", "stop", "step", "count") if getattr(args, o) is not None]
    if args.alphas is not None:
        if given:
            raise ValueError(f"--alphas cannot be combined with {given[0]}")
        vals = [float(x) for x in args.alphas.split(",")]
        if not all(map(math.isfinite, vals)):
            raise ValueError("--alphas values must be finite")
        return vals
    if args.step is not None and args.count is not None:
        raise ValueError("--step and --count cannot be combined")
    start = start if args.start is None else args.start
    stop = stop if args.stop is None else args.stop
    missing = [o for o, v in (("--start", start), ("--stop", stop)) if v is None]
    if missing:
        if not given:
            return None
        raise ValueError(f"{given[0]} needs " + " and ".join(missing))
    if not all(map(math.isfinite, (start, stop, args.step or 0.0))):
        raise ValueError("--start, --stop and --step must be finite")
    if args.step is None:
        count = count if args.count is None else args.count
    elif not args.step > 0:
        raise ValueError("--step must be positive")
    else:
        spacing = math.ulp(max(abs(start), abs(stop)))
        if args.step < spacing:  # a smaller step may not advance the grid
            raise ValueError(f"--step must be at least the float spacing {spacing}")
        # a point at most 1e-9 of a step past the stop is still made:
        # (0.3 - 0.1) / 0.1 is 1.9999999999999998
        count = math.floor((stop - start) / args.step + 1e-9) + 1
    if count < 1:
        raise ValueError("grid must be non-empty")
    if count > MAX_GRID:
        raise ValueError(f"grid must have at most {MAX_GRID} points")
    if args.step is not None:
        return [round(start + i * args.step, 12) for i in range(count)]
    h = (stop - start) / max(count - 1, 1)
    return [start + i * h for i in range(count)]


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
    p.add_argument("--start", type=float, default=None, help="default 0")
    p.add_argument("--stop", type=float, default=None, help="default 0.49")
    p.add_argument("--step", type=float, default=None)
    p.add_argument("--count", type=int, default=None, help="default 50")
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
