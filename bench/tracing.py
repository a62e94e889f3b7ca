"""Traced mode: spans around calls into alpha_limit, fixed layer probes,
and the per-layer metrics.

Spans are recorded by wrapping module attributes of alpha_limit for the
duration of a traced pass and restoring them afterwards; the program itself
is not changed.  A span holds its name (the defining module and function),
start, end, parent span, op id and phase ("loop" for the workload's own ops,
"probe" for the fixed probes), plus the vertex count, bisection passes and
bracket width of a spectral radius.  Spans stay in memory and the
aggregates are written when the run ends.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import random
import statistics
import subprocess
import sys
from time import perf_counter

from workloads import Certify, RadiusTrees, starlike, uniform_attachment

# (module, attributes) wrapped in a traced pass.  The ops call these
# modules' attributes, and convergence_report reaches build_shearer,
# make_caterpillar, a_alpha_weights, spectral_radius, sigma_bound and
# divergence_sum through the shearer module's globals.
TARGETS = {
    "alpha_limit.shearer": (
        "convergence_report", "build_shearer", "make_caterpillar", "a_alpha_weights",
        "spectral_radius", "epsilon_roots", "verify_window", "divergence_sum",
        "pairing_check",
    ),
    "alpha_limit.trees": ("tree_from_edge_list", "a_alpha_weights"),
    "alpha_limit.diagonalize": ("spectral_radius",),
}

NAME, START, END, PARENT, OP, PHASE, N, ITERS, WIDTH = range(9)

# The per-layer metrics of a traced run, with their units.
UNITS = {
    "diagonalize.spectral_radius_ms": "ms",
    "diagonalize.passes_per_radius": "count",
    "diagonalize.pass_us_per_vertex": "us",
    "diagonalize.bracket_width": "abs",
    "diagonalize.oracle_ms": "ms",
    "shearer.convergence_report_ms": "ms",
    "shearer.build_shearer_ms": "ms",
    "shearer.epsilon_roots_ms": "ms",
    "shearer.diagnostics_ms": "ms",
    "shearer.radius_share": "ratio",
    "trees.make_caterpillar_ms": "ms",
    "trees.a_alpha_weights_ms": "ms",
    "trees.from_edge_list_us_per_vertex": "us",
    "alpha_theory.curves_cold_us": "us",
    "alpha_theory.curves_warm_us": "us",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.import_numpy_ms": "ms",
    "cli.main_ms.tables": "ms",
    "cli.main_ms.sweep": "ms",
    "cli.main_ms.shearer": "ms",
    "cli.main_ms.verify": "ms",
    "cli.main_ms.spectral-radius": "ms",
    "op_p90_ms": "ms",
    "trace.overhead_us_per_op": "us",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = 0
        self.phase = "loop"
        self._saved: list = []

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, self.phase,
                   None, None, None]
            spans.append(rec)
            stack.append(len(spans) - 1)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if name == "diagonalize.spectral_radius":
                rec[N], rec[ITERS] = args[0].tree.n, result.iterations
                rec[WIDTH] = result.upper - result.lower
            elif name == "trees.tree_from_edge_list":
                rec[N] = result.n
            return result

        return traced

    def install(self):
        for modname, attrs in TARGETS.items():
            mod = sys.modules.get(modname)  # cli-session's ops run in children
            for attr in attrs if mod else ():
                fn = getattr(mod, attr)
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(fn))

    def uninstall(self):
        for mod, attr, fn in self._saved:
            setattr(mod, attr, fn)
        self._saved.clear()

    def op_span(self, start: float, end: float):
        self.spans.append(["op", start, end, None, self.op, self.phase, None, None, None])


# -- probes -------------------------------------------------------------------

def _median_ms(samples) -> float:
    return statistics.median(samples) * 1e3


def probe_ops(tracer: Tracer):
    """One traced op of each in-process kind on fixed inputs, so that every
    workload's traced run reports the layers its own ops do not reach."""
    cert, rad = Certify(), RadiusTrees()
    cert.load()
    rad.load()
    rng = random.Random(1)
    jobs = [(cert, cert.point(0.1, 2.44, "above-tau2", 2000)),
            (cert, cert.point(0.01, 2.06, "tau1-interval", 2000)),
            (rad, {"edges": uniform_attachment(rng, 2000), "alpha": 0.3}),
            (rad, {"edges": starlike(rng, 1000), "alpha": 0.3})]
    tracer.phase = "probe"
    tracer.install()
    try:
        for wl, inp in jobs:
            tracer.op += 1
            t0 = perf_counter()
            wl.run(inp)
            tracer.op_span(t0, perf_counter())
    finally:
        tracer.uninstall()


def probe_oracle() -> float:
    """dense_spectrum_oracle on verify-inertia-sized trees (n <= 12)."""
    dg = importlib.import_module("alpha_limit.diagonalize")
    trees = importlib.import_module("alpha_limit.trees")
    rng = random.Random(2)
    samples = []
    for _ in range(40):
        tree = trees.tree_from_edge_list(uniform_attachment(rng, rng.randint(2, 12)))
        M = trees.a_alpha_weights(tree, rng.random())
        t0 = perf_counter()
        dg.dense_spectrum_oracle(M)
        samples.append(perf_counter() - t0)
    return _median_ms(samples)


def probe_curves() -> tuple[float, float]:
    """tau0, tau2 and tau1_interval at alphas the process has not seen
    (cold), then at the same alphas again (warm); microseconds per alpha."""
    from alpha_limit import alpha_theory as at

    rng = random.Random(3)
    alphas = [rng.uniform(0.001, 0.2) for _ in range(100)]
    out = []
    for _ in range(2):
        samples = []
        for a in alphas:
            t0 = perf_counter()
            at.tau0(a)
            at.tau2(a)
            at.tau1_interval(a)
            samples.append(perf_counter() - t0)
        out.append(statistics.median(samples) * 1e6)
    return out[0], out[1]


def probe_cli(env: dict, cwd, tree_file) -> dict:
    """Interpreter floor, import cost and in-process cli.main per command."""
    def child(*args):
        t0 = perf_counter()
        p = subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                           capture_output=True, text=True, timeout=120)
        if p.returncode != 0:
            raise RuntimeError(f"{args}: exit {p.returncode}")
        return perf_counter() - t0, p.stderr

    floor, imp, numpy_ms = [], [], []
    for _ in range(5):  # interleaved, so host drift hits both alike
        floor.append(child("-c", "pass")[0])
        imp.append(child("-c", "import alpha_limit.cli")[0])
    for _ in range(3):
        err = child("-X", "importtime", "-c", "import alpha_limit.cli")[1]
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "numpy":
                numpy_ms.append(int(parts[1]) / 1e3)
    out = {
        "cli.interpreter_ms": _median_ms(floor),
        "cli.import_ms": _median_ms(imp) - _median_ms(floor),
        # 0 once `import alpha_limit.cli` no longer imports numpy
        "cli.import_numpy_ms": statistics.median(numpy_ms) if numpy_ms else 0.0,
    }

    from alpha_limit import alpha_theory as at, cli

    rng = random.Random(4)
    tree_file.write_text("".join(f"{u + 1} {v + 1}\n" for u, v in uniform_attachment(rng, 200)))
    commands = {
        "tables": ["tables", "all"],
        "sweep": ["sweep"],
        "shearer": ["shearer", "-a", "0.1", "-l", "2.44", "-k", "100"],
        "verify": ["verify", "all"],
        "spectral-radius": ["spectral-radius", "--edges", str(tree_file), "-a", "0.3"],
    }
    for key, argv in commands.items():
        samples = []
        for _ in range(3):
            for fn in vars(at).values():  # a fresh process starts with cold curves
                if hasattr(fn, "cache_clear"):
                    fn.cache_clear()
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = perf_counter()
                rc = cli.main(argv)
                samples.append(perf_counter() - t0)
            if rc != 0:
                raise RuntimeError(f"cli.main({argv}) returned {rc}")
        out[f"cli.main_ms.{key}"] = _median_ms(samples)
    return out


# -- aggregation --------------------------------------------------------------

def _source(spans, name):
    """Spans of this name from the workload's own ops if it made any,
    otherwise from the probes."""
    loop = [s for s in spans if s[NAME] == name and s[PHASE] == "loop"]
    return loop or [s for s in spans if s[NAME] == name and s[PHASE] == "probe"]


def _per_op(spans) -> dict:
    """Total duration of the given spans within each op."""
    totals: dict = {}
    for s in spans:
        totals[s[OP]] = totals.get(s[OP], 0.0) + s[END] - s[START]
    return totals


def _per_op_ms(spans, name) -> float:
    return statistics.median(_per_op(_source(spans, name)).values()) * 1e3


def layer_metrics(spans) -> dict:
    radius = _source(spans, "diagonalize.spectral_radius")
    reports = _source(spans, "shearer.convergence_report")
    under_report = [s for s in spans
                    if s[NAME] == "diagonalize.spectral_radius" and s[PARENT] is not None
                    and spans[s[PARENT]][NAME] == "shearer.convergence_report"
                    and s[PHASE] == reports[0][PHASE]]
    # an op that runs convergence_report spends the rest of its time in
    # the per-rung diagnostics
    report_time = _per_op(reports)
    diagnostics = [s[END] - s[START] - report_time[s[OP]]
                   for s in spans if s[NAME] == "op" and s[OP] in report_time]
    edge = _source(spans, "trees.tree_from_edge_list")
    dur = lambda ss: sum(s[END] - s[START] for s in ss)  # noqa: E731
    return {
        "diagonalize.spectral_radius_ms": _per_op_ms(spans, "diagonalize.spectral_radius"),
        "diagonalize.passes_per_radius": statistics.fmean(s[ITERS] for s in radius),
        "diagonalize.pass_us_per_vertex": dur(radius) / sum(s[ITERS] * s[N] for s in radius) * 1e6,
        "diagonalize.bracket_width": statistics.median(s[WIDTH] for s in radius),
        "shearer.convergence_report_ms": _per_op_ms(spans, "shearer.convergence_report"),
        "shearer.build_shearer_ms": _per_op_ms(spans, "shearer.build_shearer"),
        "shearer.epsilon_roots_ms": _per_op_ms(spans, "shearer.epsilon_roots"),
        "shearer.diagnostics_ms": statistics.median(diagnostics) * 1e3,
        "shearer.radius_share": dur(under_report) / dur(reports),
        "trees.make_caterpillar_ms": _per_op_ms(spans, "trees.make_caterpillar"),
        "trees.a_alpha_weights_ms": _per_op_ms(spans, "trees.a_alpha_weights"),
        "trees.from_edge_list_us_per_vertex": dur(edge) / sum(s[N] for s in edge) * 1e6,
    }
