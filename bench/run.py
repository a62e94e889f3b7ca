"""Benchmark of alpha-limit: one command, three workloads.

    python3 bench/run.py --workload certify-caterpillars --seed 1 --seconds 35 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's `src`.  Each run imports the program, makes its seeded inputs
and warms up five times, then makes whole passes over the fixed input
list, one op at a time, until --seconds have passed.  Every timed interval
is reported at reference host speed (see `Clock`).  Outputs are checked
after the timed phase.  The last line of stdout is one JSON object: with --trace 0 the
end-to-end metrics, with --trace 1 the per-layer metrics of a traced run.
A fuller record goes to .bench_out/ in the checkout.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5

# The host's speed drifts by 10-35% between 5-30 s windows; the program's
# pure-Python loops slow down with it; a fixed pure-Python loop timed right
# after each interval slows down alike.  Times are reported as if that loop
# took REF_MS: wall time * REF_MS / (mean of the loops on either side).
REF_ITERS = 100_000
REF_MS = 7.0


def reference_s() -> float:
    """Wall time of one fixed pure-Python loop: host speed, not program speed."""
    t0 = perf_counter()
    s = 0
    for i in range(REF_ITERS):
        s += i * i % 7
    return perf_counter() - t0


class Clock:
    """Times intervals at reference host speed.  `lap` returns the wall
    time since `start` scaled by REF_MS over the mean of the reference loop
    run before the interval and the one `lap` runs after it."""

    def __init__(self):
        self.ref = reference_s()
        self.refs: list[float] = []

    def start(self):
        self.t0 = perf_counter()

    def lap(self) -> tuple[float, float]:
        wall = perf_counter() - self.t0
        ref = reference_s()
        scale = REF_MS / 1e3 / (0.5 * (self.ref + ref))
        self.ref = ref
        self.refs.append(ref)
        return wall * scale, wall


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["certify-caterpillars", "radius-trees", "cli-session"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not (SRC / "alpha_limit" / "__init__.py").is_file():
        print(f"bench: no alpha_limit package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)

    import workloads

    if args.workload == "cli-session":
        wl = workloads.CliSession(SRC, out_dir)
    else:
        wl = {"certify-caterpillars": workloads.Certify,
              "radius-trees": workloads.RadiusTrees}[args.workload]()
    clock = Clock()
    clock.start()
    wl.load()
    import_s, import_wall = clock.lap()
    setup, setup_wall = [], []
    for _ in range(SETUP_REPEATS):
        clock.start()
        inputs = wl.make_inputs(args.seed)
        wl.warm_up(inputs)
        cal, wall = clock.lap()
        setup.append(cal)
        setup_wall.append(wall)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    times, traced_times, wall_times, records, errors = [], [], [], [], []
    passes = 0
    start = perf_counter()
    while True:
        # a traced run alternates untraced and traced passes, so that the
        # tracing overhead is measured under the same host drift
        traced = tracer is not None and passes % 2 == 1
        if traced:
            tracer.install()
        for i, inp in enumerate(inputs):
            if traced:
                tracer.op += 1
            clock.start()
            try:
                out = wl.run(inp)
            except Exception as exc:  # an op that raises counts as failed
                out = exc
            op_s, wall = clock.lap()
            if traced:
                tracer.op_span(clock.t0, clock.t0 + wall)
                traced_times.append(op_s)
            else:
                times.append(op_s)
                wall_times.append(wall)
            if isinstance(out, Exception):
                errors.append(f"input {i}: {out!r}")
            else:
                records.append((i, wl.summarize(i, out)))
        if traced:
            tracer.uninstall()
        passes += 1
        if perf_counter() - start >= args.seconds and (tracer is None or passes >= 2):
            break
    elapsed = perf_counter() - start
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    problems, bad_ops, cache = [], 0, {}
    for i, rec in records:
        try:
            found = wl.check(inputs, i, rec, cache)
        except Exception as exc:  # output the checks cannot read counts as wrong
            found = [f"input {i}: check raised {exc!r}"]
        if found:
            bad_ops += 1
            problems += found[:3]
    end_pair_failures = sum(map(getattr(wl, "end_pair_failures", lambda rec: 0),
                                (rec for _, rec in records)))
    attempted = passes * len(inputs)

    if tracer is None:
        metrics = {
            "setup_s": (import_s + statistics.median(setup), "s"),
            "ops_per_s": (attempted / sum(times), "1/s"),
            "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        tracing.probe_ops(tracer)
        layers = tracing.layer_metrics(tracer.spans)
        layers["diagonalize.oracle_ms"] = tracing.probe_oracle()
        layers["alpha_theory.curves_cold_us"], layers["alpha_theory.curves_warm_us"] = (
            tracing.probe_curves())
        layers.update(tracing.probe_cli(workloads.cli_env(SRC), ROOT, out_dir / "probe-tree.txt"))
        layers["op_p90_ms"] = statistics.quantiles(times, n=10)[-1] * 1e3
        layers["trace.overhead_us_per_op"] = (
            statistics.median(traced_times) - statistics.median(times)) * 1e6
        metrics = {name: (layers[name], unit) for name, unit in tracing.UNITS.items()}

    result = {
        "correct": bad_ops == 0,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=elapsed, passes=passes, inputs=len(inputs),
                  import_s=import_s, setup_repeats_s=setup,
                  wall={"import_s": import_wall, "setup_repeats_s": setup_wall,
                        "op_ms": [t * 1e3 for t in wall_times]},
                  reference_ms=[r * 1e3 for r in clock.refs], reference_scale_ms=REF_MS,
                  op_ms=[t * 1e3 for t in times], traced_op_ms=[t * 1e3 for t in traced_times],
                  checked_ops=len(records), ops_with_wrong_output=bad_ops,
                  problems=problems[:20], errors=errors[:20],
                  pairing_end_pair_failures=end_pair_failures,
                  python=sys.version.split()[0])
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n")
    print(f"# {args.workload} seed {args.seed}: {attempted} ops in {passes} passes over "
          f"{len(inputs)} inputs, {elapsed:.2f} s; {len(records)} outputs checked, "
          f"{bad_ops} wrong, {len(errors)} failed")
    ref_ms = [r * 1e3 for r in clock.refs]
    q = statistics.quantiles(ref_ms, n=4)
    print(f"# reference loop (not a metric): median {q[1]:.2f} ms, quartiles {q[0]:.2f}-{q[2]:.2f}, "
          f"min {min(ref_ms):.2f}; the metrics are scaled to {REF_MS} ms")
    if wall_times:
        print(f"# wall clock, unscaled: {len(wall_times) / sum(wall_times):.3f} ops/s, "
              f"median op {statistics.median(wall_times) * 1e3:.1f} ms")
    if end_pair_failures:
        print(f"# pairing_check: {end_pair_failures} FAIL pairs at the last spine vertex "
              f"(not counted: see FOUND in CHANGES.md)")
    for line in problems[:10] + errors[:10]:
        print(f"# {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
