"""The benchmark's workloads: seeded inputs, one op, and the checks of its
output.

Every op calls alpha_limit through module attributes (`sh.convergence_report`,
not a name imported once), so the traced run can wrap those attributes and
time each layer from outside.  Inputs of one workload are sized so that
their ops cost within a small factor of each other, and every seed gives
the same sizes, so that a run's mix does not depend on its seed.
"""
from __future__ import annotations

import importlib
import os
import random
import subprocess
import sys
from pathlib import Path

import checks

# certify-caterpillars: the ladder doubles k from k_max/16 to k_max.  One
# inertia pass costs about one unit per leaf and 2.5 per spine vertex (a
# spine vertex walks its children; a leaf has none), so k_max is chosen to
# give the top caterpillar CERTIFY_WORK units: n + 1.5 k.  Spines of the
# (tau1, tau1') regime, nearly bare paths, then cost what the leafier
# caterpillars above tau2 cost, and the median op is not split between two
# clusters.
CERTIFY_WORK = 5000
SPINE_EXTRA = 1.5
LADDER_RUNGS = 5
POINTS_PER_REGIME = 6
CERTIFY_TOL = 1e-12

# radius-trees: uniform-attachment trees (about half of them leaves) and
# starlike T_{1,m,m} (nearly all path vertices).  Measured per vertex, a
# pass costs about 1.4 us on the first and 1.7 us on the second, so 3000
# vertices against 2502 give ops of about equal cost.
RADIUS_MIX = ("random", "random", "starlike") * 4
RANDOM_N, STARLIKE_M = 3000, 1250
RADIUS_TOL = 1e-12

# cli-session: the tree given to `spectral-radius`.
CLI_TREE_N = 200


def _shuffled_tree(rng: random.Random, parent: list) -> list[tuple[int, int]]:
    """Edges of the tree with the given parent links, labels and edge order
    shuffled."""
    n = len(parent)
    label = list(range(n))
    rng.shuffle(label)
    edges = [(label[v], label[p]) for v, p in enumerate(parent) if p is not None]
    rng.shuffle(edges)
    return edges


def uniform_attachment(rng: random.Random, n: int) -> list[tuple[int, int]]:
    return _shuffled_tree(rng, [None] + [rng.randrange(v) for v in range(1, n)])


def starlike(rng: random.Random, m: int) -> list[tuple[int, int]]:
    """T_{1,m,m}: a centre with one pendant vertex and two paths of m."""
    parent = [None, 0, 0] + list(range(2, m + 1)) + [0] + list(range(m + 2, 2 * m + 1))
    return _shuffled_tree(rng, parent)


class Certify:
    """Shearer caterpillars at seeded (alpha, lambda) in both certified
    regimes: convergence_report over a doubling ladder, then the per-rung
    diagnostics of the `shearer` command."""

    in_process = True

    def load(self):
        from alpha_limit import shearer

        self.sh = shearer
        self.structures: dict = {}  # (input, k) -> pendant list of G_k

    def point(self, a: float, lam: float, regime: str, work: int = CERTIFY_WORK):
        """One input: the ladder whose top caterpillar costs ~work units."""
        rbar = sum(self.sh.build_shearer(a, lam, 512).r) / 512
        k_max = max(16, int(work / (1.0 + SPINE_EXTRA + rbar)) // 16 * 16)
        ladder = [k_max >> (LADDER_RUNGS - 1 - i) for i in range(LADDER_RUNGS)]
        return {"alpha": a, "lam": lam, "regime": regime, "ladder": ladder}

    def make_inputs(self, seed: int) -> list:
        rng = random.Random(seed)
        inputs = []
        for _ in range(POINTS_PER_REGIME):
            a = rng.uniform(0.0, 0.4)
            lam = checks.root("tau2", a) + rng.uniform(0.01, 0.6)
            inputs.append(self.point(a, lam, "above-tau2"))
            a = rng.uniform(0.0, 0.2)
            t1 = checks.root("tau0", a)
            hi = min(checks.root("tau1_prime", a), checks.root("tau2", a))
            inputs.append(self.point(a, t1 + rng.uniform(0.05, 0.95) * (hi - t1), "tau1-interval"))
        return inputs

    def warm_up(self, inputs):
        for inp in inputs:
            self.run(dict(inp, ladder=[4, 8, 16, 32, 64]))

    def run(self, inp):
        sh = self.sh
        a, lam = inp["alpha"], inp["lam"]
        rep = sh.convergence_report(a, lam, inp["ladder"], tol=CERTIFY_TOL)
        rungs = []
        for k in inp["ladder"]:
            seq = sh.build_shearer(a, lam, k)
            eps = sh.epsilon_roots(seq, [k])[0]
            window = sh.verify_window(seq)
            sh.divergence_sum(seq)  # reported by `shearer`; equals the report's Q_k
            pairs = sh.pairing_check(seq).pairs if rep.regime == "tau1-interval" else ()
            rungs.append((seq.r, eps, window.ok, pairs))
        return rep, rungs

    def summarize(self, i: int, out):
        """A compact record of one op's output; pendant lists are kept once
        per input, later ops only say whether theirs was the same."""
        rep, rungs = out
        rows = []
        for (k, rho, gap, c_over_k), (r, eps, window_ok, pairs) in zip(
            zip(rep.k, rep.rho_k, rep.gap_k, rep.c_over_k), rungs
        ):
            same_r = self.structures.setdefault((i, k), r) == r
            interior_ok = all(p.ok for p in pairs if p.right < k)
            end_fail = sum(1 for p in pairs if p.right == k and not p.ok)
            rows.append((k, rho, gap, c_over_k, eps, window_ok, interior_ok, end_fail, same_r))
        return rep.regime, rows

    def check(self, inputs, i: int, rec, radius_cache: dict) -> list[str]:
        inp = inputs[i]
        a, lam = inp["alpha"], inp["lam"]
        regime, rows = rec
        where = f"({a!r}, {lam!r})"
        bad = []
        if not regime == inp["regime"] == checks.regime_of(a, lam):
            bad.append(f"{where}: regime {regime}, drawn in {inp['regime']}")
        c = checks.c_const(a, lam)
        for k, rho, gap, c_over_k, eps, window_ok, interior_ok, _, same_r in rows:
            lower = lam - gap
            upper = 2.0 * rho - lower  # rho_k is the midpoint of the bracket
            if (i, k) not in radius_cache:
                r = self.structures[(i, k)]
                radius_cache[(i, k)] = checks.top_eigenvalue(
                    k + sum(r), checks.caterpillar_edges(r), a)
            ref = radius_cache[(i, k)]
            if not lower < lam:
                bad.append(f"{where} k={k}: lower end {lower!r} not below lambda")
            if not checks.in_bracket(ref, lower, upper):
                bad.append(f"{where} k={k}: independent radius {ref!r} outside [{lower!r}, {upper!r}]")
            if not gap <= c / k or abs(c_over_k - c / k) > 1e-9 * c / k:
                bad.append(f"{where} k={k}: gap {gap!r}, C/k {c_over_k!r}, closed form C/k {c / k!r}")
            if not checks.in_bracket(lam - eps, lower, upper):
                bad.append(f"{where} k={k}: lambda - eps_k = {lam - eps!r} outside the bracket")
            if not (window_ok and interior_ok and same_r):
                bad.append(f"{where} k={k}: window {window_ok}, interior pairs {interior_ok}, same r {same_r}")
        return bad

    @staticmethod
    def end_pair_failures(rec) -> int:
        return sum(row[7] for row in rec[1])


class RadiusTrees:
    """Edge list -> rooted tree -> A_alpha weights -> spectral radius."""

    in_process = True

    def load(self):
        # `alpha_limit.diagonalize` the attribute is the function; the
        # module is taken from sys.modules
        self.trees = importlib.import_module("alpha_limit.trees")
        self.dg = importlib.import_module("alpha_limit.diagonalize")

    def make_inputs(self, seed: int) -> list:
        rng = random.Random(seed)
        inputs = []
        for kind in RADIUS_MIX:
            if kind == "starlike":
                edges, n = starlike(rng, STARLIKE_M), 2 * STARLIKE_M + 2
            else:
                edges, n = uniform_attachment(rng, RANDOM_N), RANDOM_N
            inputs.append({"n": n, "edges": edges, "alpha": rng.uniform(0.05, 0.95)})
        return inputs

    def warm_up(self, inputs):
        rng = random.Random(0)
        for edges in (uniform_attachment(rng, 64), starlike(rng, 32)):
            self.run({"edges": edges, "alpha": 0.5})

    def run(self, inp):
        tree = self.trees.tree_from_edge_list(inp["edges"])
        M = self.trees.a_alpha_weights(tree, inp["alpha"])
        return self.dg.spectral_radius(M, RADIUS_TOL)

    def summarize(self, i: int, res):
        return res.lower, res.upper, res.iterations

    def check(self, inputs, i: int, rec, radius_cache: dict) -> list[str]:
        inp = inputs[i]
        lower, upper, _ = rec
        if i not in radius_cache:
            radius_cache[i] = checks.top_eigenvalue(inp["n"], inp["edges"], inp["alpha"])
        ref = radius_cache[i]
        if 0 < upper - lower <= RADIUS_TOL and checks.in_bracket(ref, lower, upper):
            return []
        return [f"tree {i} (n={inp['n']}, alpha={inp['alpha']!r}): "
                f"independent radius {ref!r}, bracket [{lower!r}, {upper!r}]"]


def cli_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


class CliSession:
    """A fixed cyclic script of short `alpha-limit` invocations, one fresh
    interpreter at a time."""

    in_process = False

    def __init__(self, src: Path, out_dir: Path):
        self.env = cli_env(src)
        self.cwd = src.parent
        self.tree_file = out_dir / "cli-tree.txt"

    def load(self):
        pass

    def make_inputs(self, seed: int) -> list:
        rng = random.Random(seed)
        self.tree_edges = uniform_attachment(rng, CLI_TREE_N)
        self.tree_alpha = rng.uniform(0.05, 0.95)
        self.tree_file.write_text("".join(f"{u + 1} {v + 1}\n" for u, v in self.tree_edges))
        examples = [["-a", "0.1", "-l", "2.44"], ["-a", "0.01", "-l", "2.06"]]
        script = [["tables", "all"], ["sweep"]]
        for ex in examples:
            script.append(["shearer", *ex, "-k", "100"])
            script.append(["shearer", *ex, "-k", "100", "--format", "json"])
        script += [["verify", "examples"], ["verify", "inertia"],
                   ["spectral-radius", "--edges", str(self.tree_file), "-a", repr(self.tree_alpha)]]
        return script

    def warm_up(self, inputs):
        self.run(["tables", "tau0"])

    def run(self, args):
        p = subprocess.run([sys.executable, "-m", "alpha_limit.cli", *args], cwd=self.cwd,
                           env=self.env, capture_output=True, text=True, timeout=120)
        if p.returncode != 0:
            raise RuntimeError(f"exit {p.returncode}: {p.stderr.strip()[-300:]}")
        return p.stdout

    def summarize(self, i: int, stdout):
        return stdout

    def check(self, inputs, i: int, out: str, cache: dict) -> list[str]:
        args = inputs[i]
        if (i, out) not in cache:
            cache[(i, out)] = self._check(args, out)
        return cache[(i, out)]

    def _check(self, args, out: str) -> list[str]:
        cmd = args[0]
        if cmd == "verify":
            last = out.splitlines()[-1]
            return [] if last.startswith("PASS") else [f"verify {args[1]}: {last}"]
        if "json" not in args and not out.startswith("# alpha-limit v1\n"):
            return [f"{' '.join(args)}: no version header"]
        if cmd == "tables":
            return checks.check_tables(out)
        if cmd == "sweep":
            return checks.check_sweep(out)
        if cmd == "shearer":
            return checks.check_shearer(args, out)
        return checks.check_spectral_radius(out, CLI_TREE_N, self.tree_edges, self.tree_alpha)
