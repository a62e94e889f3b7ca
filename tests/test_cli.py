"""Command-line behaviour: formats, exit codes, determinism, regimes."""
from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import alpha_limit
from alpha_limit import cli, diagonalize, shearer
from alpha_limit.alpha_theory import CURVE_MEMO_SIZE, _curve_root, alpha_star
from alpha_limit.cli import main
from alpha_limit.diagonalize import count_eigenvalues_greater, count_margin
from alpha_limit.trees import RootedTree, a_alpha_weights, make_path
from exact_inertia import dense_count_greater, exact_count_greater


TREE12 = str(Path(__file__).parent / "golden" / "tree12.edges")


def _case(label: str, value, message: str):
    """An (input, message) case with the fixed id `label-message`.  The
    labels keep the ids these tests once had by position, and a new case
    takes a new label, so inserting a case renames no other test."""
    return pytest.param(value, message, id=f"{label}-{message}")


def _run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["-o", str(out)])
    return code, out.read_text()


def test_tables_tau0_paper_rows(tmp_path):
    code, text = _run_to_file(tmp_path, "t0.txt", ["tables", "tau0"])
    assert code == 0
    assert text.startswith("# alpha-limit v1\n")
    assert "tau0=2.058171027" in text
    assert "tau0=2.999700025" in text
    assert len(text.strip().split("\n")) == 11  # header + 10 rows


def test_tables_csv_layout(tmp_path):
    code, text = _run_to_file(
        tmp_path, "all.csv", ["tables", "all", "--format", "csv"]
    )
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[0] == "# alpha-limit v1"
    assert lines[1] == "alpha,tau0,tau1,tau1_prime,tau2"
    # tau1 rows at alpha=0 serialize the unbounded end as the literal inf
    assert any(",inf," in line for line in lines)


def test_tables_undefined_rows_exit_zero(tmp_path):
    code, text = _run_to_file(
        tmp_path, "bad.txt", ["tables", "tau2", "--alphas", "0.6"]
    )
    assert code == 0
    assert "undefined" in text
    code, text = _run_to_file(
        tmp_path, "bad.csv", ["tables", "tau2", "--alphas", "0.6", "--format", "csv"]
    )
    assert code == 0
    assert text.strip().split("\n")[-1] == "0.6,,,,"


def test_tables_json(tmp_path):
    code, text = _run_to_file(
        tmp_path, "t1.json", ["tables", "tau1", "--format", "json"]
    )
    assert code == 0
    rows = json.loads(text)
    by_alpha = {row["alpha"]: row for row in rows}
    assert by_alpha[0.0]["tau1_prime"] == "inf"
    assert by_alpha[0.0]["tau2"] is None
    assert math.isclose(by_alpha[0.01]["tau1"], 2.059312583, abs_tol=1e-6)


def test_tables_determinism(tmp_path):
    argv = ["tables", "all", "--format", "csv"]
    _, first = _run_to_file(tmp_path, "a.csv", argv)
    _, second = _run_to_file(tmp_path, "b.csv", argv)
    assert first == second


def test_shearer_report(tmp_path):
    code, text = _run_to_file(
        tmp_path, "s.txt", ["shearer", "-a", "0.1", "-l", "2.44", "-k", "30"]
    )
    assert code == 0
    assert "regime=above-tau2" in text
    assert "r: [4, 0, 1, 1, 1, 1, 0," in text
    assert "rho(G_30)" in text
    assert "sigma_k" in text and "Q_k" in text


def test_shearer_pairing_table_in_interval_regime(tmp_path):
    code, text = _run_to_file(
        tmp_path, "p.txt", ["shearer", "-a", "0.01", "-l", "2.06", "-k", "30"]
    )
    assert code == 0
    assert "regime=tau1-interval" in text
    assert "pairing bound (1-alpha)^2 = 0.9801" in text
    assert "b_10 * b_11" in text
    assert "FAIL" not in text
    # pairs stop before v_k, whose b_k carries the root's extra -alpha
    code, text = _run_to_file(
        tmp_path, "end.txt", ["shearer", "-a", "0.1873", "-l", "2.1181", "-k", "100"]
    )
    assert code == 0
    assert "pairing bound" in text
    assert "* b_100 " not in text
    assert "FAIL" not in text


def test_shearer_json(tmp_path):
    code, text = _run_to_file(
        tmp_path,
        "s.json",
        ["shearer", "-a", "0.1", "-l", "2.44", "-k", "20", "--format", "json"],
    )
    assert code == 0
    data = json.loads(text)
    assert data["k"] == 20
    assert data["regime"] == "above-tau2"
    assert data["rho"] < 2.44 < data["rho"] + data["gap"] + 1e-9


@pytest.mark.parametrize(
    "argv, builds",
    [
        pytest.param(["shearer", "-a", "0.1", "-l", "2.44", "-k", "20"], [(0.1, 2.44, 20)],
                     id="argv0-builds0"),
        pytest.param(["verify", "examples"], [(0.1, 2.44, 100), (0.01, 2.06, 100)],
                     id="argv1-builds1"),
    ],
)
def test_each_caterpillar_is_built_once(monkeypatch, capsys, argv, builds):
    calls = []
    build = shearer.build_shearer

    def counting(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(shearer, "build_shearer", counting)
    assert main(argv) == 0
    assert calls == builds


def test_shearer_refusal_names_thresholds(capsys):
    code = main(["shearer", "-a", "0.22", "-l", "2.4", "-k", "20"])
    assert code == 2
    err = capsys.readouterr().err
    assert "tau2(0.22)" in err
    assert "--exploratory" in err


def test_shearer_exploratory_probes_the_gap(tmp_path):
    code, text = _run_to_file(
        tmp_path,
        "x.txt",
        ["shearer", "-a", "0.22", "-l", "2.4", "-k", "20", "--exploratory"],
    )
    assert code == 0
    assert "regime=exploratory" in text


def test_sweep_labels(tmp_path):
    code, text = _run_to_file(
        tmp_path,
        "sweep.csv",
        ["sweep", "--alphas", "0,0.05,0.105572809,0.15,0.22,0.3,0.55"],
    )
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[1] == "alpha,tau0,tau1_prime,tau2,regime"
    labels = [line.split(",")[-1] for line in lines[2:]]
    assert labels == [
        "interval-I",
        "interval-I",
        "interval-I",
        "gap",
        "gap",
        "interval-II",
        "unknown",
    ]


def test_sweep_rows_sorted_by_alpha(tmp_path):
    code, text = _run_to_file(
        tmp_path, "sorted.csv", ["sweep", "--alphas", "0.3,0.1,0.2"]
    )
    assert code == 0
    alphas = [float(line.split(",")[0]) for line in text.strip().split("\n")[2:]]
    assert alphas == sorted(alphas)


@pytest.mark.parametrize(
    "grid",
    [pytest.param([], id="default"),
     pytest.param(["--alphas", "0,0.2,0.41000000000000003,0.55"], id="alphas")],
)
def test_sweep_json_taus_are_the_roots_at_the_printed_alpha(tmp_path, grid):
    # each tau is the curve's root at the alpha printed beside it, bit for
    # bit, also at the default grid's 0.41000000000000003 and
    # 0.47000000000000003, whose roots differ from those at 0.41 and 0.47
    code, text = _run_to_file(tmp_path, "s.json", ["sweep", *grid, "--format", "json"])
    assert code == 0
    a_star = alpha_star()[0]
    for row in json.loads(text):
        a = row["alpha"]
        for kind, defined in (("tau0", True), ("tau1_prime", a < a_star), ("tau2", a < 0.5)):
            if not defined:
                assert row[kind] is None
            elif kind == "tau1_prime" and a == 0.0:
                assert row[kind] == "inf"
            else:
                assert row[kind] == _curve_root.__wrapped__(kind, a)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_writes_each_row_as_it_is_made(monkeypatch, fmt):
    made = 0
    make = cli._sweep_row

    def counting(a):
        nonlocal made
        made += 1
        return make(a)

    writes = []  # (rows made at the write, text written)

    class Recorder:
        def write(self, text):
            writes.append((made, text))

    def rows_in(text):
        if fmt == "json":
            return text.count('"label":')
        return sum(not line.startswith(("#", "alpha,")) for line in text.splitlines())

    monkeypatch.setattr(cli, "_sweep_row", counting)
    monkeypatch.setattr(sys, "stdout", Recorder())
    assert main(["sweep", "--count", "20", "--format", fmt]) == 0
    monkeypatch.undo()
    written = 0
    for made_then, text in writes:
        assert made_then <= written + 1
        written += rows_in(text)
    assert written == made == 20
    if fmt == "json":
        assert len(json.loads("".join(text for _, text in writes))) == 20


@pytest.mark.parametrize("cmd", [["tables", "tau0"], ["sweep"]])
def test_refused_grid_leaves_no_output_file(tmp_path, capsys, cmd):
    out = tmp_path / "out.txt"
    _assert_one_line_error(capsys, cmd + ["--start", "0", "--stop", "1", "--count", "0",
                                          "-o", str(out)])
    assert not out.exists()


def test_sweep_keeps_the_curve_memo_bounded():
    rng = random.Random(5000)
    _curve_root.cache_clear()
    for _ in range(5000):
        cli._sweep_row(rng.uniform(0.0, 0.49))
    info = _curve_root.cache_info()
    assert info.maxsize == CURVE_MEMO_SIZE
    assert CURVE_MEMO_SIZE < info.misses
    assert info.currsize <= CURVE_MEMO_SIZE
    # the reuse the bound is sized for: twelve certify points below alpha*,
    # cycled twice, miss each of their three curves once
    points = [rng.uniform(0.0, 0.2) for _ in range(12)]
    _curve_root.cache_clear()
    for a in points * 2:
        shearer.classify_regime(a, 2.5)
        cli._sweep_row(a)
    assert _curve_root.cache_info().misses == 3 * len(points)


def test_verify_identities_exit_code(capsys):
    assert main(["verify", "identities"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS")


def test_verify_inertia_checks_the_compiled_kernel(monkeypatch):
    count = diagonalize.count_eigenvalues_greater
    # an off-by-one in the full count, then in the capped count only
    for off_in_capped in (False, True):

        def off_by_one(M, c, at_most=None):
            n = count(M, c, at_most)
            return n + 1 if (at_most is not None) == off_in_capped else n

        monkeypatch.setattr(diagonalize, "count_eigenvalues_greater", off_by_one)
        lines = []
        assert cli.verify_inertia(log=lines.append) is False
        assert lines[-1].startswith("FAIL inertia")
        kind = "count capped at 1" if off_in_capped else "count_eigenvalues_greater"
        assert all(kind in line for line in lines[:-1])


@st.composite
def small_trees(draw):
    """A random tree on 2 to 12 vertices, the sizes `verify inertia` draws."""
    n = draw(st.integers(2, 12))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    parent = (None,) + tuple(rng.randrange(v) for v in range(1, n))
    return RootedTree(n=n, parent=parent, order=tuple(range(n - 1, -1, -1)))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(tree=small_trees(), alpha=st.floats(0.0, 1.0), c=st.floats(-4.0, 4.0))
def test_exact_count_matches_the_pivots_and_eigvalsh(tree, alpha, c):
    np = pytest.importorskip("numpy")
    count = cli._exact_count_greater(tree, alpha, c)
    assert count == exact_count_greater(tree.parent, tree.order, alpha, c)
    # the dense count shares no step with the leaves-first ones; it is
    # undecided where what remains has a zero diagonal and an edge
    dense = dense_count_greater(tree.parent, alpha, c)
    assert dense is None or count == dense
    ev = np.linalg.eigvalsh(a_alpha_weights(tree, alpha).dense())
    if np.all(np.abs(ev - c) > 1e-9):
        assert count == np.sum(ev > c)


def test_exact_count_where_a_leading_minor_is_zero():
    # P_2 at c = 1, an eigenvalue: D_1 = alpha - 1 and D_2 = 0, the zero
    # remainder; the float count reads 1 there, within its margin
    a = 0.17584436767598854
    M = a_alpha_weights(make_path(2), a)
    assert cli._exact_count_greater(M.tree, a, 1.0) == 0
    assert count_eigenvalues_greater(M, 1.0) == 1
    assert cli._within_margin(M.tree, a, 1.0, count_margin(M), 1, 2)
    # P_3 at c = alpha, whose eigenvalues are alpha and (3 alpha +-
    # sqrt(alpha^2 + 8 (1 - alpha)^2)) / 2: the end vertex 0 gives D_1 = 0,
    # so vertex 1 is swapped in; with the center last, vertex 2 is swapped
    # in past vertex 1, and the edge {1, 2} moves with it
    cherry = RootedTree(n=3, parent=(2, 2, None), order=(0, 1, 2))
    for a in (0.25, 0.3):
        assert cli._exact_count_greater(make_path(3), a, a) == 1
        assert cli._exact_count_greater(cherry, a, a) == 1
    # at alpha = 1 and c = 1 the matrix of P_2 is zero
    assert cli._exact_count_greater(make_path(2), 1.0, 1.0) == 0
    # P_2 at c = alpha has the eigenvalues +-(1 - alpha) and a zero
    # diagonal, alpha = c = 0 included: the leaf's pivot is zero, so the
    # zero rule makes it positive and the root's negative, where the dense
    # elimination is left undecided
    for a in (0.0, 0.17584436767598854, 0.25, 0.5):
        assert dense_count_greater(make_path(2).parent, a, a) is None
        assert cli._exact_count_greater(make_path(2), a, a) == 1


def test_verify_inertia_fails_a_disagreeing_exact_count(monkeypatch):
    exact = cli._exact_count_greater
    monkeypatch.setattr(cli, "_exact_count_greater", lambda tree, alpha, c: exact(tree, alpha, c) + 1)
    lines = []
    assert cli.verify_inertia(trials=5, log=lines.append) is False
    assert len(lines) > 1 and all(line.startswith("FAIL inertia trial") for line in lines[:-1])
    assert lines[-1] == "FAIL inertia: 5 random trees vs dense oracle"


def test_spectral_radius_subcommand(tmp_path):
    edges = tmp_path / "star.txt"
    edges.write_text("# star on five vertices\n1 2\n1 3\n1 4\n1 5\n")
    out = tmp_path / "rho.txt"
    code = main(
        ["spectral-radius", "--edges", str(edges), "-a", "0", "-o", str(out)]
    )
    assert code == 0
    text = out.read_text()
    assert text.startswith("# alpha-limit v1\n")
    rho = float(text.split("rho = ")[1].split()[0])
    assert rho == pytest.approx(2.0, abs=1e-10)


def test_spectral_radius_bracket_holds_the_radius_at_alpha_1(tmp_path):
    # A_1(P_2) = D(P_2) = I: its radius 1 is a pivot of every vertex at once
    edges = tmp_path / "p2.txt"
    edges.write_text("1 2\n")
    code, text = _run_to_file(
        tmp_path, "rho.txt", ["spectral-radius", "--edges", str(edges), "-a", "1"]
    )
    assert code == 0
    lower, upper = map(float, text.split("bracket [")[1].split("]")[0].split(", "))
    assert lower < 1.0 <= upper


def test_spectral_radius_prints_the_proven_bracket(tmp_path):
    # A_alpha(P_2) has the radius 1 at every alpha; at this alpha the float
    # count above 1 is 1 where the exact count is 0, so the bisection's own
    # lower end is 1.0, and only lower - count_margin lies below the radius
    edges = tmp_path / "p2.txt"
    edges.write_text("1 2\n")
    code, text = _run_to_file(
        tmp_path, "rho.txt",
        ["spectral-radius", "--edges", str(edges), "-a", "0.17584436767598854"],
    )
    assert code == 0
    lower, upper = map(float, text.split("bracket [")[1].split("]")[0].split(", "))
    assert lower < 1.0 <= upper


def test_digits_flag(tmp_path):
    code, text = _run_to_file(
        tmp_path, "d4.txt", ["tables", "tau0", "--alphas", "0", "--digits", "4"]
    )
    assert code == 0
    assert "tau0=2.058\n" in text


def _assert_one_line_error(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    return err


@pytest.mark.parametrize(
    "argv, message",
    [
        _case("argv0", ["tables", "tau0", "--start", "0.1"], "--start needs --stop"),
        _case("argv1", ["shearer", "-a", "0.1", "-l", "2.44", "-k", "0"], "k must be >= 1"),
        _case("argv2", ["shearer", "-a", "0.1", "-l", "nan", "--exploratory"], "finite"),
        _case("argv3", ["shearer", "-a", "0.1", "-l", "inf"], "finite"),
        _case("argv4", ["tables", "tau0", "--start", "0.1", "--stop", "0.2", "--count", "0"],
            "grid must be non-empty"),
        _case("argv5", ["sweep", "--count", "0"], "grid must be non-empty"),
        # the input is validated before the regime is looked at
        _case("argv6", ["shearer", "-a", "1.5", "-l", "2.5", "-k", "7"],
            "alpha-limit: error: alpha must lie in [0, 1)"),
        _case("argv7", ["shearer", "-a", "0.1", "-l", "1.5"],
            "alpha-limit: error: lambda must exceed 2"),
        _case("argv8", ["shearer", "-a", "-0.5", "-l", "2.5"],
            "alpha-limit: error: alpha must lie in [0, 1)"),
        _case("argv9", ["shearer", "-a", "0.22", "-l", "2.4", "-k", "20"],
            "alpha-limit: error: no convergence guarantee covers this point (lambda < tau2(0.22)"),
        _case("argv10", ["shearer", "-a", "0.1", "-l", "2.44", "-k", "10", "--tol", "nan"],
            "tol must be a positive finite number"),
        _case("argv11", ["shearer", "-a", "0.1", "-l", "2.44", "-k", "10", "--tol", "inf"],
            "tol must be a positive finite number"),
        _case("argv12", ["spectral-radius", "--edges", TREE12, "-a", "0.3", "--tol", "nan"],
            "tol must be a positive finite number"),
        _case("argv13", ["spectral-radius", "--edges", TREE12, "-a", "0.3", "--tol", "inf"],
            "tol must be a positive finite number"),
        _case("argv14", ["shearer", "-a", "0.1", "-l", "2.44", "-k", "100001"],
            "alpha-limit: error: k must be at most 100000\n"),
        _case("argv15", ["shearer", "-a", "0", "-l", "1e5", "-k", "3"],
            "alpha-limit: error: G_3 would have 19114929324 vertices; at most 1000000"),
        _case("argv16", ["shearer", "-a", "0.1", "-l", "1e300", "-k", "3"],
            "alpha-limit: error: lambda must be below 2**512"),
        _case("argv17", ["sweep", "--alphas", "nan,inf,0.1"],
            "alpha-limit: error: --alphas values must be finite\n"),
        _case("argv18", ["tables", "tau0", "--alphas", "0.1,-inf"],
            "--alphas values must be finite"),
        _case("argv19", ["tables", "tau0", "--start", "0.3", "--stop", "0.1", "--step", "0.1"],
            "grid must be non-empty"),
        # cancellation in the float spine leaves no count with b_j below
        # theta', at the first vertex or in mid-spine
        _case("argv20", ["shearer", "-a", "0.1", "-l", "1e100", "-k", "3"],
            "alpha-limit: error: float breakdown in the spine recurrence:"
            " no count r_1 >= 0 keeps b_1 below theta'\n"),
        _case("argv21", ["shearer", "-a", "0", "-l", "237137370.56616554", "-k", "3"],
            "alpha-limit: error: float breakdown in the spine recurrence:"
            " no count r_2 >= 0 keeps b_2 below theta'\n"),
        # every grid option given is used or refused
        _case("argv22",
            ["tables", "tau0", "--start", "0", "--stop", "0.1", "--step", "0.05", "--count", "7"],
            "alpha-limit: error: --step and --count cannot be combined\n"),
        _case("argv23", ["tables", "tau0", "--count", "3"],
            "alpha-limit: error: --count needs --start and --stop\n"),
        _case("argv24", ["tables", "tau0", "--stop", "0.3"],
            "alpha-limit: error: --stop needs --start\n"),
        _case("argv25", ["tables", "tau0", "--alphas", "0.1", "--start", "0.2", "--stop", "0.3"],
            "alpha-limit: error: --alphas cannot be combined with --start\n"),
        _case("argv26", ["sweep", "--alphas", "0.1", "--count", "3", "--step", "0.1"],
            "alpha-limit: error: --alphas cannot be combined with --step\n"),
        _case("argv27", ["tables", "tau0", "--alphas", ""], "could not convert string to float"),
    ],
)
def test_bad_input_is_one_line_exit_2(capsys, argv, message):
    assert message in _assert_one_line_error(capsys, argv)


def test_spectral_radius_alpha_out_of_range(tmp_path, capsys):
    edges = tmp_path / "p3.txt"
    edges.write_text("1 2\n2 3\n")
    err = _assert_one_line_error(
        capsys, ["spectral-radius", "--edges", str(edges), "-a", "1.5"]
    )
    assert "alpha must lie in [0, 1]" in err


@pytest.mark.parametrize("step", ["0", "-0.1"])
def test_non_positive_step_is_rejected_not_looped(step):
    # a child process, so that a grid loop that never ends fails the test
    env = dict(os.environ, PYTHONPATH=str(Path(alpha_limit.__file__).parents[1]))
    p = subprocess.run(
        [sys.executable, "-m", "alpha_limit.cli", "tables", "tau0",
         "--start", "0.1", "--stop", "0.2", "--step", step],
        env=env, capture_output=True, text=True, timeout=10,
    )
    assert p.returncode == 2
    assert p.stderr == "alpha-limit: error: --step must be positive\n"
    assert p.stdout == ""


@pytest.mark.parametrize(
    "grid, message",
    [
        _case("grid0", ["--start", "0", "--stop", "inf", "--step", "0.1"],
            "--start, --stop and --step must be finite"),
        _case("grid1", ["--start", "nan", "--stop", "1"],
            "--start, --stop and --step must be finite"),
        _case("grid2", ["--start", "0", "--stop", "1", "--count", "100000000"],
            "grid must have at most 100000 points"),
        _case("grid3", ["--start", "0", "--stop", "10000", "--step", "0.1"],
            "grid must have at most 100000 points"),
        # 1e16 + 1 rounds back to 1e16, so the running value would never advance
        _case("grid4", ["--start", "1e16", "--stop", "10000000000000004", "--step", "1"],
            "--step must be at least the float spacing 2.0"),
    ],
)
def test_unbounded_grid_is_refused_before_it_is_made(grid, message):
    # a child process, so that a grid that never ends fails the test
    env = dict(os.environ, PYTHONPATH=str(Path(alpha_limit.__file__).parents[1]))
    p = subprocess.run(
        [sys.executable, "-m", "alpha_limit.cli", "tables", "tau0", *grid],
        env=env, capture_output=True, text=True, timeout=10,
    )
    assert p.returncode == 2
    assert p.stderr == f"alpha-limit: error: {message}\n"
    assert p.stdout == ""


@pytest.mark.parametrize(
    "grid, alphas",
    [
        pytest.param(["--start", "0.1", "--stop", "0.3", "--step", "0.1"], [0.1, 0.2, 0.3],
                     id="grid0-alphas0"),
        pytest.param(["--start", "0.1", "--stop", "0.3", "--count", "1"], [0.1],
                     id="grid1-alphas1"),
        # repeated addition of 0.1 would stop at 2.7
        pytest.param(["--start", "0", "--stop", "2.8", "--step", "0.1"],
                     [i / 10 for i in range(29)], id="grid2-alphas2"),
    ],
)
def test_step_and_single_point_grids(tmp_path, grid, alphas):
    code, text = _run_to_file(
        tmp_path, "g.json", ["tables", "tau0", *grid, "--format", "json"]
    )
    assert code == 0
    assert [row["alpha"] for row in json.loads(text)] == alphas


def test_shearer_refusal_above_one_half_names_the_reason(capsys):
    err = _assert_one_line_error(capsys, ["shearer", "-a", "0.6", "-l", "5", "-k", "10"])
    assert "alpha >= 1/2: no tau2 threshold exists" in err
    assert "()" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        _case("argv0", ["shearer", "-a", "0.1", "-l", "2.44", "--format", "csv"],
            "invalid choice: 'csv'"),
        _case("argv1", ["spectral-radius", "--edges", "e.txt", "-a", "0.3", "--format", "json"],
            "invalid choice: 'json'"),
        _case("argv2", ["spectral-radius", "--edges", "e.txt", "-a", "0.3", "--format", "csv"],
            "invalid choice: 'csv'"),
        _case("argv3", ["tables", "tau0", "--digits", "-1"], "argument --digits: must be >= 0"),
    ],
)
def test_unimplemented_format_and_negative_digits_are_usage_errors(
    capsys, argv, message
):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_malformed_edge_line_names_file_and_line(tmp_path, capsys):
    edges = tmp_path / "bad.txt"
    edges.write_text("# path\n1 2\n\n2 x\n")
    err = _assert_one_line_error(
        capsys, ["spectral-radius", "--edges", str(edges), "-a", "0.3"]
    )
    assert err == f"alpha-limit: error: {edges} line 4: expected two vertex numbers\n"


def test_unreadable_edges_and_unwritable_output_are_one_line_exit_2(tmp_path, capsys):
    missing = tmp_path / "missing.txt"
    err = _assert_one_line_error(
        capsys, ["spectral-radius", "--edges", str(missing), "-a", "0.3"]
    )
    assert "No such file or directory" in err and str(missing) in err
    out = tmp_path / "no-such-dir" / "x"
    err = _assert_one_line_error(capsys, ["tables", "tau0", "-o", str(out)])
    assert "No such file or directory" in err and str(out) in err


@pytest.mark.parametrize(
    "text, found",
    [
        pytest.param("0 1\n1 2\n", "found 0..2", id="0 1\n1 2\n-found 0..2"),
        pytest.param("1 2\n2 4\n", "found 1..4", id="1 2\n2 4\n-found 1..4"),
    ],
)
def test_edge_file_numbering_is_named_in_its_own_terms(tmp_path, capsys, text, found):
    edges = tmp_path / "e.txt"
    edges.write_text(text)
    err = _assert_one_line_error(
        capsys, ["spectral-radius", "--edges", str(edges), "-a", "0.3"]
    )
    assert err == (
        f"alpha-limit: error: {edges}: vertices must be numbered 1..3, {found}\n"
    )


def test_cli_import_leaves_numpy_unloaded():
    env = dict(os.environ, PYTHONPATH=str(Path(alpha_limit.__file__).parents[1]))
    p = subprocess.run(
        [sys.executable, "-c",
         "import sys, alpha_limit.cli; "
         "print([m for m in ('numpy', 'dataclasses', 'inspect') if m in sys.modules])"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert p.returncode == 0, p.stderr
    assert p.stdout == "[]\n"


def _loaded_by(code: str, watched) -> list:
    """The modules of `watched` that `code`, run in a fresh interpreter,
    loads: modules the interpreter had loaded before it are not counted."""
    env = dict(os.environ, PYTHONPATH=str(Path(alpha_limit.__file__).parents[1]))
    p = subprocess.run(
        [sys.executable, "-c",
         "import contextlib, io, sys\n"
         "before = set(sys.modules)\n"
         + code +
         f"\nprint(*sorted(m for m in {sorted(watched)!r} if m in set(sys.modules) - before))"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert p.returncode == 0, p.stderr
    return p.stdout.split()


def test_package_import_loads_no_submodule():
    submodules = [f"alpha_limit.{m}" for m in
                  ("alpha_theory", "cli", "diagonalize", "shearer", "trees")]
    assert _loaded_by("import alpha_limit", submodules) == []


@pytest.mark.parametrize(
    "argv, unloaded",
    [
        pytest.param(argv, ["alpha_limit.shearer", "alpha_limit.diagonalize",
                            "alpha_limit.trees", "json"], id="-".join(argv))
        for argv in (["tables", "all"], ["tables", "all", "--format", "csv"],
                     ["sweep"], ["sweep", "--format", "csv"])
    ] + [
        pytest.param(["spectral-radius", "--edges", TREE12, "-a", "0.1"],
                     ["alpha_limit.shearer"], id="spectral-radius"),
        pytest.param(["verify", "inertia"], ["alpha_limit.shearer"], id="verify-inertia"),
    ],
)
def test_each_command_loads_only_what_it_runs(argv, unloaded):
    code = ("from alpha_limit.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({argv!r}) == 0")
    assert _loaded_by(code, unloaded) == []


def test_package_names_resolve_lazily_to_their_submodules():
    homes = {f"alpha_limit.{m}" for m in ("alpha_theory", "diagonalize", "shearer", "trees")}
    for name in alpha_limit.__all__:
        value = getattr(alpha_limit, name)
        # every exported name is a class or function of the module that defines it
        assert value.__module__ in homes, name
        assert value is getattr(sys.modules[value.__module__], name)
    assert set(alpha_limit.__all__) <= set(dir(alpha_limit))
    with pytest.raises(AttributeError, match="no_such_name"):
        alpha_limit.no_such_name


@pytest.mark.parametrize("blocked", [False, True])
def test_no_cli_command_needs_numpy(blocked):
    # every subcommand, verify all included, runs with numpy unloaded, and
    # with numpy made unimportable
    commands = [["verify", "all"], ["tables", "all", "--format", "json"], ["sweep"],
                ["shearer", "-a", "0.01", "-l", "2.06", "-k", "100"],
                ["spectral-radius", "--edges", TREE12, "-a", "0.1"]]
    env = dict(os.environ, PYTHONPATH=str(Path(alpha_limit.__file__).parents[1]))
    p = subprocess.run(
        [sys.executable, "-c",
         "import contextlib, io, sys\n"
         + ("sys.modules['numpy'] = None\n" if blocked else "")
         + "from alpha_limit.cli import main\n"
         "with contextlib.redirect_stdout(io.StringIO()):\n"
         f"    codes = [main(argv) for argv in {commands!r}]\n"
         "print(codes, 'numpy' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert p.returncode == 0, p.stderr
    assert p.stdout == f"{[0] * len(commands)} {blocked}\n"
