"""Command-line behaviour: formats, exit codes, determinism, regimes."""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import alpha_limit
from alpha_limit import cli, shearer
from alpha_limit.cli import main


TREE12 = str(Path(__file__).parent / "golden" / "tree12.edges")


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
        (["shearer", "-a", "0.1", "-l", "2.44", "-k", "20"], [(0.1, 2.44, 20)]),
        (["verify", "examples"], [(0.1, 2.44, 100), (0.01, 2.06, 100)]),
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


def test_verify_identities_exit_code(capsys):
    assert main(["verify", "identities"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS")


def test_verify_inertia_checks_the_compiled_kernel(monkeypatch):
    count = cli.count_eigenvalues_greater
    # an off-by-one in the full count, then in the capped count only
    for off_in_capped in (False, True):

        def off_by_one(M, c, at_most=None):
            n = count(M, c, at_most)
            return n + 1 if (at_most is not None) == off_in_capped else n

        monkeypatch.setattr(cli, "count_eigenvalues_greater", off_by_one)
        lines = []
        assert cli.verify_inertia(log=lines.append) is False
        assert lines[-1].startswith("FAIL inertia")
        kind = "count capped at 1" if off_in_capped else "count_eigenvalues_greater"
        assert all(kind in line for line in lines[:-1])


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
        (["tables", "tau0", "--start", "0.1"], "--start needs --stop"),
        (["shearer", "-a", "0.1", "-l", "2.44", "-k", "0"], "k must be >= 1"),
        (["shearer", "-a", "0.1", "-l", "nan", "--exploratory"], "finite"),
        (["shearer", "-a", "0.1", "-l", "inf"], "finite"),
        (["tables", "tau0", "--start", "0.1", "--stop", "0.2", "--count", "0"],
         "grid must be non-empty"),
        (["sweep", "--count", "0"], "grid must be non-empty"),
        # the input is validated before the regime is looked at
        (["shearer", "-a", "1.5", "-l", "2.5", "-k", "7"],
         "alpha-limit: error: alpha must lie in [0, 1)"),
        (["shearer", "-a", "0.1", "-l", "1.5"], "alpha-limit: error: lambda must exceed 2"),
        (["shearer", "-a", "-0.5", "-l", "2.5"],
         "alpha-limit: error: alpha must lie in [0, 1)"),
        (["shearer", "-a", "0.22", "-l", "2.4", "-k", "20"],
         "alpha-limit: error: no convergence guarantee covers this point (lambda < tau2(0.22)"),
        (["shearer", "-a", "0.1", "-l", "2.44", "-k", "10", "--tol", "nan"],
         "tol must be a positive finite number"),
        (["shearer", "-a", "0.1", "-l", "2.44", "-k", "10", "--tol", "inf"],
         "tol must be a positive finite number"),
        (["spectral-radius", "--edges", TREE12, "-a", "0.3", "--tol", "nan"],
         "tol must be a positive finite number"),
        (["spectral-radius", "--edges", TREE12, "-a", "0.3", "--tol", "inf"],
         "tol must be a positive finite number"),
        (["shearer", "-a", "0.1", "-l", "2.44", "-k", "100001"],
         "alpha-limit: error: k must be at most 100000\n"),
        (["shearer", "-a", "0", "-l", "1e5", "-k", "3"],
         "alpha-limit: error: G_3 would have 19114929324 vertices; at most 1000000"),
        (["shearer", "-a", "0.1", "-l", "1e300", "-k", "3"],
         "alpha-limit: error: lambda must be below 2**512"),
        (["sweep", "--alphas", "nan,inf,0.1"],
         "alpha-limit: error: --alphas values must be finite\n"),
        (["tables", "tau0", "--alphas", "0.1,-inf"], "--alphas values must be finite"),
        (["tables", "tau0", "--start", "0.3", "--stop", "0.1", "--step", "0.1"],
         "grid must be non-empty"),
        # cancellation in the float spine: b_1 rounds to 0, or r_2 < 0
        (["shearer", "-a", "0.1", "-l", "1e100", "-k", "3"],
         "alpha-limit: error: float breakdown in the spine recurrence: b_1 rounds to 0\n"),
        (["shearer", "-a", "0.5", "-l", "1e5", "-k", "50", "--exploratory"],
         "alpha-limit: error: float breakdown in the spine recurrence: negative"
         " pendant count r_2 = -1\n"),
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
        (["--start", "0", "--stop", "inf", "--step", "0.1"],
         "--start, --stop and --step must be finite"),
        (["--start", "nan", "--stop", "1"], "--start, --stop and --step must be finite"),
        (["--start", "0", "--stop", "1", "--count", "100000000"],
         "grid must have at most 100000 points"),
        (["--start", "0", "--stop", "10000", "--step", "0.1"],
         "grid must have at most 100000 points"),
        # 1e16 + 1 rounds back to 1e16, so the running value would never advance
        (["--start", "1e16", "--stop", "10000000000000004", "--step", "1"],
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
        (["--start", "0.1", "--stop", "0.3", "--step", "0.1"], [0.1, 0.2, 0.3]),
        (["--start", "0.1", "--stop", "0.3", "--count", "1"], [0.1]),
        # repeated addition of 0.1 would stop at 2.7
        (["--start", "0", "--stop", "2.8", "--step", "0.1"],
         [i / 10 for i in range(29)]),
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
        (["shearer", "-a", "0.1", "-l", "2.44", "--format", "csv"],
         "invalid choice: 'csv'"),
        (["spectral-radius", "--edges", "e.txt", "-a", "0.3", "--format", "json"],
         "invalid choice: 'json'"),
        (["spectral-radius", "--edges", "e.txt", "-a", "0.3", "--format", "csv"],
         "invalid choice: 'csv'"),
        (["tables", "tau0", "--digits", "-1"], "argument --digits: must be >= 0"),
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
    [("0 1\n1 2\n", "found 0..2"), ("1 2\n2 4\n", "found 1..4")],
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
         "import sys, alpha_limit.cli; print('numpy' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert p.returncode == 0, p.stderr
    assert p.stdout == "False\n"
