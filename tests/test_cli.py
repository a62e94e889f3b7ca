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
from alpha_limit.cli import main


def _run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["-o", str(out)])
    return code, out.read_text()


def test_tables_tau0_paper_rows(tmp_path):
    code, text = _run_to_file(tmp_path, "t0.txt", ["tables", "tau0", "--paper-rows"])
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


def test_sweep_threaded_matches_serial(tmp_path, monkeypatch):
    argv = ["sweep", "--alphas", "0,0.1,0.2,0.3,0.4"]
    _, serial = _run_to_file(tmp_path, "serial.csv", argv)
    monkeypatch.setenv("ALPHA_LIMIT_THREADS", "4")
    _, threaded = _run_to_file(tmp_path, "threaded.csv", argv)
    assert serial == threaded


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


def test_shearer_refusal_above_one_half_names_the_reason(capsys):
    err = _assert_one_line_error(capsys, ["shearer", "-a", "0.6", "-l", "5", "-k", "10"])
    assert "alpha >= 1/2: no tau2 threshold exists" in err
    assert "()" not in err
