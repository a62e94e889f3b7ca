"""Golden CLI output: stdout of fixed commands, byte for byte.

Each command's expected stdout lives in `tests/golden/<name>.out`.  A change
that means to alter output regenerates them with
`PYTHONPATH=src python tests/test_golden_cli.py` and says why.
"""
from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pytest

from alpha_limit.cli import main

GOLDEN = Path(__file__).parent / "golden"
TREE12 = str(GOLDEN / "tree12.edges")

COMMANDS = {
    "tables_all_text": ["tables", "all"],
    "tables_all_csv": ["tables", "all", "--format", "csv"],
    "tables_all_json": ["tables", "all", "--format", "json"],
    "sweep_text": ["sweep"],
    "sweep_json": ["sweep", "--format", "json"],
    "verify_all": ["verify", "all"],
    "shearer_01_244_text": ["shearer", "-a", "0.1", "-l", "2.44", "-k", "100"],
    "shearer_01_244_json": ["shearer", "-a", "0.1", "-l", "2.44", "-k", "100",
                            "--format", "json"],
    "shearer_001_206_text": ["shearer", "-a", "0.01", "-l", "2.06", "-k", "100"],
    "shearer_001_206_json": ["shearer", "-a", "0.01", "-l", "2.06", "-k", "100",
                             "--format", "json"],
    "shearer_exploratory": ["shearer", "-a", "0.22", "-l", "2.4", "-k", "200",
                            "--exploratory"],
    "spectral_radius_tree12": ["spectral-radius", "--edges", TREE12, "-a", "0.3"],
}


def _stdout(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return buf.getvalue()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_stdout(name):
    expected = (GOLDEN / f"{name}.out").read_text()
    assert _stdout(COMMANDS[name]) == expected


if __name__ == "__main__":
    for name, argv in COMMANDS.items():
        (GOLDEN / f"{name}.out").write_text(_stdout(argv))
