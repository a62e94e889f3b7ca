"""Golden convergence diagnostics: the divergence sum, the zero runs, the
window report and, in the tau1 regime, the pairing report of the greedy
sequences of `test_shearer_spine`, bit for bit.

The expected values live in `tests/golden/shearer_diagnostics.json`
(floats as `float.hex`).  A change that means to alter these values
regenerates the file with
`PYTHONPATH=src python tests/test_shearer_diagnostics.py` and says why.
"""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from alpha_limit.shearer import (
    _tau1_miss,
    build_shearer,
    divergence_sum,
    pairing_check,
    verify_window,
    zero_runs,
)
from test_shearer_spine import KS, POINTS

GOLDEN = Path(__file__).parent / "golden" / "shearer_diagnostics.json"


def _case(alpha: float, lam: float, k: int) -> dict:
    seq = build_shearer(alpha, lam, k)
    window = verify_window(seq)
    case = {
        "alpha": alpha,
        "lambda": lam,
        "k": k,
        "divergence_sum": divergence_sum(seq).hex(),
        "zero_runs": [list(run) for run in zero_runs(seq.r)],
        "window": {
            "ok": window.ok,
            "violations": [list(v) for v in window.violations],
            "in_unit_band": list(window.in_unit_band),
            "max_zero_run": window.max_zero_run,
        },
        "pairing": None,
    }
    if _tau1_miss(alpha, lam) is None:
        rep = pairing_check(seq)
        case["pairing"] = {
            "ok": rep.ok,
            "bound": rep.bound.hex(),
            "pairs": [[e.left, e.right, e.product.hex(), e.ok] for e in rep.pairs],
            "runs": [list(run) for run in rep.runs],
        }
    return case


def _cases() -> list[dict]:
    return [_case(a, lam, k) for a, lam in POINTS for k in KS]


def test_golden_covers_both_regimes():
    golden = json.loads(GOLDEN.read_text())
    assert len(golden) == len(POINTS) * len(KS)
    with_pairs = [c for c in golden if c["pairing"] is not None]
    assert with_pairs and len(with_pairs) < len(golden)
    assert any(c["pairing"]["pairs"] for c in with_pairs)


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("alpha,lam", POINTS)
def test_diagnostics_golden(alpha, lam, k):
    golden = json.loads(GOLDEN.read_text())
    expected = [c for c in golden if (c["alpha"], c["lambda"], c["k"]) == (alpha, lam, k)]
    assert [_case(alpha, lam, k)] == expected


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_cases(), indent=1) + "\n")
