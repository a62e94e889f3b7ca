"""Golden spine values: the greedy pendant counts r, the spine values b,
the tangent bound and three epsilon roots, bit for bit.

The expected values live in `tests/golden/shearer_spine.json` (floats as
`float.hex`).  The points include k = 1 and k = 2, whose first and last
spine vertices coincide or touch, and which no golden CLI command reaches.
A change that means to alter these values regenerates the file with
`PYTHONPATH=src python tests/test_shearer_spine.py` and says why.
"""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from alpha_limit.shearer import build_shearer, epsilon_roots, sigma_bound

GOLDEN = Path(__file__).parent / "golden" / "shearer_spine.json"

POINTS = [(0.1, 2.44), (0.01, 2.06), (0.1873, 2.1181), (0.0, 2.5), (0.25, 3.0)]
KS = [1, 2, 3, 17, 200]


def _case(alpha: float, lam: float, k: int) -> dict:
    seq = build_shearer(alpha, lam, k)
    js = sorted({1, (k + 1) // 2, k})
    return {
        "alpha": alpha,
        "lambda": lam,
        "k": k,
        "r": list(seq.r),
        "b": [bj.hex() for bj in seq.b],
        "sigma_bound": sigma_bound(seq).hex(),
        "epsilon_j": js,
        "epsilon_roots": [e.hex() for e in epsilon_roots(seq, js)],
    }


def _cases() -> list[dict]:
    return [_case(a, lam, k) for a, lam in POINTS for k in KS]


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("alpha,lam", POINTS)
def test_spine_golden(alpha, lam, k):
    golden = json.loads(GOLDEN.read_text())
    expected = [c for c in golden if (c["alpha"], c["lambda"], c["k"]) == (alpha, lam, k)]
    assert [_case(alpha, lam, k)] == expected


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_cases(), indent=1) + "\n")
