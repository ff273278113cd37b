"""Golden sweep outputs: reduced fig4-fig8 must reproduce their committed CSVs.

Each ``tests/golden/figN.spec`` is a shorter version of
``experiments/figN.spec`` (horizon 20 s or 10 s segments, 3 seeds), and
``tests/golden/figN.csv`` is its output.  A refactor or speedup must leave
these numbers alone: text cells and flags must match exactly and every
float within 1e-12 relative, which allows for a changed summation order
but nothing more.

To regenerate a golden (only when a change to the simulated numbers is
intended), run from the repository root:

    PYTHONPATH=src python -m drxsim.cli run tests/golden/fig4.spec \\
        --out tests/golden/fig4.csv
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path

import pytest

from drxsim.cli import emit_csv, parse_spec, run_experiment

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
REL = 1e-12


def _as_float(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


@pytest.mark.parametrize("name", ["fig4", "fig5", "fig6", "fig7", "fig8"])
def test_golden_sweep(name, monkeypatch):
    monkeypatch.chdir(ROOT)  # fig8 names its trace relative to the root
    spec = parse_spec((GOLDEN / f"{name}.spec").read_text())
    buf = io.StringIO()
    emit_csv(run_experiment(spec), buf)
    got = list(csv.reader(io.StringIO(buf.getvalue())))
    with open(GOLDEN / f"{name}.csv", newline="") as fh:
        want = list(csv.reader(fh))

    assert got[0] == want[0]
    assert len(got) == len(want)
    for lineno, (g_row, w_row) in enumerate(zip(got, want), start=1):
        assert len(g_row) == len(w_row), f"line {lineno}"
        for col, g, w in zip(want[0], g_row, w_row):
            w_num = _as_float(w)
            if w_num is None:
                assert g == w, f"line {lineno}, {col}"
                continue
            assert math.isfinite(w_num), f"golden line {lineno}, {col}: {w}"
            g_num = _as_float(g)
            assert g_num is not None, f"line {lineno}, {col}: {g!r}"
            assert g_num == pytest.approx(w_num, rel=REL, abs=0.0), (
                f"line {lineno}, {col}: {g} vs golden {w}"
            )
