"""Every demo script runs to completion."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(demo: Path, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(demo)], cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo, tmp_path):
    result = run_demo(demo, tmp_path)
    assert result.returncode == 0, result.stderr


def test_trace_sparsity_demo_writes_a_number_per_cell(tmp_path):
    result = run_demo(ROOT / "demos" / "01_trace_sparsity.py", tmp_path)
    assert result.returncode == 0, result.stderr
    with open(tmp_path / "trace_column_mass.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    # 6 layers x 128 positions, each mass a plain float literal.
    assert [(int(r["layer"]), int(r["position"])) for r in rows] == [(layer, pos) for layer in range(6) for pos in range(128)]
    assert all(float(r["mass"]) >= 0.0 for r in rows)
