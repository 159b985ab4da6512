"""Smoke test of the benchmark command on its tiny-N workloads.

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0.2", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_its_unit_and_checked(workload, trace):
    done = bench(BENCH.parent, workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0

    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    for name, unit in want.items():
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines[:-1]), name
    assert any(line.startswith("fail_share = ") for line in lines[:-1])


def _rewrite(src: Path, dst: Path, column: int, factor: float) -> None:
    """Copy a report CSV with one numeric column scaled."""
    lines = src.read_text().splitlines()
    out = lines[:1]
    for line in lines[1:]:
        if not line.startswith("#"):
            fields = line.split(",")
            fields[column] = repr(float(fields[column]) * factor)
            line = ",".join(fields)
        out.append(line)
    dst.write_text("\n".join(out) + "\n")


@pytest.mark.parametrize("workload,study,column", [("solve-ref", "ode3", 1), ("spectrum", "spectrum2", 1)])
def test_study_check_passes_roundoff_and_rejects_wrong_rows(tmp_path, workload, study, column):
    expected = workloads.expected_dir(workloads.get(workload, False), False) / f"{study}.csv"
    n_ops = len(np.unique(checks.read_report(expected)[1][:, 0])) + 1
    out = tmp_path / "out.csv"
    _rewrite(expected, out, column, 1 + 1e-14)
    assert checks.check_study(n_ops, 0, out, expected, None)[1] == 0
    _rewrite(expected, out, column, 1 + 1e-3)
    assert checks.check_study(n_ops, 0, out, expected, None)[1] > 0
    assert checks.check_study(n_ops, 1, out, expected, None)[1] == n_ops


def test_phi_oracle_rejects_a_perturbed_value():
    circspec = workloads.import_circspec()
    post = workloads.get("solve-sweep", True).post
    jump = circspec.problems.rhp_jump(1.51, 0.01, 41)
    z = workloads.eval_points(7, post)[0]
    sol = circspec.rhp.solve_rhp(jump, circspec.BandWindow(post.ladder[-1]))
    values = np.array([circspec.rhp.evaluate_phi(sol, p) for p in z])
    assert checks.phi_self_test((post.ladder[-1], z, sol.u.coeffs, sol.u.j_min, values, 0.0, None))


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = bench(tmp_path, "solve-ref", 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
