"""Tests of the benchmark itself, at reduced (smoke) sizes.

Run from the root of a checkout:  python3 -m pytest -q qbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_bench(*argv: str, run: Path = RUN, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(run), *argv], cwd=cwd, capture_output=True, text=True, timeout=600
    )


@pytest.fixture(scope="module")
def smoke():
    proc = run_bench("--workload", "all", "--seed", "3", "--seconds", "0.5", "--trace", "both", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return proc.stdout, result


def test_smoke_prints_every_metric_with_its_unit(smoke):
    stdout, result = smoke
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 8
    for w in BENCH["workloads"]:
        for m in BENCH["end_to_end"] + BENCH["per_layer"]:
            key = f"{w['name']}/{m['name']}"
            assert result["metrics"][key]["unit"] == m["unit"]
            assert key in stdout


def test_layers_show_up_on_the_workloads_that_use_them(smoke):
    v = {k: m["value"] for k, m in smoke[1]["metrics"].items()}
    # Three evolve calls (periodic, Dirichlet, transport), each 40 or 100 steps.
    assert v["dynamics/dynamics.evolve.calls"] == 3
    assert v["dynamics/dynamics.w_evals_per_step"] == 3
    assert v["dynamics/kernels.solve_tridiagonal.calls"] == 40
    assert v["dynamics/dynamics.clamp_per_point_step"] > 0
    assert v["dynamics/serialize.write_csv.mb"] > 0
    assert v["dynamics/output_mb"] > 0
    assert v["dynamics/grid.power_laplacian.point_powers"] > 0
    assert v["dynamics/kernels.advect_seeds.seed_substeps"] == 2_000 * 4 * 10
    assert v["dynamics/dynamics.bohmian_velocity.calls"] == 11
    assert v["dynamics/spectra.solve_modified_eigenproblem.calls"] == 0
    assert v["dynamics/elcheck.certify.calls"] == 0
    assert v["analysis/dynamics.evolve.calls"] == 0
    assert v["analysis/kernels.solve_tridiagonal.calls"] == 0
    assert v["analysis/kernels.advect_seeds.calls"] == 0
    assert v["analysis/elcheck.certify.samples"] == 8 * 20
    # spectra box (spectral path) and the dense FD solve
    assert v["analysis/spectra.solve_modified_eigenproblem.calls"] == 2
    assert v["analysis/cli.main.calls"] == 8 + 4
    assert v["analysis/grid.read_gridfunction.self_s"] > 0


def test_missing_function_is_reported_absent():
    from qpotlab import dynamics, grid

    tracer = spans.Tracer({"grid.integrate": None, "kernels.gone": None, "gone.f": None})
    original = grid.integrate
    psi = dynamics.WaveField.gaussian(grid.Grid.uniform(0.0, 1.0, 64, grid.PERIODIC), 0.5, 0.1)
    tracer.install()
    try:
        dynamics.norm(psi)
    finally:
        tracer.uninstall()
    assert tracer.absent == ["kernels.gone", "gone.f"]
    # norm() looks integrate up in the dynamics module, not in grid.
    assert [s.name for s in tracer.spans] == ["grid.integrate"]
    assert grid.integrate is original and dynamics.integrate is original


def test_check_rejects_energy_drift(tmp_path):
    workload = WORKLOADS["dynamics"]
    inputs = workload.setup(0, tmp_path / "inputs", True)
    out = tmp_path / "out"
    result = workload.run(inputs, out)
    assert workload.check(inputs, out, result) == []
    series = out / "periodic" / "series.csv"
    lines = series.read_text().splitlines()
    cells = lines[-1].split(",")
    cells[3] = repr(float(cells[3]) * (1 + 1e-5))
    series.write_text("\n".join(lines[:-1] + [",".join(cells)]) + "\n")
    assert [f for f in workload.check(inputs, out, result) if "energy drift" in f]
    final, ends = result
    piled_up = np.full_like(ends, 0.9)  # every seed far from the packet
    assert [f for f in workload.check(inputs, out, (final, piled_up)) if "histogram L1" in f]


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "qbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "analysis", "--seed", "1", "--seconds", "1", "--trace", "0",
                     run=tmp_path / "qbench" / "run.py", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
