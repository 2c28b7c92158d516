"""The benchmark's two workloads: set-up, one timed pass, and its checks.

Each pass goes through the entry points a user runs: ``qpotlab.cli.main``
in-process for CLI scenarios and the public library functions for the
trajectory path, which has no CLI command.  Functions are always looked up
as module attributes at call time (``dynamics.evolve``, ``cli.main``) so
that the tracer's wrappers see the calls.

Checks take their bounds from the acceptance gates and the ROADMAP; a pass
that fails one counts as failed, not as fast.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from qpotlab import cli, dynamics, grid, qpotential, spectra

ELECTRON = qpotential.electron_params()
ORDERS_024 = qpotential.QuantumPotentialSpec(
    tuple(qpotential.QTerm.relativistic(k) for k in (0, 2, 4))
)

FAMILY = (
    "A0",
    "A2 * lap(R) / R",
    "A4 * lap2(R) / R",
    "A6 * lap(lap2(R)) / R",
    "A8 * lap2(lap2(R)) / R",
    "A2 * lap(R) / R + A4 * lap2(R) / R",
)
COUNTEREXAMPLES = ("C * dx(R)", "C * dx(R)^2 / R")


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, Path, bool], dict]  # (seed, work dir, smoke) -> inputs
    run: Callable[[dict, Path], object]  # (inputs, output dir) -> result
    check: Callable[[dict, Path, object], list[str]]  # -> failure messages


def write_config(path: Path, cfg: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"{k} = {v!r}" if isinstance(v, float) else f"{k} = {v}" for k, v in cfg.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def run_cli(argv: list[str]) -> None:
    code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"qpotlab {argv[0]} exited with {code}")


def read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


# --------------------------------------------------------------------------
# dynamics: CLI ``evolve`` on a periodic and on a Dirichlet grid, then the
# library trajectory path (evolve, density sampling, Bohmian transport)
# --------------------------------------------------------------------------


def _evolve_inputs(rng, path: Path, boundary: str, store_every: int, smoke: bool) -> dict:
    steps = 40 if smoke else 2000
    every = 4 if smoke else store_every
    cfg = {
        "units": "electron",
        "orders": "0,2,4",
        "points": 256 if smoke else 4096,
        "L": 1.0,
        "boundary": boundary,
        "initial": "gaussian",
        "center_frac": float(rng.uniform(0.45, 0.55)),
        "width_frac": 0.05,
        "k0": float(rng.uniform(40.0, 60.0)),
        "dt": 1e-6,
        "steps": steps,
        "store_every": every,
    }
    return {"config": write_config(path, cfg), "frames": steps // every + 1}


def _evolve_check(inputs: dict, out: Path) -> list[str]:
    series = np.loadtxt(out / "series.csv", delimiter=",", skiprows=1, ndmin=2)
    norms, energies = series[:, 2], series[:, 3]
    fails = []
    frames = len(list(out.glob("frame_*.csv")))
    if frames != inputs["frames"] or len(series) != inputs["frames"]:
        fails.append(f"{out.name}: expected {inputs['frames']} frames, got {frames} ({len(series)} series rows)")
    if not np.all(np.isfinite(energies)):
        fails.append(f"{out.name}: non-finite energy in series.csv")
        return fails
    norm_err = float(np.max(np.abs(norms - 1.0)))
    if norm_err > 1e-8:
        fails.append(f"{out.name}: max |norm - 1| = {norm_err:.3e} > 1e-8")
    drift = float(np.max(np.abs(energies - energies[0])) / abs(energies[0]))
    if drift > 1e-6:
        fails.append(f"{out.name}: relative energy drift {drift:.3e} > 1e-6")
    return fails


def _transport_inputs(seed: int, smoke: bool) -> dict:
    g = grid.Grid.uniform(0.0, 1.0, 512 if smoke else 2048, grid.PERIODIC)
    return {
        "psi0": dynamics.WaveField.gaussian(g, center=0.35, width=0.06, k0=40.0),
        "V": grid.GridFunction(g, np.zeros(g.n)),
        "config": dynamics.EvolutionConfig(dt=2e-7, steps=100 if smoke else 1000, store_every=10),
        "count": 2_000 if smoke else 20_000,
        "seed": seed,
    }


def _transport_run(inputs: dict) -> tuple:
    psi0 = inputs["psi0"]
    res = dynamics.evolve(psi0, inputs["V"], ORDERS_024, ELECTRON, inputs["config"])
    rng = np.random.default_rng(inputs["seed"])
    seeds = dynamics.sample_from_density(psi0.amplitude(), inputs["count"], rng=rng)
    traj = dynamics.integrate_trajectories(res, seeds, ELECTRON, substeps=4)
    return res.frames[-1], traj.endpoints()


def _transport_check(final, ends: np.ndarray) -> list[str]:
    # Gate 8: the transported seeds reproduce the evolved density.
    g = final.grid
    edges = np.linspace(0.0, 1.0, 65)
    hist, _ = np.histogram(np.mod(ends, 1.0), bins=edges)
    dens = np.abs(final.values) ** 2
    p_field = np.array(
        [np.sum(dens[(g.points >= lo) & (g.points < hi)]) for lo, hi in zip(edges[:-1], edges[1:])]
    )
    l1 = float(np.sum(np.abs(hist / hist.sum() - p_field / p_field.sum())))
    return [] if l1 < 0.02 else [f"trajectory histogram L1 {l1:.4f} >= 0.02"]


def _dynamics_setup(seed: int, work: Path, smoke: bool) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "periodic": _evolve_inputs(rng, work / "periodic.cfg", grid.PERIODIC, 200, smoke),
        "dirichlet": _evolve_inputs(rng, work / "dirichlet.cfg", grid.DIRICHLET, 20, smoke),
        "transport": _transport_inputs(seed, smoke),
    }


def _dynamics_run(inputs: dict, out: Path) -> tuple:
    for part in ("periodic", "dirichlet"):
        run_cli(["evolve", "--config", inputs[part]["config"], "--out", out / part])
    return _transport_run(inputs["transport"])


def _dynamics_check(inputs: dict, out: Path, result: tuple) -> list[str]:
    return (
        _evolve_check(inputs["periodic"], out / "periodic")
        + _evolve_check(inputs["dirichlet"], out / "dirichlet")
        + _transport_check(*result)
    )


# --------------------------------------------------------------------------
# analysis: certification, coefficients, qpot, spectra and the dense eigen-solve
# --------------------------------------------------------------------------


def _analysis_setup(seed: int, work: Path, smoke: bool) -> dict:
    rng = np.random.default_rng(seed)
    work.mkdir(parents=True, exist_ok=True)
    field_grid = grid.Grid.uniform(0.0, 1.0, 1025 if smoke else 16385, grid.PERIODIC)
    center = rng.uniform(0.4, 0.6)
    R = np.exp(-((field_grid.points - center) ** 2) / (4.0 * 0.05**2))
    field = work / "field.csv"
    grid.write_gridfunction(field, grid.GridFunction(field_grid, R), units="electron")
    eig_grid = grid.Grid.uniform(0.0, 1.0, 257 if smoke else 2049)
    offset = float(rng.uniform(1.0, 10.0))
    return {
        "seed": seed,
        "dims": (1,) if smoke else (1, 2, 3),
        "trials": 20 if smoke else 300,
        "max_n": 20 if smoke else 200,
        "qpot_spec": write_config(work / "qpot.spec", {"units": "electron", "max_order": 8}),
        "field": field,
        "field_points": field_grid.n,
        "box": ("--points", 257, "--count", 5) if smoke else ("--points", 4097, "--count", 20),
        "radial_points": 2048 if smoke else 8192,
        "eig_V": grid.GridFunction(eig_grid, np.full(eig_grid.n, offset)),
        "eig_count": 5 if smoke else 10,
        "offset": offset,
    }


def _verify_dirs(inputs: dict):
    for i, q in enumerate(FAMILY + COUNTEREXAMPLES):
        for dim in inputs["dims"]:
            yield q, dim, f"verify-{i}-d{dim}"


def _analysis_run(inputs: dict, out: Path) -> list[float]:
    for q, dim, name in _verify_dirs(inputs):
        run_cli(["verify-el", "--q", q, "--dim", dim, "--trials", inputs["trials"],
                 "--seed", inputs["seed"], "--out", out / name])
    run_cli(["coefficients", "--max-n", inputs["max_n"], "--out", out / "coefficients"])
    run_cli(["qpot", "--spec", inputs["qpot_spec"], "--input", inputs["field"], "--out", out / "qpot"])
    run_cli(["spectra", "--problem", "box", *inputs["box"], "--out", out / "box"])
    run_cli(["spectra", "--problem", "hydrogen", "--radial-points", inputs["radial_points"],
             "--out", out / "hydrogen"])
    pairs = spectra.solve_modified_eigenproblem(
        inputs["eig_V"], ORDERS_024, ELECTRON, inputs["eig_count"]
    )
    return [e for e, _ in pairs]


def sqrt_series_coefficient(n: int) -> Fraction:
    """binom(1/2, n), the n-th Taylor coefficient of sqrt(1 + x)."""
    c = Fraction(1)
    for j in range(n):
        c *= (Fraction(1, 2) - j) / (j + 1)
    return c


def _analysis_check(inputs: dict, out: Path, levels: list[float]) -> list[str]:
    fails = []
    # Gate 2: family members pass, counterexamples fail clearly.
    for q, dim, name in _verify_dirs(inputs):
        rep = read_json(out / name / "residual_report.json")
        if q in FAMILY and rep["verdict"] != "passes":
            fails.append(f"{q!r} (dim {dim}) did not pass: residual {rep['max_abs_residual']:.3e}")
        if q in COUNTEREXAMPLES and not (rep["verdict"] == "fails" and rep["max_abs_residual"] > 1e-3):
            fails.append(f"counterexample {q!r} (dim {dim}): residual {rep['max_abs_residual']:.3e}")
    # Gate 1: the coefficient table is binom(1/2, n), exactly.
    rows = (out / "coefficients" / "coefficients.csv").read_text(encoding="utf-8").splitlines()[1:]
    expected = [f"{n},{sqrt_series_coefficient(n)}" for n in range(inputs["max_n"] + 1)]
    got = [",".join(r.split(",")[:2]) for r in rows]
    if got != expected or not all(r.endswith(",true") for r in rows):
        fails.append("coefficient table does not match binom(1/2, n)")
    qpot = np.loadtxt(out / "qpot" / "qpotential.csv", delimiter=",", skiprows=1, ndmin=2)
    if qpot.shape != (inputs["field_points"], 2) or not np.all(np.isfinite(qpot)):
        fails.append(f"qpot output has shape {qpot.shape} or non-finite values")
    # Gate 3: box quadrature shifts match the closed forms.
    box = read_json(out / "box" / "box_shifts.json")
    gaps = [s["relative_gap"] for s in box["shifts"]]
    if not gaps or max(gaps) > 1e-10:
        fails.append(f"box relative gaps {gaps} exceed 1e-10")
    # Gate 4: hydrogen shifts match the analytic values.
    errs = [s["relative_error"] for s in read_json(out / "hydrogen" / "hydrogen_shifts.json")["states"]]
    if max(errs) > 2e-2:
        fails.append(f"hydrogen relative errors {errs} exceed 2e-2")
    # A uniform offset V shifts every level by exactly the offset.
    zero = grid.GridFunction(inputs["eig_V"].grid, np.zeros(inputs["eig_V"].grid.n))
    ref = np.array([e for e, _ in spectra.solve_modified_eigenproblem(
        zero, ORDERS_024, ELECTRON, inputs["eig_count"])]) + inputs["offset"]
    rel = float(np.max(np.abs(np.asarray(levels) - ref) / np.abs(ref)))
    if rel > 1e-9:
        fails.append(f"FD eigenvalues with offset V differ from spectral + offset by {rel:.3e}")
    return fails


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dynamics", _dynamics_setup, _dynamics_run, _dynamics_check),
        Workload("analysis", _analysis_setup, _analysis_run, _analysis_check),
    )
}
