"""Command-line interface.

Every subcommand runs one scenario through one path.  Its configuration is
the ``--spec`` file, then the ``--config`` file, then the subcommand's
flags, each overriding the one before; defaults live in the scenario.  The
scenario reads every key through :func:`serialize.get`, which records the
value it used, defaults included.  That record is the ``config`` of the
run's ``manifest.json`` and the input of its ``config_hash``.  A key that
no reader consumed is an error, so a misspelt key cannot run silently with
a default: each scenario calls ``cfg.reject_unread()`` after its last read,
and such a run stops before it computes or writes anything.

The manifest also records the seed (``--seed``, else the config key
``seed``, else 0), package/library versions, wall-clock timings and the
list of artifacts.  All numbers are serialized at 17 significant digits,
so a rerun with the same inputs reproduces every artifact byte for byte
(the manifest timings are the one intentionally non-deterministic field).

``evolve`` writes its frames through a one-process
``concurrent.futures`` pool, forked at the first frame
(:func:`_frame_pool`): each frame is formatted and written on another core
while the step loop goes on, so ``evolve`` needs a POSIX ``fork``.  A run
that fails, in the loop, in a write or by the death of the writer, exits 1
with an ``error:`` line, deletes the frames the writer wrote and writes no
manifest.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import platform
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Callable, Mapping

import numpy as np
import scipy

from . import __version__, serialize
from .coeffs import coefficient_table
from .dynamics import (
    CRANK_NICOLSON,
    SPLIT_STEP,
    EvolutionConfig,
    WaveField,
    evolve,
)
from .elcheck import certify
from .expr import ExprError, parse_q_expression
from .grid import (
    DIRICHLET,
    PERIODIC,
    Grid,
    GridError,
    GridFunction,
    _write_table,
    read_gridfunction,
    write_gridfunction,
)
from .qpotential import (
    eval_complete_q,
    params_by_name,
    scale_ratio,
    spec_from_config,
    term_ratio,
    term_ratio_on_grid,
)
from .spectra import (
    box_eigenstate,
    box_shift_closed_form,
    bohr_radius,
    compare_shifts,
    hydrogen_default_grid,
    hydrogen_radial_state,
    hydrogen_shift_closed_form,
    perturbative_shift,
    solve_modified_eigenproblem,
)

# --------------------------------------------------------------------------
# Scenarios (shared by the dedicated subcommands and ``run``)
# --------------------------------------------------------------------------


def _scenario_verify_el(
    cfg: serialize.RecordingConfig, outdir: Path, seed: int
) -> list[str]:
    q_text = serialize.get(cfg, "q")
    dim = serialize.get(cfg, "dim", int, 1)
    trials = serialize.get(cfg, "trials", int, 100)
    tol = serialize.get(cfg, "tol", float, 1e-10)
    cfg.reject_unread()
    report = certify(parse_q_expression(q_text, dim), dim, trials, tol, seed)
    serialize.write_json(outdir / "residual_report.json", asdict(report))
    print(
        f"verify-el: {report.verdict} "
        f"(max relative residual {serialize.fmt_float(report.max_abs_residual)} "
        f"at trial {report.worst_trial} [{', '.join(report.worst_families)}], "
        f"{report.samples_used} samples)"
    )
    return ["residual_report.json"]


def _scenario_coefficients(
    cfg: serialize.RecordingConfig, outdir: Path, seed: int
) -> list[str]:
    max_n = serialize.get(cfg, "max_n", int, 20)
    cfg.reject_unread()
    table = coefficient_table(max_n)
    rows = table.rows()
    serialize.write_csv(
        outdir / "coefficients.csv",
        ("n", "coefficient", "value", "reference", "match"),
        rows,
    )
    ok = all(r[-1] for r in rows)
    print(
        f"coefficients: n = 0..{max_n}, reference match: {'all' if ok else 'MISMATCH'}"
    )
    return ["coefficients.csv"]


def _scenario_box(
    cfg: serialize.RecordingConfig, outdir: Path, seed: int
) -> list[str]:
    spec, params = spec_from_config(cfg)
    L = serialize.get(cfg, "L", float, 1.0)
    tau = serialize.get(cfg, "tau", int, 1)
    points = serialize.get(cfg, "points", int, 513)
    count = serialize.get(cfg, "count", int, 5)
    cfg.reject_unread()
    state = box_eigenstate(L, tau, points, params)
    pc = tau * np.pi * params.hbar * params.c / L

    shifts = []
    for t in spec.terms:
        if t.order == 2:
            continue  # the kinetic term is E0 itself
        de = perturbative_shift(state, t.order, params, spec)
        closed = box_shift_closed_form(L, tau, t.order, params, spec)
        gap = abs(de - closed) / abs(closed) if closed != 0 else abs(de)
        shifts.append(
            {
                "order": t.order,
                "delta_E": de,
                "closed_form": closed,
                "relative_gap": gap,
            }
        )

    payload = {
        "L": L,
        "tau": tau,
        "grid_points": points,
        "E0": state.E0,
        "pc": float(pc),
        "shifts": shifts,
    }
    outputs = ["box_shifts.json"]
    if all(t.order in (0, 2, 4) for t in spec.terms):
        zero_v = GridFunction(state.R0.grid, np.zeros(points))
        pairs = solve_modified_eigenproblem(zero_v, spec, params, count)
        c2 = params.hbar**2 / (2.0 * params.mass)
        rows = []
        for i, (energy, _) in enumerate(pairs, start=1):
            k = i * np.pi / L
            linear = float(c2 * k**2)
            predicted = linear + sum(
                box_shift_closed_form(L, i, t.order, params, spec)
                for t in spec.terms
                if t.order != 2
            )
            rows.append((i, linear, energy, predicted))
        serialize.write_csv(
            outdir / "eigenvalues.csv",
            ("tau", "E_linear", "E_modified", "E_linear_plus_shifts"),
            rows,
        )
        payload["eigenvalue_count"] = count
        outputs.append("eigenvalues.csv")
    serialize.write_json(outdir / "box_shifts.json", payload)
    print(
        f"box: tau={tau}, E0 = {serialize.fmt_float(state.E0)}, "
        f"{len(shifts)} shift term(s)"
    )
    return outputs


def _scenario_hydrogen(
    cfg: serialize.RecordingConfig, outdir: Path, seed: int
) -> list[str]:
    spec, params = spec_from_config(cfg)
    radial_points = serialize.get(cfg, "radial_points", int, 2048)
    cfg.reject_unread()
    grid = hydrogen_default_grid(params, points=radial_points)
    states = []
    for n in (1, 2):
        state = hydrogen_radial_state(n, params, grid)
        res = compare_shifts(state, params, spec)
        analytic = hydrogen_shift_closed_form(n, params)
        states.append(
            {
                **asdict(res),
                "E0": state.E0,
                "analytic": analytic,
                "relative_error": abs(res.delta_E - analytic) / abs(analytic),
            }
        )
    payload = {
        "radial_points": radial_points,
        "bohr_radius": bohr_radius(params),
        "states": states,
    }
    serialize.write_json(outdir / "hydrogen_shifts.json", payload)
    worst = max(s["relative_error"] for s in states)
    print(
        f"hydrogen: 1s/2s shifts on {radial_points} radial points, "
        f"worst relative error vs analytic {serialize.fmt_float(worst)}"
    )
    return ["hydrogen_shifts.json"]


def _scenario_qpot(
    cfg: serialize.RecordingConfig, outdir: Path, seed: int
) -> list[str]:
    spec, params = spec_from_config(cfg)
    path = serialize.get(cfg, "input")
    units = serialize.get(cfg, "units", str, "electron")
    cfg.reject_unread()
    f = read_gridfunction(path)
    q = eval_complete_q(f, params, spec)
    write_gridfunction(outdir / "qpotential.csv", q, units=units)
    print(
        f"qpot: evaluated {len(spec.orders)} term(s) on {f.grid.n} points "
        f"(orders {', '.join(str(o) for o in spec.orders)})"
    )
    return ["qpotential.csv", "qpotential.csv.json"]


def _initial_field(cfg: Mapping[str, str], g: Grid, L: float) -> WaveField:
    initial = serialize.get(cfg, "initial", str, "gaussian")
    if initial == "gaussian":
        center = serialize.get(cfg, "center_frac", float, 0.5) * L
        width = serialize.get(cfg, "width_frac", float, 0.05) * L
        k0 = serialize.get(cfg, "k0", float, 0.0)
        return WaveField.gaussian(g, center, width, k0)
    if initial == "eigenmode":
        tau = serialize.get(cfg, "tau", int, 1)
        if g.boundary == DIRICHLET:
            vals = np.sin(tau * np.pi * g.points / L).astype(np.complex128)
        else:
            vals = np.exp(2j * np.pi * tau * g.points / L)
        return WaveField(g, vals).normalized()
    raise serialize.ConfigError(
        f"key 'initial': unknown value {initial!r} (gaussian or eigenmode)"
    )


def _frame_name(step: int) -> str:
    return f"frame_{step:06d}.csv"


def _write_frame(path: Path, field: WaveField, t: float, units: str) -> None:
    data = {"real": field.values.real, "imag": field.values.imag}
    _write_table(
        path, field.grid, data, units=units, time=t, columns=["coordinate", *data]
    )


@contextlib.contextmanager
def _frame_pool(outdir: Path, units: str):
    """The one path that writes ``evolve`` frames: a one-process pool,
    forked from this one, formats and writes each frame while the step loop
    goes on.  Yields the ``on_frame`` callable for :func:`evolve`.

    The first failed write is raised as RuntimeError naming its path, at
    the next frame or on leaving.  On any failure (an error in the loop, a
    failed write or a dead writer), pending writes are cancelled and every
    frame that was not cancelled is deleted with its sidecar.
    """
    import multiprocessing  # only evolve pays for these imports
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

    pool = ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork"))
    writes = {}  # frame path -> future of its write

    def raise_failure(wait: bool) -> None:
        for path, future in writes.items():
            if (wait or future.done()) and (exc := future.exception()) is not None:
                detail = getattr(exc, "strerror", None) or exc
                raise RuntimeError(f"frame writer: {path}: {detail}")

    def on_frame(step: int, t: float, frame: WaveField) -> None:
        raise_failure(wait=False)
        path = outdir / _frame_name(step)
        try:
            writes[path] = pool.submit(_write_frame, path, frame, t, units)
        except BrokenExecutor:  # the writer died: the write it was on names it
            raise_failure(wait=True)
            raise

    try:
        yield on_frame
        raise_failure(wait=True)
    except BaseException:
        pool.shutdown(cancel_futures=True)
        for path, future in writes.items():
            if not future.cancelled():
                for written in (path, path.with_name(path.name + ".json")):
                    if written.is_file():
                        written.unlink()
        raise
    pool.shutdown()


def _scenario_evolve(
    cfg: serialize.RecordingConfig, outdir: Path, seed: int
) -> list[str]:
    spec, params = spec_from_config(cfg)
    points = serialize.get(cfg, "points", int, 1024)
    L = serialize.get(cfg, "L", float, 1.0)
    boundary = serialize.get(cfg, "boundary", str, PERIODIC)
    if boundary not in (PERIODIC, DIRICHLET):
        raise serialize.ConfigError(f"key 'boundary': unknown value {boundary!r}")
    g = Grid.uniform(0.0, L, points, boundary)
    psi0 = _initial_field(cfg, g, L)
    steps = serialize.get(cfg, "steps", int)
    run_cfg = EvolutionConfig(
        dt=serialize.get(cfg, "dt", float),
        steps=steps,
        store_every=serialize.get(cfg, "store_every", int, max(1, steps // 10)),
    )
    V = GridFunction(g, np.zeros(points))
    units = serialize.get(cfg, "units", str, "electron")
    cfg.reject_unread()

    with _frame_pool(outdir, units) as on_frame:
        result = evolve(psi0, V, spec, params, run_cfg, on_frame=on_frame)

    names = [_frame_name(step) for step in result.step_indices]
    outputs = [out for name in names for out in (name, name + ".json")]
    serialize.write_csv(
        outdir / "series.csv",
        ("step", "time", "norm", "energy"),
        zip(
            result.step_indices.tolist(),
            result.times.tolist(),
            result.norms.tolist(),
            result.energies.tolist(),
        ),
    )
    drift = float(np.max(np.abs(result.norms - result.norms[0])))
    scheme = SPLIT_STEP if boundary == PERIODIC else CRANK_NICOLSON
    summary = {
        "scheme": scheme,
        "steps": steps,
        "dt": run_cfg.dt,
        "stored_frames": len(result.frames),
        "clamp_count": result.clamp_count,
        "final_norm": float(result.norms[-1]),
        "max_norm_drift": drift,
    }
    serialize.write_json(outdir / "evolve_summary.json", summary)
    outputs += ["series.csv", "evolve_summary.json"]
    print(
        f"evolve: {steps} steps of dt={serialize.fmt_float(run_cfg.dt)} "
        f"({scheme}), norm drift {serialize.fmt_float(drift)}, "
        f"{result.clamp_count} clamp event(s)"
    )
    return outputs


def _scenario_ratios(
    cfg: serialize.RecordingConfig, outdir: Path, seed: int
) -> list[str]:
    tau = serialize.get(cfg, "tau", int, 1)
    points = serialize.get(cfg, "points", int, 257)
    half_order = serialize.get(cfg, "half_order", int, 1)
    regimes = (
        ("atomic", "electron", serialize.get(cfg, "L_atomic", float, 1.0)),
        ("nuclear", "proton", serialize.get(cfg, "L_nuclear", float, 1e-5)),
    )
    cfg.reject_unread()
    rows = []
    for label, particle, L in regimes:
        params = params_by_name(particle)
        analytic = term_ratio(L, tau, half_order, params)
        on_grid = term_ratio_on_grid(L, tau, half_order, params, points)
        rows.append(
            (
                label,
                particle,
                L,
                tau,
                scale_ratio(L, params),
                analytic,
                on_grid,
                abs(analytic),
            )
        )
    serialize.write_csv(
        outdir / "ratios.csv",
        (
            "regime",
            "particle",
            "L",
            "tau",
            "scale_factor",
            "ratio_analytic",
            "ratio_grid",
            "abs_ratio",
        ),
        rows,
    )
    print(
        "ratios: "
        + ", ".join(
            f"{label} |ratio| = {serialize.fmt_float(abs(r))}"
            for (label, _, _, _, _, r, _, _) in rows
        )
    )
    return ["ratios.csv"]


_SCENARIOS: dict[str, Callable] = {
    "verify-el": _scenario_verify_el,
    "coefficients": _scenario_coefficients,
    "qpot": _scenario_qpot,
    "box": _scenario_box,
    "hydrogen": _scenario_hydrogen,
    "evolve": _scenario_evolve,
    "ratios": _scenario_ratios,
}


def _run_scenario(
    scenario: str, cfg: Mapping[str, str], outdir: Path, seed: int
) -> int:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    cfg = serialize.RecordingConfig(cfg)
    t0 = time.perf_counter()
    outputs = _SCENARIOS[scenario](cfg, outdir, seed)
    elapsed = time.perf_counter() - t0
    manifest = {
        "scenario": scenario,
        "config": dict(sorted(cfg.read.items())),
        "config_hash": serialize.config_hash(cfg.read),
        "seed": seed,
        "versions": {
            "qpotlab": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "outputs": sorted(outputs),
        "timings": {"total_seconds": elapsed},
    }
    serialize.write_json(outdir / "manifest.json", manifest)
    return 0


# --------------------------------------------------------------------------
# Argument parsing
# --------------------------------------------------------------------------

# Argument dests that are not config keys; every other flag's dest is one.
_NOT_CONFIG = ("command", "scenario", "spec", "config", "seed", "out")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpotlab",
        description="Laboratory for generalized quantum-potential models.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=text)
        p.add_argument("--out", default="out", help="output directory (default: out)")
        if name in _SCENARIOS:
            p.set_defaults(scenario=name)
        return p

    p = add("verify-el", "certify stationarity of a candidate expression")
    p.add_argument("--q", required=True, help="candidate expression, e.g. 'A2 * lap(R) / R'")
    p.add_argument("--dim", help="spatial dimension (1-3)")
    p.add_argument("--trials", help="random jet samples")
    p.add_argument("--tol", help="pass threshold on the relative residual")
    p.add_argument("--seed", type=int)

    p = add("coefficients", "tabulate the coefficient family")
    p.add_argument("--max-n", help="largest half-order n")

    p = add("qpot", "evaluate the potential family on a grid function")
    p.add_argument("--spec", required=True, help="spec file (key = value)")
    p.add_argument("--input", required=True, help="grid-function CSV (with sidecar)")

    p = add("spectra", "stationary-state energy shifts")
    p.add_argument("--problem", dest="scenario", required=True, choices=("box", "hydrogen"))
    p.add_argument("--spec", help="spec file (default: relativistic through order 4)")
    p.add_argument("--L", help="box length")
    p.add_argument("--tau", help="box mode index")
    p.add_argument("--points", help="box grid points")
    p.add_argument("--count", help="eigenvalues to solve for")
    p.add_argument("--radial-points", help="hydrogen radial grid points")

    p = add("evolve", "integrate the modified wave equation")
    p.add_argument("--spec", help="spec file (default: relativistic through order 4)")
    p.add_argument("--config", required=True, help="evolution config (key = value)")
    p.add_argument("--initial", choices=("gaussian", "eigenmode"))

    p = add("run", "run a named scenario from a config file")
    p.add_argument("--config", required=True, help="scenario config (key = value)")
    p.add_argument("--scenario", choices=sorted(_SCENARIOS))
    p.add_argument("--seed", type=int)

    return parser


def _cmd(args: argparse.Namespace) -> int:
    """--spec, then --config, then the flags given; scenario and seed from
    their flags, else from the config."""
    cfg: dict[str, str] = {}
    for path in (getattr(args, "spec", None), getattr(args, "config", None)):
        if path is not None:
            cfg.update(serialize.load_config(path))
    cfg.update(
        (k, v) for k, v in vars(args).items() if k not in _NOT_CONFIG and v is not None
    )
    scenario = args.scenario or cfg.get("scenario")
    if scenario is None:
        raise serialize.ConfigError(
            "no scenario: pass --scenario or put 'scenario = <name>' in the config"
        )
    if scenario not in _SCENARIOS:
        raise serialize.ConfigError(f"unknown scenario {scenario!r}")
    seed = getattr(args, "seed", None)
    if seed is None:
        seed = serialize.get(cfg, "seed", int, 0)
    cfg.pop("scenario", None)
    cfg.pop("seed", None)
    return _run_scenario(scenario, cfg, Path(args.out), seed)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built once per process: ``parse_args``
    keeps no state between calls."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _cmd(args)
    except (
        serialize.ConfigError,
        ExprError,
        GridError,
        ValueError,
        KeyError,
        RuntimeError,
        OSError,
    ) as exc:
        detail = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
