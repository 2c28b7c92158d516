"""Command-line interface.

Every invocation writes its artifacts into an output directory together
with a ``manifest.json`` recording the resolved configuration, its hash,
the seed, package/library versions, wall-clock timings, and the list of
artifacts.  All numbers are serialized at 17 significant digits, so a rerun
with the same inputs reproduces every artifact byte for byte (the manifest
timings are the one intentionally non-deterministic field).

Subcommands either take explicit flags (``verify-el``, ``coefficients``,
``qpot``, ``spectra``, ``evolve``) or run a named scenario from a key=value
config file (``run``); flags override config values.
"""

from __future__ import annotations

import argparse
import platform
import sys
import time
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

_SPEC_KEYS = ("units", "c", "floor", "source", "max_order", "orders")


def _spec_subset(cfg: Mapping[str, str]) -> dict[str, str]:
    """The spec-defining keys present in a config, for manifest echoing."""
    out = {k: cfg[k] for k in _SPEC_KEYS if k in cfg}
    for k in cfg:
        if k.startswith(("a_", "A_")):
            out[k] = cfg[k]
    return out


# --------------------------------------------------------------------------
# Scenarios (shared by the dedicated subcommands and ``run``)
# --------------------------------------------------------------------------


def _scenario_verify_el(
    cfg: Mapping[str, str], outdir: Path, seed: int
) -> tuple[dict, list[str]]:
    q_text = serialize.require(cfg, "q")
    dim = serialize.get_int(cfg, "dim", 1)
    trials = serialize.get_int(cfg, "trials", 100)
    tol = serialize.get_float(cfg, "tol", 1e-10)
    report = certify(parse_q_expression(q_text, dim), dim, trials, tol, seed)
    serialize.write_json(outdir / "residual_report.json", report.to_dict())
    print(
        f"verify-el: {report.verdict} "
        f"(max relative residual {serialize.fmt_float(report.max_abs_residual)}, "
        f"{report.samples_used} samples)"
    )
    resolved = {
        "q": q_text,
        "dim": str(dim),
        "trials": str(trials),
        "tol": serialize.fmt_float(tol),
    }
    return resolved, ["residual_report.json"]


def _scenario_coefficients(
    cfg: Mapping[str, str], outdir: Path, seed: int
) -> tuple[dict, list[str]]:
    max_n = serialize.get_int(cfg, "max_n", 20)
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
    return {"max_n": str(max_n)}, ["coefficients.csv"]


def _scenario_box(
    cfg: Mapping[str, str], outdir: Path, seed: int
) -> tuple[dict, list[str]]:
    spec, params = spec_from_config(dict(cfg))
    L = serialize.get_float(cfg, "L", 1.0)
    tau = serialize.get_int(cfg, "tau", 1)
    points = serialize.get_int(cfg, "points", 513)
    count = serialize.get_int(cfg, "count", 5)
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
    resolved = {
        **_spec_subset(cfg),
        "L": serialize.fmt_float(L),
        "tau": str(tau),
        "points": str(points),
        "count": str(count),
    }
    return resolved, outputs


def _scenario_hydrogen(
    cfg: Mapping[str, str], outdir: Path, seed: int
) -> tuple[dict, list[str]]:
    spec, params = spec_from_config(dict(cfg))
    radial_points = serialize.get_int(cfg, "radial_points", 2048)
    grid = hydrogen_default_grid(params, points=radial_points)
    states = []
    for n in (1, 2):
        state = hydrogen_radial_state(n, 0, params, grid)
        res = compare_shifts(state, params, spec)
        analytic = hydrogen_shift_closed_form(n, params)
        states.append(
            {
                **res.to_dict(),
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
    resolved = {**_spec_subset(cfg), "radial_points": str(radial_points)}
    return resolved, ["hydrogen_shifts.json"]


def _scenario_qpot(
    cfg: Mapping[str, str], outdir: Path, seed: int
) -> tuple[dict, list[str]]:
    spec, params = spec_from_config(dict(cfg))
    input_path = serialize.require(cfg, "input")
    f = read_gridfunction(input_path)
    q = eval_complete_q(f, params, spec)
    units = serialize.get_str(cfg, "units", "electron")
    write_gridfunction(outdir / "qpotential.csv", q, units=units)
    print(
        f"qpot: evaluated {len(spec.orders)} term(s) on {f.grid.n} points "
        f"(orders {', '.join(str(o) for o in spec.orders)})"
    )
    resolved = {**_spec_subset(cfg), "input": input_path}
    if "spec" in cfg:
        resolved["spec"] = cfg["spec"]
    return resolved, ["qpotential.csv", "qpotential.csv.json"]


def _initial_field(cfg: Mapping[str, str], g: Grid, L: float) -> WaveField:
    initial = serialize.get_str(cfg, "initial", "gaussian")
    if initial == "gaussian":
        center = serialize.get_float(cfg, "center_frac", 0.5) * L
        width = serialize.get_float(cfg, "width_frac", 0.05) * L
        k0 = serialize.get_float(cfg, "k0", 0.0)
        return WaveField.gaussian(g, center, width, k0)
    if initial == "eigenmode":
        tau = serialize.get_int(cfg, "tau", 1)
        if g.boundary == DIRICHLET:
            vals = np.sin(tau * np.pi * g.points / L).astype(np.complex128)
        else:
            vals = np.exp(2j * np.pi * tau * g.points / L)
        return WaveField(g, vals).normalized()
    raise serialize.ConfigError(
        f"key 'initial': unknown value {initial!r} (gaussian or eigenmode)"
    )


def _write_frame(path: Path, field: WaveField, t: float, units: str) -> None:
    serialize.write_csv(
        path,
        ("coordinate", "real", "imag"),
        zip(
            field.grid.points.tolist(),
            field.values.real.tolist(),
            field.values.imag.tolist(),
        ),
    )
    sidecar = {
        "kind": field.grid.kind,
        "boundary": field.grid.boundary,
        "units": units,
        "time": t,
        "columns": ["coordinate", "real", "imag"],
    }
    serialize.write_json(path.with_name(path.name + ".json"), sidecar)


def _scenario_evolve(
    cfg: Mapping[str, str], outdir: Path, seed: int
) -> tuple[dict, list[str]]:
    spec, params = spec_from_config(dict(cfg))
    points = serialize.get_int(cfg, "points", 1024)
    L = serialize.get_float(cfg, "L", 1.0)
    boundary = serialize.get_str(cfg, "boundary", PERIODIC)
    if boundary not in (PERIODIC, DIRICHLET):
        raise serialize.ConfigError(f"key 'boundary': unknown value {boundary!r}")
    g = Grid.uniform(0.0, L, points, boundary)
    psi0 = _initial_field(cfg, g, L)
    default_scheme = SPLIT_STEP if boundary == PERIODIC else CRANK_NICOLSON
    scheme = serialize.get_str(cfg, "scheme", default_scheme)
    steps = serialize.get_int(cfg, "steps")
    run_cfg = EvolutionConfig(
        dt=serialize.get_float(cfg, "dt"),
        steps=steps,
        scheme=scheme,
        q_cap=serialize.get_float(cfg, "q_cap") if "q_cap" in cfg else None,
        store_every=serialize.get_int(cfg, "store_every", max(1, steps // 10)),
    )
    potential = serialize.get_str(cfg, "potential", "none")
    if potential != "none":
        raise serialize.ConfigError(
            f"key 'potential': unsupported value {potential!r}"
        )
    V = GridFunction(g, np.zeros(points))
    units = serialize.get_str(cfg, "units", "electron")

    result = evolve(psi0, V, spec, params, run_cfg)

    outputs = []
    for step, t, frame in zip(result.step_indices, result.times, result.frames):
        name = f"frame_{int(step):06d}.csv"
        _write_frame(outdir / name, frame, float(t), units)
        outputs += [name, name + ".json"]
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
    resolved = {
        **_spec_subset(cfg),
        "points": str(points),
        "L": serialize.fmt_float(L),
        "boundary": boundary,
        "initial": serialize.get_str(cfg, "initial", "gaussian"),
        "scheme": scheme,
        "dt": serialize.fmt_float(run_cfg.dt),
        "steps": str(steps),
        "store_every": str(run_cfg.store_every),
    }
    if "q_cap" in cfg:
        resolved["q_cap"] = serialize.fmt_float(run_cfg.q_cap)
    return resolved, outputs


def _scenario_ratios(
    cfg: Mapping[str, str], outdir: Path, seed: int
) -> tuple[dict, list[str]]:
    tau = serialize.get_int(cfg, "tau", 1)
    points = serialize.get_int(cfg, "points", 257)
    half_order = serialize.get_int(cfg, "half_order", 1)
    regimes = (
        ("atomic", "electron", serialize.get_float(cfg, "L_atomic", 1.0)),
        ("nuclear", "proton", serialize.get_float(cfg, "L_nuclear", 1e-5)),
    )
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
    resolved = {
        "tau": str(tau),
        "points": str(points),
        "half_order": str(half_order),
        "L_atomic": serialize.fmt_float(regimes[0][2]),
        "L_nuclear": serialize.fmt_float(regimes[1][2]),
    }
    return resolved, ["ratios.csv"]


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
    t0 = time.perf_counter()
    resolved, outputs = _SCENARIOS[scenario](cfg, outdir, seed)
    elapsed = time.perf_counter() - t0
    manifest = {
        "scenario": scenario,
        "config": dict(sorted(resolved.items())),
        "config_hash": serialize.config_hash(resolved),
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


def _add_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default="out", help="output directory (default: out)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpotlab",
        description="Laboratory for generalized quantum-potential models.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "verify-el", help="certify stationarity of a candidate expression"
    )
    p.add_argument("--q", required=True, help="candidate expression, e.g. 'A2 * lap(R) / R'")
    p.add_argument("--dim", default="1", help="spatial dimension (1-3)")
    p.add_argument("--trials", default="100", help="random jet samples")
    p.add_argument("--tol", default="1e-10", help="pass threshold on the relative residual")
    p.add_argument("--seed", type=int, default=0)
    _add_out(p)
    p.set_defaults(func=_cmd_verify_el)

    p = sub.add_parser("coefficients", help="tabulate the coefficient family")
    p.add_argument("--max-n", default="20", help="largest half-order n")
    _add_out(p)
    p.set_defaults(func=_cmd_coefficients)

    p = sub.add_parser("qpot", help="evaluate the potential family on a grid function")
    p.add_argument("--spec", required=True, help="spec file (key = value)")
    p.add_argument("--input", required=True, help="grid-function CSV (with sidecar)")
    _add_out(p)
    p.set_defaults(func=_cmd_qpot)

    p = sub.add_parser("spectra", help="stationary-state energy shifts")
    p.add_argument("--problem", required=True, choices=("box", "hydrogen"))
    p.add_argument("--spec", help="spec file (default: relativistic through order 4)")
    p.add_argument("--L", help="box length")
    p.add_argument("--tau", help="box mode index")
    p.add_argument("--points", help="box grid points")
    p.add_argument("--count", help="eigenvalues to solve for")
    p.add_argument("--radial-points", help="hydrogen radial grid points")
    _add_out(p)
    p.set_defaults(func=_cmd_spectra)

    p = sub.add_parser("evolve", help="integrate the modified wave equation")
    p.add_argument("--spec", help="spec file (default: relativistic through order 4)")
    p.add_argument("--config", required=True, help="evolution config (key = value)")
    p.add_argument("--initial", choices=("gaussian", "eigenmode"))
    _add_out(p)
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("run", help="run a named scenario from a config file")
    p.add_argument("--config", required=True, help="scenario config (key = value)")
    p.add_argument("--scenario", choices=sorted(_SCENARIOS))
    p.add_argument("--seed", type=int)
    _add_out(p)
    p.set_defaults(func=_cmd_run)

    return parser


def _cmd_verify_el(args: argparse.Namespace) -> int:
    cfg = {"q": args.q, "dim": args.dim, "trials": args.trials, "tol": args.tol}
    return _run_scenario("verify-el", cfg, Path(args.out), args.seed)


def _cmd_coefficients(args: argparse.Namespace) -> int:
    return _run_scenario("coefficients", {"max_n": args.max_n}, Path(args.out), 0)


def _cmd_qpot(args: argparse.Namespace) -> int:
    cfg = dict(serialize.load_config(args.spec))
    cfg.update(spec=str(args.spec), input=str(args.input))
    return _run_scenario("qpot", cfg, Path(args.out), 0)


def _cmd_spectra(args: argparse.Namespace) -> int:
    cfg = dict(serialize.load_config(args.spec)) if args.spec else {}
    overrides = {
        "L": args.L,
        "tau": args.tau,
        "points": args.points,
        "count": args.count,
        "radial_points": args.radial_points,
    }
    cfg.update({k: v for k, v in overrides.items() if v is not None})
    return _run_scenario(args.problem, cfg, Path(args.out), 0)


def _cmd_evolve(args: argparse.Namespace) -> int:
    cfg = dict(serialize.load_config(args.spec)) if args.spec else {}
    cfg.update(serialize.load_config(args.config))
    if args.initial is not None:
        cfg["initial"] = args.initial
    return _run_scenario("evolve", cfg, Path(args.out), 0)


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = dict(serialize.load_config(args.config))
    scenario = args.scenario or cfg.get("scenario")
    if scenario is None:
        raise serialize.ConfigError(
            "no scenario: pass --scenario or put 'scenario = <name>' in the config"
        )
    if scenario not in _SCENARIOS:
        raise serialize.ConfigError(f"unknown scenario {scenario!r}")
    cfg.pop("scenario", None)
    if args.seed is not None:
        seed = args.seed
    else:
        seed = serialize.get_int(cfg, "seed", 0)
    cfg.pop("seed", None)
    return _run_scenario(scenario, cfg, Path(args.out), seed)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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
