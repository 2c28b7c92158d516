"""Which package functions the traced run wraps, and the per-layer metrics
computed from one traced pass.

Metric names are ``<module>.<function>.<what>``: ``calls`` and ``self_s``
for every target, plus sums of the per-call facts each extractor records.
"""

from __future__ import annotations

import os

from spans import Span, self_times


def _evolve_facts(a: dict, result) -> dict:
    return {"steps": a["cfg"].steps, "points": a["psi0"].grid.n, "clamps": result.clamp_count}


def _file_mb(a: dict, result) -> dict:
    return {"mb": os.path.getsize(a["path"]) / 1e6}


TARGETS = {
    "cli.main": None,
    "dynamics.evolve": _evolve_facts,
    "dynamics.energy_functional": None,
    "dynamics.integrate_trajectories": None,
    "dynamics.bohmian_velocity": None,
    "dynamics.sample_from_density": None,
    "grid.power_laplacian": lambda a, r: {"point_powers": a["f"].grid.n * a["n"]},
    "grid.gradient": None,
    "grid.integrate": None,
    "grid.read_gridfunction": None,
    "grid.write_gridfunction": None,
    "kernels.solve_tridiagonal": None,
    "kernels.advect_seeds": lambda a, r: {
        "seed_substeps": len(a["seeds"]) * a["substeps"] * (len(a["vframes"]) - 1)
    },
    "serialize.write_csv": _file_mb,
    "serialize.write_json": _file_mb,
    "spectra.solve_modified_eigenproblem": None,
    "spectra.perturbative_shift": None,
    "spectra.compare_shifts": None,
    "spectra.box_eigenstate": None,
    "spectra.hydrogen_radial_state": None,
    "elcheck.certify": lambda a, r: {"samples": r.samples_used, "resamples": r.resamples},
    "elcheck.el_residual_terms": None,
    "expr.parse_q_expression": None,
    "expr.evaluate": None,
    "coeffs.coefficient_table": None,
    "qpotential.spec_from_config": None,
    "qpotential.eval_complete_q": None,
}


def pass_metrics(spans: list[Span], wall: float) -> dict[str, float]:
    """Every per-layer metric of one traced pass that took ``wall`` seconds."""
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for target in TARGETS:
        out[f"{target}.calls"] = 0
        out[f"{target}.self_s"] = 0.0
    for s, own in zip(spans, selfs):
        out[f"{s.name}.calls"] += 1
        out[f"{s.name}.self_s"] += own
        for key, value in s.info.items():
            out[f"{s.name}.{key}"] = out.get(f"{s.name}.{key}", 0) + value

    evolves = [i for i, s in enumerate(spans) if s.name == "dynamics.evolve"]
    steps = sum(spans[i].info.get("steps", 0) for i in evolves)
    point_steps = sum(spans[i].info.get("points", 0) * spans[i].info.get("steps", 0) for i in evolves)
    loop = set(evolves)
    in_loop = sum(1 for s in spans if s.name == "grid.power_laplacian" and s.parent in loop)
    out["dynamics.w_evals_per_step"] = in_loop / steps if steps else 0.0
    out["dynamics.clamp_per_point_step"] = (
        out.get("dynamics.evolve.clamps", 0) / point_steps if point_steps else 0.0
    )
    draws = out.get("elcheck.certify.samples", 0) + out.get("elcheck.certify.resamples", 0)
    out["elcheck.certify.resample_frac"] = (
        out.get("elcheck.certify.resamples", 0) / draws if draws else 0.0
    )
    covered = sum(s.end - s.start for s in spans if s.parent < 0)
    out["trace.unattributed_s"] = wall - covered
    return out
