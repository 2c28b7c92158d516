"""Command-line interface: artifacts, manifests, determinism, and errors."""

import ast
import json
import multiprocessing
import os
import re
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from qpotlab import cli, dynamics, serialize
from qpotlab.cli import main
from qpotlab.grid import Grid, GridFunction, write_gridfunction


def read_json(path):
    return json.loads(path.read_text())


def read_csv_rows(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestVerifyEl:
    def test_family_member_passes(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(
            [
                "verify-el",
                "--q",
                "A2 * lap(R) / R",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        report = read_json(out / "residual_report.json")
        assert report["verdict"] == "passes"
        assert report["max_abs_residual"] <= 1e-10
        assert report["residual"] == "0"
        assert capsys.readouterr().out == (
            "verify-el: passes (Euler-Lagrange residual is identically 0)\n"
        )
        manifest = read_json(out / "manifest.json")
        assert manifest["scenario"] == "verify-el"
        assert manifest["outputs"] == ["residual_report.json"]
        assert "config_hash" in manifest

    def test_counterexample_fails_but_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["verify-el", "--q", "C * dx(R)^2 / R^2", "--out", str(out)])
        assert rc == 0
        report = read_json(out / "residual_report.json")
        assert report["verdict"] == "fails"
        assert "verify-el: fails" in capsys.readouterr().out

    def test_worst_sample_reported(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["verify-el", "--q", "C * dx(R)^2 / R", "--dim", "2", "--trials", "30"]
        assert main([*argv, "--out", str(out)]) == 0
        report = read_json(out / "residual_report.json")
        worst = report["worst_trial"]
        assert 0 <= worst < 30 and report["samples_used"] == 30
        assert report["numerator_terms"] == 2
        max_rel = serialize.fmt_float(report["max_abs_residual"])
        assert capsys.readouterr().out == (
            f"verify-el: fails (N has 2 terms; max relative residual {max_rel} "
            f"at trial {worst} of 30)\n"
        )

    def test_false_pass_candidate_fails_at_the_defaults(self, tmp_path, capsys):
        q = "A2 * lap(R) / R + 0.000000000000001 * C * dx(R)"
        out = tmp_path / "out"
        assert main(["verify-el", "--q", q, "--out", str(out)]) == 0
        report = read_json(out / "residual_report.json")
        assert report["verdict"] == "fails"
        assert report["residual"] == "-1/500000000000000 * C * R * R_x"
        assert capsys.readouterr().out.startswith("verify-el: fails (N has 1 terms; ")

    def test_overflowing_terms_still_give_a_report(self, tmp_path):
        # R_x^20000 overflows on every trial with |R_x| > 1, where the term
        # is inf - inf; such trials are never the worst
        out = tmp_path / "out"
        assert main(["verify-el", "--q", "C * dx(R)^20000", "--out", str(out)]) == 0
        report = read_json(out / "residual_report.json")
        assert report["verdict"] == "fails" and report["numerator_terms"] == 2
        assert 0.0 <= report["max_abs_residual"] < float("inf")

    def test_parse_error_exits_nonzero(self, tmp_path, capsys):
        rc = main(["verify-el", "--q", "sin(R)", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_negative_seed_names_the_key(self, tmp_path, capsys):
        argv = ["verify-el", "--q", "A2 * lap(R) / R", "--seed", "-1"]
        rc = main([*argv, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"

    def test_refused_run_removes_the_output_directory_it_made(self, tmp_path, capsys):
        argv = ["verify-el", "--q", "A2 * lap(R) / R", "--seed", "-1"]
        out = tmp_path / "o"
        assert main([*argv, "--out", str(out)]) == 1
        assert not out.exists()
        # a directory that was there before the run stays
        out.mkdir()
        assert main([*argv, "--out", str(out)]) == 1
        assert out.is_dir() and list(out.iterdir()) == []

    def test_failed_rerun_leaves_no_earlier_pass(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["verify-el", "--q", "R^0", "--out", str(out)]) == 0
        assert read_json(out / "residual_report.json")["verdict"] == "passes"
        assert main(["verify-el", "--q", "0^-1", "--out", str(out)]) == 1
        assert "byte offset 1" in capsys.readouterr().err
        assert out.is_dir() and list(out.iterdir()) == []

    def test_rerun_deletes_only_what_the_manifest_lists(self, tmp_path):
        out = tmp_path / "o"
        assert main(["verify-el", "--q", "C * dx(R)", "--out", str(out)]) == 0
        (out / "notes.txt").write_text("kept")
        assert main(["verify-el", "--q", "sin(R)", "--out", str(out)]) == 1
        assert sorted(p.name for p in out.iterdir()) == ["notes.txt"]

    def test_report_does_not_depend_on_the_hash_seed(self, tmp_path):
        """Set and dict order never reaches the printed N/D or a float sum
        of the witness: two interpreters with different string hashes
        write the same bytes."""
        q = "A * dx(R)^2 / (R + dz(R)) + B * dy(R) * lap(R) / R"
        src = str(Path(cli.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        reports = []
        for hash_seed in ("0", "1"):
            out = tmp_path / hash_seed
            argv = ["verify-el", "--q", q, "--dim", "3", "--trials", "50", "--out", str(out)]
            proc = subprocess.run(
                [sys.executable, "-m", "qpotlab.cli", *argv], capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": hash_seed},
            )
            assert proc.returncode == 0, proc.stderr
            reports.append((out / "residual_report.json").read_bytes())
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["verdict"] == "fails"

    def test_control_character_in_q_gives_a_json_manifest(self, tmp_path):
        # the tokenizer reads U+001F as white space; the manifest records it
        q = "A2 *\x1flap(R) / R"
        out = tmp_path / "o"
        assert main(["verify-el", "--q", q, "--trials", "5", "--out", str(out)]) == 0
        assert read_json(out / "manifest.json")["config"]["q"] == q

    def test_dimension_flag(self, tmp_path):
        out = tmp_path / "out"
        rc = main(
            ["verify-el", "--q", "A2 * lap(R) / R", "--dim", "2", "--out", str(out)]
        )
        assert rc == 0
        assert read_json(out / "residual_report.json")["dimension"] == 2


class TestCoefficients:
    def test_table_written(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["coefficients", "--max-n", "6", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv_rows(out / "coefficients.csv")
        assert header == ["n", "coefficient", "value", "reference", "match"]
        assert len(rows) == 7
        assert rows[0][1] == "1"
        assert rows[1][1] == "1/2"
        assert rows[2][1] == "-1/8"
        assert all(r[-1] == "true" for r in rows)
        assert "reference match: all" in capsys.readouterr().out


class TestQpot:
    def test_evaluates_on_gridfunction(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.cfg"
        spec_path.write_text(
            "units = electron\nsource = relativistic\nmax_order = 4\n"
        )
        g = Grid.uniform(0.0, 1.0, 129)
        f = GridFunction(g, np.sin(np.pi * g.points)).normalized()
        in_path = tmp_path / "field.csv"
        write_gridfunction(in_path, f, units="electron")
        out = tmp_path / "out"
        rc = main(
            [
                "qpot",
                "--spec",
                str(spec_path),
                "--input",
                str(in_path),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert (out / "qpotential.csv").exists()
        assert (out / "qpotential.csv.json").exists()
        manifest = read_json(out / "manifest.json")
        assert manifest["outputs"] == ["qpotential.csv", "qpotential.csv.json"]
        assert "3 term(s)" in capsys.readouterr().out

    def test_missing_input_errors(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.cfg"
        spec_path.write_text("source = relativistic\n")
        rc = main(
            [
                "qpot",
                "--spec",
                str(spec_path),
                "--input",
                str(tmp_path / "nope.csv"),
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "body, detail",
        [("", "no data rows"), ("0.0\n0.5\n", "line 2 has 1 cell(s)")],
        ids=["header-only", "one-column"],
    )
    def test_malformed_field_csv(self, tmp_path, capsys, body, detail):
        field = tmp_path / "field.csv"
        write_gridfunction(field, GridFunction(Grid.uniform(0.0, 1.0, 16), np.ones(16)))
        field.write_text("coordinate,value\n" + body)
        spec_path = tmp_path / "spec.cfg"
        spec_path.write_text("units = electron\nmax_order = 4\n")
        rc = main(
            ["qpot", "--spec", str(spec_path), "--input", str(field),
             "--out", str(tmp_path / "q")]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(field) in err and detail in err
        assert "Traceback" not in err

    def test_under_resolved_grid_refused(self, tmp_path, capsys):
        # 16 points hold derivatives up to order 15, so order 16 is refused
        field = tmp_path / "field.csv"
        g = Grid.uniform(0.0, 1.0, 16)
        write_gridfunction(field, GridFunction(g, np.sin(np.pi * g.points)), units="electron")
        spec_path = tmp_path / "spec.cfg"
        spec_path.write_text("units = electron\nmax_order = 16\n")
        out = tmp_path / "q"
        rc = main(["qpot", "--spec", str(spec_path), "--input", str(field), "--out", str(out)])
        assert rc == 1
        assert "16 points is under-resolved for order 16" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_evolve_frame_input_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "orders = 2\npoints = 64\ninitial = eigenmode\ndt = 1e-7\nsteps = 2\n"
        )
        assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "ev")]) == 0
        spec_path = tmp_path / "spec.cfg"
        spec_path.write_text("units = electron\nmax_order = 4\n")
        frame = tmp_path / "ev" / "frame_000000.csv"
        rc = main(
            ["qpot", "--spec", str(spec_path), "--input", str(frame),
             "--out", str(tmp_path / "q")]
        )
        assert rc == 1
        assert "coordinate,real,imag" in capsys.readouterr().err


class TestSpectraBox:
    def test_box_artifacts(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(
            ["spectra", "--problem", "box", "--points", "257", "--out", str(out)]
        )
        assert rc == 0
        payload = read_json(out / "box_shifts.json")
        assert payload["E0"] == pytest.approx(37.6030162, rel=1e-6)
        assert payload["pc"] == pytest.approx(6199.20992, rel=1e-6)
        orders = [s["order"] for s in payload["shifts"]]
        assert orders == [0, 4]
        for s in payload["shifts"]:
            assert s["relative_gap"] < 1e-8
        header, rows = read_csv_rows(out / "eigenvalues.csv")
        assert header == ["tau", "E_linear", "E_modified", "E_linear_plus_shifts"]
        assert len(rows) == 5
        # tracked eigenvalue equals linear plus closed-form shifts
        for r in rows:
            assert float(r[2]) == pytest.approx(float(r[3]), rel=1e-9)
        assert "box: tau=1" in capsys.readouterr().out

    def test_zero_closed_form_has_a_null_relative_gap(self, tmp_path):
        # proton mode tau = 2 of a 1e-5 angstrom box has hbar k / m c = 1.32,
        # above the band edge, so its order-4 closed form is 0: a relative
        # gap to it does not exist, and abs(delta_E) in eV is not one
        spec_path = tmp_path / "spec.cfg"
        spec_path.write_text("units = proton\nmax_order = 4\n")
        out = tmp_path / "out"
        rc = main(
            ["spectra", "--problem", "box", "--spec", str(spec_path), "--L", "1e-5",
             "--tau", "2", "--points", "513", "--out", str(out)]
        )
        assert rc == 0
        shifts = {s["order"]: s for s in read_json(out / "box_shifts.json")["shifts"]}
        assert shifts[4]["closed_form"] == 0 and shifts[4]["delta_E"] != 0
        assert shifts[4]["relative_gap"] is None
        # the order-0 row has a non-zero closed form and keeps its gap
        assert shifts[0]["closed_form"] != 0 and shifts[0]["relative_gap"] == 0

    def test_eigenvalues_above_the_band_match_the_shifts(self, tmp_path):
        # modes tau = 2, 3 of a 1e-5 angstrom proton box lie above the band
        # edge: both columns drop the order-4 term there, tau = 1 keeps it
        spec_path = tmp_path / "spec.cfg"
        spec_path.write_text("units = proton\nmax_order = 4\n")
        out = tmp_path / "out"
        rc = main(
            ["spectra", "--problem", "box", "--spec", str(spec_path), "--L", "1e-5",
             "--tau", "2", "--points", "513", "--count", "3", "--out", str(out)]
        )
        assert rc == 0
        _, rows = read_csv_rows(out / "eigenvalues.csv")
        assert [r[0] for r in rows] == ["1", "2", "3"]
        for r in rows:
            modified, predicted = float(r[2]), float(r[3])
            assert abs(modified - predicted) <= 1e-12 * abs(predicted), r

    def test_higher_order_spec_skips_eigenvalues(self, tmp_path):
        spec_path = tmp_path / "spec.cfg"
        spec_path.write_text("source = relativistic\nmax_order = 6\n")
        out = tmp_path / "out"
        rc = main(
            [
                "spectra",
                "--problem",
                "box",
                "--spec",
                str(spec_path),
                "--points",
                "257",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert not (out / "eigenvalues.csv").exists()
        payload = read_json(out / "box_shifts.json")
        assert [s["order"] for s in payload["shifts"]] == [0, 4, 6]


class TestSpectraOrder2:
    """An explicit order-2 coefficient other than -hbar^2/2m is refused
    before anything is computed, as evolve and the eigensolver refuse it."""

    @pytest.mark.parametrize(
        "problem, extra",
        [("box", "A_6 = 1e-3"), ("hydrogen", "A_4 = -1e-3")],
    )
    def test_conflicting_order2_is_refused(self, tmp_path, capsys, problem, extra):
        spec_path = tmp_path / "spec.cfg"
        spec_path.write_text(f"source = explicit\nA_2 = 5.0\n{extra}\n")
        out = tmp_path / "out"
        rc = main(
            ["spectra", "--problem", problem, "--spec", str(spec_path), "--out", str(out)]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "conflicts with the kinetic operator" in err
        assert not out.exists()


class TestSpectraHydrogen:
    def test_hydrogen_artifacts(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(
            [
                "spectra",
                "--problem",
                "hydrogen",
                "--radial-points",
                "2048",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        payload = read_json(out / "hydrogen_shifts.json")
        assert payload["radial_points"] == 2048
        assert payload["bohr_radius"] == pytest.approx(0.529177, rel=1e-5)
        assert len(payload["states"]) == 2
        for s in payload["states"]:
            assert s["relative_error"] < 0.02
            assert s["relative_gap"] < 1e-6
            # the band-projected closed form lies just inside the textbook one
            assert 0.98 < s["analytic_projected"] / s["analytic"] < 1.0
            assert s["relative_error_projected"] < 5e-3
        assert "hydrogen: 1s/2s" in capsys.readouterr().out

    def test_grid_that_cannot_resolve_the_band_is_refused(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(
            ["spectra", "--problem", "hydrogen", "--radial-points", "1744",
             "--out", str(out)]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "at least 1745" in err
        assert not out.exists()


class TestEvolve:
    def test_periodic_run_artifacts(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "source = relativistic\n"
            "orders = 2\n"
            "points = 64\n"
            "boundary = periodic\n"
            "initial = eigenmode\n"
            "tau = 2\n"
            "dt = 1e-7\n"
            "steps = 20\n"
            "store_every = 10\n"
        )
        out = tmp_path / "out"
        rc = main(["evolve", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        summary = read_json(out / "evolve_summary.json")
        assert summary["scheme"] == "split-step-spectral"
        assert summary["stored_frames"] == 3
        assert summary["max_norm_drift"] < 1e-10
        assert "clamp_count" not in summary
        for step in (0, 10, 20):
            assert (out / f"frame_{step:06d}.csv").exists()
            sidecar = read_json(out / f"frame_{step:06d}.csv.json")
            assert sidecar["columns"] == ["coordinate", "real", "imag"]
        header, rows = read_csv_rows(out / "series.csv")
        assert header == ["step", "time", "norm", "energy"]
        assert len(rows) == 3
        energies = [float(row[3]) for row in rows]
        drift = max(abs(e - energies[0]) for e in energies) / abs(energies[0])
        out_line = capsys.readouterr().out
        assert "evolve: 20 steps" in out_line
        assert f"relative energy drift {drift:.17g}\n" in out_line

    def test_flat_field_energy_drift_is_undefined(self, tmp_path, capsys):
        # a tau = 0 periodic mode under orders 2 has E0 = 0: the verdict
        # line says the relative drift is undefined instead of failing
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "orders = 2\npoints = 64\nboundary = periodic\n"
            "initial = eigenmode\ntau = 0\ndt = 1e-7\nsteps = 5\n"
        )
        assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert "relative energy drift undefined (E0 = 0)\n" in capsys.readouterr().out

    def test_initial_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "orders = 2\npoints = 64\nboundary = periodic\n"
            "initial = eigenmode\ndt = 1e-7\nsteps = 5\n"
        )
        out = tmp_path / "out"
        rc = main(
            [
                "evolve",
                "--config",
                str(cfg),
                "--initial",
                "gaussian",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        manifest = read_json(out / "manifest.json")
        assert manifest["config"]["initial"] == "gaussian"

    @pytest.mark.parametrize("width", ["0", "-0.05"])
    def test_nonpositive_packet_width_is_refused(self, tmp_path, capsys, width):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "orders = 2\npoints = 64\nboundary = periodic\n"
            f"width_frac = {width}\ndt = 1e-7\nsteps = 5\n"
        )
        out = tmp_path / "out"
        rc = main(["evolve", "--config", str(cfg), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "key 'width_frac'" in err
        assert "RuntimeWarning" not in err
        assert not out.exists()

    def test_missing_required_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("points = 64\nboundary = periodic\nsteps = 5\n")
        rc = main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error:" in err and "dt" in err

    def test_dirichlet_steps_by_split_step_too(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "orders = 2\npoints = 65\nboundary = dirichlet\n"
            "initial = eigenmode\ndt = 1e-8\nsteps = 4\n"
        )
        out = tmp_path / "out"
        rc = main(["evolve", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        summary = read_json(out / "evolve_summary.json")
        assert summary["scheme"] == "split-step-spectral"


class TestEvolveFailure:
    """A failed run leaves no frame, no manifest and no live frame writer."""

    @staticmethod
    def config(tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "orders = 2,4\npoints = 64\nboundary = periodic\n"
            "initial = eigenmode\ndt = 1e-7\nsteps = 10\nstore_every = 1\n"
        )
        return cfg

    def test_nan_field_deletes_the_written_frames(self, tmp_path, capsys, monkeypatch):
        w_evals, sent = [], []
        build = dynamics.complete_q_operator

        def builds_nan(*args):
            apply = build(*args)

            def turns_nan(r):
                w_evals.append(1)
                W = apply(r)
                if len(w_evals) == 5:  # the W of step 4
                    W[7] = np.nan
                return W

            return turns_nan

        run = cli.evolve

        def counting_evolve(*args, on_frame):
            def counted(step, t, frame):
                sent.append(step)
                on_frame(step, t, frame)

            return run(*args, on_frame=counted)

        monkeypatch.setattr(dynamics, "complete_q_operator", builds_nan)
        monkeypatch.setattr(cli, "evolve", counting_evolve)
        out = tmp_path / "out"
        rc = main(["evolve", "--config", str(self.config(tmp_path)), "--out", str(out)])
        assert rc == 1
        assert "error: non-finite field at step 4 " in capsys.readouterr().err
        # frames 0-3 went to the writer, which wrote them before it was joined;
        # their deletion left the directory the run made empty, so it went too
        assert sent == [0, 1, 2, 3]
        assert not out.exists()
        assert multiprocessing.active_children() == []

    def test_writer_failure_names_the_path(self, tmp_path, capsys):
        out = tmp_path / "out"
        blocker = out / "frame_000000.csv"
        blocker.mkdir(parents=True)
        rc = main(["evolve", "--config", str(self.config(tmp_path)), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(blocker) in err
        assert list(out.iterdir()) == [blocker] and blocker.is_dir()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("submit_after_death", [False, True])
    def test_dead_writer_names_the_frame(
        self, tmp_path, capsys, monkeypatch, submit_after_death
    ):
        write_csv, parent = serialize.write_csv, os.getpid()

        def dies_at_frame_3(path, *args):
            if Path(path).name == "frame_000003.csv" and os.getpid() != parent:
                os._exit(3)
            write_csv(path, *args)

        # the forked writer inherits the patch; nothing local is pickled
        monkeypatch.setattr(serialize, "write_csv", dies_at_frame_3)
        if submit_after_death:
            # frame 4 is submitted only once the pool knows its worker died,
            # so submit itself raises BrokenProcessPool
            submit = ProcessPoolExecutor.submit

            def late_submit(pool, fn, path, *args):
                deadline = time.monotonic() + 30
                while path.name == "frame_000004.csv" and not pool._broken:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                return submit(pool, fn, path, *args)

            monkeypatch.setattr(ProcessPoolExecutor, "submit", late_submit)
        out = tmp_path / "out"
        rc = main(["evolve", "--config", str(self.config(tmp_path)), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: frame writer: ")
        assert str(out / "frame_000003.csv") in err
        assert not out.exists()
        assert multiprocessing.active_children() == []


class TestRun:
    def test_scenario_from_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scenario = ratios\npoints = 129\n")
        out = tmp_path / "out"
        rc = main(["run", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        header, rows = read_csv_rows(out / "ratios.csv")
        assert header[0] == "regime"
        assert [r[0] for r in rows] == ["atomic", "nuclear"]
        # grid quotient tracks the analytic ratio in both regimes
        for r in rows:
            analytic, on_grid = float(r[5]), float(r[6])
            assert abs(on_grid - analytic) / abs(analytic) < 1e-3

    def test_flag_overrides_config_scenario(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scenario = ratios\nmax_n = 4\n")
        out = tmp_path / "out"
        rc = main(
            ["run", "--config", str(cfg), "--scenario", "coefficients", "--out", str(out)]
        )
        assert rc == 0
        assert (out / "coefficients.csv").exists()
        assert not (out / "ratios.csv").exists()

    def test_missing_scenario(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("points = 129\n")
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "no scenario" in capsys.readouterr().err

    def test_unknown_scenario(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scenario = warp\n")
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "unknown scenario" in capsys.readouterr().err

    def test_seed_flag_recorded(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scenario = verify-el\nq = A2 * lap(R) / R\n")
        out = tmp_path / "out"
        rc = main(["run", "--config", str(cfg), "--seed", "7", "--out", str(out)])
        assert rc == 0
        manifest = read_json(out / "manifest.json")
        assert manifest["seed"] == 7
        report = read_json(out / "residual_report.json")
        assert report["seed"] == 7


def small_field(tmp_path):
    g = Grid.uniform(0.0, 1.0, 65)
    path = tmp_path / "field.csv"
    write_gridfunction(path, GridFunction(g, np.sin(np.pi * g.points)).normalized())
    return path


class TestUnreadKeys:
    """A key that no reader of the scenario consumed is an error, and the
    run stops before it computes, prints or writes anything."""

    def assert_rejected(self, rc, out, capsys, *keys):
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        for key in keys:
            assert key in captured.err
        assert captured.out == ""
        assert not out.exists() or list(out.iterdir()) == []

    def test_verify_el_tol_key(self, tmp_path, capsys):
        # the verdict is exact, so no pass threshold is read
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scenario = verify-el\nq = A2 * lap(R) / R\ntol = 1e-10\n")
        out = tmp_path / "out"
        rc = main(["run", "--config", str(cfg), "--out", str(out)])
        self.assert_rejected(rc, out, capsys, "does not read key(s): tol")

    def test_misspelt_evolve_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "orders = 2\npoints = 64\ninitial = eigenmode\n"
            "dt = 1e-7\nsteps = 2\nstore_evry = 1\n"
        )
        out = tmp_path / "out"
        rc = main(["evolve", "--config", str(cfg), "--out", str(out)])
        self.assert_rejected(rc, out, capsys, "store_evry")

    def test_explicit_coefficient_in_relativistic_spec(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.cfg"
        spec_path.write_text("source = relativistic\nmax_order = 4\na_4 = -1/8\n")
        out = tmp_path / "out"
        rc = main(
            ["qpot", "--spec", str(spec_path), "--input", str(small_field(tmp_path)),
             "--out", str(out)]
        )
        self.assert_rejected(rc, out, capsys, "a_4")

    def test_orders_and_max_order(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "orders = 2\nmax_order = 4\npoints = 64\ninitial = eigenmode\n"
            "dt = 1e-7\nsteps = 2\n"
        )
        out = tmp_path / "out"
        rc = main(["evolve", "--config", str(cfg), "--out", str(out)])
        self.assert_rejected(rc, out, capsys, "max_order")

    @pytest.mark.parametrize(
        "line", ["scheme = crank-nicolson-fd", "potential = none", "q_cap = 1"]
    )
    def test_evolve_reads_no_scheme_or_potential(self, tmp_path, capsys, line):
        # the boundary picks the time stepper, V is always zero and the W
        # cap is fixed
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "orders = 2\npoints = 65\nboundary = dirichlet\ninitial = eigenmode\n"
            f"dt = 1e-8\nsteps = 2\n{line}\n"
        )
        out = tmp_path / "out"
        rc = main(["evolve", "--config", str(cfg), "--out", str(out)])
        self.assert_rejected(rc, out, capsys, f"does not read key(s): {line.split()[0]}")

    def test_box_flag_on_hydrogen(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(
            ["spectra", "--problem", "hydrogen", "--radial-points", "512",
             "--points", "100", "--out", str(out)]
        )
        self.assert_rejected(rc, out, capsys, "points")

    @pytest.mark.parametrize("problem", ["box", "hydrogen"])
    def test_spectra_read_no_floor(self, tmp_path, capsys, problem):
        # the shifts never divide by R, so the amplitude floor changes nothing
        spec = tmp_path / "spec.cfg"
        spec.write_text("floor = 0.5\n")
        out = tmp_path / "out"
        rc = main(["spectra", "--problem", problem, "--spec", str(spec), "--out", str(out)])
        self.assert_rejected(rc, out, capsys, "does not read key(s): floor")

    def test_box_reads_count_only_for_the_levels(self, tmp_path, capsys):
        # above order 4 no V = 0 levels are solved, so count changes nothing
        spec = tmp_path / "spec.cfg"
        spec.write_text("orders = 0,2,4,6\n")
        out = tmp_path / "out"
        rc = main(
            ["spectra", "--problem", "box", "--spec", str(spec), "--count", "5",
             "--out", str(out)]
        )
        self.assert_rejected(rc, out, capsys, "does not read key(s): count")

    @pytest.mark.parametrize(
        "line, orders", [("orders = 0,2", "0, 2"), ("max_order = 8", "0, 2, 4, 6, 8")]
    )
    def test_hydrogen_refuses_orders_it_does_not_compute(self, tmp_path, capsys, line, orders):
        # hydrogen computes the order-4 shift only: without order 4 in the
        # spec it would report the relativistic one, and it would drop
        # every order above 4
        spec = tmp_path / "spec.cfg"
        spec.write_text(line + "\n")
        out = tmp_path / "out"
        rc = main(["spectra", "--problem", "hydrogen", "--spec", str(spec), "--out", str(out)])
        self.assert_rejected(rc, out, capsys, f"it has orders {orders}")

    def test_rejected_run_leaves_no_artifacts(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "evolve", lambda *args: calls.append(args))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "orders = 2\npoints = 64\ninitial = eigenmode\n"
            "dt = 1e-7\nsteps = 2\nstore_every = 1\nstore_evry = 1\n"
        )
        out = tmp_path / "out"
        rc = main(["evolve", "--config", str(cfg), "--out", str(out)])
        self.assert_rejected(rc, out, capsys, "store_evry")
        assert calls == []

    @pytest.mark.parametrize("scenario", sorted(cli._SCENARIOS))
    def test_every_scenario_rejects_before_writing(self, tmp_path, capsys, scenario):
        required = {
            "verify-el": "q = A2 * lap(R) / R\n",
            "qpot": f"input = {small_field(tmp_path)}\n",
            "evolve": "dt = 1e-7\nsteps = 2\n",
        }
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"scenario = {scenario}\n{required.get(scenario, '')}bogus = 1\n")
        out = tmp_path / "out"
        rc = main(["run", "--config", str(cfg), "--out", str(out)])
        self.assert_rejected(rc, out, capsys, "does not read key(s): bogus")

    def test_every_unread_key_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scenario = ratios\npoints = 65\nk0 = 5\nc = 2\n")
        out = tmp_path / "out"
        rc = main(["run", "--config", str(cfg), "--out", str(out)])
        self.assert_rejected(rc, out, capsys, "k0", "c")


class TestManifestConfig:
    """The manifest config is every key the scenario read, with the value
    it used, defaults included."""

    def evolve(self, tmp_path, name, text):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text("orders = 2\npoints = 64\ndt = 1e-7\nsteps = 2\n" + text)
        out = tmp_path / name
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
        return read_json(out / "manifest.json")

    def test_gaussian_keys_enter_the_hash(self, tmp_path):
        a = self.evolve(tmp_path, "a", "k0 = 10\n")
        b = self.evolve(tmp_path, "b", "k0 = 20\n")
        assert a["config_hash"] != b["config_hash"]
        assert a["config"]["k0"] == "10" and b["config"]["k0"] == "20"
        for key, value in (
            ("center_frac", "0.5"),
            ("width_frac", "0.050000000000000003"),
            ("units", "electron"),
            ("floor", "1e-08"),
            ("initial", "gaussian"),
            ("store_every", "1"),
        ):
            assert a["config"][key] == value
        # the boundary picks the time stepper and V is zero: no such keys
        for key in ("tau", "scheme", "potential"):
            assert key not in a["config"]

    def test_eigenmode_records_tau(self, tmp_path):
        m = self.evolve(tmp_path, "e", "initial = eigenmode\n")
        assert m["config"]["tau"] == "1"
        assert "k0" not in m["config"]

    def test_spectra_record_only_the_keys_they_use(self, tmp_path):
        box, hydrogen = tmp_path / "box", tmp_path / "hydrogen"
        assert main(["spectra", "--problem", "box", "--points", "65", "--out", str(box)]) == 0
        assert main(
            ["spectra", "--problem", "hydrogen", "--radial-points", "2048", "--out", str(hydrogen)]
        ) == 0
        assert read_json(box / "manifest.json")["config"] == {
            "L": "1",
            "count": "5",
            "max_order": "4",
            "points": "65",
            "source": "relativistic",
            "tau": "1",
            "units": "electron",
        }
        assert read_json(hydrogen / "manifest.json")["config"] == {
            "max_order": "4",
            "radial_points": "2048",
            "source": "relativistic",
            "units": "electron",
        }

    def test_qpot_records_input_not_spec_path(self, tmp_path):
        spec_path = tmp_path / "spec.cfg"
        spec_path.write_text("source = explicit\na_2 = 1/2\nA_4 = -0.25\n")
        field = small_field(tmp_path)
        out = tmp_path / "out"
        rc = main(["qpot", "--spec", str(spec_path), "--input", str(field), "--out", str(out)])
        assert rc == 0
        assert read_json(out / "manifest.json")["config"] == {
            "A_4": "-0.25",
            "a_2": "1/2",
            "floor": "1e-08",
            "input": str(field),
            "source": "explicit",
            "units": "electron",
        }


class TestOnePath:
    def test_spectra_flags_equal_run_config(self, tmp_path):
        flags = tmp_path / "flags"
        rc = main(
            ["spectra", "--problem", "box", "--points", "257", "--count", "3",
             "--out", str(flags)]
        )
        assert rc == 0
        cfg = tmp_path / "box.cfg"
        cfg.write_text("points = 257\ncount = 3\n")
        run = tmp_path / "run"
        rc = main(["run", "--scenario", "box", "--config", str(cfg), "--out", str(run)])
        assert rc == 0
        for name in ("box_shifts.json", "eigenvalues.csv"):
            assert (flags / name).read_bytes() == (run / name).read_bytes()
        mf, mr = read_json(flags / "manifest.json"), read_json(run / "manifest.json")
        assert mf["config"] == mr["config"]
        assert mf["config_hash"] == mr["config_hash"]

    def test_spec_then_config_then_flags(self, tmp_path):
        spec_path = tmp_path / "spec.cfg"
        spec_path.write_text("orders = 2,4\npoints = 16\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "orders = 2\npoints = 64\ninitial = eigenmode\ndt = 1e-7\nsteps = 2\n"
        )
        out = tmp_path / "out"
        rc = main(
            ["evolve", "--spec", str(spec_path), "--config", str(cfg),
             "--initial", "gaussian", "--out", str(out)]
        )
        assert rc == 0
        config = read_json(out / "manifest.json")["config"]
        assert (config["orders"], config["points"], config["initial"]) == (
            "2", "64", "gaussian"
        )

    def test_seed_from_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scenario = verify-el\nq = A2 * lap(R) / R\nseed = 5\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = read_json(out / "manifest.json")
        assert manifest["seed"] == 5
        assert "seed" not in manifest["config"]
        assert read_json(out / "residual_report.json")["seed"] == 5


class TestDeterminism:
    def test_rerun_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = main(
                ["spectra", "--problem", "box", "--points", "257", "--out", str(out)]
            )
            assert rc == 0
            outs.append(out)
        a, b = outs
        assert (a / "box_shifts.json").read_bytes() == (b / "box_shifts.json").read_bytes()
        assert (a / "eigenvalues.csv").read_bytes() == (b / "eigenvalues.csv").read_bytes()
        ma, mb = read_json(a / "manifest.json"), read_json(b / "manifest.json")
        ma.pop("timings")
        mb.pop("timings")
        assert ma == mb

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "qpotlab" in capsys.readouterr().out


_COLD_IMPORTS = r"""
import sys
from pathlib import Path

import numpy as np

from qpotlab import cli
from qpotlab.grid import Grid, GridFunction, write_gridfunction

out = Path(sys.argv[1])
lazy = ("multiprocessing", "concurrent.futures.process")
never = ("scipy", "numpy.testing", "unittest", "email")


def loaded():
    assert not [m for m in never if m in sys.modules], [m for m in never if m in sys.modules]
    return [m for m in lazy if m in sys.modules]


assert cli.main(["coefficients", "--max-n", "5", "--out", str(out / "c")]) == 0
assert cli.main(["verify-el", "--q", "A2 * lap(R) / R", "--trials", "4",
                 "--out", str(out / "v")]) == 0
assert loaded() == [], loaded()
assert cli.main(["spectra", "--problem", "box", "--points", "65", "--count", "2",
                 "--out", str(out / "b")]) == 0
assert loaded() == [], loaded()
assert cli.main(["spectra", "--problem", "hydrogen", "--radial-points", "2048",
                 "--out", str(out / "h")]) == 0
assert loaded() == [], loaded()
g = Grid.uniform(0.0, 1.0, 65)
field = out / "field.csv"
write_gridfunction(field, GridFunction(g, np.sin(np.pi * g.points)))
spec = out / "spec.cfg"
spec.write_text("max_order = 4\n")
assert cli.main(["qpot", "--spec", str(spec), "--input", str(field),
                 "--out", str(out / "q")]) == 0
ratios = out / "ratios.cfg"
ratios.write_text("")
assert cli.main(["run", "--scenario", "ratios", "--config", str(ratios),
                 "--out", str(out / "r")]) == 0
assert loaded() == [], loaded()
for boundary, points in (("periodic", 64), ("dirichlet", 65)):
    cfg = out / f"{boundary}.cfg"
    cfg.write_text(f"orders = 2\npoints = {points}\nboundary = {boundary}\n"
                   "initial = eigenmode\ndt = 1e-8\nsteps = 2\n")
    assert cli.main(["evolve", "--config", str(cfg), "--out", str(out / boundary)]) == 0
# nor does the library: the eigensolver on a nonzero V, and trajectories
from qpotlab.dynamics import EvolutionConfig, WaveField, evolve, integrate_trajectories
from qpotlab.qpotential import QuantumPotentialSpec, electron_params
from qpotlab.spectra import solve_modified_eigenproblem

g = Grid.uniform(0.0, 1.0, 129)
solve_modified_eigenproblem(GridFunction(g, 2000.0 * (g.points - 0.5) ** 2),
                            QuantumPotentialSpec.relativistic(4), electron_params(), 3)
psi = WaveField.gaussian(g, 0.5, 0.05, 20.0)
res = evolve(psi, GridFunction(g, np.zeros(g.n)), QuantumPotentialSpec.relativistic(4),
             electron_params(), EvolutionConfig(dt=1e-8, steps=3))
integrate_trajectories(res, np.array([0.4, 0.6]), electron_params())
assert loaded() == ["multiprocessing", "concurrent.futures.process"], loaded()
"""


class TestColdImport:
    def test_no_command_imports_scipy(self, tmp_path):
        """No command and no library path imports scipy, nor numpy.testing,
        unittest or email, which importing scipy.fft once brought in.
        verify-el, coefficients, the box and hydrogen spectra, qpot and
        ratios never load multiprocessing or the process pool of
        concurrent.futures; evolve loads both, for its frame writer, when
        it first needs them."""
        src = str(Path(cli.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-c", _COLD_IMPORTS, str(tmp_path)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr

    def test_no_module_names_scipy(self):
        package = Path(cli.__file__).resolve().parent
        naming = [p.name for p in sorted(package.rglob("*.py"))
                  if "scipy" in p.read_text(encoding="utf-8")]
        assert naming == []

    def test_only_grid_names_numpys_fft(self):
        # the grid's boundary picks the transform: no other module calls
        # numpy's FFT or takes its normalisation
        package = Path(cli.__file__).resolve().parent
        fft = re.compile(r"\b(np|numpy)\.fft\b|\bfft_scale\b")
        naming = [p.name for p in sorted(package.rglob("*.py"))
                  if fft.search(p.read_text(encoding="utf-8"))]
        assert naming == ["grid.py"]

    def test_imports_only_numpy_beyond_the_standard_library(self):
        """Every import statement of every module, top-level or not, names
        the standard library, numpy or the package itself, so
        ``dependencies = ["numpy>=2.0"]`` in pyproject.toml is the whole
        list."""
        package = Path(cli.__file__).resolve().parent
        outside = set()
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    roots = [alias.name.split(".")[0] for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    roots = [node.module.split(".")[0]]
                else:
                    continue
                outside.update(
                    (path.name, root) for root in roots
                    if root not in sys.stdlib_module_names and root not in ("numpy", "qpotlab")
                )
        assert outside == set()
        tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
        deps = tomllib.loads((package.parents[1] / "pyproject.toml").read_text(encoding="utf-8"))
        assert deps["project"]["dependencies"] == ["numpy>=2.0"]


class TestParserOnce:
    """main builds the argparse tree once per process; successive calls
    with different subcommands behave as with a fresh parser each."""

    ARGVS = (
        ["coefficients", "--max-n", "3"],
        ["spectra", "--problem", "box", "--points", "65", "--count", "2"],
        ["verify-el", "--q", "A0", "--trials", "4", "--seed", "3"],
        ["coefficients"],
        ["run", "--config", "c.cfg"],
        ["spectra", "--problem", "hydrogen"],
    )

    def test_namespaces_match_a_fresh_parser(self):
        for argv in self.ARGVS + self.ARGVS[::-1]:
            assert cli._parser().parse_args(argv) == cli.build_parser().parse_args(argv)

    def test_successive_calls(self, tmp_path, capsys, monkeypatch):
        from qpotlab import __version__

        builds = []
        original = cli.build_parser

        def counted():
            builds.append(1)
            return original()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        try:
            assert main(["coefficients", "--max-n", "3", "--out", str(tmp_path / "a")]) == 0
            capsys.readouterr()
            with pytest.raises(SystemExit) as exc:
                main(["--version"])
            assert exc.value.code == 0
            assert capsys.readouterr().out == f"qpotlab {__version__}\n"
            with pytest.raises(SystemExit) as exc:
                main(["evolve", "--out", str(tmp_path / "x")])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith("usage: qpotlab evolve")
            assert "the following arguments are required: --config" in err
            box = tmp_path / "box"
            assert main(["spectra", "--problem", "box", "--points", "65", "--count", "2",
                         "--out", str(box)]) == 0
            assert read_json(box / "manifest.json")["scenario"] == "box"
            assert main(["coefficients", "--max-n", "3", "--out", str(tmp_path / "b")]) == 0
            assert builds == [1]
        finally:
            cli._parser.cache_clear()
        ma = read_json(tmp_path / "a" / "manifest.json")
        mb = read_json(tmp_path / "b" / "manifest.json")
        ma.pop("timings")
        mb.pop("timings")
        assert ma == mb  # nothing of the spectra call leaked into the config
        csv = "coefficients.csv"
        assert (tmp_path / "a" / csv).read_bytes() == (tmp_path / "b" / csv).read_bytes()


class TestSpecParsing:
    """A malformed order or coefficient exits 1 naming its key."""

    def run(self, tmp_path, capsys, argv, key):
        out = tmp_path / "out"
        rc = main([*argv, "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"'{key}'" in err
        assert not (out / "manifest.json").exists()

    def test_evolve_bad_orders_token(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("orders = 2,x\npoints = 64\ndt = 1e-7\nsteps = 2\n")
        self.run(tmp_path, capsys, ["evolve", "--config", str(cfg)], "orders")

    def test_explicit_spec_bad_order_suffix(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.cfg"
        spec_path.write_text("source = explicit\na_x = 1/2\n")
        self.run(
            tmp_path,
            capsys,
            ["qpot", "--spec", str(spec_path), "--input", str(small_field(tmp_path))],
            "a_x",
        )
