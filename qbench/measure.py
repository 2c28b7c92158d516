"""Timed passes, correctness checks and metric reporting for one workload.

End-to-end metrics come from untraced passes; per-layer metrics from a
separate run that alternates untraced and traced passes, so that the
difference of their medians is the tracing overhead.  Every pass writes
into a fresh directory; after the pass its artifacts are checked, compared
byte for byte with the first pass (manifest timings excepted) and removed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import layers
import spans
from run import ROOT, THREAD_VARS
from workloads import WORKLOADS, Workload

RUN = Path(__file__).resolve().parent / "run.py"
SETUP_REPEATS = 5
MIN_PASSES = 2


def artifact_digest(out: Path) -> tuple[dict[str, str], float]:
    """sha256 of every artifact (manifest timings dropped) and their total MB."""
    digests, size = {}, 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        size += len(data)
        if path.name == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("timings", None)
            data = json.dumps(manifest, sort_keys=True).encode()
        digests[str(path.relative_to(out))] = hashlib.sha256(data).hexdigest()
    return digests, size / 1e6


class PassRunner:
    """Runs and checks the passes of one workload and counts failures."""

    def __init__(self, workload: Workload, inputs: dict, work: Path):
        self.workload = workload
        self.inputs = inputs
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.first_digest: dict[str, str] | None = None
        self.absent: set[str] = set()
        self.unmeasured: set[str] = set()

    def run_pass(self, traced: bool) -> tuple[float, dict | None]:
        """One pass: its wall time and, when traced, its per-layer metrics."""
        out = self.work / f"pass-{self.attempted}"
        tracer = spans.Tracer(layers.TARGETS) if traced else None
        failures = []
        if tracer:
            tracer.install()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                result = self.workload.run(self.inputs, out)
        except Exception as exc:  # a failed pass is counted, not fatal
            traceback.print_exc()
            failures.append(f"pass raised {exc!r}")
        finally:
            wall = time.perf_counter() - t0
            if tracer:
                tracer.uninstall()
        if not failures:
            try:
                failures += self.workload.check(self.inputs, out, result)
            except Exception as exc:  # e.g. a missing or malformed artifact
                traceback.print_exc()
                failures.append(f"check raised {exc!r}")
        digest, output_mb = artifact_digest(out)
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            failures.append("artifacts differ from the first pass with the same seed")
        shutil.rmtree(out, ignore_errors=True)
        self.attempted += 1
        if failures:
            self.failed += 1
            for f in failures:
                print(f"qbench: {self.workload.name} pass {self.attempted}: {f}", file=sys.stderr)
        if tracer is None:
            return wall, None
        self.absent.update(tracer.absent)
        self.unmeasured.update(tracer.unmeasured)
        metrics = layers.pass_metrics(tracer.spans, wall)
        metrics["output_mb"] = output_mb
        return wall, metrics

    def loop(self, seconds: float, kinds: tuple[bool, ...]) -> tuple[dict[bool, list[float]], list[dict]]:
        """Run passes, cycling through ``kinds`` (traced or not), until the
        next one would end after ``seconds``; at least one of each kind and
        MIN_PASSES in all.  Returns the wall times by kind and the per-layer
        metrics of the traced passes."""
        walls: dict[bool, list[float]] = {k: [] for k in kinds}
        layer: list[dict] = []
        cycle: list[float] = []
        deadline = time.perf_counter() + seconds
        while True:
            traced = kinds[len(cycle) % len(kinds)]
            t0 = time.perf_counter()
            wall, metrics = self.run_pass(traced)
            cycle.append(time.perf_counter() - t0)
            walls[traced].append(wall)
            if metrics is not None:
                layer.append(metrics)
            done = len(cycle) >= MIN_PASSES and all(walls.values())
            if done and time.perf_counter() + statistics.median(cycle) > deadline:
                return walls, layer


def setup_seconds(args, work: Path) -> float:
    """Median wall time of fresh interpreters that import qpotlab and build the inputs."""
    times = []
    for i in range(SETUP_REPEATS):
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(args.seed),
               "--setup-only", str(work / f"setup-{i}")] + (["--smoke"] if args.smoke else [])
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def environment(args, runner: PassRunner) -> dict:
    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "workload": args.workload,
        "seed": args.seed,
        "passes": runner.attempted,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba_imports": has_numba,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def select(values: dict[str, float], names: list[str]) -> dict[str, float]:
    """The named metrics; a per-call fact of a target with no calls is 0."""
    out = {}
    for name in names:
        if name in values:
            out[name] = values[name]
        elif name.rsplit(".", 1)[0] in layers.TARGETS:
            out[name] = 0
        else:
            raise KeyError(f"the benchmark computes no metric named {name!r}")
    return out


def run_workload(args, bench: dict) -> tuple[dict[str, float], PassRunner]:
    work = ROOT / ".qbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        metrics: dict[str, float] = {}
        setup_s = setup_seconds(args, work) if args.trace in ("0", "both") else None
        workload = WORKLOADS[args.workload]
        # Warm-up: a reduced pass loads lazy modules and code paths untimed.
        with contextlib.redirect_stdout(io.StringIO()):
            workload.run(workload.setup(args.seed, work / "warm", True), work / "warm-out")
        runner = PassRunner(workload, workload.setup(args.seed, work / "inputs", args.smoke), work)
        if setup_s is not None:
            walls, _ = runner.loop(args.seconds, (False,))
            print("pass wall times (s): " + " ".join(f"{w:.4f}" for w in walls[False]))
            metrics |= {
                "wall_s": statistics.median(walls[False]),
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
        if args.trace in ("1", "both"):
            walls, passes = runner.loop(args.seconds, (False, True))
            # Counts repeat from pass to pass, so their median is the count.
            layer = {k: statistics.median(p.get(k, 0) for p in passes) for k in set().union(*passes)}
            layer["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
            metrics |= select(layer, [m["name"] for m in bench["per_layer"]])
        return metrics, runner
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only if no other run is using it


def report(metrics: dict[str, float], units: dict[str, str], correct: bool, attempted: int, failed: int) -> None:
    for name, value in metrics.items():
        print(f"  {name:<48} {value:.6g} {units[name.split('/')[-1]]}")
    print(f"  {'failed_frac':<48} {failed / attempted:.6g} ({failed} of {attempted} passes)")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name.split("/")[-1]]} for name, value in metrics.items()
        },
    }))


def run_all(args, names: list[str], units: dict[str, str]) -> int:
    """Each workload in its own process (so peak RSS is its own); metrics keyed workload/metric."""
    metrics, attempted, failed, correct = {}, 0, 0, True
    for name in names:
        cmd = [sys.executable, str(RUN), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"qbench: workload {name} printed no result", file=sys.stderr)
            return 1
        metrics |= {f"{name}/{k}": v["value"] for k, v in result["metrics"].items()}
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"]
    report(metrics, units, correct, attempted, failed)
    return 0 if correct else 1


def main(args, bench: dict, names: list[str]) -> int:
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    if args.workload == "all":
        return run_all(args, names, units)
    if args.setup_only:
        WORKLOADS[args.workload].setup(args.seed, Path(args.setup_only), args.smoke)
        return 0
    metrics, runner = run_workload(args, bench)
    print(f"qbench: {args.workload}, seed {args.seed}, {runner.attempted} passes, {runner.failed} failed")
    print("env " + json.dumps(environment(args, runner), sort_keys=True))
    if runner.absent:
        print("absent (reported with zero calls): " + ", ".join(sorted(runner.absent)))
    if runner.unmeasured:
        print("per-call facts lost (signature changed): " + ", ".join(sorted(runner.unmeasured)))
    correct = runner.failed == 0
    report(metrics, units, correct, runner.attempted, runner.failed)
    return 0 if correct else 1
