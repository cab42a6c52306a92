#!/usr/bin/env python3
"""Flywheel benchmark: one facil CLI workload per run, end to end or per layer.

Run from the repository root:

    python3 bench/run.py --workload run_weak --seed 7 --seconds 30 --trace 0

Workloads (bench/spec.json): run_weak, expand_ratio, compare_dense.  Each
is one in-process call to ``facil.cli.main`` with ``--threads 1`` on a
config generated from the workload's template and ``--seed``; facil is
imported from ``src/`` of this checkout.

``--trace 0`` reports the end-to-end metrics: ``wall_s``, the median time of
one call with tracing off; ``setup_s``, the median over fresh processes of
importing facil and building the config; ``peak_rss_mb``, the peak memory of
a fresh process that also runs the workload once.  ``--trace 1`` alternates
untraced and traced calls and reports per-layer times and counts from the
spans of bench/tracer.py, with the tracing overhead.

The host this runs on may be shared: its speed swings by tens of percent
for seconds at a time.  So a fixed reference kernel is timed right before
every call and every fresh process, and that time is scaled to the kernel's
nominal speed: scaled = measured * REFERENCE_S / kernel.  Medians are taken
over the scaled times; the unscaled medians are printed beside them.

Every call's output tree is hashed.  At the default seed the exit code and
sha256 must equal the values pinned in spec.json; at any other seed every
call must reproduce the first call's.  A mismatch counts as failed.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
Scratch files go to .bench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import copy
import gc
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median

import numpy as np
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPEC = json.loads((BENCH / "spec.json").read_text(encoding="utf-8"))

SETUP_PROCESSES = 7
CHILD_TIMEOUT_S = 120
REFERENCE_S = 0.05  # reference_kernel() time at the nominal machine speed


def reference_kernel() -> float:
    """Time fixed interpreter-bound work, dict updates and small numpy calls."""
    start = time.perf_counter()
    counts: dict[tuple, int] = {}
    for i in range(100_000):
        key = (i % 10, i // 10 % 10, i % 7)
        counts[key] = counts.get(key, 0) + 1
    values = np.zeros(8)
    for _ in range(5_000):
        values = np.minimum(values + 1.0, 5.0)
    return time.perf_counter() - start


def speed_scale() -> float:
    """Factor that takes a time measured right after this call to nominal speed.

    A slow spell of a shared host lasts about a second, so the kernel timed
    just before a call predicts that call's slowdown far better than kernels
    timed earlier or averaged over the run.
    """
    return REFERENCE_S / reference_kernel()


def grid_dims(prefix: str, sizes: list[int]) -> list:
    return [[f"{prefix}{m}", [f"l{j}" for j in range(size)]] for m, size in enumerate(sizes)]


def make_config(workload: str, seed: int, out: Path) -> dict:
    """The workload's facil config for this seed, writing outputs to out."""
    doc = copy.deepcopy(SPEC["workloads"][workload]["config"])
    if "space" in doc:
        doc["space"] = grid_dims("d", doc["space"])
    if "stages" in doc:
        doc["stages"] = [grid_dims(f"s{i}d", sizes) for i, sizes in enumerate(doc["stages"], 1)]
    doc["seed"] = seed
    doc["out"] = str(out)
    return doc


def tree_sha256(out: Path) -> str:
    """sha256 over every file of an output tree: relative path, size, bytes."""
    digest = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        digest.update(f"{path.relative_to(out).as_posix()}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


class OutputCheck:
    """Compares each call's exit code and output hash with the expected ones.

    Without a pinned sha256, the first call's hash becomes the reference.
    """

    def __init__(self, exit_code: int, sha256: str | None) -> None:
        self.exit_code = exit_code
        self.sha256 = sha256
        self.attempted = 0
        self.failed = 0

    def __call__(self, code: int, out: Path) -> None:
        digest = tree_sha256(out)
        if self.sha256 is None:
            self.sha256 = digest
        self.attempted += 1
        if code != self.exit_code or digest != self.sha256:
            self.failed += 1
            print(f"MISMATCH: exit {code} sha256 {digest}", flush=True)


def exit_code(main, argv):
    """facil.cli.main's exit code; a raised exception is reported and gives None."""
    try:
        return main(argv)
    except Exception:
        traceback.print_exc()
        return None


def src_lines() -> int:
    return sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in (SRC / "facil").rglob("*.py")
    )


def unit_of(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("mark_yield"):
        return "ratio"
    if name.endswith("src_lines"):
        return "lines"
    return "count"


class Workload:
    """One workload at one seed: its generated config, output check and calls."""

    def __init__(self, name: str, seed: int, main) -> None:
        self.main = main
        spec = SPEC["workloads"][name]
        pinned = spec["pinned"]
        self.pinned = pinned if seed == SPEC["default_seed"] else None
        self.work = WORK / f"{name}-seed{seed}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.out = self.work / "out"
        self.config = self.work / "config.json"
        doc = make_config(name, seed, self.out)
        self.config.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        self.argv = [spec["command"], "--config", str(self.config), "--threads", "1"]
        self.check = OutputCheck(pinned["exit_code"], self.pinned and pinned["sha256"])
        self.scales: list[float] = []

    def call(self, tracer=None):
        """One facil.cli.main call on an emptied output directory, then checked.

        Returns the call's unscaled time, its speed scale and, when traced,
        its scaled per-layer metrics and per-stage counts.
        """
        shutil.rmtree(self.out, ignore_errors=True)
        gc.collect()
        scale = speed_scale()
        self.scales.append(scale)
        if tracer is None:
            start = time.perf_counter()
            code = exit_code(self.main, self.argv)
            elapsed, layers = time.perf_counter() - start, None
        else:
            code, metrics, stages = tracer.call(exit_code, self.main, self.argv)
            elapsed = metrics["trace.wall_s"]
            metrics = {k: scale * v if unit_of(k) == "s" else v for k, v in metrics.items()}
            layers = (metrics, stages)
        self.check(code, self.out)
        return elapsed, scale, layers

    def fresh_processes(self):
        """Scaled set-up times of fresh processes; the last one also runs the
        workload and gives the peak memory."""
        env = {k: v for k, v in os.environ.items() if k != "FACIL_OUT"}
        setup, peak_rss_mb = [], None
        for i in range(SETUP_PROCESSES):
            last = i == SETUP_PROCESSES - 1
            cmd = [sys.executable, str(BENCH / "fresh.py"), str(SRC), str(self.config)]
            if last:
                shutil.rmtree(self.out, ignore_errors=True)
                cmd += self.argv
            scale = speed_scale()
            self.scales.append(scale)
            proc = subprocess.run(
                cmd, capture_output=True, text=True, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S
            )
            if proc.returncode != 0:
                raise RuntimeError(f"fresh process failed:\n{proc.stderr}")
            probe = json.loads(proc.stdout.splitlines()[-1])
            setup.append((probe["setup_s"], scale))
            if last:
                self.check(probe["exit_code"], self.out)
                peak_rss_mb = probe["peak_rss_mb"]
        return setup, peak_rss_mb


def scaled_median(samples: list[tuple[float, float]]) -> float:
    return median(elapsed * scale for elapsed, scale in samples)


def end_to_end(workload: Workload, seconds: float) -> dict:
    setup, peak_rss_mb = workload.fresh_processes()
    samples = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        samples.append(workload.call()[:2])
    raw = [elapsed for elapsed, _ in samples]
    print(
        f"call: median {median(raw):.4f} s unscaled over {len(raw)} calls, min {min(raw):.4f} s,"
        f" max {max(raw):.4f} s (no high percentile: fewer than ten calls would lie beyond p90)"
    )
    print(f"set-up: unscaled {[round(elapsed, 4) for elapsed, _ in setup]} s")
    print(f"code.src_lines {src_lines()}")
    return {
        "wall_s": scaled_median(samples),
        "setup_s": scaled_median(setup),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(workload: Workload, seconds: float) -> dict:
    """Alternate untraced and traced calls; per-layer metrics of the traced ones."""
    tracer = Tracer()
    plain, traced, layers = [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        for t in (None, tracer) if len(plain) % 2 == 0 else (tracer, None):
            elapsed, scale, result = workload.call(t)
            (plain if t is None else traced).append((elapsed, scale))
            if result is not None:
                layers.append(result)
    trace_path = workload.work / "trace.jsonl"
    tracer.write_jsonl(trace_path)
    # Times are medians over the traced calls; counts repeat exactly, so the
    # last call's are reported.
    last, stages = layers[-1]
    metrics = {
        name: median(m[name] for m, _ in layers) if unit_of(name) == "s" else value
        for name, value in last.items()
    }
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - scaled_median(plain)
    metrics["code.src_lines"] = src_lines()
    for label, calls in (("untraced", plain), ("traced", traced)):
        raw = median(elapsed for elapsed, _ in calls)
        print(f"{label} call: median {raw:.4f} s unscaled over {len(calls)} calls")
    print("scaled time and share of the traced call:")
    for name, value in sorted(metrics.items()):
        if name.endswith("self_s") or name.endswith(".s"):
            print(f"  {name:36s} {value:9.4f} s  {value / metrics['trace.wall_s']:6.1%}")
    counts = {"stages": stages, "evaluate_rollouts": metrics["oracle.evaluate.rollouts"]}
    print(f"counts: {json.dumps(counts)}")
    if workload.pinned:
        same = all(workload.pinned[k] == v for k, v in counts.items())
        print("counts match the pinned counts" if same else "counts DIFFER from the pinned counts")
    print(f"spans written to {trace_path.relative_to(ROOT)}")
    return metrics


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    os.environ.pop("FACIL_OUT", None)
    sys.path.insert(0, str(SRC))
    import facil.cli

    if Path(facil.cli.__file__).resolve().parent != SRC / "facil":
        raise RuntimeError(f"imported facil from {facil.cli.__file__}, not from {SRC}")
    workload = Workload(name, seed, facil.cli.main)
    metrics = per_layer(workload, seconds) if trace else end_to_end(workload, seconds)
    print(
        f"speed scale: median {median(workload.scales):.4f} over {len(workload.scales)} "
        f"reference kernels (nominal {REFERENCE_S} s)"
    )
    shutil.rmtree(workload.out, ignore_errors=True)
    check = workload.check
    print(
        f"output check: {check.attempted - check.failed}/{check.attempted} calls gave exit "
        f"{check.exit_code} and output sha256 {check.sha256}"
    )
    return {
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": v, "unit": unit_of(name)} for name, v in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, default=SPEC["default_seed"])
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "facil" / "__init__.py").is_file():
        print(f"error: no facil sources under {SRC}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        print("error: --seed must be an unsigned 64-bit integer", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
