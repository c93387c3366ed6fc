"""Timed and traced runs of one workload, and the metrics they report.

A timed run (tracing off) gives the end-to-end metrics: throughput, median
and tail latency of one operation, peak memory, and set-up time.  A traced
run gives the per-layer metrics: it runs a fixed number of operations once
without and once with spans, so its counts repeat exactly for one seed and
the ratio of the two passes is the tracing overhead.
"""

from __future__ import annotations

import importlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from types import SimpleNamespace

import numpy as np

from spans import LAYERS, Tracer
from speed import SpeedGauge
from workloads import WORKLOADS

# Set-up is measured in this many fresh processes and the median reported,
# each process bracketed by this many reference slices on either side.
SETUP_REPEATS = 9
SETUP_SLICES = 5
# A timed run stops here even if its tail percentile still lacks samples,
# so that the whole run ends well within three minutes.
MAX_SECONDS = 120.0
# Per-layer metrics a workload does not exercise read zero.
ZERO_SUFFIXES = (".calls", ".errors", ".nfev", "_us", "_ms", ".ms")
SHOWN_PROBLEMS = 5
# Reference slices taken before and after the timed loop, so that the first
# and last operations have slices on both sides.
SLICES_AT_ENDS = 4


def min_samples(pct: float) -> int:
    """Fewest samples that leave at least ten beyond the pct-th percentile."""
    return math.ceil(1000.0 / (100.0 - pct) - 1e-9)


def percentile(samples, pct: float) -> float:
    """The pct-th percentile, refused unless at least ten samples lie beyond it."""
    if len(samples) < min_samples(pct):
        raise ValueError(
            f"p{pct:g} of {len(samples)} samples has fewer than ten beyond it"
        )
    return float(np.percentile(samples, pct))


def load_program(root: str) -> SimpleNamespace:
    """Import the program from ``root/src``, never from anywhere else."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import ybe4

    where = os.path.dirname(os.path.abspath(ybe4.__file__))
    if where != os.path.join(src, "ybe4"):
        raise ImportError(f"ybe4 was imported from {where}, not from {src}")
    modules = {layer: importlib.import_module(f"ybe4.{layer}") for layer in LAYERS}
    return SimpleNamespace(src=src, **modules)


def declared_metrics(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def environment(root: str) -> dict:
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=root, capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except OSError:
            pass
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        **versions,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads_env": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
    }


class Tally:
    """Attempted and failed operations, with the first few problems shown."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, name: str, i: int, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.failed <= SHOWN_PROBLEMS:
                print(f"{name} op {i}: " + "; ".join(problems), file=sys.stderr)


def attempt(w, i: int, tally: Tally, tracer: Tracer | None = None):
    """Run and check operation i; returns (seconds, units) or None on failure.

    An exception from the program or from the check counts as a failed
    operation, as does a check that finds a problem.
    """
    try:
        if tracer is None:
            t0 = time.perf_counter()
            out = w.run_op(i)
            elapsed = time.perf_counter() - t0
        else:
            tracer.active = True
            index = tracer.open(f"bench.{w.name}.{w.label(i)}")
            t0 = time.perf_counter()
            try:
                out = w.run_op(i)
            finally:
                elapsed = time.perf_counter() - t0
                tracer.close(index)
                tracer.active = False
        problems = w.check(i, out)
        units = w.units(out)
    except Exception:
        tally.record(w.name, i, [traceback.format_exc(limit=4)])
        return None
    tally.record(w.name, i, problems)
    return None if problems else (elapsed, units)


def timed_run(w, seconds: float, tally: Tally) -> dict:
    """Closed loop for ``seconds``, extended until the tail percentile has support.

    Each operation's time is scaled to the reference host speed measured
    around it (see speed.py); the unscaled figures are kept under ``raw_*``.
    """
    need = min_samples(w.tail_pct)
    done: list[tuple[float, float]] = []  # (end time, seconds) per operation
    units = 0
    gauge = SpeedGauge()
    gauge.measure(SLICES_AT_ENDS)
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= MAX_SECONDS or (elapsed >= seconds and len(done) >= need):
            break
        i += 1
        got = attempt(w, i, tally)
        if got is not None:
            done.append((time.perf_counter(), got[0]))
            units += got[1]
        gauge.tick()
    gauge.measure(SLICES_AT_ENDS)
    tail_pct = w.tail_pct if len(done) >= need else 50.0
    raw = [seconds for _, seconds in done]
    scaled = [seconds / gauge.slowdown_at(end) for end, seconds in done]
    values = {"samples": len(done), "tail_pct": tail_pct}
    for prefix, latencies in (("raw_", raw), ("", scaled)):
        values[f"{prefix}ops_per_s"] = units / sum(latencies)
        values[f"{prefix}op_p50_ms"] = 1e3 * percentile(latencies, 50.0)
        values[f"{prefix}op_tail_ms"] = 1e3 * percentile(latencies, tail_pct)
    values["slowdown"] = gauge.slowdown()
    return values


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def setup_seconds(root: str, workload: str, seed: int) -> tuple[float, float]:
    """Median time from process start to the end of the warm-up operation,
    scaled to the reference host speed and unscaled.

    Each process's time is divided by the slowdown of the reference slices
    taken just before and just after it (see speed.py)."""
    command = [
        sys.executable, os.path.join(root, "perfbench", "run.py"),
        "--workload", workload, "--seed", str(seed), "--setup-only",
    ]
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        gauge = SpeedGauge()
        gauge.measure(SETUP_SLICES)
        t0 = time.perf_counter()
        with subprocess.Popen(command, cwd=root, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            t1 = time.perf_counter()
            child.stdout.read()
            code = child.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up of {workload} failed (exit {code})")
        gauge.measure(SETUP_SLICES)
        raw.append(t1 - t0)
        scaled.append((t1 - t0) / gauge.slowdown())
    return statistics.median(scaled), statistics.median(raw)


def traced_run(w, tally: Tally) -> dict[str, float]:
    """Operations 1..trace_ops without spans, then again with spans."""
    ops = range(1, w.trace_ops + 1)
    plain = [attempt(w, i, tally) for i in ops]
    with Tracer() as tracer:
        traced = [attempt(w, i, tally, tracer) for i in ops]
    plain_s = sum(got[0] for got in plain if got is not None)
    traced_s = sum(got[0] for got in traced if got is not None)
    overhead = traced_s / plain_s - 1.0 if plain_s > 0 else 0.0
    return layer_values(w, tracer, overhead)


def layer_values(w, tracer: Tracer, overhead: float) -> dict[str, float]:
    summary = tracer.summary()
    values: dict[str, float] = {"trace_overhead_frac": overhead}
    op_ms = {}
    for name, row in summary.items():
        if name.startswith("bench."):
            op_ms[name.rsplit(".", 1)[1]] = row["total_ns"] / row["calls"] / 1e6
            continue
        values[f"{name}.calls"] = row["calls"]
        values[f"{name}.self_us"] = row["self_ns"] / 1e3
        values[f"{name}.self_ms"] = row["self_ns"] / 1e6
        values[f"{name}.errors"] = tracer.errors.get(name, 0)
        for parent, ns in row["self_ns_by_parent"].items():
            if parent.startswith("bench."):
                values[f"{name}.{parent.rsplit('.', 1)[1]}.self_ms"] = ns / 1e6
    values.update(tracer.counters)

    def calls(name: str) -> int:
        return summary.get(name, {}).get("calls", 0)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    values["matrixio.bytes_written"] = tracer.counters.get(
        "matrixio.write_matrix_file.bytes_written", 0
    )
    values["classify.certified_ratio"] = ratio(
        tracer.counters.get("classify.classify.certified", 0), calls("classify.classify")
    )
    values["families.redraw_ratio"] = ratio(
        tracer.errors.get("families.eigenvalue_filter", 0),
        calls("families.eigenvalue_filter"),
    )
    values.update(w.layer_metrics(op_ms))
    return values


def pick(values: dict, declared: dict[str, str], zero_suffixes=()) -> dict:
    out = {}
    for name, unit in declared.items():
        if name in values:
            value = values[name]
        elif name.endswith(zero_suffixes):
            value = 0
        else:
            raise KeyError(f"no value for declared metric {name}")
        out[name] = {"value": value, "unit": unit}
    return out


def run(root: str, program, workload: str, seed: int, seconds: float, trace: bool,
        setup_only: bool = False) -> int:
    w_cls = WORKLOADS[workload]
    declared = declared_metrics(root)
    tally = Tally()
    work_root = os.path.join(root, ".perfbench")
    os.makedirs(work_root, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{workload}-", dir=work_root) as workdir:
        w = w_cls(program, seed, workdir)
        w.setup()
        attempt(w, 0, tally)
        if setup_only:
            print("ready", flush=True)
            return 0
        if trace:
            values = traced_run(w, tally)
            metrics = pick(values, declared["per_layer"], ZERO_SUFFIXES)
        else:
            values = timed_run(w, seconds, tally)
            values["peak_rss_mb"] = peak_rss_mb()
    details = {"environment": environment(root)}
    if not trace:
        values["setup_s"], values["raw_setup_s"] = setup_seconds(root, workload, seed)
        metrics = pick(values, declared["end_to_end"])
        report_human(w, values, tally, declared["end_to_end"])
        # The result line holds only the declared metrics, so the figures
        # before scaling to the reference speed, and the scale, go here.
        details["unscaled"] = {
            name: {"value": values[f"raw_{name}"], "unit": unit}
            for name, unit in declared["end_to_end"].items()
            if f"raw_{name}" in values
        }
        details["host_slowdown"] = values["slowdown"]
    print(json.dumps(details))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


def report_human(w, values: dict, tally: Tally, units: dict[str, str]) -> None:
    """Each end-to-end metric by name and unit, with the workload's own name
    for it and, for times, the figure before scaling to the reference speed."""
    for name, unit in units.items():
        alias = w.aliases.get(name)
        shown = f"{name} ({alias})" if alias else name
        raw = values.get(f"raw_{name}")
        unscaled = "" if raw is None else f" (unscaled {raw:.6g})"
        print(f"{w.name}: {shown} = {values[name]:.6g} {unit}{unscaled}", file=sys.stderr)
    print(
        f"{w.name}: latency from {values['samples']} operations, tail is "
        f"p{values['tail_pct']:g}; fail_frac = {tally.failed}/{tally.attempted}; "
        f"host slowdown {values['slowdown']:.4f}",
        file=sys.stderr,
    )
