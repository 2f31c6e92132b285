#!/usr/bin/env python3
"""layoutfusion benchmark: CLI workloads timed end to end, plus a traced per-module split.

Run from the root of a layoutfusion checkout:

    python3 perfbench/run.py --workload corpus_dense --seed 0 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 55

One process runs one workload: a single client calls ``layoutfusion.cli.main``
in-process, one command after another, and repeats the workload's command
sequence (same seed, same inputs) after one untimed warm-up until
``--seconds`` would be exceeded, never fewer than twice. Times are
medians over the timed repetitions in which every command succeeded;
set-up time is the median of fresh-process probes run between the
repetitions. ``pipeline_norm_s`` divides the pipeline time by the time
of a fixed calibration kernel run before every command (both as
trimmed means), which cancels the drifting speed of a shared machine.
``--trace 1`` alternates traced and untraced repetitions; traced ones
record a span for every call into a library module (see tracing.py).
``--workload all`` runs every workload in its own fresh process and
prints every end-to-end metric with its unit.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the metrics
are BENCHMARK.json's ``end_to_end`` list, with ``--trace 1`` its
``per_layer`` list. Every other metric is printed above that line and
written, with the environment stamp, to ``.perfbench_work/results/``.
A single workload exits 0 whenever it prints that line, which says
whether every check passed; ``--workload all`` exits 1 when any
workload failed a check. Both exit 2, printing no result, when the
checkout holds no layoutfusion sources.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from harness import Runner
from workloads import REFERENCE_SEEDS, THEORY_GATE_INSTANCES, WORKLOADS, write_configs

HERE = Path(__file__).resolve().parent
WORK_DIR = ".perfbench_work"
SETUP_PROBES = 5  # per run at least; one runs before every repetition
# The calibration kernel's time on the reference machine in a fast
# phase; pipeline_norm_s = pipeline time * CALIBRATION_REF_S / kernel time.
CALIBRATION_REF_S = 0.020
TRIM = 0.1  # share cut from each end before averaging; see trimmed_mean
MIN_REPS = 2
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "pipeline_s": "s",
    "pipeline_norm_s": "s",
    "calibration_s": "s",
    "simulate_s": "s",
    "fuse_s": "s",
    "evaluate_s": "s",
    "heuristics_s": "s",
    "train_gate_s": "s",
    "gated_fuse_s": "s",
    "theory_s": "s",
    "pages_per_s": "pages/s",
    "gate_instances_per_s": "instances/s",
    "peak_rss_mb": "MB",
    "error_rate": "ratio",
}


def median(values):
    return statistics.median(values) if values else 0.0


def trimmed_mean(values):
    """Mean of the values left after cutting ``TRIM`` of them from each end.

    The host switches between a fast and a slow state every few seconds,
    so calibration passes fall into two clusters; their median jumps
    between the clusters when the run's slow share is near one half,
    while their mean follows that share smoothly. The cut drops the
    rare pass or repetition hit by a one-off stall."""
    ordered = sorted(values)
    k = int(len(ordered) * TRIM)
    return statistics.fmean(ordered[k:len(ordered) - k])


def nproc() -> int:
    """CPUs this process may run on, as ``nproc`` counts them."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------


def environment(root: Path, seed: int, blas_threads: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10)
        commit = git.stdout.strip() if git.returncode == 0 else "unavailable (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        commit = "unavailable (git not found)"
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "layoutfusion").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads_cap": blas_threads,
        "cpu_model": cpu,
        "nproc": nproc(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------


class SetupProbe:
    """Times fresh processes that import layoutfusion and write the configs."""

    def __init__(self, root: Path, name: str, seed: int, work: Path):
        self.argv = [sys.executable, str(HERE / "setup_probe.py"), str(root), name, str(seed)]
        self.work = work
        self.times: list[float] = []

    def __call__(self) -> None:
        started = time.perf_counter()
        proc = subprocess.run(
            self.argv + [str(self.work / f"probe{len(self.times)}")], capture_output=True, text=True, timeout=120,
        )
        self.times.append(time.perf_counter() - started)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")


def calibration_pass() -> float:
    """Wall time of one pass of a fixed kernel that touches nothing of
    layoutfusion: small dicts, float math, JSON and small numpy arrays,
    the kinds of work the pipeline does. The shared host this benchmark
    was built on changes speed from second to second and from hour to
    hour; the kernel slows with the pipeline, so dividing by its mean
    time cancels the change. The collector is off so that the
    program's heap size cannot change the kernel's time."""
    import numpy as np

    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        rows, acc = [], 0.0
        for i in range(20000):
            row = {"x1": i * 0.001, "y1": (i % 97) * 0.01, "w": 0.5, "h": 0.25}
            acc += math.sqrt(row["x1"] * row["w"] + row["y1"] * row["h"] + 1.0)
            if i % 10 == 0:
                rows.append(row)
        json.loads(json.dumps(rows))
        a = np.arange(64, dtype=float)
        for _ in range(2000):
            acc += float(np.maximum(a, 3.0).sum())
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def measure(runner: Runner, seconds: float, trace: bool, probe: SetupProbe, calibration: list[float]):
    """Closed-loop repetitions until the next one would overrun ``seconds``.

    An untimed warm-up repetition comes first, because a process's
    first repetition often reads up to 30% slow (cold caches, first
    allocations); process start-up is ``setup_s``'s to measure. The
    warm-up is checked and counted like any other repetition. With
    tracing, traced and untraced repetitions alternate, traced first.
    A set-up probe runs before every repetition and a calibration pass
    (appended to ``calibration``) before every command, so both sample
    the whole run rather than its first seconds; set-up probes run
    afterwards until there are ``SETUP_PROBES``. Returns the repetitions
    and, per traced one, its layer metrics; the tracer of the last
    traced repetition is returned for saving.
    """
    from tracing import Tracer

    def between():
        calibration.append(calibration_pass())

    warmup = runner.run()
    warmup.warmup = True
    deadline = time.perf_counter() + seconds
    reps, walls, layers = [], [], []
    last_tracer = None
    while True:
        traced = trace and sum(r.traced for r in reps) <= sum(not r.traced for r in reps)
        if len(reps) >= MIN_REPS:
            same = [w for r, w in zip(reps, walls) if r.traced == traced] or walls
            if time.perf_counter() + same[-1] > deadline:
                break
        probe()
        started = time.perf_counter()
        if traced:
            last_tracer = Tracer()
            last_tracer.install()
            try:
                rep = runner.run(last_tracer, between)
            finally:
                last_tracer.uninstall()
            calls, selfs = last_tracer.summary()
            layers.append(layer_metrics(calls, selfs, last_tracer.counters, list(rep.times), runner.workload.pages))
            layers[-1]["functions"] = {n: {"calls": calls[n], "self_s": selfs[n]} for n in sorted(calls)}
        else:
            rep = runner.run(between=between)
        walls.append(time.perf_counter() - started)
        reps.append(rep)
    while len(probe.times) < SETUP_PROBES:
        probe()
    return [warmup] + reps, layers, last_tracer


def layer_metrics(calls: dict, selfs: dict, counters, commands: list[str], pages: int) -> dict:
    """Per-layer metrics of one traced repetition (layer = module)."""
    from tracing import MODULES

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return selfs.get(name, 0.0)

    def module(values: dict, mod: str):
        return sum(v for k, v in values.items() if k.split(".", 1)[0] == mod)

    matches, teacher = counters["fusion.matches"], counters["fusion.teacher_boxes"]
    m = {
        "geometry.iou.calls": c("geometry.iou"),
        "geometry.iou.self_s": s("geometry.iou"),
        "geometry.boxes_built": c("geometry.BoundingBox"),
        "geometry.iou_calls_per_match": c("geometry.iou") / matches if matches else 0.0,
        "geometry.iou_calls_per_page": c("geometry.iou") / pages if pages else 0.0,
        "numerics.logit.calls": c("numerics.logit"),
        "numerics.sigmoid.calls": c("numerics.sigmoid"),
        "dataset_io.calls": module(calls, "dataset_io"),
        "dataset_io.load_dataset.self_s": s("dataset_io.load_dataset"),
        "dataset_io.save_dataset.self_s": s("dataset_io.save_dataset"),
        "dataset_io.pages_loaded": counters["dataset_io.pages_loaded"],
        "dataset_io.bytes_written": counters["dataset_io.bytes_written"],
        "taxonomy.lookups": module(calls, "taxonomy"),
        "fusion.refine_pseudo_labels.self_s": s("fusion.refine_pseudo_labels"),
        "fusion.match_regions.self_s": s("fusion.match_regions"),
        "fusion.match_regions.calls": c("fusion.match_regions"),
        "fusion.match_rate": matches / teacher if teacher else 0.0,
        "fusion.gate_samples_from_pages.self_s": s("fusion.gate_samples_from_pages"),
        "fusion.fit_temperature.self_s": s("fusion.fit_temperature"),
        "fusion.labels.fused": counters["fusion.labels.fused"],
        "fusion.labels.teacher": counters["fusion.labels.teacher"],
        "fusion.labels.llm_soft": counters["fusion.labels.llm_soft"],
        "gating.train_gate.calls": c("gating.train_gate"),
        "gating.train_gate.self_s": s("gating.train_gate"),
        "gating.samples_trained": counters["gating.samples_trained"],
        "gating.gate_forward.calls": c("gating.gate_forward"),
        "gating.gate_forward.self_s": s("gating.gate_forward"),
        "gating.gate_forward_batch.self_s": s("gating.gate_forward_batch"),
        "metrics.average_precision.self_s": s("metrics.average_precision"),
        "metrics.prediction_correctness.self_s": s("metrics.prediction_correctness"),
        "metrics.ece.self_s": s("metrics.ece"),
        "metrics.detections": counters["metrics.detections"],
        "simulator.simulate_dataset.self_s": s("simulator.simulate_dataset"),
        "simulator.sample_gate_instances.self_s": s("simulator.sample_gate_instances"),
        "simulator.instances_sampled": counters["simulator.instances_sampled"],
        "theory.run_sample_complexity_experiment.self_s": s("theory.run_sample_complexity_experiment"),
        "theory.cells": counters["theory.cells"],
        "heuristics.heuristic_regions.self_s": s("heuristics.heuristic_regions"),
        "heuristics.regions_emitted": counters["heuristics.regions_emitted"],
        "curriculum.threshold_table.calls": c("curriculum.threshold_table"),
        "trace.spans": sum(calls.values()),
    }
    for mod in MODULES:
        m[f"{mod}.self_s"] = module(selfs, mod)
    for key in commands:
        m[f"cli.{key}.self_s"] = s(f"cli.{key}")
    return m


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "dataset_io.bytes_written":
        return "bytes"
    if name in ("geometry.iou_calls_per_match", "geometry.iou_calls_per_page", "fusion.match_rate", "trace.overhead_ratio"):
        return "ratio"
    return "count"


def timed_reps(reps: list, traced: bool) -> list:
    """The repetitions whose times count: those in which every command
    succeeded. Only when none did are the failed ones timed, and the
    result says so; such times measure a truncated run."""
    same = [r for r in reps if r.traced == traced and not r.warmup]
    return [r for r in same if not r.failed] or same


def summarize(workload, reps, layers, setup_times, calibration, rss_mb) -> tuple[dict, dict, list[str]]:
    """End-to-end metrics, per-layer metrics, and every problem found."""
    timed = timed_reps(reps, traced=False)
    e2e = {"setup_s": median(setup_times), "pipeline_s": median([r.pipeline_s for r in timed])}
    e2e["calibration_s"] = trimmed_mean(calibration)
    pipeline = trimmed_mean([r.pipeline_s for r in timed])
    e2e["pipeline_norm_s"] = pipeline * CALIBRATION_REF_S / e2e["calibration_s"]
    for key in timed[0].times:
        e2e[f"{key}_s"] = median([r.times[key] for r in timed])
    if workload.pages:
        e2e["pages_per_s"] = workload.pages / e2e["pipeline_s"]
    if "theory_s" in e2e:
        e2e["gate_instances_per_s"] = THEORY_GATE_INSTANCES / e2e["theory_s"]
    e2e["peak_rss_mb"] = rss_mb
    attempted = sum(len(r.times) for r in reps)
    e2e["error_rate"] = sum(r.failed for r in reps) / attempted

    problems = [p for r in reps for ps in r.problems.values() for p in ps]
    per_layer: dict = {}
    if layers:
        counts = [
            {k: v for k, v in lm.items() if k != "functions" and layer_unit(k) in ("count", "bytes")}
            | {f"{n}.calls": f["calls"] for n, f in lm["functions"].items()}
            for lm in layers
        ]
        if any(c != counts[0] for c in counts[1:]):
            problems.append("trace: call counts differ between traced repetitions of the same seed")
        for name, (low, high) in workload.isolation.items():
            outside = sorted({lm[name] for lm in layers if not low <= lm[name] <= high})
            if outside:
                problems.append(f"trace: {name} = {outside}, outside the isolation range [{low}, {high}]")
        for name in layers[0]:
            if name == "functions":
                continue
            values = [lm[name] for lm in layers]
            per_layer[name] = values[0] if layer_unit(name) in ("count", "bytes") else median(values)
        traced = [r.pipeline_s for r in timed_reps(reps, traced=True)]
        per_layer["trace.overhead_ratio"] = median(traced) / e2e["pipeline_s"]
        per_layer["functions"] = layers[-1]["functions"]
    return e2e, per_layer, problems


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def load_reference(name: str, seed: int) -> tuple[dict | None, str]:
    """The recorded outputs for this seed, and a line saying what was recorded."""
    if seed not in REFERENCE_SEEDS:
        return None, "none for this seed (invariants and rerun identity only)"
    entry = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))["workloads"][name]
    failures = entry["failures"].get(str(seed))
    if failures:
        return entry["seeds"].get(str(seed)), f"recorded as failing ({'; '.join(failures)}); see README, known defect"
    return entry["seeds"][str(seed)], "recorded"


def run_one(root: Path, spec: dict, args, blas_threads: int) -> int:
    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = root / WORK_DIR / tag
    results = root / WORK_DIR / "results"
    shutil.rmtree(work, ignore_errors=True)
    results.mkdir(parents=True, exist_ok=True)
    probe = SetupProbe(root, workload.name, args.seed, work)
    try:
        probe()
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(root / "src"))
    from layoutfusion import cli

    cfg_dir = work / "config"
    write_configs(workload, args.seed, cfg_dir)
    reference, reference_note = load_reference(workload.name, args.seed)
    runner = Runner(workload, args.seed, work / "reps", cfg_dir, cli.main, reference)
    calibration: list[float] = []
    reps, layers, tracer = measure(runner, args.seconds, bool(args.trace), probe, calibration)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e, per_layer, problems = summarize(workload, reps, layers, probe.times, calibration, rss_mb)
    clean = any(not r.failed for r in reps if not (r.traced or r.warmup))
    attempted = sum(len(r.times) for r in reps)
    failed = sum(r.failed for r in reps)
    correct = not problems
    env = environment(root, args.seed, blas_threads)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = per_layer if args.trace else e2e
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in wanted}

    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "load": "closed loop, 1 client, commands run back to back in one process",
        "repetitions": {
            "warmup": 1,
            "untraced": sum(not (r.traced or r.warmup) for r in reps),
            "traced": sum(r.traced for r in reps),
        },
        "times_from": "repetitions without a failed command" if clean
        else "failed repetitions, as none succeeded: a truncated run, not comparable with a correct one",
        "repetition_times": [
            {"warmup": r.warmup, "traced": r.traced, "failed": r.failed, "pipeline_s": r.pipeline_s, **r.times}
            for r in reps
        ],
        "setup_times": probe.times,
        "calibration_times": calibration,
        "reference": reference_note,
        "environment": env, "end_to_end": e2e, "per_layer": per_layer,
        "correct": correct, "attempted": attempted, "failed": failed, "problems": problems,
    }
    (results / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.save(results / f"{workload.name}-spans.npz")
    shutil.rmtree(work, ignore_errors=True)

    print("env " + json.dumps(env, sort_keys=True))
    print(
        f"workload {workload.name} seed {args.seed}: {record['repetitions']['untraced']} untraced and "
        f"{record['repetitions']['traced']} traced repetitions after one warm-up; reference {record['reference']}"
    )
    print(f"times from {record['times_from']}; set-up probes: {len(probe.times)}")
    for name, value in e2e.items():
        print(f"  {name:<24} {value:>14.6g} {END_TO_END_UNITS[name]}")
    for name, value in per_layer.items():
        if name != "functions":
            print(f"  {name:<48} {value:>14.6g} {layer_unit(name)}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(f"checks: {'all passed' if correct else f'{len(problems)} failed'}; {failed} of {attempted} commands failed")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(root: Path, args) -> int:
    """Every workload in a fresh process; one table of every end-to-end metric."""
    status = 0
    table = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        print(proc.stdout, end="")
        print(proc.stderr, end="", file=sys.stderr)
        result = root / WORK_DIR / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        if proc.returncode != 0 or not result.is_file():
            status = 1
            continue
        record = json.loads(result.read_text(encoding="utf-8"))
        table[name] = record["end_to_end"]
        if not record["correct"]:
            status = 1
    print(f"\n{'metric':<22} {'unit':<12}" + "".join(f"{name:>16}" for name in WORKLOADS))
    for metric, unit in END_TO_END_UNITS.items():
        cells = "".join(
            f"{table[n][metric]:>16.6g}" if metric in table.get(n, {}) else f"{'-':>16}" for n in WORKLOADS
        )
        print(f"{metric:<22} {unit:<12}{cells}")
    print("all workloads passed their checks" if status == 0 else "some workload FAILED; see above")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "layoutfusion" / "__init__.py").is_file():
        print("error: src/layoutfusion not found; run from the root of a layoutfusion checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    blas_threads = nproc()
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(blas_threads)
    if args.workload == "all":
        return run_all(root, args)
    return run_one(root, spec, args, blas_threads)


if __name__ == "__main__":
    sys.exit(main())
