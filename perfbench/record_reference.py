"""Record the reference outputs that run.py checks every repetition against.

Usage, from the root of a layoutfusion checkout:

    python3 perfbench/record_reference.py

Runs every workload once per reference seed (0-63), untimed, and writes
the values read back from every command that succeeded (counts,
provenance histograms, AP, fitted temperature, the gate's best epoch,
theory k and slope) to a fresh ``perfbench/reference.json``. A command
that fails is listed under ``failures`` instead: a failure is a defect
to fix, never a reference. Re-record only when a change is meant to
alter these outputs, and say so in that change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

from harness import Runner
from run import BLAS_THREAD_VARS, HERE, WORK_DIR, environment, nproc
from workloads import (
    AP_ABS_TOL, K_REL_TOL, REFERENCE_SEEDS, SLOPE_ABS_TOL, TEMPERATURE_ABS_TOL, WORKLOADS,
    write_configs,
)


def main() -> int:
    root = Path.cwd()
    blas_threads = nproc()
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(blas_threads)
    sys.path.insert(0, str(root / "src"))
    from layoutfusion import cli

    doc = {
        "seeds": f"{REFERENCE_SEEDS[0]}-{REFERENCE_SEEDS[-1]}",
        "environment": environment(root, None, blas_threads),
        "tolerances": {
            "ap, ap50, ap75 (absolute)": AP_ABS_TOL,
            "temperature (absolute)": TEMPERATURE_ABS_TOL,
            "slope (absolute)": SLOPE_ABS_TOL,
            "k (relative)": K_REL_TOL,
            "counts, histograms, best_epoch": "exact",
        },
        "workloads": {},
    }
    tmp = root / WORK_DIR / "record"
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        for workload in WORKLOADS.values():
            entry = doc["workloads"][workload.name] = {"seeds": {}, "failures": {}}
            for seed in REFERENCE_SEEDS:
                cfg_dir = tmp / "config"
                write_configs(workload, seed, cfg_dir)
                rep = Runner(workload, seed, tmp / "reps", cfg_dir, cli.main, None).run()
                values = {k: v for k, v in rep.values.items() if not rep.problems.get(k)}
                if values:
                    entry["seeds"][str(seed)] = values
                problems = [p for ps in rep.problems.values() for p in ps]
                if problems:
                    entry["failures"][str(seed)] = problems
                print(f"{workload.name} seed {seed}: {'; '.join(problems) or 'ok'}", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
