"""One benchmark set-up in a fresh interpreter, timed by its parent.

Usage: python3 perfbench/setup_probe.py <checkout> <workload> <seed> <config-dir>

Imports layoutfusion (and with it numpy) and writes the workload's
config files: everything a user's process does before its first
command. ``run.py`` starts one of these before every repetition (and
at least five per run) and reports the median wall time, from spawn to
exit, as ``setup_s``.
"""

import sys
from pathlib import Path

root, name, seed, cfg_dir = sys.argv[1:5]
sys.path.insert(0, str(Path(root) / "src"))

import layoutfusion.cli  # noqa: E402,F401  (pulls in numpy and every library module)
from workloads import WORKLOADS, write_configs  # noqa: E402

write_configs(WORKLOADS[name], int(seed), Path(cfg_dir))
