"""One repetition of a workload: run its CLI commands in-process, then check them.

The load is a closed loop with a single client: each command starts
only after the previous one has returned. Only the commands are timed;
reading their outputs back, comparing them with the reference and
hashing data files all happen afterwards.
"""

from __future__ import annotations

import contextlib
import gc
import io
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from workloads import Workload, check_command, compare_to_reference, data_file_digests


@dataclass
class Rep:
    traced: bool
    times: dict[str, float]
    pipeline_s: float
    values: dict[str, dict] = field(default_factory=dict)
    problems: dict[str, list[str]] = field(default_factory=dict)
    warmup: bool = False  # checked and counted, never timed

    @property
    def failed(self) -> int:
        return sum(1 for p in self.problems.values() if p)


def invoke(main, argv: list[str], tracer=None, span: str = "") -> tuple[int | None, str, str]:
    """Exit status (None on an uncaught exception), stdout, and stderr
    or the traceback of one ``layoutfusion`` CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = tracer.span(span, main, argv) if tracer is not None else main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crashing command is recorded as failed; the loop carries on
            return None, out.getvalue(), traceback.format_exc()
    return code, out.getvalue(), err.getvalue()


class Runner:
    """Runs repetitions of one workload for one seed and checks each."""

    def __init__(self, workload: Workload, seed: int, work: Path, cfg_dir: Path, main, reference: dict | None):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.cfg_dir = cfg_dir
        self.main = main
        self.reference = reference
        self.config = next(iter(workload.configs(seed).values()))
        self.first_digests: dict[str, str] | None = None
        self._count = 0

    def run(self, tracer=None, between=None) -> Rep:
        """One repetition. ``between``, if given, is called before every
        command, outside the timed region; ``pipeline_s`` is the sum of the
        command times."""
        rep_dir = self.work / f"rep{self._count}"
        self._count += 1
        commands = self.workload.commands(self.seed, self.cfg_dir, rep_dir)
        gc.collect()
        outcomes = []
        times = {}
        for command in commands:
            if between is not None:
                between()
            t0 = time.perf_counter()
            outcome = invoke(self.main, list(command.argv), tracer, f"cli.{command.key}")
            times[command.key] = time.perf_counter() - t0
            outcomes.append(outcome)
        rep = Rep(tracer is not None, times, sum(times.values()))
        for command, (code, stdout, stderr) in zip(commands, outcomes):
            if code != 0:
                detail = stderr.strip().splitlines()[-1] if stderr.strip() else "no message"
                rep.problems[command.key] = [f"{command.key} exited {code}: {detail}"]
                continue
            values, problems = check_command(command, rep_dir, stdout, self.config)
            reference = (self.reference or {}).get(command.key)
            if reference is not None and values:
                problems += compare_to_reference(command.key, values, reference)
            rep.values[command.key] = values
            rep.problems[command.key] = problems
        self._check_rerun_identity(commands, rep, rep_dir)
        shutil.rmtree(rep_dir, ignore_errors=True)
        return rep

    def _check_rerun_identity(self, commands, rep: Rep, rep_dir: Path) -> None:
        """Same seed, same bytes: every data file must match the first
        repetition's (manifests carry timestamps and are exempt)."""
        digests = data_file_digests(rep_dir)
        if self.first_digests is None:
            self.first_digests = digests
            return
        for command in commands:
            prefix = command.out_dir + "/"
            mine = {k: v for k, v in digests.items() if k.startswith(prefix)}
            first = {k: v for k, v in self.first_digests.items() if k.startswith(prefix)}
            if mine != first:
                differing = sorted(k for k in mine.keys() | first.keys() if mine.get(k) != first.get(k))
                rep.problems.setdefault(command.key, []).append(
                    f"{command.key}: data files differ from the first same-seed run: {differing}"
                )
