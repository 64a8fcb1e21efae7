"""Timed measurements: set-up probes and paused-and-resumed child processes.

Both interleave the timed process with slices of the host reference loop
(hostref), so the reported times can be rescaled to nominal host speed.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from hostref import HostRef

#: Set-up probes per run (after one warm-up probe that fills the page cache
#: and __pycache__); the median is reported.
SETUP_PROBES = 5

#: Run slice and reference slice while a child sweep is paused and resumed:
#: the reference samples a third of the time.
RUN_SLICE_S = 0.1
REF_SLICE_S = 0.05

_SETUP_SNIPPET = (
    "import sys, time\n"
    "import numpy, yaml\n"
    "import latdec\n"
    "latdec.load_experiment(sys.argv[1])\n"
    "print(time.monotonic())\n"
)


@dataclass
class ProcessRun:
    """One child process: its active wall time and its peak memory."""

    active_s: float     # wall time while not paused by the benchmark
    wall_s: float       # launch to exit, pauses included
    peak_rss_mb: float  # largest RSS of the process and its reaped children
    returncode: int
    pauses: list        # (stopped, resumed) time.monotonic() pairs

    def active_between(self, start: float, end: float) -> float:
        """Seconds of [start, end] (time.monotonic()) the child ran."""
        paused = sum(max(0.0, min(end, resumed) - max(start, stopped))
                     for stopped, resumed in self.pauses)
        return end - start - paused


def setup_times(config_path: Path, env: dict, ref: HostRef) -> list:
    """Seconds from launching a fresh interpreter to a validated
    SweepConfig, for SETUP_PROBES probes; each probe is followed by an
    equally long reference slice."""
    times = []
    for i in range(SETUP_PROBES + 1):
        t0 = time.monotonic()
        out = subprocess.run([sys.executable, "-c", _SETUP_SNIPPET,
                              str(config_path)],
                             env=env, capture_output=True, text=True,
                             check=True, timeout=60).stdout
        elapsed = float(out.strip().splitlines()[-1]) - t0
        if i:
            times.append(elapsed)
        ref.run_for(elapsed)
    return times


def run_paused(argv: list, env: dict, cwd: Path, log_path: Path,
               ref: HostRef | None) -> ProcessRun:
    """Run `argv` to exit.  With `ref`, stop the whole process group after
    every RUN_SLICE_S of run time and run a REF_SLICE_S reference slice
    meanwhile, so host-speed samples cover the same stretch of time as the
    run."""
    with open(log_path, "wb") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=log,
                                stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                active = 0.0
                resumed = t0
                pauses = []
                while True:
                    timeout = RUN_SLICE_S if ref is not None else None
                    ready, _, _ = select.select([pidfd], [], [], timeout)
                    stopped = time.monotonic()
                    active += stopped - resumed
                    if ready:
                        break
                    os.killpg(proc.pid, signal.SIGSTOP)
                    try:
                        ref.run_for(REF_SLICE_S)
                    finally:
                        os.killpg(proc.pid, signal.SIGCONT)
                    resumed = time.monotonic()
                    pauses.append((stopped, resumed))
            finally:
                os.close(pidfd)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if proc.returncode is None:
                _kill_group(proc)
    return ProcessRun(active_s=active, wall_s=time.monotonic() - t0,
                      peak_rss_mb=usage.ru_maxrss / 1024.0,
                      returncode=proc.returncode, pauses=pauses)


def _kill_group(proc: subprocess.Popen) -> None:
    for sig in (signal.SIGCONT, signal.SIGKILL):
        try:
            os.killpg(proc.pid, sig)
        except ProcessLookupError:
            break
    proc.wait()
