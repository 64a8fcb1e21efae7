"""Timed in-process sweep, run by the benchmark as a child process.

    python3 perfbench/sweep_child.py EXPERIMENT SECONDS OUT_JSON OUT_CSV

Runs whole `latdec.run_sweep` rounds of the experiment until SECONDS of
wall time have passed (at least one round) and records when each round
started and ended (time.monotonic()); the benchmark pauses this process
for its host-reference slices and takes those pauses out of each round.
The first round's records are written with the CLI's own CSV writer, for
comparison with `latdec sweep --workers 2`.  A child process keeps the
benchmark's own memory out of the peak-RSS figure.
"""

from __future__ import annotations

import json
import sys
import time

import latdec
from latdec.cli import record_to_dict, write_results_csv


def main(config_path: str, seconds: float, out_json: str, out_csv: str) -> None:
    config = latdec.load_experiment(config_path)
    rounds = []
    spans = []
    deadline = time.monotonic() + seconds
    while True:
        start = time.monotonic()
        result = latdec.run_sweep(config)
        end = time.monotonic()
        spans.append((start, end))
        if not rounds:
            write_results_csv(out_csv, result.records)
        rounds.append([record_to_dict(rec) for rec in result.records])
        if end >= deadline:
            break
    with open(out_json, "w", encoding="utf-8") as fh:
        json.dump({"rounds": rounds, "spans": spans}, fh)


if __name__ == "__main__":
    main(sys.argv[1], float(sys.argv[2]), sys.argv[3], sys.argv[4])
