"""Sweep benchmark of latdec.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; latdec is imported from the
checkout's ./src.  Writes its files under ./.perfbench_out and prints
provenance lines, then, as the last line, one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer
ones.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import sys
import time
from pathlib import Path

# One BLAS/OpenMP thread everywhere: set before numpy is first imported,
# and inherited by every child process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import measure  # noqa: E402  (after the thread pinning above)
from hostref import HostRef  # noqa: E402
from workloads import WORKLOADS, write_config  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

#: Worker processes of every CLI sweep (nproc of the reference host).
CLI_WORKERS = 2


def _provenance() -> dict:
    import numpy
    sha = "unavailable: the checkout is not a git repository"
    if (ROOT / ".git").exists():
        import subprocess
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True).stdout.strip()
    return {"git_sha": sha, "python": sys.version.split()[0],
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "loadavg": os.getloadavg()}


def _cli_sweep(config_path: Path, out_dir: Path, tag: str, env: dict,
               timed: bool) -> dict:
    """One `latdec sweep --workers 2`: its results.csv and slopes and, when
    `timed`, its paused-and-resumed time at nominal host speed and its
    peak RSS."""
    ref = HostRef() if timed else None
    run_dir = out_dir / tag
    run = measure.run_paused(
        [sys.executable, "-m", "latdec.cli", "sweep", str(config_path),
         "--workers", str(CLI_WORKERS), "--out", str(run_dir)],
        env, ROOT, out_dir / f"{tag}.log", ref)
    if run.returncode != 0:
        raise RuntimeError(f"latdec sweep exited {run.returncode}; "
                           f"see {out_dir / (tag + '.log')}")
    out = {"csv": (run_dir / "results.csv").read_text(encoding="utf-8"),
           "slopes": json.loads((run_dir / "slopes.json").read_text())["slopes"],
           "raw_active_s": run.active_s, "wall_s": run.wall_s,
           "peak_rss_mb": run.peak_rss_mb}
    if timed:
        out["host_speed"] = ref.speed()
        out["seconds"] = run.active_s * ref.speed()
    return out


def _timed(workload, config, config_path: Path, seed: int, seconds: float,
           out_dir: Path, env: dict, log: dict) -> tuple:
    import numpy as np
    import checks
    import latdec
    from latdec.cli import record_to_dict, write_results_csv

    setup_ref = HostRef()
    setup = measure.setup_times(config_path, env, setup_ref)
    log["setup_raw_s"] = setup
    log["setup_host_speed"] = setup_ref.speed()
    metrics = {"setup_s": statistics.median(setup) * setup_ref.speed()}

    rounds = []
    if not workload.via_cli:
        ref = HostRef()
        child = measure.run_paused(
            [sys.executable, str(HERE / "sweep_child.py"), str(config_path),
             repr(seconds), str(out_dir / "inproc.json"),
             str(out_dir / "inproc.csv")],
            env, ROOT, out_dir / "inproc.log", ref)
        if child.returncode != 0:
            raise RuntimeError(f"in-process sweep exited {child.returncode}; "
                               f"see {out_dir / 'inproc.log'}")
        data = json.loads((out_dir / "inproc.json").read_text())
        rounds += data["rounds"]
        active = [child.active_between(*span) for span in data["spans"]]
        decodes = sum(rec["trials"] for records in rounds for rec in records)
        metrics["decodes_per_s"] = decodes / sum(active) / ref.speed()
        # One in-process sweep to its records and slopes (mean over rounds).
        metrics["time_to_slope_s"] = sum(active) / len(active) * ref.speed()
        metrics["peak_rss_mb"] = child.peak_rss_mb
        log["inproc"] = {"round_active_s": active, "host_speed": ref.speed()}
        # Untimed CLI sweep, checked against the in-process CSV.
        cli_runs = [_cli_sweep(config_path, out_dir, "cli0", env, timed=False)]
    else:
        start = time.monotonic()
        cli_runs = []
        while not cli_runs or time.monotonic() - start < seconds:
            cli_runs.append(_cli_sweep(config_path, out_dir,
                                       f"cli{len(cli_runs)}", env, timed=True))
        decodes = sum(rec["trials"] for run in cli_runs
                      for rec in checks.parse_results_csv(run["csv"]))
        metrics["decodes_per_s"] = decodes / sum(r["seconds"] for r in cli_runs)
        metrics["time_to_slope_s"] = statistics.median(r["seconds"] for r in cli_runs)
        metrics["peak_rss_mb"] = max(r["peak_rss_mb"] for r in cli_runs)
        # Untimed in-process sweep: the reference for the CLI's CSV.
        result = latdec.run_sweep(config)
        write_results_csv(str(out_dir / "inproc.csv"), result.records)
        rounds.append([record_to_dict(rec) for rec in result.records])
    log["cli"] = [{k: v for k, v in r.items() if k not in ("csv", "slopes")}
                  for r in cli_runs]

    inproc_csv = (out_dir / "inproc.csv").read_text(encoding="utf-8")
    failures = []
    for run in cli_runs:
        failures += checks.check_csv_equal(run["csv"], inproc_csv, len(rounds))
        if workload.via_cli:
            failures += checks.check_slopes(run["slopes"], config.channel.nt,
                                            config.channel.nr, len(rounds))
        rounds.append(checks.parse_results_csv(run["csv"]))
    failures += _record_checks(workload, config, rounds)
    failures += checks.check_codebooks(config)
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload.name)])
    failures += checks.check_generated(config, rng)
    return metrics, rounds, failures


def _record_checks(workload, config, rounds: list) -> list:
    import checks
    return (checks.check_records(rounds, workload.fixed_trials,
                                 config.min_errors, config.max_trials)
            + checks.check_ml_dominance(rounds)
            + checks.check_repeats(rounds))


def _traced(workload, config, config_path: Path, out_dir: Path,
            log: dict) -> tuple:
    """Untraced and traced in-process `latdec sweep --workers 2` runs."""
    import checks
    import tracing
    from latdec import cli

    def sweep(tag: str) -> float:
        argv = ["sweep", str(config_path), "--workers", str(CLI_WORKERS),
                "--out", str(out_dir / tag)]
        t0 = time.perf_counter()
        with open(out_dir / f"{tag}.log", "w", encoding="utf-8") as fh, \
                contextlib.redirect_stdout(fh):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"latdec sweep exited {code}")
        return time.perf_counter() - t0

    # Untraced sweeps on both sides of the traced one, so a drift in host
    # speed over the three shows less in the overhead ratio.
    plain_s = [sweep("plain0")]
    spool = out_dir / "spans"
    spool.mkdir()
    tracer = tracing.Tracer(spool)
    tracer.install()
    try:
        traced_s = sweep("traced")
    finally:
        tracer.uninstall()
    tracer.flush()
    plain_s.append(sweep("plain1"))
    log["plain_s"], log["traced_s"] = plain_s, traced_s

    tags = ("plain0", "traced", "plain1")
    rounds = [checks.parse_results_csv((out_dir / tag / "results.csv").read_text())
              for tag in tags]
    failures = _record_checks(workload, config, rounds)
    if workload.via_cli:
        for i, tag in enumerate(tags):
            slopes = json.loads((out_dir / tag / "slopes.json").read_text())["slopes"]
            failures += checks.check_slopes(slopes, config.channel.nt,
                                            config.channel.nr, i)
    metrics = tracing.layer_metrics(tracer.batches(), rounds[1], CLI_WORKERS,
                                    traced_s / (sum(plain_s) / 2))
    return metrics, rounds, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "latdec" / "__init__.py").is_file():
        print(f"error: no latdec sources at {SRC}", file=sys.stderr)
        return 2
    bench_file = ROOT / "BENCHMARK.json"
    if not bench_file.is_file():
        print(f"error: {bench_file} is missing", file=sys.stderr)
        return 2
    sys.path.insert(1, str(SRC))
    import latdec
    if Path(latdec.__file__).resolve().parent != SRC / "latdec":
        print(f"error: imported latdec from {latdec.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads(bench_file.read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    out_dir = (ROOT / ".perfbench_out"
               / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    out_dir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    config_path = write_config(ROOT, workload, args.seed, out_dir)
    config = latdec.load_experiment(str(config_path))

    log = {"provenance": _provenance(), "args": vars(args)}
    print("provenance " + json.dumps(log["provenance"]), flush=True)
    if args.trace:
        metrics, rounds, failures = _traced(workload, config, config_path,
                                            out_dir, log)
    else:
        metrics, rounds, failures = _timed(workload, config, config_path,
                                           args.seed, args.seconds, out_dir,
                                           env, log)
    names = {m["name"] for m in wanted}
    if names - set(metrics):
        raise RuntimeError(f"metrics not computed: {sorted(names - set(metrics))}")

    import checks
    attempted = sum(len(records) for records in rounds)
    failed = checks.count_failed(rounds, failures)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    log["failures"] = [vars(f) for f in failures]
    log["all_metrics"] = metrics
    log["result"] = result
    (out_dir / "run.json").write_text(json.dumps(log, indent=1, default=str))
    for f in failures[:20]:
        print(f"FAILED {f.check} rho_db={f.rho_db} method={f.method} "
              f"round={f.round}: {f.detail}", flush=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
