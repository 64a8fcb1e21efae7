"""Command-line front end.

Subcommands:
  sweep CONFIG      run an experiment file, write results.csv /
                    results.json / slopes.json, print a slope table
  validate          run the built-in self-check suites (JSON verdicts)
  dmt-reference     print reference diversity-curve breakpoints

Exit codes: 0 success, 1 usage or experiment-file error (an empty
codebook included), 2 enumeration budget exceeded, 3 numerical failure,
4 self-check failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import dmtsim
from .errors import (
    BudgetExceeded,
    EmptyCodebook,
    EnumerationOverflow,
    InsufficientData,
    LatdecError,
    SchemaError,
)
from .experiment import load_experiment
from .validation import SUITES, run_suites

__all__ = ["main", "write_results_csv", "write_results_json", "write_slopes_json"]

#: One column per `ErrorRateRecord` field, in declaration order.
CSV_HEADER = ",".join(f.name for f in dataclasses.fields(dmtsim.ErrorRateRecord))


def _fmt(value) -> str:
    """Shortest round-trip decimal for floats; plain digits for ints."""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def record_to_dict(rec: dmtsim.ErrorRateRecord) -> dict:
    return dataclasses.asdict(rec)


def record_to_row(rec: dmtsim.ErrorRateRecord) -> str:
    return ",".join(_fmt(value) for value in record_to_dict(rec).values())


def write_results_csv(path: str, records) -> None:
    lines = [CSV_HEADER] + [record_to_row(rec) for rec in records]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def write_results_json(path: str, records) -> None:
    _write_json(path, {"records": [record_to_dict(rec) for rec in records]})


def write_slopes_json(path: str, slopes: dict) -> None:
    _write_json(path, {"slopes": {
        method: None if est is None else dataclasses.asdict(est)
        for method, est in slopes.items()}})


def _unwritable(path: str) -> str | None:
    """Why the file at `path` cannot be written, or None."""
    if os.path.isdir(path):
        return "is a directory"
    target = path if os.path.exists(path) else os.path.dirname(path) or "."
    if not os.access(target, os.W_OK):
        return "permission denied"
    return None


def _cmd_sweep(args) -> int:
    config = load_experiment(args.config, seed_override=args.seed)
    n_cells = len(config.rho_db) * len(config.methods)
    if args.dry_run:
        for rho_db in config.rho_db:  # the sweep's own set-up: fails where it would
            config.cell_codebooks(rho_db)
        print(f"config ok: {n_cells} cells "
              f"({len(config.rho_db)} signal levels x {len(config.methods)} methods)")
        return 0
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory: {exc}", file=sys.stderr)
        return 1
    csv_path, json_path, slopes_path = (
        os.path.join(args.out, name)
        for name in ("results.csv", "results.json", "slopes.json"))
    # Every output path is checked before the first trial runs.
    for path in (csv_path, json_path, slopes_path):
        reason = _unwritable(path)
        if reason:
            print(f"error: cannot write {path}: {reason}", file=sys.stderr)
            return 1
    result = dmtsim.run_sweep(config, workers=args.workers)
    try:
        write_results_csv(csv_path, result.records)
        write_results_json(json_path, result.records)
        write_slopes_json(slopes_path, result.slopes)
    except OSError as exc:
        print(f"error: cannot write results: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {n_cells} cells to {args.out}")
    print("method          slope    stderr   points")
    for method in config.methods:
        est = result.slopes[method]
        if est is None:
            print(f"{method:<15} insufficient qualifying cells")
        else:
            print(f"{method:<15} {est.d_hat:8.4f} {est.stderr:8.4f}   "
                  f"{est.n_points}")
    return 0


def _cmd_validate(args) -> int:
    names = args.suite if args.suite else None
    try:
        results = run_suites(names=names, poison=args.poison)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    all_passed = all(res["passed"] for res in results)
    print(json.dumps({"suites": results, "passed": all_passed}, indent=2))
    return 0 if all_passed else 4


def _cmd_dmt_reference(args) -> int:
    try:
        pts = dmtsim.dmt_reference_breakpoints(args.nt, args.nr,
                                               taps=args.taps)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("r,d")
    for k, d in pts:
        print(f"{k},{_fmt(d)}")
    return 0


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latdec",
        description="Lattice decoding toolkit and diversity-slope harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run an experiment file")
    p_sweep.add_argument("config", help="path to the experiment YAML file")
    p_sweep.add_argument("--out", default=".", help="output directory")
    p_sweep.add_argument("--seed", type=int, default=None,
                         help="override the experiment seed")
    p_sweep.add_argument("--workers", type=positive_int, default=1,
                         help="worker processes running blocks of trials "
                              "(at most one per signal level)")
    p_sweep.add_argument("--dry-run", action="store_true",
                         help="validate the file, build its codebooks, print the cell count")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_val = sub.add_parser("validate", help="run built-in self-check suites")
    p_val.add_argument("--suite", action="append", choices=sorted(SUITES),
                       help="run only this suite (repeatable)")
    p_val.add_argument("--poison", default=None, choices=sorted(SUITES),
                       help="corrupt one instance inside the named suite, "
                            "which must run, to prove detection")
    p_val.set_defaults(func=_cmd_validate)

    p_ref = sub.add_parser("dmt-reference",
                           help="print reference curve breakpoints")
    p_ref.add_argument("nt", type=int)
    p_ref.add_argument("nr", type=int)
    p_ref.add_argument("--taps", type=int, default=None,
                       help="tap count for the frequency-selective variant")
    p_ref.set_defaults(func=_cmd_dmt_reference)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error; 2 means budget exhaustion here.
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except (SchemaError, InsufficientData, EmptyCodebook) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (BudgetExceeded, EnumerationOverflow) as exc:
        print(f"error: enumeration budget exceeded: {exc}", file=sys.stderr)
        return 2
    except LatdecError as exc:
        # Every other deliberate failure is numerical; anything else is a
        # bug and surfaces as a traceback.
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
