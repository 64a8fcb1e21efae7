"""Command-line behavior: exit codes, output files, byte-stable reruns."""

import csv
import hashlib
import json
import os
import subprocess
import sys

import pytest

from latdec import channels, cli, dmtsim
from latdec.cli import main

TINY = """
design:
  generator: [[1.0, 0.0], [0.0, 1.0]]
  region:
    kind: box
    half_widths: [0.6, 0.6]
  dither: [0.5, 0.5]
channel:
  model: quasi_static_rayleigh
  nt: 1
  nr: 1
sweep:
  rho_db: [8.0, 12.0]
  r: 0.0
  methods: [ml]
  min_errors: 20
  max_trials: 800
  seed: 31
"""


def write_config(tmp_path, text=TINY, name="exp.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_dry_run(tmp_path, capsys):
    code = main(["sweep", write_config(tmp_path), "--dry-run"])
    assert code == 0
    out = capsys.readouterr().out
    assert "2 cells" in out


def test_schema_error_exit_code(tmp_path, capsys):
    bad = TINY.replace("methods: [ml]", "methods: [oracle]")
    code = main(["sweep", write_config(tmp_path, bad)])
    assert code == 1
    assert "oracle" in capsys.readouterr().err


def test_missing_config_exit_code(tmp_path, capsys):
    code = main(["sweep", str(tmp_path / "nope.yaml")])
    assert code == 1
    assert "nope.yaml" in capsys.readouterr().err


def test_sweep_outputs_and_reproducibility(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["sweep", cfg, "--out", str(out1)]) == 0
    assert main(["sweep", cfg, "--out", str(out2)]) == 0
    csv1 = (out1 / "results.csv").read_bytes()
    csv2 = (out2 / "results.csv").read_bytes()
    assert csv1 == csv2                       # byte-identical rerun
    assert (out1 / "results.json").read_bytes() == (out2 / "results.json").read_bytes()
    assert (out1 / "slopes.json").read_bytes() == (out2 / "slopes.json").read_bytes()

    lines = csv1.decode().strip().split("\n")
    assert lines[0] == ("rho_db,rho_linear,r,method,trials,errors,oob,"
                        "timeouts,p_hat,ci_lo,ci_hi")
    assert len(lines) == 3                    # 2 cells

    # CSV and JSON carry the same records, losslessly.
    with open(out1 / "results.csv") as fh:
        rows = list(csv.DictReader(fh))
    data = json.loads((out1 / "results.json").read_text())
    assert len(rows) == len(data["records"]) == 2
    for row, rec in zip(rows, data["records"]):
        for key in ("rho_db", "rho_linear", "p_hat", "ci_lo", "ci_hi"):
            assert float(row[key]) == rec[key]
        for key in ("trials", "errors", "oob", "timeouts"):
            assert int(row[key]) == rec[key]
        assert row["method"] == rec["method"]

    slopes = json.loads((out1 / "slopes.json").read_text())
    assert "ml" in slopes["slopes"]
    printed = capsys.readouterr().out
    assert "ml" in printed


def test_seed_override_changes_results(tmp_path):
    cfg = write_config(tmp_path)
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["sweep", cfg, "--out", str(a)]) == 0
    assert main(["sweep", cfg, "--out", str(b), "--seed", "99"]) == 0
    assert (a / "results.csv").read_bytes() != (b / "results.csv").read_bytes()


def test_env_seed_used_when_config_has_none(tmp_path, monkeypatch):
    # No environment variable sets the seed: a file without one runs at
    # seed 0 whatever LATDEC_SEED holds.
    cfg = write_config(tmp_path, TINY.replace("  seed: 31\n", ""))
    a = tmp_path / "a"
    b = tmp_path / "b"
    monkeypatch.setenv("LATDEC_SEED", "55")
    assert main(["sweep", cfg, "--out", str(a)]) == 0
    monkeypatch.delenv("LATDEC_SEED")
    assert main(["sweep", cfg, "--out", str(b), "--seed", "0"]) == 0
    assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()


def test_workers_match_serial(tmp_path):
    cfg = write_config(tmp_path)
    serial = tmp_path / "serial"
    par = tmp_path / "par"
    assert main(["sweep", cfg, "--out", str(serial)]) == 0
    assert main(["sweep", cfg, "--out", str(par), "--workers", "2"]) == 0
    assert (serial / "results.csv").read_bytes() == (par / "results.csv").read_bytes()


def test_budget_exit_code(tmp_path, capsys):
    huge = TINY.replace("half_widths: [0.6, 0.6]",
                        "half_widths: [20000.0, 20000.0]")
    code = main(["sweep", write_config(tmp_path, huge), "--out",
                 str(tmp_path / "x")])
    assert code == 2
    assert "budget" in capsys.readouterr().err


def test_numerical_exit_code(tmp_path, capsys):
    # A fixed singular channel makes the unregularized decoder raise on
    # the first trial.
    sing = TINY.replace(
        "  model: quasi_static_rayleigh\n  nt: 1\n  nr: 1\n",
        "  model: fixed\n  h_real: [[1.0, 0.0], [0.0, 0.0]]\n",
    ).replace("methods: [ml]", "methods: [naive]")
    code = main(["sweep", write_config(tmp_path, sing), "--out",
                 str(tmp_path / "x")])
    assert code == 3
    assert "numerical" in capsys.readouterr().err


def test_validate_green(capsys):
    code = main(["validate", "--suite", "metric-identity"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert doc["suites"][0]["suite"] == "metric-identity"
    assert doc["suites"][0]["checks"] > 0


def test_validate_poison_fails(capsys):
    code = main(["validate", "--suite", "reduction-bound", "--poison", "reduction-bound"])
    assert code == 4
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is False


# `latdec validate` stdout -> first 16 hex digits of its sha256, for all
# suites green and for each suite run alone and poisoned: the verdicts' key
# order, check counts and detail texts, pinned.
VALIDATE_STDOUT = {
    "all green": "21679429a9462ba2",
    "metric-identity": "2ca1234f23558d83",
    "reduction-bound": "abdfaea84061bdb5",
    "approx-ratio": "c3b25e5bc5881531",
    "exact-oracle": "45e131f97b062d74",
}


@pytest.mark.parametrize("run", sorted(VALIDATE_STDOUT))
def test_validate_stdout_is_pinned(run, capsys):
    green = run == "all green"
    argv = ["validate"] if green else ["validate", "--suite", run, "--poison", run]
    assert main(argv) == (0 if green else 4)
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest()[:16] == VALIDATE_STDOUT[run]


def test_slopes_json_bytes(tmp_path):
    path = tmp_path / "slopes.json"
    est = dmtsim.SlopeEstimate(d_hat=2.0 / 3.0, stderr=0.125, n_points=3,
                               rho_db_used=(20.0, 25.0, 30.0))
    cli.write_slopes_json(str(path), {"ml": est, "lr_linear": None})
    assert path.read_text(encoding="utf-8") == (
        '{\n  "slopes": {\n    "ml": {\n'
        '      "d_hat": 0.6666666666666666,\n      "stderr": 0.125,\n'
        '      "n_points": 3,\n'
        '      "rho_db_used": [\n        20.0,\n        25.0,\n        30.0\n      ]\n'
        '    },\n    "lr_linear": null\n  }\n}\n')


def test_dmt_reference_output(capsys):
    assert main(["dmt-reference", "2", "2"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out == ["r,d", "0,4.0", "1,1.0", "2,0.0"]
    assert main(["dmt-reference", "2", "2", "--taps", "2"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out == ["r,d", "0,8.0", "1,3.0", "2,0.0"]


def test_dmt_reference_bad_dims(capsys):
    assert main(["dmt-reference", "0", "2"]) == 1


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "latdec.cli", "dmt-reference", "1", "1"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.returncode == 0
    assert proc.stdout.strip().split("\n") == ["r,d", "0,1.0", "1,0.0"]


def test_validate_metric_identity_poison_fails(capsys):
    code = main(["validate", "--suite", "metric-identity",
                 "--poison", "metric-identity"])
    assert code == 4
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is False
    assert "disagreed" in doc["suites"][0]["detail"]


def dry_run_exit(tmp_path, capsys, text):
    code = main(["sweep", write_config(tmp_path, text), "--dry-run"])
    return code, capsys.readouterr()


def test_dry_run_rejects_arq_ball_region(tmp_path, capsys):
    text = TINY.replace(
        "  model: quasi_static_rayleigh\n",
        "  model: mimo_arq\n  arq:\n    rounds: 2\n    x_thresh: 1.0\n",
    ).replace("kind: box\n    half_widths: [0.6, 0.6]",
              "kind: ball\n    radius: 0.8")
    code, out = dry_run_exit(tmp_path, capsys, text)
    assert code == 1
    assert "box" in out.err and "config ok" not in out.out


def test_dry_run_rejects_channel_design_dimension_mismatch(tmp_path, capsys):
    text = TINY.replace("  nt: 1\n  nr: 1\n", "  nt: 2\n  nr: 2\n")
    code, out = dry_run_exit(tmp_path, capsys, text)
    assert code == 1
    assert "4 input dims, design has 2" in out.err


def test_dry_run_rejects_ofdm_duration_not_multiple_of_tones(tmp_path, capsys):
    text = TINY.replace(
        "  model: quasi_static_rayleigh\n",
        "  model: mimo_ofdm\n  tones: 2\n  taps: 2\n")
    code, out = dry_run_exit(tmp_path, capsys, text)
    assert code == 1
    assert "multiple of the tone count" in out.err


def test_dry_run_exits_2_where_the_sweep_passes_the_enumeration_budget(tmp_path, capsys):
    # At r = 30 the 1x1 codebook's candidate box is far past the budget at
    # both levels: the dry run fails as the sweep does, not "config ok".
    path = write_config(tmp_path, TINY.replace("r: 0.0", "r: 30.0"))
    assert main(["sweep", path, "--dry-run"]) == 2
    dry = capsys.readouterr()
    assert "config ok" not in dry.out
    assert main(["sweep", path, "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == dry.err
    assert "budget" in dry.err


def test_dry_run_checks_every_codebook_the_sweep_enumerates(tmp_path, capsys, monkeypatch):
    text = TINY.replace(
        "  model: quasi_static_rayleigh\n",
        "  model: mimo_arq\n  arq:\n    rounds: 2\n    x_thresh: 1.0\n",
    ).replace("r: 0.0", "r: 1.5").replace("max_trials: 800", "max_trials: 20")
    path = write_config(tmp_path, text)
    built = []
    enumerate_codebook = channels.enumerate_codebook
    monkeypatch.setattr(channels, "enumerate_codebook", lambda design, phi: (
        built.append((design.dimension, phi)) or enumerate_codebook(design, phi)))
    assert main(["sweep", path, "--dry-run"]) == 0
    dry = list(built)
    built.clear()
    assert main(["sweep", path, "--out", str(tmp_path / "x"), "--workers", "1"]) == 0
    # Both levels, each with the 2-dim fragment at r and the 4-dim one at r/2,
    # built once by the dry run and once by the sweep.
    assert len(dry) == 4 and dry == built


@pytest.mark.parametrize("region", [
    # The candidate box of dither 0.5 and half-width 0.4 holds no integer.
    "kind: box\n    half_widths: [0.4, 0.4]",
    # Its box holds candidates, all outside the ball.
    "kind: ball\n    radius: 0.6",
], ids=["box", "ball"])
def test_empty_codebook_exits_1(tmp_path, capsys, region):
    path = write_config(tmp_path, TINY.replace(
        "kind: box\n    half_widths: [0.6, 0.6]", region))
    assert main(["sweep", path, "--dry-run"]) == 1
    dry = capsys.readouterr()
    assert dry.err.startswith("error: ") and "codebook is empty" in dry.err
    assert "config ok" not in dry.out
    for workers in ("1", "2"):
        assert main(["sweep", path, "--out", str(tmp_path / "x"),
                     "--workers", workers]) == 1
        assert capsys.readouterr().err == dry.err


def test_repeated_method_exits_1(tmp_path, capsys):
    path = write_config(tmp_path, TINY.replace("methods: [ml]", "methods: [ml, ml]"))
    for argv in (["--dry-run"], ["--out", str(tmp_path / "x")]):
        assert main(["sweep", path, *argv]) == 1
        assert "'ml' is listed twice" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("argv", [
    ["--seed", "abc"], ["--workers", "-3"], ["--workers", "0"], ["--bogus"]],
    ids=["bad-seed", "negative-workers", "zero-workers", "unknown-flag"])
def test_usage_errors_exit_1(tmp_path, capsys, argv):
    code = main(["sweep", write_config(tmp_path), "--dry-run", *argv])
    assert code == 1
    out = capsys.readouterr()
    assert "usage:" in out.err and "config ok" not in out.out


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "usage:" in capsys.readouterr().out


def test_unusable_out_fails_before_any_cell(tmp_path, capsys, monkeypatch):
    cells = []
    monkeypatch.setattr(dmtsim, "sweep_cell",
                        lambda *args: cells.append(args) or [])
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    code = main(["sweep", write_config(tmp_path), "--out", str(taken)])
    assert code == 1
    assert cells == []
    assert capsys.readouterr().err.startswith("error: ")
    assert taken.read_text() == "not a directory"


def test_unwritable_output_file_fails_before_any_block(tmp_path, capsys, monkeypatch):
    blocks = []
    monkeypatch.setattr(dmtsim, "sweep_cell",
                        lambda *args: blocks.append(args) or [])
    out = tmp_path / "out"
    (out / "results.csv").mkdir(parents=True)
    for workers in ("1", "2"):
        code = main(["sweep", write_config(tmp_path), "--out", str(out),
                     "--workers", workers])
        assert code == 1
        assert blocks == []
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "results.csv" in err
    assert sorted(os.listdir(out)) == ["results.csv"]


def test_write_failure_after_the_sweep_exits_1(tmp_path, capsys, monkeypatch):
    def full_disk(path, records):
        raise OSError(28, "No space left on device", path)

    monkeypatch.setattr(cli, "write_results_csv", full_disk)
    code = main(["sweep", write_config(tmp_path), "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("poison", ["typo", "reduction-bound", "lll"])
def test_poison_must_target_a_suite_that_runs(capsys, poison):
    code = main(["validate", "--suite", "metric-identity", "--poison", poison])
    assert code == 1
    out = capsys.readouterr()
    assert "error" in out.err and '"passed"' not in out.out
