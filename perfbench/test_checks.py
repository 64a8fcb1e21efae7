"""Each check of the benchmark catches its injected fault.

    python3 -m pytest perfbench/test_checks.py -q

Every test starts from real latdec output (or the real latdec function),
corrupts one output or swaps in one corrupted function, and asserts that
the matching check fails an operation.
"""

from __future__ import annotations

import copy
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

import latdec  # noqa: E402
from latdec.cli import record_to_dict, write_results_csv  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def _config(name: str, **changes):
    doc = workloads.build_document(ROOT, workloads.WORKLOADS[name], seed=7)
    return replace(latdec.parse_experiment(doc), **changes)


@pytest.fixture(scope="module")
def fixed():
    """A real two-level fixed-count sweep of the four vblast methods."""
    config = _config("fixed_count_2x2", rho_db=(10.0, 30.0), max_trials=30)
    records = [record_to_dict(r) for r in latdec.run_sweep(config).records]
    return config, records


@pytest.fixture(scope="module")
def stopped():
    """A real sweep that stops on min_errors."""
    config = _config("fixed_count_2x2", rho_db=(6.0, 10.0), min_errors=20,
                     max_trials=2000, methods=("ml", "lr_linear"))
    records = [record_to_dict(r) for r in latdec.run_sweep(config).records]
    return config, records


def _failed(rounds, failures, check):
    hits = [f for f in failures if f.check == check]
    return checks.count_failed(rounds, hits)


def test_clean_output_passes(fixed, stopped):
    for config, records in (fixed, stopped):
        rounds = [records, copy.deepcopy(records)]
        fixed_trials = config.max_trials if config.min_errors > config.max_trials else None
        failures = (checks.check_records(rounds, fixed_trials,
                                         config.min_errors, config.max_trials)
                    + checks.check_ml_dominance(rounds)
                    + checks.check_repeats(rounds)
                    + checks.check_codebooks(config)
                    + checks.check_generated(config, np.random.default_rng(1)))
        assert failures == []


@pytest.mark.parametrize("field, value", [("ci_lo", 1e-6), ("ci_hi", -1e-6),
                                          ("p_hat", 1e-9)])
def test_wilson_catches_wrong_interval(fixed, field, value):
    config, records = fixed
    bad = copy.deepcopy(records)
    bad[2][field] += value
    failures = checks.check_records([bad], config.max_trials,
                                    config.min_errors, config.max_trials)
    assert _failed([bad], failures, "wilson") == 1


def test_trial_count_catches_short_fixed_cell(fixed):
    config, records = fixed
    bad = copy.deepcopy(records)
    bad[0]["trials"] -= 1
    failures = checks.check_records([bad], config.max_trials,
                                    config.min_errors, config.max_trials)
    assert _failed([bad], failures, "trial_count") == 1


def test_trial_count_catches_missed_stop(stopped):
    config, records = stopped
    bad = copy.deepcopy(records)
    bad[1]["errors"] += 1
    bad[1]["trials"] += 5
    failures = checks.check_records([bad], None, config.min_errors,
                                    config.max_trials)
    assert _failed([bad], failures, "trial_count") == 1


def test_ml_dominance_catches_bad_ml(fixed):
    _, records = fixed
    bad = copy.deepcopy(records)
    ml = next(r for r in bad if r["method"] == "ml" and r["rho_db"] == 30.0)
    ml["errors"] = ml["trials"]
    assert _failed([bad], checks.check_ml_dominance([bad]), "ml_dominance") == 1


def test_repeat_catches_changed_round(fixed):
    _, records = fixed
    rounds = [records, copy.deepcopy(records), copy.deepcopy(records)]
    rounds[2][3]["errors"] += 1
    failures = checks.check_repeats(rounds)
    assert _failed(rounds, failures, "repeat") == 1
    assert failures[0].round == 2


def test_cli_csv_catches_changed_row(fixed, tmp_path):
    config, _ = fixed
    path = tmp_path / "results.csv"
    write_results_csv(str(path), latdec.run_sweep(config).records)
    good = path.read_text()
    lines = good.split("\n")
    lines[3] = lines[3].replace(",30,", ",31,", 1)
    bad = "\n".join(lines)
    rounds = [checks.parse_results_csv(good)] * 2
    assert checks.check_csv_equal(good, good, 1) == []
    assert _failed(rounds, checks.check_csv_equal(bad, good, 1), "cli_csv") == 1
    header = good.replace("rho_db", "rho", 1)
    assert (_failed(rounds, checks.check_csv_equal(header, good, 1), "cli_csv")
            == len(rounds[1]))


def test_slope_check_catches_wrong_slope():
    ok = {"ml": {"d_hat": 0.95}, "lr_linear": {"d_hat": 0.87}}
    assert checks.check_slopes(ok, 1, 1, 0) == []
    bad = {"ml": {"d_hat": 0.95}, "lr_linear": {"d_hat": 0.70}}
    failures = checks.check_slopes(bad, 1, 1, 0)
    assert [f.method for f in failures] == ["lr_linear"]
    assert [f.method for f in checks.check_slopes({"ml": None}, 1, 1, 0)] == ["ml"]


def test_codebook_check_catches_missing_point(fixed):
    config, records = fixed

    def short(design, phi):
        book = latdec.enumerate_codebook(design, phi)
        return latdec.Codebook(points=book.points[1:], coords=book.coords[1:],
                               scale=book.scale)

    fns = dict(checks.LATDEC_FNS, enumerate_codebook=short)
    failures = checks.check_codebooks(config, fns)
    assert _failed([records], failures, "codebook_size") == len(records)


def test_codebook_check_covers_arq_fragments():
    config = _config("arq_2round")
    calls = []

    def spy(design, phi):
        calls.append(design.dimension)
        return latdec.enumerate_codebook(design, phi)

    assert checks.check_codebooks(config, dict(checks.LATDEC_FNS,
                                               enumerate_codebook=spy)) == []
    assert sorted(set(calls)) == [4, 8]


def _generated(config, **fns):
    failures = checks.check_generated(config, np.random.default_rng(3),
                                      dict(checks.LATDEC_FNS, **fns))
    return {f.method for f in failures}, failures


def test_ml_check_catches_wrong_decision(fixed):
    config, _ = fixed

    def second_best(y, h, codebook):
        resid = y[None, :] - codebook.points @ h.T
        idx = int(np.argsort(np.sum(resid * resid, axis=1))[1])
        return latdec.DecodeOutcome.codeword(codebook.points[idx],
                                             codebook.coords[idx], 0.0)

    methods, _ = _generated(config, ml_decode=second_best)
    assert methods == {"ml"}


def _tamper_reduce(change):
    def tampered(m, rho, alpha, delta=0.75):
        out = latdec.gated_reduce(m, rho, alpha, delta=delta)
        if not out.timed_out:
            change(out.basis)
        return out
    return tampered


def test_reduction_check_catches_non_unimodular(fixed):
    config, _ = fixed

    def double(basis):
        basis.unimodular[:, 0] *= 2
        basis.reduced[:, 0] *= 2

    methods, failures = _generated(config, gated_reduce=_tamper_reduce(double))
    assert {"lr_sic", "lr_linear"} <= methods
    assert any("unimodular" in f.detail for f in failures)


def test_reduction_check_catches_unreduced_basis(fixed):
    config, _ = fixed

    def skew(basis):
        basis.unimodular[:, 1] += 3 * basis.unimodular[:, 0]
        basis.reduced[:, 1] += 3 * basis.reduced[:, 0]

    _, failures = _generated(config, gated_reduce=_tamper_reduce(skew))
    assert any("size reduction" in f.detail for f in failures)


def test_reduction_check_catches_swaps_over_cap(fixed):
    config, _ = fixed

    def many(basis):
        basis.iterations = 10**6

    _, failures = _generated(config, gated_reduce=_tamper_reduce(many))
    assert any("swaps above cap" in f.detail for f in failures)


def test_reduction_check_catches_wrong_refusal(fixed):
    config, _ = fixed

    def refuse(m, rho, alpha, delta=0.75):
        return latdec.GateOutcome(basis=None, timed_out=True, kappa=1.0,
                                  threshold=rho ** alpha)

    methods, failures = _generated(config, gated_reduce=refuse)
    assert methods == {"lr_sic", "lr_linear"}
    assert all("refused" in f.detail for f in failures)


def _worse(fn, shift):
    def worse(problem, *args):
        res = fn(problem, *args)
        coords = res.coords + shift
        point = problem.scaled_generator @ coords + problem.dither_or_zero()
        return latdec.LatticeDecodeResult(coords=coords, point=point, metric=0.0)
    return worse


def test_exact_search_check_catches_suboptimal_point(fixed):
    config, _ = fixed
    shift = np.array([1, 0, 0, 0])
    methods, _ = _generated(config, sphere_decode_regularized=_worse(
        latdec.sphere_decode_regularized, shift))
    assert methods == {"reg_exact"}


@pytest.mark.parametrize("name, method", [("babai_nearest_plane", "lr_sic"),
                                          ("lr_aided_linear", "lr_linear")])
def test_ratio_check_catches_far_point(fixed, name, method):
    config, _ = fixed
    shift = np.array([40, -40, 40, -40])
    methods, failures = _generated(config,
                                   **{name: _worse(getattr(latdec, name), shift)})
    assert methods == {method}
    assert all("minimum" in f.detail for f in failures)


def test_search_check_catches_point_off_lattice(fixed):
    config, _ = fixed

    def off(problem, reduced):
        res = latdec.lr_aided_linear(problem, reduced)
        return latdec.LatticeDecodeResult(coords=res.coords, point=res.point + 0.1,
                                          metric=res.metric)

    methods, failures = _generated(config, lr_aided_linear=off)
    assert methods == {"lr_linear"}
    assert all("not phi G z + u" in f.detail for f in failures)


def test_box_codebook_matches_design_count():
    config = _config("rate_growth_2x2")
    for rho_db, side in ((12.0, 4), (31.0, 17)):
        phi = checks.scale(10 ** (rho_db / 10), config.r, 1, 4)
        points, coords = checks.box_codebook(config.design, phi)
        assert len(coords) == side ** 4
        assert np.allclose(points, coords * phi + config.design.dither)
