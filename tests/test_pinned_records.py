"""Pinned records: the results.csv of small sweeps must stay byte-identical.

One sweep per channel model (Rayleigh over one and two channel uses, OFDM
with two and three tones, the amplify-and-forward relay, the fixed channel,
three-round ARQ with self-interference noise) and one Rayleigh sweep on
Z^4 + 1/2 cut to a ball, each with all five methods, plus three benchmark
workloads at benchmark seed 7, built from the files under perfbench/ the
way the benchmark builds them.  Two more sweeps (the ball at r = 1, and
two-round ARQ at r = 1.5) have ML codebooks of 5168 to 38416 points, above
`decoders.ML_SCAN_MAX_POINTS`: their hashes were recorded when the
exhaustive scan still decided ML there, so they pin the box-bounded
search to the scan's records.  A refactor of the channel layer, the stage
or the detectors that moves one trial's outcome, one random draw or one
printed digit changes a hash here.  No benchmark workload runs OFDM, the
relay or the fixed channel, or classifies against a ball, so this file is
their only record-level guard.

The hashes are the first 16 hex digits of the sha256 of the CLI's CSV."""

import hashlib
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from latdec import (  # noqa: E402
    ChannelConfig,
    LatticeDesign,
    NoiseModel,
    ShapingRegion,
    SweepConfig,
    load_experiment,
    run_sweep,
)
from latdec.cli import write_results_csv  # noqa: E402

ALL_METHODS = ("ml", "naive", "reg_exact", "lr_sic", "lr_linear")


def _design(n, t=1):
    return LatticeDesign(generator=np.eye(n), region=ShapingRegion.box(np.full(n, 0.6)),
                         coding_duration=t, dither=np.full(n, 0.5))


# name -> (channel, design, signal levels dB, rate, gate exponent, hash)
MODEL_SWEEPS = {
    "rayleigh_t1": (
        ChannelConfig(model="quasi_static_rayleigh", nt=2, nr=2),
        _design(4), (8.0, 12.0, 16.0), 0.0, 0.6, "77b6cae6effb7651"),
    "rayleigh_ball": (
        ChannelConfig(model="quasi_static_rayleigh", nt=2, nr=2),
        LatticeDesign(generator=np.eye(4), region=ShapingRegion.ball(1.8),
                      dither=np.full(4, 0.5)),  # 80 points
        (8.0, 12.0, 16.0), 0.0, 0.6, "e30411c743116205"),
    "rayleigh_t2": (
        ChannelConfig(model="quasi_static_rayleigh", nt=1, nr=2),
        _design(4, t=2), (12.0, 18.0, 24.0), 0.5, 1.0, "30b753364579fbb4"),
    "ofdm_2tones": (
        ChannelConfig(model="mimo_ofdm", nt=1, nr=1, tones=2, taps=2),
        _design(4, t=2), (10.0, 14.0, 18.0), 0.0, 1.0, "39a07c3f1685635b"),
    "ofdm_3tones": (
        ChannelConfig(model="mimo_ofdm", nt=1, nr=2, tones=3, taps=3),
        _design(6, t=3), (6.0, 10.0, 14.0), 0.0, 1.0, "c41eed89aa5a2b8a"),
    "naf_relay": (
        ChannelConfig(model="naf_relay"),
        _design(4, t=2), (14.0, 20.0, 26.0), 0.0, 1.0, "d9fa8098a50cca13"),
    "fixed": (
        ChannelConfig(model="fixed", h_real=np.array([[3.0, 1.8], [0.6, 2.4]])),
        _design(2), (4.0, 8.0, 12.0), 0.0, 1.0, "8817f9db91810d56"),
    "arq_3round": (
        ChannelConfig(model="mimo_arq", nt=1, nr=1, arq_rounds=3, arq_x_thresh=1.5,
                      noise=NoiseModel(kind="self_interference", sigma_e=0.5)),
        _design(2), (18.0, 24.0, 30.0), 0.5, 1.0, "994e5097a1650183"),
}

# Sweeps whose ML codebooks all exceed ML_SCAN_MAX_POINTS, laid out as above.
ML_SEARCH_SWEEPS = {
    "rayleigh_ball_r1": (
        ChannelConfig(model="quasi_static_rayleigh", nt=2, nr=2),
        LatticeDesign(generator=np.eye(4), region=ShapingRegion.ball(1.8),
                      dither=np.full(4, 0.5)),  # 5168 to 33392 points
        (20.0, 24.0, 28.0), 1.0, 0.6, "3091fd0d0f95ad79"),
    "arq_2round_r15": (
        ChannelConfig(model="mimo_arq", nt=1, nr=1, arq_rounds=2, arq_x_thresh=1.5),
        _design(2), (24.0, 26.0, 28.0), 1.5, 1.0, "8906e132547b4422"),
}

# benchmark workload -> hash at benchmark seed 7
WORKLOAD_SWEEPS = {
    "fixed_count_2x2": "fc977c168a3e3925",
    "rate_growth_2x2": "0614db9ab45db8c5",
    "arq_2round": "d1f59e2134649c02",
}


def _digest(records, tmp_path) -> str:
    path = tmp_path / "results.csv"
    write_results_csv(str(path), records)
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def model_sweep_digest(sweep, tmp_path) -> str:
    chan, design, rho_db, r, alpha, _ = sweep
    config = SweepConfig(design=design, channel=chan, methods=ALL_METHODS,
                         rho_db=rho_db, r=r, min_errors=20, max_trials=300,
                         seed=5, gate_alpha=alpha)
    return _digest(run_sweep(config).records, tmp_path)


def workload_digest(name, tmp_path) -> str:
    path = workloads.write_config(ROOT, workloads.WORKLOADS[name], 7, tmp_path)
    return _digest(run_sweep(load_experiment(str(path))).records, tmp_path)


@pytest.mark.parametrize("name", sorted(MODEL_SWEEPS))
def test_channel_model_records_are_pinned(name, tmp_path):
    assert model_sweep_digest(MODEL_SWEEPS[name], tmp_path) == MODEL_SWEEPS[name][-1]


@pytest.mark.parametrize("name", sorted(ML_SEARCH_SWEEPS))
def test_ml_search_records_are_pinned(name, tmp_path):
    sweep = ML_SEARCH_SWEEPS[name]
    assert model_sweep_digest(sweep, tmp_path) == sweep[-1]


@pytest.mark.parametrize("name", sorted(WORKLOAD_SWEEPS))
def test_benchmark_workload_records_are_pinned(name, tmp_path):
    assert workload_digest(name, tmp_path) == WORKLOAD_SWEEPS[name]
