"""Monte Carlo engine: interval math, slope fits on exact power laws,
paired randomness across methods, outage estimation, reference curves."""

import concurrent.futures
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from latdec import channels, decoders, dmtsim, reduction
from latdec.channels import (
    NoiseModel,
    complex_gaussian,
    fixed_channel,
    sample_mimo_ofdm,
    sample_naf_relay,
    sample_noise,
    sample_quasi_static_rayleigh,
    simulate_arq_episode,
    trial_rng,
)
from latdec.decoders import decode
from latdec.dmtsim import (
    ChannelConfig,
    ErrorRateRecord,
    SlopeEstimate,
    SweepConfig,
    dmt_reference_breakpoints,
    dmt_reference_value,
    estimate_diversity_slope,
    estimate_outage_probability,
    run_sweep,
    sweep_cell,
    wilson_interval,
)
from latdec.errors import (EmptyCodebook, InsufficientData, LatdecError, NearSingularChannel,
                           NotPositiveDefinite, RankDeficient)
from latdec.lattice import (Codebook, LatticeDesign, ShapingRegion, enumerate_codebook,
                            scaling_factor)
from per_trial import prepare


def square_design(n, t=1):
    return LatticeDesign(
        generator=np.eye(n),
        region=ShapingRegion.box(np.full(n, 0.6)),
        coding_duration=t,
        dither=np.full(n, 0.5),
    )


def rayleigh_config(n_ant=1, methods=("ml",), **kw):
    design = square_design(2 * n_ant * kw.pop("t", 1))
    chan = ChannelConfig(model="quasi_static_rayleigh", nt=n_ant, nr=n_ant)
    defaults = dict(min_errors=20, max_trials=3000, seed=11,
                    rho_db=(10.0, 14.0), r=0.0, gate_alpha=1.5)
    defaults.update(kw)
    return SweepConfig(design=design, channel=chan, methods=methods, **defaults)


def level_block(cfg, rho_db, start=0, stop=None, budgets=None):
    """`sweep_cell` on the level's own set-up, `cfg.cell_codebooks(rho_db)`:
    by default the whole level, every method with the budget min_errors."""
    stop = cfg.max_trials if stop is None else stop
    budgets = dict.fromkeys(cfg.methods, cfg.min_errors) if budgets is None else budgets
    return sweep_cell(cfg, cfg.cell_codebooks(rho_db), rho_db, start, stop, budgets)


def synthetic_record(rho_db, p, method="ml", errors=100):
    trials = max(errors * 10, int(errors / max(p, 1e-12)))
    lo, hi = wilson_interval(errors, trials)
    # Force the stated p_hat while keeping the invariants satisfied.
    return ErrorRateRecord(rho_db=rho_db, rho_linear=10 ** (rho_db / 10.0),
                           r=0.0, method=method, trials=trials, errors=errors,
                           oob=0, timeouts=0, p_hat=p,
                           ci_lo=min(p, lo), ci_hi=max(p, hi))


def test_wilson_interval_textbook_case():
    lo, hi = wilson_interval(5, 100)
    # Direct evaluation of the score interval with z = 1.959963984540054.
    z = 1.959963984540054
    p, n = 0.05, 100
    denom = 1 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    assert lo == pytest.approx(center - half, abs=1e-15)
    assert hi == pytest.approx(center + half, abs=1e-15)
    assert lo == pytest.approx(0.02154367915436796, abs=1e-12)
    assert hi == pytest.approx(0.11175046923191913, abs=1e-12)


def test_wilson_interval_edges():
    lo, hi = wilson_interval(0, 50)
    assert lo == 0.0
    assert hi > 0.0
    lo, hi = wilson_interval(50, 50)
    assert hi == 1.0
    assert lo < 1.0
    with pytest.raises(ValueError):
        wilson_interval(5, 0)
    with pytest.raises(ValueError):
        wilson_interval(6, 5)


def test_slope_exact_power_law():
    # p = c rho^-2 exactly: the fit must recover 2 to machine precision.
    recs = [synthetic_record(db, 1e-1 * (10 ** (db / 10.0) / 10.0) ** -2.0)
            for db in (10.0, 20.0, 30.0)]
    est = estimate_diversity_slope(recs, min_errors=50)
    assert est.d_hat == pytest.approx(2.0, abs=1e-12)
    assert est.stderr == pytest.approx(0.0, abs=1e-7)
    assert est.n_points == 3
    assert est.rho_db_used == (10.0, 20.0, 30.0)


def test_slope_uses_top_cells_only():
    recs = [synthetic_record(db, 0.5 * 10 ** (-db / 10.0))
            for db in (6.0, 10.0, 14.0, 18.0, 22.0)]
    est = estimate_diversity_slope(recs, min_errors=50)
    assert est.n_points == 3
    assert est.rho_db_used == (14.0, 18.0, 22.0)
    assert est.d_hat == pytest.approx(1.0, abs=1e-12)


def test_slope_two_point_fit_has_zero_stderr():
    recs = [synthetic_record(db, 0.3 * 10 ** (-db / 10.0))
            for db in (10.0, 20.0)]
    est = estimate_diversity_slope(recs, min_errors=50)
    assert est.n_points == 2
    assert est.stderr == 0.0


def test_slope_qualification_rules():
    # Under min_errors, or p_hat >= 0.5, cells are excluded.
    good = synthetic_record(10.0, 0.01)
    weak = synthetic_record(20.0, 0.001, errors=30)
    with pytest.raises(InsufficientData):
        estimate_diversity_slope([good, weak], min_errors=50)
    sat1 = synthetic_record(10.0, 0.6)
    sat2 = synthetic_record(20.0, 0.55)
    with pytest.raises(InsufficientData):
        estimate_diversity_slope([good, sat1, sat2], min_errors=50)


def test_record_invariants_enforced():
    with pytest.raises(ValueError):
        ErrorRateRecord(rho_db=10.0, rho_linear=10.0, r=0.0, method="ml",
                        trials=0, errors=0, oob=0, timeouts=0,
                        p_hat=0.0, ci_lo=0.0, ci_hi=0.0)
    with pytest.raises(ValueError):
        ErrorRateRecord(rho_db=10.0, rho_linear=10.0, r=0.0, method="ml",
                        trials=10, errors=3, oob=2, timeouts=2,
                        p_hat=0.3, ci_lo=0.1, ci_hi=0.6)
    with pytest.raises(ValueError):
        ErrorRateRecord(rho_db=10.0, rho_linear=10.0, r=0.0, method="ml",
                        trials=10, errors=3, oob=0, timeouts=0,
                        p_hat=0.3, ci_lo=0.4, ci_hi=0.6)


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        rayleigh_config(methods=("warp",))
    with pytest.raises(ValueError):
        rayleigh_config(rho_db=(10.0,))
    with pytest.raises(ValueError):
        rayleigh_config(rho_db=(10.0, 10.0))
    with pytest.raises(ValueError):
        rayleigh_config(rho_db=(14.0, 10.0))
    with pytest.raises(ValueError):
        rayleigh_config(min_errors=10)
    with pytest.raises(ValueError):
        rayleigh_config(methods=("lr_linear",), gate_alpha=None)
    with pytest.raises(TypeError):      # LLL's delta is the constant 3/4
        rayleigh_config(gate_delta=0.75)
    assert rayleigh_config().gate_delta == 0.75
    with pytest.raises(ValueError):
        ChannelConfig(model="mimo_arq", arq_rounds=2)   # x_thresh mandatory


# A non-integer count would otherwise be accepted here and fail, or run
# unnoticed, inside the sweep.
NON_INTEGER_COUNTS = {
    "min_errors": lambda: rayleigh_config(min_errors=20.5),
    "max_trials": lambda: rayleigh_config(max_trials=300.0),
    "seed": lambda: rayleigh_config(seed=1.5),
    "nt": lambda: ChannelConfig(model="quasi_static_rayleigh", nt=1.0),
    "nr": lambda: ChannelConfig(model="quasi_static_rayleigh", nr=2.0),
    "tones": lambda: ChannelConfig(model="mimo_ofdm", tones=2.0),
    "taps": lambda: ChannelConfig(model="mimo_ofdm", taps=2.0),
    "arq_rounds": lambda: ChannelConfig(model="mimo_arq", arq_rounds=2.0,
                                        arq_x_thresh=1.0),
    "coding_duration": lambda: LatticeDesign(
        generator=np.eye(2), region=ShapingRegion.box([0.6, 0.6]), coding_duration=2.0),
    # A bool is an int to Python, but never a count.
    "min_errors bool": lambda: rayleigh_config(min_errors=True),
    "max_trials bool": lambda: rayleigh_config(max_trials=True),
    "seed bool": lambda: rayleigh_config(seed=False),
    "nt bool": lambda: ChannelConfig(model="quasi_static_rayleigh", nt=True),
    "arq_rounds bool": lambda: ChannelConfig(model="mimo_arq", arq_rounds=True,
                                             arq_x_thresh=1.0),
    "coding_duration bool": lambda: LatticeDesign(
        generator=np.eye(2), region=ShapingRegion.box([0.6, 0.6]), coding_duration=True),
}


@pytest.mark.parametrize("field", sorted(NON_INTEGER_COUNTS))
def test_config_counts_must_be_integers(field):
    with pytest.raises(ValueError, match="integer"):
        NON_INTEGER_COUNTS[field]()


def test_config_counts_accept_numpy_integers():
    cfg = rayleigh_config(max_trials=np.int64(300), seed=np.int32(4))
    chan = ChannelConfig(model="mimo_ofdm", nt=np.int64(2), tones=np.int64(2))
    assert type(cfg.max_trials) is int and type(cfg.seed) is int
    assert type(chan.nt) is int and type(chan.tones) is int


def test_cell_determinism():
    cfg = rayleigh_config(methods=("ml", "lr_linear"))
    a = level_block(cfg, 10.0).records()
    b = level_block(cfg, 10.0).records()
    assert a == b


def test_methods_share_trials_regardless_of_grouping():
    # A method's record must be bit-identical whether it runs alone or
    # alongside others: trial randomness is keyed by (seed, level, rate,
    # trial index) and never by the method set.
    joint = level_block(rayleigh_config(methods=("ml", "reg_exact")), 10.0).records()
    [alone] = level_block(rayleigh_config(methods=("ml",)), 10.0).records()
    ml_joint = [rec for rec in joint if rec.method == "ml"][0]
    assert ml_joint == alone


def test_noiseless_fixed_channel_never_errs():
    design = square_design(2)
    chan = ChannelConfig(model="fixed", h_real=3.0 * np.eye(2),
                         noise=NoiseModel(scale=0.0))
    cfg = SweepConfig(design=design, channel=chan, methods=("ml", "reg_exact"),
                      rho_db=(10.0, 20.0), r=0.0, min_errors=20,
                      max_trials=300, seed=3)
    recs = level_block(cfg, 10.0).records()
    for rec in recs:
        assert rec.errors == 0
        assert rec.trials == 300          # stopping never triggers
        assert rec.p_hat == 0.0
        assert rec.ci_lo == 0.0


def test_run_sweep_records_and_slopes():
    cfg = rayleigh_config(methods=("ml",), rho_db=(8.0, 12.0, 16.0),
                          max_trials=4000)
    result = run_sweep(cfg)
    assert len(result.records) == 3
    assert set(r.method for r in result.records) == {"ml"}
    assert "ml" in result.slopes
    est = result.slopes["ml"]
    if est is not None:
        assert isinstance(est, SlopeEstimate)
        assert 0.2 < est.d_hat < 3.0


def test_run_sweep_workers_match_serial():
    cfg = rayleigh_config(methods=("ml", "lr_linear"), rho_db=(10.0, 14.0, 18.0))
    serial = run_sweep(cfg)
    pooled = run_sweep(cfg, workers=2)
    assert pooled.records == serial.records
    assert pooled.slopes == serial.slopes
    with pytest.raises(ValueError, match="workers"):
        run_sweep(cfg, workers=0)


def test_run_sweep_pool_has_at_most_one_worker_per_level(monkeypatch):
    sizes = []

    class Pool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    cfg = rayleigh_config(rho_db=(10.0, 14.0))
    assert run_sweep(cfg, workers=64).records == run_sweep(cfg).records
    assert sizes == [2]


def test_run_sweep_insufficient_data_slope_is_none():
    # A fixed noiseless channel yields zero errors everywhere: no cell
    # qualifies and the slope must be reported as missing, not faked.
    design = square_design(2)
    chan = ChannelConfig(model="fixed", h_real=3.0 * np.eye(2),
                         noise=NoiseModel(scale=0.0))
    cfg = SweepConfig(design=design, channel=chan, methods=("ml",),
                      rho_db=(10.0, 20.0), r=0.0, min_errors=20,
                      max_trials=50, seed=3)
    result = run_sweep(cfg)
    assert result.slopes["ml"] is None


def test_outage_fixed_channel_indicator():
    # log2 det(I + H H^T) = 2 for H = I_2; outage iff 2 < 2 * rate * t.
    chan = ChannelConfig(model="fixed", h_real=np.eye(2))
    hi = estimate_outage_probability(10.0, 2.0, 1, chan, trials=1000)
    assert hi.p_hat == 1.0
    lo = estimate_outage_probability(10.0, 0.5, 1, chan, trials=1000)
    assert lo.p_hat == 0.0
    with pytest.raises(ValueError):
        estimate_outage_probability(10.0, 1.0, 1, chan, trials=10)


def test_outage_rejects_ofdm_duration_not_multiple_of_tones():
    chan = ChannelConfig(model="mimo_ofdm", nt=1, nr=1, tones=2, taps=2)
    with pytest.raises(ValueError, match="multiple of the tone count"):
        estimate_outage_probability(10.0, 1.0, 3, chan, trials=1000)


def test_outage_decreases_with_signal_level():
    chan = ChannelConfig(model="quasi_static_rayleigh", nt=1, nr=1)
    weak = estimate_outage_probability(2.0, 1.0, 1, chan, trials=3000, seed=5)
    strong = estimate_outage_probability(200.0, 1.0, 1, chan, trials=3000,
                                         seed=5)
    assert weak.p_hat > strong.p_hat
    assert strong.p_hat < 0.2


def test_arq_sweep_cell_runs():
    design = square_design(2)
    chan = ChannelConfig(model="mimo_arq", nt=1, nr=1, arq_rounds=2,
                         arq_x_thresh=1.0)
    cfg = SweepConfig(design=design, channel=chan, methods=("ml",),
                      rho_db=(6.0, 10.0), r=0.5, min_errors=20,
                      max_trials=400, seed=9)
    recs = level_block(cfg, 6.0).records()
    assert len(recs) == 1
    rec = recs[0]
    assert rec.trials >= rec.errors
    assert rec.method == "ml"
    assert recs == level_block(cfg, 6.0).records()     # deterministic


def test_ofdm_sweep_cell_runs():
    design = square_design(4, t=2)          # two tones, one complex dim each
    chan = ChannelConfig(model="mimo_ofdm", nt=1, nr=1, tones=2, taps=2)
    cfg = SweepConfig(design=design, channel=chan, methods=("ml",),
                      rho_db=(6.0, 10.0), r=0.0, min_errors=20,
                      max_trials=400, seed=10)
    rec = level_block(cfg, 6.0).records()[0]
    assert rec.trials >= 20 or rec.errors < 20


def test_naf_sweep_cell_runs():
    design = square_design(4, t=2)          # relay frame: two channel uses
    chan = ChannelConfig(model="naf_relay", nt=1, nr=1)
    cfg = SweepConfig(design=design, channel=chan, methods=("ml", "lr_linear"),
                      rho_db=(6.0, 10.0), r=0.0, min_errors=20,
                      max_trials=400, seed=12, gate_alpha=1.5)
    recs = level_block(cfg, 10.0).records()
    assert len(recs) == 2
    for rec in recs:
        assert rec.trials > 0


def test_reference_breakpoints_tables():
    assert dmt_reference_breakpoints(2, 2) == [(0, 4.0), (1, 1.0), (2, 0.0)]
    assert dmt_reference_breakpoints(1, 1) == [(0, 1.0), (1, 0.0)]
    assert dmt_reference_breakpoints(4, 2) == [(0, 8.0), (1, 3.0), (2, 0.0)]
    assert dmt_reference_breakpoints(2, 4) == [(0, 8.0), (1, 3.0), (2, 0.0)]
    assert dmt_reference_breakpoints(2, 2, taps=2) == [
        (0, 8.0), (1, 3.0), (2, 0.0)]
    with pytest.raises(ValueError):
        dmt_reference_breakpoints(0, 2)


def test_reference_value_interpolation():
    assert dmt_reference_value(0.0, 2, 2) == 4.0
    assert dmt_reference_value(0.5, 2, 2) == pytest.approx(2.5)
    assert dmt_reference_value(1.0, 2, 2) == 1.0
    assert dmt_reference_value(1.5, 2, 2) == pytest.approx(0.5)
    assert dmt_reference_value(2.0, 2, 2) == 0.0
    assert dmt_reference_value(5.0, 2, 2) == 0.0
    assert dmt_reference_value(0.5, 2, 2, taps=2) == pytest.approx(5.5)
    with pytest.raises(ValueError):
        dmt_reference_value(-0.1, 2, 2)


ALL_METHODS = ("ml", "naive", "reg_exact", "lr_sic", "lr_linear")

# (channel, design, signal level dB, rate, gate exponent) per model; the
# levels are set so that the methods stop at different trials, and the
# Rayleigh case's low gate exponent makes the gate refuse some channels.
DIFFERENTIAL_CASES = {
    "quasi_static_rayleigh": (
        ChannelConfig(model="quasi_static_rayleigh", nt=2, nr=2),
        square_design(4), 12.0, 0.0, 0.6),
    "mimo_ofdm": (
        ChannelConfig(model="mimo_ofdm", nt=1, nr=1, tones=2, taps=2),
        square_design(4, t=2), 14.0, 0.0, 1.0),
    "naf_relay": (
        ChannelConfig(model="naf_relay"), square_design(4, t=2), 16.0, 0.0, 1.0),
    "fixed": (
        ChannelConfig(model="fixed", h_real=np.array([[1.0, 0.9], [0.2, 0.3]])),
        square_design(2), 8.0, 0.0, 1.0),
    "mimo_arq": (
        ChannelConfig(model="mimo_arq", nt=1, nr=1, arq_rounds=3,
                      arq_x_thresh=1.5,
                      noise=NoiseModel(kind="self_interference", sigma_e=0.5)),
        square_design(2), 20.0, 0.5, 1.0),
}


def _reference_plain_outcome(cfg, rho, key, trial, method):
    """One prepare() and decode() on the trial's channel, codeword and noise."""
    chan, design = cfg.channel, cfg.design
    t = design.coding_duration
    phi = scaling_factor(rho, cfg.r, t, design.dimension)
    book = enumerate_codebook(design, phi)
    rng = trial_rng(cfg.seed, 0, *key, trial)
    if chan.model == "quasi_static_rayleigh":
        h = sample_quasi_static_rayleigh(chan.nt, chan.nr, t, rho, rng)
    elif chan.model == "mimo_ofdm":
        h = sample_mimo_ofdm(chan.nt, chan.nr, chan.tones, chan.taps,
                             t // chan.tones, rho, rng)
    elif chan.model == "naf_relay":
        h = sample_naf_relay(rho, rng)
    else:
        h = fixed_channel(chan.h_real)
    msg = int(rng.integers(book.size))
    x = book.points[msg]
    y = h @ x + sample_noise(h.shape[0], chan.noise, x, rng)
    out = decode(prepare(y, h, design, book, rho=rho, gate_alpha=cfg.gate_alpha),
                 method=method)
    wrong = not (out.is_codeword and np.array_equal(out.coords, book.coords[msg]))
    return wrong, out.kind


def _reference_arq_outcome(cfg, rho, key, trial, method):
    """One simulate_arq_episode() on the trial's channel, decoded at its
    stopping round by one prepare() and decode()."""
    chan = cfg.channel
    hc = complex_gaussian(trial_rng(cfg.seed, 0, *key, trial), (chan.nr, chan.nt))
    frags = [LatticeDesign(generator=np.kron(np.eye(l), cfg.design.generator),
                           region=ShapingRegion.box(
                               np.tile(cfg.design.region.half_widths, l)),
                           coding_duration=l * cfg.design.coding_duration,
                           dither=np.tile(cfg.design.dither, l))
             for l in range(1, chan.arq_rounds + 1)]
    rungs = [(d, enumerate_codebook(d, scaling_factor(rho, cfg.r / l, d.coding_duration,
                                                      d.dimension)))
             for l, d in enumerate(frags, start=1)]
    draw, _ = simulate_arq_episode(rungs, hc, rho, chan.arq_x_thresh,
                                   trial_rng(cfg.seed, 0, *key, trial, 1), chan.noise)
    out = decode(prepare(draw.y, draw.h, draw.design, draw.codebook, rho=rho,
                         gate_alpha=cfg.gate_alpha), method=method)
    sent = draw.codebook.coords[draw.message]
    return not (out.is_codeword and np.array_equal(out.coords, sent)), out.kind


@pytest.mark.parametrize("model", sorted(DIFFERENTIAL_CASES))
def test_sweep_cell_matches_per_method_reference(model):
    # The engine runs one channel stage per trial for every method; the
    # reference decodes each (trial, method) on its own, as a lone method
    # would, so any work shared wrongly across methods shows up here.
    chan, design, rho_db, r, alpha = DIFFERENTIAL_CASES[model]
    cfg = SweepConfig(design=design, channel=chan, methods=ALL_METHODS,
                      rho_db=(rho_db, rho_db + 4.0), r=r, min_errors=20,
                      max_trials=400, seed=5, gate_alpha=alpha)
    rho = 10.0 ** (rho_db / 10.0)
    key = (dmtsim._key_from_float(rho_db), dmtsim._key_from_float(r))
    outcome = (_reference_arq_outcome if model == "mimo_arq"
               else _reference_plain_outcome)
    records = level_block(cfg, rho_db).records()
    for rec in records:
        counts = {"trials": 0, "errors": 0, "oob": 0, "timeouts": 0}
        while counts["trials"] < cfg.max_trials and counts["errors"] < cfg.min_errors:
            wrong, kind = outcome(cfg, rho, key, counts["trials"], rec.method)
            counts["trials"] += 1
            counts["errors"] += wrong
            counts["oob"] += kind == "out_of_codebook"
            counts["timeouts"] += kind == "timeout"
        got = {k: getattr(rec, k) for k in counts}
        assert got == counts, rec.method
    assert len({rec.trials for rec in records}) > 1   # methods stop apart


def test_channel_stage_runs_once_per_trial(monkeypatch):
    # A block's channel stage is built once, on stacks: one GDFE and one
    # gate of all its lanes; no lane is factored, gated, checked or
    # detected alone, but for `naive`'s QR.
    stacked = {"gdfe": [], "gate": []}
    calls = {"lane_gate": 0, "scan": 0, "lane_detector": 0}
    factored, reduced = [], []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def qr_spy(fn):
        def wrapper(m):
            factored.append(np.array(m))
            return fn(m)
        return wrapper

    def gdfe_spy(h, t_reg):
        stacked["gdfe"].append(np.shape(h))
        return mmse_gdfe_filters(h, t_reg)

    def gate_spy(m, *args, **kwargs):
        stacked["gate"].append(np.shape(m))
        gates = gated_reduce_stack(m, *args, **kwargs)
        for lane in range(len(m)):
            # A basis LLL leaves unchanged is the one the sphere search factors.
            basis = gates.outcome(lane).basis
            if basis is not None and not np.array_equal(basis.unimodular,
                                                        np.eye(len(basis.unimodular))):
                reduced.append(basis.reduced)
        return gates

    mmse_gdfe_filters, gated_reduce_stack = (decoders.mmse_gdfe_filters,
                                             decoders.gated_reduce_stack)
    monkeypatch.setattr(decoders, "mmse_gdfe_filters", gdfe_spy)
    monkeypatch.setattr(decoders, "gated_reduce_stack", gate_spy)
    monkeypatch.setattr(decoders, "gated_reduce", counted("lane_gate", decoders.gated_reduce))
    for detector in ("ml_decode", "sphere_decode_regularized", "babai_nearest_plane",
                     "lr_aided_linear"):
        monkeypatch.setattr(decoders, detector,
                            counted("lane_detector", getattr(decoders, detector)))
    for module in (decoders, reduction):
        monkeypatch.setattr(module, "qr_decompose", qr_spy(module.qr_decompose))
    cfg = rayleigh_config(n_ant=2, methods=decoders.METHODS,
                          min_errors=10**6, max_trials=60)
    # Count the sweep's NaN/Inf scans through every latdec namespace that
    # binds a checker: inputs are checked where they enter, not per layer.
    for name, module in list(sys.modules.items()):
        if name == "latdec" or name.startswith("latdec."):
            for checker in ("as_matrix", "as_vector", "_as_complex_matrix"):
                if hasattr(module, checker):
                    monkeypatch.setattr(module, checker,
                                        counted("scan", getattr(module, checker)))
    recs = level_block(cfg, 14.0).records()
    assert all(rec.trials == 60 for rec in recs)
    assert stacked == {"gdfe": [(60, 4, 4)], "gate": [(60, 4, 4)]}
    assert calls["lane_gate"] == calls["lane_detector"] == 0
    # `BlockStage.build` checks the block's stacks; no lane scans again.
    assert calls["scan"] == 0
    # One QR per lane for the naive sphere search, one of the block's stack
    # for the regularized one and one inside LLL; the detectors read the
    # reducer's factors and never factor a reduced basis.
    assert reduced and len(factored) == 60 + 2
    assert not any(np.array_equal(m, basis) for m in factored for basis in reduced)


# Every DIFFERENTIAL_CASES model, plus the 8x8 ARQ rungs (two rounds of the
# 2x2 design, which round 1 both ACKs and NACKs at this level) and a ball
# code of 17 points on a generator that is not triangular.
STAGE_CASES = dict(DIFFERENTIAL_CASES, arq_8x8=(
    ChannelConfig(model="mimo_arq", nt=2, nr=2, arq_rounds=2, arq_x_thresh=2.0),
    square_design(4), 15.0, 1.0, 1.0), rotated_ball=(
    ChannelConfig(model="quasi_static_rayleigh", nt=2, nr=2),
    LatticeDesign(generator=np.array([[1.0, 0.4, 0.0, 0.2], [0.3, 1.0, 0.1, 0.0],
                                      [0.0, 0.2, 1.0, 0.3], [0.1, 0.0, 0.4, 1.0]]),
                  region=ShapingRegion.ball(1.2), dither=np.full(4, 0.25)),
    14.0, 0.0, 1.0))


def stage_lanes(case, lanes, seed=5):
    """The case's first `lanes` draws at its level, written into one
    `BlockStage` and built for every method, with the draws."""
    chan, design, rho_db, r, alpha = STAGE_CASES[case]
    cfg = SweepConfig(design=design, channel=chan, methods=ALL_METHODS,
                      rho_db=(rho_db, rho_db + 4.0), r=r, seed=seed, gate_alpha=alpha)
    rho = 10.0 ** (rho_db / 10.0)
    rungs = cfg.cell_codebooks(rho_db)
    draw = chan.trial_sampler(rungs, rho,
                              lambda trial, *sub: trial_rng(seed, 0, 1, 2, trial, *sub))
    draws = [draw(trial) for trial in range(lanes)]
    stage = decoders.BlockStage(rungs, lanes, rho=rho, gate_alpha=alpha)
    for d in draws:
        stage.add(d.y, d.h, d.codebook, d.message)
    stage.build(ALL_METHODS)
    return stage, draws, rho, alpha


def assert_lane_is_the_per_trial_stage(lane, ref):
    """A lane's triangular form and gated reduction equal, bit for bit,
    what `prepared()` and `gated_reduce` give the per-trial stage."""
    got, want = lane.problem, ref.problem.prepared()
    for field in ("b", "yprime", "basis"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field
    assert got.gamma == want.gamma
    got, want = lane.reduction, ref.reduction
    assert (got.kappa, got.threshold, got.timed_out) == (
        want.kappa, want.threshold, want.timed_out)
    if not want.timed_out:
        for field in ("r", "q", "unimodular", "reduced"):
            assert np.array_equal(getattr(got.basis, field), getattr(want.basis, field)), field
        assert got.basis.iterations == want.basis.iterations


@pytest.mark.parametrize("case", sorted(STAGE_CASES))
def test_block_stage_matches_the_per_trial_stage(case):
    # 700 lanes per case, 4200 bases in all through the lockstep LLL, each
    # against the list loop of `gated_reduce` on the same basis.
    stage, draws, rho, alpha = stage_lanes(case, 700)
    refused = 0
    for i, d in enumerate(draws):
        ref = prepare(d.y, d.h, d.design, d.codebook, rho=rho, gate_alpha=alpha)
        assert_lane_is_the_per_trial_stage(stage.lane(i), ref)
        refused += ref.reduction.timed_out
    if case == "quasi_static_rayleigh":   # its low gate exponent refuses some
        assert refused > 0


def test_block_stage_refuses_at_the_swap_cap_as_the_list_loop(monkeypatch):
    # A cap of one swap refuses every basis that needs two, in both loops.
    monkeypatch.setattr(reduction, "iteration_bound_for_kappa", lambda kappa, n: 1)
    stage, draws, rho, alpha = stage_lanes("arq_8x8", 300)
    refused = 0
    for i, d in enumerate(draws):
        ref = prepare(d.y, d.h, d.design, d.codebook, rho=rho, gate_alpha=alpha)
        assert_lane_is_the_per_trial_stage(stage.lane(i), ref)
        refused += ref.reduction.timed_out and ref.reduction.kappa <= ref.reduction.threshold
    assert refused > 0


def test_a_rung_short_of_8n_lanes_is_reduced_lane_by_lane(monkeypatch):
    # 100 ARQ draws put 47 lanes on the 4x4 rung and 53 on the 8x8 one,
    # short of its 64: only the first goes through the lockstep loop, and
    # the other's lanes are gated and reduced one by one on first use.
    stacked, single = [], []
    gated_reduce_stack, gated_reduce = decoders.gated_reduce_stack, decoders.gated_reduce
    monkeypatch.setattr(decoders, "gated_reduce_stack",
                        lambda m, *args: stacked.append(m.shape) or gated_reduce_stack(m, *args))
    monkeypatch.setattr(decoders, "gated_reduce",
                        lambda m, *args: single.append(m.shape) or gated_reduce(m, *args))
    stage, draws, rho, alpha = stage_lanes("arq_8x8", 100)
    for i, d in enumerate(draws):
        ref = prepare(d.y, d.h, d.design, d.codebook, rho=rho, gate_alpha=alpha)
        assert_lane_is_the_per_trial_stage(stage.lane(i), ref)
    # Each per-trial reference gates its own basis too.
    assert stacked == [(47, 4, 4)]
    assert single.count((8, 8)) == 2 * 53 and len(single) == 100 + 53


def outcome_or_failure(stage, method):
    """What decoding a stage gives: the outcome's kind, coordinates and
    metric, or the failure's type and message."""
    try:
        out = decode(stage, method=method)
    except LatdecError as exc:
        return type(exc), str(exc)
    return out.kind, None if out.coords is None else tuple(out.coords), out.metric


def test_a_lane_whose_stage_fails_fails_as_it_does_alone(monkeypatch):
    # Lane 1's channel is singular and huge, so its Cholesky pivot falls
    # below the floor and its rung's stacked GDFE raises; lane 3's
    # generator axis of 2e-12 puts its basis under the QR floor (but not
    # its kappa over the threshold), so its rung's stacked gate raises.
    # Each rung is then left to the per-lane path: each method that reads
    # the failed part raises there, as the per-trial stage does, and the
    # other lanes decode.  (The block's rungs are short of 8 n lanes, so
    # the stacked gate is forced on.)
    monkeypatch.setattr(decoders, "_LOCKSTEP_LANES_PER_DIM", 0)
    design = square_design(2)
    book = enumerate_codebook(design, 1.0)
    thin = LatticeDesign(generator=np.diag([1.0, 2e-12]), region=ShapingRegion.ball(1.0))
    thin_book = Codebook(points=np.array([[0.0, 0.0], [1.0, 0.0]]),
                         coords=np.array([[0, 0], [1, 0]]), scale=1.0)
    lanes = [(np.array([0.4, 0.6]), np.eye(2), design, book),
             (np.array([1e9, 1e9]), np.full((2, 2), 1e9), design, book),
             (np.array([0.1, 0.2]), np.array([[1.0, 0.9], [0.2, 0.3]]), design, book),
             (np.array([0.9, 0.1]), np.diag([30.0, 0.1]), thin, thin_book)]
    stage = decoders.BlockStage([(design, book), (thin, thin_book)], len(lanes),
                                rho=100.0, gate_alpha=7.0)
    for y, h, _, b in lanes:
        stage.add(y, h, b, 0)
    stage.build(ALL_METHODS)
    seen = set()
    for i, (y, h, d, b) in enumerate(lanes):
        # (`reg_exact`'s unbounded search on the thin basis would run to its node cap.)
        for method in ("ml", "lr_sic", "lr_linear") if d is thin else ALL_METHODS:
            want = outcome_or_failure(prepare(y, h, d, b, rho=100.0, gate_alpha=7.0), method)
            assert outcome_or_failure(stage.lane(i), method) == want, (i, method)
            seen.add((i, want[0]))
    assert {(1, NotPositiveDefinite), (3, RankDeficient), (1, "codeword")} <= seen
    assert (3, "codeword") in seen or (3, "out_of_codebook") in seen


def lane_by_lane(lanes, method, budget, rho=None, alpha=None):
    """`decode(block, method=..., budget=...)` as a loop over the block's
    lanes, (y, H, design, codebook, message) each, every one decoded alone
    on its per-trial stage: the lanes decoded, the (lane, kind) of their
    errors, and the failure that stopped the loop as (lane, type, message)."""
    decoded, errors = 0, []
    for lane, (y, h, design, book, message) in enumerate(lanes):
        if budget is not None and len(errors) >= budget:
            break
        try:
            out = decode(prepare(y, h, design, book, rho=rho, gate_alpha=alpha),
                         method=method)
        except LatdecError as exc:
            return decoded, errors, (lane, type(exc), str(exc))
        decoded += 1
        if not (out.is_codeword and np.array_equal(out.coords, book.coords[message])):
            errors.append((lane, out.kind))
    return decoded, errors, None


def block_decode(stage, method, budget):
    """`decode(stage, method=..., budget=...)` in `lane_by_lane`'s terms."""
    out = decode(stage, method=method, budget=budget)
    failure = out.failure and (out.failure[0], type(out.failure[1]), str(out.failure[1]))
    return out.decoded, out.errors, failure


def assert_block_decodes_lane_by_lane(stage, lanes, methods, rho=None, alpha=None):
    """Every method's block decode equals the lane-by-lane loop at the
    budgets 0, 1, half its errors and more than it has; returns the
    lane-by-lane loops with no budget."""
    loops = {}
    for method in methods:
        loops[method] = want = lane_by_lane(lanes, method, None, rho, alpha)
        for budget in sorted({0, 1, len(want[1]) // 2, len(want[1]) + 1}):
            cut = lane_by_lane(lanes, method, budget, rho, alpha)
            assert block_decode(stage, method, budget) == cut, (method, budget)
        assert block_decode(stage, method, None) == want, method
    return loops


@pytest.mark.parametrize("case", sorted(STAGE_CASES))
def test_block_decode_matches_the_per_lane_loop(case):
    # 100 draws put 47 lanes on arq_8x8's 4x4 rung and 53 on its 8x8 one,
    # short of 8n = 64: its reduction-aided lanes go one by one.
    stage, draws, rho, alpha = stage_lanes(case, 100)
    lanes = [(d.y, d.h, d.design, d.codebook, d.message) for d in draws]
    loops = assert_block_decodes_lane_by_lane(stage, lanes, ALL_METHODS, rho, alpha)
    kinds = {kind for _, errors, _ in loops.values() for _, kind in errors}
    assert {"codeword", "out_of_codebook"} <= kinds
    if case == "quasi_static_rayleigh":   # its low gate exponent refuses some
        assert "timeout" in kinds


def test_block_decode_of_lanes_refused_at_the_swap_cap(monkeypatch):
    # A cap of one swap refuses every basis that needs two: a timeout,
    # through the lockstep loop and the list loop alike.
    monkeypatch.setattr(reduction, "iteration_bound_for_kappa", lambda kappa, n: 1)
    stage, draws, rho, alpha = stage_lanes("arq_8x8", 300)
    lanes = [(d.y, d.h, d.design, d.codebook, d.message) for d in draws]
    loops = assert_block_decodes_lane_by_lane(stage, lanes, ("lr_sic", "lr_linear"),
                                              rho, alpha)
    assert all(("timeout" in {kind for _, kind in loop[1]}) for loop in loops.values())


def test_block_ml_breaks_near_ties_as_the_scan():
    # Targets a hair (1e-13) right of the midpoint between two codewords:
    # within the scan's tie tolerance, so both decodes return the
    # lexicographically first codeword, the farther one.
    design = square_design(2)
    book = enumerate_codebook(design, 1.0)
    lanes = [(np.array([x, y]), np.eye(2), design, book, message)
             for x in (1e-13, -0.5) for y in (0.5, 1e-13, -0.5) for message in range(book.size)]
    stage = decoders.BlockStage([(design, book)], len(lanes))
    for y, h, _, b, message in lanes:
        stage.add(y, h, b, message)
    stage.build(("ml",))
    decoded, errors, _ = assert_block_decodes_lane_by_lane(stage, lanes, ("ml",))["ml"]
    want = [lane for lane, (y, *_, message) in enumerate(lanes) if not np.array_equal(
        book.points[message], [-0.5, 0.5 if y[1] == 0.5 else -0.5])]
    assert decoded == len(lanes) and [lane for lane, _ in errors] == want


def ml_scan_limits(sizes):
    """`ML_SCAN_MAX_POINTS` values around codebooks of `sizes` points: each
    book searched, scanned one lane at a time on either side of a two-lane
    chunk, and in chunks of 7 lanes with a short last one."""
    return sorted({limit for size in sizes
                   for limit in (size - 1, size, 2 * size - 1, 2 * size, 7 * size + 3)})


@pytest.mark.parametrize("case", ["arq_8x8", "rotated_ball"])
def test_block_ml_scans_in_chunks_and_searches_as_the_per_lane_loop(monkeypatch, case):
    stage, draws, rho, alpha = stage_lanes(case, 100)
    lanes = [(d.y, d.h, d.design, d.codebook, d.message) for d in draws]
    sizes = {stack.book.size for stack in stage._filled()}
    for limit in ml_scan_limits(sizes):
        monkeypatch.setattr(decoders, "ML_SCAN_MAX_POINTS", limit)
        assert_block_decodes_lane_by_lane(stage, lanes, ("ml",))


# Lane 1 of each block below fails every method but `ml`: where it is
# singular and huge, its rung has no triangular form; where it is thin, its
# rung has no gate stack, and its basis fails `reg_exact`'s stacked QR.
FELL_BACK = {
    "singular": {"naive": RankDeficient, "reg_exact": NotPositiveDefinite,
                 "lr_sic": NotPositiveDefinite, "lr_linear": NotPositiveDefinite},
    "thin": {"naive": NearSingularChannel, "reg_exact": RankDeficient,
             "lr_sic": RankDeficient, "lr_linear": RankDeficient},
}


@pytest.mark.parametrize("lockstep", [True, False], ids=["gate-stack", "per-lane-gate"])
@pytest.mark.parametrize("failing", sorted(FELL_BACK))
def test_block_decode_of_rungs_that_fell_back(monkeypatch, failing, lockstep):
    # The lanes of `test_a_lane_whose_stage_fails_fails_as_it_does_alone`,
    # twice over, with the singular or the thin one second.
    if lockstep:
        monkeypatch.setattr(decoders, "_LOCKSTEP_LANES_PER_DIM", 0)
    design = square_design(2)
    book = enumerate_codebook(design, 1.0)
    thin = LatticeDesign(generator=np.diag([1.0, 2e-12]), region=ShapingRegion.ball(1.0))
    thin_book = Codebook(points=np.array([[0.0, 0.0], [1.0, 0.0]]),
                         coords=np.array([[0, 0], [1, 0]]), scale=1.0)
    lanes = {"singular": (np.array([1e9, 1e9]), np.full((2, 2), 1e9), design, book, 0),
             "thin": (np.array([0.9, 0.1]), np.diag([30.0, 0.1]), thin, thin_book, 1)}
    lanes = [(np.array([0.4, 0.6]), np.eye(2), design, book, 1), lanes.pop(failing),
             (np.array([0.1, 0.2]), np.array([[1.0, 0.9], [0.2, 0.3]]), design, book, 2),
             *lanes.values()] * 2
    stage = decoders.BlockStage([(design, book), (thin, thin_book)], len(lanes),
                                rho=100.0, gate_alpha=7.0)
    for y, h, _, b, message in lanes:
        stage.add(y, h, b, message)
    stage.build(ALL_METHODS)
    loops = assert_block_decodes_lane_by_lane(stage, lanes, ALL_METHODS, 100.0, 7.0)
    assert loops["ml"][0] == len(lanes) and loops["ml"][2] is None
    assert {m: loop[2][:2] for m, loop in loops.items() if loop[2]} == {
        m: (1, error) for m, error in FELL_BACK[failing].items()}


def per_trial_tally(cfg, rho_db):
    """`sweep_cell`'s tally of a whole level as a per-trial loop: trials in
    order, each running method in the config's order on the trial's own
    stage, a failure listed as (trial, method, type, message)."""
    rho = 10.0 ** (rho_db / 10.0)
    key = (dmtsim._key_from_float(rho_db), dmtsim._key_from_float(cfg.r))
    draw = cfg.channel.trial_sampler(cfg.cell_codebooks(rho_db), rho,
                                     lambda trial, *sub: trial_rng(cfg.seed, 0, *key, trial, *sub))
    active = list(cfg.methods)
    trials, errors, failures = dict.fromkeys(active, 0), {m: [] for m in active}, []
    for trial in range(cfg.max_trials):
        d = draw(trial)
        for method in tuple(active):
            try:
                out = decode(prepare(d.y, d.h, d.design, d.codebook, rho=rho,
                                     gate_alpha=cfg.gate_alpha), method=method)
            except LatdecError as exc:
                failures.append((trial, method, type(exc), str(exc)))
                active.remove(method)
                continue
            trials[method] += 1
            if not (out.is_codeword and np.array_equal(out.coords,
                                                       d.codebook.coords[d.message])):
                errors[method].append((trial, out.kind))
                if len(errors[method]) >= cfg.min_errors:
                    active.remove(method)
    return trials, errors, failures


@pytest.mark.parametrize("block", [7, 64])
@pytest.mark.parametrize("model, first", [("quasi_static_rayleigh", (18, "reg_exact")),
                                          ("mimo_ofdm", (32, "naive"))])
def test_enumeration_overflow_mid_block_is_listed_in_serial_order(
        monkeypatch, model, first, block):
    # At a cap of 20 nodes the Rayleigh level's `reg_exact` overflows at
    # trial 18, before `naive` (listed first) does at 22, and the OFDM
    # level's both overflow at trial 32: mid-block, in one block of 64
    # trials or in blocks of 7.
    monkeypatch.setattr(decoders, "NODE_BUDGET", 20)
    monkeypatch.setattr(dmtsim, "BLOCK_TRIALS", block)
    cfg = differential_config(model, max_trials=120)
    tally = level_block(cfg, cfg.rho_db[0])
    trials, errors, failures = per_trial_tally(cfg, cfg.rho_db[0])
    assert (tally.trials, tally.errors) == (trials, errors)
    assert [(t, m, type(e), str(e)) for t, m, e in tally.failures] == failures
    assert failures[0][:2] == first and len(failures) == 2
    assert all(trial % dmtsim.BLOCK_TRIALS for trial, *_ in failures)


def differential_config(model, **kw):
    """All five methods on a DIFFERENTIAL_CASES model at two levels."""
    chan, design, rho_db, r, alpha = DIFFERENTIAL_CASES[model]
    settings = dict(methods=ALL_METHODS, rho_db=(rho_db, rho_db + 4.0), r=r,
                    min_errors=20, max_trials=400, seed=5, gate_alpha=alpha)
    settings.update(kw)
    return SweepConfig(design=design, channel=chan, **settings)


# Every model; plus a fixed trial count (min_errors out of reach) whose
# max_trials is a multiple of none of the block sizes.
POOLED_CASES = {model: (model, {}) for model in DIFFERENTIAL_CASES}
POOLED_CASES["fixed_count"] = ("quasi_static_rayleigh",
                               dict(min_errors=10**6, max_trials=50))


def pooled_config(case):
    model, settings = POOLED_CASES[case]
    return differential_config(model, **settings)


def whole_cell_records(cfg):
    """Records of one whole-cell `sweep_cell` per level, in grid order:
    the serial reference, which runs no block scan."""
    return [rec for rho_db in cfg.rho_db for rec in level_block(cfg, rho_db).records()]


@pytest.fixture(scope="module")
def serial_records():
    cache = {}

    def get(case):
        if case not in cache:
            cache[case] = whole_cell_records(pooled_config(case))
        return cache[case]
    return get


@pytest.mark.parametrize("block", [1, 7, 64, dmtsim.BLOCK_TRIALS])
@pytest.mark.parametrize("case", sorted(POOLED_CASES))
def test_pooled_blocks_match_serial(monkeypatch, serial_records, case, block):
    # Every run cuts each level into blocks, which the serial run runs in
    # trial order and the pool in any order; scanning them in trial order
    # must give the whole-cell records whatever the block size, including
    # methods stopped by max_trials.
    cfg = pooled_config(case)
    monkeypatch.setattr(dmtsim, "BLOCK_TRIALS", block)
    serial = run_sweep(cfg)
    pooled = run_sweep(cfg, workers=2)
    assert serial.records == serial_records(case)
    assert pooled.records == serial_records(case)
    assert pooled.slopes == serial.slopes


def test_pooled_method_stopping_on_block_boundary(monkeypatch, serial_records):
    serial = serial_records("quasi_static_rayleigh")
    cfg = differential_config("quasi_static_rayleigh")
    stop = min(rec.trials for rec in serial if rec.errors == cfg.min_errors)
    # The stopping error is the last trial of a block, then the first.
    for block in (stop, stop - 1):
        monkeypatch.setattr(dmtsim, "BLOCK_TRIALS", block)
        for workers in (1, 2):
            assert run_sweep(cfg, workers=workers).records == serial


def scan_every_block(cfg, rho_db, block):
    """Every block of a level with the full budget min_errors, the most a
    block can speculate, scanned last block first."""
    scan = dmtsim._CellScan(cfg, rho_db)
    budgets = dict.fromkeys(cfg.methods, cfg.min_errors)
    for start in reversed(range(0, cfg.max_trials, block)):
        scan.receive(level_block(cfg, rho_db, start,
                                 min(start + block, cfg.max_trials), budgets))
    assert scan.closed
    return scan


@pytest.mark.parametrize("model", sorted(DIFFERENTIAL_CASES))
def test_scan_of_speculative_blocks_matches_serial(model, serial_records):
    cfg = differential_config(model)
    for rho_db in cfg.rho_db:
        scan = scan_every_block(cfg, rho_db, 32)
        assert not scan.tally.failures
        assert scan.tally.records() == [rec for rec in serial_records(model)
                                         if rec.rho_db == rho_db]


def plant_failures(monkeypatch, plants):
    """Raise NearSingularChannel at each (rho_db, trial, method) of
    `plants`: in that method's decode of the trial's lane, or for method
    None in the trial's draw.  Forked pool workers inherit the patch."""
    keys = {(dmtsim._key_from_float(rho_db), trial): (rho_db, method)
            for rho_db, trial, method in plants}
    current = {}

    def keyed_rng(*key):
        plant = current["draw"] = keys.get((key[2], key[4]))
        if plant is not None and plant[1] is None:
            raise NearSingularChannel(f"planted at {plant[0]} dB, method None")
        return trial_rng(*key)

    class PlantedStage(decoders.BlockStage):
        """Lane i is the block's i-th draw: its plant is noted when the
        draw is added."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.plants = []

        def add(self, *args):
            super().add(*args)
            self.plants.append(current["draw"])

    def planted_decode(block, *, method, budget):
        # The block's outcome cut where the method reaches its planted lane,
        # as a decode raising there would cut it.
        out = decoders.decode(block, method=method, budget=budget)
        planted = [lane for lane, plant in enumerate(block.plants)
                   if plant is not None and plant[1] == method]
        if planted and planted[0] < out.decoded:
            lane = planted[0]
            exc = NearSingularChannel(f"planted at {block.plants[lane][0]} dB, method {method}")
            out = decoders.BlockOutcome(decoded=lane, failure=(lane, exc), errors=[
                error for error in out.errors if error[0] < lane])
        return out

    monkeypatch.setattr(dmtsim, "trial_rng", keyed_rng)
    monkeypatch.setattr(dmtsim, "BlockStage", PlantedStage)
    monkeypatch.setattr(dmtsim, "decode", planted_decode)


# In the Rayleigh case at 12 dB `naive` stops after trial 59, `lr_linear`
# after trial 52 and the level after trial 231 (`ml`); at 16 dB
# `lr_linear` stops after trial 315 and `ml` runs all 400 trials.
@pytest.mark.parametrize("plants", [
    [(12.0, 70, "naive")], [(12.0, 300, None)],
    [(12.0, 70, "naive"), (12.0, 300, None), (16.0, 330, "lr_linear")]],
    ids=["method", "draw", "both-levels"])
def test_failures_past_the_stopping_trial_are_never_raised(
        monkeypatch, serial_records, plants):
    serial = serial_records("quasi_static_rayleigh")
    cfg = differential_config("quasi_static_rayleigh")
    plant_failures(monkeypatch, plants)
    assert whole_cell_records(cfg) == serial
    assert run_sweep(cfg).records == serial
    monkeypatch.setattr(dmtsim, "BLOCK_TRIALS", 7)
    for workers in (1, 2):
        assert run_sweep(cfg, workers=workers).records == serial
    scan = scan_every_block(cfg, 12.0, 7)
    assert not scan.tally.failures
    assert scan.tally.records() == serial[:len(cfg.methods)]


@pytest.mark.parametrize("plants, raised", [
    ([(12.0, 40, "naive")], "12.0 dB, method naive"),
    ([(12.0, 100, None)], "12.0 dB, method None"),
    # Serial order is level first: the lower level's later trial wins.
    ([(16.0, 0, "ml"), (12.0, 40, "lr_linear"), (12.0, 70, "naive")],
     "12.0 dB, method lr_linear"),
    # Two failures the serial run reaches in one block: the earlier wins.
    ([(12.0, 45, "lr_linear"), (12.0, 40, "naive")], "12.0 dB, method naive")],
    ids=["method", "draw", "lower-level-first", "earlier-trial-first"])
def test_failures_before_the_stopping_trial_raise_as_serial(
        monkeypatch, plants, raised):
    cfg = differential_config("quasi_static_rayleigh")
    plant_failures(monkeypatch, plants)
    with pytest.raises(NearSingularChannel, match=raised):
        whole_cell_records(cfg)
    for block in (7, dmtsim.BLOCK_TRIALS):
        monkeypatch.setattr(dmtsim, "BLOCK_TRIALS", block)
        for workers in (1, 2):
            with pytest.raises(NearSingularChannel) as failure:
                run_sweep(cfg, workers=workers)
            assert str(failure.value) == f"planted at {raised}"


def test_sweep_cell_lists_failures_and_records_raise_the_first(monkeypatch):
    cfg = differential_config("quasi_static_rayleigh")
    plant_failures(monkeypatch, [(12.0, 40, "naive"), (12.0, 100, None)])
    tally = level_block(cfg, 12.0)
    # `naive` stops at its failure, the others run on to the failed draw.
    assert [(trial, method) for trial, method, _ in tally.failures] == [
        (40, "naive"), (100, None)]
    assert tally.trials["naive"] == 40 and tally.trials["ml"] == 100
    with pytest.raises(NearSingularChannel, match="12.0 dB, method naive") as raised:
        tally.records()
    assert raised.value is tally.failures[0][2]


def test_serial_blocks_run_in_trial_order(monkeypatch, serial_records):
    serial = serial_records("quasi_static_rayleigh")
    cfg = differential_config("quasi_static_rayleigh")
    blocks = []

    def spy(config, rungs, rho_db, start, stop, budgets):
        blocks.append((rho_db, start, stop))
        return sweep_cell(config, rungs, rho_db, start, stop, budgets)

    monkeypatch.setattr(dmtsim, "sweep_cell", spy)
    monkeypatch.setattr(dmtsim, "BLOCK_TRIALS", 7)
    assert run_sweep(cfg).records == serial
    # One block after another up to each level's last trial: none is
    # speculative.
    for rho_db in cfg.rho_db:
        last = max(rec.trials for rec in serial if rec.rho_db == rho_db)
        assert [b[1:] for b in blocks if b[0] == rho_db] == [
            (start, min(start + 7, cfg.max_trials)) for start in range(0, last, 7)]


def test_serial_failure_ends_the_run_within_a_block(monkeypatch):
    cfg = differential_config("quasi_static_rayleigh")
    plant_failures(monkeypatch, [(12.0, 0, "naive")])
    calls = []
    planted = dmtsim.decode

    def counted(block, *, method, budget):
        out = planted(block, method=method, budget=budget)
        calls.append((method, out.decoded))
        return out

    monkeypatch.setattr(dmtsim, "decode", counted)
    monkeypatch.setattr(dmtsim, "BLOCK_TRIALS", 7)
    with pytest.raises(NearSingularChannel, match="12.0 dB, method naive"):
        run_sweep(cfg)
    # One decode of the first block per method: `naive` fails on its first
    # lane, `ml` runs on to the end of the failed block, and no further.
    decoded = dict(calls)
    assert len(calls) == len(cfg.methods) and decoded.keys() == set(cfg.methods)
    assert decoded["naive"] == 0 and decoded["ml"] == dmtsim.BLOCK_TRIALS


class PlantedBug(Exception):
    """A fault that is not a `LatdecError`: no sweep may catch or reword it."""


def test_unexpected_exception_leaves_the_sweep_unchanged(monkeypatch):
    # Planted in each block's channel stage, inside `sweep_cell`: the serial
    # run raises it from its own frame, the pool from a worker.
    cfg = differential_config("quasi_static_rayleigh")

    class BrokenStage(decoders.BlockStage):
        def build(self, methods):
            raise PlantedBug("planted: the stage is broken")

    monkeypatch.setattr(dmtsim, "BlockStage", BrokenStage)
    for workers in (1, 2):
        with pytest.raises(PlantedBug) as raised:
            run_sweep(cfg, workers=workers)
        assert type(raised.value) is PlantedBug, workers
        assert str(raised.value) == "planted: the stage is broken", workers


def test_repeated_method_is_rejected():
    # Each trial would decode, and count its error, once per listing.
    with pytest.raises(ValueError, match="'ml' is listed twice"):
        rayleigh_config(methods=("ml", "lr_linear", "ml"))


def spy_enumeration(monkeypatch, fail_first=False):
    """Record (dimension, phi) of every `channels.enumerate_codebook` call;
    with `fail_first` the first call raises EmptyCodebook instead."""
    built = []

    def spy(design, phi):
        built.append((design.dimension, phi))
        if fail_first and len(built) == 1:
            raise EmptyCodebook("planted at the first set-up")
        return enumerate_codebook(design, phi)

    monkeypatch.setattr(channels, "enumerate_codebook", spy)
    return built


@pytest.mark.parametrize("model", ["quasi_static_rayleigh", "mimo_arq"])
def test_every_level_is_set_up_once(monkeypatch, model):
    # Many blocks per level; each level's rungs (three for the ARQ ladder)
    # are enumerated once, in this process, whether its blocks run here or
    # in the pool.
    cfg = differential_config(model)
    want = [(d.dimension, book.scale)
            for rho_db in cfg.rho_db for d, book in cfg.cell_codebooks(rho_db)]
    assert len(want) == len(cfg.rho_db) * cfg.channel.arq_rounds
    monkeypatch.setattr(dmtsim, "BLOCK_TRIALS", 7)
    built = spy_enumeration(monkeypatch)
    for workers in (1, 2):
        built.clear()
        run_sweep(cfg, workers=workers)
        assert built == want, workers


def test_set_up_failure_at_the_lowest_level_runs_no_block(monkeypatch):
    cfg = differential_config("mimo_arq")
    [(design, book), *_] = cfg.cell_codebooks(cfg.rho_db[0])
    blocks = []

    def spy(config, rungs, rho_db, *block):
        blocks.append(rho_db)
        return sweep_cell(config, rungs, rho_db, *block)

    # Threads, so that the spy sees the blocks a pool would run.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        concurrent.futures.ThreadPoolExecutor)
    monkeypatch.setattr(dmtsim, "sweep_cell", spy)
    monkeypatch.setattr(dmtsim, "BLOCK_TRIALS", 7)
    for workers in (1, 2):
        built = spy_enumeration(monkeypatch, fail_first=True)
        with pytest.raises(EmptyCodebook, match="planted at the first set-up"):
            run_sweep(cfg, workers=workers)
        # No higher level is set up, and no block of any level runs.
        assert built == [(design.dimension, book.scale)]
        assert blocks == []


def test_pooled_run_submits_each_level_before_setting_up_the_next(
        monkeypatch, serial_records):
    # The pool starts on level 0 while the levels above are still set up:
    # each level's first block goes out after its own set-up and before the
    # next level's.
    cfg = differential_config("quasi_static_rayleigh")
    built = spy_enumeration(monkeypatch)
    first_blocks = {}   # level -> enumerations done when its first block went out

    class Pool(concurrent.futures.ThreadPoolExecutor):
        def submit(self, fn, config, rungs, rho_db, *block):
            first_blocks.setdefault(rho_db, len(built))
            return super().submit(fn, config, rungs, rho_db, *block)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    assert run_sweep(cfg, workers=2).records == serial_records("quasi_static_rayleigh")
    assert first_blocks == {rho_db: level + 1 for level, rho_db in enumerate(cfg.rho_db)}


def test_set_up_failure_at_the_second_level_raises_as_serial(monkeypatch):
    cfg = differential_config("quasi_static_rayleigh", rho_db=(12.0, 16.0, 20.0))
    [(design, book)] = cfg.cell_codebooks(12.0)
    set_up = SweepConfig.cell_codebooks

    def planted(config, rho_db):
        if rho_db == 16.0:
            raise EmptyCodebook("planted at the 16.0 dB set-up")
        return set_up(config, rho_db)

    monkeypatch.setattr(SweepConfig, "cell_codebooks", planted)
    monkeypatch.setattr(dmtsim, "BLOCK_TRIALS", 7)
    for workers in (1, 2):
        built = spy_enumeration(monkeypatch)
        with pytest.raises(EmptyCodebook, match="planted at the 16.0 dB set-up"):
            run_sweep(cfg, workers=workers)
        # The level below is set up; the 20 dB level above never is.
        assert built == [(design.dimension, book.scale)], workers


def test_serial_sweep_does_not_load_multiprocessing():
    script = "\n".join([
        "import sys",
        "import numpy as np",
        "import latdec",
        "design = latdec.LatticeDesign(",
        "    generator=np.eye(2), region=latdec.ShapingRegion.box(np.full(2, 0.6)),",
        "    coding_duration=1, dither=np.full(2, 0.5))",
        "channel = latdec.ChannelConfig(model='quasi_static_rayleigh', nt=1, nr=1)",
        "cfg = latdec.SweepConfig(design=design, channel=channel, methods=('ml',),",
        "                         rho_db=(10.0, 14.0), r=0.0, min_errors=20,",
        "                         max_trials=300, seed=11)",
        "import threading",
        "started = []",
        "start = threading.Thread.start",
        "threading.Thread.start = lambda self: (started.append(self), start(self))[1]",
        "assert len(latdec.run_sweep(cfg).records) == 2",
        "print(sorted(m for m in sys.modules",
        "             if m.split('.')[0] in ('multiprocessing', 'concurrent')), started)",
    ])
    src = str(Path(dmtsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    # No module of either package is loaded, and no thread is started.
    assert proc.stdout.strip() == "[] []"
