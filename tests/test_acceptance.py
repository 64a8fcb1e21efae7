"""End-to-end acceptance suite.

Ten release gates, one test each, covering: the two algebraic forms of the
regularized metric, the exact search against an exhaustive oracle, the
worst-case approximation ceilings of the reduction-aided decoders, the
reduction swap-count bound, two Monte Carlo diversity-slope studies (1x1
pilot and 2x2 fixed-rate), the regularization benefit over the naive
decoder, the condition-gate timeout accounting, outage consistency, and
byte-level determinism of serialized results.

Each test finishes by printing a single ``criterion NN: PASS/FAIL`` line
with its headline numbers (visible under ``pytest -s`` and in failure
output) and then asserts the same condition.  The two sweeps are module
fixtures so dependent criteria reuse them instead of re-running them.
"""

import itertools
import math
import time

import numpy as np
import pytest

from latdec import cli
from latdec.channels import sample_quasi_static_rayleigh, trial_rng
from latdec.decoders import (
    RegularizedProblem,
    approximation_ratio,
    babai_nearest_plane,
    lr_aided_linear,
    sphere_decode_regularized,
)
from latdec.dmtsim import (
    ChannelConfig,
    SweepConfig,
    estimate_diversity_slope,
    estimate_outage_probability,
    run_sweep,
    sweep_cell,
)
from latdec.lattice import (
    LatticeDesign,
    ShapingRegion,
    enumerate_codebook,
    scaling_factor,
)
from latdec.reduction import (
    condition_number_2norm,
    gate_exponent_default,
    integer_det,
    is_lll_reduced,
    iteration_bound_for_kappa,
    lll_reduce,
)

SEED = 20260822


def report(num, ok, detail):
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} -- {detail}"
    print(line)
    assert ok, line


def cubic_design(n, half_width=0.6, dither=0.5):
    return LatticeDesign(
        generator=np.eye(n),
        region=ShapingRegion.box(np.full(n, half_width)),
        coding_duration=1,
        dither=np.full(n, dither),
    )


def pilot_config():
    """1x1 Rayleigh pilot: scaled-Z^2 design, r=0, five SNR points."""
    return SweepConfig(
        design=cubic_design(2),
        channel=ChannelConfig(model="quasi_static_rayleigh", nt=1, nr=1),
        methods=("ml", "lr_linear"),
        rho_db=(14.0, 18.0, 22.0, 26.0, 30.0),
        r=0.0,
        min_errors=50,
        max_trials=200000,
        seed=SEED,
        gate_alpha=gate_exponent_default(1.0),
    )


def vblast_config():
    """2x2 Rayleigh fixed-rate uncoded spatial multiplexing: Z^4, T=1."""
    return SweepConfig(
        design=cubic_design(4),
        channel=ChannelConfig(model="quasi_static_rayleigh", nt=2, nr=2),
        methods=("ml", "lr_linear"),
        rho_db=(10.0, 14.0, 18.0, 22.0, 26.0, 30.0),
        r=0.0,
        min_errors=50,
        max_trials=200000,
        seed=SEED,
        gate_alpha=gate_exponent_default(2.0),
    )


@pytest.fixture(scope="module")
def pilot_run():
    t0 = time.time()
    cfg = pilot_config()
    result = run_sweep(cfg, workers=2)
    return cfg, result, time.time() - t0


@pytest.fixture(scope="module")
def vblast_run():
    t0 = time.time()
    cfg = vblast_config()
    result = run_sweep(cfg, workers=2)
    return cfg, result, time.time() - t0


def record_for(result, method, rho_db):
    matches = [r for r in result.records
               if r.method == method and r.rho_db == rho_db]
    assert len(matches) == 1
    return matches[0]


def binomial_stderr(rec):
    return math.sqrt(rec.p_hat * (1.0 - rec.p_hat) / rec.trials)


def test_criterion_01_metric_identity_suite():
    """Direct objective vs the filtered quadratic-plus-offset form."""
    rng = np.random.default_rng(1001)
    t0 = time.time()
    worst = 0.0
    for _ in range(10000):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 9))
        h = rng.standard_normal((m, n))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        t_reg = q @ np.diag(rng.uniform(0.2, 2.0, n)) @ q.T
        t_reg = 0.5 * (t_reg + t_reg.T)
        y = rng.standard_normal(m)
        u = rng.standard_normal(n)
        x = rng.standard_normal(n)
        prob = RegularizedProblem(y=y, h=h, t_reg=t_reg,
                                  scaled_generator=np.eye(n), dither=u)
        resid = y - h @ x
        direct = float(resid @ resid) + float((x - u) @ t_reg @ (x - u))
        prep = prob.prepared()
        alt_resid = prep.yprime - prep.b @ (x - u)
        filtered = float(alt_resid @ alt_resid) + prep.gamma
        rel = abs(direct - filtered) / max(direct, filtered, 1e-30)
        worst = max(worst, rel)
    elapsed = time.time() - t0
    ok = worst <= 1e-8 and elapsed < 5.0
    report(1, ok, f"10000 instances, worst relative gap {worst:.2e}, "
                  f"{elapsed:.1f}s (budget 5s)")


def test_criterion_02_exact_decoder_oracle_suite():
    """Depth-first search vs exhaustive scan of an integer cube."""
    rng = np.random.default_rng(1002)
    t0 = time.time()
    radius = 5
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(n, 7))
        h = rng.standard_normal((m, n))
        t_reg = np.eye(n) * float(rng.uniform(0.5, 2.0))
        y = rng.standard_normal(m)
        u = rng.uniform(0.0, 1.0, n)
        prob = RegularizedProblem(y=y, h=h, t_reg=t_reg,
                                  scaled_generator=np.eye(n), dither=u)
        res = sphere_decode_regularized(prob)
        grid = np.array(list(itertools.product(range(-radius, radius + 1),
                                               repeat=n)), dtype=np.float64)
        points = grid + u[None, :]
        resid = y[None, :] - points @ h.T
        metrics = (np.einsum("ij,ij->i", resid, resid)
                   + np.einsum("ij,jk,ik->i", grid, t_reg, grid))
        order = np.argsort(metrics)
        best = float(metrics[order[0]])
        runner_up = float(metrics[order[1]])
        metric_ok = np.isclose(res.metric, best, rtol=1e-9, atol=1e-12)
        tie = (runner_up - best) <= 1e-9
        coords_ok = tie or np.array_equal(res.coords,
                                          grid[order[0]].astype(np.int64))
        if not (metric_ok and coords_ok):
            mismatches += 1
    elapsed = time.time() - t0
    ok = mismatches == 0 and elapsed < 60.0
    report(2, ok, f"1000 instances, {mismatches} mismatches, "
                  f"{elapsed:.1f}s (budget 60s)")


def test_criterion_03_approximation_ratio_ceilings():
    """Reduction-aided one-shot decoders never exceed their proven caps."""
    rng = np.random.default_rng(1003)
    t0 = time.time()
    violations = 0
    max_ratios = {}
    for n in (2, 4, 6, 8):
        cap_babai = 2.0 ** (n / 2.0)
        cap_linear = 1.0 + 2.0 * n * 4.5 ** (n / 2.0)
        worst_babai = 0.0
        worst_linear = 0.0
        for _ in range(10000):
            h = rng.standard_normal((n, n))
            y = rng.standard_normal(n)
            u = rng.uniform(0.0, 1.0, n)
            prob = RegularizedProblem(y=y, h=h, t_reg=np.eye(n),
                                      scaled_generator=np.eye(n), dither=u)
            reduced = lll_reduce(prob.prepared().basis)
            exact = sphere_decode_regularized(prob)
            babai = babai_nearest_plane(prob, reduced)
            linear = lr_aided_linear(prob, reduced)
            r_babai = approximation_ratio(prob, babai.point, exact.point)
            r_linear = approximation_ratio(prob, linear.point, exact.point)
            worst_babai = max(worst_babai, r_babai)
            worst_linear = max(worst_linear, r_linear)
            if r_babai > cap_babai or r_linear > cap_linear:
                violations += 1
        max_ratios[n] = (worst_babai, worst_linear)
    elapsed = time.time() - t0
    ok = violations == 0 and elapsed < 180.0
    ratio_text = " ".join(
        f"n={n}: nearest-plane {b:.2f}/{2.0 ** (n / 2.0):.0f} "
        f"linear {l:.2f}/{1.0 + 2.0 * n * 4.5 ** (n / 2.0):.0f}"
        for n, (b, l) in max_ratios.items())
    report(3, ok, f"40000 instances, {violations} violations; "
                  f"empirical max ratios vs caps: {ratio_text}; "
                  f"{elapsed:.1f}s (budget 180s)")


def test_criterion_04_reduction_swap_bound_suite():
    """Swap counts stay below the condition-number bound; transforms are
    exactly unimodular; the reduced basis passes the reducedness check."""
    rng = np.random.default_rng(1004)
    t0 = time.time()
    violations = 0
    worst_fill = 0.0
    checked = 0
    while checked < 1000:
        n = int(rng.integers(2, 9))
        m = rng.standard_normal((n, n))
        if checked % 3 == 2:
            # Stress conditioning with graded column scales.
            m = m @ np.diag(np.logspace(0, rng.uniform(1.0, 5.0), n))
        kappa = condition_number_2norm(m)
        if not np.isfinite(kappa) or kappa > 1e6:
            continue
        checked += 1
        res = lll_reduce(m)
        bound = iteration_bound_for_kappa(kappa, n)
        good = (res.iterations <= bound
                and abs(integer_det(res.unimodular)) == 1
                and is_lll_reduced(res.reduced)[0]
                and np.allclose(res.reduced,
                                m @ res.unimodular.astype(np.float64)))
        if not good:
            violations += 1
        if bound > 0:
            worst_fill = max(worst_fill, res.iterations / bound)
    elapsed = time.time() - t0
    ok = violations == 0 and elapsed < 30.0
    report(4, ok, f"1000 instances, {violations} violations, "
                  f"max swaps/bound {worst_fill:.3f}, "
                  f"{elapsed:.1f}s (budget 30s)")


def test_criterion_05_pilot_diversity_slopes(pilot_run):
    """1x1 Rayleigh, r=0: both decoders show unit diversity slope."""
    cfg, result, elapsed = pilot_run
    parts = []
    ok = elapsed < 300.0
    for method in ("ml", "lr_linear"):
        slope = result.slopes[method]
        good = slope is not None and abs(slope.d_hat - 1.0) <= 0.25
        ok = ok and good
        if slope is None:
            parts.append(f"{method} slope unavailable")
        else:
            parts.append(f"{method} {slope.d_hat:.3f}+/-{slope.stderr:.3f}")
    report(5, ok, f"{'; '.join(parts)}; target 1.0+/-0.25; "
                  f"{elapsed:.0f}s (budget 300s)")


def test_criterion_06_vblast_slope_tracking(vblast_run):
    """2x2 fixed-rate: reduction-aided linear tracks the exhaustive
    decoder's slope on the same cells with paired randomness."""
    cfg, result, elapsed = vblast_run

    def qualifying(method):
        return {r.rho_db for r in result.records
                if r.method == method and r.errors >= cfg.min_errors
                and r.p_hat < 0.5}

    common = sorted(qualifying("ml") & qualifying("lr_linear"))[-3:]
    slopes = {}
    for method in ("ml", "lr_linear"):
        subset = [r for r in result.records
                  if r.method == method and r.rho_db in common]
        slopes[method] = estimate_diversity_slope(
            subset, min_errors=cfg.min_errors, top_points=len(common))
    ok = (elapsed < 900.0 and len(common) == 3
          and slopes["ml"] is not None and slopes["lr_linear"] is not None)
    if ok:
        gap = abs(slopes["lr_linear"].d_hat - slopes["ml"].d_hat)
        ok = gap <= 0.3
        detail = (f"shared cells {common} dB: ml {slopes['ml'].d_hat:.3f}, "
                  f"lr_linear {slopes['lr_linear'].d_hat:.3f}, "
                  f"gap {gap:.3f} (limit 0.3); "
                  f"{elapsed:.0f}s (budget 900s)")
    else:
        detail = (f"insufficient shared qualifying cells {common}; "
                  f"{elapsed:.0f}s (budget 900s)")
    report(6, ok, detail)


def test_criterion_07_regularization_benefit():
    """At 25 dB on the 2x2 design, the regularized reduction-aided linear
    decoder beats the unregularized one by at least three pooled standard
    errors, and the unregularized decoder leaves the codebook."""
    base = vblast_config()
    cfg = SweepConfig(
        design=base.design,
        channel=base.channel,
        methods=("naive", "lr_linear"),
        rho_db=(20.0, 25.0),
        r=0.0,
        min_errors=100,
        max_trials=base.max_trials,
        seed=SEED,
        gate_alpha=base.gate_alpha,
    )
    records = sweep_cell(cfg, cfg.cell_codebooks(25.0), 25.0, 0, cfg.max_trials,
                         dict.fromkeys(cfg.methods, cfg.min_errors)).records()
    naive = [r for r in records if r.method == "naive"][0]
    lr = [r for r in records if r.method == "lr_linear"][0]
    pooled = math.sqrt(binomial_stderr(naive) ** 2 + binomial_stderr(lr) ** 2)
    gap = naive.p_hat - lr.p_hat
    ok = (lr.p_hat <= naive.p_hat and pooled > 0.0 and gap >= 3.0 * pooled
          and naive.oob > 0)
    report(7, ok, f"naive {naive.p_hat:.2e} (oob {naive.oob}) vs "
                  f"lr_linear {lr.p_hat:.2e}; gap {gap:.2e} = "
                  f"{gap / pooled if pooled else math.inf:.1f} pooled stderr "
                  f"(need >= 3)")


def test_criterion_08_gate_timeout_accounting(pilot_run):
    """Timeout fractions on the pilot cells match an independent estimate
    of the basis-conditioning tail, and at the top SNR the timeout
    fraction is dominated by the error-rate confidence ceiling."""
    cfg, result, _ = pilot_run
    alpha = gate_exponent_default(1.0)
    probes = 2000
    top_rho_db = max(cfg.rho_db)
    ok = True
    parts = []
    for rho_db in cfg.rho_db:
        rho = 10.0 ** (rho_db / 10.0)
        phi = scaling_factor(rho, cfg.r, cfg.design.coding_duration,
                             cfg.design.generator.shape[0])
        scaled = phi * cfg.design.generator
        exceed = 0
        for i in range(probes):
            rng = trial_rng(cfg.seed, 91, int(round(rho_db * 1000.0)), i)
            h = sample_quasi_static_rayleigh(
                cfg.channel.nt, cfg.channel.nr,
                cfg.design.coding_duration, rho, rng)
            prob = RegularizedProblem(
                y=np.zeros(h.shape[0]), h=h,
                t_reg=np.eye(scaled.shape[1]), scaled_generator=scaled)
            if condition_number_2norm(prob.prepared().basis) > rho ** alpha:
                exceed += 1
        tail = exceed / probes
        stderr = math.sqrt(tail * (1.0 - tail) / probes)
        rec = record_for(result, "lr_linear", rho_db)
        frac = rec.timeouts / rec.trials
        cell_ok = frac <= tail + 3.0 * stderr + 1e-12
        if rho_db == top_rho_db:
            cell_ok = cell_ok and frac <= rec.ci_hi + 1e-12
        ok = ok and cell_ok
        parts.append(f"{rho_db:.0f}dB timeout {frac:.1e} vs tail {tail:.1e}")
    report(8, ok, "; ".join(parts) + f"; alpha {alpha}")


def test_criterion_09_outage_consistency(vblast_run):
    """Estimated outage at the design's fixed rate never exceeds the
    exhaustive decoder's error rate by more than three standard errors."""
    cfg, result, _ = vblast_run
    t = cfg.design.coding_duration
    ok = True
    parts = []
    for rho_db in cfg.rho_db:
        rho = 10.0 ** (rho_db / 10.0)
        phi = scaling_factor(rho, cfg.r, t, cfg.design.generator.shape[0])
        rate_bits = math.log2(len(enumerate_codebook(cfg.design, phi).points)) / t
        outage = estimate_outage_probability(rho, rate_bits, t, cfg.channel,
                                             trials=20000, seed=SEED)
        ml = record_for(result, "ml", rho_db)
        ceiling = ml.p_hat + 3.0 * binomial_stderr(ml)
        cell_ok = outage.p_hat <= ceiling + 1e-12
        ok = ok and cell_ok
        parts.append(f"{rho_db:.0f}dB {outage.p_hat:.1e}<={ceiling:.1e}")
    report(9, ok, "; ".join(parts))


def test_criterion_10_determinism(pilot_run, tmp_path):
    """Repeating a sweep with the same seed reproduces results.csv
    byte for byte."""
    cfg, result, _ = pilot_run
    rerun = run_sweep(pilot_config())
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    cli.write_results_csv(str(first), result.records)
    cli.write_results_csv(str(second), rerun.records)
    same = first.read_bytes() == second.read_bytes()
    ok = same and len(result.records) == len(cfg.rho_db) * len(cfg.methods)
    report(10, ok, f"{len(result.records)} records, "
                   f"{first.stat().st_size} bytes, "
                   f"byte-identical={same}")
