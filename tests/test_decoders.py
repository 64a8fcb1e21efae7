"""Decoders: GDFE preprocessing identities, exact search against brute
force, certified approximation ratios, the prepare-and-decode pipeline,
and ML by the box-bounded search against the exhaustive scan."""

import dataclasses
import itertools
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from latdec import SweepConfig, decoders, load_experiment, run_sweep
from latdec.channels import ChannelConfig, NoiseModel, trial_rng
from latdec.decoders import (
    DecodeOutcome,
    RegularizedProblem,
    approximation_ratio,
    babai_nearest_plane,
    decode,
    lr_aided_linear,
    ml_decode,
    mmse_gdfe_filters,
    naive_lattice_decode,
    regularized_metric,
    sphere_decode_regularized,
)
from latdec.errors import EnumerationOverflow, NearSingularChannel
from latdec.lattice import (
    MEMBERSHIP_SLACK,
    Codebook,
    LatticeDesign,
    ShapingRegion,
    enumerate_codebook,
)
from latdec.reduction import lll_reduce
from per_trial import prepare

ROOT = Path(__file__).resolve().parent.parent


def square_design(n, half_width=0.6, dither=0.5):
    return LatticeDesign(
        generator=np.eye(n),
        region=ShapingRegion.box(np.full(n, half_width)),
        coding_duration=1,
        dither=np.full(n, dither) if dither is not None else None,
    )


def random_problem(rng, n, m=None, dither=True):
    m = n if m is None else m
    h = rng.standard_normal((m, n))
    y = rng.standard_normal(m)
    u = rng.standard_normal(n) if dither else None
    return RegularizedProblem(y=y, h=h, t_reg=np.eye(n),
                              scaled_generator=np.eye(n), dither=u)


def brute_force_regularized(problem, radius=4):
    """Oracle: scan all integer coordinates in a cube and minimize the
    direct objective ||y - H x||^2 + (x - u)^T T (x - u)."""
    n = problem.n
    u = problem.dither
    best, best_z = math.inf, None
    for z in itertools.product(range(-radius, radius + 1), repeat=n):
        x = problem.scaled_generator @ np.array(z, dtype=np.float64) + u
        r = problem.y - problem.h @ x
        pen = (x - u) @ problem.t_reg @ (x - u)
        val = float(r @ r + pen)
        if val < best - 1e-15:
            best, best_z = val, np.array(z, dtype=np.int64)
    return best_z, best


def test_gdfe_filter_identities():
    rng = np.random.default_rng(111)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 9))
        h = rng.standard_normal((m, n))
        t = np.eye(n) * float(rng.uniform(0.1, 3.0))
        b, f = mmse_gdfe_filters(h, t)
        gram = h.T @ h + t
        assert np.allclose(b.T @ b, gram, rtol=1e-10, atol=1e-10)
        # F = B^-T H^T  <=>  B^T F = H^T.
        assert np.allclose(b.T @ f, h.T, rtol=1e-9, atol=1e-9)


def test_metric_identity_two_routes():
    # regularized_metric itself cross-checks the direct objective against
    # the filtered triangular form and raises on disagreement.
    rng = np.random.default_rng(222)
    for _ in range(500):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 9))
        prob = random_problem(rng, n, m)
        x = rng.standard_normal(n)
        val = regularized_metric(prob, x)
        # Independent recomputation of the direct form.
        u = prob.dither
        r = prob.y - prob.h @ x
        want = float(r @ r) + float((x - u) @ prob.t_reg @ (x - u))
        assert val == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_offset_term_nonnegative():
    rng = np.random.default_rng(333)
    for _ in range(300):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 8))
        prob = random_problem(rng, n, m)
        assert prob.prepared().gamma >= 0.0


def test_ml_decode_known_answer():
    book = enumerate_codebook(square_design(2), phi=1.0)
    out = ml_decode(np.array([0.3, 0.2]), np.eye(2), book)
    assert out.is_codeword
    assert np.array_equal(out.point, [0.5, 0.5])
    assert np.array_equal(out.coords, [0, 0])
    assert out.metric == pytest.approx(0.13, rel=1e-12)


def test_ml_decode_tie_breaks_lexicographic():
    book = enumerate_codebook(square_design(2), phi=1.0)
    out = ml_decode(np.zeros(2), np.eye(2), book)
    assert np.array_equal(out.point, [-0.5, -0.5])
    assert np.array_equal(out.coords, [-1, -1])
    assert out.metric == pytest.approx(0.5, rel=1e-12)


def test_sphere_search_matches_brute_force():
    rng = np.random.default_rng(555)
    for trial in range(300):
        n = int(rng.integers(2, 4))
        prob = random_problem(rng, n)
        res = sphere_decode_regularized(prob)
        want_z, want_val = brute_force_regularized(prob)
        assert res.metric == pytest.approx(want_val, rel=1e-8, abs=1e-10), (
            f"trial {trial}")
        # The minimizer itself must agree unless the metric ties.
        direct = regularized_metric(prob, res.point)
        assert direct == pytest.approx(want_val, rel=1e-8, abs=1e-10)
        if abs(direct - want_val) > 1e-12:
            assert np.array_equal(res.coords, want_z)


def test_sphere_metric_matches_direct_objective():
    rng = np.random.default_rng(666)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(n, n + 4))
        prob = random_problem(rng, n, m)
        res = sphere_decode_regularized(prob)
        direct = regularized_metric(prob, res.point)
        assert res.metric == pytest.approx(direct, rel=1e-8, abs=1e-10)


def test_sphere_node_budget_overflow(monkeypatch):
    rng = np.random.default_rng(777)
    prob = random_problem(rng, 3)
    monkeypatch.setattr(decoders, "NODE_BUDGET", 2)
    with pytest.raises(EnumerationOverflow):
        sphere_decode_regularized(prob)


def test_sphere_search_holds_one_leaf_without_slack(monkeypatch):
    # The generator's 1e-11 axis makes nearly every node a leaf a hair
    # nearer than the last.  The search keeps only the leaves within the
    # slack (none) of the best so far: it once kept all of them, 2.2 MB by
    # 5e4 nodes and 43 MB by 1e6.  (Under tracemalloc 1e6 nodes take ~50 s.)
    monkeypatch.setattr(decoders, "NODE_BUDGET", 5 * 10**4)
    problem = RegularizedProblem(y=np.array([0.9, 0.1]), h=np.array([[3.0, 0.5], [0.5, 2.0]]),
                                 t_reg=np.eye(2) / 100, scaled_generator=np.diag([1.0, 1e-11]))
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationOverflow):
            sphere_decode_regularized(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_box_search_with_slack_keeps_every_leaf_within_it():
    # Leaves dropped as the best falls are those past the final slack too:
    # the search still returns every z of the box within the slack of the
    # nearest, as scoring the whole box finds them.  Trials with a grid
    # point within roundoff of the slack's edge are skipped.
    rng = np.random.default_rng(2718)
    checked = 0
    for trial in range(200):
        n = int(rng.integers(1, 5))
        r = (np.triu(0.5 * rng.standard_normal((n, n)), 1)
             + np.diag(rng.uniform(0.5, 2.0, n)))
        y = 2.0 * rng.standard_normal(n)
        lo = rng.integers(-3, 1, n)
        hi = lo + rng.integers(0, 4, n)
        slack = float(rng.uniform(0.0, 3.0))
        grid = np.array(list(itertools.product(
            *(range(a, b + 1) for a, b in zip(lo, hi)))), dtype=np.int64)
        dists = np.sum((y - grid @ r.T) ** 2, axis=1)
        edge = dists.min() + slack
        if np.any(np.abs(dists - edge) < 1e-9):
            continue
        leaves = decoders._sphere_search(r, y, box=(lo, hi), slack=slack)
        assert sorted(tuple(z) for z, _ in leaves) == sorted(
            tuple(z) for z in grid[dists < edge]), f"trial {trial}"
        checked += 1
    assert checked > 150


def _grid_minimizers(r, y, lo, hi):
    """Every z in the integer box [lo, hi] within roundoff of the least
    ||y - R z||^2 there, by scoring the whole box."""
    grid = np.array(list(itertools.product(
        *(range(a, b + 1) for a, b in zip(lo, hi)))), dtype=np.int64)
    dists = np.sum((y - grid @ r.T) ** 2, axis=1)
    return grid[dists <= dists.min() * (1.0 + 1e-9) + 1e-12]


def test_unbounded_and_box_search_agree_with_the_grid():
    # The grid is every z within the nearest-plane distance d of y, bounded
    # per coordinate by |z - R^-1 y|_i <= d |row i of R^-1|, so it holds
    # every minimizer.  A target y = R (z + 1/2) is equidistant from
    # z + 1/2 +- w, an exact tie the search may settle either way, so its
    # answer must be one of the grid's minimizers, which are one point
    # exactly when y is Gaussian.  The box search runs in a box of width 1
    # or 2 per level around that answer, which clamps the centers of most
    # other paths, the nearest-plane one included; a box off the answer
    # must give one of its own grid's minimizers.
    rng = np.random.default_rng(1313)
    for trial in range(300):
        n = int(rng.integers(1, 7))
        r = (np.triu(0.5 * rng.standard_normal((n, n)), 1)
             + np.diag(rng.uniform(1.0, 2.0, n)))
        half = trial % 3 == 0
        y = r @ (rng.integers(-2, 2, n) + 0.5) if half else rng.standard_normal(n)
        zb = decoders._babai_backsub(r, y)
        d = math.sqrt(float((y - r @ zb) @ (y - r @ zb)))
        rinv = np.linalg.inv(r)
        center, spread = rinv @ y, d * np.linalg.norm(rinv, axis=1)
        nearest = _grid_minimizers(r, y, np.ceil(center - spread - 1e-9).astype(np.int64),
                                   np.floor(center + spread + 1e-9).astype(np.int64))

        [(z, cost)] = decoders._sphere_search(r, y)
        box = (z - rng.integers(0, 2, n), z + rng.integers(0, 2, n))
        [(zbox, cost_box)] = decoders._sphere_search(r, y, box=box)
        assert np.array_equal(zbox, z) and cost_box == cost, f"trial {trial}"
        assert any(np.array_equal(z, w) for w in nearest), f"trial {trial}"
        assert (len(nearest) > 1) == half, f"trial {trial}"

        lo = z + rng.integers(-3, 2, n)
        hi = lo + rng.integers(0, 3, n)
        [(zoff, _)] = decoders._sphere_search(r, y, box=(lo, hi))
        assert any(np.array_equal(zoff, w) for w in _grid_minimizers(r, y, lo, hi)), (
            f"trial {trial}")


def test_dither_equivariance_bitwise():
    # Decoding (y, dither u) must match decoding (y - H u, no dither)
    # exactly: same integer coordinates, points shifted by exactly u.
    rng = np.random.default_rng(888)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        h = rng.standard_normal((n + 1, n))
        y = rng.standard_normal(n + 1)
        u = rng.standard_normal(n)
        a = RegularizedProblem(y=y, h=h, t_reg=np.eye(n),
                               scaled_generator=np.eye(n), dither=u)
        b = RegularizedProblem(y=y - h @ u, h=h, t_reg=np.eye(n),
                               scaled_generator=np.eye(n), dither=None)
        # No dither is stored as the zero dither.
        assert np.array_equal(b.dither, np.zeros(n)) and b.dither_or_zero() is b.dither
        ra = sphere_decode_regularized(a)
        rb = sphere_decode_regularized(b)
        assert np.array_equal(ra.coords, rb.coords)
        assert ra.metric == rb.metric
        assert np.array_equal(ra.point, rb.point + u)
        red_a = lll_reduce(a.prepared().basis)
        red_b = lll_reduce(b.prepared().basis)
        ba = babai_nearest_plane(a, red_a)
        bb = babai_nearest_plane(b, red_b)
        assert np.array_equal(ba.coords, bb.coords)
        la = lr_aided_linear(a, red_a)
        lb = lr_aided_linear(b, red_b)
        assert np.array_equal(la.coords, lb.coords)


def test_suboptimal_ratios_bounded():
    rng = np.random.default_rng(999)
    worst_babai = {n: 0.0 for n in (2, 3, 4)}
    worst_linear = {n: 0.0 for n in (2, 3, 4)}
    for trial in range(400):
        n = int(rng.integers(2, 5))
        prob = random_problem(rng, n)
        exact = sphere_decode_regularized(prob)
        red = lll_reduce(prob.prepared().basis)
        bab = babai_nearest_plane(prob, red)
        lin = lr_aided_linear(prob, red)
        rb = approximation_ratio(prob, bab.point, exact.point)
        rl = approximation_ratio(prob, lin.point, exact.point)
        assert rb >= 1.0 - 1e-9
        assert rl >= 1.0 - 1e-9
        assert rb <= 2.0 ** (n / 2.0) * (1.0 + 1e-9), f"trial {trial}"
        assert rl <= 1.0 + 2.0 * n * 4.5 ** (n / 2.0), f"trial {trial}"
        worst_babai[n] = max(worst_babai[n], rb)
        worst_linear[n] = max(worst_linear[n], rl)
    # The ensemble must actually exercise suboptimality somewhere.
    assert max(worst_babai.values()) > 1.0 or max(worst_linear.values()) > 1.0


def test_detectors_on_reducer_factors_match_fresh_qr():
    # Nearest-plane and linear detection read the Q, R that LLL leaves
    # behind; a fresh sign-aligned LAPACK QR of the reduced basis must
    # give the same integer coordinates.
    rng = np.random.default_rng(1313)
    for trial in range(240):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(n, n + 3))
        prob = RegularizedProblem(y=4.0 * rng.standard_normal(m),
                                  h=rng.standard_normal((m, n)), t_reg=np.eye(n),
                                  scaled_generator=rng.standard_normal((n, n)),
                                  dither=rng.standard_normal(n))
        red = lll_reduce(prob.prepared().basis)
        assert red.unimodular.dtype == np.int64
        assert (np.linalg.norm(red.q @ red.r - red.reduced)
                <= 1e-10 * np.linalg.norm(red.reduced)), f"trial {trial}"
        q, r = np.linalg.qr(red.reduced)
        signs = np.sign(np.diag(r))
        fresh = dataclasses.replace(red, q=q * signs, r=signs[:, None] * r)
        for detector in (babai_nearest_plane, lr_aided_linear):
            got = detector(prob, red).coords
            want = detector(prob, fresh).coords
            assert np.array_equal(got, want), f"trial {trial}: {detector.__name__}"


def test_approximation_ratio_edge_cases():
    prob = RegularizedProblem(y=np.zeros(2), h=np.eye(2),
                              t_reg=np.zeros((2, 2)),
                              scaled_generator=np.eye(2), dither=None)
    # Both candidates hit the objective's zero: ratio is 1 by convention.
    assert approximation_ratio(prob, np.zeros(2), np.zeros(2)) == 1.0
    # Exact at zero, candidate strictly worse: infinite ratio.
    assert approximation_ratio(prob, np.array([1.0, 0.0]), np.zeros(2)) == math.inf


def _naive_problem(y, h, t_reg=None, dither=None):
    n = h.shape[1]
    return RegularizedProblem(y=y, h=h, t_reg=np.eye(n) if t_reg is None else t_reg,
                              scaled_generator=np.eye(n), dither=dither)


def test_naive_decoder_flags_singular_channel():
    h = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(NearSingularChannel):
        naive_lattice_decode(_naive_problem(np.ones(2), h))
    # Fewer observations than unknowns: a genuine null space.
    rng = np.random.default_rng(1413)
    with pytest.raises(NearSingularChannel):
        naive_lattice_decode(_naive_problem(rng.standard_normal(2),
                                            rng.standard_normal((2, 3))))


def test_naive_decoder_reports_plain_distance():
    design = square_design(2)
    h = 2.0 * np.eye(2)
    y = np.array([1.1, -0.9])
    out = decode(prepare(y, h, design, enumerate_codebook(design, 1.0)), method="naive")
    assert out.is_codeword
    assert np.array_equal(out.point, [0.5, -0.5])
    want = float(np.sum((y - h @ np.array([0.5, -0.5])) ** 2))
    assert out.metric == pytest.approx(want, rel=1e-12)


def test_naive_decoder_matches_exhaustive_oracle():
    # The naive decoder is the exact minimizer of the plain distance
    # ||y - H x||^2 over the dithered lattice and ignores the problem's
    # penalty T, so every problem here carries a non-identity one.  The
    # scanned cube is centred on the rounded least-squares coordinates: with
    # cond(H) <= 4 the minimizer lies within 2-norm cond(H) sqrt(n) / 2 <= 4
    # of the least-squares point, so a radius-5 cube always holds it.
    rng = np.random.default_rng(1414)
    radius = 5
    checked = 0
    for _ in range(300):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(n, 7))
        h = rng.standard_normal((m, n))
        a = rng.standard_normal((n, n))
        y = rng.standard_normal(m)
        u = rng.uniform(0.0, 1.0, n)
        if np.linalg.cond(h) > 4.0:
            continue
        res = naive_lattice_decode(_naive_problem(y, h, a.T @ a + np.eye(n), u))
        center = np.round(np.linalg.lstsq(h, y, rcond=None)[0] - u)
        grid = np.array(list(itertools.product(range(-radius, radius + 1), repeat=n)),
                        dtype=np.float64) + center
        resid = y[None, :] - (grid + u[None, :]) @ h.T
        metrics = np.einsum("ij,ij->i", resid, resid)
        order = np.argsort(metrics)
        best, runner_up = float(metrics[order[0]]), float(metrics[order[1]])
        assert res.metric == pytest.approx(best, rel=1e-9, abs=1e-12)
        assert (runner_up - best <= 1e-9
                or np.array_equal(res.coords, grid[order[0]].astype(np.int64)))
        assert np.array_equal(res.point, res.coords + u)
        plain = y - h @ res.point
        assert res.metric == float(plain @ plain)
        checked += 1
    assert checked >= 100


def test_naive_decoder_escapes_region_under_fades():
    # With a near-singular direction the unregularized minimizer chases the
    # noise far outside the shaping region.
    design = square_design(2)
    h = np.array([[1.0, 0.0], [0.0, 1e-3]])
    y = np.array([0.4, 0.8])     # second coordinate mostly noise
    out = decode(prepare(y, h, design, enumerate_codebook(design, 1.0)), method="naive")
    assert out.kind == "out_of_codebook"
    assert abs(out.point[1]) > 0.6


def test_pipeline_all_methods_agree_at_high_snr():
    rng = np.random.default_rng(1212)
    design = square_design(2)
    book = enumerate_codebook(design, phi=1.0)
    agreements = 0
    for trial in range(100):
        h = rng.standard_normal((2, 2)) + 4.0 * np.eye(2)
        x = book.points[int(rng.integers(book.size))]
        y = h @ x + 0.01 * rng.standard_normal(2)
        outs = {}
        for method in ("ml", "reg_exact", "lr_sic", "lr_linear", "naive"):
            outs[method] = decode(prepare(y, h, design, book, rho=100.0,
                                          gate_alpha=3.0), method=method)
        assert outs["ml"].is_codeword
        assert np.array_equal(outs["ml"].point, x)
        if all(o.is_codeword and np.array_equal(o.point, x)
               for o in outs.values()):
            agreements += 1
    assert agreements >= 95       # near-noiseless: all methods recover x


def test_pipeline_ml_enumerates_when_no_codebook_given():
    # ML decodes over the codebook the stage is prepared with, here the
    # design's enumerated at phi = 1.
    design = square_design(2)
    out = decode(prepare(np.array([0.3, 0.2]), np.eye(2), design,
                         enumerate_codebook(design, 1.0)), method="ml")
    assert np.array_equal(out.point, [0.5, 0.5])


def test_pipeline_gate_timeout():
    # The gate watches the conditioning of the filtered lattice basis
    # B (phi G); the regularizer keeps B tame for any H, so the trigger
    # must come from a skewed generator.
    design = LatticeDesign(
        generator=np.array([[1.0, 0.0], [0.0, 1e-6]]),
        region=ShapingRegion.box([1.0, 1.0]),
        coding_duration=1, dither=None)
    # The stage reads phi = 1 from its codebook; the reduction-aided
    # methods decode no codeword from it, so one point stands for the
    # design's codebook of six million.
    book = Codebook(points=np.zeros((1, 2)), coords=np.zeros((1, 2), dtype=np.int64),
                    scale=1.0)
    out = decode(prepare(np.ones(2), np.eye(2), design, book, rho=10.0,
                         gate_alpha=1.5), method="lr_linear")
    assert out.kind == "timeout"
    assert out.point is None
    assert out.metric == math.inf


def test_pipeline_gate_harmless_for_regularized_channel():
    # A deeply faded channel alone must NOT trip the gate: the penalty
    # matrix floors the filtered basis conditioning.
    design = square_design(2)
    h = np.array([[1.0, 0.0], [0.0, 1e-6]])
    out = decode(prepare(np.ones(2), h, design, enumerate_codebook(design, 1.0),
                         rho=10.0, gate_alpha=1.5), method="lr_linear")
    assert out.kind in ("codeword", "out_of_codebook")


def test_pipeline_requires_gate_for_reduction_methods():
    design = square_design(2)
    book = enumerate_codebook(design, 1.0)
    with pytest.raises(ValueError):
        decode(prepare(np.ones(2), np.eye(2), design, book), method="lr_linear")
    with pytest.raises(ValueError):
        decode(prepare(np.ones(2), np.eye(2), design, book), method="bogus")


def test_timeout_outcome_shape():
    out = DecodeOutcome.timeout()
    assert out.kind == "timeout"
    assert out.point is None and out.coords is None
    assert out.metric == math.inf
    assert not out.is_codeword


# ML by the box-bounded search.  With ML_SCAN_MAX_POINTS at 0, `decode`
# searches every codebook, so each case below compares the search with
# the scan (`ml_decode`) on the same draw.

def box_design(n, t=1, generator=None):
    return LatticeDesign(generator=np.eye(n) if generator is None else generator,
                         region=ShapingRegion.box(np.full(n, 0.6)),
                         coding_duration=t, dither=np.full(n, 0.5))


HEXAGONAL = np.array([[1.0, 0.5], [0.0, math.sqrt(3.0) / 2.0]])

# name -> (channel, design, signal level dB, rate)
ML_SEARCH_CASES = {
    "rayleigh_t1": (ChannelConfig(model="quasi_static_rayleigh", nt=2, nr=2),
                    box_design(4), 12.0, 1.0),
    "rayleigh_t2": (ChannelConfig(model="quasi_static_rayleigh", nt=1, nr=2),
                    box_design(4, t=2), 18.0, 0.5),
    "rayleigh_wide": (ChannelConfig(model="quasi_static_rayleigh", nt=2, nr=1),
                      box_design(4), 14.0, 0.5),
    "ofdm": (ChannelConfig(model="mimo_ofdm", nt=1, nr=1, tones=2, taps=2),
             box_design(4, t=2), 14.0, 0.5),
    "naf_relay": (ChannelConfig(model="naf_relay"), box_design(4, t=2), 20.0, 0.5),
    "fixed": (ChannelConfig(model="fixed", h_real=np.array([[3.0, 1.8], [0.6, 2.4]])),
              box_design(2), 8.0, 1.0),
    "arq": (ChannelConfig(model="mimo_arq", nt=1, nr=1, arq_rounds=2, arq_x_thresh=1.5,
                          noise=NoiseModel(kind="self_interference", sigma_e=0.5)),
            box_design(2), 20.0, 1.0),
    "ball": (ChannelConfig(model="quasi_static_rayleigh", nt=2, nr=2),
             LatticeDesign(generator=np.eye(4), region=ShapingRegion.ball(1.8),
                           dither=np.full(4, 0.5)), 16.0, 0.5),
    "rotated_box": (ChannelConfig(model="quasi_static_rayleigh", nt=1, nr=1),
                    box_design(2, generator=HEXAGONAL), 14.0, 1.0),
    "rotated_ball": (ChannelConfig(model="quasi_static_rayleigh", nt=1, nr=1),
                     LatticeDesign(generator=HEXAGONAL, region=ShapingRegion.ball(0.9)),
                     14.0, 1.0),
}


@pytest.fixture
def ml_search_everywhere(monkeypatch):
    """Search every codebook; count the searches that reach the QR."""
    monkeypatch.setattr(decoders, "ML_SCAN_MAX_POINTS", 0)
    searches = []
    closest = decoders._closest_point

    def counted(*args, **kwargs):
        searches.append(kwargs.get("box"))
        return closest(*args, **kwargs)

    monkeypatch.setattr(decoders, "_closest_point", counted)
    return searches


def assert_search_matches_scan(channel, design, rho_db, r, draws, seed):
    """Search and scan agree on `draws` seeded draws of one cell."""
    rho = 10.0 ** (rho_db / 10.0)
    draw_trial = channel.trial_sampler(channel.cell_codebooks(design, rho, r), rho,
                                       lambda t, *sub: trial_rng(seed, t, *sub))
    for trial in range(draws):
        draw = draw_trial(trial)
        stage = prepare(draw.y, draw.h, draw.design, draw.codebook)
        got = decode(stage, method="ml")
        want = ml_decode(draw.y, draw.h, draw.codebook)
        assert np.array_equal(got.coords, want.coords), f"trial {trial}"
        assert np.array_equal(got.point, want.point), f"trial {trial}"
        assert abs(got.metric - want.metric) <= 1e-12 * abs(want.metric), f"trial {trial}"


@pytest.mark.parametrize("name", sorted(ML_SEARCH_CASES))
def test_ml_search_matches_scan_on_every_channel_model(name, ml_search_everywhere):
    channel, design, rho_db, r = ML_SEARCH_CASES[name]
    assert_search_matches_scan(channel, design, rho_db, r, draws=60, seed=41)
    wide = name == "rayleigh_wide"  # fewer outputs than inputs: scanned
    assert len(ml_search_everywhere) == (0 if wide else 60)


def test_ml_search_matches_scan_on_every_rate_growth_cell(ml_search_everywhere, tmp_path):
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    config = load_experiment(str(workloads.write_config(
        ROOT, workloads.WORKLOADS["rate_growth_2x2"], 7, tmp_path)))
    for cell, rho_db in enumerate(config.rho_db):
        assert_search_matches_scan(config.channel, config.design, rho_db, config.r,
                                   draws=40, seed=config.seed + cell)
    assert len(ml_search_everywhere) == 40 * len(config.rho_db)


@pytest.mark.parametrize("dither, smallest", [(0.5, [-1, -1]), (-0.5, [0, 0])])
def test_ml_search_breaks_exact_ties_like_the_scan(dither, smallest,
                                                   ml_search_everywhere):
    # y = 0 is equidistant from all four codewords (+-0.5, +-0.5); the
    # scan's rule takes the lexicographically smallest point.  With
    # dither -0.5 the search's first leaf is the largest, (0.5, 0.5).
    design = square_design(2, dither=dither)
    book = enumerate_codebook(design, phi=1.0)
    out = decode(prepare(np.zeros(2), np.eye(2), design, book), method="ml")
    assert np.array_equal(out.coords, smallest)
    assert np.array_equal(out.point, [-0.5, -0.5])
    assert out.metric == ml_decode(np.zeros(2), np.eye(2), book).metric
    assert ml_search_everywhere


@pytest.mark.parametrize("generator, region, phi, corner", [
    # 3 * 0.1 rounds above 0.3, and |0.19 * (3, 4)| above 0.95.
    (np.eye(2), ShapingRegion.box([0.3, 0.3]), 0.1, [3, 3]),
    (np.eye(2), ShapingRegion.ball(0.95), 0.19, [3, 4]),
    # A rotated generator, the boundary half the slack inside the corner.
    (HEXAGONAL, "box", 0.3, [2, -3]),
    (HEXAGONAL, "ball", 0.3, [2, -3]),
], ids=["box", "ball", "hexagonal_box", "hexagonal_ball"])
def test_ml_search_keeps_codewords_on_the_boundary(generator, region, phi, corner,
                                                   ml_search_everywhere):
    # The corner's point by the enumeration's arithmetic.
    point = (np.array([corner], dtype=np.float64) @ (phi * generator).T)[0]
    if region == "box":
        region = ShapingRegion.box(np.full(2, np.max(np.abs(point)) - MEMBERSHIP_SLACK / 2))
    elif region == "ball":
        region = ShapingRegion.ball(math.sqrt(point @ point) - MEMBERSHIP_SLACK / 2)
    design = LatticeDesign(generator=generator, region=region)
    if region.kind == "box":
        size, bound = np.max(np.abs(point)), region.half_widths[0]
    else:
        size, bound = math.sqrt(point @ point), region.radius
    assert bound < size <= bound + MEMBERSHIP_SLACK
    book = enumerate_codebook(design, phi)
    assert any(np.array_equal(z, corner) for z in book.coords)
    y = 1.2 * point
    out = decode(prepare(y, np.eye(2), design, book), method="ml")
    assert np.array_equal(out.coords, corner)
    assert np.array_equal(out.coords, ml_decode(y, np.eye(2), book).coords)
    assert ml_search_everywhere


@pytest.mark.parametrize("region, y, rejected", [
    # Both fall 5e-10 short of admitting coordinate 2 (and (2, 1)), which
    # the enumeration's 1e-9 bound slack still lists as a candidate.
    (ShapingRegion.box([2.0 - 5e-10, 2.0 - 5e-10]), [2.4, 0.1], [2, 0]),
    (ShapingRegion.ball(math.sqrt(5.0) - 5e-10), [2.2, 1.1], [2, 1]),
])
def test_ml_search_skips_candidates_the_region_rejects(region, y, rejected,
                                                      ml_search_everywhere):
    design = LatticeDesign(generator=np.eye(2), region=region)
    book = enumerate_codebook(design, 1.0)
    assert not any(np.array_equal(z, rejected) for z in book.coords)
    out = decode(prepare(np.array(y), np.eye(2), design, book), method="ml")
    want = ml_decode(np.array(y), np.eye(2), book)
    assert np.array_equal(out.coords, want.coords)
    assert not np.array_equal(out.coords, rejected)
    assert ml_search_everywhere


def test_ml_search_scans_a_rank_deficient_channel(ml_search_everywhere):
    # QR refuses H (phi G) with a zero column; ML falls back to the scan.
    design = square_design(2)
    book = enumerate_codebook(design, phi=1.0)
    h = np.array([[1.0, 0.0], [0.5, 0.0]])
    y = np.array([0.4, 0.3])
    out = decode(prepare(y, h, design, book), method="ml")
    want = ml_decode(y, h, book)
    assert np.array_equal(out.coords, want.coords)
    assert out.metric == want.metric
    assert ml_search_everywhere


def test_ml_search_ignores_the_node_budget(ml_search_everywhere, monkeypatch):
    # The codebook's box bounds the search, so a one-node budget that
    # would stop the regularized search leaves ML records unchanged.
    config = SweepConfig(design=box_design(4), methods=("ml",), rho_db=(10.0, 16.0),
                         r=1.0, min_errors=20, max_trials=80, seed=3,
                         channel=ChannelConfig(model="quasi_static_rayleigh", nt=2, nr=2))
    uncapped = run_sweep(config).records
    monkeypatch.setattr(decoders, "NODE_BUDGET", 1)
    assert run_sweep(config).records == uncapped
    assert ml_search_everywhere
