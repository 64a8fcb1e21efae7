"""Built-in self-check suites for the `validate` subcommand.

Each suite replays a seeded randomized property check and reports a
machine-readable verdict.  `poison` deliberately corrupts one instance
inside the named suite so operators can confirm the checks actually bite.
"""

from __future__ import annotations

import numpy as np

from .decoders import (
    RegularizedProblem,
    approximation_ratio,
    babai_nearest_plane,
    lr_aided_linear,
    regularized_metric,
    sphere_decode_regularized,
)
from .errors import MetricMismatch
from .reduction import integer_det, is_lll_reduced, iteration_bound, lll_reduce

__all__ = ["SUITES", "run_suites"]


def _random_problem(rng, n: int, m: int | None = None) -> RegularizedProblem:
    if m is None:
        m = n
    h = rng.standard_normal((m, n))
    a = rng.standard_normal((n, n)) * 0.3
    t = a.T @ a + np.eye(n)
    g = rng.standard_normal((n, n))
    while abs(np.linalg.det(g)) < 1e-3:
        g = rng.standard_normal((n, n))
    y = rng.standard_normal(m) * (1.0 + 4.0 * rng.random())
    return RegularizedProblem(y=y, h=h, t_reg=t, scaled_generator=g)


def _suite_metric_identity(poison: bool, checks: int) -> str | None:
    rng = np.random.default_rng(411)
    for i in range(checks):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 9))
        prob = _random_problem(rng, n, m)
        x = rng.standard_normal(n) * 2.0
        if poison and i == checks // 2:
            # Cache filters for the old penalty, then change it: the two
            # metric routes must now disagree and the check must notice.
            prob.prepared()
            prob.t_reg = prob.t_reg + 0.1
        try:
            regularized_metric(prob, x)
        except MetricMismatch:
            return f"metric forms disagreed at check {i}"
    return None


def _suite_reduction(poison: bool, checks: int) -> str | None:
    rng = np.random.default_rng(622)
    for i in range(checks):
        n = int(rng.integers(2, 9))
        m = rng.standard_normal((n, n))
        if np.linalg.cond(m) > 1e6:
            continue
        red = lll_reduce(m)
        z = red.unimodular.copy()
        if poison and i == checks // 2:
            z[0, 0] = int(z[0, 0]) + 1
        if abs(integer_det(z)) != 1:
            return f"|det Z| != 1 at check {i}"
        ok, why = is_lll_reduced(red.reduced)
        if not ok:
            return f"output not reduced at check {i}: {why}"
        if red.iterations > iteration_bound(m):
            return f"swap count above closed-form cap at check {i}"
        recon = m @ z
        if float(np.max(np.abs(recon - red.reduced))) > 1e-8 * (1.0 + float(np.max(np.abs(m)))):
            return f"reduced != M Z at check {i}"
    return None


def _suite_approx_ratio(poison: bool, checks: int) -> str | None:
    rng = np.random.default_rng(833)
    for i in range(checks):
        n = int(rng.integers(2, 5))
        prob = _random_problem(rng, n)
        exact = sphere_decode_regularized(prob)
        red = lll_reduce(prob.prepared().basis)
        near = babai_nearest_plane(prob, red)
        lin = lr_aided_linear(prob, red)
        cap_sic = 2.0 ** (n / 2.0)
        cap_lin = 1.0 + 2.0 * n * 4.5 ** (n / 2.0)
        r_sic = approximation_ratio(prob, near.point, exact.point)
        r_lin = approximation_ratio(prob, lin.point, exact.point)
        if poison and i == checks // 2:
            r_sic = cap_sic * 2.0
        if r_sic > cap_sic or r_lin > cap_lin:
            return (f"ratio cap violated at check {i}: "
                    f"sic={r_sic:.3g} lin={r_lin:.3g}")
    return None


def _suite_exact_oracle(poison: bool, checks: int) -> str | None:
    rng = np.random.default_rng(944)
    grid = None
    grid_n = None
    for i in range(checks):
        n = int(rng.integers(1, 4))
        prob = _random_problem(rng, n)
        exact = sphere_decode_regularized(prob)
        if grid_n != n:
            rng_axes = [np.arange(-7, 8)] * n
            grid = np.stack(np.meshgrid(*rng_axes, indexing="ij"), axis=-1).reshape(-1, n)
            grid_n = n
        prep = prob.prepared()
        pts = grid.astype(np.float64) @ prep.basis.T
        resid = prep.yprime[None, :] - pts
        dists = np.sum(resid * resid, axis=1)
        best = float(np.min(dists)) + prep.gamma
        got = exact.metric
        if poison and i == checks // 2:
            got = best + 1.0
        if got > best + 1e-9 * (1.0 + best):
            return f"sphere search beat by grid scan at check {i}"
    return None


#: name -> (suite, check count, detail when every check passes).  A suite
#: returns the detail of its first failed check, or None.
SUITES = {
    "metric-identity": (_suite_metric_identity, 2000,
                        "both metric forms agreed to 1e-8 over {} draws"),
    "reduction-bound": (_suite_reduction, 200, "{} reductions within bound"),
    "approx-ratio": (_suite_approx_ratio, 400, "ratio caps held over {} draws"),
    "exact-oracle": (_suite_exact_oracle, 200,
                     "sphere search matched grid scans over {} draws"),
}


def run_suites(names=None, poison: str | None = None) -> list[dict]:
    """Run the named suites (all by default); `poison`, a suite name,
    corrupts one instance inside that suite to prove the check detects it.

    Raises ValueError for an unknown suite, or a poison that names no
    suite of this run (such a run would prove nothing)."""
    if names is None:
        names = list(SUITES)
    if poison is not None and poison not in names:
        raise ValueError(f"poison {poison!r} names no suite of this run")
    results = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}")
        suite, checks, passed_detail = SUITES[name]
        failure = suite(name == poison, checks)
        results.append({"passed": failure is None,
                        "detail": failure or passed_detail.format(checks),
                        "checks": checks, "suite": name})
    return results
