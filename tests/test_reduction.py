"""Basis reduction: invariants, bounds, the condition gate, and exact
integer determinants, verified with an independent QR-based checker."""

import math

import numpy as np
import pytest

from latdec.errors import IterationOverflow, RankDeficient
from latdec.reduction import (
    gate_exponent_default,
    gated_reduce,
    integer_det,
    is_lll_reduced,
    iteration_bound,
    iteration_bound_for_kappa,
    lll_reduce,
)


def orthogonality_defect(basis):
    """Product of column norms over |det|: 1 iff the columns are orthogonal."""
    return float(np.prod(np.linalg.norm(basis, axis=0))) / abs(np.linalg.det(basis))


def reference_is_reduced(basis, delta=0.75, tol=1e-9):
    """Independent check of the reduction conditions via numpy QR.

    R from column-QR encodes the orthogonalization: mu[i][k] =
    R[i, k] / R[i, i] and the orthogonal part of column k has squared
    norm R[k, k]^2.
    """
    r = np.linalg.qr(basis, mode="r")
    n = basis.shape[1]
    for k in range(n):
        for i in range(k):
            mu = r[i, k] / r[i, i]
            if abs(mu) > 0.5 + tol:
                return False
    for k in range(1, n):
        lhs = delta * r[k - 1, k - 1] ** 2
        rhs = r[k, k] ** 2 + (r[k - 1, k] / r[k - 1, k - 1]) ** 2 * r[k - 1, k - 1] ** 2
        if lhs > rhs + tol * max(1.0, abs(rhs)):
            return False
    return True


def test_lll_two_dim_known_reduction():
    # Columns (1, 0) and (0.99, 0.01): heavily correlated; any reduced
    # basis must reach the lattice minimum ~ (0.01 ...) direction.
    m = np.array([[1.0, 0.99], [0.0, 0.01]])
    res = lll_reduce(m)
    assert reference_is_reduced(res.reduced)
    ok, why = is_lll_reduced(res.reduced)
    assert ok, why
    # Exact basis transfer: reduced equals M Z with integer Z.
    assert res.unimodular.dtype == np.int64
    assert np.allclose(res.reduced, m @ res.unimodular, atol=1e-12)
    assert abs(integer_det(res.unimodular)) == 1
    # Shortest vector of this lattice is (0.01-ish): first reduced column
    # must be far shorter than the original worst column.
    norms = np.sqrt(np.sum(res.reduced ** 2, axis=0))
    assert np.min(norms) < 0.05


def test_lll_random_ensemble_invariants():
    rng = np.random.default_rng(808)
    for trial in range(200):
        n = int(rng.integers(2, 7))
        m = rng.standard_normal((n, n))
        while abs(np.linalg.det(m)) < 1e-3:
            m = rng.standard_normal((n, n))
        res = lll_reduce(m)
        assert reference_is_reduced(res.reduced), f"trial {trial}"
        ok, why = is_lll_reduced(res.reduced)
        assert ok, f"trial {trial}: {why}"
        # Unimodularity, exactly.
        assert abs(integer_det(res.unimodular)) == 1
        assert np.allclose(res.reduced, m @ res.unimodular, rtol=1e-9, atol=1e-9)
        # The reducer's own factors: reduced = Q R, Q orthogonal, R upper
        # triangular with a positive diagonal.
        assert np.allclose(res.q @ res.r, res.reduced, rtol=1e-9, atol=1e-9)
        assert np.allclose(res.q.T @ res.q, np.eye(n), atol=1e-10)
        assert np.array_equal(np.triu(res.r), res.r)
        assert np.all(np.diag(res.r) > 0)
        # Reduction never worsens the orthogonality defect.
        assert (orthogonality_defect(res.reduced)
                <= orthogonality_defect(m) * (1.0 + 1e-9))
        # Iteration count respects the condition-number bound.
        sv = np.linalg.svd(m, compute_uv=False)
        kappa = sv[0] / sv[-1]
        assert res.iterations <= iteration_bound_for_kappa(kappa, n)


def test_lll_identity_fixed_point():
    res = lll_reduce(np.eye(4))
    assert np.array_equal(res.reduced, np.eye(4))
    assert res.iterations == 0
    assert np.array_equal(res.unimodular, np.eye(4, dtype=np.int64))


def test_lll_rejects_singular():
    with pytest.raises(RankDeficient):
        lll_reduce(np.array([[1.0, 2.0], [2.0, 4.0]]))


def test_lll_refuses_unimodular_entries_past_2_53():
    # Full rank and well inside the rank floor, but reducing the last column
    # needs Z[0, 2] = 1e8 * 1e9 = 1e17, past where int64 arithmetic and
    # M @ Z in float64 stay exact.
    m = np.array([[1.0, 1e8, 0.0], [0.0, 1.0, 1e9], [0.0, 0.0, 1.0]])
    with pytest.raises(IterationOverflow):
        lll_reduce(m)
    # The 2 x 2 shape of the same hazard is already refused as rank
    # deficient: 1 is below 1e-12 * ||M||_F.
    with pytest.raises(RankDeficient):
        lll_reduce(np.array([[1.0, 1e17], [0.0, 1.0]]))
    # A chain that stays below 2^53 reduces exactly.
    res = lll_reduce(np.array([[1.0, 1e6, 0.0], [0.0, 1.0, 1e6], [0.0, 0.0, 1.0]]))
    assert res.unimodular[0, 2] == 10**12
    assert np.array_equal(res.reduced, np.eye(3))


def test_lll_delta_range():
    with pytest.raises(ValueError):
        lll_reduce(np.eye(2), delta=0.25)
    with pytest.raises(ValueError):
        lll_reduce(np.eye(2), delta=1.0)


def test_is_lll_reduced_flags_violation():
    # Columns (1,0) and (0.9, 1e-3): mu = 0.9 > 1/2 -> size violation.
    bad = np.array([[1.0, 0.9], [0.0, 1e-3]])
    ok, why = is_lll_reduced(bad)
    assert not ok
    assert why


def test_iteration_bound_formula():
    # ceil(n^2 ln(kappa) / ln(2/sqrt(3)) + n), evaluated independently.
    for n, kappa in [(2, 10.0), (4, 1e6), (8, 1e6), (3, 1.0)]:
        want = math.ceil(n * n * math.log(kappa) / math.log(2.0 / math.sqrt(3.0)) + n)
        assert iteration_bound_for_kappa(kappa, n) == want
    assert iteration_bound_for_kappa(10.0, 2) == 67
    m = np.diag([10.0, 0.1])
    assert iteration_bound(m) in (
        iteration_bound_for_kappa(100.0, 2),
        iteration_bound_for_kappa(100.0 * (1.0 + 1e-12), 2),
    )


def test_gate_exponent_default():
    assert gate_exponent_default(1.0) == pytest.approx(1.5)
    assert gate_exponent_default(2.0) == pytest.approx(2.0)
    assert gate_exponent_default(4.0) == pytest.approx(3.0)


def test_gated_reduce_refuses_ill_conditioned():
    m = np.diag([100.0, 0.01])               # kappa = 1e4
    out = gated_reduce(m, rho=10.0, alpha=1.5)   # threshold 10^1.5 ~ 31.6
    assert out.timed_out
    assert out.kappa == pytest.approx(1e4, rel=1e-9)
    assert out.threshold == pytest.approx(10.0 ** 1.5, rel=1e-12)
    assert out.basis is None


def test_gated_reduce_runs_within_threshold():
    m = np.array([[1.0, 0.99], [0.0, 0.01]])     # kappa ~ 1.4e2
    out = gated_reduce(m, rho=10.0, alpha=5.0)   # threshold 1e5
    assert not out.timed_out
    assert out.basis is not None
    assert reference_is_reduced(out.basis.reduced)


def test_integer_det_exact():
    assert integer_det(np.array([[2, 0], [0, 3]], dtype=object)) == 6
    assert integer_det(np.array([[0, 1], [1, 0]], dtype=object)) == -1
    assert integer_det(np.array([[1]], dtype=object)) == 1
    assert integer_det(np.array([[1, 2], [2, 4]], dtype=object)) == 0
    rng = np.random.default_rng(909)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        a = rng.integers(-9, 10, size=(n, n))
        obj = np.array([[int(a[i, j]) for j in range(n)] for i in range(n)],
                       dtype=object)
        want = round(float(np.linalg.det(a.astype(np.float64))))
        assert integer_det(obj) == want
