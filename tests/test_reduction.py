"""Basis reduction: invariants, bounds, the condition gate, and exact
integer determinants, verified with an independent QR-based checker."""

import math

import numpy as np
import pytest

from latdec.channels import sample_quasi_static_rayleigh
from latdec.decoders import RegularizedProblem
from latdec.errors import IterationOverflow, RankDeficient
from latdec.lattice import round_half_away_from_zero
from latdec.numkernel import qr_decompose
from latdec.reduction import (
    gate_exponent_default,
    gated_reduce,
    gated_reduce_stack,
    integer_det,
    is_lll_reduced,
    iteration_bound,
    iteration_bound_for_kappa,
    lll_reduce,
    lll_reduce_stack,
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


def _gso(b):
    """Modified Gram-Schmidt coefficients mu and squared norms of the
    orthogonalized columns, as `reduction` computed them before its
    checker read LAPACK's QR."""
    n = b.shape[1]
    mu = np.zeros((n, n))
    bstar = np.zeros_like(b)
    bsq = np.zeros(n)
    for i in range(n):
        v = b[:, i].copy()
        for j in range(i):
            mu[i, j] = (v @ bstar[:, j]) / bsq[j]
            v -= mu[i, j] * bstar[:, j]
        bstar[:, i] = v
        bsq[i] = float(v @ v)
    return mu, bsq


def _gso_is_lll_reduced(m, delta=0.75):
    """`is_lll_reduced` on the Gram-Schmidt loop: the differential
    reference for the QR form."""
    n = m.shape[1]
    mu, bsq = _gso(m)
    for i in range(n):
        for j in range(i):
            if abs(mu[i, j]) > 0.5 + 1e-9:
                return False, f"size reduction violated at (i={i}, j={j})"
    for k in range(1, n):
        lhs = delta * bsq[k - 1]
        rhs = bsq[k] + mu[k, k - 1] ** 2 * bsq[k - 1]
        if lhs > rhs + 1e-9 * bsq[k - 1] + 1e-12:
            return False, f"exchange condition violated at k={k}"
    return True, None


def test_reducedness_check_matches_gram_schmidt_reference():
    # Raw bases (rarely reduced), their LLL outputs (reduced), and those
    # outputs with two adjacent columns exchanged or a column size-reduced
    # only partly; every violation must be found at the same place.
    rng = np.random.default_rng(2311)
    verdicts = []
    for trial in range(400):
        n = int(rng.integers(2, 9))
        m = rng.standard_normal((n, n)) * rng.uniform(0.1, 10.0)
        reduced = lll_reduce(m).reduced
        swapped = reduced.copy()
        k = int(rng.integers(1, n))
        swapped[:, [k - 1, k]] = swapped[:, [k, k - 1]]
        sheared = reduced.copy()
        sheared[:, k] += rng.uniform(0.6, 3.0) * reduced[:, k - 1]
        for b in (m, reduced, swapped, sheared):
            want = _gso_is_lll_reduced(b)
            got = is_lll_reduced(b)
            assert got[0] == want[0], (trial, got, want)
            if not got[0]:
                assert got[1].startswith(want[1]), (trial, got, want)
            verdicts.append(got[0])
    assert len(verdicts) >= 1000
    assert 400 <= sum(verdicts) < len(verdicts) - 400


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


def _numpy_lll_reference(m, delta=0.75, max_swaps=None):
    """The swap loop as it ran on numpy arrays, one call per scalar: the
    differential reference for `lll_reduce`'s list loop.  Its reflections
    run through BLAS, so its Q and R agree with the list loop's to
    roundoff, not bit for bit."""
    m = np.asarray(m, dtype=np.float64)
    n = m.shape[1]
    q, r = qr_decompose(m)
    if max_swaps is None:
        max_swaps = 10 * iteration_bound(m)
    z = np.eye(n, dtype=np.int64)
    swaps = 0

    def size_reduce(k, j):
        c = float(round_half_away_from_zero(r[j, k] / r[j, j]))
        if c == 0.0:
            return
        if abs(c) * np.max(np.abs(z[:, j])) + np.max(np.abs(z[:, k])) > 2.0**53:
            raise IterationOverflow("unimodular transform would exceed 2^53")
        r[:j + 1, k] -= c * r[:j + 1, j]
        z[:, k] -= int(c) * z[:, j]

    k = 1
    while k < n:
        size_reduce(k, k - 1)
        if delta * r[k - 1, k - 1] ** 2 > r[k, k] ** 2 + r[k - 1, k] ** 2 + 1e-12:
            swaps += 1
            if swaps > max_swaps:
                raise IterationOverflow(f"swap count exceeded budget {max_swaps}")
            r[:, [k - 1, k]] = r[:, [k, k - 1]]
            z[:, [k - 1, k]] = z[:, [k, k - 1]]
            a, b = r[k - 1, k - 1], r[k, k - 1]
            h = math.hypot(a, b)
            rot = np.array([[a, b], [b, -a]]) / h
            r[[k - 1, k], k - 1:] = rot @ r[[k - 1, k], k - 1:]
            r[k, k - 1] = 0.0
            q[:, [k - 1, k]] = q[:, [k - 1, k]] @ rot
            k = max(k - 1, 1)
        else:
            for j in range(k - 2, -1, -1):
                size_reduce(k, j)
            k += 1
    return z, swaps, q, r


def _gdfe_basis(h):
    """The basis a reduction-aided decode of H reduces: the GDFE triangle
    of H with the identity penalty, times the identity generator."""
    n = h.shape[1]
    return RegularizedProblem(y=np.zeros(h.shape[0]), h=h, t_reg=np.eye(n),
                              scaled_generator=np.eye(n)).prepared().basis


def _differential_bases():
    """Seeded bases: 2x2 Rayleigh GDFE triangles at several levels, 8-dim
    block-diagonal ones like the two-round ARQ fragment, and random
    n = 2..8 Gaussian matrices."""
    rng = np.random.default_rng(1707)
    bases = []
    for rho_db in (5.0, 15.0, 25.0, 35.0):
        rho = 10.0 ** (rho_db / 10.0)
        bases += [_gdfe_basis(sample_quasi_static_rayleigh(2, 2, 1, rho, rng))
                  for _ in range(150)]
    bases += [_gdfe_basis(sample_quasi_static_rayleigh(2, 2, 2, 10.0 ** 2.5, rng))
              for _ in range(200)]
    for _ in range(300):
        n = int(rng.integers(2, 9))
        m = rng.standard_normal((n, n))
        while abs(np.linalg.det(m)) < 1e-3:
            m = rng.standard_normal((n, n))
        bases.append(m)
    return bases


def test_lll_list_loop_matches_numpy_reference():
    bases = _differential_bases()
    assert any(b.shape == (8, 8) and np.count_nonzero(b[:4, 4:]) == 0 for b in bases)
    for i, m in enumerate(bases):
        res = lll_reduce(m)
        z_ref, swaps_ref, q_ref, r_ref = _numpy_lll_reference(m)
        assert res.iterations == swaps_ref, f"basis {i}"
        assert np.array_equal(res.unimodular, z_ref), f"basis {i}"
        scale = float(np.max(np.abs(r_ref)))
        assert np.allclose(res.r, r_ref, rtol=0.0, atol=1e-11 * scale), f"basis {i}"
        assert np.allclose(res.q, q_ref, rtol=0.0, atol=1e-11), f"basis {i}"
        n = m.shape[1]
        ok, why = is_lll_reduced(res.reduced)
        assert ok, f"basis {i}: {why}"
        assert abs(integer_det(res.unimodular)) == 1
        assert np.array_equal(res.reduced, m @ res.unimodular)
        assert np.allclose(res.q @ res.r, res.reduced, rtol=1e-9, atol=1e-9)
        assert np.array_equal(np.triu(res.r), res.r)
        assert np.all(np.diag(res.r) > 0)
        assert (res.unimodular.dtype, res.q.dtype, res.r.dtype, res.reduced.dtype) == (
            np.int64, np.float64, np.float64, np.float64)
        assert res.q.shape == res.r.shape == (n, n)
        if i % 10 == 0 and res.iterations > 0:
            with pytest.raises(IterationOverflow):
                lll_reduce(m, max_swaps=res.iterations - 1)
            capped = lll_reduce(m, max_swaps=res.iterations)
            assert np.array_equal(capped.unimodular, res.unimodular)


def test_lll_reference_refuses_as_the_list_loop():
    # The same 2^53 hazard and swap cap refuse both loops.
    m = np.array([[1.0, 1e8, 0.0], [0.0, 1.0, 1e9], [0.0, 0.0, 1.0]])
    for reduce in (lll_reduce, _numpy_lll_reference):
        with pytest.raises(IterationOverflow, match="2\\^53"):
            reduce(m)
        with pytest.raises(IterationOverflow, match="budget 0"):
            reduce(np.array([[1.0, 0.99], [0.0, 0.01]]), max_swaps=0)


def _lockstep_against_list_loop(bases, max_swaps):
    """`lll_reduce_stack` of a stack equals `lll_reduce` of each basis bit
    for bit, and refuses exactly the bases the list loop refuses."""
    stack = lll_reduce_stack(np.array(bases), max_swaps)
    refused = 0
    for i, m in enumerate(bases):
        try:
            res = lll_reduce(m, max_swaps=max_swaps)
        except IterationOverflow:
            assert stack.refused[i] and stack.lane(i) is None, f"basis {i}"
            refused += 1
            continue
        lane = stack.lane(i)
        assert lane is not None and lane.iterations == res.iterations, f"basis {i}"
        for field in ("r", "q", "unimodular", "reduced"):
            assert np.array_equal(getattr(lane, field), getattr(res, field)), (i, field)
        assert lane.unimodular.dtype == np.int64
    return refused


def test_lll_lockstep_matches_the_list_loop():
    # Every shape of the differential bases as one stack, at the default
    # cap and at caps of one swap and of none, which refuse many.
    by_shape = {}
    for m in _differential_bases():
        by_shape.setdefault(m.shape, []).append(m)
    refused = {}
    for shape, bases in by_shape.items():
        cap = 10 * max(iteration_bound(m) for m in bases)
        for max_swaps in (cap, 1, 0):
            refused[max_swaps] = (refused.get(max_swaps, 0)
                                  + _lockstep_against_list_loop(bases, max_swaps))
    assert refused[max(refused)] == 0 and refused[1] > 0 and refused[0] > refused[1]


def test_lll_lockstep_refuses_at_the_2_53_guard_lane_by_lane():
    bases = [np.array([[1.0, 1e8, 0.0], [0.0, 1.0, 1e9], [0.0, 0.0, 1.0]]),
             np.array([[1.0, 1e6, 0.0], [0.0, 1.0, 1e6], [0.0, 0.0, 1.0]]),
             np.array([[2.0, 0.3, 5.1], [0.0, 1.0, 0.7], [0.0, 0.0, 0.4]])]
    assert _lockstep_against_list_loop(bases, 100) == 1
    stack = lll_reduce_stack(np.array(bases), 100)
    assert list(stack.refused) == [True, False, False]
    assert stack.lane(1).unimodular[0, 2] == 10**12


def test_gated_reduce_stack_matches_gated_reduce():
    bases = [b for b in _differential_bases() if b.shape == (4, 4)]
    gates = gated_reduce_stack(np.array(bases), rho=10.0, alpha=1.0)
    timed_out = 0
    for i, m in enumerate(bases):
        want, got = gated_reduce(m, rho=10.0, alpha=1.0), gates.outcome(i)
        assert (got.kappa, got.threshold, got.timed_out) == (
            want.kappa, want.threshold, want.timed_out)
        if not want.timed_out:
            assert np.array_equal(got.basis.reduced, want.basis.reduced)
            assert np.array_equal(got.basis.unimodular, want.basis.unimodular)
        timed_out += want.timed_out
    assert 0 < timed_out < len(bases)
    # A threshold of 1 refuses every basis, so the lockstep loop gets none.
    gates = gated_reduce_stack(np.array(bases), rho=1.0, alpha=1.0)
    assert gates.reduction.refused.size == 0
    assert all(gates.outcome(i).timed_out for i in range(len(bases)))
