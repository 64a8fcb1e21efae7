"""Dense numerical kernel against the numpy.linalg reference routines."""

import numpy as np
import pytest

from latdec.errors import (
    NotPositiveDefinite,
    RankDeficient,
    SingularTriangular,
)
from latdec.numkernel import (
    as_matrix,
    as_vector,
    cholesky_upper,
    condition_number_2norm,
    qr_decompose,
    singular_values,
    solve_lower_triangular,
    solve_upper_triangular,
)


def random_spd(rng, n):
    m = rng.standard_normal((n, n))
    return m @ m.T + n * np.eye(n)


def test_as_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        as_matrix(np.array([1.0, 2.0]), "m")
    with pytest.raises(ValueError):
        as_matrix(np.array([[1.0, np.nan]]), "m")
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.inf]]), "m")
    out = as_matrix([[1, 2], [3, 4]], "m")
    assert out.dtype == np.float64
    assert out.shape == (2, 2)


def test_as_vector_rejects_bad_input():
    with pytest.raises(ValueError):
        as_vector(np.eye(2), "v")
    with pytest.raises(ValueError):
        as_vector([1.0, np.nan], "v")
    assert as_vector([1, 2, 3], "v").shape == (3,)


def test_cholesky_frozen_2x2():
    # A = [[4, 2], [2, 3]] factors by hand: U = [[2, 1], [0, sqrt(2)]].
    a = np.array([[4.0, 2.0], [2.0, 3.0]])
    u = cholesky_upper(a)
    assert u[1, 0] == 0.0
    assert abs(u[0, 0] - 2.0) < 1e-14
    assert abs(u[0, 1] - 1.0) < 1e-14
    assert abs(u[1, 1] - 1.4142135623730951) < 1e-14
    assert np.max(np.abs(u.T @ u - a)) < 1e-14


def test_cholesky_matches_numpy():
    rng = np.random.default_rng(101)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        a = random_spd(rng, n)
        u = cholesky_upper(a)
        ref = np.linalg.cholesky(a)          # lower-triangular reference
        assert np.allclose(u.T, ref, rtol=1e-10, atol=1e-10)
        assert np.allclose(u.T @ u, a, rtol=1e-12, atol=1e-12)
        assert np.all(np.diag(u) > 0)


def test_cholesky_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        cholesky_upper(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(NotPositiveDefinite):
        cholesky_upper(np.array([[0.0, 0.0], [0.0, 1.0]]))


def test_qr_matches_numpy():
    rng = np.random.default_rng(202)
    for _ in range(200):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, m + 1))
        a = rng.standard_normal((m, n))
        q, r = qr_decompose(a)
        assert q.shape == (m, n)
        assert r.shape == (n, n)
        assert np.allclose(q @ r, a, rtol=1e-10, atol=1e-12)
        assert np.allclose(q.T @ q, np.eye(n), atol=1e-10)
        assert np.all(np.diag(r) > 0)
        # Same triangle as the reference once signs are aligned.
        r_ref = np.linalg.qr(a, mode="r")
        signs = np.sign(np.diag(r_ref))
        assert np.allclose(signs[:, None] * r_ref, r, rtol=1e-9, atol=1e-10)


def _lapack_qr(a):
    """np.linalg.qr with the positive-diagonal sign fix."""
    q, r = np.linalg.qr(a)
    signs = np.where(np.diag(r) < 0.0, -1.0, 1.0)
    return q * signs, r * signs[:, None]


def test_qr_of_an_upper_triangle_is_lapacks_without_the_call():
    # (I, M) for a square upper triangle with a positive diagonal is what
    # LAPACK returns, to the last bit (the -0.0 below Q's diagonal and any
    # -0.0 of M below its diagonal, which R reads as +0.0, included); a
    # general matrix still goes to LAPACK.  Stacks match their matrices.
    rng = np.random.default_rng(505)
    for n in (1, 2, 3, 4, 6, 8, 16):
        stack = np.triu(rng.standard_normal((60, n, n)))
        diag = np.arange(n)
        stack[:, diag, diag] = np.abs(stack[:, diag, diag]) + 1e-3
        stack[::3][:, np.tril_indices(n, -1)[0], np.tril_indices(n, -1)[1]] = -0.0
        general = rng.standard_normal((60, n, n))
        for batch in (stack, general):
            qs, rs = qr_decompose(batch)
            for a, q_lane, r_lane in zip(batch, qs, rs):
                q, r = qr_decompose(a)
                q_ref, r_ref = _lapack_qr(a)
                for got in ((q, r), (q_lane, r_lane)):
                    assert got[0].tobytes() == q_ref.tobytes()
                    assert got[1].tobytes() == r_ref.tobytes()


def test_stacked_kernels_match_their_matrices():
    rng = np.random.default_rng(606)
    for n in (2, 4, 8):
        a = np.array([random_spd(rng, n) for _ in range(50)])
        u = cholesky_upper(a)
        b = rng.standard_normal((50, n, 3))
        low = np.swapaxes(u, -1, -2)
        x_up, x_low = solve_upper_triangular(u, b), solve_lower_triangular(low, b)
        sv = singular_values(a)
        for i in range(50):
            assert np.array_equal(u[i], cholesky_upper(a[i]))
            assert np.array_equal(x_up[i], solve_upper_triangular(u[i], b[i]))
            assert np.array_equal(x_low[i], solve_lower_triangular(low[i], b[i]))
            assert np.array_equal(sv[i], singular_values(a[i]))
    # One failing matrix fails the stack.
    a[7] = np.array([[1.0, 2.0], [2.0, 1.0]]).repeat(4, 0).repeat(4, 1)
    with pytest.raises(NotPositiveDefinite):
        cholesky_upper(a)
    with pytest.raises(RankDeficient):
        qr_decompose(np.array([np.eye(2), [[1.0, 2.0], [2.0, 4.0]]]))


def test_qr_rank_deficient():
    a = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
    with pytest.raises(RankDeficient):
        qr_decompose(a)


def test_singular_values_frozen():
    # A = [[3, 0], [4, 5]]: A^T A has eigenvalues 45 and 5.
    sv = singular_values(np.array([[3.0, 0.0], [4.0, 5.0]]))
    assert abs(sv[0] - 6.708203932499369) < 1e-12
    assert abs(sv[1] - 2.23606797749979) < 1e-12


def test_singular_values_match_numpy():
    rng = np.random.default_rng(404)
    for _ in range(200):
        n = int(rng.integers(1, 8))
        a = rng.standard_normal((n, n))
        sv = singular_values(a)
        ref = np.linalg.svd(a, compute_uv=False)
        assert sv.shape == ref.shape
        assert np.all(np.diff(sv) <= 1e-12)       # sorted descending
        assert np.allclose(sv, ref, rtol=1e-9, atol=1e-11)


def test_condition_number():
    a = np.diag([10.0, 1.0, 0.1])
    assert abs(condition_number_2norm(a) - 100.0) < 1e-9
    assert condition_number_2norm(np.zeros((2, 2))) == np.inf


def test_triangular_solves():
    rng = np.random.default_rng(505)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        u = np.triu(rng.standard_normal((n, n)))
        u[np.diag_indices(n)] = rng.uniform(0.5, 2.0, n) * np.where(
            rng.random(n) < 0.5, -1.0, 1.0)
        b = rng.standard_normal(n)
        x = solve_upper_triangular(u, b)
        assert np.allclose(u @ x, b, rtol=1e-9, atol=1e-9)
        low = u.T
        y = solve_lower_triangular(low, b)
        assert np.allclose(low @ y, b, rtol=1e-9, atol=1e-9)
        # A matrix right-hand side solves column by column.
        bb = rng.standard_normal((n, 3))
        xx = solve_upper_triangular(u, bb)
        yy = solve_lower_triangular(low, bb)
        for j in range(3):
            assert np.allclose(xx[:, j], solve_upper_triangular(u, bb[:, j]),
                               rtol=1e-12, atol=1e-12)
            assert np.allclose(yy[:, j], solve_lower_triangular(low, bb[:, j]),
                               rtol=1e-12, atol=1e-12)
        assert np.allclose(u @ xx, bb, rtol=1e-9, atol=1e-9)
        assert np.allclose(low @ yy, bb, rtol=1e-9, atol=1e-9)


def test_triangular_singular_raises():
    u = np.array([[1.0, 1.0], [0.0, 0.0]])
    with pytest.raises(SingularTriangular):
        solve_upper_triangular(u, np.ones(2))
    with pytest.raises(SingularTriangular):
        solve_lower_triangular(u.T, np.ones(2))


def _nan_entry(a, index):
    a = np.array(a, dtype=np.float64)
    a[index] = np.nan
    return a


@pytest.mark.parametrize("a", [np.full((3, 3), np.nan),
                               _nan_entry(np.eye(3), (1, 1)),
                               _nan_entry(np.eye(3), (2, 2))],
                         ids=["all", "pivot-1", "pivot-2"])
def test_nan_fails_the_error_contract_floors(a):
    # The kernels scan nothing, so a NaN made inside the program reaches
    # LAPACK, which passes it through; each floor must then fail.
    with pytest.raises(NotPositiveDefinite):
        cholesky_upper(a)
    with pytest.raises(RankDeficient):
        qr_decompose(a)
    with pytest.raises(SingularTriangular):
        solve_upper_triangular(a, np.ones(3))
    with pytest.raises(SingularTriangular):
        solve_lower_triangular(a, np.ones(3))
