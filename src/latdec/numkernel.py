"""Small dense linear-algebra kernel.

Everything downstream (filters, reduction, decoders) runs through the
operations here: upper Cholesky, thin QR, singular values and the 2-norm
condition number, and triangular solves.  Each is a thin wrapper around
numpy.linalg (LAPACK) that adds this package's error contract as checks on
the LAPACK output: a pivot floor (NotPositiveDefinite), an |R_ii| floor
(RankDeficient) and a diagonal floor on triangular solves
(SingularTriangular).  `cholesky_upper` does not test symmetry: every
caller symmetrizes the Gram matrix it forms just before the call.

Conventions: a "matrix" is a 2-D float64 ndarray, a "vector" is 1-D.
Cholesky, QR, the singular values and the triangular solves also take
stacks (..., n, n), factored matrix by matrix with the LAPACK routine a
lone matrix gets, so each matrix of a stack gets the bits it gets alone;
a stack fails a floor if any of its matrices does.
The kernels coerce with np.asarray and scan nothing.  The input coercers
`as_real`/`as_integer` (never a bool as a number) and `as_matrix`/
`as_vector` (numeric, finite, nonempty, of the right shape) raise
ValueError, and run only where values enter the program: in the config
objects (`ShapingRegion`, `LatticeDesign`, `NoiseModel`, `ChannelConfig`,
`SweepConfig`) and the decoder entry points (the `RegularizedProblem`
constructor; a sweep block's `BlockStage.build` scans its stacks for
NaN/Inf once), so no kernel meets an empty array.  Every floor is written as
`not (value >= floor)`, so a NaN produced inside the program fails it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import NotPositiveDefinite, RankDeficient, SingularTriangular

__all__ = [
    "as_real",
    "as_integer",
    "as_matrix",
    "as_vector",
    "cholesky_upper",
    "qr_decompose",
    "condition_number_2norm",
    "singular_values",
    "solve_upper_triangular",
    "solve_lower_triangular",
    "matvec",
]


def as_real(x, name: str) -> float:
    """An int or float, numpy ones too (never a bool), as a float."""
    if isinstance(x, bool) or not isinstance(x, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a number, got {x!r}")
    try:
        return float(x)
    except OverflowError:
        raise ValueError(f"{name} leaves the float64 range") from None


def as_integer(x, name: str, minimum: int | None = None) -> int:
    """An int or numpy integer (never a bool) as an int, at least `minimum`."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {x!r}")
    if minimum is not None and x < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {x}")
    return int(x)


def _as_array(a, ndim: int, name: str) -> np.ndarray:
    """The body of `as_matrix` (ndim 2) and `as_vector` (ndim 1)."""
    try:
        m = np.asarray(a, dtype=np.float64)
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"{name} is not numeric ({exc})") from None
    if m.ndim != ndim or m.size == 0:
        raise ValueError(f"{name} must be {ndim}-D and nonempty, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains NaN or Inf")
    return m


def matvec(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a @ v, or that of each matrix and vector of stacks (..., m, n) and
    (..., n), as a stacked matmul: each lane rounds as it would alone."""
    return (a @ v[..., None])[..., 0]


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite, nonempty 2-D float64 array (copy only if needed)."""
    return _as_array(a, 2, name)


def as_vector(a, name: str = "vector") -> np.ndarray:
    """Coerce to a finite, nonempty 1-D float64 array."""
    return _as_array(a, 1, name)


def cholesky_upper(a) -> np.ndarray:
    """Factor a symmetric positive definite A as U^T U with U upper
    triangular and positive diagonal; A may be a stack (..., n, n), factored
    matrix by matrix.  Only the lower triangle of A is read.

    Raises NotPositiveDefinite if any pivot U_ii^2 falls below
    1e-14 * trace(A)/n (in a stack, if any matrix's does).
    """
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[-1]
    try:
        u = np.swapaxes(np.linalg.cholesky(a), -1, -2)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"A is not positive definite: {exc}") from None
    # Pivot floor guards against nearly semidefinite inputs.
    floor = 1e-14 * np.trace(a, axis1=-2, axis2=-1) / n
    pivot = np.min(_diagonal(u), axis=-1) ** 2
    failed = np.flatnonzero(~(pivot >= floor))
    if failed.size:
        i = failed[0]
        raise NotPositiveDefinite(f"pivot {np.ravel(pivot)[i]:.3e} below floor "
                                  f"{np.ravel(floor)[i]:.3e}")
    return u


def qr_decompose(m) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR of M (rows >= cols, full column rank), or of each matrix of
    a stack (..., rows, cols): M = Q R with orthonormal columns in Q and a
    positive diagonal on upper-triangular R.

    A square upper triangle with a positive diagonal (a stack of them) is
    returned as (I, M) with no LAPACK call: Householder QR leaves each of
    its columns as it is (tau = 0), so that is LAPACK's result too, bit for
    bit, down to the signed zeros below the diagonals.

    Raises RankDeficient when the smallest |R_ii| is below 1e-12 * ||M||_F
    (in a stack, for any matrix).
    """
    m = np.asarray(m, dtype=np.float64)
    rows, n = m.shape[-2:]
    lower = _strictly_lower(n)
    if rows == n and (_diagonal(m) > 0.0).all() and not m[..., lower].any():
        # dorg2r scales the (zero) reflector below each diagonal by -tau = -0.0.
        q = np.where(lower, -0.0 * m, np.eye(n))
        r = np.where(lower, 0.0, m)
    else:
        q, r = np.linalg.qr(m)
        # Fix signs so every diagonal entry of R is positive.
        signs = np.where(_diagonal(r) < 0.0, -1.0, 1.0)
        q *= signs[..., None, :]
        r *= signs[..., :, None]
    floor = 1e-12 * np.sqrt((m * m).sum(axis=(-2, -1)))
    if not (np.abs(_diagonal(r)).min(axis=-1) >= floor).all():
        raise RankDeficient("smallest |R_ii| below 1e-12 * ||M||_F")
    return q, r


@functools.cache
def _strictly_lower(n: int) -> np.ndarray:
    """The mask of the entries below an n x n diagonal (read only)."""
    mask = np.tri(n, k=-1, dtype=bool)
    mask.flags.writeable = False
    return mask


def _diagonal(m: np.ndarray) -> np.ndarray:
    """The diagonal of a matrix, or of each matrix of a stack."""
    return m.diagonal(0, -2, -1)


def singular_values(m) -> np.ndarray:
    """All singular values of a square M (of each matrix of a stack),
    descending."""
    return np.linalg.svd(np.asarray(m, dtype=np.float64), compute_uv=False)


def condition_number_2norm(m) -> float:
    """2-norm condition number sigma_max / sigma_min of a square M.

    Returns +inf when sigma_min underflows (below 1e-300)."""
    sv = singular_values(m)
    smin = float(sv[-1])
    smax = float(sv[0])
    if smin < 1e-300:
        return math.inf
    return smax / smin


def _triangular_system(t, b, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Coerce a triangular T and a right-hand side b (a vector, or a
    matrix of column right-hand sides), or stacks (..., n, n) and
    (..., n, k) of them; raise SingularTriangular when any |T_ii| < 1e-14."""
    t = np.asarray(t, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if not (float(np.min(np.abs(_diagonal(t)))) >= 1e-14):
        raise SingularTriangular(f"|{name}_ii| below 1e-14")
    return t, b


def solve_upper_triangular(u, b) -> np.ndarray:
    """Solve U x = b with U upper triangular; b may hold several columns,
    and U and b may be stacks (..., n, n) and (..., n, k).

    LAPACK's LU of an upper triangle pivots nowhere and eliminates
    nothing, so the solve is plain back substitution.  Raises
    SingularTriangular when any |U_ii| < 1e-14."""
    return np.linalg.solve(*_triangular_system(u, b, "U"))


def solve_lower_triangular(l, b) -> np.ndarray:
    """Solve L x = b with L lower triangular; b may hold several columns,
    and L and b may be stacks (..., n, n) and (..., n, k).

    Reversing the order of rows and columns turns L into an upper
    triangle, so the solve is plain forward substitution."""
    l, b = _triangular_system(l, b, "L")
    rows = np.s_[::-1] if b.ndim == 1 else np.s_[..., ::-1, :]
    return np.linalg.solve(l[..., ::-1, ::-1], b[rows])[rows]
