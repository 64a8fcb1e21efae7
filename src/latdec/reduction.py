"""Lattice basis reduction with an iteration bound and a condition gate.

The reducer is floating-point LLL run on the triangular factor of the
basis (the R-domain formulation of MMSE-SQRD LLL): one QR factors the
input, size reduction subtracts rounded multiples of columns of R (the
scalar half-away-from-zero rule of `lattice`), and each swap is repaired
by one 2x2 reflection of two rows of R and two columns of Q.  After the QR,
the loop runs on Python floats and ints, so on these small triangles it
pays no per-scalar numpy dispatch, and its arithmetic does not depend on
which OpenBLAS kernel the host selects.  The unimodular transform Z is
guarded below 2^53 and returned in int64, so reduced = input @ Z holds
with |det Z| = 1 checkable over the integers, and the reduced basis
leaves the reducer already factored as Q R for the detectors.  A
closed-form bound on the number of swap steps (quadratic in dimension,
logarithmic in the condition number) backs both the pathology guard and
the run-time gate: bases whose condition number exceeds rho^alpha are
refused outright, which is what keeps worst-case decode complexity
polynomially bounded in the signal level.

`lll_reduce_stack` and `gated_reduce_stack` do the same at delta = 3/4
for a stack of bases (B, n, n), bit for bit, as one lockstep loop of
masked numpy operations over the lanes; a sweep block reduces each rung
of at least 8 n lanes with them.  The single-basis list loop stays the
library path and their reference.

`is_lll_reduced` checks a basis on a QR of its own, LAPACK's R from
`np.linalg.qr`, never on the reducer's factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IterationOverflow
from .lattice import round_half_away_from_zero, round_half_away_from_zero_scalar
from .numkernel import as_real, condition_number_2norm, qr_decompose, singular_values

__all__ = [
    "ReducedBasis",
    "GateOutcome",
    "ReducedStack",
    "GateStack",
    "lll_reduce",
    "lll_reduce_stack",
    "is_lll_reduced",
    "iteration_bound",
    "iteration_bound_for_kappa",
    "gated_reduce",
    "gated_reduce_stack",
    "gate_exponent_default",
    "integer_det",
]

#: Base of the swap-count bound: each swap shrinks a Gram-Schmidt potential
#: by at least 2/sqrt(3) when delta = 3/4.
_BOUND_BASE = 2.0 / math.sqrt(3.0)

#: LLL's delta in `lll_reduce_stack`, the value the swap cap assumes.
_DELTA = 0.75

#: Absolute slack on the swap test; prevents cycling on exact ties.
_SWAP_SLACK = 1e-12

#: Slack accepted by the reducedness checker.
_CHECK_SLACK = 1e-9

#: Largest magnitude a unimodular entry may reach: int64 arithmetic is safe
#: and every entry converts to float64 exactly.
_Z_LIMIT = 2.0**53


@dataclass
class ReducedBasis:
    """LLL output: reduced = original @ unimodular = q @ r."""

    reduced: np.ndarray        # (n, n) float64 columns
    unimodular: np.ndarray     # (n, n) int64 Z, |det Z| = 1, |Z_ij| <= 2^53
    q: np.ndarray              # (n, n) orthogonal factor of the reduced basis
    r: np.ndarray              # (n, n) upper-triangular factor, positive diagonal
    iterations: int            # swap steps performed


@dataclass
class GateOutcome:
    """Result of a gated reduction: a basis, or a refusal (timeout)."""

    basis: ReducedBasis | None
    timed_out: bool
    kappa: float
    threshold: float


@dataclass
class ReducedStack:
    """`lll_reduce` of each basis of a stack (B, n, n): the input stack,
    the stacks of `ReducedBasis`'s other fields, and the lanes `refused` (a
    lane that hit the swap cap or the 2^53 guard, where `lll_reduce` raises
    IterationOverflow).  A refused lane's other fields hold whatever the
    loop had reached."""

    basis: np.ndarray          # (B, n, n) float64, the input
    unimodular: np.ndarray     # (B, n, n) int64
    q: np.ndarray              # (B, n, n)
    r: np.ndarray              # (B, n, n)
    iterations: np.ndarray     # (B,) swap steps
    refused: np.ndarray        # (B,) bool

    def lane(self, i: int) -> ReducedBasis | None:
        """Lane i as `lll_reduce` returns it (views of the stacks, and its
        M @ Z formed as `lll_reduce` forms it), or None if refused."""
        if self.refused[i]:
            return None
        return ReducedBasis(reduced=self.basis[i] @ self.unimodular[i],
                            unimodular=self.unimodular[i],
                            q=self.q[i], r=self.r[i], iterations=int(self.iterations[i]))


@dataclass
class GateStack:
    """`gated_reduce` of each basis of a stack: lane i's outcome is `outcome(i)`."""

    kappa: np.ndarray          # (B,) condition numbers
    threshold: float
    reduction: ReducedStack    # of the lanes the gate passed
    slots: np.ndarray          # (B,) lane -> its lane of `reduction`, -1 if refused

    def outcome(self, i: int) -> GateOutcome:
        slot = self.slots[i]
        basis = None if slot < 0 else self.reduction.lane(slot)
        return GateOutcome(basis=basis, timed_out=basis is None,
                           kappa=float(self.kappa[i]), threshold=self.threshold)


def lll_reduce(m, delta: float = 0.75,
               max_swaps: int | None = None) -> ReducedBasis:
    """LLL-reduce the columns of a full-rank matrix.

    delta must sit in (1/4, 1).  `max_swaps` caps the swap count; when
    omitted the cap is ten times the closed-form bound, and exceeding the
    cap raises IterationOverflow.  So does a size-reduction step that could
    push an entry of the unimodular transform past 2^53, beyond which
    neither int64 arithmetic is safe nor M @ Z exact in float64.

    Only the entry QR and the final M @ Z run through numpy: the swap
    loop works on Python floats, so its result does not depend on the
    OpenBLAS kernel.  The arrays are rebuilt once, at the end.
    """
    m = np.asarray(m, dtype=np.float64)
    n = m.shape[1]
    if m.shape[0] != n:
        raise ValueError(f"basis matrix must be square, got {m.shape}")
    if not (0.25 < delta < 1.0):
        raise ValueError("delta must lie in (1/4, 1)")
    q, r = qr_decompose(m)  # raises RankDeficient when singular
    if max_swaps is None:
        max_swaps = 10 * iteration_bound(m)

    # One list per column of R, Q and Z: mu_kj = R_jk / R_jj and
    # ||b*_k||^2 = R_kk^2.
    rc = r.T.tolist()
    qc = q.T.tolist()
    zc = [[int(i == j) for i in range(n)] for j in range(n)]
    swaps = 0

    def size_reduce(k: int, j: int):
        rk, rj = rc[k], rc[j]
        c = round_half_away_from_zero_scalar(rk[j] / rj[j])
        if c == 0.0:
            return
        zk, zj = zc[k], zc[j]
        if abs(c) * max(map(abs, zj)) + max(map(abs, zk)) > _Z_LIMIT:
            raise IterationOverflow("unimodular transform would exceed 2^53")
        for i in range(j + 1):
            rk[i] -= c * rj[i]
        ci = int(c)
        zc[k] = [a - ci * b for a, b in zip(zk, zj)]

    k = 1
    while k < n:
        size_reduce(k, k - 1)
        rk1, rk = rc[k - 1], rc[k]
        if delta * rk1[k - 1] ** 2 > rk[k] ** 2 + rk[k - 1] ** 2 + _SWAP_SLACK:
            swaps += 1
            if swaps > max_swaps:
                raise IterationOverflow(
                    f"swap count exceeded budget {max_swaps}"
                )
            # Exchange columns k-1, k; a reflection of rows k-1, k of R
            # (and of the matching columns of Q) restores the triangle
            # with a positive diagonal.
            rc[k - 1], rc[k] = rk, rk1
            zc[k - 1], zc[k] = zc[k], zc[k - 1]
            h = math.hypot(rk[k - 1], rk[k])
            ca, cb = rk[k - 1] / h, rk[k] / h
            for col in rc[k - 1:]:
                x0, x1 = col[k - 1], col[k]
                col[k - 1] = ca * x0 + cb * x1
                col[k] = cb * x0 - ca * x1
            rk[k] = 0.0  # R[k, k-1]
            q0, q1 = qc[k - 1], qc[k]
            qc[k - 1] = [ca * x0 + cb * x1 for x0, x1 in zip(q0, q1)]
            qc[k] = [cb * x0 - ca * x1 for x0, x1 in zip(q0, q1)]
            k = max(k - 1, 1)
        else:
            for j in range(k - 2, -1, -1):
                size_reduce(k, j)
            k += 1
    z = np.array(zc, dtype=np.int64).T.copy()
    return ReducedBasis(reduced=m @ z, unimodular=z, q=np.array(qc).T.copy(),
                        r=np.array(rc).T.copy(), iterations=swaps)


def lll_reduce_stack(m, max_swaps: int) -> ReducedStack:
    """`lll_reduce` of each basis of a stack (B, n, n) at delta = 3/4 with
    the swap cap `max_swaps`, bit for bit, as one lockstep loop over the
    lanes.

    Every lane sits at its own k.  Each pass does one step of the list
    loop on every lane still running: the size reduction of column k by
    its own column j, then, where j = k - 1, the swap test, and for the
    lanes that swap the exchange and 2x2 reflection (the hypotenuse by
    `math.hypot`, as the list loop takes it).  Each is a masked numpy
    operation in the list loop's order of operations, so every lane meets
    the same roundings.  A lane that would raise IterationOverflow is
    refused and leaves the loop.

    The entry QR is `qr_decompose` of the stack, which costs nothing on
    upper triangles with a positive diagonal.  Numpy's dispatch makes the
    loop slow on few lanes (about 1 ms at B = 1, against about 0.1 ms for
    `lll_reduce`): it is for blocks of bases."""
    m = np.asarray(m, dtype=np.float64)
    count, n = m.shape[0], m.shape[-1]
    q, r = qr_decompose(m)
    refused = np.zeros(count, dtype=bool)
    live = np.arange(count if n > 1 else 0)
    z = np.array(np.broadcast_to(np.eye(n, dtype=np.int64), m.shape))
    swaps = np.zeros(count, dtype=np.int64)
    k = np.ones(count, dtype=np.intp)
    j = np.zeros(count, dtype=np.intp)
    rows = np.arange(n)

    while live.size:
        kl, jl = k[live], j[live]
        # size_reduce(k, j): column k minus c times column j on rows 0..j.
        c = round_half_away_from_zero(r[live, jl, kl] / r[live, jl, jl])
        act = c != 0.0
        if act.any():
            s, cs, ks, js = live[act], c[act], kl[act], jl[act]
            zk, zj = z[s, :, ks], z[s, :, js]
            over = (np.abs(cs) * np.max(np.abs(zj), axis=1)
                    + np.max(np.abs(zk), axis=1) > _Z_LIMIT)
            refused[s[over]] = True
            ok = ~over
            s, cs, ks, js, zk, zj = s[ok], cs[ok], ks[ok], js[ok], zk[ok], zj[ok]
            rk = r[s, :, ks]
            r[s, :, ks] = np.where(rows <= js[:, None], rk - cs[:, None] * r[s, :, js], rk)
            z[s, :, ks] = zk - cs.astype(np.int64)[:, None] * zj
            keep = ~refused[live]
            live, kl, jl = live[keep], kl[keep], jl[keep]
        # The swap test, on the lanes where j = k - 1.
        test = jl == kl - 1
        a, ka = live[test], kl[test]
        swap = _DELTA * r[a, ka - 1, ka - 1] ** 2 > (
            r[a, ka, ka] ** 2 + r[a, ka - 1, ka] ** 2 + _SWAP_SLACK)
        s, ks = a[swap], ka[swap]
        swaps[s] += 1
        capped = swaps[s] > max_swaps
        refused[s[capped]] = True
        s, ks = s[~capped], ks[~capped]
        stay = ~refused[live]
        stay[test.nonzero()[0][swap][~capped]] = False
        if s.size:
            k0 = ks - 1
            # Exchange columns k-1, k; a reflection of rows k-1, k of R
            # (and of the matching columns of Q) restores the triangle.
            for arr in (r, z):
                arr[s, :, k0], arr[s, :, ks] = arr[s, :, ks], arr[s, :, k0]
            x0, x1 = r[s, k0, k0], r[s, ks, k0]
            h = np.array([math.hypot(a0, a1) for a0, a1 in zip(x0.tolist(), x1.tolist())])
            ca, cb = (x0 / h)[:, None], (x1 / h)[:, None]
            r0, r1 = r[s, k0, :], r[s, ks, :]
            right = rows >= k0[:, None]
            r[s, k0, :] = np.where(right, ca * r0 + cb * r1, r0)
            r[s, ks, :] = np.where(right, cb * r0 - ca * r1, r1)
            r[s, ks, k0] = 0.0
            q0, q1 = q[s, :, k0], q[s, :, ks]
            q[s, :, k0] = ca * q0 + cb * q1
            q[s, :, ks] = cb * q0 - ca * q1
            k[s] = np.maximum(k0, 1)
            j[s] = k[s] - 1
        # Every other running lane moves to its next size reduction, or on
        # to the next k once column k is size reduced.
        moved = live[stay]
        j[moved] -= 1
        done = moved[j[moved] < 0]
        k[done] += 1
        j[done] = k[done] - 1
        live = live[~refused[live] & (k[live] < n)]
    return ReducedStack(basis=m, unimodular=z, q=q, r=r, iterations=swaps,
                        refused=refused)


def is_lll_reduced(m, delta: float = 0.75) -> tuple[bool, str | None]:
    """Check size reduction and the exchange condition on the columns of M.

    Reads mu and the squared Gram-Schmidt norms off LAPACK's R of M:
    mu_ij = R_ji / R_jj and ||b*_i||^2 = R_ii^2, whatever the signs of R's
    diagonal.

    Returns (True, None) or (False, description of the first violation)."""
    m = np.asarray(m, dtype=np.float64)
    n = m.shape[1]
    if not (0.25 < delta < 1.0):
        raise ValueError("delta must lie in (1/4, 1)")
    r = np.linalg.qr(m, mode="r")
    mu = r / np.diag(r)[:, None]   # mu[j, i]: column i on b*_j
    bsq = np.diag(r) ** 2
    for i in range(n):
        for j in range(i):
            if abs(mu[j, i]) > 0.5 + _CHECK_SLACK:
                return False, f"size reduction violated at (i={i}, j={j}): |mu|={abs(mu[j, i]):.6g}"
    for k in range(1, n):
        lhs = delta * bsq[k - 1]
        rhs = bsq[k] + mu[k - 1, k] ** 2 * bsq[k - 1]
        if lhs > rhs + _CHECK_SLACK * bsq[k - 1] + _SWAP_SLACK:
            return False, f"exchange condition violated at k={k}"
    return True, None


def iteration_bound_for_kappa(kappa: float, n: int) -> int:
    """Closed-form swap-count cap for an n-dim basis with condition number
    kappa: ceil(n^2 log_{2/sqrt(3)} kappa + n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (kappa >= 1.0):
        raise ValueError("kappa must be >= 1")
    if math.isinf(kappa):
        raise ValueError("kappa must be finite")
    return math.ceil(n * n * math.log(kappa) / math.log(_BOUND_BASE) + n)


def iteration_bound(m) -> int:
    """Swap-count cap evaluated at the actual condition number of M."""
    m = np.asarray(m, dtype=np.float64)
    return iteration_bound_for_kappa(condition_number_2norm(m), m.shape[1])


def gate_exponent_default(d_target: float) -> float:
    """Default gate exponent for a target diversity slope: the smallest
    exponent that keeps the gate harmless, (d_target + 1)/2, plus a 0.5
    safety margin."""
    d_target = as_real(d_target, "d_target")
    if d_target < 0.0:
        raise ValueError("d_target must be nonnegative")
    return (d_target + 1.0) / 2.0 + 0.5


def gated_reduce(m, rho: float, alpha: float, delta: float = 0.75) -> GateOutcome:
    """Reduce M unless its condition number exceeds rho^alpha.

    Over-threshold bases are refused without touching the swap loop; under
    the threshold the swap budget is the closed-form cap evaluated at the
    threshold itself, so run time stays polynomial in log rho regardless
    of the instance.
    """
    m = np.asarray(m, dtype=np.float64)
    if not (rho > 0.0):
        raise ValueError("rho must be positive")
    kappa = condition_number_2norm(m)
    threshold = float(rho**alpha)
    basis = None
    if not kappa > threshold:
        try:
            basis = lll_reduce(m, delta=delta, max_swaps=iteration_bound_for_kappa(
                threshold, m.shape[1]))
        except IterationOverflow:
            pass
    return GateOutcome(basis=basis, timed_out=basis is None, kappa=kappa,
                       threshold=threshold)


def gated_reduce_stack(m, rho: float, alpha: float) -> GateStack:
    """`gated_reduce` of each basis of a stack (B, n, n), bit for bit:
    kappa from one stacked SVD, then `lll_reduce_stack` of the bases under
    the threshold, at the swap cap the threshold gives."""
    m = np.asarray(m, dtype=np.float64)
    if not (rho > 0.0):
        raise ValueError("rho must be positive")
    sv = singular_values(m)
    smin = sv[:, -1]
    kappa = np.divide(sv[:, 0], smin, out=np.full(len(m), math.inf),
                      where=~(smin < 1e-300))
    threshold = float(rho**alpha)
    passed = np.flatnonzero(~(kappa > threshold))
    slots = np.full(len(m), -1, dtype=np.intp)
    slots[passed] = np.arange(passed.size)
    cap = iteration_bound_for_kappa(threshold, m.shape[-1]) if passed.size else 0
    return GateStack(kappa=kappa, threshold=threshold,
                     reduction=lll_reduce_stack(m[passed], cap), slots=slots)


def integer_det(z) -> int:
    """Exact determinant of an integer matrix (fraction-free elimination)."""
    a = [[int(x) for x in row] for row in np.asarray(z)]
    n = len(a)
    if n == 0:
        return 1
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]

