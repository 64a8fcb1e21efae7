"""Decoders for lattice codes over a linear Gaussian channel.

All decoders minimize (exactly or approximately) the regularized objective

    xi(x) = ||y - H x||^2 + (x - u)^T T (x - u)

over the dithered scaled lattice {phi G z + u}.  Completing the square
turns xi into ||F y_eff - B x_lat||^2 + Gamma with B upper triangular
(B^T B = H^T H + T), F = B^-T H^T, y_eff = y - H u, x_lat = x - u, and a
nonnegative constant Gamma; every regularized decoder works on that
triangular form.  The penalty term makes the objective well posed even when
H is singular, which is what separates the regularized decoders from the
naive one: it searches the plain distance ||y - H x||^2 and ignores T.

Methods: exact ML over the finite codebook, the exact regularized
sphere search, naive (unregularized) lattice decoding, and the two
reduction-aided approximations (nearest-plane / successive cancellation,
and componentwise rounding) whose metric blow-up is bounded by constants
depending only on the dimension.

ML scans the codebook (`ml_decode`) up to `ML_SCAN_MAX_POINTS` codewords.
Above that it runs the sphere search on H (phi G), bounded to the
codebook's integer coordinate box (a box-constrained Schnorr-Euchner
search; Agrell, Eriksson, Vardy and Zeger, "Closest point search in
lattices", IEEE T-IT 2002), and hands the few codewords near the best to
`ml_decode`, whose tie rule then returns the scan's codeword.

Every method decodes a `ChannelStage`, the channel stage of one received
vector shared by the methods, through `decode(stage, method=...)`: the
one method dispatch, the library path and the reference of the stacked
one.  A sweep block's stages are the lanes of one `BlockStage`, which
forms the GDFE, the condition gate and LLL of all its lanes at once on
(B, n, n) stacks, bit for bit as each lane's own
`RegularizedProblem.prepared()` and `gated_reduce` would, and
`decode(block, method=..., budget=...)` decodes the whole block for one
method up to its budget-th error: the ML scan, the nearest-plane and
rounding detectors and `reg_exact`'s QR run on the (B, n) stacks, each
lane's outcome the one its own stage gives, bit for bit.  The stacked
detectors decode every lane of a rung, so lanes past the method's
stopping lane may be decoded for nothing; they are not counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .errors import (EnumerationOverflow, LatdecError, MetricMismatch, NearSingularChannel,
                     RankDeficient)
from .lattice import (
    Codebook,
    LatticeDesign,
    lattice_points,
    round_half_away_from_zero,
    round_half_away_from_zero_scalar,
)
from .numkernel import (
    as_matrix,
    as_vector,
    cholesky_upper,
    qr_decompose,
    singular_values,
    solve_lower_triangular,
    solve_upper_triangular,
)
from .reduction import GateOutcome, GateStack, ReducedBasis, gated_reduce, gated_reduce_stack

__all__ = [
    "METHOD_ML",
    "METHOD_NAIVE",
    "METHOD_REG_EXACT",
    "METHOD_LR_SIC",
    "METHOD_LR_LINEAR",
    "METHODS",
    "RegularizedProblem",
    "DecodeOutcome",
    "LatticeDecodeResult",
    "mmse_gdfe_filters",
    "regularized_metric",
    "ml_decode",
    "sphere_decode_regularized",
    "naive_lattice_decode",
    "babai_nearest_plane",
    "lr_aided_linear",
    "approximation_ratio",
    "ChannelStage",
    "BlockStage",
    "BlockOutcome",
    "decode",
]

METHOD_ML = "ml"
METHOD_NAIVE = "naive"
METHOD_REG_EXACT = "reg_exact"
METHOD_LR_SIC = "lr_sic"
METHOD_LR_LINEAR = "lr_linear"
METHODS = (METHOD_ML, METHOD_NAIVE, METHOD_REG_EXACT, METHOD_LR_SIC,
           METHOD_LR_LINEAR)

#: The methods that read a stage's gated reduction, and with `reg_exact`
#: the ones that read its GDFE triangular form: what `decode` reads and
#: `BlockStage.build` forms.
_REDUCTION_AIDED = (METHOD_LR_SIC, METHOD_LR_LINEAR)
_READS_TRIANGULAR_FORM = (METHOD_REG_EXACT,) + _REDUCTION_AIDED

#: A rung of a `BlockStage` goes through the lockstep LLL when it has at
#: least this many lanes per basis dimension, and lane by lane through
#: `gated_reduce` when it has fewer: below that, numpy's per-call cost
#: makes the lockstep loop the slower (stack against list loop on MMSE
#: bases at rho = 20 dB, one BLAS thread on a 2-core x86-64 VM: even near
#: 7, 30, 75 and 100 lanes for n = 2, 4, 8 and 12).
_LOCKSTEP_LANES_PER_DIM = 8

#: Metric ties below this absolute gap are broken lexicographically.
TIE_TOLERANCE = 1e-12

#: Node cap of the unbounded searches (`reg_exact`, `naive`), read at call
#: time; past it they raise EnumerationOverflow.  ML's search is bounded by
#: the codebook's box and takes no cap.
NODE_BUDGET = 10**8

#: `decode` scans codebooks up to this size and searches larger ones; the
#: two agree on every codeword they return, so records do not depend on it.
ML_SCAN_MAX_POINTS = 4096

#: The ML search keeps every codeword within this slack, relative to
#: 1 + ||y - H u||^2, of the nearest; far above roundoff, so the scan's
#: tie rule sees every codeword that can win.
ML_TIE_SLACK = 1e-9


@dataclass(eq=False)
class RegularizedProblem:
    """One decode instance: received vector, channel, penalty matrix, and
    the scaled lattice generator (phi G) with optional dither.

    The constructor is where decode inputs enter: it checks every array
    for NaN/Inf and shape once, and nothing downstream checks again.  It
    stores a zero dither when given none.
    `prepared()` fills in the triangular form on first use."""

    y: np.ndarray
    h: np.ndarray
    t_reg: np.ndarray
    scaled_generator: np.ndarray
    dither: np.ndarray | None = None
    # The triangular form, set by prepared(): B upper triangular with
    # B^T B = H^T H + T, yprime = F (y - H u), gamma = ||y - H u||^2 -
    # ||yprime||^2 >= 0, and basis = B (phi G), the basis the search sees.
    b: np.ndarray | None = field(default=None, init=False, repr=False)
    yprime: np.ndarray | None = field(default=None, init=False, repr=False)
    gamma: float = field(default=0.0, init=False, repr=False)
    basis: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.y = as_vector(self.y, "y")
        self.h = as_matrix(self.h, "H")
        self.t_reg = as_matrix(self.t_reg, "T")
        self.scaled_generator = as_matrix(self.scaled_generator, "scaled_generator")
        m, n = self.h.shape
        if self.y.shape[0] != m:
            raise ValueError("y length does not match H rows")
        if self.scaled_generator.shape != (n, n):
            raise ValueError(f"H has {n} columns; the scaled generator must be "
                             f"{n} x {n}, got {self.scaled_generator.shape}")
        if self.t_reg.shape != (n, n):
            raise ValueError("T must be n x n")
        self.dither = (np.zeros(n) if self.dither is None
                       else as_vector(self.dither, "dither"))
        if self.dither.shape[0] != n:
            raise ValueError("dither length does not match")

    @property
    def n(self) -> int:
        return self.h.shape[1]

    def dither_or_zero(self) -> np.ndarray:
        """The dither, under the name `perfbench/test_checks.py` reads."""
        return self.dither

    def point(self, z: np.ndarray) -> np.ndarray:
        """The lattice point phi G z + u of integer coordinates z."""
        return lattice_points(self.scaled_generator, self.dither, z)

    def prepared(self) -> "RegularizedProblem":
        """Factor the triangular form once (b, yprime, gamma, basis); returns self."""
        if self.b is None:
            self.b, self.yprime, gamma, self.basis = _triangular_form(
                self.y, self.h, self.t_reg, self.scaled_generator, self.dither)
            self.gamma = float(gamma)
        return self

    @classmethod
    def _from_checked(cls, **values) -> "RegularizedProblem":
        """A problem on arrays already checked (a `BlockStage` lane): every
        field must be given by name, the triangular form's too (None and
        0.0 where it is not formed yet), and no check runs."""
        problem = object.__new__(cls)
        for f in fields(cls):
            setattr(problem, f.name, values[f.name])
        return problem


def _triangular_form(y, h, t_reg, scaled_generator, dither) -> tuple:
    """(B, y', Gamma, basis) of a problem, or the stacks of them for stacks
    (..., m) of y and (..., m, n) of H; each lane of a stack gets the bits
    it gets alone (matrix-vector products as stacked matmuls, never
    `einsum`)."""
    b, f = mmse_gdfe_filters(h, t_reg)
    y_eff = y - h @ dither
    yprime = _matvec(f, y_eff)
    gamma = _squared_norm(y_eff) - _squared_norm(yprime)
    # Gamma is nonnegative in exact arithmetic; clamp roundoff.
    return b, yprime, np.where(0.0 > gamma, 0.0, gamma), b @ scaled_generator


def _matvec(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a @ v, or that of each matrix and vector of stacks (..., m, n) and
    (..., n), as a stacked matmul: each lane rounds as it would alone."""
    return (a @ v[..., None])[..., 0]


def _squared_norm(v: np.ndarray) -> np.ndarray:
    """v . v, or that of each vector of a stack, as a (1, m) @ (m, 1) matmul."""
    return (v[..., None, :] @ v[..., :, None])[..., 0, 0]


@dataclass
class LatticeDecodeResult:
    """A decoded lattice point with its integer coordinates and metric."""

    coords: np.ndarray   # int64 coordinates z (point = phi G z + u)
    point: np.ndarray
    metric: float


@dataclass
class DecodeOutcome:
    """Pipeline verdict: a codeword, a lattice point outside the codebook,
    or a refusal (gate timeout)."""

    kind: str            # "codeword" | "out_of_codebook" | "timeout"
    point: np.ndarray | None
    coords: np.ndarray | None
    metric: float

    @classmethod
    def codeword(cls, point, coords, metric) -> "DecodeOutcome":
        return cls("codeword", point, coords, float(metric))

    @classmethod
    def out_of_codebook(cls, point, coords, metric) -> "DecodeOutcome":
        return cls("out_of_codebook", point, coords, float(metric))

    @classmethod
    def timeout(cls) -> "DecodeOutcome":
        return cls("timeout", None, None, math.inf)

    @property
    def is_codeword(self) -> bool:
        return self.kind == "codeword"


def mmse_gdfe_filters(h, t_reg) -> tuple[np.ndarray, np.ndarray]:
    """Factor H^T H + T = B^T B and form the forward filter F = B^-T H^T;
    returns (B, F), or their stacks for a stack (..., m, n) of H.

    T must be symmetric positive definite; B's diagonal is positive."""
    h = np.asarray(h, dtype=np.float64)
    ht = np.swapaxes(h, -1, -2)
    gram = ht @ h + t_reg
    # Symmetrize against roundoff before factoring.
    gram = 0.5 * (gram + np.swapaxes(gram, -1, -2))
    b = cholesky_upper(gram)
    return b, solve_lower_triangular(np.swapaxes(b, -1, -2), ht)


def regularized_metric(problem: RegularizedProblem, xhat) -> float:
    """Evaluate xi(xhat) both directly and through the triangular form and
    check they agree to 1e-8 relative (they are algebraically identical)."""
    xhat = as_vector(xhat, "xhat")
    u = problem.dither
    resid = problem.y - problem.h @ xhat
    xlat = xhat - u
    direct = float(resid @ resid) + float(xlat @ problem.t_reg @ xlat)
    problem.prepared()
    alt_resid = problem.yprime - problem.b @ xlat
    alt = float(alt_resid @ alt_resid) + problem.gamma
    if abs(direct - alt) > 1e-8 * (1.0 + abs(direct)):
        raise MetricMismatch(
            f"metric forms disagree: direct={direct!r} triangular={alt!r}"
        )
    return direct


def ml_decode(y, h, codebook: Codebook) -> DecodeOutcome:
    """Exhaustive maximum-likelihood decode over a finite codebook.

    Ties within 1e-12 in squared distance go to the lexicographically
    smallest codeword (the codebook is stored in that order)."""
    y = np.asarray(y, dtype=np.float64)
    resid = y[None, :] - codebook.points @ np.asarray(h, dtype=np.float64).T
    dists = np.sum(resid * resid, axis=1)
    best = float(np.min(dists))
    idx = int(np.flatnonzero(dists <= best + TIE_TOLERANCE)[0])
    return DecodeOutcome.codeword(codebook.points[idx].copy(),
                                  codebook.coords[idx].copy(),
                                  float(dists[idx]))


def _ml_search(stage: ChannelStage) -> DecodeOutcome:
    """`ml_decode` over a codebook too large to scan, by the box-bounded
    sphere search.

    The search runs on H (phi G) with target y - H u inside the codebook's
    coordinate box, uncapped, and tests each leaf's `lattice_points` with
    the region, as the enumeration tests its candidates.  Every codeword
    within `ML_TIE_SLACK` of the nearest goes, in the codebook's
    lexicographic order, to `ml_decode`, whose tie rule then picks the
    scan's codeword.  A channel with fewer outputs than inputs, or a
    rank-deficient one, is scanned."""
    problem, book = stage.problem, stage.codebook
    m, n = problem.h.shape
    a, u = problem.scaled_generator, problem.dither
    region = stage.design.region
    target = problem.y - problem.h @ u
    leaves = []
    if m >= n:
        try:
            leaves = _closest_point(
                problem.h @ a, target, box=book.coord_box(),
                slack=ML_TIE_SLACK * (1.0 + float(target @ target)),
                accept=lambda z: region.contains(lattice_points(a, u, z)))
        except RankDeficient:
            pass
    if not leaves:
        # A wide or rank-deficient channel, or (by roundoff alone) no
        # codeword passing the leaf test.
        return ml_decode(problem.y, problem.h, book)
    zs = np.array([z for z, _ in leaves])
    pts = lattice_points(a, u, zs)
    order = np.lexsort(pts.T[::-1])
    return ml_decode(problem.y, problem.h,
                     Codebook(points=pts[order], coords=zs[order], scale=book.scale))


def _babai_backsub(r: np.ndarray, ytil: np.ndarray) -> np.ndarray:
    """Nearest-plane integer coordinates by rounded back-substitution, of
    one triangular system or of each of a stack (..., n, n), (..., n).
    Each row's dot product is a (1, k) @ (k, 1) matmul, which BLAS rounds
    as it rounds a lone one."""
    n = r.shape[-1]
    z = np.zeros(ytil.shape)
    for i in range(n - 1, -1, -1):
        dot = (r[..., i:i + 1, i + 1:] @ z[..., i + 1:, None])[..., 0, 0]
        z[..., i] = round_half_away_from_zero((ytil[..., i] - dot) / r[..., i, i])
    return z


def _rounded_solve(r: np.ndarray, ytil: np.ndarray) -> np.ndarray:
    """The real solution of R c = ytil rounded coordinatewise (ties away
    from zero), for one system or each of a stack (..., n, n), (..., n)."""
    return round_half_away_from_zero(solve_upper_triangular(r, ytil[..., None])[..., 0])


#: The reduction-aided detectors, each on one reduced triangle or a stack.
_DETECTORS = {METHOD_LR_SIC: _babai_backsub, METHOD_LR_LINEAR: _rounded_solve}


def _sphere_search(r: np.ndarray, ytil: np.ndarray, box=None,
                   slack: float = 0.0, accept=None) -> list:
    """Exact closest-vector search on an upper-triangular system; returns
    every accepted leaf (z, squared distance) within `slack` of the best.

    Depth-first with zig-zag child ordering around the rounded center;
    children are visited in nondecreasing cost, so the first over-radius
    child prunes the whole level.  The radius starts infinite: unbounded,
    the first descent is the nearest-plane back-substitution, and the
    first accepted leaf sets the radius.  With no slack the one nearest
    leaf comes back.
    `box` = (lo, hi) gives integer bounds per level (default unbounded):
    the center is clamped into [lo_i, hi_i], and the zig-zag skips
    children outside it and goes on along the other side.  `accept(z)`
    may reject a leaf, which then neither counts nor shrinks the radius.
    An unbounded search raises EnumerationOverflow past `NODE_BUDGET`
    nodes; a box bounds the work itself."""
    n = r.shape[0]
    if box is None:
        lo, hi = np.full(n, -math.inf), np.full(n, math.inf)
        node_cap = NODE_BUDGET
    else:
        lo, hi = box
        node_cap = math.inf
    best = radius = math.inf
    leaves = []

    z = np.zeros(n)
    step = np.zeros(n)
    partial = np.zeros(n)      # ytil[i] - sum_{j>i} R[i,j] z[j]
    dist_above = np.zeros(n)   # cost contributed by levels above i
    nodes = 0

    i, cost = n, 0.0           # the root: the first pass descends to level n - 1
    while True:
        if cost < radius and i > 0:
            # Descend to the child nearest the next level's center.
            i -= 1
            dist_above[i] = cost
            partial[i] = ytil[i] - r[i, i + 1:] @ z[i + 1:]
            center = partial[i] / r[i, i]
            z[i] = min(max(round_half_away_from_zero_scalar(center), lo[i]), hi[i])
            step[i] = 1.0 if center >= z[i] else -1.0
        else:
            if not cost < radius:
                # Every further sibling at this level costs at least as much.
                i += 1
                if i == n:
                    break
            elif accept is None or accept(z):
                if cost < best:
                    # Drop the leaves the lower best puts past the slack.
                    best = cost
                    radius = best + slack
                    leaves = [leaf for leaf in leaves if leaf[1] <= radius]
                leaves.append((z.copy(), cost))
            z[i] += step[i]
            step[i] = -step[i] - math.copysign(1.0, step[i])
            if not lo[i] <= z[i] <= hi[i]:
                # This side has left the box: take the other side's next child.
                z[i] += step[i]
                step[i] = -step[i] - math.copysign(1.0, step[i])
        nodes += 1
        if nodes > node_cap:
            raise EnumerationOverflow(f"sphere search exceeded {node_cap} nodes")
        diff = partial[i] - r[i, i] * z[i]
        cost = dist_above[i] + diff * diff
        if not lo[i] <= z[i] <= hi[i]:
            cost = math.inf    # both sides of this level have left the box
    return [(zl.astype(np.int64), c) for zl, c in leaves]


def _closest_point(basis: np.ndarray, target: np.ndarray, box=None,
                   slack: float = 0.0, accept=None) -> list:
    """Leaves (z, squared distance) of the lattice points `basis` @ z
    nearest to `target`, distance taken within the basis's column space:
    QR of the basis, the target rotated by Q^T, then sphere search (see
    `_sphere_search` for the box, slack and leaf test)."""
    q, r = qr_decompose(basis)
    return _sphere_search(r, q.T @ target, box=box, slack=slack, accept=accept)


def sphere_decode_regularized(problem: RegularizedProblem) -> LatticeDecodeResult:
    """Exact minimizer of the regularized objective over the full (infinite)
    dithered lattice, via sphere search on the triangular form."""
    problem.prepared()
    [(z, dist)] = _closest_point(problem.basis, problem.yprime)
    return LatticeDecodeResult(coords=z, point=problem.point(z),
                               metric=dist + problem.gamma)


def naive_lattice_decode(problem: RegularizedProblem) -> LatticeDecodeResult:
    """Unregularized closest-lattice-point decode: the exact minimizer of
    the plain distance ||y - H x||^2 over the full dithered lattice, which
    is also the reported metric.  The problem's penalty T is ignored.

    Raises NearSingularChannel when the effective basis H (phi G) is
    numerically singular, which it always is with fewer rows than columns.
    With no penalty term, deep fades regularly push the minimizer far
    outside the shaping region."""
    hg = problem.h @ problem.scaled_generator
    m, n = hg.shape
    if m < n or singular_values(hg)[-1] < 1e-10:
        raise NearSingularChannel("sigma_min(H phi G) below 1e-10")
    [(z, _)] = _closest_point(hg, problem.y - problem.h @ problem.dither)
    point = problem.point(z)
    resid = problem.y - problem.h @ point
    return LatticeDecodeResult(coords=z, point=point, metric=float(resid @ resid))


def babai_nearest_plane(problem: RegularizedProblem,
                        reduced: ReducedBasis) -> LatticeDecodeResult:
    """Successive-cancellation decode on a reduced basis: one rounding per
    layer during back-substitution on the reducer's triangle.  The metric
    is within a factor 2^(n/2) of the exact regularized minimum."""
    c = _babai_backsub(reduced.r, reduced.q.T @ problem.prepared().yprime)
    return _map_back(problem, reduced, c)


def lr_aided_linear(problem: RegularizedProblem,
                    reduced: ReducedBasis) -> LatticeDecodeResult:
    """Linear decode on a reduced basis: solve the real system, round each
    coordinate (ties away from zero), map back through the unimodular
    transform.  The metric is within a factor 1 + 2n (9/2)^(n/2) of the
    exact regularized minimum."""
    c = _rounded_solve(reduced.r, reduced.q.T @ problem.prepared().yprime)
    return _map_back(problem, reduced, c)


def _map_back(problem: RegularizedProblem, reduced: ReducedBasis,
              c: np.ndarray) -> LatticeDecodeResult:
    resid = problem.yprime - reduced.reduced @ c
    metric = float(resid @ resid) + problem.gamma
    # Exact integer map through the unimodular transform.
    z = reduced.unimodular @ c.astype(np.int64)
    return LatticeDecodeResult(coords=z, point=problem.point(z), metric=metric)


def approximation_ratio(problem: RegularizedProblem, candidate,
                        exact) -> float:
    """xi(candidate) / xi(exact), with 0/0 -> 1 and x/0 -> +inf."""
    xc = regularized_metric(problem, candidate)
    xe = regularized_metric(problem, exact)
    if xc < 1e-15 and xe < 1e-15:
        return 1.0
    if xe == 0.0:
        return math.inf
    return xc / xe


@dataclass(eq=False)
class ChannelStage:
    """Channel-side preprocessing of one received block, shared by every
    method that decodes it: the design's codebook (whose scale is the
    problem's phi, and which ML decodes over), the one regularized problem
    (which factors its GDFE filters on first use) and the gated reduction
    of its basis, built at most once and only for methods that need it.
    A `BlockStage` lane comes with both already built, from the stacks.

    The gate refuses a basis whose condition number exceeds
    rho^gate_alpha; LLL runs at delta = 3/4, the value its swap cap
    assumes."""

    problem: RegularizedProblem
    design: LatticeDesign
    codebook: Codebook
    rho: float | None = None
    gate_alpha: float | None = None

    @cached_property
    def reduction(self) -> GateOutcome:
        """The problem's basis through the condition gate and LLL."""
        if self.gate_alpha is None:
            raise ValueError("reduction-aided methods require gate_alpha")
        if self.rho is None:
            raise ValueError("reduction-aided methods require rho for the gate")
        return gated_reduce(self.problem.prepared().basis, self.rho, self.gate_alpha)


@dataclass(eq=False)
class _RungStack:
    """The lanes of one rung of a `BlockStage`: the rung's design and
    codebook, the (T, phi G, u) its lanes share, their stacks (preallocated
    for the whole block), the lane of the block each slot holds, and what
    `build` forms of them."""

    design: LatticeDesign
    book: Codebook
    fixed: tuple                 # (T, phi G, u)
    y: np.ndarray                # (size, m) received vectors
    h: np.ndarray                # (size, m, n) channels
    sent: np.ndarray             # (size, n) coordinates of the sent codewords
    lanes: list = field(default_factory=list)   # slot -> lane
    form: tuple | None = None    # stacked (B, y', Gamma, basis)
    gates: GateStack | None = None

    @property
    def count(self) -> int:
        return len(self.lanes)


class BlockStage:
    """The channel stage of a block of received vectors, built once on
    stacks and shared by every method that decodes them.

    `add` writes each lane's (y, H) and the coordinates of its sent
    codeword into its rung's preallocated stacks, so lanes are grouped by
    rung (an ARQ episode by its stopping round).  `build(methods)` checks
    each rung's stacks once for NaN/Inf, then forms on (B, n, n) arrays
    what the methods read: the GDFE of all its lanes if one reads the
    triangular form, and their condition gate and lockstep LLL if one is
    reduction-aided (which needs `rho` and `gate_alpha`; a rung of fewer
    than 8 n lanes is left to the per-lane `gated_reduce`).  `decode(block,
    method=..., budget=...)` then decodes the whole block for one method.
    `lane(i)` is lane i's `ChannelStage`, views into the stacks, which
    `decode` reads as it reads a stage built alone: each lane's arrays
    equal, bit for bit, what `RegularizedProblem.prepared()` and
    `gated_reduce` give it.  A rung whose stacked GDFE or gate raises a
    `LatdecError` (any one lane failing a floor does) leaves its lanes to
    that per-lane path, which then builds each on first use and raises
    there, for each method that reads it."""

    def __init__(self, rungs: list, size: int, rho: float | None = None,
                 gate_alpha: float | None = None):
        self.rungs, self.rho, self.gate_alpha = rungs, rho, gate_alpha
        self.size = size   # lanes the stacks hold
        self.lanes = 0     # lanes written
        self._where = np.zeros((size, 2), dtype=np.intp)  # lane -> (rung, slot)
        self._stacks = [None] * len(rungs)   # rung -> _RungStack, once it has a lane

    def add(self, y, h, codebook: Codebook, message: int) -> None:
        """Write the next lane, codeword `message` of `codebook` (one of
        the rungs') sent over channel `h` and received as `y`."""
        rung = next(i for i, (_, book) in enumerate(self.rungs) if book is codebook)
        if self._stacks[rung] is None:
            design = self.rungs[rung][0]
            n = design.dimension
            self._stacks[rung] = _RungStack(
                design=design, book=codebook,
                fixed=(np.eye(n), codebook.scale * design.generator,
                       np.zeros(n) if design.dither is None else design.dither),
                y=np.empty((self.size,) + np.shape(y)), h=np.empty((self.size,) + np.shape(h)),
                sent=np.empty((self.size, n), dtype=np.int64))
        stack = self._stacks[rung]
        slot = stack.count
        stack.y[slot], stack.h[slot] = y, h
        stack.sent[slot] = codebook.coords[message]
        stack.lanes.append(self.lanes)
        self._where[self.lanes] = rung, slot
        self.lanes += 1

    def _filled(self) -> list:
        """The rungs' stacks that hold lanes."""
        return [stack for stack in self._stacks if stack is not None]

    def build(self, methods) -> None:
        """Check the lanes, then form what `methods` read."""
        gdfe = any(m in _READS_TRIANGULAR_FORM for m in methods)
        reduce = (any(m in _REDUCTION_AIDED for m in methods)
                  and self.rho is not None and self.gate_alpha is not None)
        stacks = self._filled()
        if not all(np.isfinite(s.y[:s.count]).all() and np.isfinite(s.h[:s.count]).all()
                   for s in stacks):
            for i in range(self.lanes):   # the first bad lane raises, as it would alone
                RegularizedProblem(*self._lane_arrays(i))
        for stack in stacks if gdfe or reduce else ():
            hs = stack.h[:stack.count]
            try:
                stack.form = _triangular_form(stack.y[:stack.count], hs, *stack.fixed)
                if reduce and len(hs) >= _LOCKSTEP_LANES_PER_DIM * hs.shape[-1]:
                    stack.gates = gated_reduce_stack(stack.form[3], self.rho, self.gate_alpha)
            except LatdecError:
                pass   # left to the per-lane path

    def _lane_arrays(self, i: int) -> tuple:
        rung, slot = self._where[i]
        stack = self._stacks[rung]
        return (stack.y[slot], stack.h[slot]) + stack.fixed

    def lane(self, i: int) -> ChannelStage:
        """Lane i's channel stage, built now from views into the stacks."""
        rung, slot = self._where[i]
        stack = self._stacks[rung]
        y, h, t_reg, scaled_generator, dither = self._lane_arrays(i)
        form = stack.form
        b, yprime, gamma, basis = (None, None, 0.0, None) if form is None else (
            form[0][slot], form[1][slot], float(form[2][slot]), form[3][slot])
        problem = RegularizedProblem._from_checked(
            y=y, h=h, t_reg=t_reg, scaled_generator=scaled_generator, dither=dither,
            b=b, yprime=yprime, gamma=gamma, basis=basis)
        lane = ChannelStage(problem, stack.design, stack.book, rho=self.rho,
                            gate_alpha=self.gate_alpha)
        if stack.gates is not None:
            lane.reduction = stack.gates.outcome(slot)
        return lane


@dataclass
class BlockOutcome:
    """One method's decode of a `BlockStage`: the lanes it decoded (the
    first `decoded`, in trial order), the (lane, outcome kind) of each
    error among them, and the failure that stopped it, (lane, LatdecError),
    or None."""

    decoded: int
    errors: list
    failure: tuple | None


#: A lane's outcome code in a block decode: right, or the kind of its error.
_KINDS = (None, "codeword", "out_of_codebook", "timeout")
_RIGHT, _WRONG, _OUTSIDE, _TIMEOUT = range(len(_KINDS))


def decode(stage, *, method: str,
           budget: int | None = None) -> DecodeOutcome | BlockOutcome:
    """Decode with `method` one `ChannelStage`, or a whole built `BlockStage`.

    A stage gives its `DecodeOutcome`: a gate refusal surfaces as a
    timeout outcome, and lattice-decoder outputs are classified against
    the shaping region, here and, for a block's stacks, in
    `_classified_codes`, nowhere else.

    A block gives a `BlockOutcome`: its lanes decoded in trial order up to
    the `budget`-th error (None: every lane), or up to the first
    `LatdecError`, and its errors, each lane's outcome compared with the
    codeword sent.  Each lane's outcome is the one its `ChannelStage`
    gives, bit for bit, but the detectors run on the rungs' stacks: the ML
    scan of a codebook of at most `ML_SCAN_MAX_POINTS` points, the
    reduction-aided detectors of a rung with a gate stack (both on every
    lane of the rung, past the stopping lane too), and `reg_exact`'s QR and
    rotation of the target, whose search then runs lane by lane.  `naive`,
    larger codebooks' ML, and every rung whose stacks lack what the method
    reads or whose stacked detector raises a `LatdecError` are decoded lane
    by lane through the stage path, which raises each lane's own failure."""
    if isinstance(stage, BlockStage):
        return _decode_block(stage, method, budget)
    if budget is not None:
        raise ValueError("a budget applies to a BlockStage")
    return _decode_lane(stage, method)


def _decode_lane(stage: ChannelStage, method: str) -> DecodeOutcome:
    problem = stage.problem
    if method == METHOD_ML:
        if stage.codebook.size <= ML_SCAN_MAX_POINTS:
            return ml_decode(problem.y, problem.h, stage.codebook)
        return _ml_search(stage)
    if method in (METHOD_NAIVE, METHOD_REG_EXACT):
        search = (naive_lattice_decode if method == METHOD_NAIVE
                  else sphere_decode_regularized)
        return _classify(stage.design, search(problem))
    if method in _REDUCTION_AIDED:
        outcome = stage.reduction
        if outcome.timed_out:
            return DecodeOutcome.timeout()
        detector = babai_nearest_plane if method == METHOD_LR_SIC else lr_aided_linear
        return _classify(stage.design, detector(problem, outcome.basis))
    raise ValueError(f"unknown method {method!r}")


def _classify(design: LatticeDesign, res: LatticeDecodeResult) -> DecodeOutcome:
    if design.region.contains(res.point):
        return DecodeOutcome.codeword(res.point, res.coords, res.metric)
    return DecodeOutcome.out_of_codebook(res.point, res.coords, res.metric)


def _decode_block(block: BlockStage, method: str, budget: int | None) -> BlockOutcome:
    """`decode` of a block: each rung's outcome codes from its stacks, or
    a decoder of one lane that a scan in trial order calls."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    codes = np.zeros(block.lanes, dtype=np.int8)
    one_by_one = {}   # rung -> code of (lane, slot), for the scan to call
    searches = []     # reg_exact's, whose points are classified after the scan
    for rung, stack in enumerate(block._stacks):
        if stack is None:
            continue
        try:
            if method == METHOD_ML and stack.book.size <= ML_SCAN_MAX_POINTS:
                codes[stack.lanes] = _scan_codes(stack)
            elif method in _REDUCTION_AIDED and stack.gates is not None:
                codes[stack.lanes] = _reduction_aided_codes(stack, method)
            elif method == METHOD_REG_EXACT and stack.form is not None:
                searches.append(_RegularizedSearch(stack))
                one_by_one[rung] = searches[-1].code
            else:
                one_by_one[rung] = _lane_decoder(block, stack, method)
        except LatdecError:   # a stacked detector raised: the lanes go one by one
            one_by_one[rung] = _lane_decoder(block, stack, method)
    decoded, failure = block.lanes, None
    if one_by_one:
        decoded = errors = 0
        for lane, (rung, slot) in enumerate(block._where[:block.lanes].tolist()):
            if budget is not None and errors >= budget:
                break
            code = codes[lane]
            if rung in one_by_one:
                try:
                    code = codes[lane] = one_by_one[rung](lane, slot)
                except LatdecError as exc:
                    failure = (lane, exc)
                    break
            decoded += 1
            errors += code != _RIGHT
    for search in searches:
        search.classify(codes)
    wrong = np.flatnonzero(codes[:decoded])
    if budget is not None and len(wrong) >= budget:
        # Stop at the budget-th error: a search classified past the region
        # can move it before where the scan stopped.
        wrong, failure = wrong[:budget], None
        decoded = int(wrong[-1]) + 1 if budget else 0
    return BlockOutcome(decoded, [(lane, _KINDS[codes[lane]]) for lane in wrong.tolist()],
                        failure)


def _lane_decoder(block: BlockStage, stack: _RungStack, method: str):
    """The code of one lane of `stack` decoded alone, through its stage."""
    def code(lane: int, slot: int) -> int:
        out = _decode_lane(block.lane(lane), method)
        if out.is_codeword and np.array_equal(out.coords, stack.sent[slot]):
            return _RIGHT
        return _KINDS.index(out.kind)
    return code


def _classified_codes(stack: _RungStack, slots, z: np.ndarray) -> np.ndarray:
    """The codes of the lanes at `slots` decoded to coordinates z: their
    points classified against the region, and the coordinates compared
    with the sent ones."""
    _, scaled_generator, dither = stack.fixed
    inside = stack.design.region.contains(lattice_points(scaled_generator, dither, z))
    wrong = (z != stack.sent[slots]).any(axis=-1)
    return np.where(inside, np.where(wrong, _WRONG, _RIGHT), _OUTSIDE)


def _scan_codes(stack: _RungStack) -> np.ndarray:
    """`ml_decode` of every lane of a rung, as outcome codes: the scan of
    `ml_decode` on chunks of at most ML_SCAN_MAX_POINTS // size lanes, so
    no temporary is larger than one lane's scan of the largest codebook
    scanned."""
    book, count = stack.book, stack.count
    step = max(1, ML_SCAN_MAX_POINTS // book.size)
    best = np.concatenate([_scan_chunk(book.points, stack.y[lo:min(lo + step, count)],
                                       stack.h[lo:min(lo + step, count)])
                           for lo in range(0, count, step)])
    wrong = (book.coords[best] != stack.sent[:count]).any(axis=-1)
    return np.where(wrong, _WRONG, _RIGHT)


def _scan_chunk(points: np.ndarray, ys: np.ndarray, hs: np.ndarray) -> np.ndarray:
    """`ml_decode`'s codeword index for each lane of stacks (L, m) of y
    and (L, m, n) of H: one (L, size, m) buffer, worked in place."""
    resid = points @ np.swapaxes(hs, -1, -2)
    np.subtract(ys[:, None, :], resid, out=resid)
    dists = np.sum(np.multiply(resid, resid, out=resid), axis=-1)
    return (dists <= (dists.min(axis=-1) + TIE_TOLERANCE)[:, None]).argmax(axis=-1)


def _reduction_aided_codes(stack: _RungStack, method: str) -> np.ndarray:
    """`lr_sic` or `lr_linear` of every lane of a rung, from its gate
    stack: the target rotated by each reduced Q^T, the detector on the
    stack of triangles, the unimodular map back and the classification.
    A lane the gate or the swap cap refused is a timeout."""
    gates = stack.gates
    reduced, slots = gates.reduction, gates.slots
    passed = np.flatnonzero(slots >= 0)
    passed = passed[~reduced.refused[slots[passed]]]
    codes = np.full(stack.count, _TIMEOUT, dtype=np.int8)
    if passed.size:
        s = slots[passed]
        ytil = _matvec(np.swapaxes(reduced.q[s], -1, -2), stack.form[1][passed])
        c = _DETECTORS[method](reduced.r[s], ytil)
        z = _matvec(reduced.unimodular[s], c.astype(np.int64))
        codes[passed] = _classified_codes(stack, passed, z)
    return codes


class _RegularizedSearch:
    """`reg_exact` on a rung: the QR of every lane's basis and the target
    rotated by Q^T, on the stacks, then one lane's sphere search per
    `code` call, in slot order.  `code` compares the coordinates alone;
    `classify` then places the searched lanes' points against the region,
    all at once."""

    def __init__(self, stack: _RungStack):
        _, yprime, _, basis = stack.form
        q, self.r = qr_decompose(basis)
        self.ytil = _matvec(np.swapaxes(q, -1, -2), yprime)
        self.stack = stack
        self.z = np.empty(yprime.shape, dtype=np.int64)
        self.searched = 0

    def code(self, lane: int, slot: int) -> int:
        [(z, _)] = _sphere_search(self.r[slot], self.ytil[slot])
        self.z[slot] = z
        self.searched += 1
        return _WRONG if (self.z[slot] != self.stack.sent[slot]).any() else _RIGHT

    def classify(self, codes: np.ndarray) -> None:
        slots = np.arange(self.searched)
        codes[self.stack.lanes[:self.searched]] = _classified_codes(
            self.stack, slots, self.z[slots])
