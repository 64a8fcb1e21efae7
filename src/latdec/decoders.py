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

A received block goes through `prepare` once, which builds the channel
stage every method shares, and through `decode(stage, method=...)` once
per method: the one method dispatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import EnumerationOverflow, MetricMismatch, NearSingularChannel, RankDeficient
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
from .reduction import GateOutcome, ReducedBasis, gated_reduce

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
    "prepare",
    "decode",
]

METHOD_ML = "ml"
METHOD_NAIVE = "naive"
METHOD_REG_EXACT = "reg_exact"
METHOD_LR_SIC = "lr_sic"
METHOD_LR_LINEAR = "lr_linear"
METHODS = (METHOD_ML, METHOD_NAIVE, METHOD_REG_EXACT, METHOD_LR_SIC,
           METHOD_LR_LINEAR)

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
            b, f = mmse_gdfe_filters(self.h, self.t_reg)
            y_eff = self.y - self.h @ self.dither
            self.yprime = f @ y_eff
            # Gamma is nonnegative in exact arithmetic; clamp roundoff.
            self.gamma = max(float(y_eff @ y_eff) - float(self.yprime @ self.yprime), 0.0)
            self.basis = b @ self.scaled_generator
            self.b = b
        return self


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
    returns (B, F).

    T must be symmetric positive definite; B's diagonal is positive."""
    h = np.asarray(h, dtype=np.float64)
    gram = h.T @ h + t_reg
    # Symmetrize against roundoff before factoring.
    gram = 0.5 * (gram + gram.T)
    b = cholesky_upper(gram)
    return b, solve_lower_triangular(b.T, h.T)


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
    """Nearest-plane integer coordinates by rounded back-substitution."""
    n = r.shape[0]
    z = np.zeros(n)
    for i in range(n - 1, -1, -1):
        c = (ytil[i] - r[i, i + 1:] @ z[i + 1:]) / r[i, i]
        z[i] = round_half_away_from_zero_scalar(c)
    return z


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
                leaves.append((z.copy(), cost))
                if cost < best:
                    best = cost
                    radius = best + slack
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
    return [(zl.astype(np.int64), c) for zl, c in leaves if c <= best + slack]


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
    c_real = solve_upper_triangular(reduced.r, reduced.q.T @ problem.prepared().yprime)
    return _map_back(problem, reduced, round_half_away_from_zero(c_real))


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


def prepare(y, h, design: LatticeDesign, codebook: Codebook,
            rho: float | None = None, gate_alpha: float | None = None) -> ChannelStage:
    """Channel stage of one received block sent from `codebook`, the
    design's codebook, whose scale is the lattice's phi for every method.

    The penalty is the identity.  The reduction-aided methods need `rho`
    and the gate exponent `gate_alpha`.  The stage's one
    `RegularizedProblem` is built here, and building it is the one check
    of y and H."""
    problem = RegularizedProblem(y=y, h=h, t_reg=np.eye(design.dimension),
                                 scaled_generator=codebook.scale * design.generator,
                                 dither=design.dither)
    return ChannelStage(problem, design, codebook, rho=rho, gate_alpha=gate_alpha)


def decode(stage: ChannelStage, *, method: str) -> DecodeOutcome:
    """Decode a prepared block with `method`.

    A gate refusal surfaces as a timeout outcome; lattice-decoder outputs
    are classified against the shaping region, here and nowhere else."""
    problem = stage.problem
    if method == METHOD_ML:
        if stage.codebook.size <= ML_SCAN_MAX_POINTS:
            return ml_decode(problem.y, problem.h, stage.codebook)
        return _ml_search(stage)
    if method in (METHOD_NAIVE, METHOD_REG_EXACT):
        search = (naive_lattice_decode if method == METHOD_NAIVE
                  else sphere_decode_regularized)
        return _classify(stage.design, search(problem))
    if method in (METHOD_LR_SIC, METHOD_LR_LINEAR):
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
