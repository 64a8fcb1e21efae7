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
one method dispatch.  A sweep block's stages are the lanes of one
`BlockStage`, which forms the GDFE, the condition gate and LLL of all its
lanes at once on (B, n, n) stacks, bit for bit as each lane's own
`RegularizedProblem.prepared()` and `gated_reduce` would.
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
from .reduction import GateOutcome, ReducedBasis, gated_reduce, gated_reduce_stack

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
    yprime = (f @ y_eff[..., None])[..., 0]
    gamma = _squared_norm(y_eff) - _squared_norm(yprime)
    # Gamma is nonnegative in exact arithmetic; clamp roundoff.
    return b, yprime, np.where(0.0 > gamma, 0.0, gamma), b @ scaled_generator


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


class BlockStage:
    """The channel stage of a block of received vectors, built once on
    stacks and shared by every method that decodes them.

    `add` writes each lane's (y, H) into its rung's preallocated stacks,
    so lanes are grouped by rung (an ARQ episode by its stopping round).
    `build(methods)` checks each rung's stacks once for NaN/Inf, then
    forms on (B, n, n) arrays what the methods read: the GDFE of all its
    lanes if one reads the triangular form, and their condition gate and
    lockstep LLL if one is reduction-aided (which needs `rho` and
    `gate_alpha`; a rung of fewer than 8 n lanes is left to the per-lane
    `gated_reduce`).  `lane(i)` is lane i's `ChannelStage`, views into the
    stacks, which `decode` reads as it reads a stage built alone: each
    lane's arrays equal, bit for bit, what `RegularizedProblem.prepared()`
    and `gated_reduce` give it.  A rung whose stacked GDFE or gate raises
    a `LatdecError` (any one lane failing a floor does) leaves its lanes
    to that per-lane path, which then builds each on first use and raises
    there, for each method that reads it."""

    def __init__(self, rungs: list, size: int, rho: float | None = None,
                 gate_alpha: float | None = None):
        self.rungs, self.rho, self.gate_alpha = rungs, rho, gate_alpha
        self.size = size   # lanes the stacks hold
        self.lanes = 0     # lanes written
        self._where = np.zeros((size, 2), dtype=np.intp)  # lane -> (rung, slot)
        self._stacks = [None] * len(rungs)   # rung -> [y stack, H stack, lanes]
        self._fixed = [(np.eye(d.dimension), book.scale * d.generator,
                        np.zeros(d.dimension) if d.dither is None else d.dither)
                       for d, book in rungs]  # rung -> (T, phi G, u)
        self._forms = [None] * len(rungs)    # rung -> stacked (B, y', Gamma, basis)
        self._gates = [None] * len(rungs)    # rung -> GateStack

    def add(self, y, h, codebook: Codebook) -> None:
        """Write the next lane, sent from `codebook` (one of the rungs')."""
        rung = next(i for i, (_, book) in enumerate(self.rungs) if book is codebook)
        if self._stacks[rung] is None:
            self._stacks[rung] = [np.empty((self.size,) + np.shape(y)),
                                  np.empty((self.size,) + np.shape(h)), 0]
        stack = self._stacks[rung]
        slot = stack[2]
        stack[0][slot], stack[1][slot] = y, h
        stack[2] = slot + 1
        self._where[self.lanes] = rung, slot
        self.lanes += 1

    def build(self, methods) -> None:
        """Check the lanes, then form what `methods` read."""
        gdfe = any(m in _READS_TRIANGULAR_FORM for m in methods)
        reduce = (any(m in _REDUCTION_AIDED for m in methods)
                  and self.rho is not None and self.gate_alpha is not None)
        stacks = [(rung, stack[0][:stack[2]], stack[1][:stack[2]])
                  for rung, stack in enumerate(self._stacks) if stack is not None]
        if not all(np.isfinite(ys).all() and np.isfinite(hs).all() for _, ys, hs in stacks):
            for i in range(self.lanes):   # the first bad lane raises, as it would alone
                RegularizedProblem(*self._lane_arrays(i))
        for rung, ys, hs in stacks if gdfe or reduce else ():
            try:
                self._forms[rung] = _triangular_form(ys, hs, *self._fixed[rung])
                if reduce and len(hs) >= _LOCKSTEP_LANES_PER_DIM * hs.shape[-1]:
                    self._gates[rung] = gated_reduce_stack(self._forms[rung][3],
                                                           self.rho, self.gate_alpha)
            except LatdecError:
                pass   # left to the per-lane path

    def _lane_arrays(self, i: int) -> tuple:
        rung, slot = self._where[i]
        ys, hs, _ = self._stacks[rung]
        return (ys[slot], hs[slot]) + self._fixed[rung]

    def lane(self, i: int) -> ChannelStage:
        """Lane i's channel stage, built now from views into the stacks."""
        rung, slot = self._where[i]
        y, h, t_reg, scaled_generator, dither = self._lane_arrays(i)
        form = self._forms[rung]
        b, yprime, gamma, basis = (None, None, 0.0, None) if form is None else (
            form[0][slot], form[1][slot], float(form[2][slot]), form[3][slot])
        problem = RegularizedProblem._from_checked(
            y=y, h=h, t_reg=t_reg, scaled_generator=scaled_generator, dither=dither,
            b=b, yprime=yprime, gamma=gamma, basis=basis)
        design, book = self.rungs[rung]
        stage = ChannelStage(problem, design, book, rho=self.rho, gate_alpha=self.gate_alpha)
        if self._gates[rung] is not None:
            stage.reduction = self._gates[rung].outcome(slot)
        return stage


def decode(stage: ChannelStage, *, method: str) -> DecodeOutcome:
    """Decode a block's channel stage with `method`.

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
