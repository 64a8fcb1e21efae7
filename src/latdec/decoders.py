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

Methods: exhaustive ML over the finite codebook, the exact regularized
sphere search, naive (unregularized) lattice decoding, and the two
reduction-aided approximations (nearest-plane / successive cancellation,
and componentwise rounding) whose metric blow-up is bounded by constants
depending only on the dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import EnumerationOverflow, MetricMismatch, NearSingularChannel
from .lattice import (
    Codebook,
    LatticeDesign,
    enumerate_codebook,
    round_half_away_from_zero,
)
from .numkernel import (
    as_matrix,
    as_vector,
    cholesky_upper,
    qr_decompose,
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
    "DEFAULT_NODE_BUDGET",
    "RegularizedProblem",
    "DecodeGate",
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
    "detect",
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

DEFAULT_NODE_BUDGET = 10**8


@dataclass
class DecodeGate:
    """Reduction-gate settings for the reduction-aided decoders."""

    alpha: float
    delta: float = 0.75


@dataclass(eq=False)
class RegularizedProblem:
    """One decode instance: received vector, channel, penalty matrix, and
    the scaled lattice generator (phi G) with optional dither.

    The constructor is where decode inputs enter: it checks every array
    for NaN/Inf and shape once, and nothing downstream checks again.
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
        if self.dither is not None:
            self.dither = as_vector(self.dither, "dither")
            if self.dither.shape[0] != n:
                raise ValueError("dither length does not match")

    @property
    def n(self) -> int:
        return self.h.shape[1]

    def dither_or_zero(self) -> np.ndarray:
        if self.dither is None:
            return np.zeros(self.n)
        return self.dither

    def point(self, z: np.ndarray) -> np.ndarray:
        """The lattice point phi G z + u of integer coordinates z."""
        return self.scaled_generator @ z.astype(np.float64) + self.dither_or_zero()

    def prepared(self) -> "RegularizedProblem":
        """Factor the triangular form once (b, yprime, gamma, basis); returns self."""
        if self.b is None:
            b, f = mmse_gdfe_filters(self.h, self.t_reg)
            y_eff = self.y - self.h @ self.dither_or_zero()
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
    u = problem.dither_or_zero()
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


def _babai_backsub(r: np.ndarray, ytil: np.ndarray) -> np.ndarray:
    """Nearest-plane integer coordinates by rounded back-substitution."""
    n = r.shape[0]
    z = np.zeros(n)
    for i in range(n - 1, -1, -1):
        c = (ytil[i] - r[i, i + 1:] @ z[i + 1:]) / r[i, i]
        z[i] = round_half_away_from_zero(c)
    return z


def _sign(x: float) -> float:
    if x > 0.0:
        return 1.0
    if x < 0.0:
        return -1.0
    return 0.0


def _sphere_search(r: np.ndarray, ytil: np.ndarray, node_budget: int):
    """Exact closest-vector search on an upper-triangular system.

    Depth-first with zig-zag child ordering around the rounded center;
    children are visited in nondecreasing cost, so the first over-radius
    child prunes the whole level.  The search radius starts at the
    nearest-plane metric, which keeps the tree nonempty."""
    n = r.shape[0]
    zb = _babai_backsub(r, ytil)
    resid = ytil - r @ zb
    best_metric = float(resid @ resid)
    best_z = zb.copy()

    z = np.zeros(n)
    step = np.zeros(n)
    partial = np.zeros(n)      # ytil[i] - sum_{j>i} R[i,j] z[j]
    dist_above = np.zeros(n)   # cost contributed by levels above i
    nodes = 0

    i = n - 1
    partial[i] = ytil[i]
    dist_above[i] = 0.0
    center = partial[i] / r[i, i]
    z[i] = round_half_away_from_zero(center)
    step[i] = _sign(center - z[i]) or 1.0

    while True:
        nodes += 1
        if nodes > node_budget:
            raise EnumerationOverflow(f"sphere search exceeded {node_budget} nodes")
        diff = partial[i] - r[i, i] * z[i]
        cost = dist_above[i] + diff * diff
        if cost < best_metric:
            if i == 0:
                best_metric = cost
                best_z = z.copy()
                z[i] += step[i]
                step[i] = -step[i] - _sign(step[i])
            else:
                i -= 1
                dist_above[i] = cost
                partial[i] = ytil[i] - r[i, i + 1:] @ z[i + 1:]
                center = partial[i] / r[i, i]
                z[i] = round_half_away_from_zero(center)
                step[i] = _sign(center - z[i]) or 1.0
        else:
            # Every further sibling at this level costs at least as much.
            i += 1
            if i == n:
                break
            z[i] += step[i]
            step[i] = -step[i] - _sign(step[i])
    return best_z.astype(np.int64), best_metric


def _closest_point(basis: np.ndarray, target: np.ndarray, node_budget: int):
    """(z, squared distance) of the lattice point `basis` @ z nearest to
    `target`, distance taken within the basis's column space: QR of the
    basis, the target rotated by Q^T, then sphere search."""
    q, r = qr_decompose(basis)
    return _sphere_search(r, q.T @ target, node_budget)


def sphere_decode_regularized(problem: RegularizedProblem,
                              node_budget: int = DEFAULT_NODE_BUDGET) -> LatticeDecodeResult:
    """Exact minimizer of the regularized objective over the full (infinite)
    dithered lattice, via sphere search on the triangular form."""
    problem.prepared()
    z, dist = _closest_point(problem.basis, problem.yprime, node_budget)
    return LatticeDecodeResult(coords=z, point=problem.point(z),
                               metric=dist + problem.gamma)


def naive_lattice_decode(problem: RegularizedProblem,
                         node_budget: int = DEFAULT_NODE_BUDGET) -> LatticeDecodeResult:
    """Unregularized closest-lattice-point decode: the exact minimizer of
    the plain distance ||y - H x||^2 over the full dithered lattice, which
    is also the reported metric.  The problem's penalty T is ignored.

    Raises NearSingularChannel when the effective basis H (phi G) is
    numerically singular.  With no penalty term, deep fades regularly push
    the minimizer far outside the shaping region."""
    hg = problem.h @ problem.scaled_generator
    if _min_singular_value(hg) < 1e-10:
        raise NearSingularChannel("sigma_min(H phi G) below 1e-10")
    z, _ = _closest_point(hg, problem.y - problem.h @ problem.dither_or_zero(),
                          node_budget)
    point = problem.point(z)
    resid = problem.y - problem.h @ point
    return LatticeDecodeResult(coords=z, point=point, metric=float(resid @ resid))


def _min_singular_value(a: np.ndarray) -> float:
    """Smallest singular value of a possibly rectangular map on R^n."""
    m, n = a.shape
    if m < n:
        return 0.0  # genuine null space: fewer observations than unknowns
    return float(np.linalg.svd(a, compute_uv=False)[-1])


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
    method that decodes it: the one regularized problem (which factors
    its GDFE filters on first use) and the gated reduction of its basis,
    built at most once and only for methods that need it."""

    problem: RegularizedProblem
    design: LatticeDesign
    phi: float
    rho: float | None = None
    gate: DecodeGate | None = None
    codebook: Codebook | None = None
    node_budget: int = DEFAULT_NODE_BUDGET

    @cached_property
    def reduction(self) -> GateOutcome:
        """The problem's basis through the condition gate and LLL."""
        if self.gate is None:
            raise ValueError("reduction-aided methods require gate settings")
        if self.rho is None:
            raise ValueError("reduction-aided methods require rho for the gate")
        return gated_reduce(self.problem.prepared().basis, self.rho,
                            self.gate.alpha, delta=self.gate.delta)


def prepare(y, h, design: LatticeDesign, phi: float,
            rho: float | None = None, gate: DecodeGate | None = None,
            codebook: Codebook | None = None,
            node_budget: int = DEFAULT_NODE_BUDGET) -> ChannelStage:
    """Channel stage of one received block for a design at scale phi.

    The penalty is the identity.  The reduction-aided methods need `rho`
    and `gate`; `codebook` spares ML an enumeration.  The stage's one
    `RegularizedProblem` is built here, and building it is the one check
    of y and H."""
    problem = RegularizedProblem(y=y, h=h, t_reg=np.eye(design.dimension),
                                 scaled_generator=phi * design.generator,
                                 dither=design.dither)
    return ChannelStage(problem, design, phi, rho=rho, gate=gate,
                        codebook=codebook, node_budget=node_budget)


def detect(stage: ChannelStage, method: str) -> DecodeOutcome:
    """Decode a prepared block with `method`.

    A gate refusal surfaces as a timeout outcome; lattice-decoder outputs
    are classified against the shaping region, here and nowhere else."""
    problem = stage.problem
    if method == METHOD_ML:
        book = stage.codebook or enumerate_codebook(stage.design, stage.phi)
        return ml_decode(problem.y, problem.h, book)
    if method in (METHOD_NAIVE, METHOD_REG_EXACT):
        search = (naive_lattice_decode if method == METHOD_NAIVE
                  else sphere_decode_regularized)
        return _classify(stage.design, search(problem, node_budget=stage.node_budget))
    if method in (METHOD_LR_SIC, METHOD_LR_LINEAR):
        outcome = stage.reduction
        if outcome.timed_out:
            return DecodeOutcome.timeout()
        detector = babai_nearest_plane if method == METHOD_LR_SIC else lr_aided_linear
        return _classify(stage.design, detector(problem, outcome.basis))
    raise ValueError(f"unknown method {method!r}")


def decode(y, h, design: LatticeDesign, phi: float, method: str,
           rho: float | None = None, gate: DecodeGate | None = None,
           codebook: Codebook | None = None,
           node_budget: int = DEFAULT_NODE_BUDGET) -> DecodeOutcome:
    """One-shot decode: `detect(prepare(...), method)`."""
    return detect(prepare(y, h, design, phi, rho=rho, gate=gate, codebook=codebook,
                          node_budget=node_budget), method)


def _classify(design: LatticeDesign, res: LatticeDecodeResult) -> DecodeOutcome:
    if design.region.contains(res.point):
        return DecodeOutcome.codeword(res.point, res.coords, res.metric)
    return DecodeOutcome.out_of_codebook(res.point, res.coords, res.metric)
