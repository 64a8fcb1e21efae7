"""Lattice code designs: shaping regions, codebook enumeration, scaling.

A design is a full-rank generator G (columns generate the lattice), a
bounded shaping region R centered at the origin, a coding duration T, and
an optional dither offset u.  The finite codebook at signal level rho and
multiplexing rate r is {phi G z + u : z integer} intersected with R, where
phi = rho^(-rT/n) shrinks the lattice as the rate grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import BudgetExceeded, EmptyCodebook
from .numkernel import as_integer, as_matrix, as_real, as_vector, qr_decompose

__all__ = [
    "ShapingRegion",
    "LatticeDesign",
    "Codebook",
    "round_half_away_from_zero",
    "round_half_away_from_zero_scalar",
    "scaling_factor",
    "lattice_points",
    "enumerate_codebook",
    "random_dither",
]

#: Closed-set membership slack for region tests.
MEMBERSHIP_SLACK = 1e-12

#: Cap on candidate lattice points per enumeration, read at call time.
DEFAULT_ENUM_BUDGET = 10**7


def round_half_away_from_zero(x):
    """Round to nearest integer, ties away from zero (1.5 -> 2, -1.5 -> -2).

    This is the single rounding rule used everywhere a real coordinate is
    quantized to the integer grid, so replays are bit-deterministic; the
    array form here and the scalar form below are its two spellings.
    """
    x = np.asarray(x, dtype=np.float64)
    return np.copysign(np.floor(np.abs(x) + 0.5), x)


def round_half_away_from_zero_scalar(x: float) -> float:
    """`round_half_away_from_zero` of one finite float, with no numpy call:
    the form of LLL's size reduction and the decoders' per-node searches."""
    return math.copysign(math.floor(abs(x) + 0.5), x)


@dataclass(frozen=True)
class ShapingRegion:
    """Bounded region R cut out of R^n, centered at the origin.

    Either an axis-aligned box (per-axis half-widths) or a Euclidean ball
    (radius).  Membership is closed-set with a small slack so points that
    land exactly on the boundary are kept.
    """

    kind: str
    half_widths: np.ndarray | None = None
    radius: float | None = None

    def __post_init__(self):
        if self.kind == "box":
            if self.half_widths is None or self.radius is not None:
                raise ValueError("box region takes half_widths and no radius")
            hw = as_vector(self.half_widths, "half_widths")
            if np.any(hw <= 0.0):
                raise ValueError("box half-widths must be positive")
            object.__setattr__(self, "half_widths", hw)
        elif self.kind == "ball":
            if self.half_widths is not None:
                raise ValueError("ball region takes no half_widths")
            radius = as_real(self.radius, "radius")
            if not 0.0 < radius < math.inf:
                raise ValueError("ball radius must be positive and finite")
            object.__setattr__(self, "radius", radius)
        else:
            raise ValueError(f"unknown region kind {self.kind!r}, "
                             "expected 'box' or 'ball'")

    @classmethod
    def box(cls, half_widths) -> "ShapingRegion":
        return cls(kind="box", half_widths=half_widths)

    @classmethod
    def ball(cls, radius: float) -> "ShapingRegion":
        return cls(kind="ball", radius=radius)

    def contains(self, x):
        """Membership of one point (a bool) or of each row of an (N, n) stack."""
        x = np.asarray(x, dtype=np.float64)
        if self.kind == "box":
            if x.shape[-1] != self.half_widths.shape[0]:
                raise ValueError("point dimension does not match box")
            inside = np.all(np.abs(x) <= self.half_widths + MEMBERSHIP_SLACK, axis=-1)
        else:
            inside = np.sqrt(np.sum(x * x, axis=-1)) <= self.radius + MEMBERSHIP_SLACK
        return bool(inside) if inside.ndim == 0 else inside

    def bounding_half_widths(self, n: int) -> np.ndarray:
        """Half-widths of the smallest axis-aligned box containing R."""
        if self.kind == "box":
            return self.half_widths
        return np.full(n, self.radius)


@dataclass
class LatticeDesign:
    """Full-rank generator + shaping region + coding duration + dither."""

    generator: np.ndarray
    region: ShapingRegion
    coding_duration: int = 1
    dither: np.ndarray | None = None

    def __post_init__(self):
        if not isinstance(self.region, ShapingRegion):
            raise ValueError(f"region must be a ShapingRegion, got {self.region!r}")
        g = as_matrix(self.generator, "generator")
        n, k = g.shape
        if n != k:
            raise ValueError(f"generator must be square, got {g.shape}")
        qr_decompose(g)  # raises RankDeficient when singular
        self.generator = g
        self.coding_duration = as_integer(self.coding_duration, "coding_duration", 1)
        if self.dither is not None:
            u = as_vector(self.dither, "dither")
            if u.shape[0] != n:
                raise ValueError("dither dimension does not match generator")
            self.dither = u
        if self.region.kind == "box" and self.region.half_widths.shape[0] != n:
            raise ValueError("region dimension does not match generator")

    @property
    def dimension(self) -> int:
        return self.generator.shape[0]

    def dither_or_zero(self) -> np.ndarray:
        if self.dither is None:
            return np.zeros(self.dimension)
        return self.dither


@dataclass
class Codebook:
    """Finite codebook: points[i] = scale * G @ coords[i] + dither."""

    points: np.ndarray  # (N, n) float64, lexicographically sorted
    coords: np.ndarray  # (N, n) int64 lattice coordinates
    scale: float
    # (lo, hi), set by the product enumeration or by coord_box() on first use.
    _box: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.points.shape[0] == 0:
            raise ValueError("codebook is empty")
        if self.points.shape != self.coords.shape:
            raise ValueError("points/coords shape mismatch")

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def coord_box(self) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi): the smallest integer box lo <= z <= hi holding every
        codeword's coordinates.  Computed once per codebook."""
        if self._box is None:
            self._box = (self.coords.min(axis=0), self.coords.max(axis=0))
        return self._box

    @cached_property
    def fills_box(self) -> bool:
        """Whether every integer z of `coord_box()` is a codeword's
        coordinates: the size equals the box's volume."""
        lo, hi = self.coord_box()
        return self.size == math.prod((hi - lo + 1).tolist())


def scaling_factor(rho: float, r: float, t: int, n: int) -> float:
    """Lattice shrink factor phi = rho^(-r T / n), so a design's codebook
    at this scale grows as phi^-n = rho^(r T): r log2(rho) bits per use."""
    if not (rho > 0.0):
        raise ValueError("rho must be positive")
    if r < 0.0:
        raise ValueError("r must be nonnegative")
    if t < 1 or n < 1:
        raise ValueError("t and n must be >= 1")
    return float(rho ** (-r * t / n))


def lattice_points(a: np.ndarray, u: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The points a z + u of integer coordinates z, a vector or a stack of
    rows.  The enumeration, ML's leaf test and every decoder's point come
    from here; `einsum` rounds a lone vector as its row of a stack, bit
    for bit, where BLAS (gemv against gemm) would not on a rotated `a`."""
    return np.einsum("...j,ij->...i", z.astype(np.float64), a) + u


def _candidate_box(design: LatticeDesign, phi: float) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi): the integer box holding the preimage of R's bounding box
    under phi G, the candidates `enumerate_codebook` tests (hi = lo - 1 on
    an empty axis).  Raises BudgetExceeded past `DEFAULT_ENUM_BUDGET` of them."""
    if not (phi > 0.0) or not math.isfinite(phi):
        raise ValueError("phi must be positive and finite")
    u = design.dither_or_zero()
    ainv = np.linalg.inv(phi * design.generator)
    hw = design.region.bounding_half_widths(design.dimension)
    center = -ainv @ u
    spread = np.abs(ainv) @ hw
    # Checked before the int64 cast, which wraps bounds past 2^63 silently.
    if not np.all(spread < DEFAULT_ENUM_BUDGET):
        raise BudgetExceeded(f"candidate box wider than budget {DEFAULT_ENUM_BUDGET}")
    lo = np.ceil(center - spread - 1e-9).astype(np.int64)
    hi = np.floor(center + spread + 1e-9).astype(np.int64)
    total = int(np.prod((hi - lo + 1).astype(object)))
    if total > DEFAULT_ENUM_BUDGET:
        raise BudgetExceeded(f"{total} candidate points exceed budget "
                             f"{DEFAULT_ENUM_BUDGET}")
    return lo, hi


def _iter_integer_box(lo: np.ndarray, hi: np.ndarray):
    """Yield (chunk of integer vectors) covering the box [lo, hi], in
    odometer order, without materializing more than ~2^18 rows at once."""
    sizes = hi - lo + 1
    total = int(np.prod(sizes))
    chunk = 1 << 18
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        yield lo + np.stack(np.unravel_index(idx, sizes), axis=1)


_EMPTY = "codebook is empty for this design and scale: no candidate lies in the region"


def enumerate_codebook(design: LatticeDesign, phi: float) -> Codebook:
    """Exact finite codebook {phi G z + u} intersect R.

    Candidates are the integers of `_candidate_box`, which raises
    BudgetExceeded past `DEFAULT_ENUM_BUDGET` of them; membership is the
    closed-set region test.  Raises EmptyCodebook when no candidate lies
    in the region, an empty candidate box included.

    A box region on a diagonal phi G with a positive diagonal is a product
    of per-axis ranges, and is built as one (`_product_codebook`), bit for
    bit the book the candidate scan below gives; every other design
    (a rotated generator, a ball, a negative diagonal) is scanned.
    """
    lo, hi = _candidate_box(design, phi)
    a = phi * design.generator
    u = design.dither_or_zero()
    diagonal = np.diagonal(a)
    if (design.region.kind == "box" and (diagonal > 0.0).all()
            and np.array_equal(a, np.diag(diagonal))):
        book = _product_codebook(a, u, design.region.half_widths, lo, hi, float(phi))
        if book is not None:
            return book
    kept_pts = []
    kept_z = []
    for z in _iter_integer_box(lo, hi):
        pts = lattice_points(a, u, z)
        mask = design.region.contains(pts)
        if np.any(mask):
            kept_pts.append(pts[mask])
            kept_z.append(z[mask])
    if not kept_pts:
        raise EmptyCodebook(_EMPTY)
    pts = np.concatenate(kept_pts, axis=0)
    zs = np.concatenate(kept_z, axis=0)
    # Canonical order: lexicographic by point coordinates.
    order = np.lexsort(pts.T[::-1])
    return Codebook(points=pts[order], coords=zs[order], scale=float(phi))


def _product_codebook(a, u, half_widths, lo, hi, phi: float) -> Codebook | None:
    """The box code of a diagonal `a` with a positive diagonal: axis i
    keeps the candidates z_i whose |z_i a_ii + u_i| passes the box test,
    which is the test of every point with that coordinate (the point's
    other terms are exact zeros), and the coordinates are the odometer
    product of the kept ranges.  While each axis's point coordinates
    strictly increase with z_i, that product is the scan's lexicographic
    order; None where roundoff ties two of them (a step a_ii below the
    spacing of doubles near u_i), which the scan then orders.  The points
    come from `lattice_points`, as the scan's do."""
    axes = []
    for i in range(len(lo)):
        z = np.arange(lo[i], hi[i] + 1, dtype=np.int64)
        x = z.astype(np.float64) * a[i, i] + u[i]
        inside = np.abs(x) <= half_widths[i] + MEMBERSHIP_SLACK
        if not inside.any():
            raise EmptyCodebook(_EMPTY)
        if not (np.diff(x[inside]) > 0.0).all():
            return None
        axes.append(z[inside])
    coords = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    book = Codebook(points=lattice_points(a, u, coords), coords=coords, scale=phi)
    # The kept ranges are the coordinate box: spare coord_box() its min and
    # max over the (N, n) coordinates, about 5 ms at 83521 points.
    book._box = (np.array([z[0] for z in axes]), np.array([z[-1] for z in axes]))
    return book


def random_dither(generator, phi: float, rng) -> np.ndarray:
    """Dither drawn uniformly over the fundamental cell of the scaled
    lattice (draw once per experiment, never per trial)."""
    g = np.asarray(generator, dtype=np.float64)
    frac = rng.random(g.shape[1])
    return phi * (g @ frac)
