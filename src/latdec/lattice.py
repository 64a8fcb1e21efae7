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

import numpy as np

from .errors import BudgetExceeded
from .numkernel import as_matrix, as_vector, qr_decompose

__all__ = [
    "ShapingRegion",
    "LatticeDesign",
    "Codebook",
    "round_half_away_from_zero",
    "scaling_factor",
    "enumerate_codebook",
    "random_dither",
]

#: Closed-set membership slack for region tests.
MEMBERSHIP_SLACK = 1e-12

#: Default cap on candidate lattice points per enumeration.
DEFAULT_ENUM_BUDGET = 10**7


def round_half_away_from_zero(x):
    """Round to nearest integer, ties away from zero (1.5 -> 2, -1.5 -> -2).

    This is the single rounding rule used everywhere a real coordinate is
    quantized to the integer grid, so replays are bit-deterministic.
    """
    x = np.asarray(x, dtype=np.float64)
    return np.copysign(np.floor(np.abs(x) + 0.5), x)


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
            if hw.size == 0 or np.any(hw <= 0.0):
                raise ValueError("box half-widths must be positive")
            object.__setattr__(self, "half_widths", hw)
        elif self.kind == "ball":
            if self.half_widths is not None:
                raise ValueError("ball region takes no half_widths")
            if self.radius is None or not (self.radius > 0.0) or not math.isfinite(self.radius):
                raise ValueError("ball radius must be positive and finite")
        else:
            raise ValueError(f"unknown region kind {self.kind!r}, "
                             "expected 'box' or 'ball'")

    @classmethod
    def box(cls, half_widths) -> "ShapingRegion":
        return cls(kind="box", half_widths=np.asarray(half_widths, dtype=np.float64))

    @classmethod
    def ball(cls, radius: float) -> "ShapingRegion":
        return cls(kind="ball", radius=float(radius))

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
        g = as_matrix(self.generator, "generator")
        n, k = g.shape
        if n != k:
            raise ValueError(f"generator must be square, got {g.shape}")
        qr_decompose(g)  # raises RankDeficient when singular
        self.generator = g
        if not isinstance(self.coding_duration, (int, np.integer)) or self.coding_duration < 1:
            raise ValueError("coding_duration must be an integer >= 1")
        self.coding_duration = int(self.coding_duration)
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
    # (lo, hi), set by coord_box() on first use.
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


def scaling_factor(rho: float, r: float, t: int, n: int, integer_nesting: bool = False) -> float:
    """Lattice shrink factor phi = rho^(-r T / n).

    With integer_nesting=True the inverse scale is snapped to the nearest
    integer >= 1 (so the scaled lattice nests inside the base one).
    """
    if not (rho > 0.0):
        raise ValueError("rho must be positive")
    if r < 0.0:
        raise ValueError("r must be nonnegative")
    if t < 1 or n < 1:
        raise ValueError("t and n must be >= 1")
    if integer_nesting:
        inv = float(round_half_away_from_zero(rho ** (r * t / n)))
        return 1.0 / max(inv, 1.0)
    return float(rho ** (-r * t / n))


def _iter_integer_box(lo: np.ndarray, hi: np.ndarray, budget: int):
    """Yield (chunk of integer vectors) covering the box [lo, hi], in
    odometer order, without materializing more than ~2^18 rows at once."""
    sizes = (hi - lo + 1).astype(np.int64)
    if np.any(sizes <= 0):
        return
    total = int(np.prod(sizes.astype(object)))
    if total > budget:
        raise BudgetExceeded(f"{total} candidate points exceed budget {budget}")
    n = lo.shape[0]
    strides = np.ones(n, dtype=np.int64)
    for i in range(n - 2, -1, -1):
        strides[i] = strides[i + 1] * sizes[i + 1]
    chunk = 1 << 18
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        z = lo[None, :] + (idx[:, None] // strides[None, :]) % sizes[None, :]
        yield z


def enumerate_codebook(design: LatticeDesign, phi: float,
                       budget: int = DEFAULT_ENUM_BUDGET) -> Codebook:
    """Exact finite codebook {phi G z + u} intersect R.

    Candidates come from the integer preimage of R's bounding box under
    phi G; membership is the closed-set region test.  Raises BudgetExceeded
    when the candidate count passes `budget`.
    """
    if not (phi > 0.0) or not math.isfinite(phi):
        raise ValueError("phi must be positive and finite")
    g = design.generator
    n = design.dimension
    u = design.dither_or_zero()
    a = phi * g
    ainv = np.linalg.inv(a)
    hw = design.region.bounding_half_widths(n)
    center = -ainv @ u
    spread = np.abs(ainv) @ hw
    lo = np.ceil(center - spread - 1e-9).astype(np.int64)
    hi = np.floor(center + spread + 1e-9).astype(np.int64)
    kept_pts = []
    kept_z = []
    for z in _iter_integer_box(lo, hi, budget):
        pts = z.astype(np.float64) @ a.T + u
        mask = design.region.contains(pts)
        if np.any(mask):
            kept_pts.append(pts[mask])
            kept_z.append(z[mask])
    if not kept_pts:
        raise ValueError("codebook is empty for this design and scale")
    pts = np.concatenate(kept_pts, axis=0)
    zs = np.concatenate(kept_z, axis=0)
    # Canonical order: lexicographic by point coordinates.
    order = np.lexsort(pts.T[::-1])
    return Codebook(points=pts[order], coords=zs[order], scale=float(phi))


def random_dither(generator, phi: float, rng) -> np.ndarray:
    """Dither drawn uniformly over the fundamental cell of the scaled
    lattice (draw once per experiment, never per trial)."""
    g = np.asarray(generator, dtype=np.float64)
    frac = rng.random(g.shape[0])
    return phi * (g @ frac)
