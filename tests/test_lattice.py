"""Shaping regions, scaling and codebook enumeration, checked against
hand-counted cases."""

from pathlib import Path

import numpy as np
import pytest

from latdec import lattice, load_experiment
from latdec.channels import _arq_fragments, trial_rng
from latdec.errors import BudgetExceeded, EmptyCodebook
from latdec.lattice import (
    LatticeDesign,
    ShapingRegion,
    enumerate_codebook,
    lattice_points,
    _candidate_box,
    random_dither,
    round_half_away_from_zero,
    round_half_away_from_zero_scalar,
    scaling_factor,
)


ROOT = Path(__file__).resolve().parent.parent


def square_design(n, half_width=0.6, dither=0.5):
    return LatticeDesign(
        generator=np.eye(n),
        region=ShapingRegion.box(np.full(n, half_width)),
        coding_duration=1,
        dither=np.full(n, dither) if dither is not None else None,
    )


def test_round_half_away_from_zero_table():
    cases = [
        (0.0, 0.0), (0.49, 0.0), (0.5, 1.0), (0.51, 1.0), (1.5, 2.0),
        (2.5, 3.0), (-0.49, 0.0), (-0.5, -1.0), (-1.5, -2.0), (-2.5, -3.0),
        (3.0, 3.0), (-3.0, -3.0),
    ]
    for x, want in cases:
        got = round_half_away_from_zero(np.array([x]))[0]
        assert got == want, f"round({x}) = {got}, want {want}"


def test_scalar_rounding_matches_the_array_rule_bit_for_bit():
    rng = np.random.default_rng(2310)
    # Random values at every scale from 1e-3 to 1e18, every multiple of
    # 1/2 in [-50, 50) (the ties among them) and its two neighbours, both
    # zeros, the doubles near 2^52 and 2^53, and extreme magnitudes.
    ties = np.arange(-100, 100) / 2.0
    edges = [0.0, -0.0, 0.49999999999999994, -0.49999999999999994,
             2.0**52 - 0.5, -(2.0**52 - 0.5), 2.0**52 + 0.5, 2.0**53 - 1.0,
             2.0**53, 2.0**53 + 2.0, 1e300, -1e300, np.finfo(float).max,
             np.finfo(float).tiny, -np.finfo(float).tiny, 5e-324]
    x = np.concatenate([
        rng.standard_normal(1_000_000) * 10.0 ** rng.uniform(-3.0, 18.0, 1_000_000),
        ties, np.nextafter(ties, np.inf), np.nextafter(ties, -np.inf), edges])
    want = round_half_away_from_zero(x)
    got = np.array([round_half_away_from_zero_scalar(v) for v in x.tolist()])
    assert np.array_equal(want.view(np.uint64), got.view(np.uint64))
    assert all(type(round_half_away_from_zero_scalar(v)) is float
               for v in (0.5, np.float64(-2.5), -0.0))


def test_scaling_factor_values():
    assert scaling_factor(100.0, 1.0, 2, 4) == pytest.approx(0.1, rel=1e-14)
    assert scaling_factor(37.0, 0.0, 3, 6) == 1.0


def test_region_membership():
    box = ShapingRegion.box([1.0, 2.0])
    assert box.contains([1.0, -2.0])            # boundary is inside
    assert not box.contains([1.1, 0.0])

    ball = ShapingRegion.ball(2.0)
    assert ball.contains([2.0, 0.0])
    assert not ball.contains([1.5, 1.5])

    # A stack gets the per-point answers, boundary points included.
    stack = np.array([[1.0, -2.0], [1.1, 0.0], [2.0, 0.0], [0.0, -2.0],
                      [1.5, 1.5], [-1.0, 2.0 + 1e-13], [0.3, 0.4]])
    for region in (box, ball):
        got = region.contains(stack)
        assert got.dtype == bool and got.shape == (len(stack),)
        assert got.tolist() == [region.contains(p) for p in stack]
    assert box.contains(stack).tolist() == [True, False, False, True,
                                            False, True, True]
    assert ball.contains(stack).tolist() == [False, True, True, True,
                                             False, False, True]

    with pytest.raises(ValueError):
        ShapingRegion.box([1.0, -1.0])
    with pytest.raises(ValueError):
        ShapingRegion.ball(0.0)
    with pytest.raises(ValueError):
        ShapingRegion(kind="simplex")


def test_region_rejects_the_other_kinds_field():
    with pytest.raises(ValueError, match="no radius"):
        ShapingRegion(kind="box", half_widths=np.ones(2), radius=1.0)
    with pytest.raises(ValueError, match="no half_widths"):
        ShapingRegion(kind="ball", half_widths=np.ones(2), radius=1.0)
    with pytest.raises(ValueError, match="half_widths"):
        ShapingRegion(kind="box", radius=1.0)


def test_enumerate_codebook_square_two_dim():
    book = enumerate_codebook(square_design(2), phi=1.0)
    want = np.array([
        [-0.5, -0.5], [-0.5, 0.5], [0.5, -0.5], [0.5, 0.5],
    ])
    assert book.size == 4
    assert np.array_equal(book.points, want)          # lexicographic order
    want_coords = np.array([[-1, -1], [-1, 0], [0, -1], [0, 0]])
    assert np.array_equal(book.coords, want_coords)
    # Reconstruction: point = phi G z + u exactly.
    rebuilt = book.coords @ np.eye(2).T + 0.5
    assert np.array_equal(book.points, rebuilt)


def test_enumerate_codebook_four_dim_and_scaled():
    assert enumerate_codebook(square_design(4), phi=1.0).size == 16
    # Scale 0.5, no dither: 0.5 z with |0.5 z_i| <= 0.6 -> z_i in {-1,0,1}.
    book = enumerate_codebook(square_design(2, dither=None), phi=0.5)
    assert book.size == 9
    assert np.array_equal(book.points[0], [-0.5, -0.5])
    assert np.array_equal(book.points[4], [0.0, 0.0])
    # Dithered 22 x 22 grid of half-integers inside [-10.5, 10.5]^2.
    assert enumerate_codebook(square_design(2, half_width=10.5), phi=1.0).size == 484


def test_enumerate_codebook_ball_region():
    design = LatticeDesign(
        generator=np.eye(2), region=ShapingRegion.ball(0.8),
        coding_duration=1, dither=np.array([0.5, 0.5]))
    book = enumerate_codebook(design, phi=1.0)
    assert book.size == 4                      # the four (+-.5, +-.5) corners
    tight = LatticeDesign(
        generator=np.eye(2), region=ShapingRegion.ball(0.7),
        coding_duration=1, dither=np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        enumerate_codebook(tight, phi=1.0)     # radius below the corner norm


def test_codebook_coord_box():
    lo, hi = enumerate_codebook(square_design(2, dither=None), phi=0.5).coord_box()
    assert np.array_equal(lo, [-1, -1]) and np.array_equal(hi, [1, 1])
    ball = LatticeDesign(generator=np.eye(2), region=ShapingRegion.ball(1.0))
    book = enumerate_codebook(ball, phi=1.0)    # the origin and its 4 neighbours
    lo, hi = book.coord_box()
    assert np.array_equal(lo, [-1, -1]) and np.array_equal(hi, [1, 1])
    assert book.coord_box()[0] is lo            # computed once


def test_enumerate_codebook_budget(monkeypatch):
    monkeypatch.setattr(lattice, "DEFAULT_ENUM_BUDGET", 100)
    with pytest.raises(BudgetExceeded):
        enumerate_codebook(square_design(2, half_width=500.0), phi=1.0)
    # A box past int64 range: once its bounds wrapped to a one-point box.
    with pytest.raises(BudgetExceeded):
        enumerate_codebook(square_design(2), phi=1e-160)


def test_random_dither_in_fundamental_cell():
    rng = trial_rng(99, 0xD17, 0)
    gen = np.array([[2.0, 1.0], [0.0, 1.0]])
    u = random_dither(gen, 0.5, rng)
    frac = np.linalg.solve(0.5 * gen, u)
    assert np.all(frac >= 0.0) and np.all(frac < 1.0)
    # Same key reproduces the same dither.
    u2 = random_dither(gen, 0.5, trial_rng(99, 0xD17, 0))
    assert np.array_equal(u, u2)


@pytest.mark.parametrize("n", [2, 3, 4, 8, 16])
def test_lattice_points_of_a_vector_equal_its_row_of_a_stack(n):
    # On a rotated generator BLAS rounds a lone vector (gemv) apart from a
    # stack (gemm); the enumeration's stack and the decoders' lone points
    # must agree bit for bit.
    rng = np.random.default_rng(n)
    for rows in (1, 7, 300):
        a = rng.standard_normal((n, n))
        u = rng.standard_normal(n)
        zs = rng.integers(-8, 9, size=(rows, n))
        stack = lattice_points(a, u, zs)
        for z, row in zip(zs, stack):
            assert np.array_equal(lattice_points(a, u, z), row)


def test_design_validation():
    with pytest.raises(Exception):
        LatticeDesign(generator=np.array([[1.0, 2.0], [2.0, 4.0]]),
                      region=ShapingRegion.box([1.0, 1.0]),
                      coding_duration=1, dither=None)
    with pytest.raises(ValueError):
        LatticeDesign(generator=np.eye(2),
                      region=ShapingRegion.box([1.0, 1.0]),
                      coding_duration=0, dither=None)
    design = square_design(3, dither=None)
    assert design.dimension == 3
    assert np.array_equal(design.dither_or_zero(), np.zeros(3))


def _stride_odometer_reference(lo, hi):
    """The enumeration's former hand-rolled odometer, kept as the
    differential reference for `_iter_integer_box`: each row's digits are
    its flat index divided by the per-axis strides, modulo the axis sizes."""
    sizes = (hi - lo + 1).astype(np.int64)
    total = int(np.prod(sizes))
    n = lo.shape[0]
    strides = np.ones(n, dtype=np.int64)
    for i in range(n - 2, -1, -1):
        strides[i] = strides[i + 1] * sizes[i + 1]
    chunk = 1 << 18
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        yield lo[None, :] + (idx[:, None] // strides[None, :]) % sizes[None, :]


def _assert_same_chunks(lo, hi):
    got = list(lattice._iter_integer_box(lo, hi))
    want = list(_stride_odometer_reference(lo, hi))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == np.int64 and np.array_equal(g, w)
    return got


@pytest.mark.parametrize("n", range(1, 7))
def test_integer_box_matches_stride_odometer(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(5):
        lo = rng.integers(-4, 3, size=n)
        hi = lo + rng.integers(0, 5, size=n)
        chunks = _assert_same_chunks(lo, hi)
        assert sum(len(c) for c in chunks) == np.prod(hi - lo + 1)
    # An empty axis (hi = lo - 1) leaves no candidate at all.
    hi = lo.copy()
    hi[n // 2] = lo[n // 2] - 1
    assert _assert_same_chunks(lo, hi) == []


def test_integer_box_spans_chunks_in_odometer_order():
    lo = np.array([-10, -10, -10, -14], dtype=np.int64)
    hi = -lo                        # 21^3 * 29 = 268569 rows > 2^18
    chunks = _assert_same_chunks(lo, hi)
    assert len(chunks) == 2 and len(chunks[0]) == 1 << 18


# Box codebooks as coordinate products.  Each case is built twice: by
# `enumerate_codebook` as it stands, and by the candidate scan with the
# product path switched off, and the two must agree bit for bit.

def shipped_designs():
    """The shipped designs and their 2- and 3-round ARQ fragments."""
    designs = {}
    for name in ("vblast_2x2", "pilot_1x1"):
        design = load_experiment(str(ROOT / "configs" / f"{name}.yaml")).design
        for l, fragment in enumerate(_arq_fragments(design, 3), start=1):
            designs[f"{name}_x{l}"] = fragment
    return designs


PRODUCT_DESIGNS = dict(
    shipped_designs(),
    positive_diagonal=LatticeDesign(
        generator=np.diag([0.7, 1.3, 2.0, 0.45]),
        region=ShapingRegion.box([0.6, 1.1, 2.5, 0.35]),
        dither=np.array([0.1, -0.3, 0.25, 0.5])),
    no_dither=square_design(4, dither=None),
    # Points land on the boundary +-1.0 exactly at phi = 0.5.
    on_the_boundary=square_design(3, half_width=1.0, dither=None),
)

#: Candidate boxes up to this volume are scanned as the reference.
SCANNED_CANDIDATES = 120_000


def scanned(monkeypatch, design, phi):
    """The codebook of the candidate scan alone."""
    with monkeypatch.context() as m:
        m.setattr(lattice, "_product_codebook", lambda *args: None)
        return enumerate_codebook(design, phi)


def assert_same_book(got, want):
    assert got.points.tobytes() == want.points.tobytes()
    assert got.coords.tobytes() == want.coords.tobytes()
    assert got.coords.dtype == want.coords.dtype == np.int64
    assert got.size == want.size and got.scale == want.scale
    for g, w in zip(got.coord_box(), want.coord_box()):
        assert g.dtype == w.dtype and np.array_equal(g, w)


@pytest.mark.parametrize("name", sorted(PRODUCT_DESIGNS))
def test_product_codebook_is_the_scanned_one_bit_for_bit(monkeypatch, name):
    # Levels 0 to 44.5 dB at r = 0, 0.5, 1 and 1.5 (r / l on an l-round
    # fragment, as a sweep sets it up), each cell whose candidate box the
    # scan can afford; past the budget both raise before building.
    design = PRODUCT_DESIGNS[name]
    built = []
    monkeypatch.setattr(lattice, "_product_codebook",
                        lambda *args, built_as=lattice._product_codebook:
                        built.append(args[-1]) or built_as(*args))
    cells = 0
    for r in (0.0, 0.5, 1.0, 1.5):
        for rho_db in np.arange(0.0, 45.0, 0.5):
            phi = scaling_factor(10.0 ** (rho_db / 10.0), r / design.coding_duration,
                                 design.coding_duration, design.dimension)
            try:
                lo, hi = _candidate_box(design, phi)
            except BudgetExceeded:
                with pytest.raises(BudgetExceeded):
                    enumerate_codebook(design, phi)
                continue
            if np.prod(hi - lo + 1) > SCANNED_CANDIDATES:
                continue
            got = enumerate_codebook(design, phi)
            assert built[-1] == phi     # built as a product
            assert got.fills_box
            assert_same_book(got, scanned(monkeypatch, design, phi))
            cells += 1
    assert cells >= 180


@pytest.mark.parametrize("design, fills_box", [
    (LatticeDesign(generator=np.diag([1.0, -1.0]), region=ShapingRegion.box([1.6, 1.6]),
                   dither=np.array([0.5, 0.25])), True),
    (LatticeDesign(generator=np.array([[1.0, 0.5], [0.0, 0.8]]),
                   region=ShapingRegion.box([1.6, 1.6])), False),
    (LatticeDesign(generator=np.eye(2), region=ShapingRegion.ball(1.6)), False),
], ids=["negative_diagonal", "rotated", "ball"])
def test_other_designs_are_scanned(monkeypatch, design, fills_box):
    monkeypatch.setattr(lattice, "_product_codebook",
                        lambda *args: pytest.fail("not a product design"))
    book = enumerate_codebook(design, 0.5)
    assert np.array_equal(book.points, lattice_points(0.5 * design.generator,
                                                      design.dither_or_zero(),
                                                      book.coords))
    assert np.array_equal(np.lexsort(book.points.T[::-1]), np.arange(book.size))
    assert book.fills_box == fills_box


def test_a_book_with_a_hole_does_not_fill_its_box():
    coords = np.array([[0, 0], [0, 1], [1, 1]])
    book = lattice.Codebook(points=coords.astype(float), coords=coords, scale=1.0)
    assert not book.fills_box
    coords = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
    assert lattice.Codebook(points=coords.astype(float), coords=coords, scale=1.0).fills_box


@pytest.mark.parametrize("design, phi", [
    (square_design(2, half_width=0.3), 1.0),   # every candidate outside
    (square_design(2, half_width=0.1), 1.0),   # an empty candidate box
    (LatticeDesign(generator=np.diag([1.0, 2.0]), region=ShapingRegion.box([0.6, 0.1]),
                   dither=np.array([0.5, 0.5])), 1.0),   # one axis empty
], ids=["outside", "empty_box", "one_axis"])
def test_an_empty_product_raises_as_the_scan(monkeypatch, design, phi):
    with pytest.raises(EmptyCodebook) as product:
        enumerate_codebook(design, phi)
    with pytest.raises(EmptyCodebook) as scan:
        scanned(monkeypatch, design, phi)
    assert str(product.value) == str(scan.value)


def test_a_product_past_the_budget_raises_before_it_is_built(monkeypatch):
    monkeypatch.setattr(lattice, "DEFAULT_ENUM_BUDGET", 100)
    monkeypatch.setattr(lattice, "_product_codebook",
                        lambda *args: pytest.fail("built past the budget"))
    with pytest.raises(BudgetExceeded):
        enumerate_codebook(square_design(2, half_width=500.0), phi=1.0)


def test_a_product_with_tied_points_is_scanned(monkeypatch):
    # A step of 1e-6 below the spacing of doubles near 1e10: neighbouring
    # coordinates round to one point, so only the scan's sort orders them.
    design = LatticeDesign(generator=np.diag([1e-6, 1.0]),
                           region=ShapingRegion.box([3e-6, 0.6]),
                           dither=np.array([1e10, 0.5]))
    assert lattice._product_codebook(
        design.generator, design.dither, design.region.half_widths,
        *_candidate_box(design, 1.0), 1.0) is None
    assert_same_book(enumerate_codebook(design, 1.0), scanned(monkeypatch, design, 1.0))
