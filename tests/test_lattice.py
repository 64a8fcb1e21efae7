"""Shaping regions, scaling and codebook enumeration, checked against
hand-counted cases."""

import numpy as np
import pytest

from latdec.channels import trial_rng
from latdec.errors import BudgetExceeded
from latdec.lattice import (
    LatticeDesign,
    ShapingRegion,
    enumerate_codebook,
    random_dither,
    round_half_away_from_zero,
    scaling_factor,
)


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


def test_scaling_factor_values():
    assert scaling_factor(100.0, 1.0, 2, 4) == pytest.approx(0.1, rel=1e-14)
    assert scaling_factor(37.0, 0.0, 3, 6) == 1.0
    # Integer nesting snaps 1/phi to an integer.
    assert scaling_factor(100.0, 1.0, 2, 4, integer_nesting=True) == pytest.approx(0.1)
    got = scaling_factor(10.0, 1.0, 1, 2, integer_nesting=True)
    assert got == pytest.approx(1.0 / 3.0, rel=1e-14)   # round(sqrt(10)) = 3
    # Nesting never scales up: ratios below 1.5 clamp to 1.
    assert scaling_factor(1.1, 1.0, 1, 2, integer_nesting=True) == 1.0


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


def test_enumerate_codebook_budget():
    with pytest.raises(BudgetExceeded):
        enumerate_codebook(square_design(2, half_width=500.0), phi=1.0,
                           budget=100)


def test_random_dither_in_fundamental_cell():
    rng = trial_rng(99, 0xD17, 0)
    gen = np.array([[2.0, 1.0], [0.0, 1.0]])
    u = random_dither(gen, 0.5, rng)
    frac = np.linalg.solve(0.5 * gen, u)
    assert np.all(frac >= 0.0) and np.all(frac < 1.0)
    # Same key reproduces the same dither.
    u2 = random_dither(gen, 0.5, trial_rng(99, 0xD17, 0))
    assert np.array_equal(u, u2)


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
