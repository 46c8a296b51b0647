"""Batch path-loss evaluation vs the scalar channel models.

Two different strictness levels, on purpose:

* The geometric predicates (``segments_intersect_matrix``,
  ``wall_attenuation_matrix``) mirror the scalar expressions operand for
  operand, so they are checked for *bitwise* equality.
* The distance terms go through numpy's ``hypot``/``log10``, which may
  round the last bit differently from :mod:`math`; full path-loss
  matrices are therefore checked to 1e-9 dB (observed differences are
  ~1e-13).
"""

import random

import numpy as np
import pytest

from repro.channel import (
    LogDistanceModel,
    MeasuredChannel,
    MultiWallModel,
    ShadowedChannel,
    path_loss_matrix,
)
from repro.geometry import (
    FloorPlan,
    Point,
    Rectangle,
    office_floorplan,
    points_to_array,
    segments_intersect_matrix,
    wall_attenuation_matrix,
)
from repro.geometry.primitives import Segment

MATERIALS = ["drywall", "brick", "concrete", "glass", "wood", "metal"]


def random_plan(seed: int, n_walls: int | None = None) -> FloorPlan:
    rng = random.Random(seed)
    plan = FloorPlan(Rectangle(0.0, 0.0, 80.0, 45.0))
    for _ in range(n_walls if n_walls is not None else rng.randint(2, 14)):
        plan.add_wall(
            Point(rng.uniform(0, 80), rng.uniform(0, 45)),
            Point(rng.uniform(0, 80), rng.uniform(0, 45)),
            material=rng.choice(MATERIALS),
            loss_db=rng.choice([None, rng.uniform(0.5, 18.0)]),
        )
    return plan


def random_points(seed: int, count: int) -> list[Point]:
    rng = random.Random(seed)
    return [
        Point(rng.uniform(0, 80), rng.uniform(0, 45)) for _ in range(count)
    ]


def assert_matches_scalar(model, points, rx_points=None, tol=1e-9):
    matrix = path_loss_matrix(model, points, rx_points)
    rx = points if rx_points is None else rx_points
    assert matrix.shape == (len(points), len(rx))
    for i, a in enumerate(points):
        for j, b in enumerate(rx):
            assert matrix[i, j] == pytest.approx(
                model.path_loss_db(a, b), abs=tol
            )


class TestSegmentKernel:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_pairs_match_scalar_exactly(self, seed):
        rng = random.Random(seed)
        segs_a = [
            Segment(
                Point(rng.uniform(0, 10), rng.uniform(0, 10)),
                Point(rng.uniform(0, 10), rng.uniform(0, 10)),
            )
            for _ in range(25)
        ]
        segs_b = segs_a[:5] + [
            Segment(
                Point(rng.uniform(0, 10), rng.uniform(0, 10)),
                Point(rng.uniform(0, 10), rng.uniform(0, 10)),
            )
            for _ in range(15)
        ]
        matrix = segments_intersect_matrix(
            np.array([[s.start.x, s.start.y] for s in segs_a]),
            np.array([[s.end.x, s.end.y] for s in segs_a]),
            np.array([[s.start.x, s.start.y] for s in segs_b]),
            np.array([[s.end.x, s.end.y] for s in segs_b]),
        )
        for i, sa in enumerate(segs_a):
            for j, sb in enumerate(segs_b):
                assert bool(matrix[i, j]) is sa.intersects(sb)

    def test_collinear_and_touching_cases_match(self):
        # The special-cased branches of Segment.intersects: collinear
        # overlap, endpoint touching, containment, clear separation.
        segs = [
            Segment(Point(0, 0), Point(5, 0)),
            Segment(Point(5, 0), Point(10, 0)),   # touches at (5, 0)
            Segment(Point(2, 0), Point(3, 0)),    # contained, collinear
            Segment(Point(6, 0), Point(9, 0)),    # collinear, disjoint from #0
            Segment(Point(0, 1), Point(5, 1)),    # parallel, offset
            Segment(Point(2, -1), Point(2, 1)),   # perpendicular crossing
            Segment(Point(0, 0), Point(0, 5)),    # shares endpoint (0, 0)
        ]
        coords_s = np.array([[s.start.x, s.start.y] for s in segs])
        coords_e = np.array([[s.end.x, s.end.y] for s in segs])
        matrix = segments_intersect_matrix(coords_s, coords_e, coords_s, coords_e)
        for i, sa in enumerate(segs):
            for j, sb in enumerate(segs):
                assert bool(matrix[i, j]) is sa.intersects(sb), (i, j)


class TestWallKernel:
    @pytest.mark.parametrize("seed", range(6))
    def test_bitwise_equal_to_scalar_sum(self, seed):
        plan = random_plan(seed)
        pts = random_points(seed + 100, 18)
        xy = points_to_array(pts)
        matrix = wall_attenuation_matrix(plan, xy, xy)
        for i, a in enumerate(pts):
            for j, b in enumerate(pts):
                # Bitwise: same walls hit, same summation order.
                assert matrix[i, j] == plan.wall_attenuation_db(a, b)

    def test_no_walls_means_zero(self):
        plan = FloorPlan(Rectangle(0, 0, 10, 10))
        xy = points_to_array(random_points(1, 5))
        assert not wall_attenuation_matrix(plan, xy, xy).any()

    def test_rectangular_shapes(self):
        plan = random_plan(3, n_walls=5)
        tx = points_to_array(random_points(4, 3))
        rx = points_to_array(random_points(5, 7))
        assert wall_attenuation_matrix(plan, tx, rx).shape == (3, 7)


class TestPathLossMatrix:
    @pytest.mark.parametrize("seed", range(5))
    def test_log_distance_matches_scalar(self, seed):
        assert_matches_scalar(
            LogDistanceModel(exponent=3.0), random_points(seed, 20)
        )

    def test_log_distance_clamps_below_reference(self):
        model = LogDistanceModel(exponent=2.0, reference_distance=1.0)
        pts = [Point(0, 0), Point(0.1, 0), Point(5, 0)]
        assert_matches_scalar(model, pts)

    @pytest.mark.parametrize("seed", range(5))
    def test_multiwall_matches_scalar(self, seed):
        assert_matches_scalar(
            MultiWallModel(random_plan(seed)), random_points(seed + 50, 16)
        )

    def test_multiwall_office_with_cap(self):
        model = MultiWallModel(office_floorplan(), max_wall_loss_db=15.0)
        assert_matches_scalar(model, random_points(9, 20))

    def test_shadowed_multiwall_matches_scalar(self):
        model = ShadowedChannel(
            MultiWallModel(random_plan(11)), sigma_db=4.0, seed=3
        )
        assert_matches_scalar(model, random_points(12, 12))

    def test_shadowed_over_hookless_base_falls_back(self):
        pts = random_points(13, 4)
        table = {
            (a, b): 40.0 + 1.0 * i + 0.1 * j
            for i, a in enumerate(pts)
            for j, b in enumerate(pts)
        }
        model = ShadowedChannel(MeasuredChannel(table), sigma_db=2.0, seed=1)
        assert_matches_scalar(model, pts)

    def test_rectangular_tx_rx(self):
        model = MultiWallModel(random_plan(17))
        assert_matches_scalar(
            model, random_points(18, 5), random_points(19, 9)
        )

    def test_measured_channel_uses_scalar_fallback(self):
        a, b = Point(0, 0), Point(3, 4)
        model = MeasuredChannel({(a, b): 55.0})
        matrix = path_loss_matrix(model, [a], [b])
        assert matrix.shape == (1, 1) and matrix[0, 0] == 55.0


class TestChannelBackends:
    def test_vectorized_matches_reference(self):
        model = MultiWallModel(random_plan(23))
        pts = random_points(24, 10)
        vec = path_loss_matrix(model, pts)
        ref = [[model.path_loss_db(a, b) for b in pts] for a in pts]
        assert vec == pytest.approx(np.array(ref), abs=1e-9)
