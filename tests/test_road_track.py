"""Unit tests for repro.sim.road and repro.sim.track."""

import pytest

from repro.sim.road import Road, RoadSegment
from repro.sim.track import build_highway_map, build_straight_map


class TestRoadSegment:
    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            RoadSegment(0.0, 0.0)

    def test_rejects_extreme_curvature(self):
        with pytest.raises(ValueError):
            RoadSegment(100.0, 0.5)


class TestRoadGeometry:
    def test_total_length(self):
        road = Road([RoadSegment(100.0, 0.0), RoadSegment(50.0, 0.01)])
        assert road.length == pytest.approx(150.0)

    def test_requires_segments(self):
        with pytest.raises(ValueError):
            Road([])

    def test_curvature_lookup(self):
        road = Road([RoadSegment(100.0, 0.0), RoadSegment(50.0, 0.01)])
        assert road.curvature_at(50.0) == 0.0
        assert road.curvature_at(120.0) == 0.01

    def test_curvature_clamps_ends(self):
        road = Road([RoadSegment(100.0, 0.002)])
        assert road.curvature_at(-5.0) == 0.002
        assert road.curvature_at(500.0) == 0.002

    def test_curvature_ahead_averages_across_boundary(self):
        road = Road([RoadSegment(100.0, 0.0), RoadSegment(100.0, 0.01)])
        ahead = road.curvature_ahead(95.0, 10.0)
        assert 0.0 < ahead < 0.01

    def test_lane_centers(self):
        road = Road([RoadSegment(100.0, 0.0)], num_lanes=2, lane_width=3.7)
        assert road.lane_center(0) == 0.0
        assert road.lane_center(1) == pytest.approx(3.7)

    def test_lane_center_bounds_check(self):
        road = Road([RoadSegment(100.0, 0.0)], num_lanes=2)
        with pytest.raises(ValueError):
            road.lane_center(2)

    def test_lane_bounds(self):
        road = Road([RoadSegment(100.0, 0.0)], lane_width=3.7)
        right, left = road.lane_bounds(0)
        assert right == pytest.approx(-1.85)
        assert left == pytest.approx(1.85)

    def test_road_bounds_two_lanes(self):
        road = Road([RoadSegment(100.0, 0.0)], num_lanes=2, lane_width=3.7)
        right, left = road.road_bounds()
        assert right == pytest.approx(-1.85)
        assert left == pytest.approx(5.55)

    def test_nearest_lane_assignment(self):
        road = Road([RoadSegment(100.0, 0.0)], num_lanes=2, lane_width=3.7)
        assert road.nearest_lane(0.0) == 0
        assert road.nearest_lane(1.8) == 0
        assert road.nearest_lane(1.9) == 1
        assert road.nearest_lane(3.7) == 1
        # clamped beyond the outermost lanes
        assert road.nearest_lane(10.0) == 1
        assert road.nearest_lane(-10.0) == 0


class TestMaps:
    def test_highway_length_covers_episode(self):
        road = build_highway_map()
        # 100 s at 50 mph = ~2.24 km; map must be longer.
        assert road.length > 2500.0

    def test_highway_has_both_curve_directions(self):
        road = build_highway_map()
        curvatures = [seg.curvature for seg in road.segments]
        assert any(c > 0 for c in curvatures)
        assert any(c < 0 for c in curvatures)
        assert any(c == 0 for c in curvatures)

    def test_highway_first_curve_after_opening_straight(self):
        road = build_highway_map()
        assert road.curvature_at(200.0) == 0.0
        assert road.curvature_at(500.0) != 0.0

    def test_highway_curve_radii_are_highway_scale(self):
        road = build_highway_map()
        for seg in road.segments:
            if seg.curvature != 0.0:
                assert abs(1.0 / seg.curvature) >= 250.0

    def test_straight_map(self):
        road = build_straight_map(length=1000.0)
        assert road.length == 1000.0
        assert all(seg.curvature == 0.0 for seg in road.segments)
