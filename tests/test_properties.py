"""Property-based tests (hypothesis) on core invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adas.lead_tracker import LeadTracker
from repro.adas.long_planner import LongPlanner
from repro.adas.lead_tracker import TrackedLead
from repro.safety.aebs import Aebs, AebsConfig
from repro.sim.powertrain import Powertrain
from repro.sim.road import Road, RoadSegment
from repro.sim.track import build_straight_map
from repro.sim.vehicle import EgoVehicle
from repro.utils.mathx import clamp, interp1d, rate_limit
from repro.utils.rng import derive_seed
from repro.utils.units import G

finite = st.floats(allow_nan=False, allow_infinity=False, width=32)
speed = st.floats(min_value=0.0, max_value=45.0)
positive = st.floats(min_value=1e-3, max_value=1e3)


@given(finite, finite, finite)
def test_clamp_always_within_bounds(x, a, b):
    lo, hi = min(a, b), max(a, b)
    assert lo <= clamp(x, lo, hi) <= hi


physical = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@given(physical, physical, st.floats(min_value=0.0, max_value=100.0))
def test_rate_limit_never_overshoots(current, target, max_delta):
    out = rate_limit(float(current), float(target), float(max_delta))
    assert abs(out - current) <= max_delta * (1 + 1e-9) + 1e-6


@given(st.floats(min_value=-200.0, max_value=200.0))
def test_interp1d_bounded_by_knots(x):
    ys = [1.0, 5.0, 2.0]
    out = interp1d(float(x), [0.0, 10.0, 20.0], ys)
    assert min(ys) <= out <= max(ys)


@given(st.integers(min_value=0, max_value=2**31), st.text(max_size=20))
def test_derive_seed_deterministic(seed, name):
    assert derive_seed(seed, name) == derive_seed(seed, name)


@given(st.floats(min_value=0.0, max_value=42.0))
def test_aebs_threshold_ordering(v):
    # Below ~42 m/s the cascade is strictly ordered.  Above that speed the
    # paper's own equations invert t_fcw and t_pb1 (see the dedicated test
    # below), so the property holds only in the legal-speed envelope.
    aebs = Aebs(AebsConfig.INDEPENDENT)
    t_fcw, t_pb1, t_pb2, t_fb = aebs.thresholds(float(v))
    assert t_fcw >= t_pb1 >= t_pb2 >= t_fb >= 0.0


def test_aebs_fcw_threshold_crossover_above_42ms():
    # A genuine property of the paper's Eqs. 3-4: for V > 2.5 / (1/3.8 -
    # 1/4.9) ~ 42.3 m/s (~95 mph), phase-1 braking would begin *before*
    # the FCW alert.  Found by hypothesis; documented, not "fixed".
    aebs = Aebs(AebsConfig.INDEPENDENT)
    t_fcw, t_pb1, _, _ = aebs.thresholds(44.0)
    assert t_fcw < t_pb1


@given(
    speed,
    st.floats(min_value=0.1, max_value=200.0),
    st.floats(min_value=0.3, max_value=30.0),
)
@settings(max_examples=60)
def test_aebs_brake_is_never_positive(v, rd, rs):
    aebs = Aebs(AebsConfig.INDEPENDENT)
    state = aebs.update(float(v), True, float(rd), float(rs), 0.01)
    assert state.brake_accel <= 0.0
    assert 0 <= state.phase <= 3
    if state.phase > 0:
        assert state.brake_accel >= -G


@given(
    speed,
    st.floats(min_value=0.0, max_value=250.0),
    st.floats(min_value=-10.0, max_value=25.0),
)
@settings(max_examples=60)
def test_long_planner_command_bounded(v, rd, rs):
    planner = LongPlanner(set_speed=22.35)
    lead = TrackedLead(valid=rd > 0.0, rd=float(rd), rs=float(rs))
    accel = planner.plan(float(v), lead)
    assert -planner.params.panic_decel <= accel <= planner.params.max_accel


@given(st.lists(st.floats(min_value=-9.8, max_value=3.0), min_size=1, max_size=50), speed)
@settings(max_examples=60)
def test_powertrain_never_accelerates_backward(commands, v):
    pt = Powertrain()
    speed_now = float(v)
    for cmd in commands:
        achieved = pt.actuate(float(cmd), speed_now, 0.01)
        speed_now = max(0.0, speed_now + achieved * 0.01)
    assert speed_now >= 0.0


@given(
    st.floats(min_value=0.0, max_value=0.4),
    st.floats(min_value=0.25, max_value=1.0),
    speed,
)
@settings(max_examples=40)
def test_vehicle_speed_nonnegative_under_any_controls(steer, mu, v):
    road = build_straight_map()
    ego = EgoVehicle(road, speed=float(v))
    ego.apply_controls(-G, float(steer))
    for _ in range(100):
        ego.step(0.01, mu=float(mu))
        assert ego.speed >= 0.0
        assert abs(ego.psi) <= 1.2


@given(st.floats(min_value=-20.0, max_value=20.0))
def test_nearest_lane_always_valid(d):
    road = Road([RoadSegment(100.0, 0.0)], num_lanes=2)
    lane = road.nearest_lane(float(d))
    assert 0 <= lane < road.num_lanes


@given(
    st.lists(
        st.tuples(
            st.booleans(),
            st.floats(min_value=0.0, max_value=120.0),
            st.floats(min_value=-10.0, max_value=20.0),
        ),
        min_size=1,
        max_size=100,
    )
)
@settings(max_examples=40)
def test_tracker_rd_never_negative(frames):
    from repro.adas.perception import PerceptionOutput

    tracker = LeadTracker()
    for valid, rd, rs in frames:
        out = PerceptionOutput(
            lead_valid=valid,
            lead_rd=float(rd),
            lead_rs=float(rs),
            lane_left=0.9,
            lane_right=0.9,
            desired_curvature=0.0,
        )
        lead = tracker.update(out, 0.01)
        if lead.valid:
            assert lead.rd >= 0.0
