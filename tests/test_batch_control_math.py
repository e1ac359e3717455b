"""Per-head equivalence of the vectorized control math.

The batch engine's array twins (``perception_head_arrays``,
``tracker_step_arrays``) must match the scalar models *bit for bit*,
lane by lane — not approximately: the batch executor's contract is
byte-identical episode results, and a single one-ULP drift in any head
breaks the golden digests.  Hypothesis drives the state space; the
oracle is the scalar arithmetic itself.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adas.lead_tracker import LeadTracker
from repro.adas.perception import PerceptionOutput, perception_head_arrays
from repro.utils.mathx import clamp

finite = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6
)
small = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-10.0, max_value=10.0
)
positive = st.floats(
    allow_nan=False, allow_infinity=False, min_value=1e-3, max_value=100.0
)
noise_draw = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-5.0, max_value=5.0
)
gain = st.floats(
    allow_nan=False, allow_infinity=False, min_value=1e-3, max_value=1.0
)


def _scalar_perception(dt, lane, params):
    """The scalar :meth:`PerceptionModel.run` arithmetic, one lane.

    ``rng.normal(0.0, s)`` is ``0.0 + s * z`` for a standard-normal draw
    ``z``; keeping the ``0.0 +`` preserves negative-zero normalisation.
    """
    (present, gap, rel, dr, dl, k_road, offset, psi, ff) = lane
    (det, blind, cg, hg, ff_lag, rdn, rsn, lnn, cvn, kmax, z) = params
    valid = present and gap <= det and gap >= blind
    if valid:
        rd = gap + (0.0 + rdn * z[0])
        rs = rel + (0.0 + rsn * z[1])
        rd = max(rd, 0.0)
    else:
        rd, rs = 0.0, 0.0
    lane_left = dl + (0.0 + lnn * z[2])
    lane_right = dr + (0.0 + lnn * z[3])
    alpha = dt / (ff_lag + dt)
    ff_next = ff + alpha * (k_road - ff)
    k_des = ff_next - cg * offset - hg * psi + (0.0 + cvn * z[4])
    k_des = clamp(k_des, -kmax, kmax)
    return valid, rd, rs, lane_left, lane_right, k_des, ff_next


class TestPerceptionHeadArrays:
    @settings(max_examples=200, deadline=None)
    @given(
        data=st.lists(
            st.tuples(
                st.booleans(),  # lead present
                st.floats(min_value=0.0, max_value=300.0, allow_nan=False),
                small,  # rel speed
                small,  # dist_right
                small,  # dist_left
                st.floats(min_value=-0.2, max_value=0.2, allow_nan=False),
                small,  # offset
                st.floats(min_value=-1.5, max_value=1.5, allow_nan=False),
                st.floats(min_value=-0.2, max_value=0.2, allow_nan=False),
            ),
            min_size=1,
            max_size=8,
        ),
        dt=st.floats(min_value=1e-3, max_value=0.1, allow_nan=False),
        draws=st.lists(
            st.tuples(noise_draw, noise_draw, noise_draw, noise_draw, noise_draw),
            min_size=8,
            max_size=8,
        ),
    )
    def test_matches_scalar_lane_by_lane(self, data, dt, draws):
        n = len(data)
        cols = list(zip(*data))
        present = np.array(cols[0])
        gap = np.array(cols[1])
        rel = np.array(cols[2])
        dr = np.array(cols[3])
        dl = np.array(cols[4])
        k_road = np.array(cols[5])
        offset = np.array(cols[6])
        psi = np.array(cols[7])
        ff = np.array(cols[8])
        noise = np.array(draws[:n])
        # Heterogeneous per-lane params exercise the broadcasting paths.
        det = np.full(n, 120.0)
        blind = np.full(n, 2.0)
        cg = np.full(n, 0.0010)
        hg = np.full(n, 0.05)
        ff_lag = np.full(n, 0.25)
        rdn = np.full(n, 0.15)
        rsn = np.full(n, 0.05)
        lnn = np.full(n, 0.02)
        cvn = np.full(n, 2.0e-5)
        kmax = np.full(n, 0.13)

        out = perception_head_arrays(
            dt, present, gap, rel, noise, dr, dl, k_road, offset, psi, ff,
            det, blind, cg, hg, ff_lag, rdn, rsn, lnn, cvn, kmax,
        )
        for i in range(n):
            params = (
                120.0, 2.0, 0.0010, 0.05, 0.25, 0.15, 0.05, 0.02,
                2.0e-5, 0.13, noise[i],
            )
            expected = _scalar_perception(dt, data[i], params)
            got = tuple(np.asarray(head)[i] for head in out)
            assert bool(got[0]) == expected[0], f"lane {i}: valid"
            for k in range(1, 7):
                # Bit-exact: repr-identical floats, signed zeros included.
                assert math.copysign(1.0, got[k]) == math.copysign(
                    1.0, expected[k]
                ) and got[k] == expected[k], (
                    f"lane {i} head {k}: {got[k]!r} != {expected[k]!r}"
                )


tracker_state = st.tuples(
    st.booleans(),  # valid
    st.floats(min_value=0.0, max_value=300.0, allow_nan=False),  # rd
    small,  # rs
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),  # time_since_seen
)
tracker_frame = st.tuples(
    st.booleans(),  # lead_valid
    st.floats(min_value=0.0, max_value=300.0, allow_nan=False),  # lead_rd
    small,  # lead_rs
)


class TestTrackerStepArrays:
    @settings(max_examples=200, deadline=None)
    @given(
        lanes=st.lists(
            st.tuples(tracker_state, tracker_frame), min_size=1, max_size=8
        ),
        dt=st.floats(min_value=1e-3, max_value=0.1, allow_nan=False),
        alpha=gain,
        beta=gain,
        coast=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    def test_matches_scalar_lane_by_lane(self, lanes, dt, alpha, beta, coast):
        from repro.adas.lead_tracker import tracker_step_arrays

        n = len(lanes)
        valid = np.array([s[0][0] for s in lanes])
        rd = np.array([s[0][1] for s in lanes])
        rs = np.array([s[0][2] for s in lanes])
        tss = np.array([s[0][3] for s in lanes])
        lv = np.array([s[1][0] for s in lanes])
        lrd = np.array([s[1][1] for s in lanes])
        lrs = np.array([s[1][2] for s in lanes])

        out = tracker_step_arrays(
            valid, rd, rs, tss, lv, lrd, lrs, dt,
            np.full(n, alpha), np.full(n, beta), np.full(n, coast),
        )

        for i, (state, frame) in enumerate(lanes):
            tracker = LeadTracker(alpha=alpha, beta=beta, coast_time=coast)
            tracker._valid = state[0]
            tracker._rd = state[1]
            tracker._rs = state[2]
            tracker._time_since_seen = state[3]
            tracker.update(
                PerceptionOutput(
                    lead_valid=frame[0],
                    lead_rd=frame[1],
                    lead_rs=frame[2],
                    lane_left=0.0,
                    lane_right=0.0,
                    desired_curvature=0.0,
                ),
                dt,
            )
            assert bool(out[0][i]) == tracker._valid, f"lane {i}: valid"
            assert out[1][i] == tracker._rd, f"lane {i}: rd"
            assert out[2][i] == tracker._rs, f"lane {i}: rs"
            assert out[3][i] == tracker._time_since_seen, f"lane {i}: tss"
