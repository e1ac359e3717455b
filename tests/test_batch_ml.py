"""BatchMitigation unit tests: lockstep Algorithm 1 vs the scalar controller.

The executor-level gate lives in ``tests/test_batch_executor.py``; these
tests pin the stage contract directly — per-step command/recovery output
and post-retire controller state must be bit-identical to driving the
scalar :class:`MitigationController` with the same feature stream,
including warm-up, activation, exit and the sliding window.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adas.controlsd import AdasCommand
from repro.ml.dataset import WINDOW
from repro.ml.lstm import LstmNetwork, _sigmoid
from repro.ml.mitigation import (
    MitigationController,
    MitigationFactory,
    MitigationParams,
)
from repro.ml.trainer import TrainedBaseline
from repro.sim.batch_ml import BatchMitigation, ml_batchable


def synthetic_baseline(seed=7, hidden=(8, 6)):
    """An untrained (but deterministic) baseline: predictions are
    arbitrary, which is exactly what the bit-identity contract needs —
    the CUSUM sees large deltas and exercises the recovery path."""
    return TrainedBaseline(
        network=LstmNetwork(
            input_size=6, hidden_sizes=hidden, output_size=2, seed=seed
        ),
        feature_mean=np.array([20.0, 60.0, 0.9, 0.9, 0.0, 0.0]),
        feature_std=np.array([5.0, 30.0, 0.5, 0.5, 1.0, 0.1]),
        target_mean=np.array([0.1, 0.0]),
        target_std=np.array([1.5, 0.05]),
    )


class _FakePlatform:
    def __init__(self, controller):
        self.ml_controller = controller


def _feature_stream(rng, steps):
    return [
        [
            float(15.0 + 10.0 * rng.random()),
            float(120.0 * rng.random()),
            float(rng.random()),
            float(rng.random()),
            float(rng.normal(0.0, 1.0)),
            float(rng.normal(0.0, 0.05)),
        ]
        for _ in range(steps)
    ]


class TestBatchMitigationEquivalence:
    def drive_pair(self, n_lanes, steps, baselines=None, params=None, seed=0):
        """Drive scalar controllers and a BatchMitigation on one stream."""
        params = params or MitigationParams(tau=0.5, bias=0.2)
        baselines = baselines or [synthetic_baseline()] * n_lanes
        scalar = [MitigationController(b, params) for b in baselines]
        batch_ctl = [MitigationController(b, params) for b in baselines]
        for lhs, rhs in zip(scalar, batch_ctl):
            assert lhs.baseline is rhs.baseline
        platforms = [_FakePlatform(c) for c in batch_ctl]
        batch = BatchMitigation(platforms, range(n_lanes))

        rng = np.random.default_rng(seed)
        streams = [_feature_stream(rng, steps) for _ in range(n_lanes)]
        y_ops = [
            [AdasCommand(float(rng.normal()), float(rng.normal(0.0, 0.1)))
             for _ in range(steps)]
            for _ in range(n_lanes)
        ]
        for t in range(steps):
            features = np.array([streams[i][t] for i in range(n_lanes)])
            y_a = np.array([y_ops[i][t].accel for i in range(n_lanes)])
            y_s = np.array([y_ops[i][t].steer for i in range(n_lanes)])
            rec, mla, mls = batch.step(tuple(range(n_lanes)), features, y_a, y_s)
            for i in range(n_lanes):
                cmd, r = scalar[i].step(streams[i][t], y_ops[i][t], 0.01)
                assert r == bool(rec[i]), (t, i)
                assert cmd.accel == mla[i], (t, i)
                assert cmd.steer == mls[i], (t, i)
        for lane in range(n_lanes):
            batch.retire(lane)
        for lhs, rhs in zip(scalar, batch_ctl):
            assert rhs._window == lhs._window
            assert rhs._s == lhs._s
            assert rhs.recovery == lhs.recovery
            assert rhs.activations == lhs.activations
        return scalar

    def test_single_lane_is_bit_identical(self):
        self.drive_pair(1, WINDOW + 40)

    def test_many_lanes_bit_identical_including_recovery(self):
        scalar = self.drive_pair(7, WINDOW + 120, seed=3)
        # The stream must actually exercise Algorithm 1's activation path,
        # or the equality above proves nothing about the CUSUM math.
        assert any(c.activations > 0 for c in scalar)

    def test_warm_up_shorter_than_window(self):
        self.drive_pair(3, WINDOW - 5)

    def test_mixed_baselines_group_per_network(self):
        baselines = [
            synthetic_baseline(seed=1),
            synthetic_baseline(seed=2),
            synthetic_baseline(seed=1, hidden=(16, 8)),
            synthetic_baseline(seed=2),
        ]
        self.drive_pair(4, WINDOW + 60, baselines=baselines, seed=11)

    def test_tie_breaking_params_bit_identical(self):
        # Thresholds sitting exactly on the comparison boundary: the
        # strict S > tau and inclusive delta <= bias branches must agree.
        params = MitigationParams(tau=0.0, bias=0.0)
        self.drive_pair(4, WINDOW + 30, params=params, seed=5)


class TestBatchMitigationInternals:
    def test_rejects_non_stock_controller(self):
        class Custom(MitigationController):
            pass

        class Constant:
            def predict(self, window):
                return np.zeros(2)

        class Network(LstmNetwork):
            pass

        subclassed = replace(synthetic_baseline(), network=Network(input_size=6))
        for ctl in (
            Custom(synthetic_baseline()),
            MitigationController(Constant()),
            MitigationController(subclassed),
        ):
            assert not ml_batchable(ctl)
            with pytest.raises(ValueError, match="stock MitigationController"):
                BatchMitigation([_FakePlatform(ctl)], [0])
        assert ml_batchable(MitigationController(synthetic_baseline()))

    def test_retire_ignores_non_ml_lane(self):
        baseline = synthetic_baseline()
        platforms = [
            _FakePlatform(MitigationController(baseline)),
            _FakePlatform(None),
        ]
        batch = BatchMitigation(platforms, [0])
        batch.retire(1)  # must not raise


#: The paper's 128-64 network and a tiny one, built once (weights only).
_NETS = {
    hidden: LstmNetwork(input_size=6, hidden_sizes=hidden, output_size=2, seed=5)
    for hidden in ((128, 64), (3, 2))
}

#: ``_sigmoid`` outputs at its +-30 input clip.
_CLIP_EDGES = _sigmoid(np.array([-30.0, 30.0]))


def _reaches_clip(net, x):
    """Whether some gate of ``x``'s forward saturates at the +-30 clip."""
    _, state = net.forward(x, keep_cache=True)
    return any(
        np.isin(cache[gate], _CLIP_EDGES).any()
        for cache in state[:-1]
        for gate in "ifo"
    )


class TestInferenceKernel:
    """The contract ``BatchMitigation`` relies on: the inference forward's
    rows do not depend on the batch width, and batch 1 keeps the training
    path's arithmetic, so serial numerics are unchanged."""

    @settings(max_examples=30, deadline=None)
    @given(
        width=st.integers(min_value=1, max_value=32),
        hidden=st.sampled_from(sorted(_NETS)),
        scale=st.sampled_from([0.5, 5.0, 500.0]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_rows_equal_batch_one_and_training_path(self, width, hidden, scale, seed):
        net = _NETS[hidden]
        x = np.random.default_rng(seed).normal(0.0, scale, (width, WINDOW, 6))
        if scale == 500.0:
            assert _reaches_clip(net, x)
        rows = net.forward(x)
        for i in range(width):
            one = net.forward(x[i : i + 1])
            assert rows[i : i + 1].tobytes() == one.tobytes(), i
            train = net.forward(x[i : i + 1], keep_cache=True)[0]
            assert one.tobytes() == train.tobytes(), i

    @pytest.mark.parametrize("width", [1, 3])
    def test_bits_do_not_depend_on_memory_layout(self, width):
        net = _NETS[(128, 64)]
        for seed in range(4):
            x = np.random.default_rng(seed).normal(0.0, 5.0, (width, WINDOW, 6))
            expected = net.forward(x).tobytes()
            assert net.forward(np.asfortranarray(x)).tobytes() == expected
            strided = np.repeat(x, 2, axis=0)[::2]
            assert net.forward(strided).tobytes() == expected
