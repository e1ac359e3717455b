"""Vectorized ML mitigation arm: N lanes' Algorithm 1 in lockstep.

:class:`BatchMitigation` is the batch twin of
:class:`repro.ml.mitigation.MitigationController`: per lockstep tick it
maintains every ML lane's feature window in one ``(n, WINDOW, features)``
array, normalises the full-window lanes elementwise, runs each LSTM
**once per step over all its stacked windows** and vectorizes the
CUSUM/threshold bookkeeping lane-wide.  At :meth:`retire` the lane's
window/CUSUM state is written through to the scalar controller object,
so post-episode inspection sees exactly what the serial path would have
left behind.

Bit-exactness contract (same gate as :mod:`repro.sim.batch_control`):

* **Elementwise stages are trivially exact.**  Window normalisation,
  denormalisation, clamping, the delta/CUSUM update and the strict
  ``S > tau`` / inclusive ``delta <= bias`` threshold branches are all
  IEEE-754 elementwise ops replicated with scalar branch semantics
  (``np.where`` preserving operand order and signed zeros).
* **The batched forward is row-exact by construction.**  The inference
  ``LstmNetwork.forward`` stacks rows as ``(rows, 1, K)`` matmul
  operands, so each row gets the GEMV call the scalar ``predict_one``
  makes, on any BLAS build (see :mod:`repro.ml.lstm`).  Only the stock
  classes promise that, so :func:`ml_batchable` admits a lane only when
  controller, baseline and network are exactly ``MitigationController``,
  ``TrainedBaseline`` and ``LstmNetwork``; any other ML lane stays out of
  the lockstep (:func:`repro.sim.batch_control.lockstep_refusal`) and
  runs on the scalar loop.
* **Warm-up mirrors the scalar path.**  Lanes with fewer than ``WINDOW``
  samples return the OP command with recovery False and touch no CUSUM
  state (see ``tests/test_ml.py::TestAlgorithm1EdgeSemantics``).

Campaigns can mix ML arms (distinct factories → distinct weights), so
lanes are grouped by baseline identity and each group batches its own
forward; the CUSUM bookkeeping stays lane-wide across groups.

The state is packed like every lockstep array (see
:class:`repro.sim.batch_state.LaneRegistry`): one row per active lane,
ML or not, so the control stack hands over whole-width feature rows and
one compaction keeps this state aligned with the rest.  A non-ML row
keeps a window nobody reads and never joins a forward.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.ml.dataset import FEATURE_NAMES, WINDOW
from repro.ml.lstm import LstmNetwork
from repro.ml.mitigation import MitigationController
from repro.ml.trainer import TrainedBaseline
from repro.utils.npmath import np_clamp

_N_FEATURES = len(FEATURE_NAMES)


def ml_batchable(ctl: object) -> bool:
    """Whether :class:`BatchMitigation` replicates ``ctl`` bit for bit:
    exact stock types only, since a subclass or a duck-typed baseline may
    compute anything."""
    return (
        type(ctl) is MitigationController
        and type(ctl.baseline) is TrainedBaseline
        and type(ctl.baseline.network) is LstmNetwork
    )


class BatchMitigation:
    """Lockstep Algorithm 1 over the ML lanes of one batch.

    Args:
        platforms: the batch's per-episode platforms, in lane order.
        lanes: global lane ids whose ``ml_controller`` satisfies
            :func:`ml_batchable` (the lockstep admits no other).

    The per-lane state is initialised to the *reset* state (empty window,
    zero CUSUM) — the executor's ``_begin_episode`` resets the scalar
    controllers before the first tick, so both representations start
    identical.
    """

    def __init__(self, platforms: Sequence, lanes: Sequence[int]) -> None:
        self.platforms = list(platforms)
        n = len(self.platforms)
        for lane in lanes:
            ctl = self.platforms[lane].ml_controller
            if not ml_batchable(ctl):
                raise ValueError(
                    f"lane {lane}: BatchMitigation requires a stock "
                    f"MitigationController over a TrainedBaseline and an "
                    f"LstmNetwork, got {type(ctl).__name__}"
                )

        #: Forward groups: lanes sharing one network batch one matmul.
        self._nets: List[LstmNetwork] = []
        by_net: Dict[int, int] = {}

        #: This class's lane-axis arrays.  ``group`` indexes
        #: :attr:`_nets` (-1 on a non-ML row); the Algorithm 1 constants
        #: and scaler rows are meaningful on ML rows only.  The window is
        #: a slide-left ring: row WINDOW-1 is the newest sample and rows
        #: [WINDOW-count:] hold the scalar list's contents in order.
        a = self.arrays = SimpleNamespace(
            group=np.full(n, -1, dtype=np.int64),
            tau=np.zeros(n),
            bias=np.zeros(n),
            accel_w=np.zeros(n),
            steer_w=np.zeros(n),
            max_accel=np.zeros(n),
            min_accel=np.zeros(n),
            max_steer=np.zeros(n),
            f_mean=np.zeros((n, _N_FEATURES)),
            f_std=np.ones((n, _N_FEATURES)),
            t_mean=np.zeros((n, 2)),
            t_std=np.ones((n, 2)),
            window=np.zeros((n, WINDOW, _N_FEATURES)),
            count=np.zeros(n, dtype=np.int64),
            s=np.zeros(n),
            recovery=np.zeros(n, dtype=bool),
            activations=np.zeros(n, dtype=np.int64),
        )
        for lane in lanes:
            ctl = self.platforms[lane].ml_controller
            params, b = ctl.params, ctl.baseline
            net = b.network
            if id(net) not in by_net:
                by_net[id(net)] = len(self._nets)
                self._nets.append(net)
            a.group[lane] = by_net[id(net)]
            a.tau[lane] = params.tau
            a.bias[lane] = params.bias
            a.accel_w[lane] = params.accel_weight
            a.steer_w[lane] = params.steer_weight
            a.max_accel[lane] = params.max_accel
            a.min_accel[lane] = params.min_accel
            a.max_steer[lane] = params.max_steer
            # Scaler rows per lane (broadcast elementwise — bit-exact).
            a.f_mean[lane] = np.asarray(b.feature_mean, dtype=np.float64)
            a.f_std[lane] = np.asarray(b.feature_std, dtype=np.float64)
            a.t_mean[lane] = np.asarray(b.target_mean, dtype=np.float64)
            a.t_std[lane] = np.asarray(b.target_std, dtype=np.float64)

    # ------------------------------------------------------------------ #
    # One vectorized Algorithm 1 tick
    # ------------------------------------------------------------------ #

    def step(
        self,
        features: np.ndarray,
        y_accel: np.ndarray,
        y_steer: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One control cycle for every active lane.

        Args:
            features: ``(rows, len(FEATURE_NAMES))`` fault-free feature
                rows, one per packed row.
            y_accel / y_steer: the rows' OP commands this cycle.

        Returns:
            ``(recovery, ml_accel, ml_steer)`` per row; warm-up and
            non-ML rows mirror the OP command with recovery False.
        """
        a = self.arrays
        buf = a.window
        buf[:, :-1] = buf[:, 1:]
        buf[:, -1] = features
        a.count = np.minimum(a.count + 1, WINDOW)

        ml_accel = y_accel.copy()
        ml_steer = y_steer.copy()
        recovery = np.zeros(len(features), dtype=bool)
        full = np.flatnonzero((a.count >= WINDOW) & (a.group >= 0))
        if not full.size:
            return recovery, ml_accel, ml_steer

        # predict(): normalise -> forward -> denormalise (all elementwise
        # except the forward, whose rows are exact by construction).
        x = (buf[full] - a.f_mean[full][:, None, :]) / a.f_std[full][:, None, :]
        y = np.empty((len(full), 2))
        group = a.group[full]
        for g, net in enumerate(self._nets):
            rows = np.flatnonzero(group == g)
            if rows.size:
                y[rows] = net.forward(x[rows])
        y = y * a.t_std[full] + a.t_mean[full]

        accel_ml = np_clamp(y[:, 0], a.min_accel[full], a.max_accel[full])
        steer_ml = np_clamp(y[:, 1], -a.max_steer[full], a.max_steer[full])

        delta = a.accel_w[full] * np.abs(
            accel_ml - y_accel[full]
        ) + a.steer_w[full] * np.abs(steer_ml - y_steer[full])
        # max(0.0, v): Python max returns the *first* argument on ties, so
        # v == 0.0 and v == -0.0 both map to +0.0.
        grown = a.s[full] + delta - a.bias[full]
        s = np.where(grown > 0.0, grown, 0.0)

        rec = a.recovery[full]
        activate = ~rec & (s > a.tau[full])
        exit_ = rec & (delta <= a.bias[full])  # disjoint from activate
        a.recovery[full] = (rec | activate) & ~exit_
        a.s[full] = np.where(exit_, 0.0, s)
        a.activations[full] += activate

        ml_accel[full] = accel_ml
        ml_steer[full] = steer_ml
        recovery[full] = a.recovery[full]
        return recovery, ml_accel, ml_steer

    # ------------------------------------------------------------------ #
    # Retirement write-through
    # ------------------------------------------------------------------ #

    def retire(self, row: int, lane: int) -> None:
        """Write lane ``lane``'s Algorithm 1 state, at packed row ``row``,
        back to its controller; a non-ML row has none.

        After this the scalar :class:`MitigationController` looks exactly
        as if the serial path had run the episode (window contents, CUSUM
        accumulator, recovery flag and activation count included).
        """
        a = self.arrays
        if a.group[row] < 0:
            return
        ctl = self.platforms[lane].ml_controller
        count = int(a.count[row])
        ctl._window = [r.tolist() for r in a.window[row, WINDOW - count :]]
        ctl._s = float(a.s[row])
        ctl.recovery = bool(a.recovery[row])
        ctl.activations = int(a.activations[row])
