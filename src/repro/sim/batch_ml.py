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
"""

from __future__ import annotations

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
        self.lanes = frozenset(lanes)
        n = len(self.platforms)
        for lane in lanes:
            ctl = self.platforms[lane].ml_controller
            if not ml_batchable(ctl):
                raise ValueError(
                    f"lane {lane}: BatchMitigation requires a stock "
                    f"MitigationController over a TrainedBaseline and an "
                    f"LstmNetwork, got {type(ctl).__name__}"
                )

        def arr(get) -> np.ndarray:
            out = np.zeros(n)
            for lane in lanes:
                out[lane] = float(get(self.platforms[lane].ml_controller))
            return out

        # Algorithm 1 constants, full width (non-ML entries unused).
        self._tau = arr(lambda c: c.params.tau)
        self._bias = arr(lambda c: c.params.bias)
        self._accel_w = arr(lambda c: c.params.accel_weight)
        self._steer_w = arr(lambda c: c.params.steer_weight)
        self._max_accel = arr(lambda c: c.params.max_accel)
        self._min_accel = arr(lambda c: c.params.min_accel)
        self._max_steer = arr(lambda c: c.params.max_steer)

        # Scaler rows per lane (broadcast elementwise — bit-exact).
        self._f_mean = np.zeros((n, _N_FEATURES))
        self._f_std = np.ones((n, _N_FEATURES))
        self._t_mean = np.zeros((n, 2))
        self._t_std = np.ones((n, 2))
        for lane in lanes:
            b = self.platforms[lane].ml_controller.baseline
            self._f_mean[lane] = np.asarray(b.feature_mean, dtype=np.float64)
            self._f_std[lane] = np.asarray(b.feature_std, dtype=np.float64)
            self._t_mean[lane] = np.asarray(b.target_mean, dtype=np.float64)
            self._t_std[lane] = np.asarray(b.target_std, dtype=np.float64)

        # Forward groups: lanes sharing one network batch one matmul.
        self._groups: List[Tuple[LstmNetwork, frozenset]] = []
        by_net: Dict[int, Tuple[LstmNetwork, List[int]]] = {}
        for lane in lanes:
            net = self.platforms[lane].ml_controller.baseline.network
            by_net.setdefault(id(net), (net, []))[1].append(lane)
        for net, members in by_net.values():
            self._groups.append((net, frozenset(members)))

        # Mutable Algorithm 1 state (the reset state; see class docstring).
        # The window is a slide-left ring: row WINDOW-1 is the newest
        # sample and rows [WINDOW-count:] hold the scalar list's contents
        # in order.
        self._window = np.zeros((n, WINDOW, _N_FEATURES))
        self._count = np.zeros(n, dtype=np.int64)
        self._s = np.zeros(n)
        self._recovery = np.zeros(n, dtype=bool)
        self._activations = np.zeros(n, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # One vectorized Algorithm 1 tick
    # ------------------------------------------------------------------ #

    def step(
        self,
        lanes: Tuple[int, ...],
        features: np.ndarray,
        y_accel: np.ndarray,
        y_steer: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One control cycle for the given ML lanes.

        Args:
            lanes: global lane ids (each must be in :attr:`lanes`).
            features: ``(len(lanes), len(FEATURE_NAMES))`` fault-free
                feature rows, in ``lanes`` order.
            y_accel / y_steer: the lanes' OP commands this cycle.

        Returns:
            ``(recovery, ml_accel, ml_steer)`` arrays over ``lanes``;
            warm-up lanes mirror the OP command with recovery False.
        """
        idx = np.asarray(lanes, dtype=np.intp)
        buf = self._window
        buf[idx, :-1] = buf[idx, 1:]
        buf[idx, -1] = features
        count = np.minimum(self._count[idx] + 1, WINDOW)
        self._count[idx] = count

        ml_accel = y_accel.copy()
        ml_steer = y_steer.copy()
        recovery = np.zeros(len(lanes), dtype=bool)
        full = count >= WINDOW
        if not full.any():
            return recovery, ml_accel, ml_steer
        fpos = np.nonzero(full)[0]
        flanes = idx[fpos]

        # predict(): normalise -> forward -> denormalise (all elementwise
        # except the forward, whose rows are exact by construction).
        x = (buf[flanes] - self._f_mean[flanes][:, None, :]) / self._f_std[
            flanes
        ][:, None, :]
        y = np.empty((len(flanes), 2))
        for net, members in self._groups:
            rows = np.nonzero(
                [lane in members for lane in flanes.tolist()]
            )[0]
            if rows.size:
                y[rows] = net.forward(x[rows])
        y = y * self._t_std[flanes] + self._t_mean[flanes]

        accel_ml = np_clamp(y[:, 0], self._min_accel[flanes], self._max_accel[flanes])
        steer_ml = np_clamp(
            y[:, 1], -self._max_steer[flanes], self._max_steer[flanes]
        )

        delta = self._accel_w[flanes] * np.abs(
            accel_ml - y_accel[fpos]
        ) + self._steer_w[flanes] * np.abs(steer_ml - y_steer[fpos])
        # max(0.0, v): Python max returns the *first* argument on ties, so
        # v == 0.0 and v == -0.0 both map to +0.0.
        grown = self._s[flanes] + delta - self._bias[flanes]
        s = np.where(grown > 0.0, grown, 0.0)

        rec = self._recovery[flanes]
        activate = ~rec & (s > self._tau[flanes])
        exit_ = rec & (delta <= self._bias[flanes])  # disjoint from activate
        self._recovery[flanes] = (rec | activate) & ~exit_
        self._s[flanes] = np.where(exit_, 0.0, s)
        self._activations[flanes] += activate

        ml_accel[fpos] = accel_ml
        ml_steer[fpos] = steer_ml
        recovery[fpos] = self._recovery[flanes]
        return recovery, ml_accel, ml_steer

    # ------------------------------------------------------------------ #
    # Retirement write-through
    # ------------------------------------------------------------------ #

    def retire(self, lane: int) -> None:
        """Write a finished lane's Algorithm 1 state back to its controller.

        After this the scalar :class:`MitigationController` looks exactly
        as if the serial path had run the episode (window contents, CUSUM
        accumulator, recovery flag and activation count included).
        """
        if lane not in self.lanes:
            return
        ctl = self.platforms[lane].ml_controller
        count = int(self._count[lane])
        ctl._window = [row.tolist() for row in self._window[lane, WINDOW - count :]]
        ctl._s = float(self._s[lane])
        ctl.recovery = bool(self._recovery[lane])
        ctl.activations = int(self._activations[lane])
