"""Training loop for the LSTM baseline, with on-disk caching.

The paper explored two-layer configurations 256-128, 256-64, 256-32,
128-64, 128-32 and 64-32 and selected **128-64**; adding a third layer did
not help.  ``TrainerConfig.hidden_sizes`` defaults accordingly and
:data:`EXPLORED_CONFIGS` records the full grid for the ablation bench.

Training a NumPy LSTM is the slowest single step of the whole pipeline, so
:func:`load_or_train_cached` persists the trained weights + scaler keyed by
a config hash under ``.ml_cache/``.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.ml.dataset import FEATURE_NAMES, TraceDataset, collect_fault_free_traces
from repro.ml.lstm import LstmNetwork
from repro.ml.optim import Adam

#: The hidden-size grid the paper explored (two-layer LSTMs).
EXPLORED_CONFIGS: Tuple[Tuple[int, int], ...] = (
    (256, 128),
    (256, 64),
    (256, 32),
    (128, 64),
    (128, 32),
    (64, 32),
)


@dataclass(frozen=True)
class TrainerConfig:
    """Training hyper-parameters.

    Attributes:
        hidden_sizes: stacked LSTM widths (paper's best: 128-64).
        epochs: passes over the window set.
        batch_size: mini-batch size.
        lr: Adam learning rate.
        stride: window sampling stride (larger = fewer windows = faster).
        seed: init/shuffle seed.
    """

    hidden_sizes: Tuple[int, ...] = (128, 64)
    epochs: int = 4
    batch_size: int = 64
    lr: float = 2e-3
    stride: int = 8
    seed: int = 7


@dataclass
class TrainedBaseline:
    """A trained model plus its feature/target scalers."""

    network: LstmNetwork
    feature_mean: np.ndarray
    feature_std: np.ndarray
    target_mean: np.ndarray
    target_std: np.ndarray
    final_loss: float = float("nan")

    def predict(self, window: np.ndarray) -> np.ndarray:
        """Denormalised (accel, steer) prediction from a raw window."""
        x = (window - self.feature_mean) / self.feature_std
        y = self.network.predict_one(x)
        return y * self.target_std + self.target_mean

    def save(self, path: str) -> None:
        """Persist weights + scalers."""
        self.network.save(path + ".weights.npz")
        np.savez(
            path + ".scaler.npz",
            feature_mean=self.feature_mean,
            feature_std=self.feature_std,
            target_mean=self.target_mean,
            target_std=self.target_std,
            final_loss=np.array([self.final_loss]),
        )

    @classmethod
    def load(cls, path: str) -> "TrainedBaseline":
        """Load a baseline persisted with :meth:`save`."""
        network = LstmNetwork.load(path + ".weights.npz")
        data = np.load(path + ".scaler.npz")
        return cls(
            network=network,
            feature_mean=data["feature_mean"],
            feature_std=data["feature_std"],
            target_mean=data["target_mean"],
            target_std=data["target_std"],
            final_loss=float(data["final_loss"][0]),
        )


def train_baseline(
    config: TrainerConfig = TrainerConfig(),
    dataset: Optional[TraceDataset] = None,
    log: Optional[callable] = None,
) -> TrainedBaseline:
    """Collect traces (if needed), train, and return the baseline."""
    if dataset is None:
        traces = collect_fault_free_traces()
        dataset = TraceDataset(traces, stride=config.stride)
    network = LstmNetwork(
        input_size=len(FEATURE_NAMES),
        hidden_sizes=config.hidden_sizes,
        output_size=2,
        seed=config.seed,
    )
    optimiser = Adam(network.params(), lr=config.lr)
    rng = np.random.default_rng(config.seed)
    loss = float("nan")
    for epoch in range(config.epochs):
        losses: List[float] = []
        for x, y in dataset.batches(config.batch_size, rng):
            loss, grads = network.loss_and_grads(x, y)
            optimiser.step(grads)
            losses.append(loss)
        loss = float(np.mean(losses))
        if log is not None:
            log(f"epoch {epoch + 1}/{config.epochs}: loss={loss:.5f}")
    return TrainedBaseline(
        network=network,
        feature_mean=dataset.feature_mean,
        feature_std=dataset.feature_std,
        target_mean=dataset.target_mean,
        target_std=dataset.target_std,
        final_loss=loss,
    )


def _config_key(config: TrainerConfig) -> str:
    text = repr(config)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_or_train_cached(
    config: TrainerConfig = TrainerConfig(),
    cache_dir: str = ".ml_cache",
    log: Optional[callable] = None,
) -> TrainedBaseline:
    """Return a trained baseline, reusing an on-disk cache when present."""
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, f"baseline-{_config_key(config)}")
    if os.path.exists(path + ".weights.npz"):
        return TrainedBaseline.load(path)
    baseline = train_baseline(config, log=log)
    baseline.save(path)
    return baseline
