"""NumPy LSTM: stacked layers, forward pass, truncated BPTT.

Implements exactly what the baseline needs — a stacked LSTM encoder over a
fixed 20-step window with a linear regression head on the last hidden
state — with gradients derived by hand.  Batched matrix work is the only
place NumPy is worth its overhead in this project.

Two forward paths share the weights.  Inference, ``forward(x)``, is
cache-free and stacks every product as a ``(rows, 1, K) @ (K, N)``
matmul: NumPy makes per row the GEMV call a batch-1 product makes, so
row ``i`` is bit-identical to ``forward(x[i:i+1])`` on any BLAS build.
Training, ``forward(x, keep_cache=True)`` and ``loss_and_grads``, runs
row-batched GEMMs and keeps the caches backward needs.

Shapes: inputs are ``(batch, time, features)``; the head output is
``(batch, outputs)``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))


class LstmLayer:
    """One LSTM layer with standard gate order (i, f, g, o)."""

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator) -> None:
        if input_size < 1 or hidden_size < 1:
            raise ValueError("sizes must be positive")
        self.input_size = input_size
        self.hidden_size = hidden_size
        scale = 1.0 / np.sqrt(input_size + hidden_size)
        self.w_x = rng.uniform(-scale, scale, (input_size, 4 * hidden_size))
        self.w_h = rng.uniform(-scale, scale, (hidden_size, 4 * hidden_size))
        self.b = np.zeros(4 * hidden_size)
        # Forget-gate bias of 1.0: the classic trick for gradient flow.
        self.b[hidden_size : 2 * hidden_size] = 1.0

    def params(self) -> List[np.ndarray]:
        """Trainable arrays (shared references)."""
        return [self.w_x, self.w_h, self.b]

    def forward(
        self, x: np.ndarray
    ) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        """Run the layer over a window.

        Args:
            x: ``(batch, time, input_size)``.

        Returns:
            ``(hidden_states, cache)`` where hidden_states is
            ``(batch, time, hidden_size)`` and cache holds what backward
            needs.
        """
        batch, steps, _ = x.shape
        h = np.zeros((batch, self.hidden_size))
        c = np.zeros((batch, self.hidden_size))
        hs = np.zeros((batch, steps, self.hidden_size))
        gates_i = np.zeros((batch, steps, self.hidden_size))
        gates_f = np.zeros((batch, steps, self.hidden_size))
        gates_g = np.zeros((batch, steps, self.hidden_size))
        gates_o = np.zeros((batch, steps, self.hidden_size))
        cells = np.zeros((batch, steps, self.hidden_size))
        prev_cells = np.zeros((batch, steps, self.hidden_size))
        prev_hs = np.zeros((batch, steps, self.hidden_size))
        H = self.hidden_size
        for t in range(steps):
            prev_hs[:, t] = h
            prev_cells[:, t] = c
            z = x[:, t] @ self.w_x + h @ self.w_h + self.b
            i = _sigmoid(z[:, :H])
            f = _sigmoid(z[:, H : 2 * H])
            g = np.tanh(z[:, 2 * H : 3 * H])
            o = _sigmoid(z[:, 3 * H :])
            c = f * c + i * g
            h = o * np.tanh(c)
            hs[:, t] = h
            gates_i[:, t] = i
            gates_f[:, t] = f
            gates_g[:, t] = g
            gates_o[:, t] = o
            cells[:, t] = c
        cache = {
            "x": x,
            "hs": hs,
            "i": gates_i,
            "f": gates_f,
            "g": gates_g,
            "o": gates_o,
            "c": cells,
            "c_prev": prev_cells,
            "h_prev": prev_hs,
        }
        return hs, cache

    def backward(
        self, d_hs: np.ndarray, cache: Dict[str, np.ndarray]
    ) -> Tuple[np.ndarray, List[np.ndarray]]:
        """Backprop through time.

        Args:
            d_hs: gradient w.r.t. every hidden state ``(batch, time, H)``.
            cache: the forward cache.

        Returns:
            ``(d_x, grads)`` — gradient w.r.t. the inputs and the
            parameter gradients aligned with :meth:`params`.
        """
        x = cache["x"]
        batch, steps, _ = x.shape
        H = self.hidden_size
        d_wx = np.zeros_like(self.w_x)
        d_wh = np.zeros_like(self.w_h)
        d_b = np.zeros_like(self.b)
        d_x = np.zeros_like(x)
        d_h_next = np.zeros((batch, H))
        d_c_next = np.zeros((batch, H))
        for t in reversed(range(steps)):
            i = cache["i"][:, t]
            f = cache["f"][:, t]
            g = cache["g"][:, t]
            o = cache["o"][:, t]
            c = cache["c"][:, t]
            c_prev = cache["c_prev"][:, t]
            h_prev = cache["h_prev"][:, t]
            tanh_c = np.tanh(c)
            d_h = d_hs[:, t] + d_h_next
            d_o = d_h * tanh_c * o * (1 - o)
            d_c = d_h * o * (1 - tanh_c * tanh_c) + d_c_next
            d_i = d_c * g * i * (1 - i)
            d_f = d_c * c_prev * f * (1 - f)
            d_g = d_c * i * (1 - g * g)
            d_z = np.concatenate([d_i, d_f, d_g, d_o], axis=1)
            d_wx += x[:, t].T @ d_z
            d_wh += h_prev.T @ d_z
            d_b += d_z.sum(axis=0)
            d_x[:, t] = d_z @ self.w_x.T
            d_h_next = d_z @ self.w_h.T
            d_c_next = d_c * f
        return d_x, [d_wx, d_wh, d_b]

    def infer(self, x: np.ndarray) -> np.ndarray:
        """:meth:`forward` without the cache, one GEMV per row and product."""
        rows, steps, _ = x.shape
        H = self.hidden_size
        h = np.zeros((rows, 1, H))
        c = np.zeros((rows, 1, H))
        hs = np.empty((rows, steps, H))
        for t in range(steps):
            z = np.matmul(x[:, t : t + 1], self.w_x) + np.matmul(h, self.w_h) + self.b
            i = _sigmoid(z[..., :H])
            f = _sigmoid(z[..., H : 2 * H])
            g = np.tanh(z[..., 2 * H : 3 * H])
            o = _sigmoid(z[..., 3 * H :])
            c = f * c + i * g
            h = o * np.tanh(c)
            hs[:, t : t + 1] = h
        return hs


class LstmNetwork:
    """Stacked LSTM with a linear head on the final hidden state.

    Args:
        input_size: per-step feature count.
        hidden_sizes: stacked layer widths, e.g. ``(128, 64)`` — the
            paper's best configuration.
        output_size: regression targets (gas, steering -> 2).
        seed: weight-init seed.
    """

    def __init__(
        self,
        input_size: int,
        hidden_sizes: Tuple[int, ...] = (128, 64),
        output_size: int = 2,
        seed: int = 0,
    ) -> None:
        if not hidden_sizes:
            raise ValueError("need at least one hidden layer")
        rng = np.random.default_rng(seed)
        self.input_size = input_size
        self.hidden_sizes = tuple(hidden_sizes)
        self.output_size = output_size
        self.layers: List[LstmLayer] = []
        prev = input_size
        for width in hidden_sizes:
            self.layers.append(LstmLayer(prev, width, rng))
            prev = width
        scale = 1.0 / np.sqrt(prev)
        self.w_out = rng.uniform(-scale, scale, (prev, output_size))
        self.b_out = np.zeros(output_size)

    def params(self) -> List[np.ndarray]:
        """All trainable arrays (shared references)."""
        out: List[np.ndarray] = []
        for layer in self.layers:
            out.extend(layer.params())
        out.extend([self.w_out, self.b_out])
        return out

    def forward(
        self, x: np.ndarray, keep_cache: bool = False
    ) -> np.ndarray | Tuple[np.ndarray, list]:
        """Predict from ``(batch, time, input_size)``; ``keep_cache`` takes
        the training path and also returns the caches (module docstring)."""
        if x.ndim != 3 or x.shape[2] != self.input_size:
            raise ValueError(f"bad input shape {x.shape}")
        if not keep_cache:
            h = np.ascontiguousarray(x, dtype=np.float64)
            for layer in self.layers:
                h = layer.infer(h)
            return np.matmul(h[:, -1:], self.w_out)[:, 0] + self.b_out
        h = x
        caches = []
        for layer in self.layers:
            h, cache = layer.forward(h)
            caches.append(cache)
        y = h[:, -1] @ self.w_out + self.b_out
        return y, caches + [h]

    def loss_and_grads(
        self, x: np.ndarray, targets: np.ndarray
    ) -> Tuple[float, List[np.ndarray]]:
        """MSE loss and gradients for one batch."""
        y, state = self.forward(x, keep_cache=True)
        caches, last_h = state[:-1], state[-1]
        batch = x.shape[0]
        diff = y - targets
        loss = float(np.mean(diff * diff))
        d_y = 2.0 * diff / (batch * self.output_size)
        d_wout = last_h[:, -1].T @ d_y
        d_bout = d_y.sum(axis=0)
        d_hs = np.zeros_like(last_h)
        d_hs[:, -1] = d_y @ self.w_out.T
        grads_rev: List[np.ndarray] = []
        d = d_hs
        for layer, cache in zip(reversed(self.layers), reversed(caches)):
            d, layer_grads = layer.backward(d, cache)
            grads_rev = layer_grads + grads_rev
        return loss, grads_rev + [d_wout, d_bout]

    def predict_one(self, window: np.ndarray) -> np.ndarray:
        """Predict from a single ``(time, input_size)`` window."""
        return self.forward(window[None, :, :])[0]

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    def save(self, path: str) -> None:
        """Save weights + architecture to an .npz file."""
        arrays = {f"p{i}": p for i, p in enumerate(self.params())}
        np.savez(
            path,
            meta=np.array(
                [self.input_size, self.output_size, len(self.hidden_sizes)]
                + list(self.hidden_sizes)
            ),
            **arrays,
        )

    @classmethod
    def load(cls, path: str) -> "LstmNetwork":
        """Load a network saved with :meth:`save`."""
        data = np.load(path)
        meta = data["meta"].astype(int)
        input_size, output_size, n_layers = meta[0], meta[1], meta[2]
        hidden = tuple(meta[3 : 3 + n_layers])
        net = cls(input_size, hidden, output_size)
        for i, p in enumerate(net.params()):
            loaded = data[f"p{i}"]
            if loaded.shape != p.shape:
                raise ValueError(f"weight shape mismatch at p{i}")
            p[...] = loaded
        return net
