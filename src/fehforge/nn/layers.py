"""Feed-forward building blocks with exact backprop.

Conventions:
  - sequence tensors are (batch, timesteps, channels), float64
  - masks are boolean (batch, timesteps); True marks a valid step
  - after forward(), `mask_out` holds the mask seen by the next layer
  - a layer instance must not be used concurrently from multiple threads

Mode contract of the conv stack (Conv1D, BatchNorm1D, ReLU, MaxPool1D,
GlobalAveragePool, the residual blocks of `model`): a training=False forward
keeps no backward cache; backward() needs a training=True forward and raises
RuntimeError after an inference one. Dense and Dropout cache in both modes.
"""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import DegenerateBatch, InvalidRate, ShapeMismatch


def glorot_uniform(rng, shape, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class Layer:
    """Base class. Leaves hold `params`/`grads`/`reg`; composites override
    `children()`."""

    def __init__(self):
        self.params = {}
        self.grads = {}
        self.reg = {}        # param name -> (l1, l2)
        self.mask_out = None
        self._cache = None   # set by a training forward, read by backward

    def children(self):
        return []

    def param_count(self):
        n = sum(int(np.prod(p.shape)) for p in self.params.values())
        return n + sum(c.param_count() for _, c in self.children())

    def forward(self, x, mask=None, training=False):
        raise NotImplementedError

    def backward(self, dy):
        raise NotImplementedError

    def _saved(self):
        if self._cache is None:
            raise RuntimeError(f"{type(self).__name__}.backward needs a forward "
                               f"with training=True first")
        return self._cache


class Dense(Layer):
    """y = x W + b on (batch, features) inputs."""

    def __init__(self, in_dim, units, rng, l1=0.0, l2=0.0):
        super().__init__()
        self.params["W"] = glorot_uniform(rng, (in_dim, units), in_dim, units)
        self.params["b"] = np.zeros(units)
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        if l1 or l2:
            self.reg["W"] = (l1, l2)

    def forward(self, x, mask=None, training=False):
        if x.ndim != 2 or x.shape[1] != self.params["W"].shape[0]:
            raise ShapeMismatch(
                f"dense expects (batch, {self.params['W'].shape[0]}), got {x.shape}")
        self._x = x
        self.mask_out = None
        return x @ self.params["W"] + self.params["b"]

    def backward(self, dy):
        self.grads["W"] += self._x.T @ dy
        self.grads["b"] += dy.sum(axis=0)
        return dy @ self.params["W"].T


class Conv1D(Layer):
    """Temporal convolution, stride 1, same padding; preserves length.

    1x1 kernels and inputs of at most 4 channels (the 2-channel first
    layers) run as one im2col GEMM on (batch * T, k * in_channels) columns;
    wider inputs loop over the k taps, faster there than copying x k times.
    """

    def __init__(self, in_channels, filters, kernel_size, rng,
                 use_bias=True, l1=0.0, l2=0.0):
        super().__init__()
        k = kernel_size
        self.kernel_size = k
        self.pad_left = (k - 1) // 2
        self.pad_right = k - 1 - self.pad_left
        self.use_bias = use_bias
        self.im2col = k == 1 or in_channels <= 4
        self.params["W"] = glorot_uniform(
            rng, (k, in_channels, filters), k * in_channels, k * filters)
        if use_bias:
            self.params["b"] = np.zeros(filters)
        self.grads = {k_: np.zeros_like(v) for k_, v in self.params.items()}
        if l1 or l2:
            self.reg["W"] = (l1, l2)

    def forward(self, x, mask=None, training=False):
        W = self.params["W"]
        if x.ndim != 3 or x.shape[2] != W.shape[1]:
            raise ShapeMismatch(
                f"conv1d expects (batch, T, {W.shape[1]}), got {x.shape}")
        B, T, _ = x.shape
        src = x if self.kernel_size == 1 else np.pad(
            x, ((0, 0), (self.pad_left, self.pad_right), (0, 0)))
        if self.im2col:
            src = sliding_window_view(src, T, axis=1).transpose(0, 3, 1, 2).reshape(B * T, -1)
            y = (src @ W.reshape(-1, W.shape[2])).reshape(B, T, -1)
        else:
            y = src[:, :T] @ W[0]
            for j in range(1, self.kernel_size):
                y += src[:, j:j + T] @ W[j]
        if self.use_bias:
            y += self.params["b"]
        self._cache = (src, T) if training else None
        self.mask_out = mask
        return y

    def backward(self, dy):
        src, T = self._saved()
        W = self.params["W"]
        k, cin, cout = W.shape
        flat_dy = dy.reshape(-1, cout)
        if self.use_bias:
            self.grads["b"] += dy.sum(axis=(0, 1))
        if self.im2col:
            self.grads["W"] += (src.T @ flat_dy).reshape(W.shape)
            if k == 1:
                return dy @ W[0].T
            dxp = np.zeros((len(dy), T + k - 1, cin))
        else:
            dxp = np.zeros_like(src)
            for j in range(k):
                self.grads["W"][j] += src[:, j:j + T].reshape(-1, cin).T @ flat_dy
        for j in range(k):
            dxp[:, j:j + T] += dy @ W[j].T
        return dxp[:, self.pad_left:self.pad_left + T]


class BatchNorm1D(Layer):
    """Per-channel batch normalization over (batch, time).

    Training mode normalizes with batch statistics and updates running
    stats; inference mode is one scale and shift from the running stats.
    """

    def __init__(self, channels, momentum=0.99, eps=1e-5):
        super().__init__()
        self.momentum = momentum
        self.eps = eps
        self.params["gamma"] = np.ones(channels)
        self.params["beta"] = np.zeros(channels)
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)

    def forward(self, x, mask=None, training=False):
        self.mask_out = mask
        scale, shift = self.params["gamma"], self.params["beta"]
        if training:
            if x.shape[0] < 2:
                raise DegenerateBatch("batch norm needs batch >= 2 in training")
            axes = tuple(range(x.ndim - 1))
            mu = x.mean(axis=axes)
            x = x - mu                    # centred once, scaled in place to xhat
            var = (x * x).sum(axis=axes) / (x.size // x.shape[-1])
            self.running_mean = self.momentum * self.running_mean + (1 - self.momentum) * mu
            self.running_var = self.momentum * self.running_var + (1 - self.momentum) * var
            ivar = 1.0 / np.sqrt(var + self.eps)
            x *= ivar
            self._cache = (x, ivar)
        else:
            self._cache = None
            scale = scale / np.sqrt(self.running_var + self.eps)
            shift = shift - self.running_mean * scale
        y = x * scale
        y += shift
        return y

    def backward(self, dy):
        xhat, ivar = self._saved()
        axes = tuple(range(dy.ndim - 1))
        n = dy.size // dy.shape[-1]
        sum_dy, sum_dy_xhat = dy.sum(axis=axes), (dy * xhat).sum(axis=axes)
        self.grads["gamma"] += sum_dy_xhat
        self.grads["beta"] += sum_dy
        # fused batch-norm backward through the batch statistics:
        # gamma * ivar * (dy - mean(dy) - xhat * mean(dy * xhat))
        dx = xhat * (sum_dy_xhat / n)
        dx += sum_dy / n
        np.subtract(dy, dx, out=dx)
        dx *= self.params["gamma"] * ivar
        return dx


class ReLU(Layer):
    """max(x, 0); NaN maps to 0 (-0.0 may stay -0.0)."""

    def forward(self, x, mask=None, training=False):
        self.mask_out = mask
        y = np.fmax(0.0, x)      # fmax ignores NaN
        self._cache = y > 0 if training else None
        return y

    def backward(self, dy):
        return dy * self._saved()


class Dropout(Layer):
    """Inverted dropout: scales kept activations by 1/(1-rate) in training,
    identity at inference."""

    def __init__(self, rate, rng=None):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise InvalidRate(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self.rng = rng if rng is not None else np.random.default_rng()

    def reseed(self, seed):
        self.rng = np.random.default_rng(seed)

    def forward(self, x, mask=None, training=False):
        self.mask_out = mask
        if not training or self.rate == 0.0:
            self._drop = None
            return x
        keep = self.rng.random(x.shape) >= self.rate
        self._drop = keep / (1.0 - self.rate)
        return x * self._drop

    def backward(self, dy):
        if self._drop is None:
            return dy
        return dy * self._drop


class MaxPool1D(Layer):
    """Temporal max pooling. `padding="valid"` (default) or `"same"`
    (output length equals ceil(T / stride)). NaN is never selected; a window
    with no number gives -inf. Ties send the gradient to the earliest tap."""

    def __init__(self, pool_size=2, stride=None, padding="valid"):
        super().__init__()
        if not 0 < pool_size < 128:     # tap indices are kept as int8
            raise ShapeMismatch(f"pool size must be in [1, 127], got {pool_size}")
        self.pool_size = pool_size
        self.stride = stride if stride is not None else pool_size
        self.padding = padding

    def forward(self, x, mask=None, training=False):
        B, T, C = x.shape
        w, s, same = self.pool_size, self.stride, self.padding == "same"
        t_out = -(-T // s) if same else (T - w) // s + 1
        total = max((t_out - 1) * s + w - T, 0) if same else 0
        if t_out < 1:
            raise ShapeMismatch(f"pooling window {w} larger than length {T}")
        xp = np.pad(x, ((0, 0), (total // 2, total - total // 2), (0, 0)),
                    constant_values=-np.inf) if total else x
        best = np.full((B, t_out, C), -np.inf)
        argj = np.zeros((B, t_out, C), dtype=np.int8) if training else None
        for j in range(w):
            cand = xp[:, j:j + s * t_out:s]
            if training:
                # the last tap to beat the running max is the first to attain it
                np.maximum(argj, (cand > best).view(np.int8) * np.int8(j), out=argj)
            np.fmax(best, cand, out=best)
        self._cache = (argj, xp.shape, total // 2, T) if training else None
        self.mask_out = None  # downstream of pooling all steps are treated valid
        return best

    def backward(self, dy):
        argj, xp_shape, pl, T = self._saved()
        s, t_out = self.stride, dy.shape[1]
        dxp = np.zeros(xp_shape)
        for j in range(self.pool_size):
            dxp[:, j:j + s * t_out:s] += dy * (argj == j)
        return dxp[:, pl:pl + T]


class GlobalAveragePool(Layer):
    """Average over valid timesteps: (B, T, C) -> (B, C)."""

    def forward(self, x, mask=None, training=False):
        self.mask_out = None
        m = None if mask is None else mask.astype(np.float64)[:, :, None]
        count = float(x.shape[1]) if m is None else m.sum(axis=1)  # (B, 1)
        self._cache = (m, count, x.shape) if training else None
        return (x if m is None else x * m).sum(axis=1) / count

    def backward(self, dy):
        m, count, shape = self._saved()
        g = (dy / count)[:, None, :]
        return np.broadcast_to(g, shape).copy() if m is None else g * m
