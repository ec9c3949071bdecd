"""Feed-forward building blocks with exact backprop.

Conventions:
  - sequence tensors are (batch, timesteps, channels); a layer computes in
    its parameters' dtype (`astype` sets it; float64 as built), and a
    parameter-free layer in its input's: every array it allocates takes
    that dtype, so nothing is silently upcast
  - masks are boolean (batch, timesteps); True marks a valid step
  - a layer instance must not be used concurrently from multiple threads

The mask rule: a layer reads the mask it is given and sets none, and it
may take its input to be 0 at padded steps. `Sequential` owns the rest.
While a layer's output keeps the (batch, timesteps) axes of its input,
`Sequential` hands the layer's mask on to the next layer; after a pool
that shortens T it hands on the pool's `valid_windows(mask)`; once the
output has no time axis (a global pool, a recurrent layer that returns its
last state, a dense layer) it hands on None. Where the mask has padded
steps, it sets them to 0 in each layer's output and in the gradient going
back into the layer, so a conv bias or a batch-norm shift written there
reaches no other step. `Model` zeroes its input and turns a mask with no
padded step into None, the unmasked path.

The cache rule, for every layer: a training=True forward keeps its backward
cache in `_cache`, and backward() reads it through `_saved()`; a
training=False forward keeps none, so backward() after it raises
RuntimeError.
"""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.fft import irfft, next_fast_len, rfft
from scipy.linalg.blas import get_blas_funcs

from ..errors import DegenerateBatch, InvalidRate, ShapeMismatch


def glorot_uniform(rng, shape, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class Layer:
    """Base class. Leaves hold `params`/`grads`/`reg`, and `buffers`, the
    state that is saved but not trained; composites override `children()`."""

    def __init__(self):
        self.params = {}
        self.grads = {}
        self.buffers = {}
        self.reg = {}        # param name -> (l1, l2)
        self._cache = None   # set by a training forward, read by backward

    def children(self):
        return []

    def astype(self, dtype):
        """Cast the parameters, gradients and buffers of this layer and its
        children to `dtype`, in place (no copy where they have it already);
        self."""
        for arrays in (self.params, self.grads, self.buffers):
            for key, arr in arrays.items():
                arrays[key] = arr.astype(dtype, copy=False)
        for _, child in self.children():
            child.astype(dtype)
        return self

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


def _colsum(x, y=None):
    """x.sum() or (x * y).sum() over every axis but the last, bit for bit
    (row after row; for 2 columns or more) and with no product temporary."""
    axes = list(range(x.ndim))
    operands = (x, axes) if y is None else (x, axes, y, axes)
    return np.einsum(*operands, axes[-1:])


def _flat_rows(a, P, lead, tail, dtype):
    """(B, T, C) `a` as B rows of P steps back to back, each row's T steps
    `lead` steps in, then `tail` steps: (B * P + tail, C), zero elsewhere."""
    B, T, C = a.shape
    flat = np.zeros((B * P + tail, C), dtype=dtype)
    flat[:B * P].reshape(B, P, C)[:, lead:lead + T] = a
    return flat


class Dense(Layer):
    """y = x W + b on (batch, features) inputs."""

    def __init__(self, in_dim, units, rng):
        super().__init__()
        self.params["W"] = glorot_uniform(rng, (in_dim, units), in_dim, units)
        self.params["b"] = np.zeros(units)
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}

    def forward(self, x, mask=None, training=False):
        if x.ndim != 2 or x.shape[1] != self.params["W"].shape[0]:
            raise ShapeMismatch(
                f"dense expects (batch, {self.params['W'].shape[0]}), got {x.shape}")
        self._cache = x if training else None
        return x @ self.params["W"] + self.params["b"]

    def backward(self, dy):
        self.grads["W"] += self._saved().T @ dy
        self.grads["b"] += dy.sum(axis=0)
        return dy @ self.params["W"].T


def _block_spectra(blocks, n):
    """The rfft over the steps of (batch, blocks, steps, channels), zero-filled
    to n steps, frequency-major: (n // 2 + 1, batch * blocks, channels)."""
    spec = rfft(blocks, n, axis=2)
    return spec.reshape(-1, *spec.shape[2:]).swapaxes(0, 1)


def _freq_matmul(a, b):
    """a @ b at each frequency of frequency-major (f, p, q) and (f, q, r)
    stacks, laid out (p, f, r) so that an FFT over axis 1 reads short
    strides."""
    out = np.empty((a.shape[1], a.shape[0], b.shape[2]), dtype=np.result_type(a, b))
    np.matmul(a, b, out=out.swapaxes(0, 1))
    return out


class Conv1D(Layer):
    """Temporal convolution, stride 1, same padding; preserves length.

    The path is picked at construction from the shape alone:
      - im2col for 1x1 kernels and inputs of at most 4 channels (the
        2-channel first layers): one GEMM on (batch * T, k * in_channels)
        columns;
      - overlap-save FFT blocks for kernels of 16 taps or more (inception's
        k20 and k40 branches): far fewer multiply-adds than the tap loop;
      - otherwise a loop over the k taps, faster there than copying x k
        times. The rows' padded inputs (P = T + k - 1 steps each) lie back
        to back, so tap j of every output is one block of B * P rows and
        one in-place BLAS GEMM. An output row's last k - 1 steps read into
        the next row and are dropped; backward gives them dy = 0 and the
        pad rows are 0, so neither reaches a gradient. On 2 channels im2col
        wins: (32, 119, 2->128) k8 ran 1.33 ms f+b, flat 3.85 (float32).
    The FFT length n = next_fast_len(4k) is fixed by the kernel, never by T
    or the batch. Each output block of L = n - k + 1 steps comes from its
    own window of n padded input steps, so padded steps appended to the
    input only add blocks and change no bit of the earlier ones: no
    prediction depends on the padded length. A T-sized FFT would round
    differently for every T.
    On the tap and FFT paths dx is the same convolution of dy with W
    flipped in time and transposed and the padding swapped, so one kernel
    serves both directions. im2col keeps its own backward: there dx through
    the tap kernel took 1.6 ms, not 0.5, at (32, 119, 2->128) k8 float32.
    """

    def __init__(self, in_channels, filters, kernel_size, rng, use_bias=True):
        super().__init__()
        k = kernel_size
        self.kernel_size = k
        self.pad_left = (k - 1) // 2
        self.pad_right = k - 1 - self.pad_left
        self.use_bias = use_bias
        self.path = ("im2col" if k == 1 or in_channels <= 4
                     else "fft" if k >= 16 else "taps")
        self.params["W"] = glorot_uniform(
            rng, (k, in_channels, filters), k * in_channels, k * filters)
        if use_bias:
            self.params["b"] = np.zeros(filters)
        self.grads = {k_: np.zeros_like(v) for k_, v in self.params.items()}

    def _blocks(self, T):
        """FFT length, block length and block count for T output steps."""
        n = next_fast_len(4 * self.kernel_size, real=True)
        L = n - self.kernel_size + 1
        return n, L, -(-T // L)

    def forward(self, x, mask=None, training=False):
        W = self.params["W"]
        if x.ndim != 3 or x.shape[2] != W.shape[1]:
            raise ShapeMismatch(
                f"conv1d expects (batch, T, {W.shape[1]}), got {x.shape}")
        B, T, _ = x.shape
        k = self.kernel_size
        if self.path == "im2col":
            src = x if k == 1 else np.pad(
                x, ((0, 0), (self.pad_left, self.pad_right), (0, 0)))
            src = sliding_window_view(src, T, axis=1).transpose(0, 3, 1, 2).reshape(B * T, -1)
            y = (src @ W.reshape(-1, W.shape[2])).reshape(B, T, -1)
        else:
            y, src = self._convolve(x, W, self.pad_left)
        if self.use_bias:
            y += self.params["b"]
        self._cache = (src, T) if training else None
        return y

    def _convolve(self, x, W, lead, xp=None):
        """y[t] = sum_j p[t + j] @ W[j] on the tap or FFT path, where p is
        (B, T, C) `x` with `lead` zero steps before it and k - 1 - lead after:
        (y, p in the path's layout). backward passes dy, W flipped in time
        and transposed, and the forward's p as `xp`; W's gradient, which
        reads both p's, is added on the way, so that the FFT path takes dy's
        window spectra once."""
        B, T, cin = x.shape
        k = self.kernel_size
        if self.path == "fft":
            n, L, nb = self._blocks(T)
            if xp is not None:
                # dW[j] is lag k - 1 - j of each L-step x block, zero-filled
                # to n, correlated with its n-step window of dy; x's spectra
                # are taken before dy's, so no more than two live at once
                blocks = xp[:, self.pad_left:self.pad_left + nb * L].reshape(B, nb, L, -1)
                x_spec = _block_spectra(blocks, n)
                np.conjugate(x_spec, out=x_spec)
            src = _flat_rows(x, nb * L + k - 1, lead, 0, W.dtype).reshape(B, -1, cin)
            # the spectra of src's n-step windows, L steps apart
            windows = sliding_window_view(src, n, axis=1)[:, ::L]
            spec = _block_spectra(windows.swapaxes(2, 3), n)
            if xp is not None:
                g = _freq_matmul(x_spec.swapaxes(1, 2), spec)
                del x_spec
                self.grads["W"] += irfft(g, n, axis=1)[:, k - 1::-1].swapaxes(0, 1)
                del g
            w_spec = _block_spectra(W.transpose(1, 0, 2)[None], n)
            np.conjugate(w_spec, out=w_spec)
            # each complex intermediate is freed once used: they set the peak
            spec = _freq_matmul(spec, w_spec)
            del w_spec
            z = irfft(spec, n, axis=1).reshape(B, nb, n, -1)
            del spec
            # the first L steps of each block, joined in one copy
            return z[:, :, :L].reshape(B, nb * L, -1)[:, :T], src
        P = T + k - 1
        src = _flat_rows(x, P, lead, k - 1, W.dtype)
        y = np.empty((B * P, W.shape[2]), dtype=W.dtype)
        gemm = get_blas_funcs("gemm", (W,))
        for j in range(k):
            # y (+)= src[j:j + B * P] @ W[j], in BLAS's column-major terms
            gemm(1.0, W[j].T, src[j:j + B * P].T, float(j > 0), y.T, overwrite_c=True)
            if xp is not None:
                self.grads["W"][j] += xp[j:j + B * P].T @ src[lead:lead + B * P]
        return y.reshape(B, P, -1)[:, :T], src

    def backward(self, dy):
        src, T = self._saved()
        W = self.params["W"]
        k, cin, cout = W.shape
        if self.use_bias:
            self.grads["b"] += _colsum(dy)
        if self.path != "im2col":
            return self._convolve(dy, W[::-1].swapaxes(1, 2), self.pad_right, src)[0]
        self.grads["W"] += (src.T @ dy.reshape(-1, cout)).reshape(W.shape)
        if k == 1:
            return dy @ W[0].T
        dxp = np.zeros((len(dy), T + k - 1, cin), dtype=dy.dtype)
        for j in range(k):
            dxp[:, j:j + T] += dy @ W[j].T
        return dxp[:, self.pad_left:self.pad_left + T]


class BatchNorm1D(Layer):
    """Per-channel batch normalization over (batch, time).

    Training mode normalizes with batch statistics and updates the running
    statistics, the buffers `running_mean` and `running_var`; inference
    mode is one scale and shift from the running statistics.
    Training needs two values per channel (batch x time >= 2), not two
    rows: like Keras, it normalizes a one-row batch over its steps. With a
    mask, the batch moments are taken over the valid steps only.
    """

    momentum = 0.99
    eps = 1e-5

    def __init__(self, channels):
        super().__init__()
        self.params["gamma"] = np.ones(channels)
        self.params["beta"] = np.zeros(channels)
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        self.buffers = {"running_mean": np.zeros(channels),
                        "running_var": np.ones(channels)}

    def forward(self, x, mask=None, training=False):
        scale, shift = self.params["gamma"], self.params["beta"]
        if training:
            # values per channel; padded steps hold 0, so add nothing to sums
            n = x.size // x.shape[-1] if mask is None else int(mask.sum())
            if n < 2:
                raise DegenerateBatch("batch norm needs batch x time >= 2 in training")
            mu = _colsum(x) / n
            x = x - mu                    # centred once, scaled in place to xhat
            if mask is not None:
                x[~mask] = 0.0
            var = _colsum(x, x) / n
            for key, moment in (("running_mean", mu), ("running_var", var)):
                self.buffers[key] = (self.momentum * self.buffers[key]
                                     + (1 - self.momentum) * moment)
            ivar = 1.0 / np.sqrt(var + self.eps)
            x *= ivar
            self._cache = (x, ivar, n)
        else:
            self._cache = None
            scale = scale / np.sqrt(self.buffers["running_var"] + self.eps)
            shift = shift - self.buffers["running_mean"] * scale
        y = x * scale
        y += shift
        return y

    def backward(self, dy):
        xhat, ivar, n = self._saved()
        sum_dy, sum_dy_xhat = _colsum(dy), _colsum(dy, xhat)
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
        y = np.fmax(0.0, x)      # fmax ignores NaN
        self._cache = y > 0 if training else None
        return y

    def backward(self, dy):
        return dy * self._saved()


class Dropout(Layer):
    """Inverted dropout: scales kept activations by 1/(1-rate) in training,
    identity at inference. With a mask, padded steps are dropped and only
    valid steps draw; Keras's `Dropout` draws over every step."""

    def __init__(self, rate):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise InvalidRate(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self.rng = np.random.default_rng()   # `Model.seed_dropout` seeds it

    def forward(self, x, mask=None, training=False):
        if not training or self.rate == 0.0:
            self._cache = 1.0 if training else None
            return x
        # the mask is drawn in C order whatever x's layout, and in float64
        # whatever x's dtype, so a float32 model drops what a float64 one
        # does; the scale and the output take x's (a recurrent layer hands
        # on a time-major view)
        if mask is None:
            keep = self.rng.random(x.shape) >= self.rate
        else:
            keep = np.zeros(x.shape, dtype=bool)
            keep[mask] = self.rng.random((int(mask.sum()), x.shape[-1])) >= self.rate
        self._cache = np.divide(keep, 1.0 - self.rate, out=np.empty_like(x))
        return x * self._cache

    def backward(self, dy):
        return dy * self._saved()


class MaxPool1D(Layer):
    """Temporal max pooling. `padding="valid"` (default) or `"same"`
    (output length equals ceil(T / stride)). NaN is never selected; a window
    with no number gives -inf. Ties send the gradient to the earliest tap.
    Padded steps are read as -inf, as the taps of "same" padding are."""

    def __init__(self, pool_size=2, stride=None, padding="valid"):
        super().__init__()
        if not 0 < pool_size < 128:     # tap indices are kept as int8
            raise ShapeMismatch(f"pool size must be in [1, 127], got {pool_size}")
        self.pool_size = pool_size
        self.stride = stride if stride is not None else pool_size
        self.padding = padding

    def _windows(self, T):
        """Output length and the left and right padding for T steps."""
        w, s = self.pool_size, self.stride
        t_out = -(-T // s) if self.padding == "same" else (T - w) // s + 1
        if t_out < 1:
            raise ShapeMismatch(f"pooling window {w} larger than length {T}")
        total = max((t_out - 1) * s + w - T, 0) if self.padding == "same" else 0
        return t_out, total // 2, total - total // 2

    def valid_windows(self, mask):
        """The output mask: a window is valid when all its taps are; taps
        of "same" padding count as valid."""
        _, pl, pr = self._windows(mask.shape[1])
        taps = np.pad(mask, ((0, 0), (pl, pr)), constant_values=True)
        return sliding_window_view(taps, self.pool_size, axis=1)[:, ::self.stride].all(axis=2)

    def forward(self, x, mask=None, training=False):
        B, T, C = x.shape
        w, s = self.pool_size, self.stride
        t_out, pl, pr = self._windows(T)
        xp = x
        if pl + pr or mask is not None:
            xp = np.full((B, pl + T + pr, C), -np.inf, dtype=x.dtype)
            xp[:, pl:pl + T] = x
            if mask is not None:
                xp[:, pl:pl + T][~mask] = -np.inf
        best = np.full((B, t_out, C), -np.inf, dtype=x.dtype)
        argj = np.zeros((B, t_out, C), dtype=np.int8) if training else None
        for j in range(w):
            cand = xp[:, j:j + s * t_out:s]
            if training:
                # the last tap to beat the running max is the first to attain it
                np.maximum(argj, (cand > best).view(np.int8) * np.int8(j), out=argj)
            np.fmax(best, cand, out=best)
        self._cache = (argj, xp.shape, pl, T) if training else None
        return best

    def backward(self, dy):
        argj, xp_shape, pl, T = self._saved()
        s, t_out = self.stride, dy.shape[1]
        dxp = np.zeros(xp_shape, dtype=dy.dtype)
        for j in range(self.pool_size):
            dxp[:, j:j + s * t_out:s] += dy * (argj == j)
        return dxp[:, pl:pl + T]


class GlobalAveragePool(Layer):
    """Average over valid timesteps: (B, T, C) -> (B, C)."""

    def forward(self, x, mask=None, training=False):
        m = None if mask is None else mask.astype(x.dtype)[:, :, None]
        count = float(x.shape[1]) if m is None else m.sum(axis=1)  # (B, 1)
        self._cache = (m, count, x.shape) if training else None
        return (x if m is None else x * m).sum(axis=1) / count

    def backward(self, dy):
        m, count, shape = self._saved()
        g = (dy / count)[:, None, :]
        return np.broadcast_to(g, shape).copy() if m is None else g * m
