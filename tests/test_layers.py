import numpy as np
import pytest

from fehforge.errors import (DegenerateBatch, InvalidRate, ShapeMismatch)
from fehforge.nn.layers import (BatchNorm1D, Conv1D, Dense, Dropout,
                                GlobalAveragePool, MaxPool1D, ReLU,
                                glorot_uniform)


def layer_grads(layer, x, mask=None, training=True, h=1e-6):
    """Analytic vs central-difference gradients for a single layer under
    the probe loss sum(out * R). Returns (worst_param_rel, input_rel)."""
    rng = np.random.default_rng(0)
    out = layer.forward(x, mask=mask, training=training)
    R = rng.normal(size=out.shape)

    for key in layer.grads:
        layer.grads[key][...] = 0.0
    dx = layer.backward(R)

    def loss():
        return float((layer.forward(x, mask=mask, training=training) * R).sum())

    rels = []
    for key, p in layer.params.items():
        flat = p.reshape(-1)
        g = layer.grads[key].reshape(-1)
        idx = rng.choice(flat.size, size=min(6, flat.size), replace=False)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + h
            hi = loss()
            flat[i] = orig - h
            lo = loss()
            flat[i] = orig
            num = (hi - lo) / (2 * h)
            rels.append(abs(g[i] - num) / max(abs(g[i]), abs(num), 1e-3))

    xflat = x.reshape(-1)
    dxflat = dx.reshape(-1)
    idx = rng.choice(xflat.size, size=min(8, xflat.size), replace=False)
    xrels = []
    for i in idx:
        orig = xflat[i]
        xflat[i] = orig + h
        hi = loss()
        xflat[i] = orig - h
        lo = loss()
        xflat[i] = orig
        num = (hi - lo) / (2 * h)
        xrels.append(abs(dxflat[i] - num) / max(abs(dxflat[i]), abs(num), 1e-3))
    return (max(rels) if rels else 0.0), max(xrels)


def test_glorot_uniform_bounds():
    rng = np.random.default_rng(0)
    W = glorot_uniform(rng, (200, 300), 200, 300)
    limit = np.sqrt(6.0 / 500)
    assert W.shape == (200, 300)
    assert np.abs(W).max() <= limit
    assert np.abs(W).max() > 0.9 * limit      # actually fills the range


def test_dense_forward_and_grads(rng):
    layer = Dense(4, 3, rng)
    x = rng.normal(size=(5, 4))
    out = layer.forward(x)
    np.testing.assert_allclose(out, x @ layer.params["W"] + layer.params["b"])
    p_rel, x_rel = layer_grads(layer, x)
    assert p_rel < 1e-7 and x_rel < 1e-7


def test_dense_rejects_bad_rank(rng):
    layer = Dense(4, 3, rng)
    with pytest.raises(ShapeMismatch):
        layer.forward(rng.normal(size=(2, 5, 4)))


def test_conv1d_same_padding_shapes(rng):
    for k in (1, 3, 8):
        layer = Conv1D(2, 5, k, rng)
        out = layer.forward(rng.normal(size=(3, 11, 2)))
        assert out.shape == (3, 11, 5)


def test_conv1d_matches_manual_convolution(rng):
    layer = Conv1D(1, 1, 3, rng)
    x = rng.normal(size=(1, 6, 1))
    out = layer.forward(x)
    W = layer.params["W"][:, 0, 0]
    b = layer.params["b"][0]
    xp = np.concatenate([[0.0], x[0, :, 0], [0.0]])
    expected = np.array([xp[t] * W[0] + xp[t + 1] * W[1] + xp[t + 2] * W[2]
                         for t in range(6)]) + b
    np.testing.assert_allclose(out[0, :, 0], expected, atol=1e-12)


@pytest.mark.parametrize("kernel", [1, 3, 8])
def test_conv1d_grads(rng, kernel):
    layer = Conv1D(2, 4, kernel, rng)
    p_rel, x_rel = layer_grads(layer, rng.normal(size=(3, 10, 2)))
    assert p_rel < 1e-6 and x_rel < 1e-6


def test_batchnorm_train_stats_and_grads(rng):
    layer = BatchNorm1D(3)
    x = rng.normal(2.0, 3.0, size=(4, 7, 3))
    out = layer.forward(x, training=True)
    flat = out.reshape(-1, 3)
    np.testing.assert_allclose(flat.mean(axis=0), 0.0, atol=1e-9)
    np.testing.assert_allclose(flat.std(axis=0), 1.0, atol=1e-3)
    p_rel, x_rel = layer_grads(layer, x, training=True)
    assert p_rel < 1e-6 and x_rel < 1e-6


def test_batchnorm_inference_uses_running_stats(rng):
    layer = BatchNorm1D(2, momentum=0.5)
    x = rng.normal(1.0, 2.0, size=(6, 5, 2))
    for _ in range(200):
        layer.forward(x, training=True)
    frozen = layer.forward(x, training=False)
    # after convergence of the running stats the two modes agree closely
    trained = layer.forward(x, training=True)
    np.testing.assert_allclose(frozen, trained, atol=1e-2)
    # inference is deterministic and batch-size independent
    np.testing.assert_allclose(layer.forward(x[:1], training=False),
                               frozen[:1], atol=1e-12)


def test_batchnorm_degenerate_batch(rng):
    layer = BatchNorm1D(2)
    with pytest.raises(DegenerateBatch):
        layer.forward(rng.normal(size=(1, 1, 2)), training=True)


def test_relu_forward_backward(rng):
    layer = ReLU()
    x = np.array([[-1.0, 0.0, 2.0]])
    np.testing.assert_array_equal(layer.forward(x, training=True), [[0.0, 0.0, 2.0]])
    dx = layer.backward(np.ones_like(x))
    np.testing.assert_array_equal(dx, [[0.0, 0.0, 1.0]])


def test_dropout_train_inference_and_scaling(rng):
    layer = Dropout(0.5)
    layer.reseed(7)
    x = np.ones((200, 10))
    out = layer.forward(x, training=True)
    kept = out != 0.0
    # inverted dropout: survivors are scaled by 1/(1-rate)
    np.testing.assert_allclose(out[kept], 2.0)
    assert 0.3 < kept.mean() < 0.7
    # backward routes gradients only through survivors
    dx = layer.backward(np.ones_like(x))
    np.testing.assert_allclose(dx[kept], 2.0)
    np.testing.assert_allclose(dx[~kept], 0.0)
    # inference mode is the identity
    np.testing.assert_array_equal(layer.forward(x, training=False), x)


def test_dropout_reseed_reproducible():
    x = np.ones((50, 4))
    a = Dropout(0.3)
    a.reseed(3)
    b = Dropout(0.3)
    b.reseed(3)
    np.testing.assert_array_equal(a.forward(x, training=True),
                                  b.forward(x, training=True))


def test_dropout_invalid_rate():
    with pytest.raises(InvalidRate):
        Dropout(1.0)
    with pytest.raises(InvalidRate):
        Dropout(-0.1)


def test_maxpool_valid_and_backward(rng):
    layer = MaxPool1D(2, stride=2)
    x = np.array([[[1.0], [3.0], [2.0], [2.0], [5.0], [0.0]]])
    out = layer.forward(x, training=True)
    np.testing.assert_array_equal(out[0, :, 0], [3.0, 2.0, 5.0])
    dx = layer.backward(np.ones_like(out))
    # ties route to the first maximal tap
    np.testing.assert_array_equal(dx[0, :, 0], [0, 1, 1, 0, 1, 0])


def test_maxpool_same_stride1_shape(rng):
    layer = MaxPool1D(3, stride=1, padding="same")
    x = rng.normal(size=(2, 9, 4))
    assert layer.forward(x).shape == x.shape


def test_global_average_pool_masked(rng):
    layer = GlobalAveragePool()
    x = rng.normal(size=(2, 5, 3))
    mask = np.ones((2, 5), dtype=bool)
    mask[1, 3:] = False
    out = layer.forward(x, mask=mask, training=True)
    np.testing.assert_allclose(out[0], x[0].mean(axis=0))
    np.testing.assert_allclose(out[1], x[1, :3].mean(axis=0))
    dy = rng.normal(size=out.shape)
    dx = layer.backward(dy)
    np.testing.assert_allclose(dx[1, 3:], 0.0)
    np.testing.assert_allclose(dx[0], np.tile(dy[0] / 5, (5, 1)))


# --- reference conv stack ---------------------------------------------------
# The straightforward layers that the lean ones replace: every forward keeps
# its backward cache, pooling keeps an int64 argmax, batch norm takes its
# moments with np.var. The lean layers must agree with them in both modes.

class RefConv1D(Conv1D):
    def forward(self, x, mask=None, training=False):
        W = self.params["W"]
        B, T, _ = x.shape
        xp = np.pad(x, ((0, 0), (self.pad_left, self.pad_right), (0, 0)))
        y = np.zeros((B, T, W.shape[2]))
        for j in range(self.kernel_size):
            y += xp[:, j:j + T, :] @ W[j]
        if self.use_bias:
            y += self.params["b"]
        self._xp, self._T = xp, T
        return y

    def backward(self, dy):
        W = self.params["W"]
        xp, T = self._xp, self._T
        dxp = np.zeros_like(xp)
        flat_dy = dy.reshape(-1, W.shape[2])
        for j in range(self.kernel_size):
            self.grads["W"][j] += xp[:, j:j + T, :].reshape(-1, W.shape[1]).T @ flat_dy
            dxp[:, j:j + T, :] += dy @ W[j].T
        if self.use_bias:
            self.grads["b"] += dy.sum(axis=(0, 1))
        return dxp[:, self.pad_left:self.pad_left + T, :]


class RefBatchNorm1D(BatchNorm1D):
    def forward(self, x, mask=None, training=False):
        axes = tuple(range(x.ndim - 1))
        if training:
            mu = x.mean(axis=axes)
            var = x.var(axis=axes)
            self.running_mean = self.momentum * self.running_mean + (1 - self.momentum) * mu
            self.running_var = self.momentum * self.running_var + (1 - self.momentum) * var
        else:
            mu, var = self.running_mean, self.running_var
        ivar = 1.0 / np.sqrt(var + self.eps)
        xhat = (x - mu) * ivar
        self._ref = (xhat, ivar, axes, training)
        return self.params["gamma"] * xhat + self.params["beta"]

    def backward(self, dy):
        xhat, ivar, axes, training = self._ref
        self.grads["gamma"] += (dy * xhat).sum(axis=axes)
        self.grads["beta"] += dy.sum(axis=axes)
        dxhat = dy * self.params["gamma"]
        if not training:
            return dxhat * ivar
        n = np.prod([xhat.shape[a] for a in axes])
        return (ivar / n) * (n * dxhat - dxhat.sum(axis=axes)
                             - xhat * (dxhat * xhat).sum(axis=axes))


class RefReLU(ReLU):
    def forward(self, x, mask=None, training=False):
        self._keep = x > 0
        return np.where(self._keep, x, 0.0)

    def backward(self, dy):
        return np.where(self._keep, dy, 0.0)


class RefMaxPool1D(MaxPool1D):
    def forward(self, x, mask=None, training=False):
        B, T, C = x.shape
        w, s = self.pool_size, self.stride
        if self.padding == "same":
            t_out = -(-T // s)
            total = max((t_out - 1) * s + w - T, 0)
            pl, pr = total // 2, total - total // 2
        else:
            t_out = (T - w) // s + 1
            pl = pr = 0
        xp = np.pad(x, ((0, 0), (pl, pr), (0, 0)), constant_values=-np.inf)
        best = np.full((B, t_out, C), -np.inf)
        argj = np.zeros((B, t_out, C), dtype=np.int64)
        for j in range(w):
            cand = xp[:, j:j + s * t_out:s, :]
            better = cand > best
            best = np.where(better, cand, best)
            argj = np.where(better, j, argj)
        self._ref = (argj, xp.shape, pl, T, t_out)
        return best

    def backward(self, dy):
        argj, xp_shape, pl, T, t_out = self._ref
        w, s = self.pool_size, self.stride
        dxp = np.zeros(xp_shape)
        for j in range(w):
            dxp[:, j:j + s * t_out:s, :] += np.where(argj == j, dy, 0.0)
        return dxp[:, pl:pl + T, :]


class RefGlobalAveragePool(GlobalAveragePool):
    def forward(self, x, mask=None, training=False):
        B, T, C = x.shape
        m = np.ones((B, T, 1)) if mask is None else mask.astype(np.float64)[:, :, None]
        self._ref = (m, m.sum(axis=1))
        return (x * m).sum(axis=1) / self._ref[1]

    def backward(self, dy):
        m, count = self._ref
        return (dy / count)[:, None, :] * m


# (in_channels, filters, kernel) of every convolution the zoo builds
ZOO_CONVS = [(2, 128, 8), (128, 256, 5), (256, 128, 3), (2, 64, 8), (64, 64, 5),
             (64, 64, 3), (2, 64, 1), (2, 32, 1), (128, 32, 1), (32, 32, 10),
             (32, 32, 20), (32, 32, 40), (2, 128, 1), (128, 128, 1)]


def _agree(a, b):
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


def _compare(lean, ref, x, mask=None):
    """Forward in both modes and backward: outputs, input gradients,
    parameter gradients and running statistics must agree."""
    rng = np.random.default_rng(1)
    for layer in (lean, ref):
        if hasattr(layer, "running_mean"):
            layer.running_mean[...] = np.linspace(-0.5, 0.5, layer.running_mean.size)
            layer.running_var[...] = np.linspace(0.5, 2.0, layer.running_var.size)
    _agree(lean.forward(x, mask=mask), ref.forward(x, mask=mask))
    y = lean.forward(x, mask=mask, training=True)
    _agree(y, ref.forward(x, mask=mask, training=True))
    dy = rng.normal(size=y.shape)
    _agree(lean.backward(dy), ref.backward(dy))
    for key in lean.grads:
        _agree(lean.grads[key], ref.grads[key])
    if hasattr(lean, "running_mean"):
        _agree(lean.running_mean, ref.running_mean)
        _agree(lean.running_var, ref.running_var)


def _pair(cls, ref_cls, *args):
    return cls(*args), ref_cls(*args)


@pytest.mark.parametrize("T", [100, 120])
@pytest.mark.parametrize("cin, filters, k", ZOO_CONVS)
def test_conv1d_matches_reference(cin, filters, k, T):
    lean = Conv1D(cin, filters, k, np.random.default_rng(k))
    ref = RefConv1D(cin, filters, k, np.random.default_rng(k))
    lean.params["b"][...] = ref.params["b"][...] = np.linspace(-1, 1, filters)
    _compare(lean, ref, np.random.default_rng(T).normal(size=(32, T, cin)))


@pytest.mark.parametrize("T", [100, 120])
@pytest.mark.parametrize("channels", [32, 64, 128, 256])
def test_batchnorm_relu_pool_match_reference(channels, T):
    x = np.random.default_rng(T + channels).normal(0.3, 2.0, size=(32, T, channels))
    mask = np.ones((32, T), dtype=bool)
    mask[3, T // 2:] = False
    lean, ref = _pair(BatchNorm1D, RefBatchNorm1D, channels)
    for layer in (lean, ref):
        layer.params["gamma"][...] = np.linspace(0.5, 1.5, channels)
        layer.params["beta"][...] = np.linspace(-1, 1, channels)
    _compare(lean, ref, x)
    _compare(*_pair(ReLU, RefReLU), x)
    _compare(*_pair(MaxPool1D, RefMaxPool1D, 3, 1, "same"), x)
    _compare(*_pair(MaxPool1D, RefMaxPool1D, 2, 2), x)
    _compare(*_pair(GlobalAveragePool, RefGlobalAveragePool), x)
    _compare(*_pair(GlobalAveragePool, RefGlobalAveragePool), x, mask)


def test_relu_maps_nan_to_zero():
    x = np.array([[np.nan, -0.0, -2.0, 3.0]])
    for training in (False, True):
        y = ReLU().forward(x, training=training)
        np.testing.assert_array_equal(y, [[0.0, 0.0, 0.0, 3.0]])


def test_maxpool_skips_nan_and_routes_ties_to_earliest_tap():
    nan = np.nan
    x = np.array([[[nan], [1.0], [nan], [nan], [2.0], [2.0], [0.5], [2.0]]])
    for layer, best, grad in [
            (MaxPool1D(2, stride=2), [1.0, -np.inf, 2.0, 2.0],
             [0, 1, 1, 0, 1, 0, 0, 1]),
            (MaxPool1D(3, stride=1, padding="same"),
             [1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0],
             [0, 3, 0, 0, 3, 1, 0, 1])]:
        np.testing.assert_array_equal(layer.forward(x)[0, :, 0], best)
        out = layer.forward(x, training=True)
        np.testing.assert_array_equal(out[0, :, 0], best)
        # an all-NaN window routes its gradient to its first tap, a NaN
        np.testing.assert_array_equal(
            layer.backward(np.ones_like(out))[0, :, 0], grad)


@pytest.mark.parametrize("make", [
    lambda rng: Conv1D(2, 3, 3, rng), lambda rng: Conv1D(8, 3, 3, rng),
    lambda rng: BatchNorm1D(2), lambda rng: ReLU(), lambda rng: MaxPool1D(2),
    lambda rng: GlobalAveragePool()], ids=["conv_im2col", "conv_taps", "bn",
                                           "relu", "maxpool", "gap"])
def test_backward_needs_training_forward(rng, make):
    layer = make(rng)
    cin = layer.params["W"].shape[1] if "W" in layer.params else 2
    x = rng.normal(size=(4, 6, cin))
    with pytest.raises(RuntimeError, match="training=True"):
        layer.backward(np.ones_like(layer.forward(x)))
    out = layer.forward(x, training=True)
    layer.forward(x)                     # inference drops the training cache
    with pytest.raises(RuntimeError, match="training=True"):
        layer.backward(np.ones_like(out))
