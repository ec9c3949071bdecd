import numpy as np
import pytest

from fehforge.errors import (DegenerateBatch, InvalidRate, ShapeMismatch)
from fehforge.nn.layers import (BatchNorm1D, Conv1D, Dense, Dropout,
                                GlobalAveragePool, Layer, MaxPool1D, ReLU,
                                _colsum, glorot_uniform)
from fehforge.nn.model import Add, Concat, Sequential, iter_leaves
from fehforge.nn.recurrent import GRU
from fehforge.zoo import KINDS, build, build_default


def layer_grads(layer, x, mask=None, training=True, h=1e-6):
    """Analytic vs central-difference gradients for a layer, a composite's
    leaves included, under the probe loss sum(out * R). Returns
    (worst_param_rel, input_rel)."""
    rng = np.random.default_rng(0)
    out = layer.forward(x, mask=mask, training=training)
    R = rng.normal(size=out.shape)

    leaves = [leaf for _, leaf in iter_leaves(layer)]
    for leaf in leaves:
        for g in leaf.grads.values():
            g[...] = 0.0
    dx = layer.backward(R)

    def loss():
        return float((layer.forward(x, mask=mask, training=training) * R).sum())

    rels = []
    for leaf, key in [(leaf, key) for leaf in leaves for key in leaf.params]:
        flat = leaf.params[key].reshape(-1)
        g = leaf.grads[key].reshape(-1)
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


# 2 channels take im2col; 6 the tap loop, the last with T below the kernel;
# 16 taps or more on over 4 channels take the FFT path, and their T crosses
# a block boundary; an odd FFT kernel pads as much on each side
@pytest.mark.parametrize("kernel, cin, T", [(1, 2, 10), (3, 2, 10), (8, 2, 10),
                                           (16, 5, 60), (40, 5, 130),
                                           (3, 6, 10), (8, 6, 5), (17, 5, 70)],
                         ids=["1", "3", "8", "16", "40", "taps-3", "taps-8-short",
                              "fft-17"])
def test_conv1d_grads(rng, kernel, cin, T):
    layer = Conv1D(cin, 4, kernel, rng)
    p_rel, x_rel = layer_grads(layer, rng.normal(size=(3, T, cin)))
    assert p_rel < 1e-6 and x_rel < 1e-6


def test_conv1d_paths_of_the_default_kinds():
    # im2col for 1x1 kernels and inputs of at most 4 channels, FFT blocks
    # for 16 taps or more, the tap loop otherwise; of the default kinds only
    # inception's k20 and k40 branches take the FFT
    fft = set()
    for kind in KINDS:
        model = build(build_default(kind), (100, 2), seed=0)
        for _, leaf in iter_leaves(model.root):
            if isinstance(leaf, Conv1D):
                k, cin, _ = leaf.params["W"].shape
                assert leaf.path == ("im2col" if k == 1 or cin <= 4
                                     else "fft" if k >= 16 else "taps")
                if leaf.path == "fft":
                    fft.add((kind, k))
    assert fft == {("inception", 20), ("inception", 40)}


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
    layer = BatchNorm1D(2)
    layer.momentum = 0.5
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
    # one value per channel cannot be normalized
    layer = BatchNorm1D(2)
    with pytest.raises(DegenerateBatch):
        layer.forward(rng.normal(size=(1, 1, 2)), training=True)


def test_batchnorm_one_row_batch_trains(rng):
    # a one-row batch has T values per channel: its moments are taken over
    # the row's steps, and its gradients match finite differences
    layer = BatchNorm1D(3)
    x = rng.normal(2.0, 3.0, size=(1, 6, 3))
    out = layer.forward(x, training=True)
    np.testing.assert_allclose(out[0].mean(axis=0), 0.0, atol=1e-9)
    np.testing.assert_allclose(out[0].std(axis=0), 1.0, atol=1e-3)
    p_rel, x_rel = layer_grads(layer, x, training=True)
    assert p_rel < 1e-6 and x_rel < 1e-6


def test_relu_forward_backward(rng):
    layer = ReLU()
    x = np.array([[-1.0, 0.0, 2.0]])
    np.testing.assert_array_equal(layer.forward(x, training=True), [[0.0, 0.0, 2.0]])
    dx = layer.backward(np.ones_like(x))
    np.testing.assert_array_equal(dx, [[0.0, 0.0, 1.0]])


def test_dropout_train_inference_and_scaling(rng):
    layer = Dropout(0.5)
    layer.rng = np.random.default_rng(7)
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
    a.rng = np.random.default_rng(3)
    b = Dropout(0.3)
    b.rng = np.random.default_rng(3)
    np.testing.assert_array_equal(a.forward(x, training=True),
                                  b.forward(x, training=True))


def test_dropout_keeps_a_time_major_layout(rng):
    # a recurrent layer with return_sequences hands on a (B, T, U) view of a
    # time-major (T, B, U) array; the scale and the output keep that layout,
    # and the mask is still drawn in C order over (B, T, U)
    x = rng.normal(size=(7, 5, 3)).transpose(1, 0, 2)
    dy = rng.normal(size=x.shape)
    layer = Dropout(0.4)
    layer.rng = np.random.default_rng(11)
    out = layer.forward(x, training=True)
    assert out.strides == layer._cache.strides == x.strides
    scale = (np.random.default_rng(11).random(x.shape) >= 0.4) / (1.0 - 0.4)
    np.testing.assert_array_equal(out, x * scale)
    np.testing.assert_array_equal(layer.backward(dy), dy * scale)


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


def test_maxpool_reads_padded_steps_as_minus_inf():
    # valid values all negative beside zeroed padding: the pool returns the
    # valid maximum, as for the row alone, where "same" padding is -inf
    x = np.array([[[-3.0], [-1.0], [-2.0], [0.0], [0.0]]])
    mask = np.array([[True, True, True, False, False]])
    out = MaxPool1D(3, stride=1, padding="same").forward(x, mask=mask)
    np.testing.assert_array_equal(out[0, :3, 0], [-1.0, -1.0, -1.0])
    np.testing.assert_array_equal(
        MaxPool1D(3, stride=1, padding="same").forward(x[:, :3])[0, :, 0],
        out[0, :3, 0])


def test_maxpool_valid_windows_need_every_tap_valid():
    # pool 2 / stride 2: a row of 5 valid steps in 8 keeps 2 windows, as the
    # row alone does; "same" padding taps count as valid
    mask = np.arange(8) < np.array([8, 5, 3])[:, None]
    np.testing.assert_array_equal(MaxPool1D(2, stride=2).valid_windows(mask),
                                  [[1, 1, 1, 1], [1, 1, 0, 0], [1, 0, 0, 0]])
    np.testing.assert_array_equal(
        MaxPool1D(3, stride=2, padding="same").valid_windows(mask[:, :7]),
        [[1, 1, 1, 1], [1, 1, 0, 0], [1, 0, 0, 0]])


def test_batchnorm_moments_over_valid_steps(rng):
    # inside a Sequential, which zeroes padded steps and their gradients
    mask = np.ones((4, 7), dtype=bool)
    mask[1, 3:] = mask[2, 5:] = False
    x = rng.normal(2.0, 3.0, size=(4, 7, 3)) * mask[..., None]
    bn = BatchNorm1D(3)
    layer = Sequential([bn])
    out = layer.forward(x, mask=mask, training=True)
    np.testing.assert_allclose(out[mask].mean(axis=0), 0.0, atol=1e-9)
    np.testing.assert_allclose(out[mask].std(axis=0), 1.0, atol=1e-3)
    assert (out[~mask] == 0).all()
    valid = x[mask]
    np.testing.assert_allclose(bn.buffers["running_mean"],
                               0.01 * valid.mean(axis=0), rtol=1e-12)
    np.testing.assert_allclose(bn.buffers["running_var"],
                               0.99 + 0.01 * valid.var(axis=0), rtol=1e-12)
    p_rel, x_rel = layer_grads(layer, x, mask=mask)
    assert p_rel < 1e-6 and x_rel < 1e-6


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
            stats = self.buffers
            stats["running_mean"] = self.momentum * stats["running_mean"] + (1 - self.momentum) * mu
            stats["running_var"] = self.momentum * stats["running_var"] + (1 - self.momentum) * var
        else:
            mu, var = self.buffers["running_mean"], self.buffers["running_var"]
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
    """`a`, computed in its own dtype, against the float64 reference `b`: to
    1e-12 in float64; in float32, to 1e-5 of b's largest magnitude."""
    atol = 1e-12 if a.dtype == np.float64 else 1e-5 * np.abs(b).max()
    np.testing.assert_allclose(a, b, rtol=0, atol=atol)


def _compare(lean, ref, x, mask=None, dtype=np.float64):
    """Forward in both modes and backward, the lean layer cast to `dtype`
    and fed `dtype` arrays, the reference in float64: outputs, input
    gradients, parameter gradients and running statistics must agree, and
    every array of the lean layer must be of `dtype`."""
    rng = np.random.default_rng(1)
    lean.astype(dtype)
    for layer in (lean, ref):
        if layer.buffers:
            mean, var = layer.buffers["running_mean"], layer.buffers["running_var"]
            mean[...] = np.linspace(-0.5, 0.5, mean.size)
            var[...] = np.linspace(0.5, 2.0, var.size)
    pairs = [(lean.forward(x.astype(dtype), mask=mask), ref.forward(x, mask=mask))]
    y = lean.forward(x.astype(dtype), mask=mask, training=True)
    pairs.append((y, ref.forward(x, mask=mask, training=True)))
    dy = rng.normal(size=y.shape)
    pairs.append((lean.backward(dy.astype(dtype)), ref.backward(dy)))
    pairs += [(lean.grads[key], ref.grads[key]) for key in lean.grads]
    pairs += [(lean.buffers[key], ref.buffers[key]) for key in lean.buffers]
    for a, b in pairs:
        assert a.dtype == dtype
        _agree(a, b)


def _pair(cls, ref_cls, *args):
    return cls(*args), ref_cls(*args)


# each length in float64, under the id it had before float32 was tested,
# then in float32
T_AND_DTYPE = ([pytest.param(T, np.float64, id=str(T)) for T in (100, 120)]
               + [pytest.param(T, np.float32, id=f"{T}-float32") for T in (100, 120)])


@pytest.mark.parametrize("T, dtype", T_AND_DTYPE)
@pytest.mark.parametrize("cin, filters, k", ZOO_CONVS)
def test_conv1d_matches_reference(cin, filters, k, T, dtype):
    lean = Conv1D(cin, filters, k, np.random.default_rng(k))
    ref = RefConv1D(cin, filters, k, np.random.default_rng(k))
    lean.params["b"][...] = ref.params["b"][...] = np.linspace(-1, 1, filters)
    _compare(lean, ref, np.random.default_rng(T).normal(size=(32, T, cin)),
             dtype=dtype)


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
@pytest.mark.parametrize("use_bias", [True, False], ids=["bias", "no_bias"])
@pytest.mark.parametrize("k", [16, 17, 20, 40])
def test_conv1d_fft_matches_reference_across_blocks(k, use_bias, dtype):
    # lengths below the kernel, of one block of L steps, one step over and
    # past two blocks, each unmasked and with padded steps (zeroed, as
    # `Sequential` hands them on); even kernels pad one step more on the
    # right, the odd one as much on each side
    L = Conv1D(6, 5, k, np.random.default_rng(k))._blocks(1)[1]
    for T in (1, 7, L, L + 1, 2 * L + 3):
        x = np.random.default_rng(T).normal(size=(4, T, 6))
        mask = np.arange(T) < np.array([T, T - T // 3, 1, T // 2 + 1])[:, None]
        for m in (None, mask):
            lean, ref = (cls(6, 5, k, np.random.default_rng(k), use_bias=use_bias)
                         for cls in (Conv1D, RefConv1D))
            assert lean.path == "fft"
            if use_bias:
                lean.params["b"][...] = ref.params["b"][...] = np.linspace(-1, 1, 5)
            _compare(lean, ref, x if m is None else x * m[..., None], m, dtype)


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
@pytest.mark.parametrize("B", [1, 3])
@pytest.mark.parametrize("k", [3, 8])
def test_conv1d_taps_match_reference_across_rows(k, B, dtype):
    # the tap loop lays the rows back to back with zero gap rows between
    # them: lengths of one step, one below the kernel and two kernels, each
    # unmasked and with padded steps (zeroed, as `Sequential` hands them on)
    for T in (1, k - 1, 2 * k):
        x = np.random.default_rng(T).normal(size=(B, T, 6))
        mask = np.arange(T) < np.array([T // 2 + 1, T, 1])[:B, None]
        for m in (None, mask):
            lean, ref = (cls(6, 5, k, np.random.default_rng(k)) for cls in (Conv1D, RefConv1D))
            assert lean.path == "taps"
            lean.params["b"][...] = ref.params["b"][...] = np.linspace(-1, 1, 5)
            _compare(lean, ref, x if m is None else x * m[..., None], m, dtype)


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
@pytest.mark.parametrize("shape", [(500, 2), (357, 60), (4, 119, 3), (7, 30, 128)])
def test_colsum_gives_the_bits_of_sum(shape, dtype):
    # the channel sums of conv, batch-norm and recurrent gradients; every
    # third row zero, as padded steps leave them
    rng = np.random.default_rng(len(shape))
    x, y = (rng.normal(size=shape).astype(dtype) for _ in range(2))
    x[..., ::3, :] = 0.0
    axes = tuple(range(len(shape) - 1))
    for rows in (slice(None), slice(1, None)):   # all, and a view of all but one
        a, b = x[..., rows, :], y[..., rows, :]
        np.testing.assert_array_equal(_colsum(a), a.sum(axis=axes))
        np.testing.assert_array_equal(_colsum(a, b), (a * b).sum(axis=axes))
        assert _colsum(a, b).dtype == dtype


@pytest.mark.parametrize("T, dtype", T_AND_DTYPE)
@pytest.mark.parametrize("channels", [32, 64, 128, 256])
def test_batchnorm_relu_pool_match_reference(channels, T, dtype):
    x = np.random.default_rng(T + channels).normal(0.3, 2.0, size=(32, T, channels))
    mask = np.ones((32, T), dtype=bool)
    mask[3, T // 2:] = False
    lean, ref = _pair(BatchNorm1D, RefBatchNorm1D, channels)
    for layer in (lean, ref):
        layer.params["gamma"][...] = np.linspace(0.5, 1.5, channels)
        layer.params["beta"][...] = np.linspace(-1, 1, channels)
    _compare(lean, ref, x, dtype=dtype)
    _compare(*_pair(ReLU, RefReLU), x, dtype=dtype)
    _compare(*_pair(MaxPool1D, RefMaxPool1D, 3, 1, "same"), x, dtype=dtype)
    _compare(*_pair(MaxPool1D, RefMaxPool1D, 2, 2), x, dtype=dtype)
    _compare(*_pair(GlobalAveragePool, RefGlobalAveragePool), x, dtype=dtype)
    _compare(*_pair(GlobalAveragePool, RefGlobalAveragePool), x, mask, dtype)


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


def test_concat_joins_branches_on_channels_and_grads(rng):
    # each branch reads the same input and mask; Concat joins the outputs on
    # channels, Add sums them (a residual connection: a body and the
    # identity, an empty Sequential)
    x = rng.normal(size=(3, 7, 2))
    mask = np.ones((3, 7), dtype=bool)
    mask[1, 4:] = False
    a, b = Conv1D(2, 3, 3, rng), Sequential([Conv1D(2, 5, 1, rng), ReLU()])
    body, identity = Sequential([Conv1D(2, 2, 3, rng), ReLU()]), Sequential([])
    for layer, expect in [
            (Concat([a, b]), lambda: np.concatenate(
                [a.forward(x, mask=mask), b.forward(x, mask=mask)], axis=-1)),
            (Add([body, identity]), lambda: body.forward(x, mask=mask) + x)]:
        out = layer.forward(x, mask=mask)
        np.testing.assert_array_equal(out, expect())
        p_rel, x_rel = layer_grads(layer, x, mask=mask)
        assert p_rel < 1e-6 and x_rel < 1e-6
    assert (b.forward(x, mask=mask)[~mask] == 0).all()    # a Sequential zeroes


# (layer, input shape) of every leaf type but the recurrent ones, which
# test_recurrent.py holds to the same contract, and of `Concat` and `Add`
@pytest.mark.parametrize("make, shape", [
    (lambda rng: Conv1D(2, 3, 3, rng), (4, 6, 2)),
    (lambda rng: Conv1D(8, 3, 3, rng), (4, 6, 8)),
    (lambda rng: Conv1D(5, 3, 16, rng), (4, 6, 5)),
    (lambda rng: BatchNorm1D(2), (4, 6, 2)), (lambda rng: ReLU(), (4, 6, 2)),
    (lambda rng: MaxPool1D(2), (4, 6, 2)),
    (lambda rng: GlobalAveragePool(), (4, 6, 2)),
    (lambda rng: Dense(2, 3, rng), (4, 2)),
    (lambda rng: Dropout(0.5), (4, 6, 2)), (lambda rng: Dropout(0.0), (4, 6, 2)),
    (lambda rng: Concat([Conv1D(2, 3, 3, rng), ReLU()]), (4, 6, 2)),
    (lambda rng: Add([Sequential([Conv1D(2, 2, 3, rng)]), Sequential([])]),
     (4, 6, 2))],
    ids=["conv_im2col", "conv_taps", "conv_fft", "bn", "relu", "maxpool", "gap", "dense",
         "dropout", "dropout_rate0", "concat", "add"])
def test_backward_needs_training_forward(rng, make, shape):
    layer = make(rng)
    x = rng.normal(size=shape)
    with pytest.raises(RuntimeError, match="training=True"):
        layer.backward(np.ones_like(layer.forward(x)))
    out = layer.forward(x, training=True)
    layer.forward(x)                     # inference drops the training cache
    with pytest.raises(RuntimeError, match="training=True"):
        layer.backward(np.ones_like(out))


class _MaskProbe(Layer):
    """The identity; records the mask it is given."""

    def forward(self, x, mask=None, training=False):
        self.seen = mask
        return x


def test_sequential_hands_on_mask_while_time_axis_kept(rng):
    x = rng.normal(size=(3, 8, 2))
    mask = np.ones((3, 8), dtype=bool)
    mask[1, 5:] = False
    probes = [_MaskProbe() for _ in range(7)]
    Sequential([Conv1D(2, 4, 3, rng), probes[0], BatchNorm1D(4), probes[1],
                ReLU(), probes[2], Dropout(0.5), probes[3],
                MaxPool1D(2, stride=2), probes[4]]).forward(x, mask, training=True)
    for probe in probes[:4]:
        assert probe.seen is mask
    # a pool that shortens T hands on the windows whose taps are all valid
    np.testing.assert_array_equal(probes[4].seen, mask[:, ::2] & mask[:, 1::2])
    # a recurrent layer keeps the mask only when it returns the sequence;
    # its (batch, units) last state drops it even when units == timesteps
    Sequential([GRU(2, 3, rng, return_sequences=True), probes[5],
                GRU(3, 8, rng), probes[6]]).forward(x, mask)
    assert probes[5].seen is mask
    assert probes[6].seen is None
