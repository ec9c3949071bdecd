import numpy as np
import pytest

from fehforge.nn.recurrent import GRU, LSTM, Bidirectional, reverse_valid
from tests.test_layers import layer_grads


def test_gru_param_count_formula(rng):
    # reset-after gating: 3 * units * (inputs + units + 2)
    for i, u in ((2, 20), (20, 16), (16, 8)):
        gru = GRU(i, u, rng)
        assert gru.param_count() == 3 * u * (i + u + 2)


def test_lstm_param_count_formula(rng):
    for i, u in ((2, 20), (20, 16)):
        lstm = LSTM(i, u, rng)
        assert lstm.param_count() == 4 * (u * (i + u) + u)


def test_lstm_forget_bias_one(rng):
    lstm = LSTM(3, 5, rng)
    b = lstm.params["b"]
    # gate order i, f, g, o: the forget block starts at units
    np.testing.assert_array_equal(b[5:10], 1.0)
    assert np.all(b[:5] == 0.0) and np.all(b[10:] == 0.0)


def test_output_shapes(rng):
    x = rng.normal(size=(4, 9, 3))
    assert GRU(3, 6, rng, return_sequences=True).forward(x).shape == (4, 9, 6)
    assert GRU(3, 6, rng, return_sequences=False).forward(x).shape == (4, 6)
    bi = Bidirectional(LSTM(3, 5, rng, return_sequences=True),
                       LSTM(3, 5, rng, return_sequences=True))
    assert bi.forward(x).shape == (4, 9, 10)


@pytest.mark.parametrize("cls", [GRU, LSTM])
@pytest.mark.parametrize("return_sequences", [True, False])
def test_recurrent_grads(rng, cls, return_sequences):
    layer = cls(3, 5, rng, return_sequences=return_sequences)
    x = rng.normal(size=(2, 7, 3))
    p_rel, x_rel = layer_grads(layer, x)
    assert p_rel < 1e-6 and x_rel < 1e-6


@pytest.mark.parametrize("cls", [GRU, LSTM])
def test_recurrent_grads_with_mask(rng, cls):
    layer = cls(2, 4, rng, return_sequences=False)
    x = rng.normal(size=(3, 6, 2))
    mask = np.ones((3, 6), dtype=bool)
    mask[0, 4:] = False
    mask[2, 2:] = False
    p_rel, x_rel = layer_grads(layer, x, mask=mask)
    assert p_rel < 1e-6 and x_rel < 1e-6


@pytest.mark.parametrize("cls", [GRU, LSTM])
def test_masked_steps_freeze_state(rng, cls):
    # trailing padded timesteps must not change the final hidden state
    layer = cls(2, 4, rng, return_sequences=False)
    x = rng.normal(size=(1, 5, 2))
    mask_full = np.ones((1, 5), dtype=bool)
    out_short = layer.forward(x[:, :3], mask=mask_full[:, :3])
    x_padded = x.copy()
    x_padded[0, 3:] = 99.0           # garbage in the padded region
    mask = mask_full.copy()
    mask[0, 3:] = False
    out_masked = layer.forward(x_padded, mask=mask)
    np.testing.assert_allclose(out_masked, out_short, atol=1e-12)


def test_reverse_valid_only_flips_valid_region():
    x = np.arange(10, dtype=np.float64).reshape(1, 5, 2)
    mask = np.array([[True, True, True, False, False]])
    out = reverse_valid(x, mask)
    np.testing.assert_array_equal(out[0, :3], x[0, :3][::-1])
    np.testing.assert_array_equal(out[0, 3:], x[0, 3:])
    # involution on the valid region
    np.testing.assert_array_equal(reverse_valid(out, mask), x)


def test_bidirectional_equals_manual_concat(rng):
    fwd = GRU(2, 3, rng, return_sequences=False)
    bwd = GRU(2, 3, rng, return_sequences=False)
    bi = Bidirectional(fwd, bwd)
    x = rng.normal(size=(2, 6, 2))
    mask = np.ones((2, 6), dtype=bool)
    mask[1, 4:] = False
    out = bi.forward(x, mask=mask)
    expected = np.concatenate(
        [fwd.forward(x, mask=mask),
         bwd.forward(reverse_valid(x, mask), mask=mask)], axis=-1)
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_bidirectional_grads(rng):
    bi = Bidirectional(LSTM(2, 3, rng, return_sequences=True),
                       LSTM(2, 3, rng, return_sequences=True))
    x = rng.normal(size=(2, 5, 2))
    mask = np.ones((2, 5), dtype=bool)
    mask[0, 3:] = False
    out = bi.forward(x, mask=mask)
    R = rng.normal(size=out.shape)
    for _, child in bi.children():
        for key in child.grads:
            child.grads[key][...] = 0.0
    dx = bi.backward(R)

    h = 1e-6
    def loss():
        return float((bi.forward(x, mask=mask) * R).sum())
    flat = x.reshape(-1)
    dflat = dx.reshape(-1)
    idx = rng.choice(flat.size, size=8, replace=False)
    for i in idx:
        orig = flat[i]
        flat[i] = orig + h
        hi = loss()
        flat[i] = orig - h
        lo = loss()
        flat[i] = orig
        num = (hi - lo) / (2 * h)
        assert abs(dflat[i] - num) / max(abs(dflat[i]), abs(num), 1e-3) < 1e-6


# --- reference: the plain per-step formulation -------------------------------

def _ref_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _ref_gru(p, x, m, dy, return_sequences):
    """Output, parameter gradients and input gradient, one step at a time."""
    W, U, b_in, b_rec = p["W"], p["U"], p["b_in"], p["b_rec"]
    B, T, _ = x.shape
    n = U.shape[0]
    Xp = x @ W + b_in
    h = np.zeros((B, n))
    steps, outs = [], []
    for t in range(T):
        hp = h @ U + b_rec
        z = _ref_sigmoid(Xp[:, t, :n] + hp[:, :n])
        r = _ref_sigmoid(Xp[:, t, n:2 * n] + hp[:, n:2 * n])
        hh = np.tanh(Xp[:, t, 2 * n:] + r * hp[:, 2 * n:])
        mt = m[:, t]
        h_new = mt * (z * h + (1.0 - z) * hh) + (1.0 - mt) * h
        steps.append((h, z, r, hh, hp[:, 2 * n:], mt))
        outs.append(h_new)
        h = h_new
    out = np.stack(outs, axis=1) if return_sequences else h
    grads = {k: np.zeros_like(v) for k, v in p.items()}
    dXp = np.zeros_like(Xp)
    dh = np.zeros((B, n)) if return_sequences else dy.copy()
    for t in range(T - 1, -1, -1):
        if return_sequences:
            dh = dh + dy[:, t]
        h_prev, z, r, hh, hp_h, mt = steps[t]
        dcand = dh * mt
        da_h = dcand * (1.0 - z) * (1.0 - hh * hh)
        da_z = dcand * (h_prev - hh) * z * (1.0 - z)
        da_r = da_h * hp_h * r * (1.0 - r)
        dXp[:, t] = np.concatenate([da_z, da_r, da_h], axis=1)
        dhp = np.concatenate([da_z, da_r, da_h * r], axis=1)
        grads["U"] += h_prev.T @ dhp
        grads["b_rec"] += dhp.sum(axis=0)
        dh = dcand * z + dh * (1.0 - mt) + dhp @ U.T
    grads["W"] = x.reshape(-1, x.shape[2]).T @ dXp.reshape(-1, 3 * n)
    grads["b_in"] = dXp.sum(axis=(0, 1))
    return out, grads, dXp @ W.T


def _ref_lstm(p, x, m, dy, return_sequences):
    W, U, b = p["W"], p["U"], p["b"]
    B, T, _ = x.shape
    n = U.shape[0]
    Xp = x @ W + b
    h, c = np.zeros((B, n)), np.zeros((B, n))
    steps, outs = [], []
    for t in range(T):
        a = Xp[:, t] + h @ U
        i, f = _ref_sigmoid(a[:, :n]), _ref_sigmoid(a[:, n:2 * n])
        g, o = np.tanh(a[:, 2 * n:3 * n]), _ref_sigmoid(a[:, 3 * n:])
        c_new = f * c + i * g
        tc = np.tanh(c_new)
        mt = m[:, t]
        steps.append((h, c, i, f, g, o, tc, mt))
        h = mt * (o * tc) + (1.0 - mt) * h
        c = mt * c_new + (1.0 - mt) * c
        outs.append(h)
    out = np.stack(outs, axis=1) if return_sequences else h
    grads = {k: np.zeros_like(v) for k, v in p.items()}
    dXp = np.zeros_like(Xp)
    dh = np.zeros((B, n)) if return_sequences else dy.copy()
    dc = np.zeros((B, n))
    for t in range(T - 1, -1, -1):
        if return_sequences:
            dh = dh + dy[:, t]
        h_prev, c_prev, i, f, g, o, tc, mt = steps[t]
        dh_eff = dh * mt
        dc_new = dc * mt + dh_eff * o * (1.0 - tc * tc)
        da = np.concatenate([dc_new * g * i * (1.0 - i),
                             dc_new * c_prev * f * (1.0 - f),
                             dc_new * i * (1.0 - g * g),
                             dh_eff * tc * o * (1.0 - o)], axis=1)
        dXp[:, t] = da
        grads["U"] += h_prev.T @ da
        dh = dh * (1.0 - mt) + da @ U.T
        dc = dc_new * f + dc * (1.0 - mt)
    grads["W"] = x.reshape(-1, x.shape[2]).T @ dXp.reshape(-1, 4 * n)
    grads["b"] = dXp.sum(axis=(0, 1))
    return out, grads, dXp @ W.T


@pytest.mark.parametrize("cls,reference", [(GRU, _ref_gru), (LSTM, _ref_lstm)])
@pytest.mark.parametrize("return_sequences", [True, False])
@pytest.mark.parametrize("masked", [True, False])
def test_time_loop_matches_per_step_reference(rng, cls, reference,
                                              return_sequences, masked):
    layer = cls(3, 6, rng, return_sequences=return_sequences)
    for key in layer.params:        # nonzero biases exercise every term
        layer.params[key][...] += rng.normal(scale=0.3, size=layer.params[key].shape)
    x = rng.normal(size=(5, 11, 3))
    mask = np.ones((5, 11), dtype=bool)
    if masked:
        mask[0, 7:] = False
        mask[3, 2:] = False
        mask[4, 5:9] = False        # a gap, not only a padded tail
    out = layer.forward(x, mask=mask if masked else None)
    dy = rng.normal(size=out.shape)
    dx = layer.backward(dy)
    ref_out, ref_grads, ref_dx = reference(layer.params, x,
                                           mask.astype(np.float64)[:, :, None],
                                           dy, return_sequences)
    np.testing.assert_allclose(out, ref_out, rtol=0, atol=1e-12)
    np.testing.assert_allclose(dx, ref_dx, rtol=0, atol=1e-12)
    for key, grad in ref_grads.items():
        np.testing.assert_allclose(layer.grads[key], grad, rtol=0, atol=1e-12,
                                   err_msg=key)


@pytest.mark.parametrize("cls", [GRU, LSTM])
@pytest.mark.parametrize("return_sequences", [True, False])
def test_all_valid_mask_is_bit_identical_to_none(rng, cls, return_sequences):
    layer = cls(2, 4, rng, return_sequences=return_sequences)
    x = rng.normal(size=(3, 8, 2))
    out_none = layer.forward(x, mask=None).copy()
    dx_none = layer.backward(np.ones_like(out_none)).copy()
    out_mask = layer.forward(x, mask=np.ones((3, 8), dtype=bool))
    dx_mask = layer.backward(np.ones_like(out_mask))
    np.testing.assert_array_equal(out_mask, out_none)
    np.testing.assert_array_equal(dx_mask, dx_none)
