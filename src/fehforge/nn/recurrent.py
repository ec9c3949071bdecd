"""Recurrent layers with full backpropagation through time.

The GRU uses the reset-after gate formulation with separate input and
recurrent bias vectors, so a layer with U units on I input channels holds
3*U*(I + U + 2) trainable parameters. Update convention:

    z = sigmoid(x Wz + bz_in + h Uz + bz_rec)
    r = sigmoid(x Wr + br_in + h Ur + br_rec)
    hh = tanh(x Wh + bh_in + r * (h Uh + bh_rec))
    h' = z * h + (1 - z) * hh

Masked timesteps leave the hidden (and cell) state unchanged, so appending
padded steps never changes the final state or its gradients.

Both cells run one time-major loop over T steps of a batch of B:

  - the inputs are projected once, x W + b, into a contiguous (T, B, k*U)
    array, so step t reads the slab Xp[t];
  - the sigmoid is the branch-free 0.5 * (1 + tanh(x / 2)), applied once
    per step to the contiguous block of sigmoid gates (z and r; the LSTM
    takes one tanh over all four gates, scaled so i, f and o come out as
    sigmoids);
  - the forward pass writes its caches in place into stacked arrays: the
    states H (T+1, B, U) with H[0] = 0 (and the cells C for the LSTM), the
    gate activations (T, B, k*U), and for the GRU the candidate state and
    h Uh + bh_rec (T, B, U) each;
  - the mask becomes one time-major (T, B, 1) array of padded steps, and
    when every step is valid the per-step select is skipped;
  - the backward pass writes the gate gradients into preallocated
    (T, B, .) buffers and forms the weight, bias and input gradients after
    the loop, with GEMMs and sums over the flattened T*B rows (the GRU
    takes its z/r block and its candidate block apart, so the gradient at
    x W + b_in is never assembled as a copy).

Against the plain per-step formulation (masked-index sigmoid, per-step
gradient accumulation), which tests/test_recurrent.py keeps as its
reference, outputs and all gradients agree to within 1e-12 absolute on
the test shapes; the difference is rounding, from the sigmoid form and
the order of summation. Reruns are bit-identical.
"""
from __future__ import annotations

import numpy as np

from ..errors import ShapeMismatch
from .layers import Layer, glorot_uniform


def _sigmoid(x, out=None):
    """Logistic function as 0.5 * (1 + tanh(x / 2)): no branch, no overflow."""
    out = np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def _padded_steps(mask, B, T):
    """Time-major (T, B, 1) bool array marking padded steps, or None when
    there are none."""
    if mask is None:
        return None
    if mask.shape != (B, T):
        raise ShapeMismatch(f"mask shape {mask.shape} != {(B, T)}")
    if mask.all():
        return None
    return np.ascontiguousarray(~np.asarray(mask, dtype=bool).T)[:, :, None]


def _project(x, W, b):
    """Time-major inputs (T*B, I) and their projection x W + b as (T, B, k*U)."""
    B, T, I = x.shape
    xt = np.ascontiguousarray(x.transpose(1, 0, 2)).reshape(T * B, I)
    Xp = xt @ W
    Xp += b
    return xt, Xp.reshape(T, B, -1)


class GRU(Layer):
    def __init__(self, in_dim, units, rng, return_sequences=False,
                 kernel_l1=0.0, kernel_l2=0.0,
                 recurrent_l1=0.0, recurrent_l2=0.0):
        super().__init__()
        self.units = units
        self.return_sequences = return_sequences
        self.params["W"] = glorot_uniform(rng, (in_dim, 3 * units), in_dim, units)
        self.params["U"] = glorot_uniform(rng, (units, 3 * units), units, units)
        self.params["b_in"] = np.zeros(3 * units)
        self.params["b_rec"] = np.zeros(3 * units)
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        if kernel_l1 or kernel_l2:
            self.reg["W"] = (kernel_l1, kernel_l2)
        if recurrent_l1 or recurrent_l2:
            self.reg["U"] = (recurrent_l1, recurrent_l2)

    def forward(self, x, mask=None, training=False):
        W, U = self.params["W"], self.params["U"]
        if x.ndim != 3 or x.shape[2] != W.shape[0]:
            raise ShapeMismatch(f"gru expects (B, T, {W.shape[0]}), got {x.shape}")
        B, T, _ = x.shape
        n = self.units
        pad = _padded_steps(mask, B, T)
        xt, Xp = _project(x, W, self.params["b_in"])
        b_rec = self.params["b_rec"]
        H = np.empty((T + 1, B, n))
        H[0] = 0.0
        ZR = np.empty((T, B, 2 * n))      # update and reset gates
        HH = np.empty((T, B, n))          # candidate state
        HPh = np.empty((T, B, n))         # h Uh + bh_rec
        hp = np.empty((B, 3 * n))
        for t in range(T):
            h, zr, hh, h_new = H[t], ZR[t], HH[t], H[t + 1]
            np.matmul(h, U, out=hp)
            hp += b_rec
            np.add(Xp[t, :, :2 * n], hp[:, :2 * n], out=zr)
            _sigmoid(zr, out=zr)
            HPh[t] = hp[:, 2 * n:]
            np.multiply(zr[:, n:], HPh[t], out=hh)
            hh += Xp[t, :, 2 * n:]
            np.tanh(hh, out=hh)
            # z * h + (1 - z) * hh
            np.subtract(h, hh, out=h_new)
            h_new *= zr[:, :n]
            h_new += hh
            if pad is not None:
                np.copyto(h_new, h, where=pad[t])
        self._cache = (xt, H, ZR, HH, HPh, pad)
        self.mask_out = mask if self.return_sequences else None
        return H[1:].transpose(1, 0, 2) if self.return_sequences else H[T]

    def backward(self, dy):
        xt, H, ZR, HH, HPh, pad = self._cache
        UT = self.params["U"].T
        T, B, n = HH.shape
        dHP = np.empty((T, B, 3 * n))     # gradient at h U + b_rec
        dAh = np.empty((T, B, n))         # gradient at the candidate's pre-activation
        if self.return_sequences:
            dyt = dy.transpose(1, 0, 2)
            dh = np.zeros((B, n))
        else:
            dh = np.array(dy, dtype=np.float64)
        for t in range(T - 1, -1, -1):
            if self.return_sequences:
                dh += dyt[t]
            dcand = dh if pad is None else np.where(pad[t], 0.0, dh)
            zr, hh, da_h, dzr = ZR[t], HH[t], dAh[t], dHP[t, :, :2 * n]
            dh_prev = dcand * zr[:, :n]
            np.subtract(dcand, dh_prev, out=da_h)         # dcand * (1 - z)
            da_h *= 1.0 - hh * hh
            np.multiply(dcand, H[t] - hh, out=dzr[:, :n])
            np.multiply(da_h, HPh[t], out=dzr[:, n:])
            dzr *= zr * (1.0 - zr)
            np.multiply(da_h, zr[:, n:], out=dHP[t, :, 2 * n:])
            dh_prev += dHP[t] @ UT
            if pad is not None:
                np.copyto(dh_prev, dh, where=pad[t])
            dh = dh_prev
        # The gradient at x W + b_in is dHP with its candidate block
        # replaced by dAh; the z and r blocks are shared, not copied.
        W = self.params["W"]
        dHP = dHP.reshape(T * B, 3 * n)
        dZR = dHP[:, :2 * n]
        dAh = dAh.reshape(T * B, n)
        db_rec = dHP.sum(axis=0)
        self.grads["W"][:, :2 * n] += xt.T @ dZR
        self.grads["W"][:, 2 * n:] += xt.T @ dAh
        self.grads["U"] += H[:-1].reshape(T * B, n).T @ dHP
        self.grads["b_in"][:2 * n] += db_rec[:2 * n]
        self.grads["b_in"][2 * n:] += dAh.sum(axis=0)
        self.grads["b_rec"] += db_rec
        dx = dZR @ W[:, :2 * n].T
        dx += dAh @ W[:, 2 * n:].T
        return dx.reshape(T, B, -1).transpose(1, 0, 2)


class LSTM(Layer):
    """Standard 4-gate LSTM (input, forget, cell, output); forget-gate bias
    initialized to one. Parameter count: 4*(U*(I + U) + U)."""

    def __init__(self, in_dim, units, rng, return_sequences=False,
                 kernel_l1=0.0, kernel_l2=0.0,
                 recurrent_l1=0.0, recurrent_l2=0.0):
        super().__init__()
        self.units = units
        self.return_sequences = return_sequences
        self.params["W"] = glorot_uniform(rng, (in_dim, 4 * units), in_dim, units)
        self.params["U"] = glorot_uniform(rng, (units, 4 * units), units, units)
        b = np.zeros(4 * units)
        b[units:2 * units] = 1.0
        self.params["b"] = b
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        if kernel_l1 or kernel_l2:
            self.reg["W"] = (kernel_l1, kernel_l2)
        if recurrent_l1 or recurrent_l2:
            self.reg["U"] = (recurrent_l1, recurrent_l2)

    def forward(self, x, mask=None, training=False):
        W, U = self.params["W"], self.params["U"]
        if x.ndim != 3 or x.shape[2] != W.shape[0]:
            raise ShapeMismatch(f"lstm expects (B, T, {W.shape[0]}), got {x.shape}")
        B, T, _ = x.shape
        n = self.units
        pad = _padded_steps(mask, B, T)
        xt, Xp = _project(x, W, self.params["b"])
        # sigmoid(a) = 0.5 * tanh(a / 2) + 0.5, so one tanh serves all four
        # gates: the i, f and o blocks are scaled by 1/2 around it, g by 1
        scale = np.full(4 * n, 0.5)
        scale[2 * n:3 * n] = 1.0
        shift = 1.0 - scale
        H = np.empty((T + 1, B, n))
        C = np.empty((T + 1, B, n))
        H[0] = 0.0
        C[0] = 0.0
        A = np.empty((T, B, 4 * n))       # gate activations i, f, g, o
        TC = np.empty((T, B, n))          # tanh of the updated cell
        a = np.empty((B, 4 * n))
        for t in range(T):
            gates, c = A[t], C[t + 1]
            np.matmul(H[t], U, out=a)
            a += Xp[t]
            np.multiply(a, scale, out=gates)
            np.tanh(gates, out=gates)
            gates *= scale
            gates += shift
            np.multiply(gates[:, n:2 * n], C[t], out=c)
            c += gates[:, :n] * gates[:, 2 * n:3 * n]
            np.tanh(c, out=TC[t])
            np.multiply(gates[:, 3 * n:], TC[t], out=H[t + 1])
            if pad is not None:
                np.copyto(H[t + 1], H[t], where=pad[t])
                np.copyto(c, C[t], where=pad[t])
        self._cache = (xt, H, C, A, TC, pad)
        self.mask_out = mask if self.return_sequences else None
        return H[1:].transpose(1, 0, 2) if self.return_sequences else H[T]

    def backward(self, dy):
        xt, H, C, A, TC, pad = self._cache
        UT = self.params["U"].T
        T, B, n = TC.shape
        dA = np.empty((T, B, 4 * n))      # gradient at the gate pre-activations
        if self.return_sequences:
            dyt = dy.transpose(1, 0, 2)
            dh = np.zeros((B, n))
        else:
            dh = np.array(dy, dtype=np.float64)
        dc = np.zeros((B, n))
        for t in range(T - 1, -1, -1):
            if self.return_sequences:
                dh += dyt[t]
            if pad is None:
                dh_eff, dc_eff = dh, dc
            else:
                dh_eff = np.where(pad[t], 0.0, dh)
                dc_eff = np.where(pad[t], 0.0, dc)
            gates, tc, da = A[t], TC[t], dA[t]
            i, f, g, o = (gates[:, k * n:(k + 1) * n] for k in range(4))
            dc_new = dh_eff * o
            dc_new *= 1.0 - tc * tc
            dc_new += dc_eff
            np.multiply(dc_new, g, out=da[:, :n])
            np.multiply(dc_new, C[t], out=da[:, n:2 * n])
            np.multiply(dc_new, i, out=da[:, 2 * n:3 * n])
            np.multiply(dh_eff, tc, out=da[:, 3 * n:])
            # sigmoid' = s (1 - s) on i, f, o; tanh' = 1 - g^2 on g
            local = gates * (1.0 - gates)
            np.subtract(1.0, g * g, out=local[:, 2 * n:3 * n])
            da *= local
            dh_prev = da @ UT
            dc_new *= f
            if pad is not None:
                np.copyto(dh_prev, dh, where=pad[t])
                np.copyto(dc_new, dc, where=pad[t])
            dh, dc = dh_prev, dc_new
        dA = dA.reshape(T * B, 4 * n)
        self.grads["W"] += xt.T @ dA
        self.grads["U"] += H[:-1].reshape(T * B, n).T @ dA
        self.grads["b"] += dA.sum(axis=0)
        dx = dA @ self.params["W"].T
        return dx.reshape(T, B, -1).transpose(1, 0, 2)


def reverse_valid(x, mask):
    """Reverse each sample's valid prefix along time, leaving padding in
    place. With mask=None the whole axis is reversed."""
    if mask is None:
        return x[:, ::-1]
    B, T = mask.shape
    lengths = mask.sum(axis=1).astype(np.int64)
    t_idx = np.arange(T)[None, :]
    rev = np.where(t_idx < lengths[:, None], lengths[:, None] - 1 - t_idx, t_idx)
    return x[np.arange(B)[:, None], rev]


class Bidirectional(Layer):
    """Runs two copies of a recurrent layer, one over the sequence as given
    and one over the reversed valid region; outputs are concatenated."""

    def __init__(self, forward_layer, backward_layer):
        super().__init__()
        if forward_layer.return_sequences != backward_layer.return_sequences:
            raise ShapeMismatch("wrapped layers disagree on return_sequences")
        self.fwd = forward_layer
        self.bwd = backward_layer
        self.return_sequences = forward_layer.return_sequences

    def children(self):
        return [("fwd", self.fwd), ("bwd", self.bwd)]

    def forward(self, x, mask=None, training=False):
        self._mask = mask
        y_f = self.fwd.forward(x, mask=mask, training=training)
        y_b = self.bwd.forward(reverse_valid(x, mask), mask=mask, training=training)
        if self.return_sequences:
            y_b = reverse_valid(y_b, mask)
        self.mask_out = mask if self.return_sequences else None
        return np.concatenate([y_f, y_b], axis=-1)

    def backward(self, dy):
        n = self.fwd.units
        dy_f, dy_b = dy[..., :n], dy[..., n:]
        dx = self.fwd.backward(dy_f)
        if self.return_sequences:
            dy_b = reverse_valid(dy_b, self._mask)
        dx_b = self.bwd.backward(dy_b)
        return dx + reverse_valid(dx_b, self._mask)
