"""Recurrent layers with full backpropagation through time.

The GRU uses the reset-after gate formulation with separate input and
recurrent bias vectors, so a layer with U units on I input channels holds
3*U*(I + U + 2) trainable parameters. Update convention:

    z = sigmoid(x Wz + bz_in + h Uz + bz_rec)
    r = sigmoid(x Wr + br_in + h Ur + br_rec)
    hh = tanh(x Wh + bh_in + r * (h Uh + bh_rec))
    h' = z * h + (1 - z) * hh

Masked timesteps leave the hidden (and cell) state unchanged, so appending
padded steps never changes the final state or its gradients. Any validity
mask works, not only valid steps first: a hole is skipped as padding is.
A `go_backwards=True` layer reads the sequence and its mask reversed in
time, as Keras's `go_backwards` does: there the padded steps come first,
and the carry skips them. With `return_sequences` it hands its output
back in input order, as Keras's `Bidirectional` does before it merges
(Keras's standalone `go_backwards` layer hands it back reversed). A
bidirectional layer is `Concat([cell, cell(go_backwards=True)])`.

GRU and LSTM share one time-major loop each way, in `_Recurrent`, over T
steps of a batch of B:

  - the inputs are projected once, x W + b, into a contiguous (T, B, k*U)
    array, so step t reads the slab Xp[t];
  - the states live in one array S (states, T+1, B, U), H first and the
    LSTM's C second, with S[:, 0] = 0: step t reads S[:, t], writes S[:, t+1];
  - the padded-step carry is written once each way, from one time-major
    (T, B, 1) array of padded steps (None when every step is valid):
    forward, a padded step copies S[:, t] on; backward, the state gradients
    going into it are zeroed and the ones coming out are the ones that came in;
  - backward adds dy to the H gradient (at every step with return_sequences,
    once before the loop otherwise) and swaps two (states, B, U) buffers.

Each cell supplies its biases, its per-step caches, one step each way and
its weight-gradient tail. Its sigmoid is 0.5 * (1 + tanh(x / 2)), with no
branch, one call per step on the block of sigmoid gates (the LSTM takes one
tanh over all four gates, scaled so i, f and o come out as sigmoids). The
steps write caches and gate gradients in place into (T, B, .) arrays, and
the tail forms the weight, bias and input gradients with GEMMs over the T*B
rows (the GRU's z/r and candidate blocks are used apart, not copied).

Against the plain per-step formulation (masked-index sigmoid, per-step
gradient accumulation), which tests/test_recurrent.py keeps as its
reference, outputs and all gradients agree to within 1e-12 absolute on
the test shapes; the difference is rounding, from the sigmoid form and
the order of summation. Reruns are bit-identical.
"""
from __future__ import annotations

import numpy as np

from ..errors import ShapeMismatch
from .layers import Layer, _colsum, glorot_uniform


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


class _Recurrent(Layer):
    """The masked time loop. A cell sets `gates`, `states` and `in_bias`, the
    bias in the input projection; supplies `_biases`, `_begin`, `_step`,
    `_grad_buffers`, `_step_back` and `_tail`; and binds `forward, backward =
    _Recurrent._loop, _Recurrent._loop_back` in its own namespace, since the
    bench tracer wraps only the methods that a public class defines itself."""

    def __init__(self, in_dim, units, rng, return_sequences=False,
                 go_backwards=False, kernel_l1=0.0, kernel_l2=0.0,
                 recurrent_l1=0.0):
        super().__init__()
        self.units = units
        self.return_sequences = return_sequences
        # the loop's order of time steps: last first for go_backwards
        self._order = slice(None, None, -1 if go_backwards else 1)
        width = self.gates * units
        self.params["W"] = glorot_uniform(rng, (in_dim, width), in_dim, units)
        self.params["U"] = glorot_uniform(rng, (units, width), units, units)
        self.params.update(self._biases(units))
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        if kernel_l1 or kernel_l2:
            self.reg["W"] = (kernel_l1, kernel_l2)
        if recurrent_l1:
            self.reg["U"] = (recurrent_l1, 0.0)

    def _loop(self, x, mask=None, training=False):
        W = self.params["W"]
        if x.ndim != 3 or x.shape[2] != W.shape[0]:
            raise ShapeMismatch(f"{type(self).__name__.lower()} expects "
                                f"(B, T, {W.shape[0]}), got {x.shape}")
        B, T, _ = x.shape
        x = x[:, self._order]
        pad = _padded_steps(mask, B, T)
        pad = None if pad is None else pad[self._order]
        xt, Xp = _project(x, W, self.params[self.in_bias])
        S = np.empty((self.states, T + 1, B, self.units), dtype=W.dtype)
        S[:, 0] = 0.0
        work = self._begin(T, B, W.dtype)
        for t in range(T):
            self._step(t, Xp[t], S[:, t], S[:, t + 1], work)
            if pad is not None:
                np.copyto(S[:, t + 1], S[:, t], where=pad[t])
        self._cache = (xt, S, work, pad) if training else None
        y = (S[0, 1:].transpose(1, 0, 2)[:, self._order] if self.return_sequences
             else S[0, T])
        return y if pad is None else y.copy()   # S is cached; Sequential zeroes y

    def _loop_back(self, dy):
        xt, S, work, pad = self._saved()
        T, B, n = S.shape[1] - 1, S.shape[2], self.units
        dS = np.zeros((self.states, B, n), S.dtype)   # state gradients after step t
        dS_prev = np.empty_like(dS)                   # and before it
        if self.return_sequences:
            dyt = dy[:, self._order].transpose(1, 0, 2)
        else:
            dS[0] = dy
        dwork = self._grad_buffers(T, B, S.dtype)
        for t in range(T - 1, -1, -1):
            if self.return_sequences:
                dS[0] += dyt[t]
            d_in = dS if pad is None else np.where(pad[t], 0.0, dS)
            self._step_back(t, S, work, dwork, d_in, dS_prev)
            if pad is not None:
                np.copyto(dS_prev, dS, where=pad[t])
            dS, dS_prev = dS_prev, dS
        dx = self._tail(xt, S[0, :-1].reshape(T * B, n), dwork)
        return dx.reshape(T, B, -1).transpose(1, 0, 2)[:, self._order]


class GRU(_Recurrent):
    gates, states, in_bias = 3, 1, "b_in"
    forward, backward = _Recurrent._loop, _Recurrent._loop_back

    def _biases(self, n):
        return {"b_in": np.zeros(3 * n), "b_rec": np.zeros(3 * n)}

    def _begin(self, T, B, dtype):
        n = self.units
        return (np.empty((T, B, 2 * n), dtype),    # update and reset gates
                np.empty((T, B, n), dtype),        # candidate state
                np.empty((T, B, n), dtype),        # h Uh + bh_rec
                np.empty((B, 3 * n), dtype))       # h U + b_rec of the current step

    def _step(self, t, xp, s, s_new, work):
        ZR, HH, HPh, hp = work
        n = self.units
        h, zr, hh, h_new = s[0], ZR[t], HH[t], s_new[0]
        np.matmul(h, self.params["U"], out=hp)
        hp += self.params["b_rec"]
        np.add(xp[:, :2 * n], hp[:, :2 * n], out=zr)
        _sigmoid(zr, out=zr)
        HPh[t] = hp[:, 2 * n:]
        np.multiply(zr[:, n:], HPh[t], out=hh)
        hh += xp[:, 2 * n:]
        np.tanh(hh, out=hh)
        # z * h + (1 - z) * hh
        np.subtract(h, hh, out=h_new)
        h_new *= zr[:, :n]
        h_new += hh

    def _grad_buffers(self, T, B, dtype):
        n = self.units
        return (np.empty((T, B, 3 * n), dtype),    # gradient at h U + b_rec
                np.empty((T, B, n), dtype))        # at the candidate's pre-activation

    def _step_back(self, t, S, work, dwork, d_in, d_out):
        ZR, HH, HPh, _ = work
        dHP, dAh = dwork
        n = self.units
        dcand, dh_prev = d_in[0], d_out[0]
        zr, hh, da_h, dzr = ZR[t], HH[t], dAh[t], dHP[t, :, :2 * n]
        np.multiply(dcand, zr[:, :n], out=dh_prev)
        np.subtract(dcand, dh_prev, out=da_h)         # dcand * (1 - z)
        da_h *= 1.0 - hh * hh
        np.multiply(dcand, S[0, t] - hh, out=dzr[:, :n])
        np.multiply(da_h, HPh[t], out=dzr[:, n:])
        dzr *= zr * (1.0 - zr)
        np.multiply(da_h, zr[:, n:], out=dHP[t, :, 2 * n:])
        dh_prev += dHP[t] @ self.params["U"].T

    def _tail(self, xt, h_prev, dwork):
        # The gradient at x W + b_in is dHP with its candidate block
        # replaced by dAh; the z and r blocks are shared, not copied.
        n, W = self.units, self.params["W"]
        dHP = dwork[0].reshape(-1, 3 * n)
        dZR = dHP[:, :2 * n]
        dAh = dwork[1].reshape(-1, n)
        db_rec = _colsum(dHP)
        self.grads["W"][:, :2 * n] += xt.T @ dZR
        self.grads["W"][:, 2 * n:] += xt.T @ dAh
        self.grads["U"] += h_prev.T @ dHP
        self.grads["b_in"][:2 * n] += db_rec[:2 * n]
        self.grads["b_in"][2 * n:] += _colsum(dAh)
        self.grads["b_rec"] += db_rec
        dx = dZR @ W[:, :2 * n].T
        dx += dAh @ W[:, 2 * n:].T
        return dx


class LSTM(_Recurrent):
    """Standard 4-gate LSTM (input, forget, cell, output); forget-gate bias
    initialized to one. Parameter count: 4*(U*(I + U) + U)."""

    gates, states, in_bias = 4, 2, "b"
    forward, backward = _Recurrent._loop, _Recurrent._loop_back

    def _biases(self, n):
        return {"b": np.repeat([0.0, 1.0, 0.0, 0.0], n)}    # forget gate at one

    def _begin(self, T, B, dtype):
        n = self.units
        # sigmoid(a) = 0.5 * tanh(a / 2) + 0.5, so one tanh serves all four
        # gates: the i, f and o blocks are scaled by 1/2 around it, g by 1
        scale = np.full(4 * n, 0.5, dtype)
        scale[2 * n:3 * n] = 1.0
        return (np.empty((T, B, 4 * n), dtype),    # gate activations i, f, g, o
                np.empty((T, B, n), dtype),        # tanh of the updated cell
                np.empty((B, 4 * n), dtype), scale, 1.0 - scale)

    def _step(self, t, xp, s, s_new, work):
        A, TC, a, scale, shift = work
        n = self.units
        gates, c = A[t], s_new[1]
        np.matmul(s[0], self.params["U"], out=a)
        a += xp
        np.multiply(a, scale, out=gates)
        np.tanh(gates, out=gates)
        gates *= scale
        gates += shift
        np.multiply(gates[:, n:2 * n], s[1], out=c)
        c += gates[:, :n] * gates[:, 2 * n:3 * n]
        np.tanh(c, out=TC[t])
        np.multiply(gates[:, 3 * n:], TC[t], out=s_new[0])

    def _grad_buffers(self, T, B, dtype):
        return np.empty((T, B, 4 * self.units), dtype)   # at the gate pre-activations

    def _step_back(self, t, S, work, dA, d_in, d_out):
        n = self.units
        gates, tc, da = work[0][t], work[1][t], dA[t]
        i, f, g, o = (gates[:, k * n:(k + 1) * n] for k in range(4))
        dh, dc = d_in
        dc_new = np.multiply(dh, o, out=d_out[1])
        dc_new *= 1.0 - tc * tc
        dc_new += dc
        np.multiply(dc_new, g, out=da[:, :n])
        np.multiply(dc_new, S[1, t], out=da[:, n:2 * n])
        np.multiply(dc_new, i, out=da[:, 2 * n:3 * n])
        np.multiply(dh, tc, out=da[:, 3 * n:])
        # sigmoid' = s (1 - s) on i, f, o; tanh' = 1 - g^2 on g
        local = gates * (1.0 - gates)
        np.subtract(1.0, g * g, out=local[:, 2 * n:3 * n])
        da *= local
        np.matmul(da, self.params["U"].T, out=d_out[0])
        dc_new *= f

    def _tail(self, xt, h_prev, dA):
        dA = dA.reshape(-1, 4 * self.units)
        self.grads["W"] += xt.T @ dA
        self.grads["U"] += h_prev.T @ dA
        self.grads["b"] += _colsum(dA)
        return dA @ self.params["W"].T
