import os

import numpy as np
import pytest

from fehforge.nn.losses import weighted_mse
from fehforge.zoo import build


def numeric_model_grads(model, X, mask, y, w, entries, h=1e-6):
    """Central-difference loss gradients for selected parameter entries.

    entries: list of (param_name, flat_index). Returns array of numeric
    gradients in the same order.
    """
    def loss_at():
        pred = model.forward(X, mask=mask, training=True)
        loss, _ = weighted_mse(pred, y, w)
        return loss

    params = {name: layer.params[key]
              for name, layer, key in model.named_params()}
    out = np.empty(len(entries))
    for j, (name, idx) in enumerate(entries):
        flat = params[name].reshape(-1)
        orig = flat[idx]
        flat[idx] = orig + h
        hi = loss_at()
        flat[idx] = orig - h
        lo = loss_at()
        flat[idx] = orig
        out[j] = (hi - lo) / (2 * h)
    return out


def check_model_gradients(spec, input_shape, seed=0, batch=3,
                          per_param=3, h=1e-6, tol=1e-4):
    """Build the model in float64, backprop once, and compare against
    central differences on a few entries of every parameter array: h and
    tol are set for float64 arithmetic.

    Returns the worst relative error observed.
    """
    model = build(spec, input_shape, seed=seed, dtype=np.float64)
    rng = np.random.default_rng(seed + 99)
    L, C = input_shape
    X = rng.normal(size=(batch, L, C))
    mask = np.ones((batch, L), dtype=bool)
    mask[0, L - 2:] = False   # exercise the padding path
    y = rng.normal(size=batch)
    w = rng.uniform(0.5, 2.0, size=batch)

    model.zero_grads()
    pred = model.forward(X, mask=mask, training=True)
    _, dpred = weighted_mse(pred, y, w)
    model.backward(dpred.reshape(-1, 1))

    entries, analytic = [], []
    for name, layer, key in model.named_params():
        g = layer.grads[key].reshape(-1)
        take = min(per_param, g.size)
        idx = rng.choice(g.size, size=take, replace=False)
        for i in idx:
            entries.append((name, int(i)))
            analytic.append(g[int(i)])
    analytic = np.array(analytic)
    numeric = numeric_model_grads(model, X, mask, y, w, entries, h=h)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-3)
    rel = np.abs(analytic - numeric) / denom
    worst = float(rel.max())
    assert worst < tol, (
        f"gradient mismatch {worst:.3e} at "
        f"{entries[int(rel.argmax())]}")
    return worst


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def lanes(monkeypatch):
    """lanes(n): a cross-validation after the call trains in n lanes (no more
    than its jobs), as on n CPUs with one OpenBLAS thread each."""
    def set_lanes(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                            raising=False)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    return set_lanes
