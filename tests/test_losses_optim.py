import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fehforge.errors import NonPositiveWeightSum
from fehforge.nn.layers import Dense
from fehforge.nn.losses import weighted_mse
from fehforge.nn.model import Model, Sequential
from fehforge.nn.optim import Adam


def test_mse_unweighted():
    loss, grad = weighted_mse([1.0, 2.0, 4.0], [1.0, 2.0, 3.0], np.ones(3))
    assert loss == pytest.approx(1.0 / 3.0)
    np.testing.assert_allclose(grad, [0.0, 0.0, 2.0 / 3.0])


def test_weighted_mse_matches_definition(rng):
    pred = rng.normal(size=10)
    target = rng.normal(size=10)
    w = rng.uniform(0.1, 3.0, size=10)
    loss, grad = weighted_mse(pred, target, w)
    err = pred - target
    assert loss == pytest.approx((w * err ** 2).sum() / w.sum())
    np.testing.assert_allclose(grad, 2 * w * err / w.sum())


def test_weighted_mse_gradient_numeric(rng):
    pred = rng.normal(size=6)
    target = rng.normal(size=6)
    w = rng.uniform(0.5, 2.0, size=6)
    _, grad = weighted_mse(pred, target, w)
    h = 1e-7
    for i in range(6):
        p = pred.copy()
        p[i] += h
        hi, _ = weighted_mse(p, target, w)
        p[i] -= 2 * h
        lo, _ = weighted_mse(p, target, w)
        assert grad[i] == pytest.approx((hi - lo) / (2 * h), rel=1e-5, abs=1e-9)


def test_weight_scale_invariance(rng):
    pred, target = rng.normal(size=8), rng.normal(size=8)
    w = rng.uniform(0.1, 2.0, size=8)
    l1, g1 = weighted_mse(pred, target, w)
    l2, g2 = weighted_mse(pred, target, 17.0 * w)
    assert l1 == pytest.approx(l2, rel=1e-12)
    np.testing.assert_allclose(g1, g2, rtol=1e-12)


def test_nonpositive_weights():
    with pytest.raises(NonPositiveWeightSum):
        weighted_mse([1.0], [0.0], [0.0])
    with pytest.raises(NonPositiveWeightSum):
        weighted_mse([1.0, 2.0], [0.0, 0.0], [1.0, -2.0])


def _tiny_model(rng):
    return Model(Sequential([Dense(3, 4, rng), Dense(4, 1, rng)]),
                 input_shape=(3,))


def test_adam_first_step_is_lr_sized(rng):
    # with fresh moments, |update| == lr * g / (|g| + eps) ~= lr in magnitude
    model = _tiny_model(rng)
    opt = Adam(model, learning_rate=0.05)
    before = {n: l.params[k].copy() for n, l, k in model.named_params()}
    for _, leaf, key in model.named_params():
        leaf.grads[key][...] = rng.normal(size=leaf.grads[key].shape)
    opt.step()
    for name, leaf, key in model.named_params():
        delta = np.abs(leaf.params[key] - before[name])
        g = np.abs(leaf.grads[key])
        mask = g > 1e-3
        np.testing.assert_allclose(delta[mask], 0.05, rtol=1e-3)


def test_adam_converges_on_quadratic(rng):
    # minimise ||Wx - y||^2 over a fixed batch; Adam should reach a tiny loss
    model = _tiny_model(rng)
    opt = Adam(model, learning_rate=0.05)
    X = rng.normal(size=(32, 3))
    y = (X @ rng.normal(size=3)).reshape(-1)
    losses = []
    for _ in range(400):
        model.zero_grads()
        pred = model.forward(X, training=True)
        loss, dpred = weighted_mse(pred, y, np.ones(32))
        model.backward(dpred.reshape(-1, 1))
        opt.step()
        losses.append(loss)
    assert losses[-1] < 1e-4
    assert losses[-1] < losses[0]


def test_adam_deterministic(rng):
    results = []
    for _ in range(2):
        r = np.random.default_rng(5)
        model = _tiny_model(r)
        opt = Adam(model, learning_rate=0.01)
        X = r.normal(size=(8, 3))
        y = r.normal(size=8)
        for _ in range(10):
            model.zero_grads()
            pred = model.forward(X, training=True)
            _, dpred = weighted_mse(pred, y, np.ones(8))
            model.backward(dpred.reshape(-1, 1))
            opt.step()
        results.append(model.forward(X).copy())
    np.testing.assert_array_equal(results[0], results[1])


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=1, max_size=20))
def test_mse_zero_at_perfect_prediction(values):
    loss, grad = weighted_mse(values, values, np.ones(len(values)))
    assert loss == 0.0
    np.testing.assert_array_equal(grad, 0.0)
