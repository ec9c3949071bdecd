import numpy as np
import pytest

from fehforge.errors import InvalidConfig
from fehforge.nn import Adam, weighted_mse
from fehforge.nn.model import iter_leaves
from fehforge.zoo import (KINDS, ModelSpec, build, build_default,
                          layer_param_counts)
from tests.test_acceptance import TINY_SPECS


@pytest.mark.parametrize("kind", KINDS)
def test_build_forward_shape(kind):
    model = build(build_default(kind), (24, 2), seed=0)
    x = np.random.default_rng(1).normal(size=(4, 24, 2))
    mask = np.ones((4, 24), dtype=bool)
    mask[0, 20:] = False
    out = model.forward(x, mask=mask, training=False)
    assert out.shape == (4, 1)
    assert np.all(np.isfinite(out))


def _float_arrays(cache):
    """The float arrays in a layer's cache, through nested tuples."""
    if isinstance(cache, tuple):
        for item in cache:
            yield from _float_arrays(item)
    elif isinstance(cache, np.ndarray) and cache.dtype.kind == "f":
        yield cache


@pytest.mark.parametrize("kind", list(TINY_SPECS))
def test_float32_model_stays_float32(kind):
    # one training step of the default float32 model, on a float64 input
    # with a padded row and dropout on: no array upcasts to float64
    model = build(TINY_SPECS[kind].with_overrides(0.2), (16, 2), seed=0)
    opt = Adam(model)
    rng = np.random.default_rng(8)
    X = rng.normal(size=(4, 16, 2))
    mask = np.ones((4, 16), dtype=bool)
    mask[1, 11:] = False
    model.zero_grads()
    pred = model.forward(X, mask=mask, training=True)
    _, dpred = weighted_mse(pred, rng.normal(size=4), np.ones(4))
    arrays = {"input gradient": model.backward(dpred.reshape(-1, 1))}
    # the float arrays each layer keeps for its backward: its work buffers
    for path, leaf in iter_leaves(model.root):
        arrays.update({f"{path} cache {i}": arr
                       for i, arr in enumerate(_float_arrays(leaf._cache))})
    model.add_reg_grads()
    opt.step()
    arrays.update({"training output": pred,
                   "inference output": model.forward(X, mask=mask)})
    # parameters and batch-norm running statistics, gradients, moments
    arrays.update(model.get_state())
    for name, leaf, key in model.named_params():
        arrays.update({f"{name} grad": leaf.grads[key],
                       f"{name} m": opt.m[name], f"{name} v": opt.v[name]})
    assert any("running_var" in name for name in arrays) == (
        TINY_SPECS[kind].kind in ("fcn", "resnet", "inception", "convlstm", "convgru"))
    assert {name: arr.dtype for name, arr in arrays.items()
            if arr.dtype != np.float32} == {}


@pytest.mark.parametrize("kind", ["lstm", "bilstm", "gru", "bigru"])
def test_recurrent_predictions_ignore_holes_in_the_mask(kind):
    # rows whose mask has holes predict as the same rows with the holes
    # squeezed out: valid steps first, then padding
    B, T = 6, 30
    rng = np.random.default_rng(4)
    model = build(build_default(kind), (T, 2), seed=0)
    x = rng.normal(size=(B, T, 2))
    mask = rng.random((B, T)) < 0.7
    mask[:, 0] = True
    squeezed, squeezed_mask = np.zeros_like(x), np.zeros_like(mask)
    for i, valid in enumerate(mask):
        squeezed[i, :valid.sum()] = x[i, valid]
        squeezed_mask[i, :valid.sum()] = True
    np.testing.assert_allclose(model.forward(x, mask=mask),
                               model.forward(squeezed, mask=squeezed_mask),
                               rtol=0, atol=1e-12)


def test_gru_layer_param_counts_match_published_table():
    model = build(build_default("gru"), (100, 2), seed=0)
    assert layer_param_counts(model) == [1440, 1824, 624, 9]
    assert model.param_count() == 3897


def test_bidirectional_doubles_recurrent_params():
    uni = build(build_default("gru"), (50, 2), seed=0)
    bi = build(build_default("bigru"), (50, 2), seed=0)
    # every recurrent layer doubles; the head grows with the wider input
    uni_counts = layer_param_counts(uni)
    bi_counts = layer_param_counts(bi)
    assert bi_counts[0] == 2 * uni_counts[0]
    assert len(bi_counts) == len(uni_counts)


def test_build_deterministic_for_seed():
    a = build(build_default("fcn"), (30, 2), seed=9)
    b = build(build_default("fcn"), (30, 2), seed=9)
    for (n1, l1, k1), (n2, l2, k2) in zip(a.named_params(), b.named_params()):
        assert n1 == n2
        np.testing.assert_array_equal(l1.params[k1], l2.params[k2])
    c = build(build_default("fcn"), (30, 2), seed=10)
    diff = any(not np.array_equal(l1.params[k1], l3.params[k3])
               for (n1, l1, k1), (n3, l3, k3)
               in zip(a.named_params(), c.named_params()))
    assert diff


def test_spec_json_roundtrip_and_hash():
    spec = build_default("convlstm")
    clone = ModelSpec.from_json(spec.to_json())
    assert clone == spec
    assert clone.spec_hash() == spec.spec_hash()
    other = build_default("convgru")
    assert other.spec_hash() != spec.spec_hash()


def test_spec_dropout_override():
    spec = build_default("lstm", units=[20, 16, 8], dropout=[0.2, 0.2, 0.1])
    flat = spec.with_overrides(dropout=0.5)
    assert flat.options["dropout"] == [0.5, 0.5, 0.5]
    assert flat.options["units"] == [20, 16, 8]
    assert spec.options["dropout"] == [0.2, 0.2, 0.1]   # original untouched


def test_recurrent_regularization_tags():
    def regs(kind):
        model = build(build_default(kind), (20, 2), seed=0)
        return {path: leaf.reg for path, leaf in iter_leaves(model.root)
                if leaf.reg}

    # unidirectional: l2 on the input kernel, l1 on the recurrent kernel
    uni = {"W": (0.0, 2e-6), "U": (2e-6, 0.0)}
    assert regs("gru") == {"0": uni, "2": uni, "4": uni}
    # bidirectional: l1 on both kernels of both directions
    bi = {"W": (2e-6, 0.0), "U": (2e-6, 0.0)}
    assert regs("bigru") == {f"{i}/{d}": bi for i in (0, 2, 4)
                             for d in ("0", "1")}
    assert regs("fcn") == {}        # conv stacks carry no penalty


def test_state_roundtrip_changes_then_restores():
    model = build(build_default("resnet"), (16, 2), seed=0)
    x = np.random.default_rng(0).normal(size=(2, 16, 2))
    state = model.get_state()
    before = model.forward(x, training=False).copy()
    for _, leaf, key in model.named_params():
        leaf.params[key] += 0.05
    assert not np.allclose(model.forward(x, training=False), before)
    model.set_state(state)
    np.testing.assert_array_equal(model.forward(x, training=False), before)
    # a state array that the model does not use, one missing, one misshapen
    with pytest.raises(ValueError, match="not the model's"):
        model.set_state(dict(state, **{"extra.W": np.zeros(3)}))
    with pytest.raises(KeyError):
        model.set_state({k: v for k, v in state.items() if k != "0/0/0.W"})
    with pytest.raises(ValueError, match="has shape"):
        model.set_state(dict(state, **{"0/0/0.W": np.zeros(3)}))
    # and one of another dtype, which would otherwise be cast silently
    with pytest.raises(ValueError, match="dtype float64"):
        model.set_state(dict(state, **{"0/0/0.W": state["0/0/0.W"].astype(np.float64)}))


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        build(ModelSpec("transformer", {}), (10, 2))
    with pytest.raises(InvalidConfig):
        build_default("vanilla")
    with pytest.raises(InvalidConfig):
        build_default("gru", unit=[6])
    with pytest.raises(InvalidConfig):
        build_default("convgru", units=[6], dropout=[0.1, 0.1])


# spec hashes of the default specs: a snapshot stores its spec's hash, so
# these must not change while old snapshots are to restore
DEFAULT_SPEC_HASHES = {
    "fcn": "67284f14549af4121e0a609b6d2fece33a09c01d3a80e0460dce213bef583a24",
    "resnet": "a5879a376218c175068e5dda4bf7db5f47534e385a59ca7915a60489e45bd5a8",
    "inception": "b754746fa5869934aaf1b9bf68f1cc0d15e0ddd608cd51c9c15cd5dc9ce15538",
    "lstm": "2840177cd00da6fa1820a48da15e8cb8f461a4158d31698b9317c5483b4499f8",
    "bilstm": "09f5b81cb16ebc93251278b945b402d8545c45427d3d33eee02a2efe37ada99b",
    "gru": "8b05f61098bf73a6d39a84b614c632e28b88ef022a9b2cc2e350c8e725b99709",
    "bigru": "951eeb073dba7e752cc4286a1789fd6915d9878ea7160abd380c0a8093222c95",
    "convlstm": "66ca7b12209f5ab9945c9b428656c2823a23743b956455f789c2928c1418973d",
    "convgru": "cefe8363aaf90349765ecd88f28c19a74d67214c08ca08111eb84d0825c8dc97",
}


def test_default_spec_hashes_unchanged():
    assert tuple(DEFAULT_SPEC_HASHES) == KINDS
    assert {kind: build_default(kind).spec_hash()
            for kind in KINDS} == DEFAULT_SPEC_HASHES


def test_seed_dropout_reproducible():
    spec = build_default("gru")
    outs = []
    for _ in range(2):
        model = build(spec, (20, 2), seed=4)
        model.seed_dropout(11)
        x = np.random.default_rng(2).normal(size=(3, 20, 2))
        outs.append(model.forward(x, training=True).copy())
    np.testing.assert_array_equal(outs[0], outs[1])
