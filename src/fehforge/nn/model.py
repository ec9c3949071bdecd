"""Composite blocks and the trainable model wrapper."""
from __future__ import annotations

import numpy as np

from .layers import Dropout, Layer


class Sequential(Layer):
    def __init__(self, layers):
        super().__init__()
        self.layers = list(layers)

    def children(self):
        return [(str(i), l) for i, l in enumerate(self.layers)]

    def forward(self, x, mask=None, training=False):
        for layer in self.layers:
            x = layer.forward(x, mask=mask, training=training)
            mask = layer.mask_out
        self.mask_out = mask
        return x

    def backward(self, dy):
        for layer in reversed(self.layers):
            dy = layer.backward(dy)
        return dy


class ResidualBlock(Layer):
    """Three conv blocks plus a skip path; output is ReLU(skip + body).

    `projection` (a 1x1 conv) is used when the input channel count differs
    from the body's output channels, otherwise the skip is the identity.
    """

    def __init__(self, body_layers, projection=None):
        super().__init__()
        self.body = Sequential(body_layers)
        self.projection = projection

    def children(self):
        kids = [("body", self.body)]
        if self.projection is not None:
            kids.append(("proj", self.projection))
        return kids

    def forward(self, x, mask=None, training=False):
        h = self.body.forward(x, mask=mask, training=training)
        sc = x if self.projection is None else self.projection.forward(
            x, mask=mask, training=training)
        y = np.fmax(0.0, sc + h)
        self._cache = y > 0 if training else None
        self.mask_out = mask
        return y

    def backward(self, dy):
        dy = dy * self._saved()
        dx = self.body.backward(dy)
        if self.projection is None:
            return dx + dy
        return dx + self.projection.backward(dy)


class InceptionModule(Layer):
    """Bottleneck conv feeding parallel convolutions of several kernel
    lengths, plus a maxpool->bottleneck branch; outputs concatenated, then
    batch norm and ReLU."""

    def __init__(self, bottleneck, branches, pool, pool_conv, bn, relu):
        super().__init__()
        self.bottleneck = bottleneck
        self.branches = list(branches)
        self.pool = pool
        self.pool_conv = pool_conv
        self.bn = bn
        self.relu = relu

    def children(self):
        kids = [("bottleneck", self.bottleneck)]
        kids += [(f"branch{i}", b) for i, b in enumerate(self.branches)]
        kids += [("pool_conv", self.pool_conv), ("bn", self.bn)]
        return kids

    def forward(self, x, mask=None, training=False):
        z = self.bottleneck.forward(x, mask=mask, training=training)
        outs = [b.forward(z, mask=mask, training=training) for b in self.branches]
        p = self.pool.forward(x, mask=mask, training=training)
        outs.append(self.pool_conv.forward(p, mask=None, training=training))
        self._splits = np.cumsum([o.shape[-1] for o in outs])[:-1]
        cat = np.concatenate(outs, axis=-1)
        s = self.bn.forward(cat, mask=mask, training=training)
        y = self.relu.forward(s, mask=mask, training=training)
        self.mask_out = mask
        return y

    def backward(self, dy):
        dy = self.relu.backward(dy)
        dcat = self.bn.backward(dy)
        parts = np.split(dcat, self._splits, axis=-1)
        dz = sum(b.backward(parts[i]) for i, b in enumerate(self.branches))
        dx = self.bottleneck.backward(dz)
        dx = dx + self.pool.backward(self.pool_conv.backward(parts[-1]))
        return dx


class InceptionResidualBlock(Layer):
    """Three inception modules with a conv+BN shortcut from the block input."""

    def __init__(self, modules, shortcut_conv, shortcut_bn):
        super().__init__()
        self.modules = list(modules)
        self.shortcut_conv = shortcut_conv
        self.shortcut_bn = shortcut_bn

    def children(self):
        kids = [(f"mod{i}", m) for i, m in enumerate(self.modules)]
        kids += [("sc_conv", self.shortcut_conv), ("sc_bn", self.shortcut_bn)]
        return kids

    def forward(self, x, mask=None, training=False):
        h = x
        for mod in self.modules:
            h = mod.forward(h, mask=mask, training=training)
        sc = self.shortcut_bn.forward(
            self.shortcut_conv.forward(x, mask=mask, training=training),
            mask=mask, training=training)
        y = np.fmax(0.0, sc + h)
        self._cache = y > 0 if training else None
        self.mask_out = mask
        return y

    def backward(self, dy):
        dy = dy * self._saved()
        dh = dy
        for mod in reversed(self.modules):
            dh = mod.backward(dh)
        dsc = self.shortcut_conv.backward(self.shortcut_bn.backward(dy))
        return dh + dsc


def iter_leaves(layer, prefix=""):
    """Yield (path, leaf_layer) for every parameterized or stateful leaf."""
    kids = layer.children()
    if not kids:
        yield prefix or "root", layer
        return
    for name, child in kids:
        yield from iter_leaves(child, f"{prefix}/{name}" if prefix else name)


class Model:
    """Top-level wrapper: a root layer plus bookkeeping for optimization,
    regularization, dropout seeding and parameter snapshots."""

    def __init__(self, root, input_shape=None, spec=None):
        self.root = root
        self.input_shape = input_shape
        self.spec = spec

    def forward(self, x, mask=None, training=False):
        return self.root.forward(np.asarray(x, dtype=np.float64),
                                 mask=mask, training=training)

    def backward(self, dy):
        return self.root.backward(dy)

    def named_params(self):
        for path, leaf in iter_leaves(self.root):
            for key in leaf.params:
                yield f"{path}.{key}", leaf, key

    def param_count(self):
        return self.root.param_count()

    def zero_grads(self):
        for _, leaf, key in self.named_params():
            leaf.grads[key].fill(0.0)

    def reg_penalty(self):
        total = 0.0
        for _, leaf in iter_leaves(self.root):
            for key, (l1, l2) in leaf.reg.items():
                p = leaf.params[key]
                if l1:
                    total += l1 * np.abs(p).sum()
                if l2:
                    total += l2 * (p * p).sum()
        return total

    def add_reg_grads(self):
        for _, leaf in iter_leaves(self.root):
            for key, (l1, l2) in leaf.reg.items():
                p = leaf.params[key]
                if l1:
                    leaf.grads[key] += l1 * np.sign(p)
                if l2:
                    leaf.grads[key] += 2.0 * l2 * p

    def seed_dropout(self, seed):
        """Deterministically reseed every dropout layer from one root seed."""
        ss = np.random.SeedSequence(seed)
        drops = [leaf for _, leaf in iter_leaves(self.root)
                 if isinstance(leaf, Dropout)]
        for leaf, child_ss in zip(drops, ss.spawn(max(len(drops), 1))):
            leaf.rng = np.random.default_rng(child_ss)

    def get_state(self):
        """Copy of all parameters and batch-norm running statistics."""
        state = {}
        for path, leaf in iter_leaves(self.root):
            for key, p in leaf.params.items():
                state[f"{path}.{key}"] = p.copy()
            if hasattr(leaf, "running_mean"):
                state[f"{path}.running_mean"] = leaf.running_mean.copy()
                state[f"{path}.running_var"] = leaf.running_var.copy()
        return state

    def set_state(self, state):
        for path, leaf in iter_leaves(self.root):
            for key in leaf.params:
                leaf.params[key][...] = state[f"{path}.{key}"]
            if hasattr(leaf, "running_mean"):
                leaf.running_mean[...] = state[f"{path}.running_mean"]
                leaf.running_var[...] = state[f"{path}.running_var"]
