"""Composite blocks and the trainable model wrapper: `Sequential`, and
`Concat` and `Add`, which join branches as Keras's `concatenate` and `add`
do. A residual connection is an `Add` of a body and a shortcut (an empty
`Sequential`: the identity), then a ReLU."""
from __future__ import annotations

import numpy as np

from .layers import Dropout, Layer


def _zero_padded(x, mask):
    """`x` with its padded steps (mask False) set to 0; `x` itself if no mask."""
    return x if mask is None else np.where(mask[..., None], x, 0.0)


class Sequential(Layer):
    """The layers in turn, under the mask rule of `nn.layers`: it hands the
    mask on, and zeroes padded steps in place in each layer's output and in
    the gradient going back into it, `dy` included."""

    def __init__(self, layers):
        super().__init__()
        self.layers = list(layers)

    def children(self):
        return [(str(i), l) for i, l in enumerate(self.layers)]

    def forward(self, x, mask=None, training=False):
        masks = []
        for layer in self.layers:
            y = layer.forward(x, mask=mask, training=training)
            if y.ndim != 3:                        # no (batch, T) axes
                mask = None
            elif mask is not None and y.shape[1] != x.shape[1]:
                mask = layer.valid_windows(mask)
            if mask is not None and y is not x:    # an x handed back is zeroed
                y[~mask] = 0.0
            masks.append(mask)
            x = y
        self._cache = masks if training else None
        return x

    def backward(self, dy):
        for layer, mask in zip(reversed(self.layers), reversed(self._saved())):
            if mask is not None:
                dy[~mask] = 0.0
            dy = layer.backward(dy)
        return dy


class _Branches(Layer):
    """Each branch applied to the same input and mask, the outputs joined;
    backward hands each branch its part of dy and sums the branch
    gradients."""

    def __init__(self, branches):
        super().__init__()
        self.branches = list(branches)

    def children(self):
        return [(str(i), b) for i, b in enumerate(self.branches)]

    def forward(self, x, mask=None, training=False):
        outs = [b.forward(x, mask=mask, training=training) for b in self.branches]
        # the channel offsets of the outputs after the first
        self._cache = np.cumsum([o.shape[-1] for o in outs])[:-1] if training else None
        return self._join(outs)

    def backward(self, dy):
        parts = self._parts(dy, self._saved())
        dx = self.branches[0].backward(parts[0])
        for branch, part in zip(self.branches[1:], parts[1:]):
            dx = dx + branch.backward(part)
        return dx


class Concat(_Branches):
    """The outputs joined on the channel axis; each branch's part of dy is
    its channels."""

    def _join(self, outs):
        return np.concatenate(outs, axis=-1)

    def _parts(self, dy, offsets):
        return np.split(dy, offsets, axis=-1)


class Add(_Branches):
    """The outputs summed; each branch's part of dy is all of it."""

    def _join(self, outs):
        return sum(outs[1:], outs[0])

    def _parts(self, dy, offsets):
        return [dy] * len(self.branches)


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
    regularization, dropout seeding and parameter snapshots. It casts the
    root's state to `dtype`, and each input and output gradient to it."""

    def __init__(self, root, input_shape=None, spec=None, dtype=np.float64):
        self.root = root.astype(dtype)
        self.input_shape = input_shape
        self.spec = spec
        self.dtype = np.dtype(dtype)
        self._mask = None

    def forward(self, x, mask=None, training=False):
        """The root layer's output, in the model's dtype. `x` is cast to it
        once and its padded steps (mask False) zeroed first, so no layer
        reads the padding value; a mask with no padded step is dropped, so
        the unpadded path does no masked work."""
        if mask is not None and mask.all():
            mask = None
        self._mask = mask if training else None
        return self.root.forward(
            _zero_padded(np.asarray(x, dtype=self.dtype), mask),
            mask=mask, training=training)

    def backward(self, dy):
        """The input gradient of `dy`, cast to the model's dtype; 0 at
        padded steps: no output depends on them, since `forward` replaced
        them by 0."""
        return _zero_padded(
            self.root.backward(np.asarray(dy, dtype=self.dtype)), self._mask)

    def named_params(self):
        for path, leaf in iter_leaves(self.root):
            for key in leaf.params:
                yield f"{path}.{key}", leaf, key

    def param_count(self):
        return self.root.param_count()

    def zero_grads(self):
        for _, leaf, key in self.named_params():
            leaf.grads[key].fill(0.0)

    def add_reg_grads(self):
        for _, leaf in iter_leaves(self.root):
            for key, (l1, l2) in leaf.reg.items():
                p = leaf.params[key]
                if l1:
                    leaf.grads[key] += l1 * np.sign(p)
                if l2:
                    leaf.grads[key] += 2.0 * l2 * p

    def seed_dropout(self, seed):
        """Deterministically seed every dropout layer from one root seed."""
        ss = np.random.SeedSequence(seed)
        drops = [leaf for _, leaf in iter_leaves(self.root)
                 if isinstance(leaf, Dropout)]
        for leaf, child_ss in zip(drops, ss.spawn(max(len(drops), 1))):
            leaf.rng = np.random.default_rng(child_ss)

    def _state(self):
        """(name, live array) of every parameter and buffer."""
        for path, leaf in iter_leaves(self.root):
            for key, arr in {**leaf.params, **leaf.buffers}.items():
                yield f"{path}.{key}", arr

    def get_state(self):
        """Copy of all parameters and buffers (batch-norm running
        statistics)."""
        return {name: arr.copy() for name, arr in self._state()}

    def set_state(self, state):
        """Copy in the arrays `get_state` names: KeyError for one missing,
        ValueError for one of another shape or dtype or a name the model
        does not use."""
        live = dict(self._state())
        unknown = sorted(state.keys() - live.keys())
        if unknown:
            raise ValueError(f"state {unknown} is not the model's")
        for name, arr in live.items():
            new = np.asarray(state[name])
            if new.shape != arr.shape or new.dtype != arr.dtype:
                raise ValueError(f"state {name} has shape {new.shape} and "
                                 f"dtype {new.dtype}, not {arr.shape} {arr.dtype}")
            arr[...] = new
