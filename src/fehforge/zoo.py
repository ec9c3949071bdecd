"""The nine regression architectures.

`build_default` returns a kind's `ModelSpec` (a serializable description)
from `DEFAULT_OPTIONS`; `build` materializes a spec into a trainable
`nn.Model` deterministically from a seed.

Regularization follows the published settings: unidirectional recurrent
layers (and the conv hybrids) use kernel l2 = 2e-6 with recurrent l1 = 2e-6;
bidirectional variants use l1 = 2e-6 on both kernel and recurrent weights.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfig
from .nn.layers import (BatchNorm1D, Conv1D, Dense, Dropout,
                        GlobalAveragePool, MaxPool1D, ReLU)
from .nn.model import Add, Concat, Model, Sequential
from .nn.recurrent import GRU, LSTM

SPEC_FORMAT_VERSION = 1

_RECURRENT = ("lstm", "bilstm", "gru", "bigru")
_HYBRID = ("convlstm", "convgru")
_CONV_STACK = {"filters": [128, 256, 128], "kernels": [8, 5, 3]}

# The default options of each kind; a spec's JSON, and so its hash, is its
# kind and options.
DEFAULT_OPTIONS = {
    "fcn": _CONV_STACK,
    "resnet": {"filters": 64, "kernels": [8, 5, 3], "blocks": 3},
    "inception": {"blocks": 2, "modules_per_block": 3,
                  "bottleneck_filters": 32, "branch_filters": 32,
                  "branch_kernels": [10, 20, 40]},
    **{kind: {"units": [20, 16, 8], "dropout": [0.2, 0.2, 0.1]}
       for kind in _RECURRENT},
    **{kind: dict(_CONV_STACK, pool_size=2, units=[20, 16], dropout=[0.2, 0.1])
       for kind in _HYBRID},
}
KINDS = tuple(DEFAULT_OPTIONS)

_L2_KERNEL = 2e-6
_L1_RECURRENT = 2e-6


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    options: dict = field(default_factory=dict)

    def to_json(self):
        return json.dumps({"format_version": SPEC_FORMAT_VERSION,
                           "kind": self.kind, "options": self.options},
                          sort_keys=True)

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        if data.get("format_version") != SPEC_FORMAT_VERSION:
            raise ValueError(f"unsupported spec format {data.get('format_version')}")
        return cls(kind=data["kind"], options=data["options"])

    def spec_hash(self):
        return hashlib.sha256(self.to_json().encode()).hexdigest()

    def with_overrides(self, dropout):
        """A copy in which `dropout`, one rate, replaces every dropout rate
        of the spec (a grid cell's); a kind without dropout is unchanged."""
        opts = dict(self.options)
        if "dropout" in opts:
            opts["dropout"] = [dropout] * len(opts["dropout"])
        return ModelSpec(self.kind, opts)


def build_default(kind, **options):
    """The spec of `kind` with its `DEFAULT_OPTIONS`, each of `options`
    replacing the default of its name; InvalidConfig for an unknown kind or
    option, or for recurrent units and dropout rates of unequal length."""
    if kind not in DEFAULT_OPTIONS:
        raise InvalidConfig(f"unknown model kind {kind!r}; choose from "
                            f"{', '.join(KINDS)}")
    unknown = sorted(set(options) - set(DEFAULT_OPTIONS[kind]))
    if unknown:
        raise InvalidConfig(f"unknown {kind} option(s) {unknown}")
    # through JSON, as a snapshot restores it: tuples become lists
    opts = json.loads(json.dumps(dict(DEFAULT_OPTIONS[kind], **options)))
    if len(opts.get("units", ())) != len(opts.get("dropout", ())):
        raise InvalidConfig("units and dropout must have equal length")
    return ModelSpec(kind, opts)


def _conv_stack(filters, kernels, rng, ch):
    """Conv, batch-norm and ReLU blocks of the given widths and kernels, and
    their output width."""
    layers = []
    for f, k in zip(filters, kernels):
        layers += [Conv1D(ch, f, k, rng), BatchNorm1D(f), ReLU()]
        ch = f
    return layers, ch


def _residual(body, shortcut):
    """A residual connection as Keras writes it, `add([...])` then a ReLU;
    an empty shortcut is the identity."""
    return [Add([Sequential(body), Sequential(shortcut)]), ReLU()]


def _recurrent_head(kind, opts, rng, ch):
    """Stacked recurrent layers of `kind`'s cell, each followed by dropout,
    then the dense output. A bidirectional layer is a `Concat` of a forward
    cell and a `go_backwards` one, drawn from `rng` in that order."""
    cell_cls = LSTM if "lstm" in kind else GRU
    bidirectional = kind.startswith("bi")
    if bidirectional:
        regs = dict(kernel_l1=_L1_RECURRENT, recurrent_l1=_L1_RECURRENT)
    else:
        regs = dict(kernel_l2=_L2_KERNEL, recurrent_l1=_L1_RECURRENT)
    layers = []
    units = opts["units"]
    for i, (u, rate) in enumerate(zip(units, opts["dropout"])):
        cells = [cell_cls(ch, u, rng, return_sequences=i < len(units) - 1,
                          go_backwards=backwards, **regs)
                 for backwards in (False, True)[:1 + bidirectional]]
        layers += [Concat(cells) if bidirectional else cells[0], Dropout(rate)]
        ch = u * len(cells)
    return layers + [Dense(ch, 1, rng)]


def _resnet(opts, rng, ch):
    """Residual blocks of conv blocks; the shortcut is a 1x1 conv where the
    channel count changes, else the identity."""
    f, kernels = opts["filters"], opts["kernels"]
    layers = []
    for _ in range(opts["blocks"]):
        body, _ = _conv_stack([f] * len(kernels), kernels, rng, ch)
        layers += _residual(body, [Conv1D(ch, f, 1, rng)] if ch != f else [])
        ch = f
    return layers, ch


def _inception(opts, rng, ch):
    """Residual blocks of inception modules, each a `Concat` of a bottleneck
    feeding the wide convolutions and of a max pool feeding a 1x1 conv, then
    batch norm and ReLU; the shortcut is a 1x1 conv and batch norm."""
    bf, neck = opts["branch_filters"], opts["bottleneck_filters"]
    out_ch = bf * (len(opts["branch_kernels"]) + 1)
    layers = []
    for _ in range(opts["blocks"]):
        modules = []
        block_in = ch
        for _ in range(opts["modules_per_block"]):
            bottleneck = Conv1D(ch, neck, 1, rng, use_bias=False)
            branches = [Conv1D(neck, bf, k, rng, use_bias=False)
                        for k in opts["branch_kernels"]]
            pool = MaxPool1D(3, stride=1, padding="same")
            pool_conv = Conv1D(ch, bf, 1, rng, use_bias=False)
            modules.append(Sequential([
                Concat([Sequential([bottleneck, Concat(branches)]),
                        Sequential([pool, pool_conv])]),
                BatchNorm1D(out_ch), ReLU()]))
            ch = out_ch
        layers += _residual(modules, [
            Conv1D(block_in, out_ch, 1, rng, use_bias=False), BatchNorm1D(out_ch)])
    return layers, ch


# each conv kind's layers before its global pool and dense output
_CONV = {"fcn": lambda opts, rng, ch: _conv_stack(opts["filters"],
                                                  opts["kernels"], rng, ch),
         "resnet": _resnet, "inception": _inception}


def build(spec: ModelSpec, input_shape, seed=0, dtype=np.float32) -> Model:
    """Materialize a spec into a model; deterministic for a fixed seed. The
    parameters are drawn in float64 from the seed's stream, then cast to
    `dtype`: float32 by default, as Keras computes; np.float64 keeps them
    as drawn."""
    _, ch = input_shape
    rng = np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF, 0x1417]))
    kind, opts = spec.kind, spec.options
    if kind in _CONV:
        layers, ch = _CONV[kind](opts, rng, ch)
        layers += [GlobalAveragePool(), Dense(ch, 1, rng)]
    elif kind in _RECURRENT:
        layers = _recurrent_head(kind, opts, rng, ch)
    elif kind in _HYBRID:
        layers, ch = _CONV["fcn"](opts, rng, ch)
        layers.append(MaxPool1D(opts["pool_size"], stride=opts["pool_size"]))
        layers += _recurrent_head(kind, opts, rng, ch)
    else:
        raise ValueError(f"unknown model kind {kind!r}")
    model = Model(Sequential(layers), input_shape=tuple(input_shape), spec=spec,
                  dtype=dtype)
    model.seed_dropout(seed)
    return model


def layer_param_counts(model: Model):
    """Trainable parameter count of each direct child of the model root,
    skipping parameter-free layers."""
    counts = []
    for _, child in model.root.children():
        n = child.param_count()
        if n:
            counts.append(n)
    return counts
