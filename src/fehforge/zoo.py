"""Builders for the nine regression architectures.

Each builder returns a `ModelSpec` (a serializable description); `build`
materializes it into a trainable `nn.Model` deterministically from a seed.

Regularization follows the published settings: unidirectional recurrent
layers (and the conv hybrids) use kernel l2 = 2e-6 with recurrent l1 = 2e-6;
bidirectional variants use l1 = 2e-6 on both kernel and recurrent weights.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .nn.layers import (BatchNorm1D, Conv1D, Dense, Dropout,
                        GlobalAveragePool, MaxPool1D, ReLU)
from .nn.model import InceptionModule, Model, ResidualBlock, Sequential
from .nn.recurrent import GRU, LSTM, Bidirectional

SPEC_FORMAT_VERSION = 1

KINDS = ("fcn", "resnet", "inception", "lstm", "bilstm", "gru", "bigru",
         "convlstm", "convgru")

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

    def with_overrides(self, dropout=None, **options):
        """Return a copy with updated options; `dropout` (a single rate)
        replaces every dropout rate in the spec."""
        opts = dict(self.options, **{k: v for k, v in options.items() if v is not None})
        if dropout is not None and "dropout" in opts:
            opts["dropout"] = [dropout] * len(opts["dropout"])
        return ModelSpec(self.kind, opts)


def build_fcn(filters=(128, 256, 128), kernels=(8, 5, 3)):
    return ModelSpec("fcn", {"filters": list(filters), "kernels": list(kernels)})


def build_resnet(filters=64, kernels=(8, 5, 3), blocks=3):
    return ModelSpec("resnet", {"filters": filters, "kernels": list(kernels),
                                "blocks": blocks})


def build_inception_time(blocks=2, modules_per_block=3, bottleneck_filters=32,
                         branch_filters=32, branch_kernels=(10, 20, 40)):
    return ModelSpec("inception", {
        "blocks": blocks, "modules_per_block": modules_per_block,
        "bottleneck_filters": bottleneck_filters,
        "branch_filters": branch_filters,
        "branch_kernels": list(branch_kernels)})


def build_rnn(kind, units=(20, 16, 8), dropout=(0.2, 0.2, 0.1)):
    if kind not in ("lstm", "bilstm", "gru", "bigru"):
        raise ValueError(f"unknown recurrent kind {kind!r}")
    if len(units) != len(dropout):
        raise ValueError("units and dropout must have equal length")
    return ModelSpec(kind, {"units": list(units), "dropout": list(dropout)})


def build_conv_rnn(kind, filters=(128, 256, 128), kernels=(8, 5, 3),
                   pool_size=2, units=(20, 16), dropout=(0.2, 0.1)):
    if kind not in ("convlstm", "convgru"):
        raise ValueError(f"unknown hybrid kind {kind!r}")
    return ModelSpec(kind, {"filters": list(filters), "kernels": list(kernels),
                            "pool_size": pool_size, "units": list(units),
                            "dropout": list(dropout)})


def build_default(kind):
    if kind in ("lstm", "bilstm", "gru", "bigru"):
        return build_rnn(kind)
    if kind in ("convlstm", "convgru"):
        return build_conv_rnn(kind)
    return {"fcn": build_fcn, "resnet": build_resnet,
            "inception": build_inception_time}[kind]()


def _conv_block(rng, in_ch, filters, kernel):
    return [Conv1D(in_ch, filters, kernel, rng),
            BatchNorm1D(filters), ReLU()]


def _recurrent_stack(spec, rng, in_ch, bidirectional, cell_cls,
                     return_sequence_tail=False):
    """Stacked recurrent blocks, each followed by dropout."""
    units = spec.options["units"]
    rates = spec.options["dropout"]
    if bidirectional:
        regs = dict(kernel_l1=_L1_RECURRENT, recurrent_l1=_L1_RECURRENT)
    else:
        regs = dict(kernel_l2=_L2_KERNEL, recurrent_l1=_L1_RECURRENT)
    layers = []
    ch = in_ch
    for i, (u, rate) in enumerate(zip(units, rates)):
        ret_seq = return_sequence_tail or i < len(units) - 1
        if bidirectional:
            layer = Bidirectional(
                cell_cls(ch, u, rng, return_sequences=ret_seq, **regs),
                cell_cls(ch, u, rng, return_sequences=ret_seq, **regs))
            ch = 2 * u
        else:
            layer = cell_cls(ch, u, rng, return_sequences=ret_seq, **regs)
            ch = u
        layers += [layer, Dropout(rate)]
    return layers, ch


def _build_inception_root(spec, rng, in_ch):
    opts = spec.options
    bf = opts["branch_filters"]
    out_ch = bf * (len(opts["branch_kernels"]) + 1)
    layers = []
    ch = in_ch
    for _ in range(opts["blocks"]):
        modules = []
        block_in = ch
        for _ in range(opts["modules_per_block"]):
            bottleneck = Conv1D(ch, opts["bottleneck_filters"], 1, rng, use_bias=False)
            branches = [Conv1D(opts["bottleneck_filters"], bf, k, rng, use_bias=False)
                        for k in opts["branch_kernels"]]
            pool = MaxPool1D(3, stride=1, padding="same")
            pool_conv = Conv1D(ch, bf, 1, rng, use_bias=False)
            modules.append(InceptionModule(bottleneck, branches, pool,
                                           pool_conv, BatchNorm1D(out_ch), ReLU()))
            ch = out_ch
        layers.append(ResidualBlock(modules, shortcut=Sequential([
            Conv1D(block_in, out_ch, 1, rng, use_bias=False),
            BatchNorm1D(out_ch)])))
    layers += [GlobalAveragePool(), Dense(ch, 1, rng)]
    return Sequential(layers)


def build(spec: ModelSpec, input_shape, seed=0) -> Model:
    """Materialize a spec into a model; deterministic for a fixed seed."""
    _, in_ch = input_shape
    rng = np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF, 0x1417]))
    kind = spec.kind
    opts = spec.options

    if kind == "fcn":
        layers = []
        ch = in_ch
        for f, k in zip(opts["filters"], opts["kernels"]):
            layers += _conv_block(rng, ch, f, k)
            ch = f
        layers += [GlobalAveragePool(), Dense(ch, 1, rng)]
        root = Sequential(layers)

    elif kind == "resnet":
        layers = []
        ch = in_ch
        f = opts["filters"]
        for _ in range(opts["blocks"]):
            body = []
            body_in = ch
            for k in opts["kernels"]:
                body += _conv_block(rng, ch, f, k)
                ch = f
            proj = Conv1D(body_in, f, 1, rng) if body_in != f else None
            layers.append(ResidualBlock(body, shortcut=proj))
        layers += [GlobalAveragePool(), Dense(ch, 1, rng)]
        root = Sequential(layers)

    elif kind == "inception":
        root = _build_inception_root(spec, rng, in_ch)

    elif kind in ("lstm", "bilstm", "gru", "bigru"):
        cell_cls = LSTM if "lstm" in kind else GRU
        stack, ch = _recurrent_stack(spec, rng, in_ch,
                                     bidirectional=kind.startswith("bi"),
                                     cell_cls=cell_cls)
        root = Sequential(stack + [Dense(ch, 1, rng)])

    elif kind in ("convlstm", "convgru"):
        layers = []
        ch = in_ch
        for f, k in zip(opts["filters"], opts["kernels"]):
            layers += _conv_block(rng, ch, f, k)
            ch = f
        layers.append(MaxPool1D(opts["pool_size"], stride=opts["pool_size"]))
        cell_cls = LSTM if kind == "convlstm" else GRU
        stack, ch = _recurrent_stack(spec, rng, ch, bidirectional=False,
                                     cell_cls=cell_cls)
        root = Sequential(layers + stack + [Dense(ch, 1, rng)])

    else:
        raise ValueError(f"unknown model kind {kind!r}")

    model = Model(root, input_shape=tuple(input_shape), spec=spec)
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
