"""Per-layer metrics computed from a `Tracer` run.

Names ending in `_s` are inclusive wall time summed over calls, except
`nn.<Type>.forward_s` / `backward_s` and `nn.composite.self_s`, which are
self time (children's spans subtracted). Work counts for the conv and
recurrent layers are multiply-adds computed from the tensor shapes, not
measured, and carry the unit `MAC-computed`.
"""
from __future__ import annotations

import os

import numpy as np

NN_TYPES = ("GRU", "LSTM", "Bidirectional", "Conv1D", "BatchNorm1D",
            "MaxPool1D", "ReLU", "Dropout", "Dense", "GlobalAveragePool")
_NN_MODULE = {"GRU": "nn.recurrent", "LSTM": "nn.recurrent",
              "Bidirectional": "nn.recurrent"}
COMPOSITES = (("nn.model.Sequential", ("forward", "backward")),
              ("nn.model.ResidualBlock", ("forward", "backward")),
              ("nn.model.InceptionModule", ("forward", "backward")),
              ("nn.model.InceptionResidualBlock", ("forward", "backward")),
              ("nn.model.Model", ("forward", "backward")))
VARIANTS = ("raw_padded", "spline_no_mean", "full")
SAVES = ("save_curves", "save_dataset", "save_weights", "save_snapshot")
LOADS = ("load_curves", "load_dataset", "load_weights", "load_snapshot")

SPLINE_FIT = "preprocess.fit_smoothing_spline"


def _nn_name(kind):
    return f"{_NN_MODULE.get(kind, 'nn.layers')}.{kind}"


# --- hooks: counts gathered where the work happens --------------------------

def _count_rows(tracer, args, kwargs, result, dur):
    tracer.counts["photometry_rows"] += sum(len(v) for v in result.values())


def _count_bytes(tracer, args, kwargs, result, dur):
    tracer.counts["bytes_written"] += os.path.getsize(args[0])


def _count_star(tracer, args, kwargs, result, dur):
    tracer.counts.setdefault("spline_stars", set()).add(args[0].source_id)
    tracer.counts["command_fits"] += 1


def _close_preprocess(tracer, args, kwargs, result, dur):
    """Fits made per star fitted, for one `preprocess` command."""
    stars = tracer.counts.pop("spline_stars", set())
    fits = tracer.counts.pop("command_fits", 0)
    if stars:
        tracer.durations["fits_per_star"].append(fits / len(stars))


def _count_variant(tracer, args, kwargs, result, dur):
    variant = kwargs.get("variant", args[1] if len(args) > 1 else None)
    tracer.counts[f"build_dataset_s.{variant.value}"] += dur


def _count_epochs(tracer, args, kwargs, result, dur):
    tracer.counts["epochs_run"] += result.epochs_run


def _macs_forward(kind):
    def hook(tracer, args, kwargs, result, dur):
        layer, x = args[0], args[1]
        W = layer.params["W"]
        if kind == "Conv1D":
            k, cin, cout = W.shape
            macs = x.shape[0] * x.shape[1] * k * cin * cout
        else:  # GRU / LSTM: input and recurrent matmuls, every step
            gates = W.shape[1]
            macs = x.shape[0] * x.shape[1] * gates * (W.shape[0] + layer.units)
        tracer.counts.setdefault("last_macs", {})[id(layer)] = macs
        tracer.counts[f"flops.{kind}"] += macs
    return hook


def _macs_backward(kind):
    def hook(tracer, args, kwargs, result, dur):
        # weight gradient plus input gradient: twice the forward work
        tracer.counts[f"flops.{kind}"] += 2 * tracer.counts["last_macs"][id(args[0])]
    return hook


def hooks():
    table = {
        "catalog.load_photometry": _count_rows,
        SPLINE_FIT: _count_star,
        "cli.cmd_preprocess": _close_preprocess,
        "preprocess.build_dataset": _count_variant,
        "evaluate.train": _count_epochs,
    }
    for name in SAVES:
        table[f"container.{name}"] = _count_bytes
    for kind in ("Conv1D", "GRU", "LSTM"):
        table[f"{_nn_name(kind)}.forward"] = _macs_forward(kind)
        table[f"{_nn_name(kind)}.backward"] = _macs_backward(kind)
    return table


KEEP_DURATIONS = (SPLINE_FIT,)


# --- metric table -----------------------------------------------------------

def spec():
    """(name, unit) of every per-layer metric, in output order."""
    out = [("catalog.load_catalog_s", "s"), ("catalog.join_photometry_s", "s"),
           ("catalog.photometry_rows_per_s", "rows/s"),
           ("catalog.apply_selection_s", "s"),
           ("container.save_s", "s"), ("container.load_s", "s"),
           ("container.bytes_written", "bytes"),
           ("preprocess.fold_align_s", "s"),
           ("preprocess.spline_fit_ms.p50", "ms"),
           ("preprocess.spline_fit_ms.p90", "ms"),
           ("preprocess.spline_fits", "count"),
           ("preprocess.spline_fits_per_star", "fits/star"),   # per command
           ("preprocess.resample_s", "s")]
    out += [(f"preprocess.build_dataset_s.{v}", "s") for v in VARIANTS]
    out += [("weighting.fit_density_s", "s"), ("weighting.compute_weights_s", "s"),
            ("evaluate.stratified_kfold_s", "s"), ("evaluate.train_s", "s"),
            ("evaluate.epoch_s", "s"), ("evaluate.epochs_run", "count"),
            ("evaluate.predict_s", "s"), ("evaluate.metric_suite_s", "s"),
            ("zoo.build_s", "s")]
    for kind in NN_TYPES:
        out += [(f"nn.{kind}.forward_s", "s"), (f"nn.{kind}.backward_s", "s"),
                (f"nn.{kind}.calls", "count")]
    out += [("nn.composite.self_s", "s"), ("nn.Adam.step_s", "s"),
            ("nn.Model.zero_grads_s", "s"), ("nn.Model.add_reg_grads_s", "s"),
            ("nn.Model.get_state_s", "s"), ("nn.weighted_mse_s", "s")]
    out += [(f"nn.{kind}.flops", "MAC-computed") for kind in ("Conv1D", "GRU", "LSTM")]
    out.append(("trace.overhead_s", "s"))
    return out


def compute(tracer, overhead_s):
    """Every metric of `spec()`, as name -> value."""
    tot, slf, calls, counts = tracer.total_s, tracer.self_s, tracer.calls, tracer.counts
    fits = tracer.durations.get(SPLINE_FIT, [])
    fit_ms = np.array(fits) * 1e3
    per_star = tracer.durations.get("fits_per_star", [])
    epochs = counts.get("epochs_run", 0)
    phot_s = tot["catalog.load_photometry"]
    m = {
        "catalog.load_catalog_s": tot["catalog.load_catalog"],
        "catalog.join_photometry_s": tot["catalog.join_photometry"],
        "catalog.photometry_rows_per_s": (counts["photometry_rows"] / phot_s
                                          if phot_s else 0.0),
        "catalog.apply_selection_s": tot["catalog.apply_selection"],
        "container.save_s": sum(tot[f"container.{n}"] for n in SAVES),
        "container.load_s": sum(tot[f"container.{n}"] for n in LOADS),
        "container.bytes_written": counts["bytes_written"],
        "preprocess.fold_align_s": (tot["preprocess.phase_fold"]
                                    + tot["preprocess.align_to_maximum"]),
        "preprocess.spline_fit_ms.p50": float(np.percentile(fit_ms, 50)) if fits else 0.0,
        "preprocess.spline_fit_ms.p90": float(np.percentile(fit_ms, 90)) if fits else 0.0,
        "preprocess.spline_fits": len(fits),
        "preprocess.spline_fits_per_star": float(np.mean(per_star)) if per_star else 0.0,
        "preprocess.resample_s": tot["preprocess.resample"],
    }
    for v in VARIANTS:
        m[f"preprocess.build_dataset_s.{v}"] = counts[f"build_dataset_s.{v}"]
    m.update({
        "weighting.fit_density_s": tot["weighting.fit_density"],
        "weighting.compute_weights_s": tot["weighting.compute_weights"],
        "evaluate.stratified_kfold_s": tot["evaluate.stratified_kfold"],
        "evaluate.train_s": tot["evaluate.train"],
        "evaluate.epoch_s": tot["evaluate.train"] / epochs if epochs else 0.0,
        "evaluate.epochs_run": epochs,
        "evaluate.predict_s": tot["evaluate.predict"],
        "evaluate.metric_suite_s": tot["evaluate.metric_suite"],
        "zoo.build_s": tot["zoo.build"],
    })
    for kind in NN_TYPES:
        base = _nn_name(kind)
        m[f"nn.{kind}.forward_s"] = slf[f"{base}.forward"]
        m[f"nn.{kind}.backward_s"] = slf[f"{base}.backward"]
        m[f"nn.{kind}.calls"] = calls[f"{base}.forward"]
    m["nn.composite.self_s"] = sum(slf[f"{cls}.{meth}"]
                                   for cls, meths in COMPOSITES for meth in meths)
    m.update({
        "nn.Adam.step_s": tot["nn.optim.Adam.step"],
        "nn.Model.zero_grads_s": tot["nn.model.Model.zero_grads"],
        "nn.Model.add_reg_grads_s": tot["nn.model.Model.add_reg_grads"],
        "nn.Model.get_state_s": tot["nn.model.Model.get_state"],
        "nn.weighted_mse_s": tot["nn.losses.weighted_mse"],
    })
    for kind in ("Conv1D", "GRU", "LSTM"):
        m[f"nn.{kind}.flops"] = counts[f"flops.{kind}"]
    m["trace.overhead_s"] = overhead_s
    return m
