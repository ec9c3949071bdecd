#!/usr/bin/env python3
"""Pipeline benchmark for fehforge.

    python3 bench/bench.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The program is imported from ./src and driven
through its CLI entry point (`fehforge.cli.main`) inside this one process, a
closed loop with a single caller. Inputs come from
`fehforge.synthetic.make_corpus(seed)`; the program sees only the catalog
and photometry CSV files written from it.

A run repeats iterations until --seconds have passed. Each iteration sets
up into a fresh directory, runs the workload's operations and checks what
they wrote. The run prints one JSON object as its last line. With
--trace 1 it runs one untraced and one traced iteration and prints the
per-layer metrics instead. See bench/README.md for the workloads and
metrics.
"""
import os

# One BLAS thread, set before numpy is first imported: single-threaded runs
# are the ones the program promises to rerun bit-identically.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import collections
import contextlib
import dataclasses
import hashlib
import io
import json
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import zipfile

import numpy as np

import checks

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")

KINDS = ("fcn", "resnet", "inception", "lstm", "bilstm", "gru", "bigru",
         "convlstm", "convgru")
FORCED_RULES = ("max_feh_sigma", "max_amp_g", "max_phi31_sigma", "period")
PROBE_SEED = 20241017       # pad-invariance probe: the same on every run
# Wall time of `calibration_kernel` on the reference machine when its host
# is quiet; times are rescaled to this speed.
CAL_REFERENCE_S = 0.008
FIXED_LAMBDA = {"preprocess": {"lambda_strategy": "fixed"}}   # lam = 1e-4
VARIANTS = ("raw_padded", "spline_no_mean", "full")
SIDES = ("train", "validation")


@dataclasses.dataclass(frozen=True)
class Workload:
    stars: int                # catalog rows
    accepted: int             # rows that pass every cut
    timed_ingest: bool        # ingest + GCV preprocess are the workload, not set-up
    ingests: int = 1          # ingest repeats, each time the catalog is ingested
    preprocesses: int = 1     # preprocess repeats, likewise
    folds: int = 2
    epochs: int = 1           # epoch budget of each CV fold
    train_epochs: int = 1     # epoch budget of the `train` that makes the snapshot
    batch_size: int = 256
    predicts: int = 1         # predict repeats per model and iteration
    setups: int = 1           # set-up repeats per iteration
    r2_floor: float = None


# Batch sizes: cv_gru_full trains at the program's default of 256, on 800
# accepted stars, so each CV fold trains on 512 stars, two full batches.
# matrix_predict trains at 32, the smallest batch of the paper's grid,
# because at 256 the nine kinds cost 10-40 ms per star and epoch (see
# README). ingest_preprocess_gcv's small GRU run only gives its training
# and predict metrics a value.
WORKLOADS = {
    "ingest_preprocess_gcv": Workload(stars=400, accepted=30, timed_ingest=True,
                                      ingests=3, folds=2, epochs=2, train_epochs=2,
                                      batch_size=16, predicts=5),
    "cv_gru_full": Workload(stars=1000, accepted=800, timed_ingest=False,
                            ingests=2, folds=5, epochs=10, predicts=10, setups=2,
                            r2_floor=0.1),
    "matrix_predict": Workload(stars=120, accepted=80, timed_ingest=False,
                               ingests=4, preprocesses=2, folds=2, epochs=1,
                               batch_size=32, predicts=2, setups=3),
}


def import_program():
    if not os.path.isfile(os.path.join(SRC, "fehforge", "cli.py")):
        sys.exit(f"bench: no program source at {SRC}/fehforge")
    sys.path.insert(0, SRC)
    import fehforge.cli
    if not os.path.abspath(fehforge.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: fehforge imported from {fehforge.__file__}, not {SRC}")
    return fehforge


# --- inputs -----------------------------------------------------------------

def make_inputs(directory, n, n_accepted, seed):
    """Write catalog.csv and photometry.csv for `n` synthetic stars of which
    exactly `n_accepted` pass the cuts. Stars with fewer than 50 epochs fail
    `min_epochs` as generated; each other rejected star gets one catalog
    value pushed past a threshold, the rules taken in turn.

    Returns (records as written, truth, generated pairs) where truth maps an
    accepted star's source_id to (period, amplitude, rise fraction, epoch of
    maximum)."""
    from fehforge import synthetic

    pairs, clean = synthetic.make_corpus(n, seed=seed)
    rng = np.random.default_rng([seed & 0xFFFFFFFF, 0xBE7C])
    eligible = [i for i, (rec, _) in enumerate(pairs) if rec.n_epochs >= 50]
    if len(eligible) < n_accepted:
        raise RuntimeError(f"seed {seed}: {len(eligible)} stars with >= 50 "
                           f"epochs, need {n_accepted}")
    accepted = set(rng.choice(eligible, n_accepted, replace=False).tolist())
    out, truth, turn = [], {}, 0
    for i, (rec, lc) in enumerate(pairs):
        if i in accepted:
            # invert the generator's target function for the rise fraction
            arg = (-1.1 + np.tanh(2.0 * (rec.amp_g - 0.75))
                   + 0.8 * np.tanh(3.0 * (rec.period - 0.55)) - clean[i]) / 1.2
            truth[rec.source_id] = (rec.period, rec.amp_g,
                                    0.25 + np.arctanh(arg) / 4.0, rec.epoch_max)
        elif rec.n_epochs >= 50:
            rule = FORCED_RULES[turn % len(FORCED_RULES)]
            turn += 1
            rec = dataclasses.replace(rec, **{
                "max_feh_sigma": {"feh_sigma": float(rng.uniform(0.41, 0.8))},
                "max_amp_g": {"amp_g": float(rng.uniform(1.41, 2.0))},
                "max_phi31_sigma": {"phi31_sigma": float(rng.uniform(0.11, 0.3))},
                "period": {"period": -rec.period},
            }[rule])
        out.append((rec, lc))
    synthetic.write_corpus_files(directory, out)
    return [rec for rec, _ in out], truth, pairs


def brightest_phase(pairs, truth):
    """Phase of each accepted star's brightest observation; the program
    rotates its folded curve by this much."""
    shift = {}
    for rec, lc in pairs:
        if rec.source_id in truth:
            period, _, _, epoch_max = truth[rec.source_id]
            phases = np.mod((lc.times - epoch_max) / period, 1.0)
            shift[rec.source_id] = float(phases[int(np.argmin(lc.mags))])
    return shift


# --- running the program ----------------------------------------------------

_CAL_RNG = np.random.default_rng(0)
_CAL_MATRIX = _CAL_RNG.random((48, 48))
_CAL_VECTOR = _CAL_RNG.random(50_000)


def calibration_kernel():
    """A fixed mix of interpreter, small-BLAS and elementwise work, like the
    program's. Returns its wall time; `Runner.calibrate` takes the median of
    three, so that one interrupted run does not skew a timing."""
    start = time.perf_counter()
    total = 0
    for i in range(120_000):
        total += i * i
    for _ in range(120):
        _CAL_MATRIX @ _CAL_MATRIX
    for _ in range(3):
        np.tanh(_CAL_VECTOR)
    return time.perf_counter() - start


class Runner:
    """Calls the CLI in-process and keeps the operation tally. It times the
    calibration kernel between operations and, from a timer signal, every
    SAMPLE_EVERY_S seconds during them, and reports each operation's wall
    time together with the machine's speed over it."""

    SAMPLE_EVERY_S = 2.0

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.errors = []          # correctness failures (set `correct` false)
        self.cal_seconds = 0.0    # time spent in the calibration kernel
        self.samples = []         # (start, end, kernel seconds) of each timing
        self._depth = 0           # timed calls in progress
        self._in_kernel = False
        calibration_kernel()      # warm-up: the first run is slower
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.SAMPLE_EVERY_S, self.SAMPLE_EVERY_S)

    def stop_sampling(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def _on_timer(self, signum, frame):
        if self._depth and not self._in_kernel:
            self.calibrate()

    def calibrate(self):
        self._in_kernel = True
        start = time.perf_counter()
        times = [calibration_kernel() for _ in range(3)]
        end = time.perf_counter()
        self._in_kernel = False
        self.cal_seconds += end - start
        self.samples.append((start, end, statistics.median(times)))

    def timed(self, fn, *args):
        """(result, (wall seconds, calibration seconds)) of fn(*args). The
        calibration time is the kernel's time over the call: each stretch
        between two timings of the kernel (the last one before the call,
        those made during it, the one just after) runs at the mean of its two
        ends. The wall time leaves out the kernel's own time."""
        if not self.samples:
            self.calibrate()
        first = len(self.samples) - 1
        start, cal_start = time.perf_counter(), self.cal_seconds
        self._depth += 1
        try:
            result = fn(*args)
        finally:
            self._depth -= 1
        wall = time.perf_counter() - start - (self.cal_seconds - cal_start)
        self.calibrate()
        timings = self.samples[first:]
        lefts = [start] + [end for _, end, _ in timings[1:-1]]
        rights = [begin for begin, _, _ in timings[1:]]
        rescaled = sum((right - left) / (0.5 * (a[2] + b[2]))
                       for left, right, a, b in zip(lefts, rights, timings, timings[1:]))
        return result, (wall, wall / rescaled)

    def call(self, *args):
        """Runs one CLI command as an operation; returns its timed sample."""
        self.attempted += 1
        sink = io.StringIO()

        def main():
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                return self.cli.main([str(a) for a in args])

        rc, sample = self.timed(main)
        if rc != 0:
            self.failed += 1
            self.errors.append(f"{args[0]} exited {rc}: {sink.getvalue().strip()[-300:]}")
        return sample


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def digest(directory, skip=("config.snapshot.yaml",)):
    """sha256 over the relative path and bytes of every file written."""
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(directory)):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            rel = os.path.relpath(path, directory)
            if name in skip or rel.startswith("inputs" + os.sep):
                continue
            h.update(rel.encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


@contextlib.contextmanager
def capture(module, name, sink):
    """Record (args, result) of every call to module.name made in this
    process."""
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        sink.append((args, result))
        return result

    setattr(module, name, wrapper)
    try:
        yield sink
    finally:
        setattr(module, name, original)


def train_args(wl, out, kind, variant, epochs):
    """Patience equals the epoch budget, so early stopping never cuts a run
    short and every run trains the same number of epochs."""
    return ("--output", out, "--model", kind, "--variant", variant,
            "--epochs", epochs, "--patience", epochs,
            "--batch-size", wl.batch_size)


# --- workloads --------------------------------------------------------------

class Bench:
    """One workload. Each iteration sets up into a fresh directory (inputs,
    and for the training workloads the containers they read), then runs the
    workload's timed operations there and checks what they wrote."""

    def __init__(self, name, seed, program, workdir):
        self.name, self.seed = name, seed
        self.wl = WORKLOADS[name]
        self.program = program
        self.run = Runner(program.cli)
        self.workdir = workdir
        self.config = os.path.join(workdir, "fixed_lambda.yaml")
        with open(self.config, "w") as fh:
            json.dump(FIXED_LAMBDA, fh)      # JSON is valid YAML
        self.setups = []
        # stage -> operation -> wall seconds of each time it ran
        self.walls = {stage: collections.defaultdict(list)
                      for stage in ("ingest", "preprocess", "cv", "predict")}
        self.predicted = {}        # predict operation -> stars it predicts
        self.digests = []
        self.iterations = 0
        self.pad_failures = []
        self.curve_outliers = []
        self.val_r2 = []

    def iteration(self, tag):
        directory = os.path.join(self.workdir, tag)
        # Set-up repeats, each into a fresh directory, so that a run holds
        # several samples of setup_s even when it makes one iteration.
        for _ in range(self.wl.setups):
            fresh_dir(directory)
            self.setups.append(self.run.timed(self.setup, directory)[1])
        os.makedirs(os.path.join(directory, "predictions"))
        if self.wl.timed_ingest:
            self._ingest_preprocess(directory)
        if self.name == "matrix_predict":
            self._matrix_operations(directory)
        else:
            self._gru_operations(directory)
        self.digests.append(digest(directory))
        self.iterations += 1
        shutil.rmtree(directory)

    def setup(self, directory):
        wl = self.wl
        self.inputs_dir = os.path.join(directory, "inputs")
        self.inputs = make_inputs(self.inputs_dir, wl.stars, wl.accepted, self.seed)
        if not wl.timed_ingest:
            self._ingest_preprocess(directory)
        if self.name == "matrix_predict":
            self._make_probe(os.path.join(directory, "probe"))

    def _ingest(self, directory, inputs):
        return self.run.call("ingest", "--catalog", os.path.join(inputs, "catalog.csv"),
                             "--photometry", os.path.join(inputs, "photometry.csv"),
                             "--output", directory)

    def _ingest_preprocess(self, directory):
        """GCV λ (the default) when this is the workload, fixed λ in set-up."""
        for _ in range(self.wl.ingests):
            self.walls["ingest"]["ingest"].append(self._ingest(directory, self.inputs_dir))
        args = ["preprocess", "--output", directory, "--variant", "all"]
        if not self.wl.timed_ingest:
            args += ["--config", self.config]
        for _ in range(self.wl.preprocesses):
            self.walls["preprocess"]["preprocess"].append(self.run.call(*args))
        if self.wl.timed_ingest:
            self.run.errors += self._check_ingest_preprocess(directory)

    def _make_probe(self, directory):
        """Seed-independent raw_padded container, and a copy of it with
        every padded value moved from the sentinel -1 to 5."""
        inputs = os.path.join(directory, "inputs")
        make_inputs(inputs, 16, 12, PROBE_SEED)
        self._ingest(directory, inputs)
        self.run.call("preprocess", "--output", directory, "--variant", "raw_padded")
        src = os.path.join(directory, "datasets", "raw_padded_train.zip")
        self.probe = (src, os.path.join(directory, "pad5.zip"))
        arrays = checks.read_zip(src)
        values = arrays["values"].copy()
        values[~arrays["mask"]] = 5.0
        with zipfile.ZipFile(src) as zin, zipfile.ZipFile(self.probe[1], "w") as zout:
            for info in zin.infolist():
                data = zin.read(info.filename)
                if info.filename == "values.npy":
                    buf = io.BytesIO()
                    np.save(buf, values, allow_pickle=False)
                    data = buf.getvalue()
                zout.writestr(info, data)

    def _gru_operations(self, directory):
        wl, run = self.wl, self.run
        evaluate = self.program.evaluate
        # The fold checks need the fold assignment and the fold predictions,
        # which the CV writes nowhere; they are captured here, so the folds
        # must run in this process.
        folds, scored = [], []
        with capture(evaluate, "stratified_kfold", folds), \
                capture(evaluate, "metric_suite", scored):
            self.walls["cv"]["gru_full"].append(run.call(
                "cv", *train_args(wl, directory, "gru", "full", wl.epochs),
                "--folds", wl.folds, "--repeats", 1))
        run.call("train", *train_args(wl, directory, "gru", "full", wl.train_epochs))
        snapshot = os.path.join(directory, "snapshots", "gru_full.zip")
        val = os.path.join(directory, "datasets", "full_validation.zip")
        pred = os.path.join(directory, "predictions", "gru_full.csv")
        val_ids = checks.read_zip(val)["source_ids"]
        for _ in range(wl.predicts):
            wall = run.call("predict", "--output", directory, "--snapshot", snapshot,
                            "--input", val, "--predictions-out", pred)
            self.walls["predict"]["gru_full"].append(wall)
        self.predicted["gru_full"] = len(val_ids)
        errors = checks.check_restored_predictions(
            os.path.join(directory, "plots", "pred_vs_true_gru_full.csv"), pred, val_ids)
        if wl.r2_floor is not None:
            scorings = [tuple(np.asarray(x) for x in args[:3]) for args, _ in scored]
            train = checks.read_zip(os.path.join(directory, "datasets", "full_train.zip"))
            report = os.path.join(directory, "reports", "cv_gru_full.csv")
            errors += checks.check_cv(train["targets"], folds[0][1], scorings,
                                      report, wl.folds, wl.r2_floor)
            self.val_r2.append(next(float(row["mean"]) for row in checks.read_csv(report)
                                    if row["metric"] == "r2" and row["phase"] == "validation"))
        run.errors += errors

    def _check_ingest_preprocess(self, directory):
        records, truth, pairs = self.inputs
        path = lambda *p: os.path.join(directory, *p)
        errors = checks.check_rejections(records, path("rejections.csv"))
        curves = {s: checks.read_zip(path(f"curves_{s}.zip")) for s in SIDES}
        errors += checks.check_split(records, curves["train"]["source_ids"],
                                     curves["validation"]["source_ids"])
        ds = {(v, s): checks.read_zip(path("datasets", f"{v}_{s}.zip"))
              for v in VARIANTS for s in SIDES}
        periods = {sid: t[0] for sid, t in truth.items()}
        shift = brightest_phase(pairs, truth)
        curve_truth = {sid: (t[1], t[2], shift[sid]) for sid, t in truth.items()}
        rms = []
        for side in SIDES:
            full = ds[("full", side)]
            errors += checks.check_spline_variants(full, ds[("spline_no_mean", side)],
                                                   periods, 100)
            rms += list(checks.curve_deviation(full, curve_truth, 100))
            for variant in VARIANTS:
                weights = checks.read_zip(path("datasets", f"weights_{variant}_{side}.zip"))
                errors += checks.check_weights(ds[(variant, "train")],
                                               ds[(variant, side)], weights)
        curve_errors, outliers = checks.check_curves(np.array(rms))
        self.curve_outliers.append(outliers)
        return errors + curve_errors

    def _matrix_operations(self, directory):
        wl, run = self.wl, self.run
        for variant in ("raw_padded", "full"):
            val = os.path.join(directory, "datasets", f"{variant}_validation.zip")
            val_ids = checks.read_zip(val)["source_ids"]
            for kind in KINDS:
                tag = f"{kind}_{variant}"
                self.walls["cv"][tag].append(run.call(
                    "cv", *train_args(wl, directory, kind, variant, wl.epochs),
                    "--folds", wl.folds, "--repeats", 1))
                run.call("train", *train_args(wl, directory, kind, variant,
                                              wl.train_epochs))
                pred = os.path.join(directory, "predictions", f"{tag}.csv")
                for _ in range(wl.predicts):
                    self.walls["predict"][tag].append(run.call(
                        "predict", "--output", directory, "--input", val,
                        "--snapshot", os.path.join(directory, "snapshots", f"{tag}.zip"),
                        "--predictions-out", pred))
                self.predicted[tag] = len(val_ids)
                run.errors += checks.check_report_finite(
                    os.path.join(directory, "reports", f"cv_{tag}.csv"))
                run.errors += checks.check_restored_predictions(
                    os.path.join(directory, "plots", f"pred_vs_true_{tag}.csv"),
                    pred, val_ids)
        failures = [kind for kind in KINDS if not self._pad_probe(directory, kind)]
        self.pad_failures.append(failures)

    def _pad_probe(self, directory, kind):
        """One operation: the raw_padded snapshot's predictions on the probe
        must not depend on the value written into padded steps. Returns
        whether they did not."""
        run = self.run
        run.attempted += 1
        snapshot = os.path.join(directory, "snapshots", f"{kind}_raw_padded.zip")
        preds = []
        for i, path in enumerate(self.probe):
            out = os.path.join(directory, "predictions", f"probe_{kind}_{i}.csv")
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = run.cli.main(["predict", "--output", directory, "--input", path,
                                   "--snapshot", snapshot, "--predictions-out", out])
            if rc != 0:
                run.errors.append(f"probe predict for {kind} exited {rc}")
                return True
            preds.append(checks.read_predictions(out)[1])
        if preds[0] != preds[1]:
            run.failed += 1
            return False
        return True


# --- entry point ------------------------------------------------------------

def scaled_median(samples):
    """Median over (wall, calibration) samples of the wall time rescaled to
    the reference speed of the calibration kernel."""
    return float(statistics.median(wall * CAL_REFERENCE_S / cal for wall, cal in samples))


def end_to_end(bench):
    """Each time is the median, over the times an operation ran in the run,
    of its wall time rescaled to the machine's reference speed; a stage's
    operations (the 18 cells of the matrix, or the one operation of the
    other workloads) are summed. See README for why."""
    med = {stage: {op: scaled_median(w) for op, w in ops.items()}
           for stage, ops in bench.walls.items()}
    return {
        "setup_s": (scaled_median(bench.setups), "s"),
        "ingest_s": (med["ingest"]["ingest"], "s"),
        "preprocess_stars_per_s": (bench.wl.accepted / med["preprocess"]["preprocess"],
                                   "stars/s"),
        "cv_s": (sum(med["cv"].values()), "s"),
        "predict_stars_per_s": (sum(bench.predicted.values())
                                / sum(med["predict"].values()), "stars/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def environment():
    import scipy
    blas = "unknown"
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"].get("version", "unknown")
    except (TypeError, KeyError):
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "openblas": blas,
            "blas_threads": BLAS_THREADS, "nproc": os.cpu_count()}


def run_plain(bench, seconds):
    start = time.perf_counter()
    while bench.iterations == 0 or time.perf_counter() - start < seconds:
        bench.iteration("iteration")
    return end_to_end(bench), {"setups": bench.setups, "walls": bench.walls}


def run_traced(bench):
    """One untraced warm-up iteration, so that first-call costs do not land
    in the layer figures, then one traced iteration."""
    import layer_metrics
    from tracer import Tracer

    bench.iteration("warm-up")
    bench.run.stop_sampling()    # kernel timings would land inside the spans
    tracer = Tracer()
    tracer.install("fehforge", hooks=layer_metrics.hooks(),
                   keep_durations=layer_metrics.KEEP_DURATIONS)
    try:
        _, (traced, _) = bench.run.timed(bench.iteration, "traced")
    finally:
        tracer.uninstall()
    span_cost = tracer.span_cost()
    values = layer_metrics.compute(tracer, span_cost * len(tracer.spans))
    spans = os.path.join(OUT, f"{bench.name}-seed{bench.seed}-spans.jsonl")
    tracer.write_spans(spans)
    metrics = {name: (values[name], unit) for name, unit in layer_metrics.spec()}
    return metrics, {"traced_s": traced, "span_cost_s": span_cost,
                     "spans_file": os.path.relpath(spans, ROOT),
                     "spans": len(tracer.spans)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    program = import_program()

    os.makedirs(OUT, exist_ok=True)
    workdir = fresh_dir(os.path.join(
        OUT, f"run-{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"))
    bench = Bench(args.workload, args.seed, program, workdir)
    try:
        if args.trace:
            metrics, info = run_traced(bench)
        else:
            metrics, info = run_plain(bench, args.seconds)
    finally:
        bench.run.stop_sampling()
        shutil.rmtree(workdir, ignore_errors=True)

    digests = sorted(set(bench.digests))
    if len(digests) != 1:
        bench.run.errors.append(f"iterations wrote different outputs: "
                                f"{len(digests)} digests")
    result = {
        "correct": not bench.run.errors,
        "attempted": bench.run.attempted,
        "failed": bench.run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, digest=digests[0],
                  iterations=bench.iterations, errors=bench.run.errors,
                  pad_failures=bench.pad_failures,
                  gcv_outlier_curves=bench.curve_outliers, val_r2=bench.val_r2,
                  environment=environment(), **info)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1, default=list)
    for err in bench.run.errors:
        print(f"check failed: {err}")
    print(f"{args.workload} seed {args.seed}: {bench.iterations} iterations, "
          f"{bench.run.attempted} operations, {bench.run.failed} failed, "
          f"digest {digests[0][:16]}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
