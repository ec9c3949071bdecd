"""fehforge: photometric metallicity regression for RRab light curves.

From sparse G-band time series to [Fe/H]: catalog selection, phase
folding, smoothing-spline resampling, inverse-density
sample weighting, and a zoo of nine from-scratch neural regressors
trained under repeated stratified k-fold cross-validation.
"""
import os
import sys


def _blas_threads():
    """OpenBLAS's threads per call, as it reads them when numpy loads: the
    first positive integer of these variables, else 0 (every CPU)."""
    values = (os.environ.get(var, "").strip()
              for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
    return next((int(v) for v in values if v.isdecimal() and int(v) > 0), 0)


if "numpy" not in sys.modules and not _blas_threads():  # 1 BLAS thread a lane
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .catalog import (LightCurve, SelectionCriteria, SplitSpec, StarRecord,
                      apply_selection, join_photometry, load_catalog,
                      load_photometry, split_train_validation)
from .container import (ArrayDataset, load_curves, load_dataset,
                        load_snapshot, load_weights, save_curves,
                        save_dataset, save_snapshot, save_weights)
from .errors import FehForgeError
from .evaluate import (GridSpec, MetricsReport, TrainConfig, cross_validate,
                       grid_search, metric_suite, predict, r2, run_matrix,
                       stratified_kfold, train)
from .preprocess import (PhasedCurve, PreprocessConfig, SplineFit, Variant,
                         build_datasets, fit_smoothing_spline, phase_fold,
                         resample)
from .weighting import DensityModel, compute_weights, fit_density
from .zoo import KINDS, ModelSpec, build, build_default, layer_param_counts

__version__ = "0.1.0"
