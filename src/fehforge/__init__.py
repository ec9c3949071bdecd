"""fehforge: photometric metallicity regression for RRab light curves.

From sparse G-band time series to [Fe/H]: catalog selection, phase
folding and alignment, smoothing-spline resampling, inverse-density
sample weighting, and a zoo of nine from-scratch neural regressors
trained under repeated stratified k-fold cross-validation.
"""
from .catalog import (LightCurve, SelectionCriteria, SplitSpec, StarRecord,
                      apply_selection, join_photometry, load_catalog,
                      load_photometry, split_train_validation)
from .container import (ArrayDataset, from_feature_series, load_curves,
                        load_dataset, load_snapshot, load_weights,
                        restore_model, save_curves, save_dataset,
                        save_snapshot, save_weights)
from .errors import FehForgeError
from .evaluate import (GridSpec, MetricsReport, TrainConfig, cross_validate,
                       grid_search, metric_suite, predict, r2, run_matrix,
                       stratified_kfold, train)
from .preprocess import (FeatureSeries, PhasedCurve, PreprocessConfig,
                         SplineFit, Variant, align_to_maximum, build_dataset,
                         build_feature_series, fit_smoothing_spline,
                         phase_fold, resample)
from .weighting import DensityModel, compute_weights, fit_density
from .zoo import KINDS, ModelSpec, build, build_default, layer_param_counts

__version__ = "0.1.0"
