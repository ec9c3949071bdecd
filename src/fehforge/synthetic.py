"""Synthetic RRab-like corpus: sawtooth light curves whose metallicity
target is a known smooth function of (skewness, amplitude, period).

Used for end-to-end learnability checks and as demo input for the CLI;
no real survey data required.
"""
from __future__ import annotations

import os

import numpy as np

from .catalog import LightCurve, StarRecord
from .container import write_csv


PHOT_NOISE = 0.01              # mag, Gaussian photometric noise
N_EPOCHS_RANGE = (40, 120)     # epochs per curve, inclusive
BASELINE_DAYS = 800.0          # span of the observation times


def sawtooth_mag(phase, amplitude, rise_fraction):
    """Asymmetric sawtooth in magnitudes: brightest (minimum) at phase 0,
    slow decline over 1 - rise_fraction, rapid rise over rise_fraction."""
    phase = np.asarray(phase, dtype=np.float64)
    decline = 1.0 - rise_fraction
    shape = np.where(phase < decline,
                     phase / decline,
                     (1.0 - phase) / rise_fraction)
    return amplitude * (shape - 0.5)


def target_function(rise_fraction, amplitude, period):
    """Smooth ground-truth mapping from curve morphology to [Fe/H]."""
    return (-1.1
            + 1.0 * np.tanh(2.0 * (amplitude - 0.75))
            - 1.2 * np.tanh(4.0 * (rise_fraction - 0.25))
            + 0.8 * np.tanh(3.0 * (period - 0.55)))


def make_corpus(n, seed=0, target_noise=0.1):
    """Generate n (StarRecord, LightCurve) pairs plus the noise-free targets.

    Returns (pairs, clean_targets). The stored StarRecord.feh carries the
    noisy target actually used for regression.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF, 0x5A77]))
    pairs = []
    clean = np.empty(n)
    for i in range(n):
        period = rng.uniform(0.3, 0.8)
        amplitude = rng.uniform(0.3, 1.2)
        rise = rng.uniform(0.12, 0.4)
        mean_mag = rng.uniform(15.0, 19.0)
        n_epochs = int(rng.integers(N_EPOCHS_RANGE[0], N_EPOCHS_RANGE[1] + 1))
        epoch_max = rng.uniform(0.0, 100.0)
        times = np.sort(epoch_max + rng.uniform(0.0, BASELINE_DAYS, size=n_epochs))
        phases = np.mod((times - epoch_max) / period, 1.0)
        mags = (mean_mag + sawtooth_mag(phases, amplitude, rise)
                + rng.normal(0.0, PHOT_NOISE, size=n_epochs))
        clean[i] = target_function(rise, amplitude, period)
        feh = clean[i] + rng.normal(0.0, target_noise)
        record = StarRecord(
            id=i,
            source_id=1_000_000 + i,
            period=period,
            amp_g=amplitude,
            n_epochs=n_epochs,
            feh=float(feh),
            feh_sigma=float(rng.uniform(0.05, 0.39)),
            phi31_sigma=float(rng.uniform(0.01, 0.09)),
            epoch_max=float(epoch_max),
        )
        pairs.append((record, LightCurve(record.source_id, times, mags)))
    return pairs, clean


def write_corpus_files(directory, pairs):
    """Write catalog.csv and photometry.csv in the formats `catalog` reads."""
    catalog_path = os.path.join(directory, "catalog.csv")
    photometry_path = os.path.join(directory, "photometry.csv")
    write_csv(catalog_path, ["id", "source_id", "period", "amp_g", "n_epochs",
                             "feh", "feh_sigma", "phi31_sigma", "epoch_max"],
              ([rec.id, rec.source_id, rec.period, rec.amp_g, rec.n_epochs,
                rec.feh, rec.feh_sigma, rec.phi31_sigma, rec.epoch_max]
               for rec, _ in pairs))
    write_csv(photometry_path, ["source_id", "time_bjd", "mag_g"],
              ([rec.source_id, repr(float(t)), repr(float(m))]
               for rec, lc in pairs for t, m in zip(lc.times, lc.mags)))
    return catalog_path, photometry_path
