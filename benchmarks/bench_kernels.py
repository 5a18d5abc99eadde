"""
Time the five hot kernels at the shapes the pipeline calls them with.

The convolutions are timed as the CD path calls them: one batch of 16
patches of 16x16 (16 filters of 5x5, the README quick-start) and one
256x256 slice with 64 filters of 5x5 (the paper-scale CRBM, one image per
CD chunk).  The texture counters run on 32-level quantized planes: one
128x128 image, and the 32x32 slice and 16x16 Haar subbands that the
radiomics catalog feeds them (elliptical ROI).  ``glrlm_counts`` is timed
in all four directions, since rows, columns and the two diagonals lay
their lines out differently.  Run from the repository root:

    PYTHONPATH=src python3 benchmarks/bench_kernels.py
"""

import time

import numpy as np

from crbm_radiomics import kernels

REPS = 20
WARMUP = 3

rng = np.random.default_rng(0)

image = rng.random((1, 256, 256))
filters = rng.normal(size=(64, 5, 5))
hidden = rng.random((1, 64, 252, 252))

patches = rng.random((16, 16, 16))
patch_filters = rng.normal(size=(16, 5, 5))
patch_hidden = rng.random((16, 16, 12, 12))


def texture_plane(side, roi):
    codes = rng.integers(1, 33, size=(side, side))
    return np.where(roi > 0, codes, 0).astype(np.int32), roi


def ellipse(side):
    r, c = np.mgrid[:side, :side] + 0.5 - side / 2
    return ((r / (0.45 * side)) ** 2 + (c / (0.35 * side)) ** 2 <= 1).astype(np.uint8)


PLANES = (("128x128", texture_plane(128, (rng.random((128, 128)) < 0.85)
                                    .astype(np.uint8))),
          ("32x32", texture_plane(32, ellipse(32))),
          ("16x16", texture_plane(16, ellipse(16))))
DIRECTIONS = ((0, 1), (1, 0), (1, 1), (1, -1))

CASES = (
    ("corr_valid  (1x256x256, 64x5x5)", kernels.corr_valid, (image, filters)),
    ("corr_valid  (16x16x16, 16x5x5)", kernels.corr_valid, (patches, patch_filters)),
    ("conv_full   (1x64x252x252, 5x5)", kernels.conv_full, (hidden, filters)),
    ("conv_full   (16x16x12x12, 5x5)", kernels.conv_full, (patch_hidden, patch_filters)),
    ("corr_grad   (1x256x256, 64 maps)", kernels.corr_grad, (image, hidden)),
    ("corr_grad   (16x16x16, 16 maps)", kernels.corr_grad, (patches, patch_hidden)),
) + tuple(
    (f"glcm_counts ({name}, 0,1)", kernels.glcm_counts,
     (codes, roi, 0, 1, 32))
    for name, (codes, roi) in PLANES
) + tuple(
    (f"glrlm_counts({name}, {dr},{dc})", kernels.glrlm_counts,
     (codes, roi, dr, dc, 32, codes.shape[0]))
    for name, (codes, roi) in PLANES for dr, dc in DIRECTIONS
)


def time_call(fn, args):
    for _ in range(WARMUP):
        fn(*args)
    samples = []
    for _ in range(REPS):
        start = time.perf_counter()
        fn(*args)
        samples.append((time.perf_counter() - start) * 1000)
    return np.mean(samples), np.std(samples)


print(f"{REPS} reps after {WARMUP} warmup calls, times in ms\n")
header = f"{'kernel':<34}{'mean':>10}{'std':>8}"
print(header)
print("-" * len(header))
for label, fn, args in CASES:
    mean, std = time_call(fn, args)
    print(f"{label:<34}{mean:>10.3f}{std:>8.3f}")
