"""
Time the five hot kernels at the shapes the pipeline calls them with.

The convolutions are timed as the CD path calls them: one batch of 16
patches of 16x16 (16 filters of 5x5, the README quick-start) and one
256x256 slice with 64 filters of 5x5 (the paper-scale CRBM, one image per
CD chunk).  The hidden conditional P(h|v) of the CRBM, the
valid correlation plus the in-place sigmoid with the hidden biases, is
timed at the same two shapes; its time minus the ``corr_valid`` line is
the sigmoid's.  The texture counters run on 32-level quantized planes: one
128x128 image, and the 32x32 slice and 16x16 Haar subbands that the
radiomics catalog feeds them (elliptical ROI).  ``glrlm_counts`` is timed
in all four directions, since rows, columns and the two diagonals lay
their lines out differently.

Two stages of the ``radiomics-rf`` workload are timed whole: the texture
descriptors of one 32x32 slice (20 GLCMs at 32 levels and the 20 GLRLMs
of the slice and its four 16x16 subbands, zero-padded to 32 run columns,
each family one stacked call) and one random-forest node (150 bootstrap
rows, 5 of 20 features).  Run from the repository root:

    PYTHONPATH=src python3 benchmarks/bench_kernels.py
"""

import itertools
import time

import numpy as np

from crbm_radiomics import classifiers, crbm, kernels, radiomics
from crbm_radiomics.data_model import RoiMask

REPS = 20
WARMUP = 3

rng = np.random.default_rng(0)

image = rng.random((1, 256, 256))
filters = rng.normal(size=(64, 5, 5))
hidden = rng.random((1, 64, 252, 252))

patches = rng.random((16, 16, 16))
patch_filters = rng.normal(size=(16, 5, 5))
patch_hidden = rng.random((16, 16, 12, 12))

slice_model = crbm.CrbmModel(filters=filters, visible_bias=0.0,
                             hidden_biases=rng.normal(size=64), input_size=256)
patch_model = crbm.CrbmModel(filters=patch_filters, visible_bias=0.0,
                             hidden_biases=rng.normal(size=16), input_size=16)


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

# one slice's texture matrices: the 32x32 plane and four 16x16 subbands
SLICE_PLANES = [texture_plane(32, ellipse(32))] + \
    [texture_plane(16, ellipse(16)) for _ in range(4)]
glcm_stack = np.stack([
    radiomics.glcm_compute(radiomics.QuantizedImage(codes, 32, RoiMask(roi)), offset)
    for codes, roi in SLICE_PLANES for offset in DIRECTIONS])
glrlm_stack = np.zeros((20, 32, 32))
for stacked, ((codes, roi), (dr, dc)) in zip(
        glrlm_stack, itertools.product(SLICE_PLANES, DIRECTIONS)):
    stacked[:, :codes.shape[0]] = kernels.glrlm_counts(
        codes, roi, dr, dc, 32, codes.shape[0])

# one forest node: bootstrap rows of PLS-like scores, 5 of 20 features
node_X = rng.normal(size=(150, 20))
node_y = (node_X[:, 0] + rng.normal(size=150) > 0).astype(np.float64)
node_rows = rng.integers(0, 150, size=150)
node_features = rng.permutation(20)[:5]

CASES = (
    ("corr_valid  (1x256x256, 64x5x5)", kernels.corr_valid, (image, filters)),
    ("corr_valid  (16x16x16, 16x5x5)", kernels.corr_valid, (patches, patch_filters)),
    ("conv_full   (1x64x252x252, 5x5)", kernels.conv_full, (hidden, filters)),
    ("conv_full   (16x16x12x12, 5x5)", kernels.conv_full, (patch_hidden, patch_filters)),
    ("corr_grad   (1x256x256, 64 maps)", kernels.corr_grad, (image, hidden)),
    ("corr_grad   (16x16x16, 16 maps)", kernels.corr_grad, (patches, patch_hidden)),
    ("P(h|v)      (1x64x252x252)", crbm._hidden_probs, (slice_model, image)),
    ("P(h|v)      (16x16x12x12)", crbm._hidden_probs, (patch_model, patches)),
) + tuple(
    (f"glcm_counts ({name}, 0,1)", kernels.glcm_counts,
     (codes, roi, 0, 1, 32))
    for name, (codes, roi) in PLANES
) + tuple(
    (f"glrlm_counts({name}, {dr},{dc})", kernels.glrlm_counts,
     (codes, roi, dr, dc, 32, codes.shape[0]))
    for name, (codes, roi) in PLANES for dr, dc in DIRECTIONS
) + (
    ("glcm descriptors (20 x 32x32)", radiomics._glcm_descriptors, (glcm_stack,)),
    ("glrlm descriptors (20 x 32x32)", radiomics._glrlm_descriptors, (glrlm_stack,)),
    ("rf node split (150 rows, 5 of 20)", classifiers._best_split,
     (node_X, node_y, node_rows, node_features)),
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
header = f"{'kernel':<36}{'mean':>10}{'std':>8}"
print(header)
print("-" * len(header))
for label, fn, args in CASES:
    mean, std = time_call(fn, args)
    print(f"{label:<36}{mean:>10.3f}{std:>8.3f}")
