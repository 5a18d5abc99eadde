"""
Time the five hot kernels at the shapes the pipeline calls them with.

The convolutions are timed as the CD path calls them: one batch of 16
patches of 16x16 (16 filters of 5x5, the README quick-start) and one
256x256 slice with 64 filters of 5x5 (the paper-scale CRBM, one image per
CD chunk).  The texture counters run on a 32-level 128x128 quantized
image with the active backend (``kernels.active_backend()``; set
``CRBM_RADIOMICS_NUMBA=0`` to time the numpy counters when numba is
installed).  Run from the repository root:

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

tex_roi = (rng.random((128, 128)) < 0.85).astype(np.uint8)
tex_codes = np.where(tex_roi > 0,
                     rng.integers(1, 33, size=(128, 128)), 0).astype(np.int32)

CASES = (
    ("corr_valid  (1x256x256, 64x5x5)", kernels.corr_valid, (image, filters)),
    ("corr_valid  (16x16x16, 16x5x5)", kernels.corr_valid, (patches, patch_filters)),
    ("conv_full   (1x64x252x252, 5x5)", kernels.conv_full, (hidden, filters)),
    ("conv_full   (16x16x12x12, 5x5)", kernels.conv_full, (patch_hidden, patch_filters)),
    ("corr_grad   (1x256x256, 64 maps)", kernels.corr_grad, (image, hidden)),
    ("corr_grad   (16x16x16, 16 maps)", kernels.corr_grad, (patches, patch_hidden)),
    ("glcm_counts (128x128, 32 lv)", kernels.glcm_counts,
     (tex_codes, tex_roi, 0, 1, 32)),
    ("glrlm_counts(128x128, 32 lv)", kernels.glrlm_counts,
     (tex_codes, tex_roi, 0, 1, 32, 128)),
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


print(f"texture counters: {kernels.active_backend()} backend")
print(f"{REPS} reps after {WARMUP} warmup calls, times in ms\n")
header = f"{'kernel':<34}{'mean':>10}{'std':>8}"
print(header)
print("-" * len(header))
for label, fn, args in CASES:
    mean, std = time_call(fn, args)
    print(f"{label:<34}{mean:>10.3f}{std:>8.3f}")
