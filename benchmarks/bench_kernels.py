"""
Time the five hot kernels at the shapes the pipeline calls them with.

The convolutions are timed as the CD path calls them: one batch of 16
patches of 16x16 (16 filters of 5x5, the README quick-start) and one
256x256 slice with 64 filters of 5x5 (the paper-scale CRBM, one image per
CD chunk).  The hidden conditional P(h|v) of the CRBM, the
valid correlation plus the in-place sigmoid with the hidden biases, is
timed at the same two shapes; its time minus the ``corr_valid`` line is
the sigmoid's.  Each of these rows is timed in float64, the dtype of
feature extraction and the oracles, and in float32, the dtype of the CD
training chain.

The two paper-scale steps that use the CRBM's worker thread are timed
with the worker and with each submitted call run inline on the calling
thread: one CD-1 chunk of a 256x256 float32 slice (``crbm._cd_sums``,
whose uniform fill the worker runs beside the first hidden pass, and
whose later hidden passes, CD statistics and the reconstruction's tap
product the two threads split; the calling thread adds the taps) and the
feature map of one 256x256 slice with 64 filters
(``extract_feature_map``, half of whose row bands the worker computes).
With BLAS on one thread, the two threads run on two cores.  Beside the
latter, ``extract_feature_map`` is timed on one quick-start extraction
stack, which runs on the calling thread: 32 patches of 16x16 (the 2**13
input values ``features`` stacks) with 16 filters of 5x5, in float64.

Two whole steps of the quick-start are timed as well: one CD-1 update
(``cd_update``) on a batch of 16 patches of 16x16 with 16 filters of 5x5,
whose chain runs in float32, and one fold's logistic-regression head
(``lr_fit``, 500 gradient steps on 1200 rows of 20 PLS-like scores).

The texture counters run on 32-level quantized planes with the
``radiomics-rf`` workload's elliptical ROI, at the two stack shapes the
radiomics catalog feeds them: 8 slices of 32x32 (one stack at the
default budget) and their 32 Haar subbands of 16x16.  Each is timed as
one stacked call and as one call per slice, the way the catalog counted
before it took stacks.  ``glrlm_counts`` is timed in all four directions,
since rows, columns and the two diagonals lay their lines out
differently.

Three stages of the ``radiomics-rf`` workload are timed whole: the
texture descriptors of one 32x32 slice (20 GLCMs at 32 levels and the 20
GLRLMs of the slice and its four 16x16 subbands, zero-padded to 32 run
columns, each family one stacked call), one fold's random forest
(``rf_fit`` on 150 rows of 20 PLS-like scores, 100 trees of depth 10,
5 features per split) and its scores of the fold's 50 held-out rows
(``rf_predict_proba``), and the 374-feature catalog of 200 slices of
32x32, in stacks of 8 as ``features._radiomics_features`` runs it and
slice by slice through the per-slice reference in
``tests/radiomics_reference.py``.

BLAS runs on one thread, as in ``perfbench/run.py``: run as a script, it
sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS before
numpy loads, overriding the environment, and prints the count it used.
Run from the repository root:

    PYTHONPATH=src python3 benchmarks/bench_kernels.py

Imported, it builds ``CASES`` and times nothing, and leaves the
environment alone; ``tests/test_bench_kernels.py`` calls every case once.
"""

import itertools
import os
import sys
import time
from concurrent.futures import Future
from pathlib import Path

BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

from crbm_radiomics import classifiers, crbm, kernels, radiomics, synth  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
import radiomics_reference  # noqa: E402

REPS = 20
WARMUP = 3
SLOW_REPS = 3
SLOW_S = 0.1

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


ROI32 = synth._ellipse_mask(32).bits
ROI16 = radiomics.downsample_mask(ROI32)
DIRECTIONS = ((0, 1), (1, 0), (1, 1), (1, -1))


def texture_stack(n, roi):
    """n planes of 32-level codes, 0 outside the ROI, and their ROIs."""
    rois = np.repeat(roi[None], n, axis=0)
    codes = rng.integers(1, 33, size=rois.shape)
    return np.where(rois > 0, codes, 0).astype(np.int32), rois


STACKS = (("8x32x32", texture_stack(8, ROI32)), ("32x16x16", texture_stack(32, ROI16)))


def per_slice(counter):
    """The counter called once per slice of the stack."""
    return lambda codes, rois, *args: [counter(c, r, *args) for c, r in zip(codes, rois)]


# one slice's texture matrices: the 32x32 plane and four 16x16 subbands
SLICE_PLANES = [texture_stack(1, ROI32)] + [texture_stack(1, ROI16) for _ in range(4)]
glcm_stack = np.concatenate([
    radiomics.glcm_compute(codes, roi, offset, 32)
    for codes, roi in SLICE_PLANES for offset in DIRECTIONS])
glrlm_stack = np.zeros((20, 32, 32))
for stacked, ((codes, roi), direction) in zip(
        glrlm_stack, itertools.product(SLICE_PLANES, DIRECTIONS)):
    stacked[:, :codes.shape[-1]] = radiomics.glrlm_compute(codes, roi, direction, 32)[0]

# the catalog's input: 200 slices of 32x32 with the workload's ROI
catalog_pixels = rng.random((200, 32, 32))
catalog_bits = np.repeat(ROI32[None], 200, axis=0)


def catalog_stacked(pixels, bits):
    return [radiomics.extract_all(pixels[i:i + 8], bits[i:i + 8])
            for i in range(0, len(pixels), 8)]


def catalog_per_slice(pixels, bits):
    return [radiomics_reference.extract_one(p, b) for p, b in zip(pixels, bits)]


# one fold's training rows for the forest: 20 PLS-like scores, whose
# spread falls with the component index, and a label the first one drives
forest_X = rng.normal(size=(150, 20)) / np.arange(1, 21)
forest_y = (forest_X[:, 0] + rng.normal(size=150) > 0).astype(np.float64)
forest = classifiers.rf_fit(forest_X, forest_y, 100, 10)
held_out_X = rng.normal(size=(50, 20)) / np.arange(1, 21)


class InlineExecutor:
    """Runs each submitted call at once, on the calling thread."""

    def submit(self, fn, *args, **kwargs):
        future = Future()
        future.set_result(fn(*args, **kwargs))
        return future


WORKERS = (("worker", crbm._worker), ("inline", InlineExecutor))


def with_worker(executor, fn):
    """fn, run with crbm._worker replaced by executor."""
    def run(*args):
        crbm._worker = executor
        try:
            return fn(*args)
        finally:
            crbm._worker = WORKERS[0][1]
    return run


slice32 = image.astype(np.float32)
slice_rng = np.random.default_rng(2)
# one quick-start extraction stack: 32 patches of 16x16
extract_stack = np.random.default_rng(3).random((32, 16, 16))

# one quick-start CD batch, as train passes it: views of float64 patches
cd_batch = list(rng.random((16, 16, 16)))
cd_config = crbm.CrbmConfig(num_filters=16, kernel_size=5, input_size=16,
                            learning_rate=0.05, batch_size=16)
cd_rng = np.random.default_rng(1)

# one quick-start fold of the LR head: 1200 rows of 20 PLS-like scores
lr_X = rng.normal(size=(1200, 20)) / np.arange(1, 21)
lr_y = (lr_X[:, 0] + rng.normal(size=1200) > 0).astype(np.float64)

CRBM_CASES = (
    ("corr_valid  (1x256x256, 64x5x5)", kernels.corr_valid, (image, filters)),
    ("corr_valid  (16x16x16, 16x5x5)", kernels.corr_valid, (patches, patch_filters)),
    ("conv_full   (1x64x252x252, 5x5)", kernels.conv_full, (hidden, filters)),
    ("conv_full   (16x16x12x12, 5x5)", kernels.conv_full, (patch_hidden, patch_filters)),
    ("corr_grad   (1x256x256, 64 maps)", kernels.corr_grad, (image, hidden)),
    ("corr_grad   (16x16x16, 16 maps)", kernels.corr_grad, (patches, patch_hidden)),
    ("P(h|v)      (1x64x252x252)", crbm._hidden_probs, (slice_model, image)),
    ("P(h|v)      (16x16x12x12)", crbm._hidden_probs, (patch_model, patches)),
)


def as_dtype(args, dtype):
    """The arrays of args cast to dtype; a model keeps float64 parameters."""
    return tuple(a.astype(dtype) if isinstance(a, np.ndarray) else a for a in args)


CASES = tuple(
    (f"{label} {np.dtype(dtype).name}", fn, as_dtype(args, dtype))
    for label, fn, args in CRBM_CASES for dtype in (np.float64, np.float32)
) + tuple(
    (f"{label} {how}", with_worker(executor, fn), args)
    for label, fn, args in (
        ("CD-1 chunk (1x256x256, 64x5x5) float32", crbm._cd_sums,
         (slice_model, slice32, 1, slice_rng)),
        ("extract_feature_map (1x256x256, 64x5x5)", crbm.extract_feature_map,
         (slice_model, image)))
    for how, executor in WORKERS
) + (
    ("extract_feature_map (32 x 16x16, 16x5x5) float64",
     crbm.extract_feature_map, (patch_model, extract_stack)),
    ("cd_update (16 x 16x16, 16x5x5) float32", crbm.cd_update,
     (patch_model, cd_batch, cd_config, cd_rng)),
    ("lr_fit (1200x20, 500 steps)", classifiers.lr_fit, (lr_X, lr_y)),
) + tuple(
    (f"glcm_counts ({name}, 0,1) {how}", fn, (codes, rois, 0, 1, 32))
    for name, (codes, rois) in STACKS
    for how, fn in (("stacked", kernels.glcm_counts),
                    ("per slice", per_slice(kernels.glcm_counts)))
) + tuple(
    (f"glrlm_counts({name}, {dr},{dc}) {how}", fn,
     (codes, rois, dr, dc, 32, codes.shape[-1]))
    for name, (codes, rois) in STACKS for dr, dc in DIRECTIONS
    for how, fn in (("stacked", kernels.glrlm_counts),
                    ("per slice", per_slice(kernels.glrlm_counts)))
) + (
    ("glcm descriptors (20 x 32x32)", radiomics._glcm_descriptors, (glcm_stack,)),
    ("glrlm descriptors (20 x 32x32)", radiomics._glrlm_descriptors, (glrlm_stack,)),
    ("rf forest (150x20, 100 trees, depth 10)", classifiers.rf_fit,
     (forest_X, forest_y, 100, 10)),
    ("rf predict (50x20, 100 trees, depth 10)", classifiers.rf_predict_proba,
     (forest, held_out_X)),
    ("catalog 200x32x32, stacks of 8", catalog_stacked,
     (catalog_pixels, catalog_bits)),
    ("catalog 200x32x32, per slice", catalog_per_slice,
     (catalog_pixels, catalog_bits)),
)


def time_call(fn, args):
    """Mean and sd in ms over REPS calls after WARMUP, or over SLOW_REPS
    calls when the first call takes more than SLOW_S."""
    start = time.perf_counter()
    fn(*args)
    slow = time.perf_counter() - start > SLOW_S
    for _ in range(0 if slow else WARMUP - 1):
        fn(*args)
    samples = []
    for _ in range(SLOW_REPS if slow else REPS):
        start = time.perf_counter()
        fn(*args)
        samples.append((time.perf_counter() - start) * 1000)
    return np.mean(samples), np.std(samples)


def main():
    print(f"{REPS} reps after {WARMUP} warmup calls ({SLOW_REPS} reps after "
          f"one for calls over {SLOW_S} s), times in ms")
    print(f"BLAS threads: {BLAS_THREADS} ({', '.join(BLAS_THREAD_VARS)})\n")
    header = f"{'kernel':<50}{'mean':>10}{'std':>8}"
    print(header)
    print("-" * len(header))
    for label, fn, args in CASES:
        mean, std = time_call(fn, args)
        print(f"{label:<50}{mean:>10.3f}{std:>8.3f}")


if __name__ == "__main__":
    main()
