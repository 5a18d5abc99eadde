"""Independent oracles for the five hot kernels: scipy.signal for the
convolutions and literal pixel loops for the texture counters."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import convolve2d, correlate2d

from crbm_radiomics import kernels
from texture_bruteforce import brute_glcm, brute_glrlm

def _random_case(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 24))
    k = int(rng.integers(1, min(6, n) + 1))
    m = int(rng.integers(1, 5))
    v = rng.random((n, n))
    filters = rng.normal(size=(m, k, k))
    h = rng.random((m, n - k + 1, n - k + 1))
    return v, filters, h


def test_corr_valid_matches_scipy():
    for seed in range(10):
        v, filters, _ = _random_case(seed)
        got = kernels.corr_valid(v[None], filters)
        want = np.stack([correlate2d(v, f, mode="valid") for f in filters])
        np.testing.assert_allclose(got, want[None], atol=1e-12)


def test_conv_full_matches_scipy():
    for seed in range(10):
        _, filters, h = _random_case(seed)
        got = kernels.conv_full(h[None], filters)
        want = sum(convolve2d(h[i], filters[i], mode="full")
                   for i in range(filters.shape[0]))
        np.testing.assert_allclose(got, want[None], atol=1e-12)


def test_corr_grad_matches_explicit_loops():
    for seed in range(6):
        v, filters, h = _random_case(seed)
        m, k, _ = filters.shape
        side = h.shape[1]
        want = np.zeros((m, k, k))
        for mi in range(m):
            for r in range(k):
                for c in range(k):
                    want[mi, r, c] = np.sum(
                        v[r:r + side, c:c + side] * h[mi])
        np.testing.assert_allclose(kernels.corr_grad(v[None], h[None]), want,
                                   atol=1e-12)


def test_active_backend_reports_a_known_name():
    assert kernels.active_backend() == "numpy"


# Property tests: both texture counters against the brute-force enumerators
# over random shapes (1-wide and 1-tall included), ROI densities from empty
# to full, 2-8 levels, all four directions and max_run from 1 (every run
# clipped) to max(h, w) (none clipped).
OFFSETS = ((0, 1), (1, 0), (1, 1), (1, -1))


@st.composite
def quantized_slices(draw):
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    levels = draw(st.integers(2, 8))
    density = draw(st.sampled_from((0.0, 0.2, 0.5, 0.8, 1.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    roi = (rng.random((h, w)) < density).astype(np.uint8)
    codes = rng.integers(1, levels + 1, size=(h, w))
    if draw(st.booleans()):
        # sorted codes give long runs; independent codes give mostly runs of 1
        codes = np.sort(codes, axis=draw(st.sampled_from((0, 1))))
    codes = np.where(roi > 0, codes, 0).astype(np.int32)
    return codes, roi, levels, draw(st.sampled_from(OFFSETS)), \
        draw(st.integers(1, max(h, w)))


@settings(max_examples=60, deadline=None)
@given(quantized_slices())
def test_glcm_counts_match_brute_force(case):
    codes, roi, levels, (dr, dc), _ = case
    got = kernels.glcm_counts(codes, roi, dr, dc, levels)
    assert np.array_equal(got, brute_glcm(codes, roi, dr, dc, levels))


@settings(max_examples=60, deadline=None)
@given(quantized_slices())
def test_glrlm_counts_match_brute_force(case):
    codes, roi, levels, (dr, dc), max_run = case
    got = kernels.glrlm_counts(codes, roi, dr, dc, levels, max_run)
    assert got.shape == (levels, max_run)
    assert np.array_equal(got, brute_glrlm(codes, roi, dr, dc, levels, max_run))


@settings(max_examples=60, deadline=None)
@given(quantized_slices())
def test_glrlm_runs_cover_roi_pixels_exactly_once(case):
    # sum of length * count over the unclipped matrix = number of in-ROI pixels
    codes, roi, levels, (dr, dc), _ = case
    max_run = max(codes.shape)
    mat = kernels.glrlm_counts(codes, roi, dr, dc, levels, max_run)
    assert (mat * np.arange(1, max_run + 1)).sum() == roi.sum()


def test_glrlm_counts_rejects_other_directions():
    codes = np.ones((3, 3), dtype=np.int32)
    with pytest.raises(ValueError):
        kernels.glrlm_counts(codes, codes, 0, -1, 1, 3)


# Property tests: the batched convolutions against scipy.signal, image by
# image, over random batch sizes, filter counts, kernel and image sizes.
BATCH = st.integers(1, 3)


def _batched_case(seed, batch, m, k, n):
    rng = np.random.default_rng(seed)
    side = n - k + 1
    return (rng.random((batch, n, n)), rng.normal(size=(m, k, k)),
            rng.random((batch, m, side, side)))


CASE = dict(seed=st.integers(0, 2**32 - 1), batch=BATCH, m=st.integers(1, 4),
            k=st.integers(1, 5), extra=st.integers(0, 8))


@settings(max_examples=40, deadline=None)
@given(**CASE)
def test_corr_valid_batched_matches_scipy_per_image(seed, batch, m, k, extra):
    v, filters, _ = _batched_case(seed, batch, m, k, k + extra)
    got = kernels.corr_valid(v, filters)
    assert got.shape == (batch, m, extra + 1, extra + 1)
    want = [np.stack([correlate2d(img, f, mode="valid") for f in filters])
            for img in v]
    np.testing.assert_allclose(got, want, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(**CASE)
def test_conv_full_batched_matches_scipy_per_image(seed, batch, m, k, extra):
    _, filters, h = _batched_case(seed, batch, m, k, k + extra)
    got = kernels.conv_full(h, filters)
    assert got.shape == (batch, k + extra, k + extra)
    want = [sum(convolve2d(maps[i], filters[i], mode="full") for i in range(m))
            for maps in h]
    np.testing.assert_allclose(got, want, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(**CASE)
def test_corr_grad_batched_is_sum_of_per_image_correlations(seed, batch, m, k, extra):
    v, _, h = _batched_case(seed, batch, m, k, k + extra)
    got = kernels.corr_grad(v, h)
    want = sum(np.stack([correlate2d(img, maps[i], mode="valid") for i in range(m)])
               for img, maps in zip(v, h))
    np.testing.assert_allclose(got, want, atol=1e-12)


def conv_full_tap_loop(hmaps, w):
    """conv_full as a loop over taps: the tap planes of the same matrix
    product, each added into a zeroed output at its (r, s) offset in
    (r, s) order.  The kernel adds each pixel's terms in this order."""
    m, k, _ = w.shape
    batch, side = len(hmaps), hmaps.shape[-1]
    taps = w.reshape(m, k * k).T @ hmaps.reshape(batch, m, side * side)
    taps = taps.reshape(batch, k, k, side, side)
    out = np.zeros((batch, side + k - 1, side + k - 1), dtype=taps.dtype)
    for r in range(k):
        for s in range(k):
            out[..., r:r + side, s:s + side] += taps[..., r, s, :, :]
    return out


def test_window_kernels_take_strided_image_stacks():
    # the window views are made over a contiguous buffer; a strided stack
    # must give the bits of its contiguous copy
    rng = np.random.default_rng(21)
    v = rng.random((3, 12, 15))[:, :, 1:13]
    w = rng.normal(size=(2, 4, 4))
    h = rng.random((3, 2, 9, 9))
    assert not v.flags.c_contiguous
    assert np.array_equal(kernels.corr_valid(v, w), kernels.corr_valid(v.copy(), w))
    assert np.array_equal(kernels.corr_grad(v, h), kernels.corr_grad(v.copy(), h))


# frame budgets: one value per band row, a few rows, and the default
FRAME_BUDGETS = (1, 1 << 10, kernels._FRAME_ELEMENTS)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       batch=st.sampled_from([1, 3, 6]), m=st.integers(1, 4),
       k=st.integers(1, 5), side=st.integers(1, 9),
       dtype=st.sampled_from([np.float32, np.float64]),
       binary=st.booleans(), budget=st.sampled_from(FRAME_BUDGETS))
def test_conv_full_is_bit_identical_to_the_tap_loop(seed, batch, m, k, side,
                                                    dtype, binary, budget):
    rng = np.random.default_rng(seed)
    hmaps = rng.random((batch, m, side, side))
    if binary:  # the CD chain's hidden samples
        hmaps = (hmaps < 0.5).astype(np.float64)
    hmaps, w = hmaps.astype(dtype), rng.normal(size=(m, k, k)).astype(dtype)
    with mock.patch.object(kernels, "_FRAME_ELEMENTS", budget):
        got = kernels.conv_full(hmaps, w)
    want = conv_full_tap_loop(hmaps, w)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


# Property tests on stacks: one call counts every member of a random stack
# of same-shape slices, and each member's matrix equals the brute-force
# enumeration of that member alone.  Members get their own ROI: empty,
# a single pixel, a checkerboard (no pair at (0, 1) or (1, 0)), random
# densities or full; h and w are drawn independently.
ROI_KINDS = ("empty", "single", "checker", "sparse", "dense", "full")


def _member_roi(rng, kind, h, w):
    if kind == "empty":
        return np.zeros((h, w), dtype=np.uint8)
    if kind == "single":
        roi = np.zeros((h, w), dtype=np.uint8)
        roi[rng.integers(h), rng.integers(w)] = 1
        return roi
    if kind == "checker":
        return (np.add.outer(np.arange(h), np.arange(w)) % 2 == 0).astype(np.uint8)
    density = {"sparse": 0.3, "dense": 0.8, "full": 1.0}[kind]
    return (rng.random((h, w)) < density).astype(np.uint8)


@st.composite
def quantized_stacks(draw):
    h, w = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    levels = draw(st.integers(2, 8))
    kinds = draw(st.lists(st.sampled_from(ROI_KINDS), min_size=1, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    roi = np.stack([_member_roi(rng, kind, h, w) for kind in kinds])
    codes = rng.integers(1, levels + 1, size=roi.shape)
    if draw(st.booleans()):
        codes = np.sort(codes, axis=draw(st.sampled_from((1, 2))))
    codes = np.where(roi > 0, codes, 0).astype(np.int32)
    return codes, roi, levels, draw(st.sampled_from(OFFSETS)), \
        draw(st.integers(1, max(h, w)))


@settings(max_examples=80, deadline=None)
@given(quantized_stacks())
def test_stacked_glcm_counts_match_brute_force_per_member(case):
    codes, roi, levels, (dr, dc), _ = case
    got = kernels.glcm_counts(codes, roi, dr, dc, levels)
    assert got.shape == (codes.shape[0], levels, levels)
    for member, c, r in zip(got, codes, roi):
        assert np.array_equal(member, brute_glcm(c, r, dr, dc, levels))
    # any number of leading axes: a (1, n) stack counts the same
    assert np.array_equal(kernels.glcm_counts(codes[None], roi[None], dr, dc, levels),
                          got[None])


@settings(max_examples=80, deadline=None)
@given(quantized_stacks())
def test_stacked_glrlm_counts_match_brute_force_per_member(case):
    codes, roi, levels, (dr, dc), max_run = case
    got = kernels.glrlm_counts(codes, roi, dr, dc, levels, max_run)
    assert got.shape == (codes.shape[0], levels, max_run)
    for member, c, r in zip(got, codes, roi):
        assert np.array_equal(member, brute_glrlm(c, r, dr, dc, levels, max_run))
    assert np.array_equal(
        kernels.glrlm_counts(codes[None], roi[None], dr, dc, levels, max_run), got[None])
