"""Independent oracles for the five hot kernels and backend equivalence
for the texture counters."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import convolve2d, correlate2d

from crbm_radiomics import kernels
from texture_bruteforce import brute_glcm, brute_glrlm

NUMPY = kernels.BACKENDS["numpy"]
# the convolutions have one implementation; the texture counters also have
# a numba twin when numba is installed
BACKENDS = [("numpy", NUMPY)]
COUNTER_BACKENDS = list(BACKENDS)
if kernels.BACKENDS.get("numba") is not None:
    COUNTER_BACKENDS.append(("numba", kernels.BACKENDS["numba"]))


def _random_case(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 24))
    k = int(rng.integers(1, min(6, n) + 1))
    m = int(rng.integers(1, 5))
    v = rng.random((n, n))
    filters = rng.normal(size=(m, k, k))
    h = rng.random((m, n - k + 1, n - k + 1))
    return v, filters, h


@pytest.mark.parametrize("name,backend", BACKENDS)
def test_corr_valid_matches_scipy(name, backend):
    for seed in range(10):
        v, filters, _ = _random_case(seed)
        got = backend["corr_valid"](v, filters)
        want = np.stack([correlate2d(v, f, mode="valid") for f in filters])
        np.testing.assert_allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("name,backend", BACKENDS)
def test_conv_full_matches_scipy(name, backend):
    for seed in range(10):
        _, filters, h = _random_case(seed)
        got = backend["conv_full"](h, filters)
        want = sum(convolve2d(h[i], filters[i], mode="full")
                   for i in range(filters.shape[0]))
        np.testing.assert_allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("name,backend", BACKENDS)
def test_corr_grad_matches_explicit_loops(name, backend):
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
        np.testing.assert_allclose(backend["corr_grad"](v, h), want, atol=1e-12)


def _random_quantized(seed):
    rng = np.random.default_rng(seed)
    h, w = int(rng.integers(4, 15)), int(rng.integers(4, 15))
    levels = int(rng.integers(2, 9))
    roi = (rng.random((h, w)) < 0.75).astype(np.uint8)
    codes = np.where(roi > 0,
                     rng.integers(1, levels + 1, size=(h, w)), 0).astype(np.int32)
    return codes, roi, levels


OFFSETS = ((0, 1), (1, 0), (1, 1), (1, -1))


@pytest.mark.parametrize("name,backend", COUNTER_BACKENDS)
def test_glcm_counts_match_brute_force(name, backend):
    for seed in range(8):
        codes, roi, levels = _random_quantized(seed)
        for dr, dc in OFFSETS:
            got = backend["glcm_counts"](codes, roi, dr, dc, levels)
            want = brute_glcm(codes, roi, dr, dc, levels)
            assert np.array_equal(np.asarray(got, dtype=float), want)


@pytest.mark.parametrize("name,backend", COUNTER_BACKENDS)
def test_glrlm_counts_match_brute_force(name, backend):
    for seed in range(8):
        codes, roi, levels = _random_quantized(seed)
        max_run = max(codes.shape)
        for dr, dc in OFFSETS:
            got = backend["glrlm_counts"](codes, roi, dr, dc, levels, max_run)
            want = brute_glrlm(codes, roi, dr, dc, levels, max_run)
            assert np.array_equal(np.asarray(got, dtype=float), want), \
                f"direction ({dr},{dc}) seed {seed}"


@pytest.mark.parametrize("name,backend", COUNTER_BACKENDS)
def test_glrlm_runs_cover_roi_pixels_exactly_once(name, backend):
    # sum of length * count over the matrix = number of in-ROI pixels
    for seed in range(8):
        codes, roi, levels = _random_quantized(seed)
        max_run = max(codes.shape)
        lengths = np.arange(1, max_run + 1)
        for dr, dc in OFFSETS:
            mat = np.asarray(backend["glrlm_counts"](
                codes, roi, dr, dc, levels, max_run), dtype=float)
            assert (mat * lengths).sum() == roi.sum()


@pytest.mark.skipif(len(COUNTER_BACKENDS) < 2, reason="numba backend unavailable")
def test_numba_counters_agree_bitwise_with_numpy():
    codes, roi, levels = _random_quantized(5)
    nb = kernels.BACKENDS["numba"]
    assert np.array_equal(nb["glcm_counts"](codes, roi, 1, -1, levels),
                          NUMPY["glcm_counts"](codes, roi, 1, -1, levels))
    assert np.array_equal(
        nb["glrlm_counts"](codes, roi, 1, 1, levels, codes.shape[0]),
        NUMPY["glrlm_counts"](codes, roi, 1, 1, levels, codes.shape[0]))


def test_active_backend_reports_a_known_name():
    assert kernels.active_backend() in ("numpy", "numba")


# Property tests: the batched convolutions against scipy.signal, image by
# image, over random batch shapes (None = no batch axis), filter counts,
# kernel and image sizes.
BATCH = st.one_of(st.none(), st.integers(1, 3))


def _batched_case(seed, batch, m, k, n):
    rng = np.random.default_rng(seed)
    lead = () if batch is None else (batch,)
    side = n - k + 1
    return (rng.random((*lead, n, n)), rng.normal(size=(m, k, k)),
            rng.random((*lead, m, side, side)))


def _images(arr, inner_ndim):
    return arr.reshape(-1, *arr.shape[-inner_ndim:])


CASE = dict(seed=st.integers(0, 2**32 - 1), batch=BATCH, m=st.integers(1, 4),
            k=st.integers(1, 5), extra=st.integers(0, 8))


@settings(max_examples=40, deadline=None)
@given(**CASE)
def test_corr_valid_batched_matches_scipy_per_image(seed, batch, m, k, extra):
    v, filters, _ = _batched_case(seed, batch, m, k, k + extra)
    got = kernels.corr_valid(v, filters)
    assert got.shape == v.shape[:-2] + (m, extra + 1, extra + 1)
    want = [np.stack([correlate2d(img, f, mode="valid") for f in filters])
            for img in _images(v, 2)]
    np.testing.assert_allclose(_images(got, 3), want, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(**CASE)
def test_conv_full_batched_matches_scipy_per_image(seed, batch, m, k, extra):
    _, filters, h = _batched_case(seed, batch, m, k, k + extra)
    got = kernels.conv_full(h, filters)
    assert got.shape == h.shape[:-3] + (k + extra, k + extra)
    want = [sum(convolve2d(maps[i], filters[i], mode="full") for i in range(m))
            for maps in _images(h, 3)]
    np.testing.assert_allclose(_images(got, 2), want, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(**CASE)
def test_corr_grad_batched_is_sum_of_per_image_correlations(seed, batch, m, k, extra):
    v, _, h = _batched_case(seed, batch, m, k, k + extra)
    got = kernels.corr_grad(v, h)
    want = sum(np.stack([correlate2d(img, maps[i], mode="valid") for i in range(m)])
               for img, maps in zip(_images(v, 2), _images(h, 3)))
    np.testing.assert_allclose(got, want, atol=1e-12)
