"""Feature-extraction oracles: hand-computed fixtures and scipy cross-checks."""

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from crbm_radiomics import radiomics
from crbm_radiomics.data_model import Image2D, RoiMask
from crbm_radiomics.errors import ShapeMismatchError
from crbm_radiomics.radiomics import (
    CATALOG_NAMES,
    FEATURE_COUNT,
    FIRST_ORDER_NAMES,
    GLCM_FEATURE_NAMES,
    GLRLM_FEATURE_NAMES,
    SHAPE_NAMES,
    extract_all,
    glcm_compute,
    glrlm_compute,
    wavelet_decompose,
    wavelet_reconstruct,
)
from crbm_radiomics.seeding import derive_rng

from radiomics_reference import (assert_catalog_row_matches_reference,
                                 assert_shape_matches_reference)
from texture_bruteforce import (brute_glcm, brute_glrlm, reference_glcm_features,
                                reference_glrlm_features)


def full_mask(shape):
    return RoiMask(bits=np.ones(shape, dtype=np.uint8))


def extract_one(img, mask, levels=32):
    """The catalog of one slice, as a one-member stack: {name: value}."""
    values = extract_all(img.pixels[None], mask.bits[None], levels)
    assert values.shape == (1, FEATURE_COUNT)
    return dict(zip(CATALOG_NAMES, values[0]))


def quantize(values, bits, levels):
    """The codes of one slice, as a one-member stack."""
    return radiomics._quantize(np.asarray(values, dtype=np.float64)[None],
                               np.asarray(bits)[None] > 0, levels)[0]


# ---------------------------------------------------------------------------
# Quantization
# ---------------------------------------------------------------------------

def test_quantize_equal_width_hand_case():
    values = np.array([[0.0, 0.25, 0.5, 0.75, 1.0]])
    codes = quantize(values, np.ones((1, 5)), 4)
    assert codes.tolist() == [[1, 2, 3, 4, 4]]


def test_quantize_constant_region_maps_to_one():
    codes = quantize(np.full((3, 3), 0.4), np.ones((3, 3)), 32)
    assert set(codes.ravel()) == {1}


def test_quantize_marks_outside_pixels_zero():
    bits = np.array([[1, 0], [1, 1]], dtype=np.uint8)
    codes = quantize(np.array([[0.1, 0.9], [0.5, 0.8]]), bits, 8)
    assert codes[0, 1] == 0
    assert (codes[bits > 0] >= 1).all()


def test_quantize_uses_roi_range_only():
    # the bright outside pixel must not stretch the bins
    bits = np.array([[1, 1, 0]], dtype=np.uint8)
    codes = quantize(np.array([[0.2, 0.4, 1.0]]), bits, 2)
    assert codes.tolist() == [[1, 2, 0]]


def test_quantize_validation_errors():
    # fewer than 2 levels, a size mismatch and an empty ROI anywhere in
    # the stack are refused by extract_all
    with pytest.raises(ValueError, match="levels"):
        extract_one(Image2D(pixels=np.zeros((3, 3))), full_mask((3, 3)), levels=1)
    with pytest.raises(ShapeMismatchError):
        extract_one(Image2D(pixels=np.zeros((2, 2))), full_mask((3, 3)))
    with pytest.raises(ShapeMismatchError):
        extract_all(np.zeros((2, 2)), np.ones((2, 2)))
    bits = np.ones((2, 3, 3), dtype=np.uint8)
    bits[1] = 0
    with pytest.raises(ValueError, match="empty mask"):
        extract_all(np.zeros((2, 3, 3)), bits)


# ---------------------------------------------------------------------------
# First order
# ---------------------------------------------------------------------------

def first_order(pixels):
    pixels = np.asarray(pixels, dtype=np.float64)
    values = radiomics._first_order(pixels[None], np.ones((1, *pixels.shape), bool))
    return dict(zip(FIRST_ORDER_NAMES, values[0]))


def test_first_order_matches_scipy_on_random_data():
    rng = derive_rng(1, "fo")
    x = rng.random((6, 7))
    got = first_order(x)
    flat = x.ravel()
    assert got["mean"] == pytest.approx(flat.mean(), abs=1e-12)
    assert got["variance"] == pytest.approx(flat.var(), abs=1e-12)
    assert got["skewness"] == pytest.approx(scipy.stats.skew(flat), abs=1e-10)
    assert got["kurtosis"] == pytest.approx(
        scipy.stats.kurtosis(flat, fisher=True, bias=True), abs=1e-10)
    assert got["energy"] == pytest.approx(np.sum(flat ** 2), abs=1e-12)
    assert got["minimum"] == flat.min()
    assert got["maximum"] == flat.max()
    assert got["range"] == pytest.approx(np.ptp(flat), abs=1e-12)
    assert got["median"] == pytest.approx(np.median(flat), abs=1e-12)
    assert got["mean_abs_dev"] == pytest.approx(
        np.mean(np.abs(flat - flat.mean())), abs=1e-12)


def test_first_order_percentiles_use_nearest_rank():
    x = np.arange(1.0, 11.0)  # 1..10
    got = first_order(x.reshape(2, 5) / 10.0)
    assert got["p10"] == pytest.approx(0.1)  # ceil(0.1 * 10) = rank 1
    assert got["p90"] == pytest.approx(0.9)  # ceil(0.9 * 10) = rank 9
    assert got["median"] == pytest.approx(0.55)


def test_first_order_entropy_hand_cases():
    # half zeros, half ones: one bit; constant region: zero
    got = first_order(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert got["entropy"] == pytest.approx(1.0, abs=1e-12)

    cg = first_order(np.full((2, 2), 0.3))
    assert cg["entropy"] == 0.0
    assert cg["skewness"] == 0.0
    assert cg["kurtosis"] == 0.0
    assert cg["variance"] == 0.0


def test_constant_roi_has_zero_spread_whatever_the_rounding_of_its_mean():
    # three pixels of 0.1 sum to 0.30000000000000004, so their float mean is
    # not 0.1; deviations from that mean gave a variance of 2e-34, a
    # skewness of -1 and an excess kurtosis of -2 for a constant region
    x = np.full((1, 3), 0.1)
    assert x.mean() != 0.1
    got = first_order(x)
    assert got["mean"] == 0.1
    for name in ("variance", "skewness", "kurtosis", "entropy", "mean_abs_dev"):
        assert got[name] == 0.0, name


@st.composite
def histogram_stacks(draw):
    """Members of one stack: the 257 bin edges of a random range with
    their float neighbours inside it, random values, and a constant
    member; pixels outside a member's ROI hold 99."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    members = []
    for _ in range(draw(st.integers(1, 3))):
        lo = draw(st.floats(-2.0, 2.0))
        hi = lo + draw(st.floats(1e-9, 4.0))
        edges = np.linspace(lo, hi, 257)
        near = np.concatenate([np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
        members.append(np.concatenate([edges, near[(near >= lo) & (near <= hi)],
                                       rng.uniform(lo, hi, size=50)]))
    members.append(np.full(7, draw(st.floats(-2.0, 2.0))))
    width = max(m.size for m in members)
    x = np.full((len(members), width), 99.0)
    inside = np.zeros(x.shape, dtype=bool)
    for k, m in enumerate(members):
        x[k, :m.size] = rng.permutation(m)
        inside[k, :m.size] = True
    return members, x, inside


@settings(max_examples=60, deadline=None)
@given(histogram_stacks())
def test_stacked_histograms_match_np_histogram_on_bin_edges(case):
    members, x, inside = case
    lo = np.array([m.min() for m in members])
    hi = np.array([m.max() for m in members])
    got = radiomics._histograms(x, inside, lo, hi)
    assert got.shape == (len(members), 256)
    for counts, m, a, b in zip(got, members, lo, hi):
        if b > a:
            want, _ = np.histogram(m, bins=256, range=(a, b))
            assert np.array_equal(counts, want)
        else:
            assert not counts.any()  # a constant plane has no histogram


def test_first_order_ignores_pixels_outside_roi():
    bits = np.array([[1, 1, 0]], dtype=np.uint8)
    img = Image2D(pixels=np.array([[0.2, 0.4, 0.9]]))
    fv = extract_one(img, RoiMask(bits=bits))
    got = {name[len("original_firstorder_"):]: value
           for name, value in fv.items()
           if name.startswith("original_firstorder_")}
    assert got["mean"] == pytest.approx(0.3, abs=1e-12)
    assert got["maximum"] == pytest.approx(0.4)
    assert len(got) == len(FIRST_ORDER_NAMES)


# ---------------------------------------------------------------------------
# Shape
# ---------------------------------------------------------------------------

def shape_of(bits):
    """The shape descriptors of one mask, as a one-member stack: {name: value}."""
    return dict(zip(SHAPE_NAMES, radiomics._shape_descriptors(bits[None] > 0)[0]))


def test_shape_rectangle_hand_values():
    bits = np.zeros((9, 15), dtype=np.uint8)
    bits[2:7, 3:14] = 1  # 5 rows x 11 cols solid rectangle
    got = shape_of(bits)
    assert got["area"] == 55.0
    assert got["perimeter"] == 2 * (5 + 11)
    assert got["bbox_width"] == 11.0
    assert got["bbox_height"] == 5.0
    assert got["extent"] == 1.0
    # discrete uniform over width w has variance (w^2 - 1) / 12
    assert got["major_axis"] == pytest.approx(4 * np.sqrt(120 / 12), abs=1e-10)
    assert got["minor_axis"] == pytest.approx(4 * np.sqrt(24 / 12), abs=1e-10)
    assert got["eccentricity"] == pytest.approx(np.sqrt(1 - 2 / 10), abs=1e-10)


def test_shape_square_compactness_is_pi_over_four():
    bits = np.zeros((6, 6), dtype=np.uint8)
    bits[1:5, 1:5] = 1
    got = shape_of(bits)
    assert got["compactness"] == pytest.approx(np.pi / 4.0, abs=1e-12)


def test_shape_perimeter_counts_concave_boundary():
    # plus sign of five pixels: 12 boundary edges
    bits = np.zeros((5, 5), dtype=np.uint8)
    bits[2, 1:4] = 1
    bits[1:4, 2] = 1
    got = shape_of(bits)
    assert got["area"] == 5.0
    assert got["perimeter"] == 12.0


def test_shape_single_pixel_is_degenerate_but_finite():
    bits = np.zeros((3, 3), dtype=np.uint8)
    bits[1, 1] = 1
    got = shape_of(bits)
    assert got["area"] == 1.0
    assert got["perimeter"] == 4.0
    assert got["major_axis"] == 0.0
    assert got["eccentricity"] == 0.0


def test_shape_translation_invariance():
    rng = derive_rng(2, "sh")
    blob = (rng.random((4, 6)) < 0.6).astype(np.uint8)
    blob[2, 3] = 1
    a = np.zeros((12, 12), dtype=np.uint8)
    b = np.zeros((12, 12), dtype=np.uint8)
    a[1:5, 2:8] = blob
    b[6:10, 4:10] = blob
    va, vb = radiomics._shape_descriptors(np.stack([a, b]) > 0)
    np.testing.assert_allclose(va, vb, atol=1e-12)


@st.composite
def shape_stacks(draw):
    """A stack of same-shape masks (h != w allowed), each a random blob, a
    single pixel, a row or column segment, or a diagonal or anti-diagonal
    line: the degenerate second-moment cases next to generic ones."""
    n = draw(st.integers(1, 5))
    h, w = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    masks = np.zeros((n, h, w), dtype=bool)
    for m in masks:
        r, c = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
        kind = draw(st.sampled_from(["random", "pixel", "row", "column",
                                     "diagonal", "anti-diagonal"]))
        if kind == "random":
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            m[:] = rng.random((h, w)) < rng.random()
        elif kind == "row":
            m[r, c:draw(st.integers(c + 1, w))] = True
        elif kind == "column":
            m[r:draw(st.integers(r + 1, h)), c] = True
        elif kind != "pixel":
            k = np.arange(draw(st.integers(1, min(h - r, w - c))))
            m[r + k, c + k] = True
            if kind == "anti-diagonal":
                m[:] = m[:, ::-1]
        m[r, c if kind != "anti-diagonal" else w - 1 - c] = True
    return masks


@settings(max_examples=200, deadline=None)
@given(shape_stacks())
def test_stacked_shape_descriptors_match_the_per_slice_reference(masks):
    got = radiomics._shape_descriptors(masks)
    assert got.shape == (len(masks), len(SHAPE_NAMES))
    for row, bits in zip(got, masks):
        assert_shape_matches_reference(row, bits)


# ---------------------------------------------------------------------------
# GLCM
# ---------------------------------------------------------------------------

def hand_quantized(codes, bits=None):
    """(codes, roi bits, levels) of one hand-written slice."""
    codes = np.asarray(codes, dtype=np.int32)
    if bits is None:
        bits = (codes > 0).astype(np.uint8)
    return codes, np.asarray(bits, dtype=np.uint8), int(codes.max())


def test_glcm_hand_computed_matrix():
    codes, bits, levels = hand_quantized([[1, 1, 2], [2, 2, 3]])
    g = glcm_compute(codes, bits, (0, 1), levels)
    want = np.array([[2, 1, 0], [1, 2, 1], [0, 1, 0]]) / 8.0
    np.testing.assert_allclose(g, want, atol=1e-15)


def glcm_descriptors(p):
    return dict(zip(GLCM_FEATURE_NAMES, radiomics._glcm_descriptors(p[None])[0]))


def test_glcm_feature_hand_values():
    codes, bits, levels = hand_quantized([[1, 1, 2], [2, 2, 3]])
    got = glcm_descriptors(glcm_compute(codes, bits, (0, 1), levels))
    # from the known 8-pair matrix above
    assert got["contrast"] == pytest.approx(0.5, abs=1e-12)
    assert got["dissimilarity"] == pytest.approx(0.5, abs=1e-12)
    assert got["asm"] == pytest.approx((4 + 1 + 1 + 4 + 1 + 1) / 64, abs=1e-12)
    assert got["homogeneity"] == pytest.approx(
        (2 + 2) / 8 + (1 / 2) * 4 / 8, abs=1e-12)
    assert got["entropy"] == pytest.approx(
        -(2 * (2 / 8) * np.log2(2 / 8) + 4 * (1 / 8) * np.log2(1 / 8)), abs=1e-12)


def test_glcm_matrix_is_symmetric_and_normalized():
    rng = derive_rng(3, "glcm")
    codes = rng.integers(1, 6, size=(9, 9)).astype(np.int32)
    for offset in radiomics.GLCM_OFFSETS:
        g = glcm_compute(codes, np.ones((9, 9)), offset, 5)
        np.testing.assert_allclose(g, g.T, atol=1e-15)
        assert g.sum() == pytest.approx(1.0, abs=1e-12)
        assert g.shape == (5, 5)


def test_glcm_requires_in_roi_pairs():
    bits = np.array([[1, 0], [0, 1]], dtype=np.uint8)
    codes = np.array([[1, 2], [2, 1]], dtype=np.int32)
    # diagonal neighbours only: no in-ROI pair across columns
    assert not glcm_compute(codes, bits, (0, 1), 2).any()
    g = glcm_compute(codes, bits, (1, 1), 2)
    assert g[0, 0] == 1.0  # the single 1-1 diagonal pair
    # in a stack, the member without a pair stays zero beside one with pairs
    stack = glcm_compute(np.stack([codes, codes]), np.stack([bits, np.ones((2, 2))]),
                         (0, 1), 2)
    assert not stack[0].any()
    assert stack[1].sum() == 1.0


def test_glcm_rejects_zero_offset():
    codes, bits, levels = hand_quantized([[1, 2]])
    with pytest.raises(ValueError):
        glcm_compute(codes, bits, (0, 0), levels)


def test_glcm_correlation_of_column_stripes():
    codes = np.tile(np.arange(1, 9, dtype=np.int32), (8, 1))
    roi = np.ones((8, 8))
    across = glcm_descriptors(glcm_compute(codes, roi, (0, 1), 8))
    along = glcm_descriptors(glcm_compute(codes, roi, (1, 0), 8))
    # along a column every pair repeats the same code: perfect correlation
    assert along["correlation"] == pytest.approx(1.0, abs=1e-12)
    assert along["contrast"] == 0.0
    # across columns neighbours differ by exactly one level
    assert across["contrast"] == pytest.approx(1.0, abs=1e-12)
    assert across["correlation"] > 0.8


# ---------------------------------------------------------------------------
# GLRLM
# ---------------------------------------------------------------------------

def test_glrlm_hand_computed_runs():
    codes, bits, levels = hand_quantized([[1, 1, 2, 2, 2, 1]])
    r = glrlm_compute(codes, bits, (0, 1), levels)
    want = np.zeros((2, 6))
    want[0, 1] = 1  # run of 1s, length 2
    want[1, 2] = 1  # run of 2s, length 3
    want[0, 0] = 1  # run of 1s, length 1
    np.testing.assert_array_equal(r, want)


def test_glrlm_feature_hand_values():
    codes, bits, levels = hand_quantized([[1, 1, 2, 2, 2, 1]])
    runs = glrlm_compute(codes, bits, (0, 1), levels)
    got = dict(zip(GLRLM_FEATURE_NAMES, radiomics._glrlm_descriptors(runs[None])[0]))
    assert got["sre"] == pytest.approx((1 + 1 / 4 + 1 / 9) / 3, abs=1e-12)
    assert got["lre"] == pytest.approx((1 + 4 + 9) / 3, abs=1e-12)
    assert got["gln"] == pytest.approx((4 + 1) / 3, abs=1e-12)
    assert got["rln"] == pytest.approx(1.0, abs=1e-12)
    assert got["rp"] == pytest.approx(0.5, abs=1e-12)
    assert got["lgre"] == pytest.approx((2 + 1 / 4) / 3, abs=1e-12)
    assert got["hgre"] == pytest.approx((2 + 4) / 3, abs=1e-12)


def test_glrlm_out_of_roi_pixel_breaks_run():
    codes = np.array([[1, 1, 1, 1]], dtype=np.int32)
    bits = np.array([[1, 1, 0, 1]], dtype=np.uint8)
    r = glrlm_compute(codes * (bits > 0), bits, (0, 1), 1)
    assert r[0, 1] == 1  # leading pair
    assert r[0, 0] == 1  # isolated trailing pixel
    assert r.sum() == 2


def test_glrlm_diagonal_direction_hand_case():
    codes, bits, levels = hand_quantized([[1, 2], [2, 1]])
    r = glrlm_compute(codes, bits, (1, 1), levels)
    # main diagonal: run "1,1"? no: codes are 1 then 1 -> a length-2 run
    assert r[0, 1] == 1
    # off-diagonals are single pixels: two length-1 runs of gray 2
    assert r[1, 0] == 2


def test_glrlm_rejects_unknown_direction():
    with pytest.raises(ValueError):
        glrlm_compute(*hand_quantized([[1, 2]])[:2], (0, -1), 2)


def test_glrlm_total_pixels_equals_roi_size():
    rng = derive_rng(4, "rl")
    codes = rng.integers(1, 5, size=(7, 7)).astype(np.int32)
    bits = (rng.random((7, 7)) < 0.8).astype(np.uint8)
    bits[0, 0] = 1
    lengths = np.arange(1, 8)
    for direction in radiomics.GLRLM_DIRECTIONS:
        mat = glrlm_compute(codes * (bits > 0), bits, direction, 4)
        assert (mat * lengths[None, :]).sum() == bits.sum()


# ---------------------------------------------------------------------------
# Stacked descriptors against the per-matrix reference formulas
# ---------------------------------------------------------------------------

# A member of a GLCM stack: integer pair counts of one of these kinds,
# optionally symmetrized, then normalized (all-zero members stay zero, as
# for an offset with no in-ROI pair).
GLCM_KINDS = ("dense", "sparse", "single_cell", "one_row", "one_column", "zero")


def glcm_member(rng, levels, kind, symmetric):
    counts = rng.integers(0, 6, size=(levels, levels)).astype(np.float64)
    if kind == "sparse":
        counts *= rng.random((levels, levels)) < 0.1
    elif kind == "single_cell":
        # both marginals constant: correlation must be 0
        counts = np.zeros((levels, levels))
        counts[tuple(rng.integers(0, levels, size=2))] = rng.integers(1, 6)
        symmetric = False
    elif kind in ("one_row", "one_column"):
        # a constant row (or column) marginal: correlation must be 0
        line = np.zeros((levels, levels))
        line[int(rng.integers(0, levels))] = counts[0] + 1
        counts = line if kind == "one_row" else line.T
        symmetric = False
    elif kind == "zero":
        counts = np.zeros((levels, levels))
    if symmetric:
        counts = counts + counts.T
    total = counts.sum()
    return counts / total if total > 0 else counts


@st.composite
def glcm_stacks(draw):
    levels = draw(st.integers(2, 32))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(GLCM_KINDS), min_size=1, max_size=5))
    return kinds, np.stack([glcm_member(rng, levels, kind, draw(st.booleans()))
                            for kind in kinds])


def cluster_scale(p, power):
    # E[(|i + j - mu_i - mu_j| + 1) ** power]: the size of the cluster
    # shade/prominence terms, with the deviation (itself a difference that
    # rounds) counted as at least one gray level
    idx = np.arange(1, p.shape[0] + 1)
    mu_i = idx @ p.sum(axis=1)
    mu_j = idx @ p.sum(axis=0)
    dev = np.abs(idx[:, None] + idx[None, :] - mu_i - mu_j)
    return ((dev + 1.0) ** power * p).sum()


def assert_glcm_row_matches_reference(row, p, context=None):
    want = reference_glcm_features(p)
    # relative agreement; correlation (in [-1, 1]) and cluster shade are
    # sums of signed terms that can cancel to 0, and the cluster terms are
    # powers of a rounded deviation, so these three also get an absolute
    # floor of 1e-12 at the scale of their terms
    atol = np.zeros(8)
    atol[5] = 1e-12
    atol[6] = 1e-12 * cluster_scale(p, 3)
    atol[7] = 1e-12 * cluster_scale(p, 4)
    err = np.abs(row - want)
    assert (err <= 1e-9 * np.abs(want) + atol).all(), (context, row, want, err)


@settings(max_examples=150, deadline=None)
@given(glcm_stacks())
def test_stacked_glcm_descriptors_match_the_reference(case):
    kinds, stack = case
    got = radiomics._glcm_descriptors(stack)
    assert got.shape == (len(kinds), 8)
    for kind, p, row in zip(kinds, stack, got):
        assert_glcm_row_matches_reference(row, p, kind)
        if kind in ("single_cell", "one_row", "one_column", "zero"):
            assert row[5] == 0.0
        if kind == "zero":
            assert not row.any()


@st.composite
def glrlm_stacks(draw):
    # members of different max_run share one stack, zero-padded to the widest
    levels = draw(st.integers(2, 32))
    widths = draw(st.lists(st.integers(1, 12), min_size=1, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from((0.05, 0.3, 1.0)))
    members = []
    for width in widths:
        mat = rng.integers(0, 4, size=(levels, width)) * (rng.random((levels, width)) < density)
        mat[tuple(rng.integers(0, (levels, width)))] += 1  # at least one run
        members.append(mat.astype(np.float64))
    stack = np.zeros((len(widths), levels, max(widths)))
    for padded, mat in zip(stack, members):
        padded[:, :mat.shape[1]] = mat
    return members, stack


@settings(max_examples=150, deadline=None)
@given(glrlm_stacks())
def test_stacked_glrlm_descriptors_match_the_reference(case):
    members, stack = case
    got = radiomics._glrlm_descriptors(stack)
    assert got.shape == (len(members), 7)
    for mat, row in zip(members, got):
        np.testing.assert_allclose(row, reference_glrlm_features(mat), rtol=1e-9)


def test_stacked_glrlm_descriptors_reject_a_member_without_runs():
    stack = np.zeros((2, 3, 4))
    stack[0, 1, 2] = 1
    with pytest.raises(ValueError):
        radiomics._glrlm_descriptors(stack)


# ---------------------------------------------------------------------------
# Haar wavelet
# ---------------------------------------------------------------------------

def test_wavelet_two_by_two_hand_case():
    img = Image2D(pixels=np.array([[0.1, 0.2], [0.3, 0.4]]))
    bands = wavelet_decompose(img.pixels)
    assert bands["LL"][0, 0] == pytest.approx(0.5, abs=1e-15)
    assert bands["LH"][0, 0] == pytest.approx(-0.1, abs=1e-15)
    assert bands["HL"][0, 0] == pytest.approx(-0.2, abs=1e-15)
    assert bands["HH"][0, 0] == pytest.approx(0.0, abs=1e-15)


def test_wavelet_round_trip_even_dims():
    rng = derive_rng(5, "wv")
    x = rng.random((16, 12))
    back = wavelet_reconstruct(wavelet_decompose(x))
    np.testing.assert_allclose(back, x, atol=1e-10)


def test_wavelet_round_trip_odd_dims_reproduces_padded_image():
    rng = derive_rng(6, "wvo")
    x = rng.random((7, 9))
    back = wavelet_reconstruct(wavelet_decompose(x))
    assert back.shape == (8, 10)
    np.testing.assert_allclose(back[:7, :9], x, atol=1e-10)
    np.testing.assert_allclose(back[7, :9], x[6, :], atol=1e-10)  # edge pad


def test_wavelet_conserves_energy():
    rng = derive_rng(7, "wve")
    x = rng.random((10, 10))
    bands = wavelet_decompose(x)
    total = sum(float(np.sum(b ** 2)) for b in bands.values())
    assert total == pytest.approx(float(np.sum(x ** 2)), abs=1e-9)


def test_wavelet_constant_image_has_detail_zero():
    bands = wavelet_decompose(np.full((6, 6), 0.25))
    assert np.abs(bands["LH"]).max() == 0.0
    assert np.abs(bands["HL"]).max() == 0.0
    assert np.abs(bands["HH"]).max() == 0.0
    np.testing.assert_allclose(bands["LL"], 0.5, atol=1e-15)


def test_downsample_mask_any_set_rule():
    bits = np.array([[1, 0, 0, 0],
                     [0, 0, 0, 0],
                     [0, 0, 1, 1],
                     [0, 0, 1, 1]], dtype=np.uint8)
    small = radiomics.downsample_mask(bits)
    np.testing.assert_array_equal(small, [[1, 0], [0, 1]])
    # a stack downsamples member by member; odd sides are edge-replicated
    odd = np.zeros((3, 3), dtype=np.uint8)
    odd[2, 2] = 1
    stacked = radiomics.downsample_mask(np.stack([bits[:3, :3], odd]))
    np.testing.assert_array_equal(stacked, [[[1, 0], [0, 1]], [[0, 0], [0, 1]]])


# ---------------------------------------------------------------------------
# Full catalog
# ---------------------------------------------------------------------------

def random_image_and_mask(rng, size=18):
    img = Image2D(pixels=rng.random((size, size)))
    bits = np.zeros((size, size), dtype=np.uint8)
    bits[3:size - 3, 4:size - 2] = 1
    return img, RoiMask(bits=bits)


def test_extract_all_has_374_unique_finite_features():
    rng = derive_rng(8, "cat")
    img, mask = random_image_and_mask(rng)
    fv = extract_one(img, mask)
    assert len(fv) == len(CATALOG_NAMES) == FEATURE_COUNT == 374
    assert np.isfinite(list(fv.values())).all()


def test_extract_all_name_inventory():
    rng = derive_rng(9, "names")
    img, mask = random_image_and_mask(rng)
    names = list(extract_one(img, mask))
    count = lambda s: sum(1 for n in names if n.startswith(s))
    assert count("original_firstorder_") == 13
    assert count("shape_") == 9
    assert count("original_glcm_") == 32
    assert count("original_glrlm_") == 28
    for band in ("LL", "LH", "HL", "HH"):
        assert count(f"wavelet_{band}_firstorder_") == 13
        assert count(f"wavelet_{band}_glcm_") == 32
        assert count(f"wavelet_{band}_glrlm_") == 28


def test_extract_all_texture_columns_are_the_per_matrix_features():
    # the stacked catalog puts each plane's descriptors under its own
    # names: each column group equals the textbook formulas over the
    # brute-force enumerated matrix of its plane and offset
    rng = derive_rng(12, "stack")
    img, mask = random_image_and_mask(rng, size=15)
    got = extract_one(img, mask)
    subbands = wavelet_decompose(img.pixels)
    planes = [("original_", img.pixels, mask)] + [
        (f"wavelet_{b}_", subbands[b], radiomics.downsample_mask(mask.bits))
        for b in radiomics.WAVELET_BANDS]
    for prefix, values, roi in planes:
        if isinstance(roi, RoiMask):
            roi = roi.bits
        codes = quantize(values, roi, 32)
        for offset in radiomics.GLCM_OFFSETS:
            pairs = brute_glcm(codes, roi, *offset, 32)
            p = (pairs + pairs.T) / (2 * pairs.sum())
            tag = radiomics._offset_tag(offset)
            row = np.array([got[f"{prefix}glcm_{tag}_{n}"] for n in GLCM_FEATURE_NAMES])
            assert_glcm_row_matches_reference(row, p, (prefix, offset))
        for direction in radiomics.GLRLM_DIRECTIONS:
            runs = brute_glrlm(codes, roi, *direction, 32, max(codes.shape))
            tag = radiomics._offset_tag(direction)
            row = np.array([got[f"{prefix}glrlm_{tag}_{n}"] for n in GLRLM_FEATURE_NAMES])
            np.testing.assert_allclose(row, reference_glrlm_features(runs), rtol=1e-9)


def test_extract_all_invariant_under_even_translation():
    rng = derive_rng(10, "shift")
    content = rng.random((6, 6))
    blob = (rng.random((6, 6)) < 0.7).astype(np.uint8)
    blob[3, 3] = 1

    base = np.full((20, 20), 0.5)
    img_a = base.copy()
    img_a[2:8, 2:8] = content
    bits_a = np.zeros((20, 20), dtype=np.uint8)
    bits_a[2:8, 2:8] = blob

    img_b = base.copy()
    img_b[8:14, 6:12] = content  # shifted by (6, 4): preserves Haar parity
    bits_b = np.zeros((20, 20), dtype=np.uint8)
    bits_b[8:14, 6:12] = blob

    fa = extract_one(Image2D(pixels=img_a), RoiMask(bits=bits_a))
    fb = extract_one(Image2D(pixels=img_b), RoiMask(bits=bits_b))
    np.testing.assert_allclose(list(fa.values()), list(fb.values()), atol=1e-10)


def test_extract_all_respects_levels_config():
    rng = derive_rng(11, "lv")
    img, mask = random_image_and_mask(rng, size=14)
    a = extract_one(img, mask, levels=8)
    b = extract_one(img, mask, levels=32)
    # contrast grows with the number of levels on continuous noise
    assert b["original_glcm_0_1_contrast"] > a["original_glcm_0_1_contrast"]


def test_extract_all_single_pixel_roi_zero_fills_glcm():
    img = Image2D(pixels=np.random.default_rng(0).random((8, 8)))
    bits = np.zeros((8, 8), dtype=np.uint8)
    bits[4, 4] = 1
    got = extract_one(img, RoiMask(bits=bits))
    assert len(got) == 374
    assert got["original_glcm_0_1_contrast"] == 0.0
    assert got["original_glrlm_0_1_rp"] == 1.0  # one run of one pixel


# ---------------------------------------------------------------------------
# Stacked catalog against the per-slice reference
# ---------------------------------------------------------------------------

@st.composite
def catalog_stacks(draw):
    """A stack of same-shape slices (h != w allowed) with ragged ROIs:
    single pixels, sparse to full random masks; continuous pixel values
    or 8-bit ones with many ties."""
    n = draw(st.integers(1, 4))
    h, w = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pixels = rng.random((n, h, w))
    if draw(st.booleans()):
        pixels = np.round(pixels * 255) / 255
    bits = np.zeros((n, h, w), dtype=np.uint8)
    for member in bits:
        density = draw(st.sampled_from((0.0, 0.1, 0.5, 0.9, 1.0)))
        member[...] = rng.random((h, w)) < density
        member[rng.integers(h), rng.integers(w)] = 1
    return pixels, bits, draw(st.sampled_from((2, 5, 8, 32)))


@settings(max_examples=60, deadline=None)
@given(catalog_stacks())
def test_stacked_catalog_matches_the_per_slice_reference(case):
    pixels, bits, levels = case
    got = extract_all(pixels, bits, levels)
    assert got.shape == (pixels.shape[0], FEATURE_COUNT)
    for row, p, b in zip(got, pixels, bits):
        assert_catalog_row_matches_reference(row, p, b, levels)
