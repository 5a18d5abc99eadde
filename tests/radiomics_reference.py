"""The per-slice radiomics catalog: the reference for the stacked one.

This is the 374-feature catalog as it ran one slice at a time: the slice
and each of its four Haar subbands are quantized and summarized on their
own, and the texture counters are called once per plane and offset.  The
package computes the same catalog over stacks of slices; tests compare
the two.  Only the GLCM/GLRLM descriptor formulas are shared with the
package, and each of those is checked against the textbook references in
``texture_bruteforce.py`` on its own.
``assert_catalog_row_matches_reference`` states how close the two must be.
``wavelet_reconstruct``, the inverse Haar transform, checks the package's
``wavelet_decompose``.
"""

import numpy as np

from crbm_radiomics import kernels, radiomics

GLCM_OFFSETS = radiomics.GLCM_OFFSETS
GLRLM_DIRECTIONS = radiomics.GLRLM_DIRECTIONS
WAVELET_BANDS = radiomics.WAVELET_BANDS
# an in-ROI range of at most this is rounding residue: the plane is constant
RESIDUE = 2.0 ** -40


def quantize(values, roi_bits, levels):
    """Equal-width binning of the in-ROI values into codes [1, levels]
    between their minimum and maximum; 0 outside the ROI, 1 throughout a
    constant ROI, one whose range is at most RESIDUE."""
    inside = roi_bits > 0
    if not inside.any():
        raise ValueError("empty mask")
    lo = values[inside].min()
    hi = values[inside].max()
    codes = np.zeros(values.shape, dtype=np.int32)
    if hi - lo <= RESIDUE:
        codes[inside] = 1
    else:
        scaled = np.floor((values[inside] - lo) / (hi - lo) * levels).astype(np.int32) + 1
        codes[inside] = np.minimum(scaled, levels)
    return codes


def _nearest_rank(sorted_vals, pct):
    rank = int(np.ceil(pct / 100.0 * sorted_vals.size))
    return float(sorted_vals[max(rank, 1) - 1])


def first_order_values(x):
    """The 13 FIRST_ORDER_NAMES of a pixel multiset (the in-ROI pixels).

    Variance is population variance; skewness and excess kurtosis are 0
    when the standard deviation is; entropy uses a 256-bin histogram over
    the in-ROI range (log base 2), and is 0 where np.histogram cannot cut
    that range into 256 bins; percentiles use the nearest-rank rule
    and the median averages the two middle values for even counts.  A
    range of at most RESIDUE is a constant multiset: its mean is its
    minimum, and its variance, skewness, kurtosis, entropy and mean
    absolute deviation are 0.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    lo, hi = x.min(), x.max()
    constant = hi - lo <= RESIDUE
    mean = lo if constant else x.mean()
    var = 0.0 if constant else x.var()
    sd = np.sqrt(var)
    if sd > 0:
        skew = float(np.mean((x - mean) ** 3) / sd ** 3)
        kurt = float(np.mean((x - mean) ** 4) / sd ** 4 - 3.0)
    else:
        skew = 0.0
        kurt = 0.0
    energy = float(np.sum(x * x))
    # a range np.histogram cannot cut into 256 strictly increasing edges
    # gets a constant ROI's entropy
    edges = np.linspace(lo, hi, 257)
    if not constant and (edges[1:] > edges[:-1]).all():
        counts, _ = np.histogram(x, bins=256, range=(lo, hi))
        p = counts[counts > 0] / x.size
        entropy = float(-np.sum(p * np.log2(p)))
    else:
        entropy = 0.0
    xs = np.sort(x)
    return np.array([
        mean, var, skew, kurt, energy, entropy,
        float(lo), float(hi), float(hi - lo),
        float(np.median(x)),
        _nearest_rank(xs, 10.0), _nearest_rank(xs, 90.0),
        0.0 if constant else float(np.mean(np.abs(x - mean))),
    ])


def shape_features(bits):
    """The 9 SHAPE_NAMES of one 2-D ROI mask (nonzero = set).

    Perimeter counts boundary edges between a set pixel and an unset (or
    outside) pixel; the axis lengths come from the eigenvalues of the
    second-moment matrix of the set-pixel coordinates (length = 4 sqrt(lambda)).
    """
    bits = np.asarray(bits) > 0
    rows, cols = np.nonzero(bits)
    if rows.size == 0:
        raise ValueError("empty mask")
    area = float(rows.size)
    padded = np.zeros((bits.shape[0] + 2, bits.shape[1] + 2), dtype=np.int8)
    padded[1:-1, 1:-1] = bits
    perimeter = float(np.abs(np.diff(padded, axis=0)).sum()
                      + np.abs(np.diff(padded, axis=1)).sum())
    compactness = 4.0 * np.pi * area / perimeter ** 2
    bbox_h = float(rows.max() - rows.min() + 1)
    bbox_w = float(cols.max() - cols.min() + 1)
    extent = area / (bbox_h * bbox_w)
    rc = np.stack([rows, cols]).astype(np.float64)
    cov = np.cov(rc, ddof=0) if rows.size > 1 else np.zeros((2, 2))
    eigvals = np.sort(np.linalg.eigvalsh(cov))[::-1]
    eigvals = np.clip(eigvals, 0.0, None)
    major = 4.0 * np.sqrt(eigvals[0])
    minor = 4.0 * np.sqrt(eigvals[1])
    eccentricity = np.sqrt(1.0 - eigvals[1] / eigvals[0]) if eigvals[0] > 0 else 0.0
    return np.array([area, perimeter, compactness, bbox_w, bbox_h, extent,
                     major, minor, eccentricity])


def haar(x):
    """The four subbands of one slice, odd sides edge-replicated first."""
    h, w = x.shape
    x = np.pad(x, ((0, h % 2), (0, w % 2)), mode="edge")
    a, b = x[0::2, 0::2], x[0::2, 1::2]
    c, d = x[1::2, 0::2], x[1::2, 1::2]
    return {"LL": (a + b + c + d) / 2.0, "LH": (a - b + c - d) / 2.0,
            "HL": (a + b - c - d) / 2.0, "HH": (a - b - c + d) / 2.0}


def wavelet_reconstruct(subbands):
    """Inverse of the package's wavelet_decompose on one slice: the
    (even-padded) image its four subbands came from."""
    ll, lh, hl, hh = (subbands[k] for k in WAVELET_BANDS)
    h, w = ll.shape
    out = np.empty((2 * h, 2 * w))
    out[0::2, 0::2] = (ll + lh + hl + hh) / 2.0
    out[0::2, 1::2] = (ll - lh + hl - hh) / 2.0
    out[1::2, 0::2] = (ll + lh - hl - hh) / 2.0
    out[1::2, 1::2] = (ll - lh - hl + hh) / 2.0
    return out


def downsample(bits):
    """2x2 any-set downsampling of one mask."""
    h, w = bits.shape
    bits = np.pad(bits, ((0, h % 2), (0, w % 2)), mode="edge")
    return bits[0::2, 0::2] | bits[0::2, 1::2] | bits[1::2, 0::2] | bits[1::2, 1::2]


def texture_features(planes, levels):
    """GLCM (4 offsets) and GLRLM (4 directions) descriptors of each
    (values, bits) plane of one slice -> ((planes, 32), (planes, 28)).
    An offset with no in-ROI pair gives an all-zero GLCM; GLRLMs are
    zero-padded to the widest plane's max_run."""
    glcms, glrlms = [], []
    for values, bits in planes:
        codes = quantize(values, bits, levels)
        for dr, dc in GLCM_OFFSETS:
            counts = kernels.glcm_counts(codes, bits, dr, dc, levels)
            counts = counts + counts.T
            total = counts.sum()
            glcms.append(counts / total if total > 0 else counts)
        glrlms += [kernels.glrlm_counts(codes, bits, dr, dc, levels, max(codes.shape))
                   for dr, dc in GLRLM_DIRECTIONS]
    runs = np.zeros((len(glrlms), levels, max(m.shape[1] for m in glrlms)))
    for stacked, mat in zip(runs, glrlms):
        stacked[:, :mat.shape[1]] = mat
    n = len(planes)
    return (radiomics._glcm_descriptors(np.stack(glcms)).reshape(n, -1),
            radiomics._glrlm_descriptors(runs).reshape(n, -1))


def extract_one(pixels, bits, levels=32):
    """The 374 catalog values of one slice, in CATALOG_NAMES order."""
    inside = bits > 0
    if not inside.any():
        raise ValueError("empty mask")
    subbands = haar(pixels)
    sub_bits = downsample(bits)
    planes = [(pixels, bits)] + [(subbands[b], sub_bits) for b in WAVELET_BANDS]
    glcm, glrlm = texture_features(planes, levels)
    shape = shape_features(bits)
    values = [first_order_values(pixels[inside]), shape, glcm[0], glrlm[0]]
    for k, band in enumerate(WAVELET_BANDS, start=1):
        values += [first_order_values(subbands[band][sub_bits > 0]), glcm[k], glrlm[k]]
    return np.concatenate(values)


PLANE = len(radiomics.FIRST_ORDER_NAMES) + 32 + 28  # first-order, GLCM, GLRLM of one plane
ORDER_STATS = [radiomics.FIRST_ORDER_NAMES.index(n)
               for n in ("minimum", "maximum", "range", "median", "p10", "p90")]
SPREAD = [radiomics.FIRST_ORDER_NAMES.index(n)
          for n in ("variance", "skewness", "kurtosis", "mean_abs_dev")]


def first_order_floor(x):
    """Absolute error floors of the 13 first-order values of the pixels x.

    The mean, skewness and excess kurtosis are sums of signed terms that
    can cancel to near 0, where a relative bound says nothing.  Their floor
    is 1e-12 times the size of their summands: E|x| for the mean,
    E|d|^3 / sd^3 for the skewness and E d^4 / sd^4 + 3 for the kurtosis
    (d = x - mean).  The other values get none.
    """
    floor = np.zeros(len(radiomics.FIRST_ORDER_NAMES))
    d = x - x.mean()
    sd = np.sqrt(np.mean(d * d))
    floor[0] = 1e-12 * np.mean(np.abs(x))
    if sd > 0:
        floor[2] = 1e-12 * np.mean(np.abs(d) ** 3) / sd ** 3
        floor[3] = 1e-12 * (np.mean(d ** 4) / sd ** 4 + 3.0)
    return floor


def assert_shape_matches_reference(got, bits):
    """The 9 stacked shape descriptors of one mask against shape_features.

    Area, perimeter, compactness, bounding box and extent are bit-exact.
    The axes and the eccentricity agree to 1e-12 relative, with absolute
    floors of 1e-7 times the major axis for the axes and 1e-7 for the
    eccentricity: both are square roots, of the smaller eigenvalue and of
    1 minus the eigenvalue ratio, and where rounding leaves either near 0
    (a straight line, a square) the root turns an error of 1e-14 in it,
    a few dozen ulps of the larger eigenvalue, into 1e-7.
    """
    want = shape_features(bits)
    assert np.array_equal(got[:6], want[:6]), (got, want)
    floor = 1e-7 * np.array([want[6], want[6], 1.0])
    err = np.abs(got[6:] - want[6:])
    assert (err <= 1e-12 * np.abs(want[6:]) + floor).all(), (got, want)


def assert_catalog_row_matches_reference(row, pixels, bits, levels):
    """One stacked catalog row against the per-slice reference.

    GLCM columns and the order statistics are bit-exact; the shape columns
    are as close as assert_shape_matches_reference states.  The GLRLM
    descriptors agree to 1e-12 relative: they are ratios of sums of
    positive terms over the same run counts, but the reference zero-pads
    the subbands' matrices to the slice's max_run, and a longer row sums
    in another order.  The other first-order values agree to 1e-12
    relative, with the floors of first_order_floor.  On a constant plane,
    one whose range is at most RESIDUE, variance, skewness, kurtosis and
    mean absolute deviation are exactly 0 and the mean is the plane's
    minimum (checked on the row alone; see
    test_radiomics.py::test_constant_roi_has_zero_spread_whatever_the_rounding_of_its_mean).
    """
    want = extract_one(pixels, bits, levels)
    subbands = haar(pixels)
    sub_inside = downsample(bits) > 0
    first = len(radiomics.FIRST_ORDER_NAMES)
    texture_start = first + 9 + 60
    planes = [(0, pixels[bits > 0])] + [
        (texture_start + k * PLANE, subbands[band][sub_inside])
        for k, band in enumerate(WAVELET_BANDS)]
    exact = np.ones(radiomics.FEATURE_COUNT, dtype=bool)
    shape = np.arange(first, first + len(radiomics.SHAPE_NAMES))
    assert_shape_matches_reference(row[shape], bits)
    exact[shape] = False
    glrlm = np.array(["_glrlm_" in name for name in radiomics.CATALOG_NAMES])
    np.testing.assert_allclose(row[glrlm], want[glrlm], rtol=1e-12, atol=0)
    exact[glrlm] = False
    for start, x in planes:
        cols = np.arange(start, start + first)
        exact[cols] = False
        got, ref = row[cols], want[cols]
        assert np.array_equal(got[ORDER_STATS], ref[ORDER_STATS])
        checked = np.ones(first, dtype=bool)
        if x.max() - x.min() <= RESIDUE:
            assert got[0] == x.min()
            assert not got[SPREAD].any()
            checked[[0] + SPREAD] = False
        err = np.abs(got - ref)
        bound = 1e-12 * np.abs(ref) + first_order_floor(x)
        assert (err[checked] <= bound[checked]).all(), (start, got, ref)
    assert np.array_equal(row[exact], want[exact])
