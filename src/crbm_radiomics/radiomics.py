"""Hand-crafted texture features over an ROI, for stacks of slices.

Five families: first-order intensity statistics, binary shape descriptors,
gray-level co-occurrence (GLCM), gray-level run-length (GLRLM), and the
same intensity/texture statistics repeated on the four subbands of a
single-level orthonormal Haar decomposition.  The full catalog is 374
features with stable, prefixed names; see FEATURE_COUNT and the name
constants below.

Intensities are quantized to ``levels`` equal-width bins between the
in-ROI minimum and maximum before any texture matrix is built.  GLCM uses
the four offsets (0,1), (1,0), (1,1), (1,-1) with symmetrization; GLRLM
uses the same four directions.

The catalog runs over a stack of same-shape slices: pixel values and ROI
masks of shape (n, h, w), one ROI per slice, each of its own size and
shape.  Quantization, the Haar subbands, the first-order statistics, the
shape descriptors and the texture counters cost a fixed number of numpy
calls per stack, not per slice.
"""

import numpy as np

from . import kernels
from .errors import ShapeMismatchError

# An in-ROI range of at most this is rounding residue, such as a Haar
# plane's differences of equal pixels, 0 and 5.6e-17: the plane is
# constant.  It is far below the step of an 8-bit subband, 1/510, and of a
# 16-bit one, 1/131070.
_RESIDUE = 2.0 ** -40

# most gray levels: the texture counters hold n * levels**2 cells for a
# stack of n planes, 4 MB of float64 for 8 planes at 256 levels
MAX_LEVELS = 256

GLCM_OFFSETS = ((0, 1), (1, 0), (1, 1), (1, -1))
GLRLM_DIRECTIONS = ((0, 1), (1, 0), (1, 1), (1, -1))

FIRST_ORDER_NAMES = ("mean", "variance", "skewness", "kurtosis", "energy",
                     "entropy", "minimum", "maximum", "range", "median",
                     "p10", "p90", "mean_abs_dev")
SHAPE_NAMES = ("area", "perimeter", "compactness", "bbox_width", "bbox_height",
               "extent", "major_axis", "minor_axis", "eccentricity")
GLCM_FEATURE_NAMES = ("contrast", "dissimilarity", "homogeneity", "asm",
                      "entropy", "correlation", "cluster_shade",
                      "cluster_prominence")
GLRLM_FEATURE_NAMES = ("sre", "lre", "gln", "rln", "rp", "lgre", "hgre")
WAVELET_BANDS = ("LL", "LH", "HL", "HH")

FEATURE_COUNT = (len(FIRST_ORDER_NAMES) + len(SHAPE_NAMES)
                 + len(GLCM_OFFSETS) * len(GLCM_FEATURE_NAMES)
                 + len(GLRLM_DIRECTIONS) * len(GLRLM_FEATURE_NAMES)
                 + len(WAVELET_BANDS) * (len(FIRST_ORDER_NAMES)
                                         + len(GLCM_OFFSETS) * len(GLCM_FEATURE_NAMES)
                                         + len(GLRLM_DIRECTIONS) * len(GLRLM_FEATURE_NAMES)))


def _offset_tag(offset) -> str:
    return "_".join(str(x).replace("-", "m") for x in offset)


# ---------------------------------------------------------------------------
# Quantization
# ---------------------------------------------------------------------------

def _quantize(values: np.ndarray, inside: np.ndarray, levels: int) -> np.ndarray:
    """Equal-width binning of each slice's in-ROI values (n, h, w) into
    codes [1, levels] between that slice's in-ROI minimum and maximum; 0
    outside the ROI, 1 throughout a constant ROI, one whose range is at
    most _RESIDUE.  Every slice needs at least one in-ROI pixel."""
    lo = np.where(inside, values, np.inf).min(axis=(1, 2), keepdims=True)
    hi = np.where(inside, values, -np.inf).max(axis=(1, 2), keepdims=True)
    span = np.where(hi - lo > _RESIDUE, hi - lo, np.inf)
    # out-of-ROI pixels are binned as the minimum, so none overflows the cast
    scaled = np.floor((np.where(inside, values, lo) - lo) / span * levels)
    scaled = scaled.astype(np.int32) + 1
    return np.where(inside, np.minimum(scaled, levels), 0).astype(np.int32)


# ---------------------------------------------------------------------------
# First-order statistics
# ---------------------------------------------------------------------------

def _histograms(x: np.ndarray, inside: np.ndarray, lo: np.ndarray,
                hi: np.ndarray) -> np.ndarray:
    """np.histogram(pixels, 256, range=(lo, hi)) of each slice's in-ROI
    pixels -> (n, 256) counts; all zero for a slice whose range
    np.histogram cannot cut into 256 strictly increasing edges, which it
    refuses: hi == lo, or a span of a few ulps, such as a Haar plane's
    two equal differences that round one ulp apart.  Such a slice gets a
    constant ROI's entropy, 0.

    One bincount over (slice, bin) cells.  The bin of a value is
    np.histogram's: the scaled index, moved down by one where the value
    lies below its bin's left edge and up by one where it reaches the
    next edge, with the edges np.linspace(lo, hi, 257) computes,
    k * ((hi - lo) / 256) + lo and hi last.  So a value on an edge lands
    in the same bin as in np.histogram.  (np.linspace computes the edges
    another way when (hi - lo) / 256 underflows to 0, but such a range
    has fewer than 256 floats in it, so neither way cuts it.)
    """
    n, bins = x.shape[0], 256
    step = (hi - lo) / bins
    edges = np.arange(bins + 1) * step[:, None] + lo[:, None]
    edges[:, -1] = hi
    cuttable = (edges[:, 1:] > edges[:, :-1]).all(axis=1)
    rows, cols = np.nonzero(inside & cuttable[:, None])
    v, first, span = x[rows, cols], lo[rows], (hi - lo)[rows]
    index = ((v - first) / span * bins).astype(np.intp)
    index[index == bins] -= 1
    step = step[rows]
    index[v < index * step + first] -= 1
    index[(v >= (index + 1) * step + first) & (index != bins - 1)] += 1
    counts = np.bincount(rows * bins + index, minlength=n * bins)
    return counts.reshape(n, bins)


def _first_order(values: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """The 13 FIRST_ORDER_NAMES of each slice's in-ROI pixels, for a stack
    (n, h, w) with at least one in-ROI pixel per slice -> (n, 13).

    Variance is population variance; a constant ROI, one whose range is at
    most _RESIDUE, has zero variance, skewness, excess kurtosis, entropy
    and mean absolute deviation, and its minimum as mean.
    Entropy uses a 256-bin histogram over the in-ROI range (log base 2);
    percentiles use the nearest-rank rule and the median averages the two
    middle values for even counts.  The moments are masked row sums; the
    order statistics come from one sort of each slice's pixels with +inf
    outside the ROI, which puts the in-ROI values first.
    """
    n = values.shape[0]
    x = values.reshape(n, -1)
    inside = inside.reshape(n, -1)
    count = np.count_nonzero(inside, axis=1)
    ordered = np.sort(np.where(inside, x, np.inf), axis=1)

    def rank(k):
        """The k-th smallest in-ROI value of each slice, from 0."""
        return np.take_along_axis(ordered, k[:, None], axis=1)[:, 0]

    def nearest_rank(pct):
        return rank(np.maximum(np.ceil(pct / 100.0 * count).astype(np.intp), 1) - 1)

    lo, hi = ordered[:, 0], rank(count - 1)
    spread = hi - lo > _RESIDUE
    # a constant ROI's pixels have no deviations and no histogram
    varied = inside & spread[:, None]
    masked = np.where(inside, x, 0.0)
    mean = np.where(spread, masked.sum(axis=1) / count, lo)
    dev = np.where(varied, x - mean[:, None], 0.0)
    dev2 = dev * dev
    var = dev2.sum(axis=1) / count
    sd = np.where(spread, np.sqrt(var), 1.0)
    skew = (dev2 * dev).sum(axis=1) / count / sd ** 3
    kurt = np.where(spread, (dev2 * dev2).sum(axis=1) / count / sd ** 4 - 3.0, 0.0)
    p = _histograms(x, varied, lo, hi) / count[:, None]
    entropy = 0.0 - (p * np.log2(np.where(p > 0, p, 1.0))).sum(axis=1)
    median = (rank((count - 1) // 2) + rank(count // 2)) / 2
    return np.stack([
        mean, var, skew, kurt, (masked * masked).sum(axis=1), entropy,
        lo, hi, hi - lo, median, nearest_rank(10.0), nearest_rank(90.0),
        np.abs(dev).sum(axis=1) / count,
    ], axis=1)


# ---------------------------------------------------------------------------
# Shape
# ---------------------------------------------------------------------------

def _shape_descriptors(inside: np.ndarray) -> np.ndarray:
    """The 9 SHAPE_NAMES of each ROI mask of a stack (n, h, w), each with
    at least one set pixel -> (n, 9).

    Perimeter counts boundary edges between a set pixel and an unset (or
    outside) pixel; the axis lengths come from the eigenvalues of the
    second-moment matrix of the set-pixel coordinates (length = 4 sqrt(lambda)),
    taken in closed form from masked centred sums.
    """
    n, h, w = inside.shape
    area = np.count_nonzero(inside, axis=(1, 2)).astype(np.float64)
    padded = np.pad(inside, ((0, 0), (1, 1), (1, 1)))
    perimeter = (np.count_nonzero(padded[:, 1:] != padded[:, :-1], axis=(1, 2))
                 + np.count_nonzero(padded[:, :, 1:] != padded[:, :, :-1],
                                    axis=(1, 2))).astype(np.float64)

    def span(occupied):
        """Positions from the first to the last occupied one, inclusive,
        in each row of (n, k)."""
        end = occupied.shape[1] - occupied[:, ::-1].argmax(axis=1)
        return (end - occupied.argmax(axis=1)).astype(np.float64)

    bbox_h, bbox_w = span(inside.any(axis=2)), span(inside.any(axis=1))

    def centred(coords):
        """Each set pixel's coordinate minus its mask's mean one; 0 unset."""
        mean = np.where(inside, coords, 0.0).sum(axis=(1, 2)) / area
        return np.where(inside, coords - mean[:, None, None], 0.0)

    dr = centred(np.arange(h, dtype=np.float64)[:, None])
    dc = centred(np.arange(w, dtype=np.float64))
    var_r, var_c, cov = ((u * v).sum(axis=(1, 2)) / area
                         for u, v in ((dr, dr), (dc, dc), (dr, dc)))
    mid = (var_r + var_c) / 2
    radius = np.hypot((var_r - var_c) / 2, cov)
    eig_max, eig_min = mid + radius, np.maximum(mid - radius, 0.0)
    ratio = np.divide(eig_min, eig_max, out=np.ones(n), where=eig_max > 0)
    return np.stack([
        area, perimeter, 4.0 * np.pi * area / perimeter ** 2, bbox_w, bbox_h,
        area / (bbox_h * bbox_w), 4.0 * np.sqrt(eig_max), 4.0 * np.sqrt(eig_min),
        np.sqrt(1.0 - ratio),
    ], axis=1)


# ---------------------------------------------------------------------------
# GLCM
# ---------------------------------------------------------------------------

def glcm_compute(codes: np.ndarray, roi: np.ndarray, offset: tuple,
                 levels: int) -> np.ndarray:
    """(..., levels, levels) symmetrized co-occurrence probabilities of the
    code pairs at the offset in each slice of a stack (..., h, w); both
    pixels of a pair must be in-ROI.  A slice with no such pair gets an
    all-zero matrix."""
    dr, dc = offset
    if (dr, dc) == (0, 0):
        raise ValueError("offset (0, 0) is not a co-occurrence")
    counts = kernels.glcm_counts(codes, roi, dr, dc, levels)
    counts = counts + np.swapaxes(counts, -1, -2)
    total = counts.sum(axis=(-2, -1), keepdims=True)
    return counts / np.where(total > 0, total, 1.0)


def _rowdot(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a @ v for a stack of rows, summed within each row, so a row's value
    does not depend on the other rows (a BLAS product's blocking, and so
    its rounding, changes with the number of rows)."""
    return (a * v).sum(axis=1)


def _diagonal_sums(p: np.ndarray) -> np.ndarray:
    """Sums of each (L, L) matrix of a stack over its anti-diagonals
    i + j = s, s = 0..2L-2 -> (n, 2L - 1).

    Row-major, the first L (2L - 1) cells of a (L, 2L) zero-padded copy,
    read as (L, 2L - 1), hold row i shifted right by i, so cell (i, j)
    lands in column i + j and a column sum is an anti-diagonal sum.
    """
    n, levels, _ = p.shape
    padded = np.zeros((n, levels, 2 * levels))
    padded[:, :, :levels] = p
    shifted = padded.reshape(n, 2 * levels * levels)[:, :levels * (2 * levels - 1)]
    return shifted.reshape(n, levels, 2 * levels - 1).sum(axis=1)


def _glcm_descriptors(p: np.ndarray) -> np.ndarray:
    """The 8 GLCM_FEATURE_NAMES of each matrix of an (n, L, L) stack of
    co-occurrence probabilities -> (n, 8).  An all-zero member (no pair
    at its offset) gives all zeros.

    Everything but ASM and entropy is a sum over the difference and sum
    histograms p_{x-y}, p_{x+y} (anti-diagonal sums of p with its columns
    reversed, and of p) or the marginals (Haralick 1973; Unser 1986).
    Every sum runs within one member, so a member's descriptors are the
    same bits whatever else is in the stack.  The covariance is Unser's
    (var(x+y) - var(x-y)) / 4, a difference of two centered sums, which
    keeps near-zero correlations accurate where E[ij] - mu_i mu_j would
    cancel.  Correlation is 0 when either marginal
    sits on a single gray level.
    """
    n, levels, _ = p.shape
    flat = p.reshape(n, levels * levels)
    p_diff = _diagonal_sums(p[:, :, ::-1])
    p_sum = _diagonal_sums(p)
    p_i, p_j = p.sum(axis=2), p.sum(axis=1)
    gray = np.arange(1, levels + 1, dtype=np.float64)
    diff = np.arange(1 - levels, levels, dtype=np.float64)
    sums = np.arange(2, 2 * levels + 1, dtype=np.float64)
    mu_i = _rowdot(p_i, gray)
    mu_j = _rowdot(p_j, gray)
    var_i = ((gray - mu_i[:, None]) ** 2 * p_i).sum(axis=1)
    var_j = ((gray - mu_j[:, None]) ** 2 * p_j).sum(axis=1)
    dev = sums - (mu_i + mu_j)[:, None]
    dev2 = dev * dev
    var_sum = (dev2 * p_sum).sum(axis=1)
    var_diff = ((diff - (mu_i - mu_j)[:, None]) ** 2 * p_diff).sum(axis=1)
    spread = (np.count_nonzero(p_i, axis=1) > 1) & (np.count_nonzero(p_j, axis=1) > 1)
    correlation = np.zeros(n)
    np.divide(var_sum - var_diff, 4.0 * np.sqrt(var_i * var_j),
              out=correlation, where=spread)
    logs = np.log(np.where(flat > 0, flat, 1.0))  # 0 log 0 = 0
    return np.stack([
        _rowdot(p_diff, diff ** 2),                 # contrast
        _rowdot(p_diff, np.abs(diff)),              # dissimilarity
        _rowdot(p_diff, 1.0 / (1.0 + diff ** 2)),   # homogeneity
        np.einsum("nk,nk->n", flat, flat),          # asm
        -np.einsum("nk,nk->n", flat, logs) / np.log(2.0),  # entropy, bits
        correlation,
        (dev2 * dev * p_sum).sum(axis=1),           # cluster shade
        (dev2 * dev2 * p_sum).sum(axis=1),          # cluster prominence
    ], axis=1)


# ---------------------------------------------------------------------------
# GLRLM
# ---------------------------------------------------------------------------

def glrlm_compute(codes: np.ndarray, roi: np.ndarray, direction: tuple,
                  levels: int) -> np.ndarray:
    """Counts of maximal in-ROI runs of equal codes along the direction in
    each slice of a stack (..., h, w) -> (..., levels, max(h, w)); rows =
    gray level, columns = run length (1-based); an out-of-ROI pixel
    breaks a run; a direction not in GLRLM_DIRECTIONS is a ValueError."""
    return kernels.glrlm_counts(codes, roi, *direction, levels,
                                max(codes.shape[-2:]))


def _glrlm_descriptors(mats: np.ndarray) -> np.ndarray:
    """The 7 GLRLM_FEATURE_NAMES of each matrix of an (n, levels, max_run)
    stack of run counts -> (n, 7).  Zero columns past a member's own
    max_run change nothing, so matrices of different max_run can share a
    stack once zero-padded to the widest."""
    n_runs = mats.sum(axis=(1, 2))
    if not n_runs.all():
        raise ValueError("run-length matrix has zero runs")
    lengths = np.arange(1, mats.shape[2] + 1, dtype=np.float64)
    grays = np.arange(1, mats.shape[1] + 1, dtype=np.float64)
    by_length = mats.sum(axis=1)
    by_gray = mats.sum(axis=2)
    return np.stack([
        _rowdot(by_length, 1.0 / lengths ** 2) / n_runs,  # short-run emphasis
        _rowdot(by_length, lengths ** 2) / n_runs,        # long-run emphasis
        (by_gray ** 2).sum(axis=1) / n_runs,              # gray-level nonuniformity
        (by_length ** 2).sum(axis=1) / n_runs,            # run-length nonuniformity
        n_runs / _rowdot(by_length, lengths),             # run percentage
        _rowdot(by_gray, 1.0 / grays ** 2) / n_runs,      # low gray-level emphasis
        _rowdot(by_gray, grays ** 2) / n_runs,            # high gray-level emphasis
    ], axis=1)


# ---------------------------------------------------------------------------
# Haar wavelet
# ---------------------------------------------------------------------------

def _pad_even(arr: np.ndarray) -> np.ndarray:
    """Edge-replicate odd last two dimensions to even."""
    h, w = arr.shape[-2:]
    lead = ((0, 0),) * (arr.ndim - 2)
    return np.pad(arr, lead + ((0, h % 2), (0, w % 2)), mode="edge")


def wavelet_decompose(pixels: np.ndarray) -> dict:
    """Single-level orthonormal 2-D Haar transform of each slice of a
    stack (..., h, w).

    Odd dimensions are edge-replicated to even first.  Returns the four
    half-size subbands (LL, LH, HL, HH), each (..., ceil(h/2), ceil(w/2));
    LH carries horizontal detail (differences along columns), HL vertical
    detail.
    """
    x = _pad_even(np.asarray(pixels, dtype=np.float64))
    a = x[..., 0::2, 0::2]
    b = x[..., 0::2, 1::2]
    c = x[..., 1::2, 0::2]
    d = x[..., 1::2, 1::2]
    return {
        "LL": (a + b + c + d) / 2.0,
        "LH": (a - b + c - d) / 2.0,
        "HL": (a + b - c - d) / 2.0,
        "HH": (a - b - c + d) / 2.0,
    }


def downsample_mask(bits: np.ndarray) -> np.ndarray:
    """2x2 any-set downsampling of each mask of a stack (..., h, w),
    matching the wavelet subband geometry."""
    bits = _pad_even(bits)
    return (bits[..., 0::2, 0::2] | bits[..., 0::2, 1::2]
            | bits[..., 1::2, 0::2] | bits[..., 1::2, 1::2])


# ---------------------------------------------------------------------------
# Full catalog
# ---------------------------------------------------------------------------

def _catalog_names() -> tuple:
    def texture(prefix):
        return ([f"{prefix}glcm_{_offset_tag(o)}_{n}"
                 for o in GLCM_OFFSETS for n in GLCM_FEATURE_NAMES]
                + [f"{prefix}glrlm_{_offset_tag(d)}_{n}"
                   for d in GLRLM_DIRECTIONS for n in GLRLM_FEATURE_NAMES])

    names = [f"original_firstorder_{n}" for n in FIRST_ORDER_NAMES]
    names += [f"shape_{n}" for n in SHAPE_NAMES]
    names += texture("original_")
    for band in WAVELET_BANDS:
        names += [f"wavelet_{band}_firstorder_{n}" for n in FIRST_ORDER_NAMES]
        names += texture(f"wavelet_{band}_")
    return tuple(names)


CATALOG_NAMES = _catalog_names()


def _plane_features(values: np.ndarray, inside: np.ndarray,
                    levels: int) -> np.ndarray:
    """First-order (13), GLCM (4 offsets x 8) and GLRLM (4 directions x 7)
    features of each plane of a stack (n, h, w) -> (n, 73).

    An offset with no in-ROI pair contributes an all-zero GLCM, hence zero
    descriptors, which keeps the catalog total on degenerate ROIs.
    """
    n = values.shape[0]
    codes = _quantize(values, inside, levels)
    glcms = np.stack([glcm_compute(codes, inside, offset, levels)
                      for offset in GLCM_OFFSETS], axis=1)
    runs = np.stack([glrlm_compute(codes, inside, direction, levels)
                     for direction in GLRLM_DIRECTIONS], axis=1)
    return np.concatenate([
        _first_order(values, inside),
        _glcm_descriptors(glcms.reshape(-1, levels, levels)).reshape(n, -1),
        _glrlm_descriptors(runs.reshape(-1, *runs.shape[2:])).reshape(n, -1),
    ], axis=1)


def extract_all(pixels: np.ndarray, bits: np.ndarray,
                levels: int = 32) -> np.ndarray:
    """The full 374-feature catalog of each slice of a stack -> (n, 374),
    columns in CATALOG_NAMES order.

    pixels and bits are (n, h, w): the slices and their ROI masks, each
    mask with at least one set pixel; intensities are quantized to levels
    (2 .. MAX_LEVELS) gray levels.  Original plane: first-order (13) +
    shape (9) + GLCM (32) + GLRLM (28); each Haar subband: first-order
    (13) + GLCM (32) + GLRLM (28).  The four subbands of every slice go
    through the plane features as one stack of 4n planes.
    """
    if not 2 <= levels <= MAX_LEVELS:
        raise ValueError(f"levels must be within 2 .. {MAX_LEVELS}, "
                         f"got {levels}")
    pixels = np.asarray(pixels, dtype=np.float64)
    bits = np.asarray(bits)
    if pixels.ndim != 3 or pixels.shape != bits.shape:
        raise ShapeMismatchError("image and mask dimensions differ")
    inside = bits > 0
    if not inside.any(axis=(1, 2)).all():
        raise ValueError("empty mask")
    n = pixels.shape[0]
    original = _plane_features(pixels, inside, levels)
    subbands = wavelet_decompose(pixels)
    bands = np.stack([subbands[b] for b in WAVELET_BANDS], axis=1)
    sub_inside = np.repeat(downsample_mask(inside), len(WAVELET_BANDS), axis=0)
    sub = _plane_features(bands.reshape(-1, *bands.shape[2:]), sub_inside,
                          levels).reshape(n, -1)
    shape = _shape_descriptors(inside)
    first = len(FIRST_ORDER_NAMES)
    return np.concatenate([original[:, :first], shape, original[:, first:], sub],
                          axis=1)
