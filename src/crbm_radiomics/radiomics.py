"""Hand-crafted texture features over an ROI.

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
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import kernels
from .data_model import Image2D, RoiMask
from .errors import EmptyCooccurrenceError, ShapeMismatchError

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
# Types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadiomicsConfig:
    levels: int = 32

    def __post_init__(self):
        if self.levels < 2:
            raise ValueError(f"levels must be >= 2, got {self.levels}")


@dataclass(frozen=True)
class QuantizedImage:
    """Integer codes in [1, levels] inside the ROI, 0 outside."""

    codes: np.ndarray
    levels: int
    roi: RoiMask

    def __post_init__(self):
        codes = np.asarray(self.codes, dtype=np.int32)
        if codes.shape != self.roi.bits.shape:
            raise ShapeMismatchError("codes and ROI dimensions differ")
        inside = codes[self.roi.bits > 0]
        if inside.size and (inside.min() < 1 or inside.max() > self.levels):
            raise ValueError("in-ROI codes must lie in [1, levels]")
        object.__setattr__(self, "codes", codes)


@dataclass(frozen=True)
class FeatureVector:
    names: tuple
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if len(self.names) != values.size:
            raise ValueError("names and values length mismatch")
        if len(set(self.names)) != len(self.names):
            raise ValueError("feature names must be unique")
        if not np.isfinite(values).all():
            raise ValueError("feature values must be finite")
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.names)


# ---------------------------------------------------------------------------
# Quantization
# ---------------------------------------------------------------------------

def _quantize_array(values: np.ndarray, roi_bits: np.ndarray, levels: int) -> np.ndarray:
    """Equal-width binning of the in-ROI values into codes [1, levels]
    between their minimum and maximum; 0 outside the ROI."""
    inside = roi_bits > 0
    if not inside.any():
        raise ValueError("empty mask")
    lo = values[inside].min()
    hi = values[inside].max()
    codes = np.zeros(values.shape, dtype=np.int32)
    if hi == lo:
        codes[inside] = 1
    else:
        scaled = np.floor((values[inside] - lo) / (hi - lo) * levels).astype(np.int32) + 1
        codes[inside] = np.minimum(scaled, levels)
    return codes


# ---------------------------------------------------------------------------
# First-order statistics
# ---------------------------------------------------------------------------

def _nearest_rank(sorted_vals: np.ndarray, pct: float) -> float:
    rank = int(np.ceil(pct / 100.0 * sorted_vals.size))
    return float(sorted_vals[max(rank, 1) - 1])


def _first_order_values(x: np.ndarray) -> np.ndarray:
    """The 13 FIRST_ORDER_NAMES of a pixel multiset (the in-ROI pixels).

    Variance is population variance; skewness and excess kurtosis are 0 for
    constant regions; entropy uses a 256-bin histogram over the in-ROI
    range (log base 2); percentiles use the nearest-rank rule and the
    median averages the two middle values for even counts.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    mean = x.mean()
    var = x.var()
    sd = np.sqrt(var)
    if sd > 0:
        skew = float(np.mean((x - mean) ** 3) / sd ** 3)
        kurt = float(np.mean((x - mean) ** 4) / sd ** 4 - 3.0)
    else:
        skew = 0.0
        kurt = 0.0
    energy = float(np.sum(x * x))
    lo, hi = x.min(), x.max()
    if hi > lo:
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
        float(np.mean(np.abs(x - mean))),
    ])


# ---------------------------------------------------------------------------
# Shape
# ---------------------------------------------------------------------------

def shape_features(mask: RoiMask) -> FeatureVector:
    """9 binary-shape descriptors of the mask.

    Perimeter counts boundary edges between a set pixel and an unset (or
    outside) pixel; the axis lengths come from the eigenvalues of the
    second-moment matrix of the set-pixel coordinates (length = 4 sqrt(lambda)).
    """
    bits = mask.bits
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
    return FeatureVector(names=SHAPE_NAMES, values=np.array([
        area, perimeter, compactness, bbox_w, bbox_h, extent,
        major, minor, eccentricity,
    ]))


# ---------------------------------------------------------------------------
# GLCM
# ---------------------------------------------------------------------------

def glcm_compute(q: QuantizedImage, offset: tuple) -> np.ndarray:
    """(levels, levels) symmetrized co-occurrence probabilities of code
    pairs at the offset; both pixels of a pair must be in-ROI.  Raises
    EmptyCooccurrenceError if no pair exists."""
    dr, dc = offset
    if (dr, dc) == (0, 0):
        raise ValueError("offset (0, 0) is not a co-occurrence")
    counts = kernels.glcm_counts(q.codes, q.roi.bits, dr, dc, q.levels)
    counts = counts + counts.T
    total = counts.sum()
    if total == 0:
        raise EmptyCooccurrenceError(f"no valid pixel pair at offset {offset}")
    return counts / total


@functools.lru_cache(maxsize=None)
def _glcm_design(levels: int) -> np.ndarray:
    """0/1 matrix D of shape (levels², 6 levels - 2): a flattened
    probability matrix times D is [p_{x-y}(d) for d = 1-L..L-1,
    p_{x+y}(s) for s = 2..2L, the row marginal, the column marginal]."""
    width = 2 * levels - 1
    i, j = np.divmod(np.arange(levels * levels), levels)
    design = np.zeros((levels * levels, 2 * width + 2 * levels))
    for column in (i - j + levels - 1, width + i + j,
                   2 * width + i, 2 * width + levels + j):
        design[np.arange(levels * levels), column] = 1.0
    design.setflags(write=False)
    return design


def _glcm_descriptors(p: np.ndarray) -> np.ndarray:
    """The 8 GLCM_FEATURE_NAMES of each matrix of an (n, L, L) stack of
    co-occurrence probabilities -> (n, 8).  An all-zero member (no pair
    at its offset) gives all zeros.

    Everything but ASM and entropy is a sum over the difference and sum
    histograms p_{x-y}, p_{x+y} or the marginals (Haralick 1973; Unser
    1986), all read off one product with the cached _glcm_design.  The
    covariance is Unser's (var(x+y) - var(x-y)) / 4, a difference of two
    centered sums, which keeps near-zero correlations accurate where
    E[ij] - mu_i mu_j would cancel.  Correlation is 0 when either marginal
    sits on a single gray level.
    """
    n, levels, _ = p.shape
    width = 2 * levels - 1
    flat = p.reshape(n, levels * levels)
    hist = flat @ _glcm_design(levels)
    p_diff, p_sum = hist[:, :width], hist[:, width:2 * width]
    p_i, p_j = hist[:, 2 * width:2 * width + levels], hist[:, 2 * width + levels:]
    gray = np.arange(1, levels + 1, dtype=np.float64)
    diff = np.arange(1 - levels, levels, dtype=np.float64)
    sums = np.arange(2, 2 * levels + 1, dtype=np.float64)
    mu_i = p_i @ gray
    mu_j = p_j @ gray
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
        p_diff @ diff ** 2,                   # contrast
        p_diff @ np.abs(diff),                # dissimilarity
        p_diff @ (1.0 / (1.0 + diff ** 2)),   # homogeneity
        np.einsum("nk,nk->n", flat, flat),    # asm
        -np.einsum("nk,nk->n", flat, logs) / np.log(2.0),  # entropy, bits
        correlation,
        (dev2 * dev * p_sum).sum(axis=1),     # cluster shade
        (dev2 * dev2 * p_sum).sum(axis=1),    # cluster prominence
    ], axis=1)


# ---------------------------------------------------------------------------
# GLRLM
# ---------------------------------------------------------------------------

def glrlm_compute(q: QuantizedImage, direction: tuple) -> np.ndarray:
    """Counts of maximal in-ROI runs of equal codes along the direction,
    rows = gray level, columns = run length (1-based); an out-of-ROI pixel
    breaks a run."""
    if tuple(direction) not in GLRLM_DIRECTIONS:
        raise ValueError(f"direction must be one of {GLRLM_DIRECTIONS}")
    if not (q.roi.bits > 0).any():
        raise ValueError("empty mask")
    return kernels.glrlm_counts(q.codes, q.roi.bits, *direction, q.levels,
                                max(q.codes.shape))


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
        by_length @ (1.0 / lengths ** 2) / n_runs,   # short-run emphasis
        by_length @ lengths ** 2 / n_runs,           # long-run emphasis
        (by_gray ** 2).sum(axis=1) / n_runs,         # gray-level nonuniformity
        (by_length ** 2).sum(axis=1) / n_runs,       # run-length nonuniformity
        n_runs / (by_length @ lengths),              # run percentage
        by_gray @ (1.0 / grays ** 2) / n_runs,       # low gray-level emphasis
        by_gray @ grays ** 2 / n_runs,               # high gray-level emphasis
    ], axis=1)


# ---------------------------------------------------------------------------
# Haar wavelet
# ---------------------------------------------------------------------------

def _pad_even(arr: np.ndarray) -> np.ndarray:
    h, w = arr.shape
    return np.pad(arr, ((0, h % 2), (0, w % 2)), mode="edge")


def wavelet_decompose(img: Image2D):
    """Single-level orthonormal 2-D Haar transform.

    Odd dimensions are edge-replicated to even first.  Returns the four
    half-size subbands (LL, LH, HL, HH); LH carries horizontal detail
    (differences along columns), HL vertical detail.
    """
    x = _pad_even(img.pixels)
    a = x[0::2, 0::2]
    b = x[0::2, 1::2]
    c = x[1::2, 0::2]
    d = x[1::2, 1::2]
    return {
        "LL": (a + b + c + d) / 2.0,
        "LH": (a - b + c - d) / 2.0,
        "HL": (a + b - c - d) / 2.0,
        "HH": (a - b - c + d) / 2.0,
    }


def wavelet_reconstruct(subbands: dict) -> np.ndarray:
    """Inverse of wavelet_decompose; returns the (padded) image array."""
    ll, lh, hl, hh = (subbands[k] for k in WAVELET_BANDS)
    h, w = ll.shape
    out = np.empty((2 * h, 2 * w))
    out[0::2, 0::2] = (ll + lh + hl + hh) / 2.0
    out[0::2, 1::2] = (ll - lh + hl - hh) / 2.0
    out[1::2, 0::2] = (ll + lh - hl - hh) / 2.0
    out[1::2, 1::2] = (ll - lh - hl + hh) / 2.0
    return out


def downsample_mask(mask: RoiMask) -> RoiMask:
    """2x2 any-set downsampling, matching the wavelet subband geometry."""
    bits = _pad_even(mask.bits)
    stacked = (bits[0::2, 0::2] | bits[0::2, 1::2]
               | bits[1::2, 0::2] | bits[1::2, 1::2])
    return RoiMask(bits=stacked)


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


def _texture_features(planes, levels: int) -> tuple:
    """GLCM (4 offsets) and GLRLM (4 directions) descriptors of each
    (values, roi) plane -> ((planes, 32), (planes, 28)).

    Every matrix of every plane goes into one stack per family, so each
    family's descriptors are one call.  An offset with no in-ROI pair
    contributes an all-zero GLCM, hence zero descriptors, which keeps the
    catalog total on degenerate ROIs.  GLRLMs are zero-padded to the
    widest plane's max_run.
    """
    glcms, glrlms = [], []
    for values, roi in planes:
        q = QuantizedImage(codes=_quantize_array(values, roi.bits, levels),
                           levels=levels, roi=roi)
        for offset in GLCM_OFFSETS:
            try:
                glcms.append(glcm_compute(q, offset))
            except EmptyCooccurrenceError:
                glcms.append(np.zeros((levels, levels)))
        glrlms += [glrlm_compute(q, direction) for direction in GLRLM_DIRECTIONS]
    runs = np.zeros((len(glrlms), levels, max(m.shape[1] for m in glrlms)))
    for stacked, mat in zip(runs, glrlms):
        stacked[:, :mat.shape[1]] = mat
    n = len(planes)
    return (_glcm_descriptors(np.stack(glcms)).reshape(n, -1),
            _glrlm_descriptors(runs).reshape(n, -1))


def extract_all(img: Image2D, mask: RoiMask,
                cfg: RadiomicsConfig = RadiomicsConfig()) -> FeatureVector:
    """The full 374-feature catalog with stable prefixed names.

    original plane: first-order (13) + shape (9) + GLCM (32) + GLRLM (28);
    each Haar subband: first-order (13) + GLCM (32) + GLRLM (28).
    """
    if img.pixels.shape != mask.bits.shape:
        raise ShapeMismatchError("image and mask dimensions differ")
    inside = mask.bits > 0
    if not inside.any():
        raise ValueError("empty mask")
    subbands = wavelet_decompose(img)
    sub_mask = downsample_mask(mask)
    sub_inside = sub_mask.bits > 0
    planes = [(img.pixels, mask)] + [(subbands[b], sub_mask) for b in WAVELET_BANDS]
    glcm, glrlm = _texture_features(planes, cfg.levels)
    values = [_first_order_values(img.pixels[inside]), shape_features(mask).values,
              glcm[0], glrlm[0]]
    for k, band in enumerate(WAVELET_BANDS, start=1):
        values += [_first_order_values(subbands[band][sub_inside]), glcm[k], glrlm[k]]
    return FeatureVector(names=CATALOG_NAMES, values=np.concatenate(values))
