"""Hot numeric kernels: three convolutions and two texture counters.

The package spends nearly all of its time in five inner loops: the three
convolution kernels used by the CRBM (valid cross-correlation for hidden
activations, full convolution for visible reconstruction, and the K x K
weight-gradient correlation) and the two texture-matrix counters (GLCM
pair counts, GLRLM run counts).

Each convolution has one numpy implementation, one matrix product over
sliding windows.  All three take an optional leading batch axis (any
number of leading axes, written ``...`` below), so a CD minibatch goes
through each kernel in one call:

* ``corr_valid``  (..., N, N) x (M, K, K) -> (..., M, H, H), H = N - K + 1;
* ``conv_full``   (..., M, H, H) x (M, K, K) -> (..., N, N), summed over maps;
* ``corr_grad``   (..., N, N) x (..., M, H, H) -> (M, K, K), summed over
  the leading axes.

The texture counters exist twice: ``_nb_*`` numba ``@njit`` loops, compiled
lazily and cached on disk, and ``_np_*`` vectorized numpy, used when numba
is unavailable or when the environment variable ``CRBM_RADIOMICS_NUMBA`` is
``0``, ``false`` or ``off``.  Both give identical counts.  The active
counters are chosen once at import time; ``BACKENDS`` keeps both variants
addressable so benchmarks and tests can compare them without re-importing
the module.
"""

import os

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "corr_valid",
    "conv_full",
    "corr_grad",
    "glcm_counts",
    "glrlm_counts",
    "active_backend",
    "BACKENDS",
]


def _numba_requested() -> bool:
    flag = os.environ.get("CRBM_RADIOMICS_NUMBA", "1").strip().lower()
    return flag not in ("0", "false", "off", "no")


# ---------------------------------------------------------------------------
# Convolutions (numpy only)
# ---------------------------------------------------------------------------

def corr_valid(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Valid cross-correlation of images v (..., N, N) with filters w (M, K, K)
    -> (..., M, H, H)."""
    m, k, _ = w.shape
    lead, hside = v.shape[:-2], v.shape[-1] - k + 1
    # windows[..., r, s, i, j] = v[..., i + r, j + s]; the reshape copies
    windows = sliding_window_view(v, (hside, hside), axis=(-2, -1))
    flat = windows.reshape(*lead, k * k, hside * hside)
    return (w.reshape(m, k * k) @ flat).reshape(*lead, m, hside, hside)


def conv_full(hmaps: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Full convolution of hidden maps (..., M, H, H) with filters (M, K, K),
    summed over filters -> (..., N, N) with N = H + K - 1."""
    m, k, _ = w.shape
    lead, hside = hmaps.shape[:-3], hmaps.shape[-1]
    n = hside + k - 1
    # taps[..., r, s, i, j] = sum_m w[m, r, s] * hmaps[..., m, i, j]
    taps = w.reshape(m, k * k).T @ hmaps.reshape(*lead, m, hside * hside)
    taps = taps.reshape(*lead, k, k, hside, hside)
    out = np.zeros((*lead, n, n))
    for r in range(k):
        for s in range(k):
            out[..., r:r + hside, s:s + hside] += taps[..., r, s, :, :]
    return out


def corr_grad(v: np.ndarray, p: np.ndarray) -> np.ndarray:
    """K x K weight-gradient patches summed over the leading axes:
    grad[m,r,s] = sum_..ij p[..., m, i, j] * v[..., i+r, j+s] -> (M, K, K)."""
    m, hside = p.shape[-3], p.shape[-1]
    n = v.shape[-1]
    k = n - hside + 1
    # both operands as (rows, B*H*H) for one product over every image
    windows = sliding_window_view(v.reshape(-1, n, n), (hside, hside), axis=(1, 2))
    flat = np.moveaxis(windows, 0, 2).reshape(k * k, -1)
    maps = np.moveaxis(p.reshape(-1, m, hside * hside), 0, 1).reshape(m, -1)
    return (maps @ flat.T).reshape(m, k, k)


# ---------------------------------------------------------------------------
# Texture counters: numpy implementations
# ---------------------------------------------------------------------------

def _np_glcm_counts(codes: np.ndarray, roi: np.ndarray, dr: int, dc: int,
                    levels: int) -> np.ndarray:
    """Raw co-occurrence counts of code pairs at offset (dr, dc); both pixels in-ROI."""
    h, w = codes.shape
    r0, r1 = max(0, -dr), h - max(0, dr)
    c0, c1 = max(0, -dc), w - max(0, dc)
    if r1 <= r0 or c1 <= c0:
        return np.zeros((levels, levels))
    a = codes[r0:r1, c0:c1]
    b = codes[r0 + dr:r1 + dr, c0 + dc:c1 + dc]
    valid = (roi[r0:r1, c0:c1] > 0) & (roi[r0 + dr:r1 + dr, c0 + dc:c1 + dc] > 0)
    if not valid.any():
        return np.zeros((levels, levels))
    pairs = (a[valid].astype(np.int64) - 1) * levels + (b[valid].astype(np.int64) - 1)
    counts = np.bincount(pairs, minlength=levels * levels)
    return counts.reshape(levels, levels).astype(np.float64)


def _np_glrlm_counts(codes: np.ndarray, roi: np.ndarray, dr: int, dc: int,
                     levels: int, max_run: int) -> np.ndarray:
    """Counts of maximal in-ROI runs of equal codes along direction (dr, dc)."""
    x = np.where(roi > 0, codes, 0).astype(np.int64)  # 0 breaks runs (codes are >= 1)
    if (dr, dc) == (0, 1):
        lines = list(x)
    elif (dr, dc) == (1, 0):
        lines = list(x.T)
    elif (dr, dc) == (1, 1):
        h, w = x.shape
        lines = [np.diagonal(x, off) for off in range(-(h - 1), w)]
    elif (dr, dc) == (1, -1):
        h, w = x.shape
        flipped = np.fliplr(x)
        lines = [np.diagonal(flipped, off) for off in range(-(h - 1), w)]
    else:
        raise ValueError(f"unsupported run direction {(dr, dc)}")
    out = np.zeros((levels, max_run))
    for line in lines:
        if line.size == 0:
            continue
        breaks = np.flatnonzero(np.diff(line) != 0)
        starts = np.concatenate(([0], breaks + 1))
        ends = np.concatenate((breaks, [line.size - 1]))
        for s, e in zip(starts, ends):
            val = line[s]
            if val > 0:
                out[val - 1, min(e - s, max_run - 1)] += 1.0
    return out


BACKENDS = {"numpy": {
    "corr_valid": corr_valid,
    "conv_full": conv_full,
    "corr_grad": corr_grad,
    "glcm_counts": _np_glcm_counts,
    "glrlm_counts": _np_glrlm_counts,
}}

# ---------------------------------------------------------------------------
# Texture counters: numba implementations
# ---------------------------------------------------------------------------

try:
    import numba

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba installed
    _HAVE_NUMBA = False

if _HAVE_NUMBA:

    @numba.njit(cache=True)
    def _nb_glcm_counts(codes, roi, dr, dc, levels):
        h, w = codes.shape
        out = np.zeros((levels, levels))
        for i in range(h):
            i2 = i + dr
            if i2 < 0 or i2 >= h:
                continue
            for j in range(w):
                j2 = j + dc
                if j2 < 0 or j2 >= w:
                    continue
                if roi[i, j] > 0 and roi[i2, j2] > 0:
                    out[codes[i, j] - 1, codes[i2, j2] - 1] += 1.0
        return out

    @numba.njit(cache=True)
    def _nb_glrlm_counts(codes, roi, dr, dc, levels, max_run):
        h, w = codes.shape
        out = np.zeros((levels, max_run))
        for i in range(h):
            for j in range(w):
                if roi[i, j] == 0:
                    continue
                # run start: predecessor along the direction is absent or different
                pi, pj = i - dr, j - dc
                if 0 <= pi < h and 0 <= pj < w and roi[pi, pj] > 0 \
                        and codes[pi, pj] == codes[i, j]:
                    continue
                length = 1
                ni, nj = i + dr, j + dc
                while 0 <= ni < h and 0 <= nj < w and roi[ni, nj] > 0 \
                        and codes[ni, nj] == codes[i, j]:
                    length += 1
                    ni += dr
                    nj += dc
                out[codes[i, j] - 1, min(length, max_run) - 1] += 1.0
        return out

    BACKENDS["numba"] = {
        "glcm_counts": _nb_glcm_counts,
        "glrlm_counts": _nb_glrlm_counts,
    }

_ACTIVE = "numba" if (_HAVE_NUMBA and _numba_requested()) else "numpy"

glcm_counts = BACKENDS[_ACTIVE]["glcm_counts"]
glrlm_counts = BACKENDS[_ACTIVE]["glrlm_counts"]


def active_backend() -> str:
    """Backend of the texture counters: "numba" or "numpy"."""
    return _ACTIVE
