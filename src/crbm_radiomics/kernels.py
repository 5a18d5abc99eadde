"""Hot numeric kernels: three convolutions, two texture counters and the
sigmoid.

The package spends nearly all of its time in five inner loops: the three
convolution kernels used by the CRBM (valid cross-correlation for hidden
activations, full convolution for visible reconstruction, and the K x K
weight-gradient correlation) and the two texture-matrix counters (GLCM
pair counts, GLRLM run counts).  Each has one numpy implementation.

Each convolution is one matrix product.  ``corr_valid`` and
``corr_grad`` multiply by an im2col copy of the images' K x K windows;
``conv_full`` multiplies to K*K shifted tap planes and adds each output
pixel's taps in a fixed (r, s) order, with one reduction over a frame of
the placed planes (see its docstring).  ``corr_valid``'s im2col copy
and product are ``_corr_valid_rows``, which computes any band of hidden
rows into buffers it is given; ``crbm.extract_feature_map`` calls it
for bands of a paper-scale stack.  ``conv_full``'s reduction is
``_add_taps``, which crbm's two-thread CD chain calls on tap planes it
has computed itself, in one call on the calling thread.  All three take
an optional leading batch axis (any number of leading axes, written
``...`` below), so a CD minibatch goes through each kernel in one call:

* ``corr_valid``  (..., N, N) x (M, K, K) -> (..., M, H, H), H = N - K + 1;
* ``conv_full``   (..., M, H, H) x (M, K, K) -> (..., N, N), summed over maps;
* ``corr_grad``   (..., N, N) x (..., M, H, H) -> (M, K, K), summed over
  the leading axes.

Each texture counter takes quantized codes (1..levels) and ROI masks of a
stack of same-shape slices, (..., h, w), and returns one matrix per slice.
It costs a fixed number of numpy calls per stack, with no Python loop over
slices, pixels, lines or runs: each slice's cells are offset by
``slice * levels * width``, so one ``bincount`` counts the whole stack:

* ``glcm_counts``   pairs at offset (dr, dc)  -> (..., levels, levels);
* ``glrlm_counts``  maximal runs along (dr, dc) -> (..., levels, max_run).

``sigmoid`` is the package's one logistic function: both CRBM
conditionals and the logistic-regression head go through it.  It works
in place, 1 / (1 + exp(-bias - act)) in four ufunc passes; at the paper's
64 maps of 252 x 252 that is about 3x faster than ``scipy.special.expit``,
and it agrees with expit to within 1e-15 relative in float64 (below
1e-300, 1e-300 absolute) and 4 float32 eps relative in float32.
"""

import math

import numpy as np

__all__ = [
    "corr_valid",
    "conv_full",
    "corr_grad",
    "glcm_counts",
    "glrlm_counts",
    "sigmoid",
    "active_backend",
]

# most values in one band of conv_full's frame of tap planes (1 MB of
# float32), unless one output row and the 2 (K - 1) rows around it need more
_FRAME_ELEMENTS = 1 << 18


# ---------------------------------------------------------------------------
# Convolutions
# ---------------------------------------------------------------------------

def _strided(a: np.ndarray, shape: tuple, strides: tuple,
             offset: int = 0) -> np.ndarray:
    """A view of the C-contiguous array a with these shape and strides (in
    bytes), starting offset bytes into a's buffer: numpy checks that it
    stays inside a, read-only if a is, at a sixth of as_strided's set-up
    cost (about 1 against 6 us; the CD chain makes five such views per
    minibatch)."""
    return np.ndarray(shape, a.dtype, a, offset, strides)


def _windows(v: np.ndarray, k: int, r0: int, rows: int) -> np.ndarray:
    """The K x K windows of the C-contiguous images v (..., N, N) at
    hidden rows r0 .. r0 + rows - 1, a view (..., K, K, rows, H) with
    windows[..., r, s, i, j] equal to v[..., r0 + i + r, j + s]."""
    hside = v.shape[-1] - k + 1
    row, col = v.strides[-2:]
    return _strided(v, (*v.shape[:-2], k, k, rows, hside),
                    (*v.strides[:-2], row, col, row, col), r0 * row)


def corr_valid(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Valid cross-correlation of images v (..., N, N) with filters w (M, K, K)
    -> (..., M, H, H)."""
    m, k, _ = w.shape
    v = np.ascontiguousarray(v)
    lead, hside = v.shape[:-2], v.shape[-1] - k + 1
    cols = np.empty(math.prod(lead) * k * k * hside * hside, dtype=v.dtype)
    out = np.empty((*lead, m, hside, hside), dtype=np.result_type(v, w))
    return _corr_valid_rows(v, w, 0, out, cols)


def _corr_valid_rows(v: np.ndarray, w: np.ndarray, r0: int, out: np.ndarray,
                     cols: np.ndarray) -> np.ndarray:
    """Hidden rows r0 .. r0 + R - 1 of the valid cross-correlation of v
    with w, written into out (..., M, R, H) through cols, a flat buffer of
    v's dtype with room for the rows' im2col copy, (..., K*K, R*H).  v and
    out are C-contiguous.  It allocates no array, so a thread can run it
    on buffers that another thread made.  corr_valid is the call for all
    H rows; a band of rows gets the bits of the whole product only as far
    as the matrix product gives a column the same bits in both (see
    crbm.extract_feature_map)."""
    m, k, _ = w.shape
    *lead, _, rows, hside = out.shape
    windows = _windows(v, k, r0, rows)
    flat = cols[:windows.size].reshape(*lead, k * k, rows * hside)
    flat.reshape(windows.shape)[...] = windows
    np.matmul(w.reshape(m, k * k), flat,
              out=out.reshape(*lead, m, rows * hside))
    return out


def conv_full(hmaps: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Full convolution of hidden maps (..., M, H, H) with filters (M, K, K),
    summed over filters -> (..., N, N) with N = H + K - 1.

    One matrix product gives the K*K tap planes.  Each output pixel then
    adds its tap terms one after another in (r, s) order, the order of a
    loop that adds each shifted plane into a zeroed output: the planes are
    placed at their offsets in a zeroed frame, (K, K, ..., rows, N), and
    one reduction over the tap axes adds them in that order.  The frame
    covers a band of output rows and the K - 1 rows of taps on either side
    that reach into it, at most _FRAME_ELEMENTS values, so that a large
    image does not get a K*K-fold copy of itself (``_add_taps``).  A
    pixel's sum is the same whatever the bands.
    """
    m, k, _ = w.shape
    lead, hside = hmaps.shape[:-3], hmaps.shape[-1]
    n = hside + k - 1
    # taps[..., r, s, i, j] = sum_m w[m, r, s] * hmaps[..., m, i, j]
    taps = w.reshape(m, k * k).T @ hmaps.reshape(*lead, m, hside * hside)
    taps = taps.reshape(*lead, k, k, hside, hside)
    out = np.empty((*lead, n, n), dtype=taps.dtype)
    _add_taps(taps, out)
    return out


def _add_taps(taps: np.ndarray, out: np.ndarray) -> None:
    """Write conv_full's output out (..., N, N) from its tap planes taps
    (..., K, K, H, H), band of output rows after band, through one frame
    that it allocates: at most _FRAME_ELEMENTS values, unless a band of
    one output row needs more."""
    *lead, k, _, hside, _ = taps.shape
    n, count = out.shape[-1], math.prod(lead)
    # output rows per band: as many as fit in the frame beside the
    # 2 (K - 1) rows of taps around them, and at least one
    fit = _FRAME_ELEMENTS // (k * k * n * count)
    band = n if fit >= n else max(1, fit - 2 * (k - 1))
    frame = np.empty(k * k * count * (min(band + k - 1, hside) + k - 1) * n,
                     dtype=taps.dtype)
    for u0 in range(0, n, band):
        u1 = min(u0 + band, n)
        # hidden rows [a, b) reach output rows [u0, u1); frame row t is
        # output row a + t
        a, b = max(u0 - k + 1, 0), min(u1, hside)
        rows = b - a + k - 1
        framed = frame[:k * k * count * rows * n]
        framed = framed.reshape(k, k, *lead, rows, n)
        framed.fill(0)
        tap_r, tap_s, *lead_strides, row, col = framed.strides
        # placed[..., r, s, i, j] = framed[r, s, ..., i + r, j + s]
        placed = _strided(framed, (*lead, k, k, b - a, hside),
                          (*lead_strides, tap_r + row, tap_s + col, row, col))
        placed[...] = taps[..., a:b, :]
        planes = framed.reshape(k * k, *lead, rows, n)
        np.add.reduce(planes[..., u0 - a:u1 - a, :], axis=0,
                      out=out[..., u0:u1, :])


def corr_grad(v: np.ndarray, p: np.ndarray) -> np.ndarray:
    """K x K weight-gradient patches summed over the leading axes:
    grad[m,r,s] = sum_..ij p[..., m, i, j] * v[..., i+r, j+s] -> (M, K, K)."""
    m, hside = p.shape[-3], p.shape[-1]
    n = v.shape[-1]
    k = n - hside + 1
    v = np.ascontiguousarray(v).reshape(-1, n, n)
    # both operands as (rows, B*H*H) for one product over every image:
    # windows[r, s, b, i, j] = v[b, i + r, j + s]; the reshapes copy
    windows = _windows(v, k, 0, hside).transpose(1, 2, 0, 3, 4)
    flat = windows.reshape(k * k, -1)
    maps = p.reshape(-1, m, hside * hside).transpose(1, 0, 2).reshape(m, -1)
    return (maps @ flat.T).reshape(m, k, k)


# ---------------------------------------------------------------------------
# Texture counters
# ---------------------------------------------------------------------------

def glcm_counts(codes: np.ndarray, roi: np.ndarray, dr: int, dc: int,
                levels: int) -> np.ndarray:
    """Raw co-occurrence counts of code pairs at offset (dr, dc), both pixels
    in-ROI, of each slice of a stack (..., h, w) -> (..., levels, levels)."""
    *lead, h, w = codes.shape
    codes = codes.reshape(-1, h, w)
    roi = roi.reshape(-1, h, w)
    n = codes.shape[0]
    r0, r1 = max(0, -dr), h - max(0, dr)
    c0, c1 = max(0, -dc), w - max(0, dc)
    if r1 <= r0 or c1 <= c0:
        return np.zeros((*lead, levels, levels))
    a = codes[:, r0:r1, c0:c1]
    b = codes[:, r0 + dr:r1 + dr, c0 + dc:c1 + dc]
    valid = (roi[:, r0:r1, c0:c1] > 0) & (roi[:, r0 + dr:r1 + dr, c0 + dc:c1 + dc] > 0)
    first = np.arange(n, dtype=np.int64)[:, None, None] * levels + a - 1
    cells = first * levels + b - 1
    counts = np.bincount(cells[valid], minlength=n * levels * levels)
    return counts.reshape(*lead, levels, levels).astype(np.float64)


def _anti_diagonals(x: np.ndarray) -> np.ndarray:
    """Lines of each slice of x (n, h, w) along (1, -1), one per row,
    zero-filled: (n, h + w - 1, h)."""
    n, h, w = x.shape
    # Row-major, a step of h + w - 1 in a (h, w + h) slice moves one row
    # down and one column left, so column s of the reshaped slice walks the
    # anti-diagonal i + j = s; where it leaves x it runs into the zero pad.
    padded = np.zeros((n, h, w + h), dtype=x.dtype)
    padded[:, :, :w] = x
    lines = padded.reshape(n, h * (w + h))[:, :h * (w + h - 1)]
    return lines.reshape(n, h, w + h - 1).transpose(0, 2, 1)


def glrlm_counts(codes: np.ndarray, roi: np.ndarray, dr: int, dc: int,
                 levels: int, max_run: int) -> np.ndarray:
    """Counts of maximal in-ROI runs of equal codes along direction (dr, dc)
    of each slice of a stack (..., h, w) -> (..., levels, max_run); a run
    longer than max_run is counted in the last column.

    Out-of-ROI pixels become 0 (codes are >= 1), and the pixels are laid
    out as lines of the direction, each followed by a 0 separator, in one
    flat array, slice after slice: rows for (0, 1), columns for (1, 0), and
    the anti-diagonals of x (1, -1) or of x flipped upside down (1, 1).  A
    run then starts wherever the flat array changes value and never
    crosses a line or a slice, so one ``diff`` finds every run of the
    stack, and one ``bincount`` counts the nonzero ones.
    """
    *lead, h, w = codes.shape
    x = np.where(roi > 0, codes, 0).reshape(-1, h, w)
    if (dr, dc) == (0, 1):
        lines = x
    elif (dr, dc) == (1, 0):
        lines = x.transpose(0, 2, 1)
    elif (dr, dc) == (1, -1):
        lines = _anti_diagonals(x)
    elif (dr, dc) == (1, 1):
        lines = _anti_diagonals(x[:, ::-1])
    else:
        raise ValueError(f"unsupported run direction {(dr, dc)}")
    n, n_lines, length = lines.shape
    flat = np.zeros((n, n_lines, length + 1), dtype=np.int64)
    flat[:, :, :-1] = lines
    flat = flat.ravel()
    starts = np.flatnonzero(np.diff(flat, prepend=-1))
    lengths = np.diff(starts, append=flat.size)
    values = flat[starts]
    keep = values > 0
    first = starts[keep] // (n_lines * (length + 1)) * levels + values[keep] - 1
    cells = first * max_run + np.minimum(lengths[keep], max_run) - 1
    counts = np.bincount(cells, minlength=n * levels * max_run)
    return counts.reshape(*lead, levels, max_run).astype(np.float64)


# ---------------------------------------------------------------------------
# Sigmoid
# ---------------------------------------------------------------------------

def sigmoid(act: np.ndarray, bias) -> np.ndarray:
    """act <- 1 / (1 + exp(-bias - act)) in place; bias broadcasts and is
    of act's dtype.

    fl(-b - a) = -fl(a + b), so exp sees exactly the negated biased
    activation.  Below about -709.8 (float64) or -88.7 (float32) exp
    overflows to inf and the result is 0, where the true value is at most
    a subnormal.
    """
    np.subtract(-bias, act, out=act)
    with np.errstate(over="ignore"):
        np.exp(act, out=act)
    act += 1.0
    return np.reciprocal(act, out=act)


def active_backend() -> str:
    """Backend of the texture counters, recorded in report provenance."""
    return "numpy"
