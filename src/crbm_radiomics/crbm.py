"""Binary convolutional restricted Boltzmann machine.

The model couples an N x N visible layer to M hidden feature maps of side
H = N - K + 1 through K x K filters W_m, a single visible bias b shared by
every pixel, and one hidden bias c_m per map.  With ``corr`` denoting the
valid cross-correlation, the joint energy of binary (v, h) is

    E(v, h) = - sum_m sum_ij corr(v, W_m)_ij h^m_ij
              - b * sum(v) - sum_m c_m * sum(h^m)

which yields the exact conditionals

    P(h^m_ij = 1 | v) = sigmoid(corr(v, W_m)_ij + c_m)
    P(v_uw  = 1 | h) = sigmoid(sum_m fullconv(h^m, W_m)_uw + b)

and the analytic free energy

    F(v) = -b * sum(v) - sum_m sum_ij softplus(corr(v, W_m)_ij + c_m).

Training follows CD-k: a k-round Gibbs chain started at the data image,
with hidden probabilities (not samples) in both gradient phases.  A
minibatch runs as one batched chain, drawing its uniforms in the order of
one-image chains run image after image, so batching never changes a
sample.

Images are plain float32 or float64 arrays, (N, N) or stacks
(..., N, N); an image of any other dtype is read as float64.  Hidden
maps are (..., M, H, H).  Each entry point checks the stack it is given
once, in its own dtype: its shape, and pixels finite and within [0, 1].

Both conditionals go through the package's one sigmoid,
``kernels.sigmoid``, in place.

Compute dtype.  The chain computes in the dtype of the visible stack it
is given: the conditionals cast the filters and biases to it, and the
uniforms are drawn in it.  ``cd_update``, the training path, passes a
float32 stack, which halves the hidden maps and makes the kernels, the
draws and the sigmoid about twice as fast at paper scale.  The
parameters stay float64, and so do the sums they are updated from: each
float32 ``corr_grad`` (one per chunk of images) is accumulated in
float64, and the bias and cross-entropy sums are taken in float64.  The
parameters are a few thousand numbers, so this costs nothing, and no
rounding to float32 builds up across chunks or updates.  At paper shape
the float32 filter gradient of CD-1 was within 2e-5 of the float64 one
on the same samples, relative to its largest entry, on slices where the
two CD phases it is the difference of were up to 24x larger than it; a
test pins 5e-5.  float32 uniforms are a different random stream from
float64 ones, so training is reproducible but not bit-equal to a float64
chain.  ``extract_feature_map`` reads its images as float64, float32
ones too, and stays float64 through the same functions, so feature
matrices are float64.  ``_cd_sums`` given a float64 stack, as the tests
that hold the chain against the enumeration oracles give it, runs the
chain in float64 too.

The training stack is float32 (``features.crbm_training_images`` fills
it so), half the size of a float64 one.  ``train`` keeps a float32 stack
as it is, and ``cd_update`` stacks a batch of its images once, in
float32, so no float64 copy of a batch is held beside the chain's
buffers; it casts only a batch of another dtype.  A float64 stack trains
to the same bits as its float32 cast, as the chain sees the same
float32 values.

Worker thread.  The module keeps one worker thread, ``_worker()``, started
on first use, for the two paper-scale steps that leave the second core
idle when BLAS runs on one thread; a forked child starts its own.  It
writes only into buffers the calling thread allocated: a thread's own
large temporaries come from its own malloc arena and raise the peak
memory.  It calls none of the functions that perfbench's tracer rebinds,
whose spans assume one thread.  Its results are bit-identical to running
the same calls inline.

* An image whose CD-1 chain draws at least ``_CD_CHUNK_DRAWS`` uniforms
  (a 256x256 image of 64 maps draws 4,129,792) is a chunk of its own,
  and the two threads share its chain (``_two_thread_chain``), through
  that function's local steps:

  - the worker fills the uniforms, by the one call of a one-thread chunk,
    while this thread runs the first hidden pass through the traced
    ``kernels.corr_valid``;
  - ``data_phase`` splits the data phase's ``statistics``, the
    filter-gradient product and float64 map sums, by filter halves: this
    thread adds the first half's, the worker the second's once it has
    drawn, and this thread then samples h whole;
  - the reconstruction splits ``conv_full``'s tap product by columns,
    cut at a multiple of 8; this thread then adds the taps in one
    ``kernels._add_taps`` call and takes the sigmoid, the visible sample
    and the cross-entropy;
  - ``hidden_rows`` splits the last hidden pass and the chain phase's
    ``statistics`` by filter halves, this thread the first, the worker
    the second.  Each half writes its own rows of the sums, so they get
    the bits of the whole stack's.

  Each of these four splits stays because it pays.  Run on this thread
  instead, each made a 12-slice paper-shape ``cd_update`` slower, as a
  median of in-process alternations at one BLAS thread on a 2-vCPU VM:
  the uniform fill 1.364x, the last hidden pass and its statistics
  1.278x, the data-phase statistics 1.121x, and the tap product 1.080x
  (with the frame reduction).  The frame reduction alone, split by bands
  of output rows between the threads, saved nothing (run here it read
  0.999-1.025x), so it runs on this thread.

  One im2col buffer per image serves a pass's product and both phases'
  gradient products, and holds the taps during the reconstruction; the
  images of a batch share one uniforms buffer.  Such a chunk peaks at
  one stack of hidden maps, its uniforms and one im2col copy, the maps
  being freed once sampled, before the one frame of the reconstruction.
  Its bits equal the one-thread chain's as far as a product split by
  filter rows or by columns gives each part the bits of the whole
  product.  On one OpenBLAS build (0.3.31, Haswell kernels), at 1 and 2
  BLAS threads, the column split of the tap product was bit-equal at
  every shape tried, and so was the row split of the hidden pass but for
  float64 with one filter in a half (3 filters of 3x3 on 6x6); the row
  split of the filter-gradient product was bit-equal at the paper's
  shape, but not at smaller ones (64x64 with 16 filters, 100x100 with
  8, 6x6 with 3), which is why only such large chains take two threads;
  tests/test_crbm_worker.py pins the paper's shape.
  Every other chunk, such as the quick-start's batch of 16 patches of
  16x16 (40,960 draws) or any chunk of CD-k for k > 1, runs on this
  thread (``_one_thread_chain``), adds its data-phase statistics before
  it draws, and peaks at one stack of hidden maps and its uniforms.  Both
  chains add their own statistics to the sums and return the same two
  numbers, so ``_cd_sums`` calls either alike.
* ``extract_feature_map`` computes a stack whose maps hold more than
  ``_EXTRACT_MAP_VALUES`` values in bands of hidden rows, the worker half
  of them, and never holds the whole (..., M, H, H) stack.
"""

import functools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import (ConfigError, ModelFormatError, ShapeMismatchError,
                     TrainingError)
from .seeding import derive_rng

# most uniforms drawn ahead for one chunk of a CD batch (8 MB of float64,
# 4 MB of float32); a chunk holds as many whole images as fit, and at
# least one.  Under CD-1, an image that draws this many or more (a 256x256
# image of 64 maps draws 4,129,792) is a chunk of its own, on two threads
_CD_CHUNK_DRAWS = 1 << 20
# hidden-map values per band of extract_feature_map (2 MB of float64); a
# stack with more maps than this, and a hidden side that is a multiple of
# 4, is extracted in bands of hidden rows
_EXTRACT_MAP_VALUES = 1 << 18
# a parameter beyond it is inf in the float32 CD chain
_FLOAT32_MAX = float(np.finfo(np.float32).max)
# the keys of a model file besides "format" and "version"; sizes first
_MODEL_KEYS = ("num_filters", "kernel_size", "input_size", "visible_bias",
               "hidden_biases", "filters")


@functools.cache
def _worker():
    """The one worker thread (see the module docstring), an executor made
    on first use: importing concurrent.futures adds about 9 ms to the
    package's cold start."""
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="crbm")


# a forked child inherits the executor but not its thread, so a call
# submitted to it would never run: the child makes its own
os.register_at_fork(after_in_child=_worker.cache_clear)


def _on_both_threads(fn, here: tuple, there: tuple) -> None:
    """fn(*here) on this thread while the worker runs fn(*there); returns
    once both are done, and an error of either propagates."""
    job = _worker().submit(fn, *there)
    try:
        fn(*here)
    finally:
        job.result()


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CrbmModel:
    """Filters (M, K, K), shared visible bias, per-map hidden biases (M,)."""

    filters: np.ndarray
    visible_bias: float
    hidden_biases: np.ndarray
    input_size: int

    def __post_init__(self):
        w = np.asarray(self.filters, dtype=np.float64)
        c = np.asarray(self.hidden_biases, dtype=np.float64)
        if w.ndim != 3 or w.shape[1] != w.shape[2]:
            raise ShapeMismatchError(f"filters must be (M, K, K), got {w.shape}")
        if c.shape != (w.shape[0],):
            raise ShapeMismatchError("one hidden bias per filter required")
        if w.shape[0] < 1 or w.shape[1] < 1:
            raise ShapeMismatchError(
                f"need one or more filters of at least 1x1, got {w.shape}")
        if self.input_size - w.shape[1] + 1 < 1:
            raise ShapeMismatchError(
                f"kernel {w.shape[1]} too large for input {self.input_size}")
        if not (np.isfinite(w).all() and np.isfinite(c).all()
                and np.isfinite(self.visible_bias)):
            raise ValueError("model parameters must be finite")
        object.__setattr__(self, "filters", w)
        object.__setattr__(self, "hidden_biases", c)
        object.__setattr__(self, "visible_bias", float(self.visible_bias))

    @property
    def num_filters(self) -> int:
        return self.filters.shape[0]

    @property
    def kernel_size(self) -> int:
        return self.filters.shape[1]

    @property
    def hidden_side(self) -> int:
        return self.input_size - self.kernel_size + 1

    @property
    def num_visible(self) -> int:
        return self.input_size * self.input_size

    @property
    def num_hidden(self) -> int:
        return self.num_filters * self.hidden_side ** 2


@dataclass(frozen=True)
class CrbmConfig:
    """CRBM architecture plus training schedule.

    num_filters=64, kernel_size=5, learning_rate=1e-4 and input_size=256
    reproduce the reference setup; epochs/batch_size are artifact defaults.
    train and cd_update read only the schedule fields: a model's arrays
    fix its architecture.
    """

    num_filters: int = 64
    kernel_size: int = 5
    input_size: int = 256
    learning_rate: float = 1e-4
    cd_steps: int = 1
    epochs: int = 30
    batch_size: int = 16
    weight_init_sigma: float = 0.01

    def __post_init__(self):
        if self.num_filters < 1 or self.kernel_size < 1:
            raise ConfigError("num_filters and kernel_size must be >= 1")
        if self.kernel_size > self.input_size:
            raise ConfigError("kernel_size must not exceed input_size")
        if self.weight_init_sigma <= 0:
            raise ConfigError("weight_init_sigma must be positive")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.cd_steps < 1 or self.batch_size < 1 or self.epochs < 0:
            raise ConfigError("cd_steps/batch_size must be >= 1 and epochs >= 0")


@dataclass
class TrainHistory:
    recon_cross_entropy: list
    mean_abs_dw: list


# ---------------------------------------------------------------------------
# Construction and persistence
# ---------------------------------------------------------------------------

def init_model(num_filters: int, kernel_size: int, input_size: int,
               weight_init_sigma: float = 0.01, seed: int = 0) -> CrbmModel:
    """Gaussian filters (zero mean, sigma = weight_init_sigma), zero biases."""
    rng = derive_rng(seed, "crbm-init")
    filters = rng.normal(0.0, weight_init_sigma, size=(num_filters, kernel_size, kernel_size))
    return CrbmModel(filters=filters, visible_bias=0.0,
                     hidden_biases=np.zeros(num_filters), input_size=input_size)


def save_model(model: CrbmModel, path) -> None:
    doc = {
        "format": "crbm-model",
        "version": 1,
        "num_filters": model.num_filters,
        "kernel_size": model.kernel_size,
        "input_size": model.input_size,
        "visible_bias": model.visible_bias,
        "hidden_biases": model.hidden_biases.tolist(),
        "filters": [f.ravel().tolist() for f in model.filters],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _numbers(value) -> bool:
    """Whether a JSON value is a number or nested lists of numbers; a bool
    is none, though Python's bool is an int, nor is a string numpy would
    read as one."""
    if isinstance(value, list):
        return all(map(_numbers, value))
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _model_array(path, doc: dict, key: str, shape: tuple) -> np.ndarray:
    try:
        arr = np.array(doc[key], dtype=np.float64) if _numbers(doc[key]) else None
    except (ValueError, OverflowError):  # ragged lists, ints beyond float
        arr = None
    if arr is None or arr.shape != shape or not np.isfinite(arr).all():
        raise ModelFormatError(
            f"{path}: {key} must be finite numbers of shape {shape}")
    return arr


def load_model(path) -> CrbmModel:
    """The model a save_model file holds; any other content raises
    ModelFormatError naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise ModelFormatError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict) or doc.get("format") != "crbm-model":
        raise ModelFormatError(f"{path}: not a CRBM model file")
    missing = [key for key in _MODEL_KEYS if key not in doc]
    if missing:
        raise ModelFormatError(f"{path}: missing {', '.join(missing)}")
    # the int 1 is the one JSON value that dumps as 1: not 1.0, "1" or true
    version = json.dumps(doc["version"]) if "version" in doc else "none"
    if version != "1":
        raise ModelFormatError(f"{path}: version must be 1, got {version}")
    sizes = [doc[key] for key in _MODEL_KEYS[:3]]
    if not all(type(v) is int for v in sizes):
        raise ModelFormatError(f"{path}: {', '.join(_MODEL_KEYS[:3])} "
                               "must be integers")
    m, k, n = sizes
    filters = _model_array(path, doc, "filters", (m, k * k))
    try:
        return CrbmModel(
            filters=filters.reshape(m, k, k),
            visible_bias=_model_array(path, doc, "visible_bias", ()),
            hidden_biases=_model_array(path, doc, "hidden_biases", (m,)),
            input_size=n)
    except ShapeMismatchError as exc:  # a 0x0 kernel, or one too large for its input
        raise ModelFormatError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Inference
# ---------------------------------------------------------------------------

def _visible_stack(model: CrbmModel, images, ndim: int | None = 3) -> np.ndarray:
    """images as pixels, float32 if they are float32 and float64 if not,
    checked once in that dtype: ndim axes (any number if None) ending in
    N x N, finite and within [0, 1].  A float32 array is not copied, and
    a list of float32 images is stacked once, in float32."""
    pixels = np.asarray(images)
    if pixels.dtype != np.float32:
        pixels = pixels.astype(np.float64, copy=False)
    n = model.input_size
    if pixels.shape[-2:] != (n, n) or ndim not in (None, pixels.ndim):
        raise ShapeMismatchError(
            f"visible layer must be {n}x{n}, got shape {pixels.shape}")
    # min and max are nan if any pixel is, and every comparison with nan fails
    if pixels.size and not (pixels.min() >= 0.0 and pixels.max() <= 1.0):
        raise ValueError("image pixels must be finite and within [0, 1]")
    return pixels


def _hidden_probs(model: CrbmModel, pixels: np.ndarray) -> np.ndarray:
    """P(h = 1 | v) of float32 or float64 images, in their dtype."""
    dtype = pixels.dtype
    act = kernels.corr_valid(pixels, model.filters.astype(dtype, copy=False))
    return kernels.sigmoid(act, model.hidden_biases[:, None, None].astype(dtype, copy=False))


def _visible_probs(model: CrbmModel, hmaps: np.ndarray) -> np.ndarray:
    """P(v = 1 | h) of float32 or float64 hidden maps, in their dtype."""
    dtype = hmaps.dtype
    act = kernels.conv_full(hmaps, model.filters.astype(dtype, copy=False))
    return kernels.sigmoid(act, dtype.type(model.visible_bias))


# ---------------------------------------------------------------------------
# Contrastive divergence
# ---------------------------------------------------------------------------

def _cd_sums(model: CrbmModel, pixels: np.ndarray, k: int,
             rng: np.random.Generator):
    """CD-k statistics of a stack of images (B, N, N), summed over images.

    Returns the float64 sums of data-phase minus chain-phase statistics,
    d/dW (M, K, K), d/db and d/dc (M,), then the summed reconstruction
    cross-entropy of the first round.  The batch
    runs in chunks of whole images that draw at most _CD_CHUNK_DRAWS
    uniforms each, or one image; chunks consume the generator in image
    order, so the chunking never changes a sample.  The chain runs in the
    stack's dtype; the statistics are summed in float64.  Under CD-1, an
    image that draws _CD_CHUNK_DRAWS or more is a chunk of its own and
    runs on two threads (_two_thread_chain); every other chunk runs on
    this thread (_one_thread_chain).
    """
    per_image = k * (model.num_hidden + model.num_visible)
    if k == 1 and per_image >= _CD_CHUNK_DRAWS:
        # one uniforms buffer for every chunk of the call: a buffer per
        # image made a paper-shape cd_update 1.090x as slow (0 of 16
        # alternations faster)
        step, chain = 1, functools.partial(
            _two_thread_chain, uniforms=np.empty(per_image, pixels.dtype))
    else:
        step = max(1, _CD_CHUNK_DRAWS // per_image)
        chain = functools.partial(_one_thread_chain, k=k)
    g_w = np.zeros_like(model.filters)
    g_b = 0.0
    g_c = np.zeros(model.num_filters)
    ce = 0.0
    for start in range(0, len(pixels), step):
        v0 = pixels[start:start + step]
        vk_sum, chunk_ce = chain(model, v0, rng, g_w, g_c)
        g_b += float(v0.sum(dtype=np.float64) - vk_sum)
        ce += chunk_ce
    return g_w, g_b, g_c, ce


def _one_thread_chain(model: CrbmModel, v0: np.ndarray,
                      rng: np.random.Generator, g_w: np.ndarray,
                      g_c: np.ndarray, k: int):
    """The CD-k chain of a stack of images v0 (B, N, N) on this thread,
    adding its data-phase minus chain-phase statistics to the float64
    sums g_w and g_c.  Returns (the float64 sum of v_k's pixels, the
    summed reconstruction cross-entropy of the first round).

    The uniforms are drawn in one call, laid out in the order that
    one-image chains run image after image consume them: per image,
    [hidden, visible] x k.  One call draws the stream of consecutive
    calls, float32 too (a float32 draw takes one 32-bit half of a 64-bit
    output, and the generator keeps the spare half for the next draw), so
    the batch gets the samples its images would get chained one after
    another from the same generator.  The uniforms, and everything else
    in the chain, are of v0's dtype (float32 or float64).  A sample is
    1.0 where uniform < probability, written over the uniforms of a
    hidden sample and over the probabilities of a visible one.

    The data phase is summed before the draw, and each stack of hidden
    probabilities is dropped once sampled, so the chain holds one stack
    of hidden maps at a time and peaks at it and the uniforms.
    """
    n, side, dtype = model.input_size, model.hidden_side, v0.dtype
    batch, n_hidden = len(v0), model.num_hidden
    probs = _hidden_probs(model, v0)
    g_w += kernels.corr_grad(v0, probs)
    g_c += probs.sum(axis=(0, 2, 3), dtype=np.float64)
    uniforms = rng.random((batch, k, n_hidden + n * n), dtype=dtype)
    u_h = uniforms[..., :n_hidden].reshape(batch, k, model.num_filters, side, side)
    u_v = uniforms[..., n_hidden:].reshape(batch, k, n, n)
    for step in range(k):
        if step:
            probs = _hidden_probs(model, v)
        h = np.less(u_h[:, step], probs, out=u_h[:, step])
        del probs  # sampled: free them before the reconstruction
        v = _visible_probs(model, h)
        if step == 0:
            ce = _recon_cross_entropy_sum(v0, v)
        np.less(u_v[:, step], v, out=v)
    del uniforms, u_h, u_v, h  # spent: free them before the last hidden pass
    probs = _hidden_probs(model, v)
    g_w -= kernels.corr_grad(v, probs)
    g_c -= probs.sum(axis=(0, 2, 3), dtype=np.float64)
    return v.sum(dtype=np.float64), ce


def _two_thread_chain(model: CrbmModel, v0: np.ndarray,
                      rng: np.random.Generator, g_w: np.ndarray,
                      g_c: np.ndarray, uniforms: np.ndarray):
    """The CD-1 chain of one image v0 (1, N, N) on this thread and the
    worker, adding its data-phase minus chain-phase statistics to the
    float64 sums g_w and g_c; uniforms is a flat buffer of v0's dtype with
    room for the chain's draws.  Returns (the float64 sum of v_1's pixels,
    the summed reconstruction cross-entropy), taken as soon as they can
    be, so that neither image is held through the last hidden pass.

    It draws the uniforms of _one_thread_chain and splits the products of
    the whole-stack kernels by filter rows or map columns, as the module
    docstring sets out.  Every buffer the worker writes is allocated on
    this thread, and the worker runs only this function's local steps, on
    those buffers, and the numpy calls it is handed.
    """
    m, kside, n, side = (model.num_filters, model.kernel_size,
                         model.input_size, model.hidden_side)
    dtype, n_hidden = v0.dtype, model.num_hidden
    u_h = uniforms[:n_hidden].reshape(m, side * side)
    u_v = uniforms[n_hidden:].reshape(n, n)
    # filter halves for the hidden passes; a column cut at a multiple of
    # 8 for the tap product
    half, cut = m // 2, side * side // 2 // 8 * 8

    def statistics(maps, lo, hi, op):
        """Add (op np.add, the data phase) or subtract (np.subtract, the
        chain phase) the CD statistics of filters lo .. hi - 1 of the
        hidden probabilities maps (M, H*H) to g_w and g_c: corr_grad's
        product with cols, then the float64 map sums."""
        rows = maps[lo:hi]
        op(g_w[lo:hi], np.matmul(rows, cols.T, out=grad[lo:hi]),
           out=g_w[lo:hi])
        op(g_c[lo:hi], rows.sum(axis=1, dtype=np.float64, out=sums[lo:hi]),
           out=g_c[lo:hi])

    def data_phase(maps, lo, hi, fill):
        """The data image's statistics of filters lo .. hi - 1; then, given
        the future fill of the uniform draw, the sample of every map,
        written over its uniforms once they are drawn."""
        statistics(maps, lo, hi, np.add)
        if fill is not None:
            fill.result()
            np.less(u_h, maps, out=u_h)

    def hidden_rows(maps, lo, hi):
        """Filters lo .. hi - 1 of the last hidden pass, of the image whose
        im2col copy cols holds: their probabilities, written into maps
        (M, H*H), then their chain-phase statistics."""
        rows = maps[lo:hi]
        # corr_valid's product, then the conditional
        np.matmul(filters[lo:hi], cols, out=rows)
        kernels.sigmoid(rows, biases[lo:hi])
        statistics(maps, lo, hi, np.subtract)

    fill = _worker().submit(rng.random, dtype=dtype, out=uniforms)
    try:
        # the first hidden pass goes through the traced corr_valid
        maps = _hidden_probs(model, v0).reshape(m, side * side)
        # the chain's parameters in its dtype; cols, the (K*K, H*H) im2col
        # copy of the visible image of the current pass, or the tap planes
        # of a reconstruction; each pass's filter-gradient part and
        # float64 map-sum part; g_w as (M, K*K)
        filters = model.filters.astype(dtype).reshape(m, kside * kside)
        biases = model.hidden_biases.astype(dtype)[:, None]
        cols = np.empty((kside * kside, side * side), dtype)
        grad, sums = np.empty((m, kside * kside), dtype), np.empty(m)
        g_w = g_w.reshape(m, kside * kside)
        # cols as (K, K, H, H): v's windows for a hidden pass, the tap
        # planes for a reconstruction
        planes = cols.reshape(kside, kside, side, side)
        planes[...] = kernels._windows(np.ascontiguousarray(v0[0]), kside,
                                       0, side)
        # the worker adds its half of the data phase once it has drawn the
        # uniforms; this thread adds the other half, then samples all of h.
        # Sampling h after the join instead made a paper-shape cd_update
        # 1.036x as slow (3 of 16 alternations faster)
        _on_both_threads(data_phase, (maps, 0, half, fill),
                         (maps, half, m, None))
    finally:
        fill.result()
    del maps  # sampled: free them before the reconstruction
    # conv_full's tap product of h, by columns
    w_t = filters.T
    _on_both_threads(np.matmul, (w_t, u_h[:, :cut], cols[:, :cut]),
                     (w_t, u_h[:, cut:], cols[:, cut:]))
    v = np.empty((n, n), dtype)  # P(v = 1 | h) until sampled
    kernels._add_taps(planes, v)  # on this thread: see the module docstring
    kernels.sigmoid(v, dtype.type(model.visible_bias))
    ce = _recon_cross_entropy_sum(v0[0], v)
    np.less(u_v, v, out=v)
    planes[...] = kernels._windows(v, kside, 0, side)  # v's im2col
    vk_sum = v.sum(dtype=np.float64)
    del v
    maps = np.empty((m, side * side), dtype)
    _on_both_threads(hidden_rows, (maps, 0, half), (maps, half, m))
    return vk_sum, ce


def _recon_cross_entropy_sum(v0: np.ndarray, v_probs: np.ndarray) -> float:
    """Summed cross-entropy of v0 under v_probs, in float64 whatever their
    dtype: float32 rounds 1 - 1e-12 to 1, so a float32 clip would leave
    log(1 - p) unguarded at a saturated p."""
    v0 = v0.astype(np.float64)
    p = v_probs.astype(np.float64)
    np.clip(p, 1e-12, 1.0 - 1e-12, out=p)
    q = np.log(1.0 - p)
    np.log(p, out=p)
    p *= v0
    q *= np.subtract(1.0, v0, out=v0)
    p += q  # v0 log(p) + (1 - v0) log(1 - p), computed in place
    return float(-p.sum())


def _refuse_beyond_float32(what: str, *params) -> None:
    """Raise TrainingError, naming what, unless every entry of params lies
    within float32's finite range."""
    # a max is nan if any entry is, and every comparison with nan fails
    if not all(np.abs(p).max() <= _FLOAT32_MAX for p in params):
        raise TrainingError(f"{what} beyond float32 range")


def cd_update(model: CrbmModel, batch: np.ndarray, cfg: CrbmConfig,
              rng: np.random.Generator):
    """One CD-k parameter update from a batch of images (B, N, N), an
    array or a list of images.

    Per image: Delta W_m is the difference of K x K gradient correlations
    between the data phase and the chain phase; Delta b averages the visible
    difference over pixels; Delta c_m averages the hidden probability
    difference over map positions.  Deltas are averaged over the batch and
    applied once with the learning rate.  The chain runs in float32; the
    deltas are summed and applied in float64 (see the module docstring).
    A float32 batch is taken as it is, and a list of float32 images is
    stacked once; a batch of any other dtype is checked in float64 and
    then cast to float32.

    Returns (updated model, diagnostics dict with the batch-mean
    reconstruction cross-entropy and mean |Delta W|); raises TrainingError
    if a parameter of the given model or of the updated one lies beyond
    float32's finite range, where the float32 chain would make it inf.
    """
    if len(batch) == 0:
        raise TrainingError("empty batch")
    _refuse_beyond_float32("given model's parameters", model.filters,
                           model.visible_bias, model.hidden_biases)
    pixels = _visible_stack(model, batch).astype(np.float32, copy=False)
    g_w, g_b, g_c, ce = _cd_sums(model, pixels, cfg.cd_steps, rng)
    scale = cfg.learning_rate / len(batch)
    d_b = g_b / model.num_visible
    d_c = g_c / model.hidden_side ** 2
    with np.errstate(over="ignore"):  # an overflow to inf is refused below
        dw_applied = scale * g_w
        filters = model.filters + dw_applied
        visible_bias = model.visible_bias + scale * d_b
        hidden_biases = model.hidden_biases + scale * d_c
    _refuse_beyond_float32("parameters", filters, visible_bias, hidden_biases)
    updated = CrbmModel(filters=filters, visible_bias=visible_bias,
                        hidden_biases=hidden_biases, input_size=model.input_size)
    diagnostics = {
        "recon_cross_entropy": ce / pixels.size,
        "mean_abs_dw": float(np.abs(dw_applied).mean()),
    }
    return updated, diagnostics


def train(model: CrbmModel, data: np.ndarray, cfg: CrbmConfig, seed: int = 0):
    """Epochs of shuffled-batch CD updates over a stack of images (n, N, N);
    returns (model, TrainHistory).  A float32 stack is used as it is, not
    copied; any other is read as float64.  Both give the same bits when
    one is the other's float32 cast, as the chain runs in float32.

    Shuffling and every Gibbs draw derive deterministically from seed, so
    identical inputs give bit-identical final weights.  Aborts with
    TrainingError, naming the epoch and batch, if a parameter lies beyond
    float32's finite range, before or after an update.
    """
    if len(data) == 0:
        raise TrainingError("training data is empty")
    data = _visible_stack(model, data)
    history = TrainHistory(recon_cross_entropy=[], mean_abs_dw=[])
    for epoch in range(cfg.epochs):
        order = derive_rng(seed, "shuffle", epoch).permutation(len(data))
        ce_parts, dw_parts, weights = [], [], []
        for batch_idx, start in enumerate(range(0, len(data), cfg.batch_size)):
            # views into the stack: cd_update stacks them once, so a
            # float32 stack's batch is never held in float64
            batch = [data[i] for i in order[start:start + cfg.batch_size]]
            rng = derive_rng(seed, "cd", epoch, batch_idx)
            try:
                model, diag = cd_update(model, batch, cfg, rng)
            except TrainingError as exc:
                raise TrainingError(
                    f"{exc} at epoch {epoch}, batch {batch_idx}") from exc
            ce_parts.append(diag["recon_cross_entropy"])
            dw_parts.append(diag["mean_abs_dw"])
            weights.append(len(batch))
        history.recon_cross_entropy.append(float(np.average(ce_parts, weights=weights)))
        history.mean_abs_dw.append(float(np.average(dw_parts, weights=weights)))
    return model, history


# ---------------------------------------------------------------------------
# Feature extraction
# ---------------------------------------------------------------------------

def extract_feature_map(model: CrbmModel, images: np.ndarray) -> np.ndarray:
    """Deterministic features: the mean over the M filters of the hidden
    probability maps P(h^m_ij = 1 | v), the valid cross-correlation with
    each filter plus c_m through the sigmoid.  Images (..., N, N) give
    mean maps (..., H, H), float64, added map after map and divided by M;
    each image's map is the bits it gets alone.  float32 images are read
    as float64, so they give the maps of their float64 values.

    A stack whose M maps hold more than _EXTRACT_MAP_VALUES values, as a
    256x256 slice's 64 do, is computed in bands of hidden rows of about
    that many values, so its (..., M, H, H) stack is never held: this
    thread computes the first half of the bands and the worker thread the
    rest, each into buffers allocated here.  Any other stack is one band,
    computed on this thread.  Bands are an even number of rows, and only
    a side H that is a multiple of 4 is cut into bands, so that every
    matrix product, a band's and the whole stack's, has a multiple of 8
    columns: OpenBLAS's float64 product gives some columns other bits
    when it has not (a 1-row band of a 252-wide map did), and the bands'
    values would then not be the whole stack's.  That rule was
    found by trial on one OpenBLAS build, whose float64 kernel for its CPU
    target handles a tail of fewer than 8 columns apart; another BLAS or
    CPU target may round a band's columns otherwise, and the banded
    equality tests of tests/test_crbm_worker.py then fail.
    """
    pixels = np.ascontiguousarray(_visible_stack(model, images, ndim=None),
                                  dtype=np.float64)
    lead, m, side = pixels.shape[:-2], model.num_filters, model.hidden_side
    per_row = math.prod(lead) * m * side
    rows = max(2, _EXTRACT_MAP_VALUES // max(per_row, 1) // 2 * 2)
    # side % 4: see above; the bit equality rests on the BLAS build
    if rows >= side or side % 4:
        rows = side  # one band, on this thread
    bands = [(r0, min(r0 + rows, side)) for r0 in range(0, side, rows)]
    out = np.empty((*lead, side, side))
    # each thread's buffers: a band's M maps and their im2col copy
    count = math.prod(lead) * rows * side
    threads = min(2, len(bands))
    maps = np.empty((threads, m * count))
    cols = np.empty((threads, model.kernel_size ** 2 * count))
    if threads == 1:
        _mean_map_rows(model, pixels, bands, out, maps[0], cols[0])
        return out
    half = len(bands) // 2
    _on_both_threads(_mean_map_rows,
                     (model, pixels, bands[:half], out, maps[0], cols[0]),
                     (model, pixels, bands[half:], out, maps[1], cols[1]))
    return out


def _mean_map_rows(model: CrbmModel, pixels: np.ndarray, bands: list,
                   out: np.ndarray, maps: np.ndarray, cols: np.ndarray) -> None:
    """Write the mean maps of each band of hidden rows (r0, r1) of float64
    images pixels into out[..., r0:r1, :], computing the band's M maps in
    the flat buffer maps through the im2col buffer cols; it allocates
    nothing larger than the hidden biases."""
    lead, m, side = pixels.shape[:-2], model.num_filters, model.hidden_side
    biases = model.hidden_biases[:, None, None]
    for r0, r1 in bands:
        band = maps[:math.prod(lead) * m * (r1 - r0) * side]
        band = band.reshape(*lead, m, r1 - r0, side)
        kernels._corr_valid_rows(pixels, model.filters, r0, band, cols)
        kernels.sigmoid(band, biases)
        band.mean(axis=-3, out=out[..., r0:r1, :])
