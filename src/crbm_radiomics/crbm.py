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

Images are plain float64 arrays, (N, N) or stacks (..., N, N); hidden
maps are (..., M, H, H).  Each entry point checks the stack it is given
once: its shape, and pixels finite and within [0, 1].

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
chain.  Every other entry point passes float64 and stays float64 through
the same functions: ``cd_gradient_estimate``, ``gibbs_chain`` and
``extract_feature_map``, so feature matrices are float64, and the
tests hold these entry points to float64 tolerances.

Worker thread.  The module keeps one worker thread, ``_worker()``, started
on first use, for the two paper-scale steps that leave the second core
idle when BLAS runs on one thread.  Its results are bit-identical to
running the same calls inline.  It writes only into buffers the calling
thread allocated: a thread's own large temporaries come from its own
malloc arena and raise the peak memory.  It calls none of the functions
that perfbench's tracer rebinds, whose spans assume one thread.

* A CD chunk that draws at least ``_CD_CHUNK_DRAWS`` uniforms (one
  256x256 image of 64 maps draws 4,129,792) has the worker fill them, by
  the same one call, while the chunk's first hidden pass and data phase
  run; the chunks of a batch share that buffer.  Such a chunk peaks at
  its hidden maps, its uniforms and one im2col copy of its images.  A
  smaller chunk, such as one of the quick-start's 16 patches of 16x16
  (40,960 draws), draws inline after the data phase and peaks at its
  hidden maps and its uniforms.
* ``extract_feature_map`` computes a stack whose maps hold more than
  ``_EXTRACT_MAP_VALUES`` values in bands of hidden rows, the worker half
  of them, and never holds the whole (..., M, H, H) stack.
"""

import functools
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import (ConfigError, ModelFormatError, ShapeMismatchError,
                     TrainingError)
from .seeding import derive_rng

# most uniforms drawn ahead for one chunk of a CD batch (8 MB of float64,
# 4 MB of float32); a chunk holds as many whole images as fit, and at
# least one.  A chunk that draws this many or more (one 256x256 image of
# 64 maps draws 4,129,792) has them filled on the worker thread
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


@dataclass(frozen=True)
class CrbmGradient:
    """Gradient-shaped container: d/dW (M,K,K), d/db scalar, d/dc (M,)."""

    filters: np.ndarray
    visible_bias: float
    hidden_biases: np.ndarray


class GibbsResult(NamedTuple):
    v_k: np.ndarray
    h0_probs: np.ndarray
    hk_probs: np.ndarray
    v1_probs: np.ndarray


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


def _model_array(path, doc: dict, key: str, shape: tuple) -> np.ndarray:
    try:
        arr = np.array(doc[key], dtype=np.float64)
    except (TypeError, ValueError):  # ragged lists, strings, objects
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
    """images as float64 pixels, checked once: ndim axes (any number if
    None) ending in N x N, finite and within [0, 1]."""
    pixels = np.asarray(images, dtype=np.float64)
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


def _gibbs_batch(model: CrbmModel, v0: np.ndarray, k: int,
                 rng: np.random.Generator, data_phase, uniforms=None):
    """k Gibbs rounds for a stack of images v0 (B, N, N) at once.

    The uniforms are drawn in one call, laid out in the order that
    one-image chains run image after image consume them: per image,
    [hidden, visible] x k.  One call draws the stream of consecutive
    calls, float32 too (a float32 draw takes one 32-bit half of a 64-bit
    output, and the generator keeps the spare half for the next draw), so
    the batch gets the samples its images would get chained one after
    another from the same generator.  The uniforms, and everything else
    in the chain, are of v0's dtype (float32 or float64).  A sample is
    1.0 where uniform < probability: a hidden sample is written over its
    uniforms, a visible one into an array of its own, so that v_k does
    not hold the uniforms alive.

    data_phase(h0_probs) is called with the hidden probabilities of v0,
    and the chain drops them once it has sampled from them.  A caller
    that reduces them to sums, as the CD statistics do, thus holds one
    stack of hidden maps at a time.  Without a uniforms buffer the draw
    comes after the data phase, so a chunk's peak is these probabilities
    and the uniforms.  Given uniforms, a flat buffer of v0's dtype with
    room for the draws, the worker thread fills it with the same one call
    while this thread computes the first hidden pass and the data phase;
    that peak adds one im2col copy of v0.  Returns (v_k, hk_probs,
    v1_probs), each with the leading batch axis.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n, side, dtype = model.input_size, model.hidden_side, v0.dtype
    batch, n_hidden = len(v0), model.num_hidden
    shape = (batch, k, n_hidden + n * n)
    if uniforms is None:
        probs = _hidden_probs(model, v0)
        data_phase(probs)
        uniforms = rng.random(shape, dtype=dtype)
    else:
        uniforms = uniforms[:math.prod(shape)].reshape(shape)
        fill = _worker().submit(rng.random, dtype=dtype, out=uniforms)
        try:
            probs = _hidden_probs(model, v0)
            data_phase(probs)
        finally:
            fill.result()
    u_h = uniforms[..., :n_hidden].reshape(batch, k, model.num_filters, side, side)
    u_v = uniforms[..., n_hidden:].reshape(batch, k, n, n)
    for step in range(k):
        if step:
            probs = _hidden_probs(model, v)
        h = np.less(u_h[:, step], probs, out=u_h[:, step])
        del probs  # sampled: free them before the reconstruction
        v_probs = _visible_probs(model, h)
        if step == 0:
            v1_probs = v_probs
        v = np.less(u_v[:, step], v_probs, out=np.empty_like(v_probs))
    del uniforms, u_h, u_v, h  # spent: free them before the last hidden pass
    return v, _hidden_probs(model, v), v1_probs


def gibbs_chain(model: CrbmModel, v0: np.ndarray, k: int,
                rng: np.random.Generator) -> GibbsResult:
    """k full rounds of alternating Gibbs sampling started at v0.

    Each round samples the hidden maps from P(h|v) and then the visible
    layer from P(v|h).  The returned hidden probability maps at step 0 and
    step k are the CD statistics; v1_probs (reconstruction probabilities
    after the first round) feeds the training diagnostics.
    """
    v0 = _visible_stack(model, v0, ndim=2)
    h0 = []
    v_k, hk_probs, v1_probs = _gibbs_batch(model, v0[None], k, rng, h0.append)
    return GibbsResult(v_k[0], h0[0][0], hk_probs[0], v1_probs[0])


# ---------------------------------------------------------------------------
# Contrastive divergence
# ---------------------------------------------------------------------------

def _add_data_phase(g_w: np.ndarray, g_c: np.ndarray, v0: np.ndarray,
                    p0: np.ndarray) -> None:
    """Add the data-phase statistics of images v0 with hidden
    probabilities p0 to the float64 sums g_w and g_c."""
    g_w += kernels.corr_grad(v0, p0)
    g_c += p0.sum(axis=(0, 2, 3), dtype=np.float64)


def _cd_sums(model: CrbmModel, pixels: np.ndarray, k: int,
             rng: np.random.Generator):
    """CD-k statistics of a stack of images (B, N, N), summed over images.

    Returns (CrbmGradient of data-phase minus chain-phase statistics,
    summed reconstruction cross-entropy of the first round).  The batch
    runs in chunks of whole images that draw at most _CD_CHUNK_DRAWS
    uniforms each, or one image; chunks consume the generator in image
    order, so the chunking never changes a sample.  The chain runs in the
    stack's dtype; the statistics are summed in float64.  The data phase
    is summed before the chain samples, so that a chunk never holds two
    stacks of hidden probabilities.  Chunks that draw _CD_CHUNK_DRAWS or
    more have their uniforms filled on the worker thread, into one buffer
    that every such chunk of the stack reuses.
    """
    per_image = k * (model.num_hidden + model.num_visible)
    step = max(1, _CD_CHUNK_DRAWS // per_image)
    draws = min(step, len(pixels)) * per_image
    buffer = np.empty(draws, pixels.dtype) if draws >= _CD_CHUNK_DRAWS else None
    g_w = np.zeros_like(model.filters)
    g_b = 0.0
    g_c = np.zeros(model.num_filters)
    ce = 0.0
    for start in range(0, len(pixels), step):
        v0 = pixels[start:start + step]
        uniforms = buffer if len(v0) * per_image >= _CD_CHUNK_DRAWS else None
        vk, pk, v1_probs = _gibbs_batch(
            model, v0, k, rng, functools.partial(_add_data_phase, g_w, g_c, v0),
            uniforms)
        g_w -= kernels.corr_grad(vk, pk)
        g_b += float(v0.sum(dtype=np.float64) - vk.sum(dtype=np.float64))
        g_c -= pk.sum(axis=(0, 2, 3), dtype=np.float64)
        ce += _recon_cross_entropy_sum(v0, v1_probs)
        del vk, pk, v1_probs  # free this chunk's maps before the next chain
    return CrbmGradient(filters=g_w, visible_bias=g_b, hidden_biases=g_c), ce


def cd_gradient_estimate(model: CrbmModel, images: np.ndarray, k: int,
                         rng: np.random.Generator) -> CrbmGradient:
    """CD-k estimate of the log-likelihood gradient, summed over the images
    of a stack (n, N, N).

    Positive and negative phases both use hidden probabilities; the negative
    phase statistics come from the sampled v_k.  Summed, not averaged, as
    the gradient of the log-likelihood of the whole stack is.
    """
    return _cd_sums(model, _visible_stack(model, images), k, rng)[0]


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


def cd_update(model: CrbmModel, batch: np.ndarray, cfg: CrbmConfig,
              rng: np.random.Generator):
    """One CD-k parameter update from a batch of images (B, N, N).

    Per image: Delta W_m is the difference of K x K gradient correlations
    between the data phase and the chain phase; Delta b averages the visible
    difference over pixels; Delta c_m averages the hidden probability
    difference over map positions.  Deltas are averaged over the batch and
    applied once with the learning rate.  The chain runs in float32; the
    deltas are summed and applied in float64 (see the module docstring).

    Returns (updated model, diagnostics dict with the batch-mean
    reconstruction cross-entropy and mean |Delta W|); raises TrainingError
    if an updated parameter lies beyond float32's finite range, where the
    next batch's float32 chain would make it inf.
    """
    if len(batch) == 0:
        raise TrainingError("empty batch")
    pixels = _visible_stack(model, batch).astype(np.float32)
    grad, ce = _cd_sums(model, pixels, cfg.cd_steps, rng)
    scale = cfg.learning_rate / len(batch)
    d_b = grad.visible_bias / model.num_visible
    d_c = grad.hidden_biases / model.hidden_side ** 2
    with np.errstate(over="ignore"):  # an overflow to inf is refused below
        dw_applied = scale * grad.filters
        filters = model.filters + dw_applied
        visible_bias = model.visible_bias + scale * d_b
        hidden_biases = model.hidden_biases + scale * d_c
    # a max is nan if any entry is, and every comparison with nan fails
    if not all(np.abs(p).max() <= _FLOAT32_MAX
               for p in (filters, hidden_biases, visible_bias)):
        raise TrainingError("parameters beyond float32 range")
    updated = CrbmModel(filters=filters, visible_bias=visible_bias,
                        hidden_biases=hidden_biases, input_size=model.input_size)
    diagnostics = {
        "recon_cross_entropy": ce / pixels.size,
        "mean_abs_dw": float(np.abs(dw_applied).mean()),
    }
    return updated, diagnostics


def train(model: CrbmModel, data: np.ndarray, cfg: CrbmConfig, seed: int = 0):
    """Epochs of shuffled-batch CD updates over a stack of images (n, N, N);
    returns (model, TrainHistory).

    Shuffling and every Gibbs draw derive deterministically from seed, so
    identical inputs give bit-identical final weights.  Aborts with
    TrainingError, naming the epoch and batch, if a parameter leaves
    float32's finite range.
    """
    if len(data) == 0:
        raise TrainingError("training data is empty")
    data = _visible_stack(model, data)
    history = TrainHistory(recon_cross_entropy=[], mean_abs_dw=[])
    for epoch in range(cfg.epochs):
        order = derive_rng(seed, "shuffle", epoch).permutation(len(data))
        ce_parts, dw_parts, weights = [], [], []
        for batch_idx, start in enumerate(range(0, len(data), cfg.batch_size)):
            # views into the stack: cd_update stacks them itself, so the
            # batch's float64 copy is freed once cast to float32
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
    each image's map is the bits it gets alone.

    A stack whose M maps hold more than _EXTRACT_MAP_VALUES values, as a
    256x256 slice's 64 do, is computed in bands of hidden rows of about
    that many values, so its (..., M, H, H) stack is never held: this
    thread computes the first half of the bands and the worker thread the
    rest, each into buffers allocated here.  Bands are an even number of
    rows, and only a side H that is a multiple of 4 is cut into bands, so
    that every matrix product, a band's and the whole stack's, has a
    multiple of 8 columns: OpenBLAS's float64 product gives some columns
    other bits when it has not (a 1-row band of a 252-wide map did), and
    the bands' values would then not be the whole stack's.  That rule was
    found by trial on one OpenBLAS build, whose float64 kernel for its CPU
    target handles a tail of fewer than 8 columns apart; another BLAS or
    CPU target may round a band's columns otherwise, and the banded
    equality tests of tests/test_crbm_worker.py then fail.
    """
    pixels = np.ascontiguousarray(_visible_stack(model, images, ndim=None))
    lead, m, side = pixels.shape[:-2], model.num_filters, model.hidden_side
    per_row = math.prod(lead) * m * side
    rows = max(2, _EXTRACT_MAP_VALUES // max(per_row, 1) // 2 * 2)
    # side % 4: see above; the bit equality rests on the BLAS build
    if rows >= side or side % 4:
        return _hidden_probs(model, pixels).mean(axis=-3)
    bands = [(r0, min(r0 + rows, side)) for r0 in range(0, side, rows)]
    out = np.empty((*lead, side, side))
    # each thread's buffers: a band's M maps and their im2col copy
    count = math.prod(lead) * rows * side
    maps = np.empty((2, m * count))
    cols = np.empty((2, model.kernel_size ** 2 * count))
    half = len(bands) // 2
    job = _worker().submit(_mean_map_rows, model, pixels, bands[half:],
                           out, maps[1], cols[1])
    try:
        _mean_map_rows(model, pixels, bands[:half], out, maps[0], cols[0])
    finally:
        job.result()
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
