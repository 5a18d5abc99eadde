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
sample.  Exact
log-likelihood and its gradient are available for desk-scale models
(visible units <= 20) via full enumeration; they are the test oracles and
never the training path.

Images are plain float64 arrays, (N, N) or stacks (..., N, N); hidden
maps are (..., M, H, H).  Each entry point checks the stack it is given
once: its shape, and pixels finite and within [0, 1] (binary, for the
energy oracles).

Both conditionals go through one in-place sigmoid, 1 / (1 + exp(-bias -
act)) in four ufunc passes, rather than ``scipy.special.expit``: at the
paper's 64 maps of 252 x 252 it is about 3x faster, and it agrees with
expit to within 1e-15 relative (below 1e-300, 1e-300 absolute).

Compute dtype.  The chain computes in the dtype of the visible stack it
is given: the conditionals cast the filters and biases to it, and the
uniforms are drawn in it.  ``cd_update``, the training path, passes a
float32 stack, which halves the hidden maps and makes the kernels, the
draws and the sigmoid about twice as fast at paper scale; in float32 the
sigmoid agrees with expit to within 4 float32 eps relative.  The
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
``extract_feature_map`` (so feature matrices are float64), and the
energy and exact-enumeration oracles, whose tolerances are float64 ones.
"""

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import logsumexp

from . import kernels
from .errors import (ConfigError, EnumerationGuardError, ModelFormatError,
                     ShapeMismatchError, TrainingError)
from .seeding import derive_rng

ENUMERATION_LIMIT = 20
_CHUNK = 1 << 16
# most uniforms drawn ahead for one chunk of a CD batch (8 MB of float64,
# 4 MB of float32); a chunk holds as many whole images as fit, and at
# least one
_CD_CHUNK_DRAWS = 1 << 20
# a parameter beyond it is inf in the float32 CD chain
_FLOAT32_MAX = float(np.finfo(np.float32).max)
# the keys of a model file besides "format" and "version"; sizes first
_MODEL_KEYS = ("num_filters", "kernel_size", "input_size", "visible_bias",
               "hidden_biases", "filters")


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
    binarize_visible: bool = False

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
    except ShapeMismatchError as exc:  # a kernel too large for its input
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


def _hidden_activations(model: CrbmModel, pixels: np.ndarray) -> np.ndarray:
    """Hidden pre-activations of (..., N, N) images -> (..., M, H, H)."""
    act = kernels.corr_valid(pixels, model.filters)
    act += model.hidden_biases[:, None, None]
    return act


def _sigmoid(act: np.ndarray, bias) -> np.ndarray:
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


def _hidden_probs(model: CrbmModel, pixels: np.ndarray) -> np.ndarray:
    """P(h = 1 | v) of float32 or float64 images, in their dtype."""
    dtype = pixels.dtype
    act = kernels.corr_valid(pixels, model.filters.astype(dtype, copy=False))
    return _sigmoid(act, model.hidden_biases[:, None, None].astype(dtype, copy=False))


def _visible_probs(model: CrbmModel, hmaps: np.ndarray) -> np.ndarray:
    """P(v = 1 | h) of float32 or float64 hidden maps, in their dtype."""
    dtype = hmaps.dtype
    act = kernels.conv_full(hmaps, model.filters.astype(dtype, copy=False))
    return _sigmoid(act, dtype.type(model.visible_bias))


def sample_bernoulli(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Elementwise Bernoulli draw; deterministic given the generator state."""
    probs = np.asarray(probs)
    if probs.size and (probs.min() < 0.0 or probs.max() > 1.0):
        raise ValueError("Bernoulli probabilities must lie in [0, 1]")
    return (rng.random(probs.shape) < probs).astype(np.float64)


def _gibbs_batch(model: CrbmModel, v0: np.ndarray, k: int,
                 rng: np.random.Generator):
    """k Gibbs rounds for a stack of images v0 (B, N, N) at once.

    Every uniform is drawn before any kernel runs, image by image in the
    order a one-image chain consumes them ([hidden, visible] x k), so the
    batch gets the samples its images would get chained one after another
    from the same generator.  The uniforms, and everything else in the
    chain, are of v0's dtype (float32 or float64).  A sample is 1.0 where
    uniform < probability; it is written over its uniform.  Returns (v_k,
    h0_probs, hk_probs, v1_probs), each with the leading batch axis.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n, side, dtype = model.input_size, model.hidden_side, v0.dtype
    u_h = np.empty((k, len(v0), model.num_filters, side, side), dtype=dtype)
    u_v = np.empty((k, len(v0), n, n), dtype=dtype)
    for i in range(len(v0)):
        for step in range(k):
            rng.random(out=u_h[step, i], dtype=dtype)
            rng.random(out=u_v[step, i], dtype=dtype)
    h0_probs = probs = _hidden_probs(model, v0)
    for step in range(k):
        if step:
            probs = _hidden_probs(model, v)
        h = np.less(u_h[step], probs, out=u_h[step])
        v_probs = _visible_probs(model, h)
        if step == 0:
            v1_probs = v_probs
        v = np.less(u_v[step], v_probs, out=u_v[step])
    del u_h, h, probs  # spent: free them before the last hidden pass
    return v, h0_probs, _hidden_probs(model, v), v1_probs


def gibbs_chain(model: CrbmModel, v0: np.ndarray, k: int,
                rng: np.random.Generator) -> GibbsResult:
    """k full rounds of alternating Gibbs sampling started at v0.

    Each round samples the hidden maps from P(h|v) and then the visible
    layer from P(v|h).  The returned hidden probability maps at step 0 and
    step k are the CD statistics; v1_probs (reconstruction probabilities
    after the first round) feeds the training diagnostics.
    """
    v0 = _visible_stack(model, v0, ndim=2)
    return GibbsResult(*(a[0] for a in _gibbs_batch(model, v0[None], k, rng)))


# ---------------------------------------------------------------------------
# Energy and exact-enumeration oracles
# ---------------------------------------------------------------------------

def _require_binary(arr: np.ndarray, what: str) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.float64)
    if not np.isin(arr, (0.0, 1.0)).all():
        raise ValueError(f"{what} must be binary")
    return arr


def energy(model: CrbmModel, v: np.ndarray, h: np.ndarray) -> float:
    """Joint energy of a binary configuration, v (N, N) and h (M, H, H);
    lower energy, higher probability."""
    pixels = _visible_stack(model, _require_binary(v, "visible units"), ndim=2)
    hmaps = _require_binary(h, "hidden units")
    act = kernels.corr_valid(pixels, model.filters)
    if hmaps.shape != act.shape:
        raise ShapeMismatchError(f"hidden maps must be {act.shape}, got {hmaps.shape}")
    coupling = float(np.sum(act * hmaps))
    return (-coupling
            - model.visible_bias * float(pixels.sum())
            - float(model.hidden_biases @ hmaps.sum(axis=(1, 2))))


def free_energy(model: CrbmModel, v: np.ndarray) -> float:
    """F(v) of one binary image (N, N) with hidden units summed out;
    P(v) = exp(-F(v)) / Z."""
    pixels = _visible_stack(model, _require_binary(v, "visible units"), ndim=2)
    act = _hidden_activations(model, pixels)
    return float(-model.visible_bias * pixels.sum() - np.logaddexp(0.0, act).sum())


def _dense_weight_matrix(model: CrbmModel) -> np.ndarray:
    """Unrolled tied weights, (n_visible, n_hidden); columns ordered (m, i, j)."""
    n, k, side = model.input_size, model.kernel_size, model.hidden_side
    dense = np.zeros((n * n, model.num_filters * side * side))
    for m in range(model.num_filters):
        for i in range(side):
            for j in range(side):
                col = (m * side + i) * side + j
                for r in range(k):
                    for s in range(k):
                        dense[(i + r) * n + (j + s), col] = model.filters[m, r, s]
    return dense


def _enumerated_free_energies(model: CrbmModel) -> np.ndarray:
    """F(v) for every visible configuration, in binary counting order."""
    n_v = model.num_visible
    dense = _dense_weight_matrix(model)
    c_rep = np.repeat(model.hidden_biases, model.hidden_side ** 2)
    out = np.empty(1 << n_v)
    bits = np.arange(n_v)
    for start in range(0, 1 << n_v, _CHUNK):
        stop = min(start + _CHUNK, 1 << n_v)
        configs = ((np.arange(start, stop)[:, None] >> bits[None, :]) & 1).astype(np.float64)
        act = configs @ dense + c_rep
        out[start:stop] = (-model.visible_bias * configs.sum(axis=1)
                           - np.logaddexp(0.0, act).sum(axis=1))
    return out


def _guard_enumeration(model: CrbmModel) -> None:
    if model.num_visible > ENUMERATION_LIMIT:
        raise EnumerationGuardError(
            f"{model.num_visible} visible units exceed the enumeration "
            f"limit of {ENUMERATION_LIMIT}")


def log_partition(model: CrbmModel) -> float:
    """log Z by full enumeration of visible configurations (guarded)."""
    _guard_enumeration(model)
    return float(logsumexp(-_enumerated_free_energies(model)))


def exact_log_likelihood(model: CrbmModel, data) -> float:
    """Sum of log P(v) over the binary images of data (n, N, N), with Z
    from full enumeration.

    Desk-scale oracle only; guarded to <= 20 visible units.
    """
    log_z = log_partition(model)
    return sum(-free_energy(model, v) - log_z for v in data)


def exact_log_likelihood_grad(model: CrbmModel, data) -> CrbmGradient:
    """Gradient of exact_log_likelihood over binary images (n, N, N): data
    statistics minus model expectation.

    The model expectation is computed by enumerating every visible
    configuration; same guard as the likelihood itself.
    """
    _guard_enumeration(model)
    free = _enumerated_free_energies(model)
    log_z = float(logsumexp(-free))
    n, side = model.input_size, model.hidden_side
    n_v = model.num_visible
    bits = np.arange(n_v)

    e_w = np.zeros_like(model.filters)
    e_b = 0.0
    e_c = np.zeros(model.num_filters)
    for start in range(0, 1 << n_v, _CHUNK):
        stop = min(start + _CHUNK, 1 << n_v)
        configs = ((np.arange(start, stop)[:, None] >> bits[None, :]) & 1).astype(np.float64)
        p = np.exp(-free[start:stop] - log_z)
        imgs = configs.reshape(-1, n, n)
        probs = _hidden_probs(model, imgs)
        windows = np.lib.stride_tricks.sliding_window_view(
            imgs, (side, side), axis=(1, 2))          # (B, K, K, H, H)
        e_w += np.einsum("b,bmij,brsij->mrs", p, probs, windows, optimize=True)
        e_b += float(p @ configs.sum(axis=1))
        e_c += np.einsum("b,bmij->m", p, probs)

    # the data statistics, -dF/dtheta summed over the images
    pixels = _visible_stack(model, _require_binary(data, "visible units"))
    probs = _hidden_probs(model, pixels)
    n_data = len(pixels)
    return CrbmGradient(
        filters=kernels.corr_grad(pixels, probs) - n_data * e_w,
        visible_bias=float(pixels.sum()) - n_data * e_b,
        hidden_biases=probs.sum(axis=(0, 2, 3)) - n_data * e_c)


# ---------------------------------------------------------------------------
# Contrastive divergence
# ---------------------------------------------------------------------------

def _cd_sums(model: CrbmModel, pixels: np.ndarray, k: int,
             rng: np.random.Generator):
    """CD-k statistics of a stack of images (B, N, N), summed over images.

    Returns (CrbmGradient of data-phase minus chain-phase statistics,
    summed reconstruction cross-entropy of the first round).  The batch
    runs in chunks of whole images that draw at most _CD_CHUNK_DRAWS
    uniforms each; chunks consume the generator in image order, so the
    chunking never changes a sample.  The chain runs in the stack's dtype;
    the statistics are summed in float64.
    """
    per_image = k * (model.num_hidden + model.num_visible)
    step = max(1, _CD_CHUNK_DRAWS // per_image)
    g_w = np.zeros_like(model.filters)
    g_b = 0.0
    g_c = np.zeros(model.num_filters)
    ce = 0.0
    for start in range(0, len(pixels), step):
        v0 = pixels[start:start + step]
        vk, p0, pk, v1_probs = _gibbs_batch(model, v0, k, rng)
        g_w += kernels.corr_grad(v0, p0)
        g_w -= kernels.corr_grad(vk, pk)
        g_b += float(v0.sum(dtype=np.float64) - vk.sum(dtype=np.float64))
        g_c += p0.sum(axis=(0, 2, 3), dtype=np.float64)
        g_c -= pk.sum(axis=(0, 2, 3), dtype=np.float64)
        ce += _recon_cross_entropy_sum(v0, v1_probs)
        del vk, p0, pk, v1_probs  # free this chunk's maps before the next chain
    return CrbmGradient(filters=g_w, visible_bias=g_b, hidden_biases=g_c), ce


def cd_gradient_estimate(model: CrbmModel, images: np.ndarray, k: int,
                         rng: np.random.Generator) -> CrbmGradient:
    """CD-k estimate of the log-likelihood gradient, summed over the images
    of a stack (n, N, N).

    Positive and negative phases both use hidden probabilities; the negative
    phase statistics come from the sampled v_k.  Sum convention matches
    exact_log_likelihood_grad so the two are directly comparable.
    """
    return _cd_sums(model, _visible_stack(model, images), k, rng)[0]


def _recon_cross_entropy_sum(v0: np.ndarray, v_probs: np.ndarray) -> float:
    """Summed cross-entropy of v0 under v_probs, in float64 whatever their
    dtype: float32 rounds 1 - 1e-12 to 1, so a float32 clip would leave
    log(1 - p) unguarded at a saturated p."""
    v0 = np.asarray(v0, dtype=np.float64)
    p = np.clip(np.asarray(v_probs, dtype=np.float64), 1e-12, 1.0 - 1e-12)
    return float(-np.sum(v0 * np.log(p) + (1.0 - v0) * np.log(1.0 - p)))


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
    pixels = _visible_stack(model, batch)
    if cfg.binarize_visible:
        pixels = pixels >= 0.5  # thresholded before the float32 cast rounds
    pixels = pixels.astype(np.float32)
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
    """Deterministic features: the hidden probability maps of each image,
    P(h^m_ij = 1 | v), the valid cross-correlation with each filter plus
    c_m through the sigmoid.  Images (..., N, N) give maps (..., M, H, H),
    float64; each image's maps are the bits it gets alone."""
    return _hidden_probs(model, _visible_stack(model, images, ndim=None))


def reduce_1x1(maps: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Pointwise weighted combination of the M maps of each image,
    (..., M, H, H) -> (..., H, H).  einsum adds the maps one after another,
    in a stack as for one image alone; tensordot, through BLAS, adds them
    in another order, which moves the last bits."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != maps.shape[-3:-2]:
        raise ShapeMismatchError(
            f"need one weight per map of maps {maps.shape}, "
            f"got shape {weights.shape}")
    return np.einsum("m,...mij->...ij", weights, maps)


def reduction_weights(mode: str, num_filters: int, seed: int = 0) -> np.ndarray:
    """1x1 reduction weights: 'uniform' averaging or a seeded unit-norm
    'random-projection'."""
    if mode == "uniform":
        return np.full(num_filters, 1.0 / num_filters)
    if mode == "random-projection":
        w = derive_rng(seed, "reduce-1x1").normal(size=num_filters)
        return w / np.linalg.norm(w)
    raise ValueError(f"unknown reduction mode {mode!r}")
