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
"""

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import expit, logsumexp

from . import kernels
from .data_model import Image2D
from .errors import EnumerationGuardError, ShapeMismatchError, TrainingError
from .seeding import derive_rng

ENUMERATION_LIMIT = 20
_CHUNK = 1 << 16
# most uniforms drawn ahead for one chunk of a CD batch (8 MB of doubles);
# a chunk holds as many whole images as fit, and at least one
_CD_CHUNK_DRAWS = 1 << 20


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
class CrbmTrainConfig:
    learning_rate: float = 1e-4
    cd_steps: int = 1
    epochs: int = 30
    batch_size: int = 16
    rng_seed: int = 0
    weight_init_sigma: float = 0.01
    binarize_visible: bool = False

    def __post_init__(self):
        if self.learning_rate <= 0 or self.weight_init_sigma <= 0:
            raise ValueError("learning_rate and weight_init_sigma must be positive")
        if self.cd_steps < 1 or self.batch_size < 1 or self.epochs < 0:
            raise ValueError("cd_steps/batch_size must be >= 1 and epochs >= 0")


@dataclass(frozen=True)
class HiddenState:
    """M hidden maps of side H; kind declares probabilities vs binary samples."""

    maps: np.ndarray
    kind: str

    def __post_init__(self):
        m = np.asarray(self.maps, dtype=np.float64)
        if m.ndim != 3:
            raise ShapeMismatchError(f"hidden maps must be (M, H, H), got {m.shape}")
        if self.kind == "probabilities":
            if m.min() < 0.0 or m.max() > 1.0:
                raise ValueError("probabilities must lie in [0, 1]")
        elif self.kind == "samples":
            if not np.isin(m, (0.0, 1.0)).all():
                raise ValueError("samples must be binary")
        else:
            raise ValueError(f"kind must be 'probabilities' or 'samples', got {self.kind!r}")
        object.__setattr__(self, "maps", m)


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

    def flatten(self) -> np.ndarray:
        return np.concatenate([self.filters.ravel(),
                               [self.visible_bias],
                               self.hidden_biases])


class GibbsResult(NamedTuple):
    v_k: Image2D
    h0_probs: HiddenState
    hk_probs: HiddenState
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


def load_model(path) -> CrbmModel:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format") != "crbm-model":
        raise ValueError(f"{path}: not a CRBM model file")
    k = int(doc["kernel_size"])
    filters = np.array([np.array(f, dtype=np.float64).reshape(k, k)
                        for f in doc["filters"]])
    return CrbmModel(filters=filters,
                     visible_bias=float(doc["visible_bias"]),
                     hidden_biases=np.asarray(doc["hidden_biases"], dtype=np.float64),
                     input_size=int(doc["input_size"]))


# ---------------------------------------------------------------------------
# Inference
# ---------------------------------------------------------------------------

def _check_visible(model: CrbmModel, pixels: np.ndarray) -> None:
    if pixels.shape != (model.input_size, model.input_size):
        raise ShapeMismatchError(
            f"visible layer must be {model.input_size}x{model.input_size}, "
            f"got {pixels.shape}")


def _hidden_activations(model: CrbmModel, pixels: np.ndarray) -> np.ndarray:
    """Hidden pre-activations of (..., N, N) images -> (..., M, H, H)."""
    act = kernels.corr_valid(pixels, model.filters)
    act += model.hidden_biases[:, None, None]
    return act


def _hidden_probs(model: CrbmModel, pixels: np.ndarray) -> np.ndarray:
    act = _hidden_activations(model, pixels)
    return expit(act, out=act)


def _visible_probs(model: CrbmModel, hmaps: np.ndarray) -> np.ndarray:
    act = kernels.conv_full(hmaps, model.filters)
    act += model.visible_bias
    return expit(act, out=act)


def hidden_probabilities(model: CrbmModel, v: Image2D) -> HiddenState:
    """P(h^m_ij = 1 | v): valid cross-correlation with each filter, plus c_m,
    through the sigmoid.  Output maps are (M, H, H)."""
    _check_visible(model, v.pixels)
    return HiddenState(maps=_hidden_probs(model, v.pixels), kind="probabilities")


def visible_probabilities(model: CrbmModel, h: HiddenState) -> Image2D:
    """P(v_uw = 1 | h): each hidden unit redistributes its evidence to the
    K x K pixels it reads (full convolution with the filters), plus b."""
    side = model.hidden_side
    if h.maps.shape != (model.num_filters, side, side):
        raise ShapeMismatchError(
            f"hidden maps must be {(model.num_filters, side, side)}, got {h.maps.shape}")
    return Image2D(pixels=_visible_probs(model, h.maps))


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
    from the same generator.  A sample is 1.0 where uniform < probability;
    it is written over its uniform.  Returns (v_k, h0_probs, hk_probs,
    v1_probs), each with the leading batch axis.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n, side = model.input_size, model.hidden_side
    u_h = np.empty((k, len(v0), model.num_filters, side, side))
    u_v = np.empty((k, len(v0), n, n))
    for i in range(len(v0)):
        for step in range(k):
            rng.random(out=u_h[step, i])
            rng.random(out=u_v[step, i])
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


def _gibbs_raw(model: CrbmModel, v0: np.ndarray, k: int, rng: np.random.Generator):
    """One-image chain on plain arrays: returns (v_k, h0_probs, hk_probs, v1_probs)."""
    return tuple(a[0] for a in _gibbs_batch(model, v0[None], k, rng))


def gibbs_chain(model: CrbmModel, v0: Image2D, k: int,
                rng: np.random.Generator) -> GibbsResult:
    """k full rounds of alternating Gibbs sampling started at v0.

    Each round samples the hidden maps from P(h|v) and then the visible
    layer from P(v|h).  The returned hidden probability maps at step 0 and
    step k are the CD statistics; v1_probs (reconstruction probabilities
    after the first round) feeds the training diagnostics.
    """
    _check_visible(model, v0.pixels)
    v, h0, hk, v1_probs = _gibbs_raw(model, v0.pixels, k, rng)
    return GibbsResult(v_k=Image2D(pixels=v),
                       h0_probs=HiddenState(maps=h0, kind="probabilities"),
                       hk_probs=HiddenState(maps=hk, kind="probabilities"),
                       v1_probs=v1_probs)


# ---------------------------------------------------------------------------
# Energy and exact-enumeration oracles
# ---------------------------------------------------------------------------

def _require_binary(arr: np.ndarray, what: str) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.float64)
    if not np.isin(arr, (0.0, 1.0)).all():
        raise ValueError(f"{what} must be binary")
    return arr


def energy(model: CrbmModel, v: Image2D, h: HiddenState) -> float:
    """Joint energy of a binary configuration; lower energy, higher probability."""
    pixels = _require_binary(v.pixels, "visible units")
    hmaps = _require_binary(h.maps, "hidden units")
    _check_visible(model, pixels)
    act = kernels.corr_valid(pixels, model.filters)
    coupling = float(np.sum(act * hmaps))
    return (-coupling
            - model.visible_bias * float(pixels.sum())
            - float(model.hidden_biases @ hmaps.sum(axis=(1, 2))))


def free_energy(model: CrbmModel, v: Image2D) -> float:
    """F(v) with hidden units summed out; P(v) = exp(-F(v)) / Z."""
    pixels = _require_binary(v.pixels, "visible units")
    _check_visible(model, pixels)
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


def exact_log_likelihood(model: CrbmModel, data: list) -> float:
    """Sum of log P(v) over the data, with Z from full enumeration.

    Desk-scale oracle only; guarded to <= 20 visible units.
    """
    _guard_enumeration(model)
    log_z = float(logsumexp(-_enumerated_free_energies(model)))
    return sum(-free_energy(model, v) - log_z for v in data)


def _sufficient_stats(model: CrbmModel, pixels: np.ndarray) -> CrbmGradient:
    """-dF/dtheta at one visible configuration."""
    probs = _hidden_probs(model, pixels)
    return CrbmGradient(filters=kernels.corr_grad(pixels, probs),
                        visible_bias=float(pixels.sum()),
                        hidden_biases=probs.sum(axis=(1, 2)))


def exact_log_likelihood_grad(model: CrbmModel, data: list) -> CrbmGradient:
    """Gradient of exact_log_likelihood: data statistics minus model expectation.

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

    g_w = np.zeros_like(model.filters)
    g_b = 0.0
    g_c = np.zeros(model.num_filters)
    for v in data:
        stats = _sufficient_stats(model, _require_binary(v.pixels, "visible units"))
        g_w += stats.filters
        g_b += stats.visible_bias
        g_c += stats.hidden_biases
    n_data = len(data)
    return CrbmGradient(filters=g_w - n_data * e_w,
                        visible_bias=g_b - n_data * e_b,
                        hidden_biases=g_c - n_data * e_c)


# ---------------------------------------------------------------------------
# Contrastive divergence
# ---------------------------------------------------------------------------

def _stack_visible(model: CrbmModel, images: list) -> np.ndarray:
    """Pixels of equal-sized images as one (B, N, N) array."""
    pixels = np.empty((len(images), model.input_size, model.input_size))
    for i, img in enumerate(images):
        _check_visible(model, img.pixels)
        pixels[i] = img.pixels
    return pixels


def _cd_sums(model: CrbmModel, pixels: np.ndarray, k: int,
             rng: np.random.Generator):
    """CD-k statistics of a stack of images (B, N, N), summed over images.

    Returns (CrbmGradient of data-phase minus chain-phase statistics,
    summed reconstruction cross-entropy of the first round).  The batch
    runs in chunks of whole images that draw at most _CD_CHUNK_DRAWS
    uniforms each; chunks consume the generator in image order, so the
    chunking never changes a sample.
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
        g_b += float(v0.sum() - vk.sum())
        p0 -= pk
        g_c += p0.sum(axis=(0, 2, 3))
        ce += _recon_cross_entropy_sum(v0, v1_probs)
        del vk, p0, pk, v1_probs  # free this chunk's maps before the next chain
    return CrbmGradient(filters=g_w, visible_bias=g_b, hidden_biases=g_c), ce


def cd_gradient_estimate(model: CrbmModel, images: list, k: int,
                         rng: np.random.Generator) -> CrbmGradient:
    """CD-k estimate of the log-likelihood gradient, summed over images.

    Positive and negative phases both use hidden probabilities; the negative
    phase statistics come from the sampled v_k.  Sum convention matches
    exact_log_likelihood_grad so the two are directly comparable.
    """
    return _cd_sums(model, _stack_visible(model, images), k, rng)[0]


def _recon_cross_entropy_sum(v0: np.ndarray, v_probs: np.ndarray) -> float:
    p = np.clip(v_probs, 1e-12, 1.0 - 1e-12)
    return float(-np.sum(v0 * np.log(p) + (1.0 - v0) * np.log(1.0 - p)))


def cd_update(model: CrbmModel, batch: list, cfg: CrbmTrainConfig,
              rng: np.random.Generator):
    """One CD-k parameter update from a batch of images.

    Per image: Delta W_m is the difference of K x K gradient correlations
    between the data phase and the chain phase; Delta b averages the visible
    difference over pixels; Delta c_m averages the hidden probability
    difference over map positions.  Deltas are averaged over the batch and
    applied once with the learning rate.

    Returns (updated model, diagnostics dict with the batch-mean
    reconstruction cross-entropy and mean |Delta W|).
    """
    if not batch:
        raise TrainingError("empty batch")
    pixels = _stack_visible(model, batch)
    if cfg.binarize_visible:
        pixels = (pixels >= 0.5).astype(np.float64)
    grad, ce = _cd_sums(model, pixels, cfg.cd_steps, rng)
    scale = cfg.learning_rate / len(batch)
    dw_applied = scale * grad.filters
    d_b = grad.visible_bias / model.num_visible
    d_c = grad.hidden_biases / model.hidden_side ** 2
    updated = CrbmModel(filters=model.filters + dw_applied,
                        visible_bias=model.visible_bias + scale * d_b,
                        hidden_biases=model.hidden_biases + scale * d_c,
                        input_size=model.input_size)
    diagnostics = {
        "recon_cross_entropy": ce / pixels.size,
        "mean_abs_dw": float(np.abs(dw_applied).mean()),
    }
    return updated, diagnostics


def train(model: CrbmModel, data: list, cfg: CrbmTrainConfig):
    """Epochs of shuffled-batch CD updates; returns (model, TrainHistory).

    Shuffling and every Gibbs draw derive deterministically from
    cfg.rng_seed, so identical inputs give bit-identical final weights.
    Aborts with TrainingError if any parameter goes non-finite.
    """
    if not data:
        raise TrainingError("training data is empty")
    history = TrainHistory(recon_cross_entropy=[], mean_abs_dw=[])
    for epoch in range(cfg.epochs):
        order = derive_rng(cfg.rng_seed, "shuffle", epoch).permutation(len(data))
        ce_parts, dw_parts, weights = [], [], []
        for batch_idx, start in enumerate(range(0, len(data), cfg.batch_size)):
            batch = [data[i] for i in order[start:start + cfg.batch_size]]
            rng = derive_rng(cfg.rng_seed, "cd", epoch, batch_idx)
            model, diag = cd_update(model, batch, cfg, rng)
            if not (np.isfinite(model.filters).all()
                    and np.isfinite(model.hidden_biases).all()
                    and np.isfinite(model.visible_bias)):
                raise TrainingError(
                    f"non-finite parameters at epoch {epoch}, batch {batch_idx}")
            ce_parts.append(diag["recon_cross_entropy"])
            dw_parts.append(diag["mean_abs_dw"])
            weights.append(len(batch))
        history.recon_cross_entropy.append(float(np.average(ce_parts, weights=weights)))
        history.mean_abs_dw.append(float(np.average(dw_parts, weights=weights)))
    return model, history


# ---------------------------------------------------------------------------
# Feature extraction
# ---------------------------------------------------------------------------

def extract_feature_map(model: CrbmModel, img: Image2D) -> HiddenState:
    """Deterministic features: the hidden probability maps of the image."""
    return hidden_probabilities(model, img)


def reduce_1x1(maps: HiddenState, weights: np.ndarray) -> np.ndarray:
    """Pointwise weighted combination of the M maps into one H x H map."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (maps.maps.shape[0],):
        raise ShapeMismatchError(
            f"need {maps.maps.shape[0]} weights, got shape {weights.shape}")
    return np.einsum("m,mij->ij", weights, maps.maps)


def reduction_weights(mode: str, num_filters: int, seed: int = 0) -> np.ndarray:
    """1x1 reduction weights: 'uniform' averaging or a seeded unit-norm
    'random-projection'."""
    if mode == "uniform":
        return np.full(num_filters, 1.0 / num_filters)
    if mode == "random-projection":
        w = derive_rng(seed, "reduce-1x1").normal(size=num_filters)
        return w / np.linalg.norm(w)
    raise ValueError(f"unknown reduction mode {mode!r}")
