"""Exact-enumeration oracles for tiny CRBMs.

Everything here is computed from one dense tied-weight matrix W
(visible x hidden), built by placing every filter at every hidden
position, and the hidden biases c repeated over their maps' positions.
For a binary image v and binary hidden maps h, both flattened,

    E(v, h) = -v W h - b sum(v) - c h
    F(v)    = -b sum(v) - sum_j softplus((v W + c)_j)
    P(h_j = 1 | v) = sigmoid((v W + c)_j),  P(v_i = 1 | h) = sigmoid((W h)_i + b)

Summing over every visible configuration gives log Z, the exact
log-likelihood and its gradient.  Both conditionals over every state
give the exact transition matrix of the block Gibbs sampler, and so the
expectation of the CD-k estimator in closed form.

The oracles take nothing from the package but the CrbmModel they read:
no kernel, conditional or sigmoid of the code they judge
(test_public_api checks this).  The sigmoid and log-sum-exp are scipy's,
and everything is float64.  The tests tie the production conditionals
to W in test_crbm_oracles.
"""

import itertools

import numpy as np
from scipy.special import expit, logsumexp

from crbm_radiomics.crbm import CrbmModel

# 2**20 visible states are the most any oracle enumerates
ENUMERATION_LIMIT = 20


def all_bit_configs(n_bits):
    """Every binary vector of n_bits, (2**n_bits, n_bits), in counting
    order: bit i of row r is (r >> i) & 1."""
    ints = np.arange(1 << n_bits, dtype=np.uint32)
    return ((ints[:, None] >> np.arange(n_bits, dtype=np.uint32)) & 1) \
        .astype(np.float64)


def random_tiny_model(rng, n, k, m, scale=0.8):
    return CrbmModel(filters=rng.normal(0, scale, size=(m, k, k)),
                     visible_bias=float(rng.normal(0, 0.3)),
                     hidden_biases=rng.normal(0, 0.3, size=m),
                     input_size=n)


def random_binary_images(rng, n, count=None):
    """One binary N x N image, or a stack of count, each pixel 1 with
    probability 1/2; a stack draws what count one-image calls would."""
    shape = (n, n) if count is None else (count, n, n)
    return (rng.random(shape) < 0.5).astype(np.float64)


def _ties(model):
    """(M*K*K, n_visible, n_hidden) 0/1 array: entry (f, v, h) is 1 where
    filter entry f = (m, r, s) couples pixel (i + r, j + s) to hidden unit
    (m, i, j)."""
    n, k, m, side = (model.input_size, model.kernel_size, model.num_filters,
                     model.hidden_side)
    ties = np.zeros((m, k, k, n, n, m, side, side))
    for mi, r, s, i, j in itertools.product(range(m), range(k), range(k),
                                            range(side), range(side)):
        ties[mi, r, s, i + r, j + s, mi, i, j] = 1.0
    return ties.reshape(m * k * k, n * n, m * side * side)


def dense_weights(model):
    """W (n_visible, n_hidden): rows are pixels in row-major order, columns
    hidden units ordered (m, i, j)."""
    return np.tensordot(model.filters.ravel(), _ties(model), axes=1)


def dense_hidden_biases(model):
    """c (n_hidden,): each map's bias repeated over its positions."""
    return np.repeat(model.hidden_biases, model.hidden_side ** 2)


def _binary(units, n_axes):
    """units as float64 0/1 values with their last n_axes flattened."""
    units = np.asarray(units, dtype=np.float64)
    assert np.isin(units, (0.0, 1.0)).all(), "units must be binary"
    return units.reshape(*units.shape[:units.ndim - n_axes], -1)


def visible_states(model):
    """Every binary image of the model, (2**n_visible, N, N), in counting
    order of the flattened pixels."""
    assert model.num_visible <= ENUMERATION_LIMIT, \
        f"{model.num_visible} visible units are too many to enumerate"
    n = model.input_size
    return all_bit_configs(model.num_visible).reshape(-1, n, n)


def energy(model, v, h):
    """E(v, h) of binary images v (..., N, N) and binary hidden maps h
    (..., M, H, H); their leading axes broadcast."""
    v, h = _binary(v, 2), _binary(h, 3)
    act = v @ dense_weights(model)
    return (-np.einsum("...j,...j->...", act, h)
            - model.visible_bias * v.sum(axis=-1)
            - h @ dense_hidden_biases(model))


def free_energy(model, v):
    """F(v) of binary images v (..., N, N), hidden units summed out;
    P(v) = exp(-F(v)) / Z."""
    v = _binary(v, 2)
    act = v @ dense_weights(model) + dense_hidden_biases(model)
    return (-model.visible_bias * v.sum(axis=-1)
            - np.logaddexp(0.0, act).sum(axis=-1))


def log_partition(model):
    """log Z, summed over every visible state."""
    return float(logsumexp(-free_energy(model, visible_states(model))))


def exact_log_likelihood(model, data):
    """Sum of log P(v) over the binary images of data (n, N, N)."""
    return float(-free_energy(model, data).sum()
                 - len(data) * log_partition(model))


def _statistics(model, v, weights):
    """Weighted sums of -dF/dtheta over binary images v (B, N, N), one per
    row of weights (S, B), each laid out as flatten() lays out a gradient:
    (S, M*K*K + 1 + M)."""
    v = _binary(v, 2)
    p_h = expit(v @ dense_weights(model) + dense_hidden_biases(model))
    outer = np.einsum("sb,bv,bh->svh", weights, v, p_h, optimize=True)
    per_map = (weights @ p_h).reshape(len(weights), model.num_filters, -1)
    return np.concatenate([
        np.tensordot(outer, _ties(model), axes=([1, 2], [1, 2])),
        weights @ v.sum(axis=1, keepdims=True),
        per_map.sum(axis=2)], axis=1)


def exact_log_likelihood_grad(model, data):
    """Gradient of exact_log_likelihood over binary images data (n, N, N),
    flattened: the data statistics minus n times their expectation under
    the model."""
    states = visible_states(model)
    p = np.exp(-free_energy(model, states) - log_partition(model))
    return (_statistics(model, data, np.ones((1, len(data))))
            - len(data) * _statistics(model, states, p[None]))[0]


def _conditional(states, act):
    """P(state | row) of every binary state (columns) given the
    pre-activations act of each row's units: log sigmoid(a) is
    -logaddexp(0, -a), so saturated units stay finite."""
    return np.exp(-np.logaddexp(0.0, -act) @ states.T
                  - np.logaddexp(0.0, act) @ (1.0 - states).T)


def chain_tables(model):
    """Transition matrix T[v, v'] of one Gibbs round plus per-state CD
    statistics.

    Returns (T, stats) where stats[v] is the flattened -dF/dtheta at
    visible state v: the vector that the CD estimator accumulates.
    """
    weights, states = dense_weights(model), visible_states(model)
    vis = states.reshape(len(states), -1)
    hid = all_bit_configs(weights.shape[1])
    p_h_given_v = _conditional(hid,
                               vis @ weights + dense_hidden_biases(model))
    p_v_given_h = _conditional(vis, hid @ weights.T + model.visible_bias)
    stats = _statistics(model, states, np.eye(len(states)))
    return p_h_given_v @ p_v_given_h, stats


def state_index(pixels):
    flat = pixels.ravel()
    return int((flat * (1 << np.arange(flat.size))).sum())


def expected_cd_gradient(model, data, k, tables=None):
    """Exact expectation of the summed CD-k gradient estimate, flattened."""
    transition, stats = tables if tables is not None else chain_tables(model)
    n_states = stats.shape[0]
    pos = np.zeros(stats.shape[1])
    dist = np.zeros(n_states)
    for img in data:
        idx = state_index(img)
        pos += stats[idx]
        dist[idx] += 1.0
    for _ in range(k):
        dist = dist @ transition
    return pos - dist @ stats


def flatten(g_w, g_b, g_c):
    """A gradient's parts d/dW, d/db and d/dc as one vector, in that
    order."""
    return np.concatenate([g_w.ravel(), [g_b], g_c])


def shifted(model, step):
    """model with its parameters moved by step, a vector in the layout of
    flatten()."""
    f = model.filters.size
    return CrbmModel(
        filters=model.filters + step[:f].reshape(model.filters.shape),
        visible_bias=model.visible_bias + step[f],
        hidden_biases=model.hidden_biases + step[f + 1:],
        input_size=model.input_size)


def expected_cd_cosines(model, data, ks):
    """Cosine of the expected CD-k estimate against the exact gradient."""
    tables = chain_tables(model)
    exact = exact_log_likelihood_grad(model, data)
    exact_norm = np.linalg.norm(exact)
    out = []
    for k in ks:
        est = expected_cd_gradient(model, data, k, tables=tables)
        out.append(float(est @ exact / (np.linalg.norm(est) * exact_norm)))
    return out
