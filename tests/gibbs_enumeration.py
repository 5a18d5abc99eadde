"""Enumerated Gibbs-chain oracle for tiny CRBMs.

Builds the exact visible-to-visible transition matrix of the block Gibbs
sampler, which gives the expectation of the CD-k gradient estimator in
closed form. Everything here is test-side scaffolding and deliberately
independent of the sampling code under test.
"""

import numpy as np

from crbm_radiomics import crbm, kernels


def all_bit_configs(n_bits):
    ints = np.arange(1 << n_bits, dtype=np.uint32)
    return ((ints[:, None] >> np.arange(n_bits, dtype=np.uint32)) & 1) \
        .astype(np.float64)


def chain_tables(model):
    """Transition matrix T[v, v'] plus per-state CD sufficient statistics.

    Returns (T, stats) where stats[v] is the flattened
    (corr_grad(v, p(h|v)), sum(v), per-map sums of p(h|v)) vector that the
    CD estimator accumulates for a visible configuration v.
    """
    n = model.input_size
    m, k, side = model.num_filters, model.kernel_size, model.hidden_side
    n_v, n_h = n * n, m * side * side
    vis = all_bit_configs(n_v)
    hid = all_bit_configs(n_h)

    acts = np.stack([(kernels.corr_valid(v.reshape(n, n), model.filters)
                      + model.hidden_biases[:, None, None]).ravel()
                     for v in vis])
    p_h = 1.0 / (1.0 + np.exp(-acts))
    with np.errstate(divide="ignore"):
        log_p_vh = hid @ np.log(p_h).T + (1 - hid) @ np.log(1 - p_h).T
    p_vh = np.exp(log_p_vh).T  # (2^nv, 2^nh): P(h | v)

    vacts = np.stack([(kernels.conv_full(h.reshape(m, side, side), model.filters)
                       + model.visible_bias).ravel()
                      for h in hid])
    p_v = 1.0 / (1.0 + np.exp(-vacts))
    with np.errstate(divide="ignore"):
        log_p_hv = vis @ np.log(p_v).T + (1 - vis) @ np.log(1 - p_v).T
    p_hv = np.exp(log_p_hv).T  # (2^nh, 2^nv): P(v | h)

    transition = p_vh @ p_hv

    stats = np.stack([np.concatenate([
        kernels.corr_grad(v.reshape(n, n), p_h[i].reshape(m, side, side)).ravel(),
        [v.sum()],
        p_h[i].reshape(m, side, side).sum(axis=(1, 2))])
        for i, v in enumerate(vis)])
    return transition, stats


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
        idx = state_index(img.pixels)
        pos += stats[idx]
        dist[idx] += 1.0
    for _ in range(k):
        dist = dist @ transition
    return pos - dist @ stats


def flatten(grad):
    """A CrbmGradient as one vector: d/dW, then d/db, then d/dc."""
    return np.concatenate([grad.filters.ravel(), [grad.visible_bias],
                           grad.hidden_biases])


def expected_cd_cosines(model, data, ks):
    """Cosine of the expected CD-k estimate against the exact gradient."""
    tables = chain_tables(model)
    exact = flatten(crbm.exact_log_likelihood_grad(model, data))
    exact_norm = np.linalg.norm(exact)
    out = []
    for k in ks:
        est = expected_cd_gradient(model, data, k, tables=tables)
        out.append(float(est @ exact / (np.linalg.norm(est) * exact_norm)))
    return out
