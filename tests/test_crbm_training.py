"""Contrastive-divergence training behaviour on small binary corpora."""

import numpy as np
import pytest

from scipy.signal import correlate2d
from scipy.special import expit

from crbm_radiomics import crbm, kernels
from crbm_radiomics.data_model import Image2D
from crbm_radiomics.errors import TrainingError
from crbm_radiomics.seeding import derive_rng
from gibbs_enumeration import expected_cd_gradient


def small_model(seed=0):
    return crbm.init_model(2, 2, 3, weight_init_sigma=0.5, seed=seed)


def binary_images(rng, n, count):
    return [Image2D(pixels=(rng.random((n, n)) < 0.5).astype(np.float64))
            for _ in range(count)]


def test_cd_update_matches_manual_replay():
    # replaying the same rng stream reproduces the chain, so the update
    # can be recomputed from first principles
    model = small_model()
    cfg = crbm.CrbmTrainConfig(learning_rate=0.1, cd_steps=2, batch_size=4)
    batch = binary_images(derive_rng(0, "b"), 3, 4)
    updated, diag = crbm.cd_update(model, batch, cfg, derive_rng(1, "u"))

    replay = derive_rng(1, "u")
    n_h = model.hidden_side ** 2
    d_w = np.zeros_like(model.filters)
    d_b = 0.0
    d_c = np.zeros(model.num_filters)
    for img in batch:
        chain = crbm.gibbs_chain(model, img, 2, replay)
        vk, p0, pk = chain.v_k.pixels, chain.h0_probs.maps, chain.hk_probs.maps
        d_w += kernels.corr_grad(img.pixels, p0) - kernels.corr_grad(vk, pk)
        d_b += float(np.mean(img.pixels - vk))
        d_c += (p0 - pk).sum(axis=(1, 2)) / n_h
    scale = cfg.learning_rate / 4
    np.testing.assert_allclose(updated.filters, model.filters + scale * d_w,
                               atol=1e-12)
    assert updated.visible_bias == pytest.approx(
        model.visible_bias + scale * d_b, abs=1e-12)
    np.testing.assert_allclose(updated.hidden_biases,
                               model.hidden_biases + scale * d_c, atol=1e-12)
    assert diag["mean_abs_dw"] == pytest.approx(
        np.abs(scale * d_w).mean(), abs=1e-12)


def replay_chain(model, v0, k, rng):
    """The one-image chain step by step through the two conditionals,
    drawing [hidden, visible] x k from rng: (v_k, h0, hk, v1_probs)."""
    h0 = probs = crbm.hidden_probabilities(model, Image2D(pixels=v0)).maps
    for step in range(k):
        if step:
            probs = crbm.hidden_probabilities(model, Image2D(pixels=v)).maps
        h = crbm.sample_bernoulli(probs, rng)
        v_probs = crbm._visible_probs(model, h)
        if step == 0:
            v1_probs = v_probs
        v = crbm.sample_bernoulli(v_probs, rng)
    hk = crbm.hidden_probabilities(model, Image2D(pixels=v)).maps
    return v, h0, hk, v1_probs


def weight_correlations(v, p):
    return np.stack([correlate2d(v, maps, mode="valid") for maps in p])


def test_chunked_cd_update_equals_image_by_image_replay(monkeypatch):
    model = crbm.init_model(3, 3, 6, weight_init_sigma=0.5, seed=4)
    cfg = crbm.CrbmTrainConfig(learning_rate=0.1, cd_steps=2, batch_size=7,
                               binarize_visible=True)
    rng = derive_rng(11, "grey")
    pixels = rng.random((7, 6, 6))
    pixels[0, 0, :2] = (0.5, np.nextafter(0.5, 0.0))  # the threshold is inclusive
    batch = [Image2D(pixels=p) for p in pixels]
    per_image = cfg.cd_steps * (model.num_hidden + model.num_visible)
    monkeypatch.setattr(crbm, "_CD_CHUNK_DRAWS", 2 * per_image)
    chunks = []
    batched = crbm._gibbs_batch

    def spy(model, v0, k, rng):
        chunks.append(len(v0))
        return batched(model, v0, k, rng)

    monkeypatch.setattr(crbm, "_gibbs_batch", spy)
    updated, diag = crbm.cd_update(model, batch, cfg, derive_rng(12, "u"))
    assert chunks == [2, 2, 2, 1]

    replay = derive_rng(12, "u")
    d_w = np.zeros_like(model.filters)
    d_b = 0.0
    d_c = np.zeros(model.num_filters)
    ce = []
    for img in batch:
        v0 = (img.pixels >= 0.5).astype(np.float64)
        vk, h0, hk, v1_probs = replay_chain(model, v0, 2, replay)
        d_w += weight_correlations(v0, h0) - weight_correlations(vk, hk)
        d_b += np.mean(v0 - vk)
        d_c += (h0 - hk).mean(axis=(1, 2))
        ce.append(-np.mean(v0 * np.log(v1_probs) + (1 - v0) * np.log(1 - v1_probs)))
    scale = cfg.learning_rate / len(batch)
    np.testing.assert_allclose(updated.filters, model.filters + scale * d_w,
                               atol=1e-12)
    assert updated.visible_bias == pytest.approx(
        model.visible_bias + scale * d_b, abs=1e-12)
    np.testing.assert_allclose(updated.hidden_biases,
                               model.hidden_biases + scale * d_c, atol=1e-12)
    assert diag["recon_cross_entropy"] == pytest.approx(np.mean(ce), abs=1e-12)


def test_cd_gradient_estimate_of_a_list_is_the_sum_of_one_image_estimates():
    rng = derive_rng(13, "est")
    model = crbm.init_model(2, 3, 5, weight_init_sigma=0.5, seed=6)
    data = binary_images(rng, 5, 6)
    whole = crbm.cd_gradient_estimate(model, data, 3, derive_rng(13, "s"))
    stream = derive_rng(13, "s")
    parts = [crbm.cd_gradient_estimate(model, [img], 3, stream) for img in data]
    np.testing.assert_allclose(whole.flatten(),
                               np.sum([g.flatten() for g in parts], axis=0),
                               atol=1e-12)


def test_gibbs_chain_follows_the_one_image_draw_order():
    rng = derive_rng(14, "chain")
    model = crbm.init_model(3, 2, 5, weight_init_sigma=0.8, seed=7)
    v0 = binary_images(rng, 5, 1)[0]
    got = crbm.gibbs_chain(model, v0, 3, derive_rng(14, "draws"))
    vk, h0, hk, v1_probs = replay_chain(model, v0.pixels, 3, derive_rng(14, "draws"))
    assert np.array_equal(got.v_k.pixels, vk)
    np.testing.assert_allclose(got.h0_probs.maps, h0, atol=1e-12)
    np.testing.assert_allclose(got.hk_probs.maps, hk, atol=1e-12)
    np.testing.assert_allclose(got.v1_probs, v1_probs, atol=1e-12)


def expit_hidden_probs(model, pixels):
    act = kernels.corr_valid(pixels, model.filters)
    act += model.hidden_biases[:, None, None]
    return expit(act, out=act)


def expit_visible_probs(model, hmaps):
    act = kernels.conv_full(hmaps, model.filters)
    act += model.visible_bias
    return expit(act, out=act)


@pytest.mark.parametrize("binarize", [False, True])
def test_cd_update_samples_equal_those_of_the_expit_conditionals(monkeypatch,
                                                                 binarize):
    # quick-start shapes: 16 images of 16x16, 16 filters of 5x5
    model = crbm.init_model(16, 5, 16, weight_init_sigma=0.3, seed=8)
    model = crbm.CrbmModel(filters=model.filters, visible_bias=-0.2,
                           hidden_biases=np.linspace(-1.0, 1.0, 16),
                           input_size=16)
    cfg = crbm.CrbmTrainConfig(learning_rate=0.05, cd_steps=2, batch_size=16,
                               binarize_visible=binarize)
    rng = derive_rng(15, "grey")
    batch = [Image2D(pixels=rng.random((16, 16))) for _ in range(16)]
    batched = crbm._gibbs_batch

    def run():
        samples = []

        def spy(model, v0, k, rng):
            out = batched(model, v0, k, rng)
            samples.append(out[0].copy())
            return out

        with monkeypatch.context() as patch:
            patch.setattr(crbm, "_gibbs_batch", spy)
            updated, _ = crbm.cd_update(model, batch, cfg, derive_rng(15, "u"))
        return updated, np.concatenate(samples)

    got, got_vk = run()
    monkeypatch.setattr(crbm, "_hidden_probs", expit_hidden_probs)
    monkeypatch.setattr(crbm, "_visible_probs", expit_visible_probs)
    want, want_vk = run()
    assert got_vk.shape == (16, 16, 16)
    assert np.array_equal(got_vk, want_vk)
    np.testing.assert_allclose(got.filters, want.filters, rtol=1e-12)
    assert got.visible_bias == pytest.approx(want.visible_bias, rel=1e-12)
    np.testing.assert_allclose(got.hidden_biases, want.hidden_biases,
                               rtol=1e-12)


def test_cd_update_rejects_empty_batch():
    cfg = crbm.CrbmTrainConfig()
    with pytest.raises(TrainingError):
        crbm.cd_update(small_model(), [], cfg, derive_rng(0))


def test_train_rejects_empty_data():
    with pytest.raises(TrainingError):
        crbm.train(small_model(), [], crbm.CrbmTrainConfig())


def test_train_zero_epochs_returns_model_unchanged():
    model = small_model()
    data = binary_images(derive_rng(2, "z"), 3, 8)
    out, history = crbm.train(model, data, crbm.CrbmTrainConfig(epochs=0))
    assert np.array_equal(out.filters, model.filters)
    assert history.recon_cross_entropy == []


def test_train_is_deterministic_per_seed():
    data = binary_images(derive_rng(3, "d"), 3, 12)
    cfg = crbm.CrbmTrainConfig(learning_rate=0.05, epochs=3, batch_size=4,
                               rng_seed=7)
    a, hist_a = crbm.train(small_model(), data, cfg)
    b, hist_b = crbm.train(small_model(), data, cfg)
    assert np.array_equal(a.filters, b.filters)
    assert hist_a.recon_cross_entropy == hist_b.recon_cross_entropy

    other = crbm.train(small_model(), data,
                       crbm.CrbmTrainConfig(learning_rate=0.05, epochs=3,
                                            batch_size=4, rng_seed=8))[0]
    assert not np.array_equal(a.filters, other.filters)


def test_train_history_has_one_entry_per_epoch():
    data = binary_images(derive_rng(4, "h"), 3, 10)
    _, history = crbm.train(small_model(), data,
                            crbm.CrbmTrainConfig(learning_rate=0.01, epochs=5))
    assert len(history.recon_cross_entropy) == 5
    assert len(history.mean_abs_dw) == 5
    assert all(np.isfinite(history.recon_cross_entropy))


def test_training_reduces_reconstruction_error_on_stripes(stripe_images):
    model = crbm.init_model(4, 3, 8, weight_init_sigma=0.01, seed=1)
    cfg = crbm.CrbmTrainConfig(learning_rate=0.05, cd_steps=1, epochs=10,
                               batch_size=16, rng_seed=1)
    _, history = crbm.train(model, stripe_images, cfg)
    assert history.recon_cross_entropy[-1] < 0.5 * history.recon_cross_entropy[0]


def test_training_improves_exact_likelihood_on_tiny_data():
    # on an enumerable model the true objective itself should go up
    rng = derive_rng(5, "lik")
    data = [Image2D(pixels=np.array([[1., 1., 1.],
                                     [0., 0., 0.],
                                     [1., 1., 1.]]))] * 6
    model = crbm.init_model(1, 2, 3, weight_init_sigma=0.1, seed=2)
    before = crbm.exact_log_likelihood(model, data)
    cfg = crbm.CrbmTrainConfig(learning_rate=0.2, cd_steps=1, epochs=40,
                               batch_size=6, rng_seed=3)
    trained, _ = crbm.train(model, data, cfg)
    after = crbm.exact_log_likelihood(trained, data)
    assert after > before


def test_sampled_cd_estimate_converges_to_enumerated_expectation():
    # bridge between the Monte Carlo estimator and the closed-form
    # expectation used by the gradient-quality checks
    rng = derive_rng(6, "bridge")
    model = crbm.CrbmModel(filters=rng.normal(0, 0.8, size=(1, 2, 2)),
                           visible_bias=float(rng.normal(0, 0.3)),
                           hidden_biases=rng.normal(0, 0.3, size=1),
                           input_size=3)
    data = binary_images(rng, 3, 4)
    exact = expected_cd_gradient(model, data, k=2)

    reps = 3000
    draws = np.empty((reps, exact.size))
    for i in range(reps):
        est = crbm.cd_gradient_estimate(model, data, 2, derive_rng(6, "rep", i))
        draws[i] = est.flatten()
    mean = draws.mean(axis=0)
    sem = draws.std(axis=0, ddof=1) / np.sqrt(reps)
    np.testing.assert_array_less(np.abs(mean - exact), 6.0 * sem + 1e-3)
