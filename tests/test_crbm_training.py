"""Contrastive-divergence training behaviour on small binary corpora."""

import functools
import re
import tracemalloc

import numpy as np
import pytest

from scipy.special import expit

from crbm_radiomics import crbm, kernels, synth
from crbm_radiomics.config import SynthSpec
from crbm_radiomics.errors import ShapeMismatchError, TrainingError
from crbm_radiomics.seeding import derive_rng
from crbm_enumeration import (exact_log_likelihood, expected_cd_gradient,
                              flatten, random_binary_images, random_tiny_model)


def small_model(seed=0):
    return crbm.init_model(2, 2, 3, weight_init_sigma=0.5, seed=seed)


def replay_chain(model, v0, k, rng):
    """The chain of one image, a stack v0 (1, N, N), step by step through
    the two conditionals, drawing [hidden, visible] x k uniforms of v0's
    dtype from rng: (v_k, h0, hk, v1_probs), each a stack of one."""
    def draw(probs):
        return (rng.random(probs.shape, dtype=probs.dtype) < probs).astype(probs.dtype)

    h0 = probs = crbm._hidden_probs(model, v0)
    for step in range(k):
        if step:
            probs = crbm._hidden_probs(model, v)
        v_probs = crbm._visible_probs(model, draw(probs))
        if step == 0:
            v1_probs = v_probs
        v = draw(v_probs)
    return v, h0, crbm._hidden_probs(model, v), v1_probs


def replay_batch(model, v0, k, rng):
    """replay_chain image after image from one generator, each result
    stacked over the images of v0 (B, N, N)."""
    return tuple(np.concatenate(a) for a in zip(
        *(replay_chain(model, v0[i:i + 1], k, rng) for i in range(len(v0)))))


def replay_sums(model, v0, k, rng, size):
    """_cd_sums' (g_w, g_b, g_c, summed cross-entropy) of images v0 from
    replay_batch's chains, summed as _cd_sums sums chunks of size images:
    each chunk's statistics through one kernel call, chunks added up in
    float64."""
    vk, h0, hk, v1_probs = replay_batch(model, v0, k, rng)
    g_w, g_c = np.zeros_like(model.filters), np.zeros(model.num_filters)
    g_b = ce = 0.0
    for lo in range(0, len(v0), size):
        part = slice(lo, lo + size)
        g_w += kernels.corr_grad(v0[part], h0[part])
        g_w -= kernels.corr_grad(vk[part], hk[part])
        g_c += h0[part].sum(axis=(0, 2, 3), dtype=np.float64)
        g_c -= hk[part].sum(axis=(0, 2, 3), dtype=np.float64)
        g_b += float(v0[part].sum(dtype=np.float64)
                     - vk[part].sum(dtype=np.float64))
        ce += crbm._recon_cross_entropy_sum(v0[part], v1_probs[part])
    return g_w, g_b, g_c, ce


def assert_same_sums(got, want):
    """Two (g_w, g_b, g_c, cross-entropy) sums are equal bit for bit."""
    (g_w, g_b, g_c, ce), (want_w, want_b, want_c, want_ce) = got, want
    assert g_w.tobytes() == want_w.tobytes()
    assert g_c.tobytes() == want_c.tobytes()
    assert g_b == want_b
    assert ce == want_ce


def spy_conditionals(monkeypatch):
    """Spy on the chain's two conditionals: the lists (hidden, visible)
    it returns get a copy of (input, output) of each call of
    _hidden_probs and of _visible_probs, in call order."""
    calls = {"_hidden_probs": [], "_visible_probs": []}
    for name, seen in calls.items():
        def spy(model, x, real=getattr(crbm, name), seen=seen):
            out = real(model, x)
            seen.append((x.copy(), out.copy()))
            return out
        monkeypatch.setattr(crbm, name, spy)
    return calls["_hidden_probs"], calls["_visible_probs"]


def chunks_seen(hidden, visible, k):
    """(v0, v_k, h0_probs, hk_probs, v1_probs) of each one-thread CD-k
    chunk whose conditionals spy_conditionals saw: a chunk makes k + 1
    hidden passes, of v0 .. v_k, and k reconstructions."""
    return [(hidden[i][0], hidden[i + k][0], hidden[i][1], hidden[i + k][1],
             visible[i // (k + 1) * k][1])
            for i in range(0, len(hidden), k + 1)]


def test_cd_update_matches_manual_replay(monkeypatch):
    # replaying the same rng stream reproduces the float32 chain, so the
    # sums can be recomputed from first principles: the float32 kernel
    # correlates the replayed samples of the batch (one chunk here), and
    # the rest is summed in float64
    model = small_model()
    cfg = crbm.CrbmConfig(learning_rate=0.1, cd_steps=2, batch_size=4)
    batch = random_binary_images(derive_rng(0, "b"), 3, 4)
    v0 = batch.astype(np.float32)
    hidden, visible = spy_conditionals(monkeypatch)
    sums = crbm._cd_sums(model, v0, 2, derive_rng(1, "u"))
    (chunk,) = chunks_seen(hidden, visible, 2)
    vk, p0, pk, _ = replay_batch(model, v0, 2, derive_rng(1, "u"))
    assert chunk[1].dtype == np.float32
    assert np.array_equal(chunk[0], v0)
    assert np.array_equal(chunk[1], vk)
    want = replay_sums(model, v0, 2, derive_rng(1, "u"), 4)
    assert_same_sums(sums, want)

    # cd_update applies those sums as mean steps over the batch
    updated, diag = crbm.cd_update(model, batch, cfg, derive_rng(1, "u"))
    n_h = model.hidden_side ** 2
    d_w = want[0]
    d_b = float(np.mean(v0 - vk, axis=(1, 2), dtype=np.float64).sum())
    d_c = (p0.astype(np.float64) - pk).sum(axis=(0, 2, 3)) / n_h
    scale = cfg.learning_rate / 4
    np.testing.assert_allclose(updated.filters, model.filters + scale * d_w,
                               atol=1e-12)
    assert updated.visible_bias == pytest.approx(
        model.visible_bias + scale * d_b, abs=1e-12)
    np.testing.assert_allclose(updated.hidden_biases,
                               model.hidden_biases + scale * d_c, atol=1e-12)
    assert diag["mean_abs_dw"] == pytest.approx(
        np.abs(scale * d_w).mean(), abs=1e-12)


def test_chunked_cd_update_equals_image_by_image_replay(monkeypatch):
    model = crbm.init_model(3, 3, 6, weight_init_sigma=0.5, seed=4)
    cfg = crbm.CrbmConfig(learning_rate=0.1, cd_steps=2, batch_size=7)
    batch = derive_rng(11, "grey").random((7, 6, 6))
    per_image = cfg.cd_steps * (model.num_hidden + model.num_visible)
    monkeypatch.setattr(crbm, "_CD_CHUNK_DRAWS", 2 * per_image)
    # grey pixels enter the chain as they are, cast to float32
    v0 = batch.astype(np.float32)
    with monkeypatch.context() as patch:
        hidden, visible = spy_conditionals(patch)
        sums = crbm._cd_sums(model, v0, 2, derive_rng(12, "u"))
    chunks = chunks_seen(hidden, visible, 2)
    assert [len(chunk[0]) for chunk in chunks] == [2, 2, 2, 1]
    vk, h0, hk, v1_probs = replay_batch(model, v0, 2, derive_rng(12, "u"))
    assert np.array_equal(np.concatenate([chunk[0] for chunk in chunks]), v0)
    assert np.array_equal(np.concatenate([chunk[1] for chunk in chunks]), vk)
    # the float32 kernel sums each chunk's images; chunks add up in float64
    want = replay_sums(model, v0, 2, derive_rng(12, "u"), 2)
    assert_same_sums(sums, want)

    # cd_update applies those sums as mean steps over the batch
    updated, diag = crbm.cd_update(model, batch, cfg, derive_rng(12, "u"))
    d_w = want[0]
    # grey v0 - vk is not exact in float32, so the difference is in float64
    d_b = float(np.mean(v0.astype(np.float64) - vk, axis=(1, 2)).sum())
    d_c = (h0.astype(np.float64) - hk).mean(axis=(2, 3)).sum(axis=0)
    v0, p = v0.astype(np.float64), v1_probs.astype(np.float64)
    ce = -np.mean(v0 * np.log(p) + (1 - v0) * np.log(1 - p), axis=(1, 2))
    scale = cfg.learning_rate / len(batch)
    np.testing.assert_allclose(updated.filters, model.filters + scale * d_w,
                               atol=1e-12)
    assert updated.visible_bias == pytest.approx(
        model.visible_bias + scale * d_b, abs=1e-12)
    np.testing.assert_allclose(updated.hidden_biases,
                               model.hidden_biases + scale * d_c, atol=1e-12)
    assert diag["recon_cross_entropy"] == pytest.approx(np.mean(ce), abs=1e-12)


def test_cd_sums_of_a_stack_are_the_sum_of_one_image_sums():
    rng = derive_rng(13, "est")
    model = crbm.init_model(2, 3, 5, weight_init_sigma=0.5, seed=6)
    data = random_binary_images(rng, 5, 6)
    whole = crbm._cd_sums(model, data, 3, derive_rng(13, "s"))[:3]
    stream = derive_rng(13, "s")
    parts = [crbm._cd_sums(model, img[None], 3, stream)[:3] for img in data]
    np.testing.assert_allclose(flatten(*whole),
                               np.sum([flatten(*g) for g in parts], axis=0),
                               atol=1e-12)


def test_the_cd_chain_follows_the_one_image_draw_order(monkeypatch):
    # one float64 image, as the enumeration oracles run the chain
    rng = derive_rng(14, "chain")
    model = crbm.init_model(3, 2, 5, weight_init_sigma=0.8, seed=7)
    v0 = random_binary_images(rng, 5)[None]
    hidden, visible = spy_conditionals(monkeypatch)
    sums = crbm._cd_sums(model, v0, 3, derive_rng(14, "draws"))
    (got,) = chunks_seen(hidden, visible, 3)
    want = replay_chain(model, v0, 3, derive_rng(14, "draws"))
    for name, a, b in zip(("v_k", "h0", "hk", "v1_probs"), got[1:], want,
                          strict=True):
        assert a.dtype == np.float64 and np.array_equal(a, b), name
    assert_same_sums(sums, replay_sums(model, v0, 3, derive_rng(14, "draws"), 1))


def test_one_float32_draw_per_chunk_carries_the_spare_half_word_over(
        monkeypatch):
    # 3 filters of 2x2 on 5x5: 48 hidden and 25 visible uniforms a step,
    # an odd count, so a one-image chain starts every other step's float32
    # draws on the spare 32-bit half of a 64-bit output; the chunk's one
    # draw must hand every image the uniforms its own chain would draw
    model = crbm.init_model(3, 2, 5, weight_init_sigma=0.8, seed=18)
    assert (model.num_hidden + model.num_visible) % 2 == 1
    v0 = random_binary_images(derive_rng(18, "odd"), 5, 3).astype(np.float32)
    batched, replayed = derive_rng(18, "u"), derive_rng(18, "u")
    with monkeypatch.context() as patch:
        hidden, visible = spy_conditionals(patch)
        sums = crbm._cd_sums(model, v0, 2, batched)
    (chunk,) = chunks_seen(hidden, visible, 2)
    want = replay_batch(model, v0, 2, replayed)
    for got, expected in zip(chunk[1:], want, strict=True):
        assert got.dtype == np.float32 and np.array_equal(got, expected)
    assert batched.bit_generator.state == replayed.bit_generator.state
    assert_same_sums(sums, replay_sums(model, v0, 2, derive_rng(18, "u"), 3))


def test_a_cd_chunk_holds_one_stack_of_hidden_maps_besides_its_uniforms():
    # a paper-like float32 chunk: one 128x128 image, 64 filters of 5x5
    model = crbm.init_model(64, 5, 128, seed=19)
    v0 = derive_rng(19, "mem").random((1, 128, 128)).astype(np.float32)
    crbm._cd_sums(model, v0, 1, derive_rng(19, "u"))  # lazy set-up first
    tracemalloc.start()
    try:
        crbm._cd_sums(model, v0, 1, derive_rng(19, "u"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    hidden = 4 * model.num_hidden
    uniforms = 4 * (model.num_hidden + model.num_visible)
    # the peak is the data-phase probabilities and the uniforms drawn to
    # sample them (7.6 MiB here).  Holding those probabilities through the
    # reconstruction, or a visible sample that is a view into the
    # uniforms, keeps a second stack and an im2col copy alive (over 9 MiB)
    assert peak <= hidden + uniforms + hidden // 16


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("chain", ["_one_thread_chain", "_two_thread_chain"])
def test_each_chain_adds_its_statistics_to_the_sums_it_is_given(
        monkeypatch, chain, k):
    # _cd_sums hands every chunk of a call the same g_w and g_c, so a
    # chain adds to them in place, and what it returns is not changed by
    # what they already hold.  Each case runs the chain, and its bound
    # argument, that _cd_sums picks for an image that draws one uniform
    # fewer than _CD_CHUNK_DRAWS (the one-thread chain) or as many (the
    # two-thread chain, under CD-1 only: CD-2 runs on this thread)
    model = crbm.init_model(3, 3, 6, weight_init_sigma=0.5, seed=33)
    v0 = derive_rng(33, "grey").random((1, 6, 6)).astype(np.float32)
    per_image = k * (model.num_hidden + model.num_visible)
    picked, submitted, worker = [], [], crbm._worker
    with monkeypatch.context() as patch:
        patch.setattr(crbm, "_CD_CHUNK_DRAWS",
                      per_image + (chain == "_one_thread_chain"))
        for name in ("_one_thread_chain", "_two_thread_chain"):
            patch.setattr(crbm, name, lambda *_, name=name, **bound:
                          picked.append((name, bound)) or (0.0, 0.0))
        crbm._cd_sums(model, v0, k, derive_rng(33, "u"))
    ((name, bound),) = picked
    two_threads = chain == "_two_thread_chain" and k == 1
    assert name == ("_two_thread_chain" if two_threads else "_one_thread_chain")
    monkeypatch.setattr(crbm, "_worker",
                        lambda: submitted.append(1) or worker())
    run = functools.partial(getattr(crbm, name), **bound)
    start_w = derive_rng(33, "w").normal(size=model.filters.shape)
    start_c = derive_rng(33, "c").normal(size=model.num_filters)
    sums = []
    for w, c in ((np.zeros_like(start_w), np.zeros_like(start_c)),
                 (start_w.copy(), start_c.copy())):
        out = run(model, v0, derive_rng(33, "u"), w, c)
        sums.append((out, w, c))
    (out_zero, w_zero, c_zero), (out_start, w_start, c_start) = sums
    # a two-thread chain submits 4 calls to the worker
    assert len(submitted) == (2 * 4 if two_threads else 0)
    if not two_threads:
        g_b = float(v0.sum(dtype=np.float64) - out_zero[0])
        assert_same_sums((w_zero, g_b, c_zero, out_zero[1]),
                         replay_sums(model, v0, k, derive_rng(33, "u"), 1))
    assert out_start == out_zero
    assert np.abs(w_zero).max() > 0 and np.abs(c_zero).max() > 0
    np.testing.assert_allclose(w_start, start_w + w_zero, rtol=0, atol=1e-12)
    np.testing.assert_allclose(c_start, start_c + c_zero, rtol=0, atol=1e-12)


def expit_hidden_probs(model, pixels):
    act = kernels.corr_valid(pixels, model.filters.astype(pixels.dtype))
    act += model.hidden_biases[:, None, None].astype(pixels.dtype)
    return expit(act, out=act)


def expit_visible_probs(model, hmaps):
    act = kernels.conv_full(hmaps, model.filters.astype(hmaps.dtype))
    act += hmaps.dtype.type(model.visible_bias)
    return expit(act, out=act)


def test_cd_update_samples_equal_those_of_the_expit_conditionals(monkeypatch):
    # quick-start shapes: 16 images of 16x16, 16 filters of 5x5
    model = crbm.init_model(16, 5, 16, weight_init_sigma=0.3, seed=8)
    model = crbm.CrbmModel(filters=model.filters, visible_bias=-0.2,
                           hidden_biases=np.linspace(-1.0, 1.0, 16),
                           input_size=16)
    cfg = crbm.CrbmConfig(learning_rate=0.05, cd_steps=2, batch_size=16)
    rng = derive_rng(15, "grey")
    batch = np.stack([rng.random((16, 16)) for _ in range(16)])

    def run():
        with monkeypatch.context() as patch:
            hidden, visible = spy_conditionals(patch)
            updated, _ = crbm.cd_update(model, batch, cfg, derive_rng(15, "u"))
        chunks = chunks_seen(hidden, visible, 2)
        return updated, np.concatenate([chunk[1] for chunk in chunks])

    got, got_vk = run()
    monkeypatch.setattr(crbm, "_hidden_probs", expit_hidden_probs)
    monkeypatch.setattr(crbm, "_visible_probs", expit_visible_probs)
    want, want_vk = run()
    assert got_vk.shape == (16, 16, 16) and got_vk.dtype == np.float32
    assert np.array_equal(got_vk, want_vk)
    # same samples, so the visible bias, a sum of binary pixels, is equal;
    # the filter and hidden-bias steps sum float32 probabilities that the
    # two sigmoids round differently, so they agree to float32 precision:
    # within 32 float32 eps of the largest step (about 6 were seen)
    assert got.visible_bias == pytest.approx(want.visible_bias, rel=1e-12)
    for got_p, want_p, before in ((got.filters, want.filters, model.filters),
                                  (got.hidden_biases, want.hidden_biases,
                                   model.hidden_biases)):
        step = np.abs(want_p - before).max()
        np.testing.assert_allclose(got_p, want_p, rtol=0,
                                   atol=32 * np.finfo(np.float32).eps * step)


@pytest.mark.parametrize("visible_bias", [200.0, -200.0])
def test_recon_cross_entropy_is_finite_at_saturated_float32_probabilities(
        monkeypatch, visible_bias):
    # float32 rounds 1 - 1e-12 to 1, so the clip must not be float32
    model = crbm.CrbmModel(filters=small_model().filters,
                           visible_bias=visible_bias,
                           hidden_biases=np.zeros(2), input_size=3)
    batch = random_binary_images(derive_rng(16, "sat"), 3, 4)
    hidden, visible = spy_conditionals(monkeypatch)
    _, diag = crbm.cd_update(model, batch, crbm.CrbmConfig(batch_size=4),
                             derive_rng(16, "u"))
    (chunk,) = chunks_seen(hidden, visible, 1)
    v1_probs = chunk[4]
    saturated = 1.0 if visible_bias > 0 else 0.0
    assert v1_probs.dtype == np.float32
    assert (v1_probs == saturated).all()
    # each pixel the saturated probability gets wrong costs about
    # -log(1e-12): the probability left to it by the float64 clip
    wrong = np.mean(batch != saturated)
    assert 0.0 < wrong < 1.0
    clipped = np.clip(saturated, 1e-12, 1.0 - 1e-12)
    miss = 1.0 - clipped if saturated else clipped
    assert np.isfinite(diag["recon_cross_entropy"])
    assert diag["recon_cross_entropy"] == pytest.approx(-np.log(miss) * wrong,
                                                        rel=1e-9)


def test_float32_cd_filter_gradient_matches_float64_at_paper_shape():
    # the paper's CRBM: 64 filters of 5x5 on a 256x256 slice, CD-1
    model = crbm.init_model(64, 5, 256, seed=17)
    spec = SynthSpec(image_size=256, noise_level=0.5, seed=17)
    v0 = synth.make_sample(spec, 1, 0).pixels[None].astype(np.float32)
    g_w = crbm._cd_sums(model, v0, 1, derive_rng(17, "cd"))[0]
    # the two-thread chain draws these samples (test_crbm_worker.py pins it)
    vk, p0, pk, _ = replay_batch(model, v0, 1, derive_rng(17, "cd"))
    v, vk, p0, pk = (a.astype(np.float64) for a in (v0, vk, p0, pk))
    data_phase = kernels.corr_grad(v, p0)
    want = data_phase - kernels.corr_grad(vk, pk)
    # the gradient is a small difference of two large phases ...
    assert np.abs(data_phase).max() > 5 * np.abs(want).max()
    # ... and still within 5e-5 of float64 relative to its largest entry;
    # the error grows with that ratio: 9.5e-6 was seen here (ratio 12),
    # up to 1.9e-5 on other slices (ratio 24)
    assert np.abs(g_w - want).max() <= 5e-5 * np.abs(want).max()


def malformed_stacks():
    """(stack, error) of stacks of 3x3 images that an entry point refuses."""
    good = np.full((4, 3, 3), 0.5)
    out = []
    for where, value in (((1, 0, 0), np.nan), ((0, 2, 1), 1.5),
                         ((3, 1, 1), -0.25), ((2, 2, 2), np.inf)):
        bad = good.copy()
        bad[where] = value
        out.append((bad, ValueError))
    out.append((np.full((4, 4, 4), 0.5), ShapeMismatchError))  # wrong side
    out.append((np.full((4, 3, 4), 0.5), ShapeMismatchError))
    # a float32 stack is checked in float32, as it is kept
    out += [(bad.astype(np.float32), error) for bad, error in out[:4]]
    return out


ENTRY_POINTS = {
    "train": lambda model, stack: crbm.train(
        model, stack, crbm.CrbmConfig(epochs=1, batch_size=2)),
    "cd_update": lambda model, stack: crbm.cd_update(
        model, stack, crbm.CrbmConfig(), derive_rng(0)),
    "extract_feature_map": lambda model, stack: crbm.extract_feature_map(
        model, stack),
}


@pytest.mark.parametrize("stack, error", malformed_stacks())
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_refuse_malformed_image_stacks(entry, stack, error):
    call = ENTRY_POINTS[entry]
    call(small_model(), np.full((4, 3, 3), 0.5))  # a well-formed stack passes
    with pytest.raises(error):
        call(small_model(), stack)


@pytest.mark.parametrize("shape", [(3, 3), (2, 2, 3, 3)],
                         ids=["image", "4-axes"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_training_entry_points_take_a_stack_not_one_image(entry, shape):
    # one image and a stack of stacks are refused alike, and the error
    # names the shape the caller passed, not a row's
    with pytest.raises(ShapeMismatchError, match=re.escape(str(shape))):
        ENTRY_POINTS[entry](small_model(), np.full(shape, 0.5))


def test_cd_update_rejects_empty_batch():
    cfg = crbm.CrbmConfig()
    with pytest.raises(TrainingError):
        crbm.cd_update(small_model(), np.empty((0, 3, 3)), cfg, derive_rng(0))


def test_train_names_the_epoch_and_batch_where_parameters_diverge():
    data = random_binary_images(derive_rng(3, "div"), 3, 4)
    cfg = crbm.CrbmConfig(learning_rate=1e308, epochs=3, batch_size=2)
    # batch 0 takes the filters to ~1e307: finite in float64, but inf in
    # the next batch's float32 chain, so batch 0 is refused, with no numpy
    # warning (the suite turns warnings into errors)
    with pytest.raises(
            TrainingError,
            match=r"^parameters beyond float32 range at epoch 0, batch 0$"):
        crbm.train(small_model(), data, cfg)


def test_cd_update_refuses_a_given_model_beyond_float32_range():
    # filters of ~1e300 are finite in float64 but inf once the chain casts
    # them to float32; they are refused before that cast, with no numpy
    # warning (the suite turns warnings into errors), and the message
    # blames the given model, not the update
    model = crbm.init_model(2, 2, 3, weight_init_sigma=1e300, seed=0)
    data = random_binary_images(derive_rng(3, "big"), 3, 4)
    with pytest.raises(
            TrainingError,
            match=r"^given model's parameters beyond float32 range "
                  r"at epoch 0, batch 0$"):
        crbm.train(model, data, crbm.CrbmConfig(epochs=1, batch_size=2))


def test_train_rejects_empty_data():
    with pytest.raises(TrainingError):
        crbm.train(small_model(), np.empty((0, 3, 3)), crbm.CrbmConfig())


def test_train_zero_epochs_returns_model_unchanged():
    model = small_model()
    data = random_binary_images(derive_rng(2, "z"), 3, 8)
    out, history = crbm.train(model, data, crbm.CrbmConfig(epochs=0))
    assert np.array_equal(out.filters, model.filters)
    assert history.recon_cross_entropy == []


def test_train_is_deterministic_per_seed():
    data = random_binary_images(derive_rng(3, "d"), 3, 12)
    cfg = crbm.CrbmConfig(learning_rate=0.05, epochs=3, batch_size=4)
    a, hist_a = crbm.train(small_model(), data, cfg, seed=7)
    b, hist_b = crbm.train(small_model(), data, cfg, seed=7)
    assert np.array_equal(a.filters, b.filters)
    assert hist_a.recon_cross_entropy == hist_b.recon_cross_entropy

    other = crbm.train(small_model(), data, cfg, seed=8)[0]
    assert not np.array_equal(a.filters, other.filters)


def test_train_on_a_float32_stack_equals_train_on_its_float64_source():
    # the chain runs in float32 either way, on the same float32 values
    data = derive_rng(5, "f32").random((10, 6, 6))
    assert not np.array_equal(data.astype(np.float32), data)
    model = crbm.init_model(3, 3, 6, weight_init_sigma=0.3, seed=5)
    cfg = crbm.CrbmConfig(learning_rate=0.1, epochs=3, batch_size=4)
    a, hist_a = crbm.train(model, data, cfg, seed=9)
    b, hist_b = crbm.train(model, data.astype(np.float32), cfg, seed=9)
    for name in ("filters", "visible_bias", "hidden_biases"):
        assert (np.asarray(getattr(a, name)).tobytes()
                == np.asarray(getattr(b, name)).tobytes())
    assert hist_a == hist_b


def test_cd_update_hands_float32_views_to_the_chain_uncopied(monkeypatch):
    # a float32 training stack's batch reaches cd_update as views, which
    # reach _cd_sums uncopied; it stacks and checks one chunk at a time.
    # Stacking the whole batch held a float32 copy of it beside the chain
    # (a peak of 1.03 batches)
    model = crbm.init_model(4, 5, 64, seed=3)
    stack = derive_rng(3, "views").random((12, 64, 64)).astype(np.float32)
    seen = []

    def cd_sums(model, pixels, k, rng):
        seen.append(pixels)
        return (np.zeros_like(model.filters), 0.0,
                np.zeros(model.num_filters), 0.0)

    monkeypatch.setattr(crbm, "_cd_sums", cd_sums)
    crbm.cd_update(model, list(stack), crbm.CrbmConfig(), derive_rng(0))  # warm-up
    for batch in (list(stack), stack):
        tracemalloc.start()
        try:
            crbm.cd_update(model, batch, crbm.CrbmConfig(), derive_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(seen[-1]) == len(stack)
        assert all(image.dtype == np.float32 and np.shares_memory(image, stack)
                   for image in seen[-1])
        assert np.asarray(seen[-1]).tobytes() == stack.tobytes()
        assert peak < 0.1 * stack.nbytes
    # a float64 batch is checked in float64 and reaches the chain as its
    # float32 cast
    crbm.cd_update(model, stack.astype(np.float64), crbm.CrbmConfig(), derive_rng(0))
    assert all(image.dtype == np.float32 for image in seen[-1])
    assert np.asarray(seen[-1]).tobytes() == stack.tobytes()


def test_cd_sums_of_a_list_of_images_are_those_of_their_stack(monkeypatch):
    model = crbm.init_model(3, 3, 8, weight_init_sigma=0.3, seed=6)
    stack = derive_rng(6, "list").random((7, 8, 8)).astype(np.float32)
    for k in (1, 2):
        # chunks of 3, 3 and 1 images
        monkeypatch.setattr(crbm, "_CD_CHUNK_DRAWS",
                            3 * k * (model.num_hidden + model.num_visible))
        got = crbm._cd_sums(model, list(stack), k, derive_rng(6, "u", k))
        want = crbm._cd_sums(model, stack, k, derive_rng(6, "u", k))
        assert_same_sums(got, want)


@pytest.mark.parametrize("as_list", [False, True])
def test_cd_update_checks_every_chunk_of_a_float32_batch(monkeypatch, as_list):
    model = crbm.init_model(3, 3, 8, weight_init_sigma=0.3, seed=6)
    stack = derive_rng(6, "chunks").random((5, 8, 8)).astype(np.float32)
    # one image a chunk: the chain checks the last image on its own
    monkeypatch.setattr(crbm, "_CD_CHUNK_DRAWS", model.num_hidden)
    stack[4, 7, 7] = 1.5
    batch = list(stack) if as_list else stack
    with pytest.raises(ValueError, match=r"within \[0, 1\]"):
        crbm.cd_update(model, batch, crbm.CrbmConfig(), derive_rng(0))


def test_extract_feature_map_reads_float32_images_as_float64():
    model = crbm.init_model(3, 3, 8, weight_init_sigma=0.3, seed=4)
    images = derive_rng(4, "x32").random((5, 8, 8)).astype(np.float32)
    maps = crbm.extract_feature_map(model, images)
    assert maps.dtype == np.float64
    want = crbm.extract_feature_map(model, images.astype(np.float64))
    assert maps.tobytes() == want.tobytes()


def test_train_history_has_one_entry_per_epoch():
    data = random_binary_images(derive_rng(4, "h"), 3, 10)
    _, history = crbm.train(small_model(), data,
                            crbm.CrbmConfig(learning_rate=0.01, epochs=5))
    assert len(history.recon_cross_entropy) == 5
    assert len(history.mean_abs_dw) == 5
    assert all(np.isfinite(history.recon_cross_entropy))


def test_training_reduces_reconstruction_error_on_stripes(stripe_images):
    model = crbm.init_model(4, 3, 8, weight_init_sigma=0.01, seed=1)
    cfg = crbm.CrbmConfig(learning_rate=0.05, cd_steps=1, epochs=10,
                          batch_size=16)
    _, history = crbm.train(model, stripe_images, cfg, seed=1)
    assert history.recon_cross_entropy[-1] < 0.5 * history.recon_cross_entropy[0]


def test_training_improves_exact_likelihood_on_tiny_data():
    # on an enumerable model the true objective itself should go up
    rng = derive_rng(5, "lik")
    data = np.stack([np.array([[1., 1., 1.],
                               [0., 0., 0.],
                               [1., 1., 1.]])] * 6)
    model = crbm.init_model(1, 2, 3, weight_init_sigma=0.1, seed=2)
    before = exact_log_likelihood(model, data)
    cfg = crbm.CrbmConfig(learning_rate=0.2, cd_steps=1, epochs=40,
                          batch_size=6)
    trained, _ = crbm.train(model, data, cfg, seed=3)
    after = exact_log_likelihood(trained, data)
    assert after > before


def test_sampled_cd_estimate_converges_to_enumerated_expectation():
    # bridge between the Monte Carlo estimator and the closed-form
    # expectation used by the gradient-quality checks
    rng = derive_rng(6, "bridge")
    model = random_tiny_model(rng, 3, 2, 1)
    data = random_binary_images(rng, 3, 4)
    exact = expected_cd_gradient(model, data, k=2)

    reps = 3000
    draws = np.empty((reps, exact.size))
    for i in range(reps):
        est = crbm._cd_sums(model, data, 2, derive_rng(6, "rep", i))[:3]
        draws[i] = flatten(*est)
    mean = draws.mean(axis=0)
    sem = draws.std(axis=0, ddof=1) / np.sqrt(reps)
    np.testing.assert_array_less(np.abs(mean - exact), 6.0 * sem + 1e-3)
