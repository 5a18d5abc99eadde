"""Exact-enumeration checks of the CRBM's probabilistic semantics.

Models are kept tiny enough that hidden and visible state spaces can be
enumerated outright, giving independent ground truth for the free
energy, the partition function, and the exact likelihood gradient.
"""

import itertools
import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import expit, logsumexp

from crbm_radiomics import crbm, kernels
from crbm_radiomics.errors import (EnumerationGuardError, ModelFormatError,
                                   ShapeMismatchError)
from crbm_radiomics.seeding import derive_rng


def random_tiny_model(rng, n, k, m, scale=0.8):
    return crbm.CrbmModel(filters=rng.normal(0, scale, size=(m, k, k)),
                          visible_bias=float(rng.normal(0, 0.3)),
                          hidden_biases=rng.normal(0, 0.3, size=m),
                          input_size=n)


def random_binary_image(rng, n):
    return (rng.random((n, n)) < 0.5).astype(np.float64)


def all_bit_configs(n_bits):
    ints = np.arange(1 << n_bits, dtype=np.uint32)
    return ((ints[:, None] >> np.arange(n_bits, dtype=np.uint32)) & 1) \
        .astype(np.float64)


# combos keep n_visible <= 16 and n_hidden <= 18 so enumeration is exact
TINY_COMBOS = ((3, 1, 1), (3, 1, 2), (3, 2, 1), (3, 2, 2),
               (4, 2, 1), (4, 2, 2), (4, 1, 1))


def test_model_shape_properties():
    model = crbm.init_model(3, 2, 5, seed=0)
    assert model.num_filters == 3
    assert model.kernel_size == 2
    assert model.hidden_side == 4
    assert model.num_visible == 25
    assert model.num_hidden == 3 * 16


def test_hidden_probabilities_match_manual_sigmoid():
    rng = derive_rng(1, "hp")
    model = random_tiny_model(rng, 4, 2, 2)
    v = random_binary_image(rng, 4)
    got = crbm.extract_feature_map(model, v)
    for m in range(2):
        for i in range(3):
            for j in range(3):
                act = np.sum(v[i:i + 2, j:j + 2] * model.filters[m])
                want = expit(act + model.hidden_biases[m])
                assert got[m, i, j] == pytest.approx(want, abs=1e-12)


# activations over the whole range the sigmoid sees, with extra weight on
# -745..-709, where exp(-x) overflows but expit(x) is still a subnormal
ACTIVATIONS = st.one_of(st.floats(-800.0, 800.0), st.floats(-750.0, -704.0))


@st.composite
def activations_and_bias(draw):
    shape = draw(hnp.array_shapes(min_dims=3, max_dims=3, max_side=6))
    act = draw(hnp.arrays(np.float64, shape, elements=ACTIVATIONS))
    if draw(st.booleans()):
        bias = draw(hnp.arrays(np.float64, (shape[0], 1, 1),
                               elements=st.floats(-5.0, 5.0)))
    else:
        bias = draw(st.floats(-5.0, 5.0))
    return act, bias


@settings(max_examples=200, deadline=None)
@given(case=activations_and_bias())
def test_sigmoid_matches_expit(case):
    act, bias = case
    want = expit(act + bias)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = crbm._sigmoid(act.copy(), bias)
    assert got.shape == act.shape
    assert ((got >= 0.0) & (got <= 1.0)).all()
    normal = want >= 1e-300
    err = np.abs(got - want)
    assert (err[normal] <= 1e-15 * want[normal]).all()
    assert (err[~normal] <= 1e-300).all()


# float32: exp(-x) overflows below about -88.7, where expit(x) is at most
# a float32 subnormal; extra weight on -110..-80 around that edge
ACTIVATIONS32 = st.one_of(st.floats(-200.0, 200.0, width=32),
                          st.floats(-110.0, -80.0, width=32))
F32 = np.finfo(np.float32)


@st.composite
def float32_activations_and_bias(draw):
    shape = draw(hnp.array_shapes(min_dims=3, max_dims=3, max_side=6))
    act = draw(hnp.arrays(np.float32, shape, elements=ACTIVATIONS32))
    if draw(st.booleans()):
        bias = draw(hnp.arrays(np.float32, (shape[0], 1, 1),
                               elements=st.floats(-5.0, 5.0, width=32)))
    else:
        bias = np.float32(draw(st.floats(-5.0, 5.0, width=32)))
    return act, bias


@settings(max_examples=200, deadline=None)
@given(case=float32_activations_and_bias())
@example(case=(np.array([[[-88.0, -88.72, -88.8, -89.0, -100.0, -3.0e38]]],
                        dtype=np.float32), np.float32(0.0)))
def test_float32_sigmoid_matches_float64_expit(case):
    act, bias = case
    biased = act + bias  # rounded to float32, as the sigmoid negates it
    want = expit(biased.astype(np.float64))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = crbm._sigmoid(act.copy(), bias)
    assert got.dtype == np.float32 and got.shape == act.shape
    assert ((got >= 0.0) & (got <= 1.0)).all()
    # float32 tolerance: exp's own error plus two roundings stay within
    # 4 float32 eps relative (about 2 were seen); below the smallest normal
    # float32 the result is within one smallest normal
    normal = want >= F32.tiny
    err = np.abs(got - want)
    assert (err[normal] <= 4 * F32.eps * want[normal]).all()
    assert (err[~normal] <= F32.tiny).all()
    # where float32 exp overflows the result is exactly 0
    overflow = -biased.astype(np.float64) > np.log(F32.max)
    assert (got[overflow] == 0.0).all()


def test_visible_probabilities_match_manual_sum():
    rng = derive_rng(2, "vp")
    model = random_tiny_model(rng, 4, 2, 2)
    h = (rng.random((2, 3, 3)) < 0.5).astype(float)
    got = crbm._visible_probs(model, h)
    for u in range(4):
        for w in range(4):
            act = model.visible_bias
            for m in range(2):
                for i in range(3):
                    for j in range(3):
                        r, c = u - i, w - j
                        if 0 <= r < 2 and 0 <= c < 2:
                            act += h[m, i, j] * model.filters[m, r, c]
            assert got[u, w] == pytest.approx(expit(act), abs=1e-12)


def test_energy_matches_handwritten_sum():
    rng = derive_rng(3, "en")
    model = random_tiny_model(rng, 3, 2, 1)
    v = random_binary_image(rng, 3)
    h = (rng.random((1, 2, 2)) < 0.5).astype(float)
    want = 0.0
    for i in range(2):
        for j in range(2):
            act = np.sum(v[i:i + 2, j:j + 2] * model.filters[0])
            want -= act * h[0, i, j]
    want -= model.visible_bias * v.sum()
    want -= model.hidden_biases[0] * h[0].sum()
    assert crbm.energy(model, v, h) == pytest.approx(want, abs=1e-12)


def test_free_energy_equals_hidden_enumeration_handwritten():
    # exp(-F(v)) must equal sum_h exp(-E(v,h)) over every hidden state;
    # small enough to loop over literal hidden states
    rng = derive_rng(4, "fe")
    model = random_tiny_model(rng, 3, 2, 2)
    v = random_binary_image(rng, 3)
    side = model.hidden_side
    total = []
    for bits in itertools.product((0.0, 1.0), repeat=2 * side * side):
        h = np.array(bits).reshape(2, side, side)
        total.append(-crbm.energy(model, v, h))
    assert -crbm.free_energy(model, v) == pytest.approx(
        logsumexp(total), abs=1e-9)


def test_free_energy_equals_hidden_enumeration_vectorized():
    # same identity across the whole combo list, enumerating hidden
    # states as rows of a bit matrix: -E = H @ (act + c) + b * sum(v)
    rng = derive_rng(4, "fev")
    for n, k, m in TINY_COMBOS:
        model = random_tiny_model(rng, n, k, m)
        v = random_binary_image(rng, n)
        side = model.hidden_side
        act = np.empty((m, side, side))
        for mi in range(m):
            for i in range(side):
                for j in range(side):
                    act[mi, i, j] = np.sum(
                        v[i:i + k, j:j + k] * model.filters[mi]
                    ) + model.hidden_biases[mi]
        bits = all_bit_configs(m * side * side)
        neg_energy = bits @ act.ravel() + model.visible_bias * v.sum()
        assert -crbm.free_energy(model, v) == pytest.approx(
            logsumexp(neg_energy), abs=1e-9)


def test_model_probabilities_sum_to_one():
    rng = derive_rng(5, "z")
    for n, k, m in TINY_COMBOS:
        model = random_tiny_model(rng, n, k, m)
        free = crbm._enumerated_free_energies(model)
        log_total = logsumexp(-free) - crbm.log_partition(model)
        assert np.exp(log_total) == pytest.approx(1.0, abs=1e-9)


def test_enumeration_guard_refuses_large_models():
    model = crbm.init_model(1, 3, 5, seed=0)  # 25 visible units
    with pytest.raises(EnumerationGuardError):
        crbm.log_partition(model)


def test_exact_log_likelihood_is_a_log_probability():
    rng = derive_rng(6, "ll")
    model = random_tiny_model(rng, 3, 2, 1)
    data = random_binary_image(rng, 3)[None]
    ll = crbm.exact_log_likelihood(model, data)
    assert ll < 0.0
    # sanity: likelihood of the full state space sums to 1, so any single
    # configuration has probability < 1


def test_exact_gradient_matches_finite_differences():
    rng = derive_rng(7, "fd")
    eps = 1e-5
    for trial in range(6):
        n, k, m = TINY_COMBOS[trial % len(TINY_COMBOS)]
        model = random_tiny_model(rng, n, k, m)
        data = np.stack([random_binary_image(rng, n) for _ in range(3)])
        grad = crbm.exact_log_likelihood_grad(model, data)

        def ll(mod):
            return crbm.exact_log_likelihood(mod, data)

        def perturbed(df=0.0, db=0.0, dc=None):
            return crbm.CrbmModel(
                filters=model.filters + df,
                visible_bias=model.visible_bias + db,
                hidden_biases=model.hidden_biases + (0.0 if dc is None else dc),
                input_size=n)

        for mi in range(m):
            for r in range(k):
                for c in range(k):
                    d = np.zeros_like(model.filters)
                    d[mi, r, c] = eps
                    fd = (ll(perturbed(df=d)) - ll(perturbed(df=-d))) / (2 * eps)
                    rel = abs(fd - grad.filters[mi, r, c]) / max(abs(fd), 1e-4)
                    assert rel < 1e-4
        fd = (ll(perturbed(db=eps)) - ll(perturbed(db=-eps))) / (2 * eps)
        assert abs(fd - grad.visible_bias) / max(abs(fd), 1e-4) < 1e-4
        for mi in range(m):
            d = np.zeros(m)
            d[mi] = eps
            fd = (ll(perturbed(dc=d)) - ll(perturbed(dc=-d))) / (2 * eps)
            assert abs(fd - grad.hidden_biases[mi]) / max(abs(fd), 1e-4) < 1e-4


def test_oracles_and_feature_maps_compute_in_float64(monkeypatch):
    # the training chain runs in float32; every other entry point must stay
    # float64 through the same conditionals and kernels
    seen = []

    def spying(fn):
        def spy(*args):
            out = fn(*args)
            seen.extend(a.dtype for a in (*args, out)
                        if isinstance(a, (np.ndarray, np.generic)))
            return out
        return spy

    for name in ("corr_valid", "conv_full", "corr_grad"):
        monkeypatch.setattr(kernels, name, spying(getattr(kernels, name)))
    monkeypatch.setattr(crbm, "_sigmoid", spying(crbm._sigmoid))
    rng = derive_rng(19, "dtype")
    model = random_tiny_model(rng, 3, 2, 2)
    data = np.stack([random_binary_image(rng, 3) for _ in range(3)])
    calls = {
        "cd_gradient_estimate": lambda: crbm.cd_gradient_estimate(
            model, data, 2, derive_rng(19, "cd")).filters,
        "gibbs_chain": lambda: crbm.gibbs_chain(
            model, data[0], 2, derive_rng(19, "gc")).hk_probs,
        "extract_feature_map": lambda: crbm.extract_feature_map(model, data[0]),
        "free_energy": lambda: np.float64(crbm.free_energy(model, data[0])),
        "exact_log_likelihood_grad": lambda: crbm.exact_log_likelihood_grad(
            model, data).filters,
    }
    for name, call in calls.items():
        seen.clear()
        assert call().dtype == np.float64, name
        assert seen and set(seen) == {np.dtype(np.float64)}, name
    seen.clear()
    crbm.cd_update(model, data, crbm.CrbmConfig(), derive_rng(19, "u"))
    assert set(seen) == {np.dtype(np.float32)}


def test_gibbs_chain_shapes_and_binary_samples():
    rng = derive_rng(8, "gc")
    model = random_tiny_model(rng, 4, 2, 2)
    v0 = random_binary_image(rng, 4)
    res = crbm.gibbs_chain(model, v0, 3, derive_rng(8, "chain"))
    assert set(np.unique(res.v_k)) <= {0.0, 1.0}
    for probs in (res.h0_probs, res.hk_probs):
        assert probs.shape == (2, 3, 3)
        assert probs.min() >= 0.0 and probs.max() <= 1.0
    assert res.v1_probs.shape == (4, 4)
    assert res.v1_probs.min() >= 0.0 and res.v1_probs.max() <= 1.0


def test_gibbs_chain_is_reproducible_for_equal_streams():
    rng = derive_rng(9, "gr")
    model = random_tiny_model(rng, 4, 2, 1)
    v0 = random_binary_image(rng, 4)
    a = crbm.gibbs_chain(model, v0, 5, derive_rng(42, "x"))
    b = crbm.gibbs_chain(model, v0, 5, derive_rng(42, "x"))
    assert np.array_equal(a.v_k, b.v_k)
    assert np.array_equal(a.hk_probs, b.hk_probs)


def test_sample_bernoulli_hits_exact_probabilities_in_the_limit():
    probs = np.array([[0.1, 0.5], [0.9, 0.0]])
    rng = derive_rng(10, "sb")
    draws = np.mean([crbm.sample_bernoulli(probs, rng) for _ in range(4000)],
                    axis=0)
    np.testing.assert_allclose(draws, probs, atol=0.03)


def test_save_load_round_trip_preserves_parameters(tmp_path):
    model = crbm.init_model(3, 2, 6, weight_init_sigma=0.2, seed=5)
    path = tmp_path / "model.json"
    crbm.save_model(model, path)
    back = crbm.load_model(path)
    assert np.array_equal(back.filters, model.filters)
    assert back.visible_bias == model.visible_bias
    assert np.array_equal(back.hidden_biases, model.hidden_biases)
    assert back.input_size == model.input_size


def test_load_model_rejects_other_files(tmp_path):
    (tmp_path / "x.json").write_text('{"format": "classifier"}\n')
    with pytest.raises(ModelFormatError, match="x.json: not a CRBM model"):
        crbm.load_model(tmp_path / "x.json")


def malformed_models():
    """(file bytes, what the error names) of files save_model never writes."""
    good = {"format": "crbm-model", "version": 1, "num_filters": 2,
            "kernel_size": 2, "input_size": 4, "visible_bias": 0.0,
            "hidden_biases": [0.0, 0.0], "filters": [[0.0] * 4, [0.0] * 4]}

    def doc(**over):
        return json.dumps({**good, **over}).encode()

    return [
        (b'{"format": "crbm-model"}', "missing num_filters"),
        (b"[1, 2]", "not a CRBM model"),
        (b"{", "invalid JSON"),
        (b'{"format": "crbm-model\xff"}', "invalid JSON"),
        (doc(filters=[[0.0] * 4]), "filters must be finite numbers of shape (2, 4)"),
        (doc(filters=[[0.0] * 4, [0.0] * 3]), "filters"),
        (doc(kernel_size=2.0), "must be integers"),
        (doc(kernel_size=5), "filters"),
        (doc(kernel_size=5, filters=[[0.0] * 25] * 2), "kernel 5 too large"),
        (doc(hidden_biases=[0.0]), "hidden_biases"),
        (doc(visible_bias=None), "visible_bias"),
        (doc(visible_bias=float("nan")), "visible_bias"),
        (doc(filters="abc"), "filters"),
    ]


@pytest.mark.parametrize("raw, named", malformed_models())
def test_load_model_names_the_file_of_a_malformed_model(tmp_path, raw, named):
    path = tmp_path / "bad-model.json"
    path.write_bytes(raw)
    with pytest.raises(ModelFormatError) as info:
        crbm.load_model(path)
    assert str(path) in str(info.value) and named in str(info.value)


def test_save_model_is_byte_deterministic(tmp_path):
    model = crbm.init_model(2, 3, 8, seed=11)
    crbm.save_model(model, tmp_path / "a.json")
    crbm.save_model(model, tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_feature_map_shapes_match_valid_correlation():
    model = crbm.init_model(6, 5, 32, seed=0)
    maps = crbm.extract_feature_map(model, np.zeros((32, 32)))
    assert maps.shape == (6, 28, 28)
    with pytest.raises(ShapeMismatchError):
        crbm.extract_feature_map(model, np.zeros((16, 16)))


def test_reduce_1x1_uniform_is_plain_mean():
    rng = derive_rng(11, "rw")
    maps = rng.random((4, 3, 3))
    weights = crbm.reduction_weights("uniform", 4)
    np.testing.assert_allclose(crbm.reduce_1x1(maps, weights),
                               maps.mean(axis=0), atol=1e-12)


def test_reduction_weights_random_projection_is_unit_norm_and_seeded():
    a = crbm.reduction_weights("random-projection", 8, seed=3)
    b = crbm.reduction_weights("random-projection", 8, seed=3)
    c = crbm.reduction_weights("random-projection", 8, seed=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)
