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
from crbm_radiomics.errors import ModelFormatError, ShapeMismatchError
from crbm_radiomics.seeding import derive_rng

from crbm_enumeration import (ENUMERATION_LIMIT, all_bit_configs,
                              dense_hidden_biases, dense_weights, energy,
                              exact_log_likelihood, exact_log_likelihood_grad,
                              free_energy, log_partition, random_binary_images,
                              random_tiny_model, shifted, visible_states)
from test_crbm_training import assert_same_sums, chunks_seen, spy_conditionals


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
    v = random_binary_images(rng, 4)
    got = crbm._hidden_probs(model, v[None])[0]
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
        got = kernels.sigmoid(act.copy(), bias)
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
        got = kernels.sigmoid(act.copy(), bias)
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
    got = crbm._visible_probs(model, h[None])[0]
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


@st.composite
def tiny_models_and_units(draw):
    """A CRBM of side <= 5, kernel <= side and at most 3 maps with random
    parameters, a grey image and binary hidden maps of its shapes."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, n))
    m = draw(st.integers(1, 3))
    side = n - k + 1
    params = st.floats(-4.0, 4.0)
    model = crbm.CrbmModel(
        filters=draw(hnp.arrays(np.float64, (m, k, k), elements=params)),
        visible_bias=draw(params),
        hidden_biases=draw(hnp.arrays(np.float64, m, elements=params)),
        input_size=n)
    v = draw(hnp.arrays(np.float64, (n, n), elements=st.floats(0.0, 1.0)))
    h = draw(hnp.arrays(np.float64, (m, side, side),
                        elements=st.sampled_from((0.0, 1.0))))
    return model, v, h


@settings(max_examples=200, deadline=None)
@given(case=tiny_models_and_units())
def test_production_conditionals_match_the_dense_oracle(case):
    # the enumeration oracles share no code with the package, so this is
    # what ties its two conditionals to the dense W they are built on
    model, v, h = case
    weights = dense_weights(model)
    want_h = expit(v.ravel() @ weights + dense_hidden_biases(model))
    want_v = expit(weights @ h.ravel() + model.visible_bias)
    np.testing.assert_allclose(crbm._hidden_probs(model, v[None]).ravel(),
                               want_h, rtol=0, atol=1e-12)
    np.testing.assert_allclose(crbm._visible_probs(model, h[None]).ravel(),
                               want_v, rtol=0, atol=1e-12)


def test_energy_matches_handwritten_sum():
    rng = derive_rng(3, "en")
    model = random_tiny_model(rng, 3, 2, 1)
    v = random_binary_images(rng, 3)
    h = (rng.random((1, 2, 2)) < 0.5).astype(float)
    want = 0.0
    for i in range(2):
        for j in range(2):
            act = np.sum(v[i:i + 2, j:j + 2] * model.filters[0])
            want -= act * h[0, i, j]
    want -= model.visible_bias * v.sum()
    want -= model.hidden_biases[0] * h[0].sum()
    assert energy(model, v, h) == pytest.approx(want, abs=1e-12)


def test_free_energy_equals_hidden_enumeration_handwritten():
    # exp(-F(v)) must equal sum_h exp(-E(v,h)) over every hidden state;
    # small enough to loop over literal hidden states
    rng = derive_rng(4, "fe")
    model = random_tiny_model(rng, 3, 2, 2)
    v = random_binary_images(rng, 3)
    side = model.hidden_side
    total = []
    for bits in itertools.product((0.0, 1.0), repeat=2 * side * side):
        h = np.array(bits).reshape(2, side, side)
        total.append(-energy(model, v, h))
    assert -free_energy(model, v) == pytest.approx(
        logsumexp(total), abs=1e-9)


def test_free_energy_equals_hidden_enumeration_vectorized():
    # same identity across the whole combo list, enumerating hidden
    # states as rows of a bit matrix: -E = H @ (act + c) + b * sum(v)
    rng = derive_rng(4, "fev")
    for n, k, m in TINY_COMBOS:
        model = random_tiny_model(rng, n, k, m)
        v = random_binary_images(rng, n)
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
        assert -free_energy(model, v) == pytest.approx(
            logsumexp(neg_energy), abs=1e-9)


def hidden_states(model):
    """Every binary stack of hidden maps, (2**n_hidden, M, H, H)."""
    side = model.hidden_side
    return all_bit_configs(model.num_hidden).reshape(-1, model.num_filters,
                                                     side, side)


def joint_log_partition(model):
    """log Z as the log-sum-exp of -E(v, h) over every joint state, from
    the energy alone.  Every hidden state is enumerated; -E is affine in
    v, so its sum over v is a product over the pixels i:
    sum_v exp(-E(v, h)) = exp(-E(0, h)) prod_i (1 + exp(E(0, h) - E(e_i, h))),
    where e_i is the image whose one 1 is pixel i."""
    n, hidden = model.input_size, hidden_states(model)
    images = np.vstack([np.zeros((1, n * n)), np.eye(n * n)]).reshape(-1, n, n)
    neg = np.stack([-energy(model, v, hidden) for v in images])
    return float(logsumexp(neg[0] + np.logaddexp(0.0, neg[1:] - neg[0]).sum(axis=0)))


def test_model_probabilities_sum_to_one():
    # log Z, the log-sum-exp of -F(v), against the energy summed over
    # every joint state: a free energy wrong in any term fails here
    rng = derive_rng(5, "z")
    for n, k, m in TINY_COMBOS:
        model = random_tiny_model(rng, n, k, m)
        want = joint_log_partition(model)
        assert log_partition(model) == pytest.approx(want, abs=1e-9)
        if model.num_visible + model.num_hidden <= ENUMERATION_LIMIT:
            # small enough to list the joint states outright
            joint = -energy(model, visible_states(model)[:, None],
                            hidden_states(model)[None])
            assert float(logsumexp(joint)) == pytest.approx(want, abs=1e-9)


def test_exact_log_likelihood_is_a_log_probability():
    rng = derive_rng(6, "ll")
    model = random_tiny_model(rng, 3, 2, 1)
    data = random_binary_images(rng, 3)[None]
    ll = exact_log_likelihood(model, data)
    assert ll < 0.0
    # sanity: likelihood of the full state space sums to 1, so any single
    # configuration has probability < 1


def test_exact_gradient_matches_finite_differences():
    rng = derive_rng(7, "fd")
    eps = 1e-5
    for trial in range(6):
        n, k, m = TINY_COMBOS[trial % len(TINY_COMBOS)]
        model = random_tiny_model(rng, n, k, m)
        data = random_binary_images(rng, n, 3)
        grad = exact_log_likelihood_grad(model, data)
        for got, step in zip(grad, eps * np.eye(grad.size)):
            fd = (exact_log_likelihood(shifted(model, step), data)
                  - exact_log_likelihood(shifted(model, -step), data)) / (2 * eps)
            assert abs(fd - got) / max(abs(fd), 1e-4) < 1e-4


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

    for name in ("corr_valid", "conv_full", "corr_grad", "sigmoid"):
        monkeypatch.setattr(kernels, name, spying(getattr(kernels, name)))
    rng = derive_rng(19, "dtype")
    model = random_tiny_model(rng, 3, 2, 2)
    data = random_binary_images(rng, 3, 3)
    calls = {
        "_cd_sums": lambda: crbm._cd_sums(
            model, data, 2, derive_rng(19, "cd"))[0],
        "extract_feature_map": lambda: crbm.extract_feature_map(model, data[:1]),
    }
    for name, call in calls.items():
        seen.clear()
        assert call().dtype == np.float64, name
        assert seen and set(seen) == {np.dtype(np.float64)}, name
    seen.clear()
    crbm.cd_update(model, data, crbm.CrbmConfig(), derive_rng(19, "u"))
    assert set(seen) == {np.dtype(np.float32)}


def test_the_cd_chain_shapes_and_binary_samples(monkeypatch):
    rng = derive_rng(8, "gc")
    model = random_tiny_model(rng, 4, 2, 2)
    v0 = random_binary_images(rng, 4)[None]
    hidden, visible = spy_conditionals(monkeypatch)
    crbm._cd_sums(model, v0, 3, derive_rng(8, "chain"))
    (chunk,) = chunks_seen(hidden, visible, 3)
    _, v_k, h0_probs, hk_probs, v1_probs = chunk
    # every visible state the chain passes through after v0 is binary
    for v, _ in hidden[1:]:
        assert set(np.unique(v)) <= {0.0, 1.0}
    assert v_k.shape == (1, 4, 4)
    for probs in (h0_probs, hk_probs):
        assert probs.shape == (1, 2, 3, 3)
        assert probs.min() >= 0.0 and probs.max() <= 1.0
    assert v1_probs.shape == (1, 4, 4)
    assert v1_probs.min() >= 0.0 and v1_probs.max() <= 1.0


def test_the_cd_chain_is_reproducible_for_equal_streams(monkeypatch):
    rng = derive_rng(9, "gr")
    model = random_tiny_model(rng, 4, 2, 1)
    v0 = random_binary_images(rng, 4)[None]
    runs = []
    for _ in range(2):
        with monkeypatch.context() as patch:
            hidden, visible = spy_conditionals(patch)
            sums = crbm._cd_sums(model, v0, 5, derive_rng(42, "x"))
        runs.append((sums, chunks_seen(hidden, visible, 5)[0]))
    (a, chunk_a), (b, chunk_b) = runs
    assert_same_sums(a, b)
    for x, y in zip(chunk_a, chunk_b, strict=True):
        assert x.tobytes() == y.tobytes()


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

    unversioned = {key: value for key, value in good.items() if key != "version"}
    return [
        (b'{"format": "crbm-model"}', "missing num_filters"),
        (doc(version=2), "version must be 1, got 2"),
        (doc(version="1"), 'version must be 1, got "1"'),
        (doc(version=True), "version must be 1, got true"),
        (json.dumps(unversioned).encode(), "version must be 1, got none"),
        (b"[1, 2]", "not a CRBM model"),
        (b"{", "invalid JSON"),
        (b'{"format": "crbm-model\xff"}', "invalid JSON"),
        (doc(filters=[[0.0] * 4]), "filters must be finite numbers of shape (2, 4)"),
        (doc(filters=[[0.0] * 4, [0.0] * 3]), "filters"),
        (doc(kernel_size=2.0), "must be integers"),
        (doc(kernel_size=5), "filters"),
        (doc(kernel_size=5, filters=[[0.0] * 25] * 2), "kernel 5 too large"),
        (doc(num_filters=1, kernel_size=0, hidden_biases=[0.0], filters=[[]]),
         "filters of at least 1x1"),
        (doc(num_filters=1, kernel_size=0, input_size=0, hidden_biases=[0.0],
             filters=[[]]), "filters of at least 1x1"),
        (doc(hidden_biases=[0.0]), "hidden_biases"),
        (doc(visible_bias=None), "visible_bias"),
        (doc(visible_bias=float("nan")), "visible_bias"),
        (doc(filters="abc"), "filters"),
        # numpy reads these as numbers, so only their JSON type refuses them
        (doc(visible_bias=True), "visible_bias"),
        (doc(hidden_biases=[0.0, False]), "hidden_biases"),
        (doc(filters=[[0.0] * 4, [0.0, 0.0, 0.0, True]]), "filters"),
        (doc(hidden_biases=[0.0, "1.5"]), "hidden_biases"),
        (doc(visible_bias=10 ** 400), "visible_bias"),
    ]


@pytest.mark.parametrize("raw, named", malformed_models())
def test_load_model_names_the_file_of_a_malformed_model(tmp_path, raw, named):
    path = tmp_path / "bad-model.json"
    path.write_bytes(raw)
    with pytest.raises(ModelFormatError) as info:
        crbm.load_model(path)
    assert str(path) in str(info.value) and named in str(info.value)


@pytest.mark.parametrize("depth, named", [
    (900, "filters must be finite numbers of shape (2, 4)"),
    (100_000, "invalid JSON")], ids=["900-deep", "100000-deep"])
def test_load_model_names_the_file_of_deeply_nested_filters(tmp_path, depth,
                                                            named):
    # deeper than the recursion limit of the shape check, then of the JSON
    # parser: a malformed model, not a RecursionError
    path = tmp_path / "deep-model.json"
    crbm.save_model(crbm.init_model(2, 2, 4), path)
    doc = json.loads(path.read_text())
    doc["filters"] = None
    path.write_text(json.dumps(doc).replace("null", "[" * depth + "]" * depth))
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
    assert crbm._hidden_probs(model, np.zeros((1, 32, 32))).shape == (1, 6, 28, 28)
    maps = crbm.extract_feature_map(model, np.zeros((1, 32, 32)))
    assert maps.shape == (1, 28, 28)
    with pytest.raises(ShapeMismatchError):
        crbm.extract_feature_map(model, np.zeros((1, 16, 16)))
