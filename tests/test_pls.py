"""Properties of the partial-least-squares reduction."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crbm_radiomics.errors import TrainingError
from crbm_radiomics.pls import apply_reducer, fit_pls, fit_reducer, vip_scores
from crbm_radiomics.seeding import derive_rng


def matrix_from(values):
    return np.asarray(values, dtype=np.float64)


def latent_scores(X, y, n_components):
    """apply_reducer of a latent reducer fit on (X, y), applied to X."""
    return apply_reducer(fit_reducer(X, y, n_components), X)


def random_problem(seed, n=40, p=8):
    rng = derive_rng(seed, "pls")
    X = matrix_from(rng.normal(size=(n, p)))
    y = (rng.random(n) < 0.5).astype(float)
    if len(np.unique(y)) < 2:
        y[0] = 1.0 - y[0]
    return X, y


def test_first_weight_is_proportional_to_cross_covariance():
    X, y = random_problem(1)
    model = fit_pls(X, y, 3)
    Xz = (X - X.mean(axis=0)) / X.std(axis=0)
    cov = Xz.T @ (y - y.mean())
    want = cov / np.linalg.norm(cov)
    if want[np.argmax(np.abs(want))] < 0:
        want = -want
    np.testing.assert_allclose(model.weights[:, 0], want, atol=1e-10)


def test_first_component_beats_random_directions_at_covariance():
    X, y = random_problem(2, n=60, p=10)
    model = fit_pls(X, y, 1)
    Xz = (X - X.mean(axis=0)) / X.std(axis=0)
    yc = y - y.mean()
    best = abs(float((Xz @ model.weights[:, 0]) @ yc))
    rng = derive_rng(2, "dirs")
    for _ in range(1000):
        d = rng.normal(size=10)
        d /= np.linalg.norm(d)
        assert abs(float((Xz @ d) @ yc)) <= best + 1e-9


def test_duplicate_columns_share_weight():
    rng = derive_rng(3, "dup")
    base = rng.normal(size=(30, 3))
    X = matrix_from(np.column_stack([base, base[:, 0]]))
    y = (base[:, 0] > 0).astype(float)
    model = fit_pls(X, y, 2)
    np.testing.assert_allclose(model.weights[0, :], model.weights[3, :],
                               atol=1e-10)


def test_training_scores_are_pairwise_orthogonal():
    X, y = random_problem(4, n=50, p=12)
    model = fit_pls(X, y, 5)
    scores = latent_scores(X, y, 5)
    gram = scores.T @ scores
    off = gram - np.diag(np.diag(gram))
    assert np.abs(off).max() < 1e-8
    np.testing.assert_allclose(np.diag(gram), model.score_sq_norms, atol=1e-8)


def nipals_scores(model, Xz):
    """Replay the fit's deflation with its weights and loadings: (n, A)."""
    T = np.empty((Xz.shape[0], model.weights.shape[1]))
    for a in range(model.weights.shape[1]):
        T[:, a] = Xz @ model.weights[:, a]
        Xz = Xz - np.outer(T[:, a], model.loadings[:, a])
    return T


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), p=st.integers(2, 12),
       extra_rows=st.integers(3, 30), a=st.integers(1, 5),
       const=st.integers(-1000, 1000), data=st.data())
def test_nipals_scores_are_orthogonal_and_the_reducer_reproduces_them(
        seed, p, extra_rows, a, const, data):
    rng = np.random.default_rng(seed)
    n = p + extra_rows
    vals = rng.normal(size=(n, p)) * rng.uniform(0.1, 10.0, size=p)
    y = np.tile([0.0, 1.0], n)[:n]
    rng.shuffle(y)
    # the fit sees one extra constant column, which it drops
    at = data.draw(st.integers(0, p), label="constant column position")
    with_const = matrix_from(np.insert(vals, at, float(const), axis=1))
    model = fit_pls(with_const, y, min(a, p))
    assert model.columns.tolist() == [i for i in range(p + 1) if i != at]
    assert model.n_inputs == p + 1

    T = nipals_scores(model, (vals - model.column_means) / model.column_sds)
    norms = np.linalg.norm(T, axis=0)
    gram = T.T @ T
    off = gram - np.diag(np.diag(gram))
    assert (np.abs(off) <= 1e-9 * np.outer(norms, norms)).all()
    np.testing.assert_allclose(np.diag(gram), model.score_sq_norms, rtol=1e-9)

    tol = 1e-8 * norms.max()
    got = latent_scores(with_const, y, min(a, p))
    np.testing.assert_allclose(got, T, rtol=0, atol=tol)


def test_full_rank_fit_reconstructs_standardized_matrix():
    X, y = random_problem(5, n=30, p=6)
    model = fit_pls(X, y, 6)
    scores = latent_scores(X, y, 6)
    Xz = (X - model.column_means) / model.column_sds
    np.testing.assert_allclose(scores @ model.loadings.T, Xz, atol=1e-8)


def out_of_place_nipals(X, y, n_components):
    """fit_pls's NIPALS with a new deflated matrix per component, on the
    same column-major standardized matrix: (weights, loadings)."""
    keep = X.std(axis=0) > 0
    Xa = (X[:, keep] - X.mean(axis=0)[keep]) / X.std(axis=0)[keep]
    ya = y - y.mean()
    W, P = [], []
    for _ in range(n_components):
        cov = Xa.T @ ya
        w = cov / np.linalg.norm(cov)
        if w[np.argmax(np.abs(w))] < 0:
            w = -w
        t = Xa @ w
        t_sq = float(t @ t)
        p_a = Xa.T @ t / t_sq
        Xa = Xa - np.outer(t, p_a)
        ya = ya - float(ya @ t) / t_sq * t
        W.append(w)
        P.append(p_a)
    return np.stack(W, axis=1), np.stack(P, axis=1)


@pytest.mark.parametrize("n, p", [(40, 8), (12, 3000), (300, 144)])
def test_in_place_deflation_keeps_every_bit_of_the_out_of_place_fit(n, p):
    # the matrix products give other bits on another memory layout, so
    # the in-place deflation must read the layouts the reference reads
    X, y = random_problem(n + p, n, p)
    model = fit_pls(X, y, 4)
    weights, loadings = out_of_place_nipals(X, y, 4)
    assert model.weights.tobytes() == weights.tobytes()
    assert model.loadings.tobytes() == loadings.tobytes()


def test_latent_scores_are_invariant_to_column_scaling():
    X, y = random_problem(6)
    scaled = matrix_from(X * np.array([1, 100, 0.01, 5, 1, 1, 1, 1.0]))
    a = latent_scores(X, y, 3)
    b = latent_scores(scaled, y, 3)
    np.testing.assert_allclose(a, b, atol=1e-8)


def test_latent_reducer_maps_column_means_to_origin():
    X, y = random_problem(7)
    reducer = fit_reducer(X, y, 2)
    mean_row = matrix_from(X.mean(axis=0, keepdims=True))
    np.testing.assert_allclose(apply_reducer(reducer, mean_row), 0.0, atol=1e-10)


def test_apply_reducer_rejects_another_width():
    X, y = random_problem(8, p=4)
    for mode in ("latent", "vip-subset"):
        red = fit_reducer(X, y, 2, mode=mode)
        for other in (X[:, :3], np.column_stack([X, X[:, 0]])):
            width = other.shape[1]
            with pytest.raises(ValueError, match=rf"\b{width}\b.*\b4\b"):
                apply_reducer(red, other)


def test_zero_variance_columns_are_dropped_and_recorded():
    rng = derive_rng(9, "zv")
    vals = rng.normal(size=(20, 4))
    vals[:, 2] = 1.25
    X = matrix_from(vals)
    y = (rng.random(20) < 0.5).astype(float)
    y[:2] = [0, 1]
    model = fit_pls(X, y, 2)
    assert model.columns.tolist() == [0, 1, 3]
    assert model.n_inputs == 4
    assert model.weights.shape == (3, 2)
    # the reducer still accepts the full matrix
    assert latent_scores(X, y, 2).shape == (20, 2)


def test_a_constant_column_with_a_nonzero_float_std_is_dropped():
    # summed down the rows, the float mean of nine 0.1s is not 0.1, so
    # their column std is 1.4e-17
    rng = derive_rng(9, "tenths")
    vals = rng.normal(size=(9, 3))
    vals[:, 1] = 0.1
    assert vals.std(axis=0)[1] > 0
    y = np.array([0, 1, 0, 1, 0, 1, 1, 0, 0], dtype=float)
    model = fit_pls(matrix_from(vals), y, 2)
    assert model.columns.tolist() == [0, 2]
    assert model.n_inputs == 3


def test_fit_rejects_bad_inputs():
    X, y = random_problem(10, n=10, p=3)
    with pytest.raises(ValueError):
        fit_pls(X, y[:-1], 2)
    with pytest.raises(ValueError):
        fit_pls(X, np.zeros(10), 2)
    with pytest.raises(ValueError):
        fit_pls(X, y, 5)  # exceeds p
    const = matrix_from(np.ones((10, 2)))
    with pytest.raises(ValueError):
        fit_pls(const, y, 1)


def test_fit_reports_full_deflation():
    # a single informative direction cannot support many components
    rng = derive_rng(11, "defl")
    t = rng.normal(size=25)
    X = matrix_from(np.outer(t, rng.normal(size=4)))
    y = (t > 0).astype(float)
    with pytest.raises((TrainingError, ValueError)):
        fit_pls(X, y, 3)


def test_vip_mean_square_is_one():
    X, y = random_problem(12, n=45, p=9)
    model = fit_pls(X, y, 4)
    vip = vip_scores(model)
    assert vip.shape == (9,)
    assert (vip >= 0).all()
    assert float(np.mean(vip ** 2)) == pytest.approx(1.0, abs=1e-10)


def test_vip_ranks_the_informative_column_first():
    rng = derive_rng(13, "vipr")
    noise = rng.normal(size=(60, 6))
    y = (rng.random(60) < 0.5).astype(float)
    y[:2] = [0, 1]
    vals = noise.copy()
    vals[:, 3] = y * 2.0 + rng.normal(0, 0.05, size=60)
    model = fit_pls(matrix_from(vals), y, 2)
    vip = vip_scores(model)
    assert int(np.argmax(vip)) == 3


def test_latent_reducer_projects_new_rows_like_the_deflation():
    X, y = random_problem(14)
    new = random_problem(114)[0]
    model = fit_pls(X, y, 3)
    want = nipals_scores(model, (new - model.column_means) / model.column_sds)
    np.testing.assert_allclose(apply_reducer(fit_reducer(X, y, 3), new), want,
                               atol=1e-12)


def test_reducer_vip_subset_returns_standardized_columns():
    rng = derive_rng(15, "sub")
    vals = rng.normal(size=(40, 5))
    vals[:, 0] = 3.0  # dropped, so VIP position k is input column k + 1
    y = (vals[:, 2] > 0).astype(float)
    red = fit_reducer(matrix_from(vals), y, 2, mode="vip-subset")
    assert red.rotation is None
    assert red.columns.tolist() == \
        (np.argsort(-vip_scores(fit_pls(vals, y, 2)), kind="stable")[:2] + 1).tolist()
    assert 2 in red.columns  # the driving column must survive
    out = apply_reducer(red, matrix_from(vals))
    assert out.shape == (40, 2)
    for k, col in enumerate(red.columns):
        want = (vals[:, col] - vals[:, col].mean()) / vals[:, col].std()
        np.testing.assert_allclose(out[:, k], want, atol=1e-12)


def test_vip_subset_reads_only_its_columns():
    X, y = random_problem(17, p=6)
    red = fit_reducer(X, y, 2, mode="vip-subset")
    want = apply_reducer(red, X)
    for col in sorted(set(range(6)) - set(red.columns.tolist())):
        for value in (1e6, np.nan):
            changed = X.copy()
            changed[:, col] = value
            assert np.array_equal(apply_reducer(red, changed), want)
    # a non-finite value in a column it reads is still refused
    changed = X.copy()
    changed[0, red.columns[0]] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        apply_reducer(red, changed)


def test_fit_reducer_rejects_unknown_mode():
    X, y = random_problem(16)
    with pytest.raises(ValueError, match="pca"):
        fit_reducer(X, y, 1, mode="pca")


def test_a_paper_shape_fit_holds_two_copies_of_its_input():
    # a paper-slice fold's training rows: 36 slices of 63,504 CRBM columns.
    # The fit standardizes its one copy of X in place and deflates it in
    # place, so it holds that copy and one more (n, p) array, the row-major
    # copy or np.outer's temporary; a standardization and a first deflation
    # that each made a new result peaked at 3.3 times the input
    X, y = random_problem(13, n=36, p=63_504)
    fit_reducer(X, y, 3)  # lazy set-up first
    tracemalloc.start()
    try:
        fit_reducer(X, y, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * X.nbytes


@pytest.mark.parametrize("mode", ["latent", "vip-subset"])
def test_apply_reducer_standardizes_one_copy_of_its_input(mode):
    # a paper-slice fold's training rows: apply_reducer copies the
    # reducer's columns once and standardizes that copy in place (1.13
    # times the input seen); a standardization that made two new results
    # peaked at 3.0 times.  X is left as it was, and the rows are the bits
    # of the standardization written out
    X, y = random_problem(13, n=36, p=63_504)
    reducer = fit_reducer(X, y, 3, mode)
    before = X.tobytes()
    apply_reducer(reducer, X)  # lazy set-up first
    tracemalloc.start()
    try:
        got = apply_reducer(reducer, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * X.nbytes
    assert X.tobytes() == before
    want = (X[:, reducer.columns] - reducer.means) / reducer.sds
    if reducer.rotation is not None:
        want = want @ reducer.rotation
    assert got.tobytes() == want.tobytes()
