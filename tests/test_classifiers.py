"""Unit checks for the three prediction heads."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crbm_radiomics import classifiers
from crbm_radiomics.classifiers import (
    LrModel,
    RfModel,
    SvmModel,
    _best_split,
    lr_fit,
    lr_loss_and_grad,
    lr_predict_proba,
    rf_fit,
    rf_predict_proba,
    svm_decision,
    svm_fit,
    svm_objective,
)
from crbm_radiomics.seeding import derive_rng


def separable_problem(seed, n=80, p=4, margin=1.0):
    rng = derive_rng(seed, "sep")
    X = rng.normal(size=(n, p))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(float)
    X[y == 1, 0] += margin
    X[y == 0, 0] -= margin
    return X, y


# ---------------------------------------------------------------------------
# Logistic regression
# ---------------------------------------------------------------------------

def test_lr_gradient_matches_finite_differences():
    rng = derive_rng(1, "lrfd")
    eps = 1e-6
    for _ in range(5):
        n, p = 12, 5
        X = rng.normal(size=(n, p))
        y = (rng.random(n) < 0.5).astype(float)
        w = rng.normal(size=p)
        b = float(rng.normal())
        l2 = float(rng.random() * 0.1)
        _, gw, gb = lr_loss_and_grad(w, b, X, y, l2)
        for j in range(p):
            d = np.zeros(p)
            d[j] = eps
            hi = lr_loss_and_grad(w + d, b, X, y, l2)[0]
            lo = lr_loss_and_grad(w - d, b, X, y, l2)[0]
            fd = (hi - lo) / (2 * eps)
            assert abs(fd - gw[j]) / max(abs(fd), 1e-4) < 1e-4
        fd = (lr_loss_and_grad(w, b + eps, X, y, l2)[0]
              - lr_loss_and_grad(w, b - eps, X, y, l2)[0]) / (2 * eps)
        assert abs(fd - gb) / max(abs(fd), 1e-4) < 1e-4


def test_lr_descent_never_increases_the_loss():
    X, y = separable_problem(2)
    model = lr_fit(X, y, l2=1e-3, steps=200)
    start = lr_loss_and_grad(np.zeros(X.shape[1]), 0.0, X, y, 1e-3)[0]
    end = lr_loss_and_grad(model.weights, model.bias, X, y, 1e-3)[0]
    assert end < start


def test_lr_separates_easy_data():
    X, y = separable_problem(3)
    model = lr_fit(X, y, steps=2000)
    proba = lr_predict_proba(model, X)
    assert ((proba >= 0.5) == (y == 1)).mean() >= 0.95
    assert proba.min() >= 0.0 and proba.max() <= 1.0


def test_lr_l2_shrinks_weights():
    X, y = separable_problem(4)
    loose = lr_fit(X, y, l2=1e-4, steps=1000)
    tight = lr_fit(X, y, l2=10.0, steps=1000)
    assert np.linalg.norm(tight.weights) < np.linalg.norm(loose.weights)


def test_lr_rejects_bad_labels_and_shapes():
    X = np.zeros((4, 2))
    with pytest.raises(ValueError):
        lr_fit(X, np.array([0, 1, 2, 0.0]))
    with pytest.raises(ValueError):
        lr_fit(X, np.array([0, 1, 0.0]))
    model = lr_fit(np.eye(4)[:, :2], np.array([0, 1, 0, 1.0]))
    with pytest.raises(ValueError):
        lr_predict_proba(model, np.zeros((2, 3)))
    with pytest.raises(ValueError):
        LrModel(weights=np.array([np.nan]), bias=0.0, l2=0.0)


# ---------------------------------------------------------------------------
# Linear SVM
# ---------------------------------------------------------------------------

def test_svm_classifies_separable_data():
    X, y01 = separable_problem(5, margin=2.0)
    y = 2 * y01 - 1
    model, history = svm_fit(X, y, C=1.0, epochs=100, seed=0)
    decisions = svm_decision(model, X)
    assert (np.sign(decisions) == y).mean() >= 0.98
    assert history[-1] < history[0]
    assert len(history) == 100


def test_svm_label_flip_negates_the_decision_exactly():
    # the subgradient updates are antisymmetric in y, and the shuffle
    # stream does not depend on the labels
    X, y01 = separable_problem(6)
    y = 2 * y01 - 1
    a, _ = svm_fit(X, y, C=0.5, epochs=30, seed=3)
    b, _ = svm_fit(X, -y, C=0.5, epochs=30, seed=3)
    np.testing.assert_allclose(svm_decision(a, X), -svm_decision(b, X),
                               atol=1e-10)


def test_svm_small_c_shrinks_the_weights():
    X, y01 = separable_problem(7)
    y = 2 * y01 - 1
    heavy, _ = svm_fit(X, y, C=10.0, epochs=60, seed=0)
    light, _ = svm_fit(X, y, C=1e-4, epochs=60, seed=0)
    assert np.linalg.norm(light.weights) < np.linalg.norm(heavy.weights)


def test_svm_objective_hand_value():
    w = np.array([1.0, -1.0])
    X = np.array([[2.0, 0.0], [0.0, 1.0]])
    y = np.array([1.0, -1.0])
    # margins: 1*(2+0.5)=2.5 (no hinge), -1*(-1+0.5)=0.5 (hinge 0.5)
    got = svm_objective(w, 0.5, X, y, C=2.0)
    assert got == pytest.approx(0.5 * 2.0 + 2.0 * 0.5, abs=1e-12)


def test_svm_is_deterministic_per_seed():
    X, y01 = separable_problem(8)
    y = 2 * y01 - 1
    a, ha = svm_fit(X, y, epochs=20, seed=9)
    b, hb = svm_fit(X, y, epochs=20, seed=9)
    c, _ = svm_fit(X, y, epochs=20, seed=10)
    assert np.array_equal(a.weights, b.weights) and ha == hb
    assert not np.array_equal(a.weights, c.weights)


def test_svm_requires_plus_minus_one_labels():
    X = np.zeros((4, 2))
    with pytest.raises(ValueError):
        svm_fit(X, np.array([0.0, 1.0, 0.0, 1.0]))


# ---------------------------------------------------------------------------
# Random forest
# ---------------------------------------------------------------------------

def test_best_split_hand_case_and_tie_breaks():
    X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    rows = np.arange(4)
    # both features split perfectly at 2.5: the tie goes to feature 0
    f, threshold = _best_split(X, y, rows, np.array([0, 1]))
    assert f == 0
    assert threshold == pytest.approx(2.5)
    # restricted to feature 1, same threshold on its values
    f, threshold = _best_split(X, y, rows, np.array([1]))
    assert f == 1 and threshold == pytest.approx(2.5)


def test_best_split_returns_none_for_constant_features():
    X = np.ones((4, 2))
    y = np.array([0.0, 1.0, 0.0, 1.0])
    assert _best_split(X, y, np.arange(4), np.array([0, 1])) is None


def loop_best_split(X, y, rows, feature_ids):
    """Reference split search: one feature at a time in ascending order,
    the first minimum per feature, replaced only on strict improvement."""
    best = None
    best_score = np.inf
    n = rows.size
    y_rows = y[rows]
    for f in np.sort(feature_ids):
        col = X[rows, f]
        order = np.argsort(col, kind="stable")
        col_sorted = col[order]
        y_sorted = y_rows[order]
        distinct = np.nonzero(np.diff(col_sorted) > 0)[0]
        if distinct.size == 0:
            continue
        left_n = distinct + 1
        left_pos = np.cumsum(y_sorted)[distinct]
        total_pos = y_sorted.sum()
        right_n = n - left_n
        right_pos = total_pos - left_pos
        p_l = left_pos / left_n
        p_r = right_pos / right_n
        scores = (left_n * 2 * p_l * (1 - p_l) + right_n * 2 * p_r * (1 - p_r)) / n
        idx = int(np.argmin(scores))
        if scores[idx] < best_score:
            cut = distinct[idx]
            best_score = scores[idx]
            best = (int(f), float((col_sorted[cut] + col_sorted[cut + 1]) / 2))
    return best


@st.composite
def split_cases(draw):
    # few distinct values per column give ties and constant columns
    n_samples, p = draw(st.integers(2, 40)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    distinct = rng.integers(1, 6, size=p)
    X = rng.integers(0, distinct, size=(n_samples, p)) * rng.normal(size=p)
    y = (rng.random(n_samples) < draw(st.sampled_from((0.1, 0.5, 0.9)))).astype(float)
    rows = rng.integers(0, n_samples, size=draw(st.integers(2, 2 * n_samples)))
    features = rng.permutation(p)[:draw(st.integers(1, p))]
    return X, y, rows, features


@settings(max_examples=300, deadline=None)
@given(split_cases())
def test_best_split_equals_the_per_feature_loop(case):
    X, y, rows, features = case
    assert _best_split(X, y, rows, features) == loop_best_split(X, y, rows, features)


def nan_aware_equal(trees_a, trees_b):
    # internal nodes carry prob = nan, which never equals itself
    if len(trees_a) != len(trees_b):
        return False
    for a, b in zip(trees_a, trees_b):
        if len(a) != len(b):
            return False
        for (fa, ta, pa), (fb, tb, pb) in zip(a, b):
            if fa != fb or ta != tb:
                return False
            if not (pa == pb or (np.isnan(pa) and np.isnan(pb))):
                return False
    return True


def test_rf_forest_is_node_for_node_the_per_feature_loop_forest(monkeypatch):
    rng = derive_rng(14, "forest")
    X = np.round(rng.normal(size=(120, 12)), 1)  # rounding makes ties
    X[:, 3] = 1.0
    y = (X[:, 0] + X[:, 5] + 0.5 * rng.normal(size=120) > 0).astype(float)
    fast = rf_fit(X, y, n_trees=15, max_depth=8, seed=5)
    monkeypatch.setattr(classifiers, "_best_split", loop_best_split)
    slow = rf_fit(X, y, n_trees=15, max_depth=8, seed=5)
    assert sum(len(t) for t in fast.trees) > 15 * 3
    assert nan_aware_equal(fast.trees, slow.trees)


def test_rf_fits_a_noiseless_threshold_rule():
    rng = derive_rng(9, "rule")
    X = rng.random((200, 6))
    y = (X[:, 2] > 0.5).astype(float)
    model = rf_fit(X[:150], y[:150], n_trees=30, max_depth=4, seed=0)
    proba = rf_predict_proba(model, X[150:])
    acc = ((proba >= 0.5) == (y[150:] == 1)).mean()
    assert acc >= 0.95
    assert proba.min() >= 0.0 and proba.max() <= 1.0


def test_rf_perfect_fit_when_all_features_available():
    X, y = separable_problem(10, n=60)
    model = rf_fit(X, y, n_trees=20, max_depth=8,
                   features_per_split=X.shape[1], seed=1)
    proba = rf_predict_proba(model, X)
    assert ((proba >= 0.5) == (y == 1)).mean() >= 0.97


def test_rf_is_deterministic_per_seed():
    X, y = separable_problem(11, n=40)
    a = rf_fit(X, y, n_trees=5, max_depth=3, seed=2)
    b = rf_fit(X, y, n_trees=5, max_depth=3, seed=2)
    c = rf_fit(X, y, n_trees=5, max_depth=3, seed=3)
    # nan placeholders at internal nodes defeat tuple ==; compare via repr
    assert repr(a.trees) == repr(b.trees)
    assert repr(a.trees) != repr(c.trees)


def test_rf_depth_zero_predicts_the_bootstrap_base_rate():
    X = np.arange(10, dtype=float).reshape(-1, 1)
    y = (X[:, 0] >= 5).astype(float)
    model = rf_fit(X, y, n_trees=200, max_depth=0, seed=4)
    proba = rf_predict_proba(model, X)
    assert np.unique(proba).size == 1
    assert proba[0] == pytest.approx(0.5, abs=0.05)


def spy_on_subset_size(monkeypatch):
    """The per-split feature subset sizes rf_fit grows its trees with."""
    sizes = []
    real = classifiers._grow

    def spy(X, y, rows, depth, max_depth, m_features, rng, out):
        sizes.append(m_features)
        return real(X, y, rows, depth, max_depth, m_features, rng, out)

    monkeypatch.setattr(classifiers, "_grow", spy)
    return sizes


def test_rf_default_feature_subset_is_ceil_sqrt(monkeypatch):
    sizes = spy_on_subset_size(monkeypatch)
    X, y = separable_problem(12, n=30, p=10)
    rf_fit(X, y, n_trees=2, max_depth=2, seed=0)
    assert sizes and set(sizes) == {4}  # ceil(sqrt(10))


def test_rf_rejects_width_mismatch_and_zero_trees():
    X, y = separable_problem(13, n=20)
    model = rf_fit(X, y, n_trees=3, max_depth=2, seed=0)
    with pytest.raises(ValueError):
        rf_predict_proba(model, np.zeros((2, 9)))
    with pytest.raises(ValueError):
        rf_fit(X, y, n_trees=0)
