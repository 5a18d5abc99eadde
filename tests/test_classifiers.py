"""Unit checks for the three prediction heads."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crbm_radiomics import classifiers
from crbm_radiomics.classifiers import (
    LinearModel,
    RfModel,
    lr_fit,
    lr_gradient,
    lr_predict_proba,
    rf_fit,
    rf_predict_proba,
    svm_decision,
    svm_fit,
)
from crbm_radiomics.seeding import derive_rng

from lr_reference import lr_loss


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
        gw, gb = lr_gradient(w, b, X, y, l2)
        for j in range(p):
            d = np.zeros(p)
            d[j] = eps
            hi = lr_loss(w + d, b, X, y, l2)
            lo = lr_loss(w - d, b, X, y, l2)
            fd = (hi - lo) / (2 * eps)
            assert abs(fd - gw[j]) / max(abs(fd), 1e-4) < 1e-4
        fd = (lr_loss(w, b + eps, X, y, l2)
              - lr_loss(w, b - eps, X, y, l2)) / (2 * eps)
        assert abs(fd - gb) / max(abs(fd), 1e-4) < 1e-4


def test_lr_descent_never_increases_the_loss():
    X, y = separable_problem(2)
    model = lr_fit(X, y, l2=1e-3, steps=200)
    start = lr_loss(np.zeros(X.shape[1]), 0.0, X, y, 1e-3)
    end = lr_loss(model.weights, model.bias, X, y, 1e-3)
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
        LinearModel(weights=np.array([np.nan]), bias=0.0)


def test_lr_refuses_a_negative_l2_before_any_step(monkeypatch):
    X, y = separable_problem(18, n=20, p=3)
    steps = []

    def spy(*args):
        steps.append(args)
        return lr_gradient(*args)

    monkeypatch.setattr(classifiers, "lr_gradient", spy)
    with pytest.raises(ValueError, match="l2"):
        lr_fit(X, y, l2=-1.0, steps=5)
    assert not steps


def test_lr_predict_refuses_non_finite_features():
    X, y = separable_problem(17, n=20, p=3)
    model = lr_fit(X, y, steps=50)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            lr_predict_proba(model, np.array([[0.0, 0.0, 0.0], [bad, 0.0, 0.0]]))


# ---------------------------------------------------------------------------
# Linear SVM
# ---------------------------------------------------------------------------

def svm_objective(model, X, y, C):
    """(1/2)||w||^2 + C * sum(hinge), the quantity svm_fit descends."""
    margins = y * (X @ model.weights + model.bias)
    return 0.5 * float(model.weights @ model.weights) \
        + C * float(np.maximum(0.0, 1.0 - margins).sum())


def test_svm_classifies_separable_data():
    X, y01 = separable_problem(5, margin=2.0)
    y = 2 * y01 - 1
    model = svm_fit(X, y, C=1.0, epochs=100, seed=0)
    decisions = svm_decision(model, X)
    assert (np.sign(decisions) == y).mean() >= 0.98
    # each epoch's shuffle is seeded apart, so one epoch is the first
    # epoch of the hundred
    first = svm_fit(X, y, C=1.0, epochs=1, seed=0)
    assert svm_objective(model, X, y, 1.0) < svm_objective(first, X, y, 1.0)


@pytest.mark.parametrize("C", [0.0, -1.0])
def test_svm_refuses_a_non_positive_c_before_any_step(monkeypatch, C):
    # each epoch's shuffle stream is derived first, so no derivation means
    # no step was taken
    X, y01 = separable_problem(19, n=20, p=3)
    streams = []

    def spy(*args):
        streams.append(args)
        return derive_rng(*args)

    monkeypatch.setattr(classifiers, "derive_rng", spy)
    with pytest.raises(ValueError, match="C must be > 0"):
        svm_fit(X, 2 * y01 - 1, C=C, epochs=3)
    assert not streams


def test_svm_label_flip_negates_the_decision_exactly():
    # the subgradient updates are antisymmetric in y, and the shuffle
    # stream does not depend on the labels
    X, y01 = separable_problem(6)
    y = 2 * y01 - 1
    a = svm_fit(X, y, C=0.5, epochs=30, seed=3)
    b = svm_fit(X, -y, C=0.5, epochs=30, seed=3)
    np.testing.assert_allclose(svm_decision(a, X), -svm_decision(b, X),
                               atol=1e-10)


def test_svm_small_c_shrinks_the_weights():
    X, y01 = separable_problem(7)
    y = 2 * y01 - 1
    heavy = svm_fit(X, y, C=10.0, epochs=60, seed=0)
    light = svm_fit(X, y, C=1e-4, epochs=60, seed=0)
    assert np.linalg.norm(light.weights) < np.linalg.norm(heavy.weights)


def test_svm_objective_hand_value():
    w = np.array([1.0, -1.0])
    X = np.array([[2.0, 0.0], [0.0, 1.0]])
    y = np.array([1.0, -1.0])
    # margins: 1*(2+0.5)=2.5 (no hinge), -1*(-1+0.5)=0.5 (hinge 0.5)
    got = svm_objective(LinearModel(weights=w, bias=0.5), X, y, 2.0)
    assert got == pytest.approx(0.5 * 2.0 + 2.0 * 0.5, abs=1e-12)


def test_svm_is_deterministic_per_seed():
    X, y01 = separable_problem(8)
    y = 2 * y01 - 1
    a = svm_fit(X, y, epochs=20, seed=9)
    b = svm_fit(X, y, epochs=20, seed=9)
    c = svm_fit(X, y, epochs=20, seed=10)
    assert np.array_equal(a.weights, b.weights) and a.bias == b.bias
    assert not np.array_equal(a.weights, c.weights)


def test_svm_requires_plus_minus_one_labels():
    X = np.zeros((4, 2))
    with pytest.raises(ValueError):
        svm_fit(X, np.array([0.0, 1.0, 0.0, 1.0]))


def test_svm_decision_refuses_non_finite_features():
    X, y01 = separable_problem(18, n=20, p=3)
    model = svm_fit(X, 2 * y01 - 1, epochs=5, seed=0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            svm_decision(model, np.array([[0.0, 0.0, 0.0], [bad, 0.0, 0.0]]))


# ---------------------------------------------------------------------------
# Random forest
# ---------------------------------------------------------------------------

def block_best_splits(X, y, nodes):
    """classifiers._best_splits on one padded block of (rows, feature_ids)
    nodes that share X and y; (feature, threshold) or None per node."""
    X_pad = np.vstack([X, np.full(X.shape[1], np.inf)])
    y_pad = np.append(y, 0.0)
    sizes = np.array([rows.size for rows, _ in nodes])
    block = np.full((len(nodes), sizes.max()), X.shape[0])
    for b, (rows, _) in enumerate(nodes):
        block[b, :rows.size] = rows
    features = np.sort([feature_ids for _, feature_ids in nodes], axis=1)
    f, threshold, found = classifiers._best_splits(X_pad, y_pad, block, sizes,
                                                   features)
    return [(int(f[b]), float(threshold[b])) if found[b] else None
            for b in range(len(nodes))]


def test_best_split_hand_case_and_tie_breaks():
    X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    rows = np.arange(4)
    # both features split perfectly at 2.5: the tie goes to feature 0;
    # restricted to feature 1, the same threshold on its values
    (f, threshold), = block_best_splits(X, y, [(rows, np.array([0, 1]))])
    assert f == 0
    assert threshold == pytest.approx(2.5)
    (f, threshold), = block_best_splits(X, y, [(rows, np.array([1]))])
    assert f == 1 and threshold == pytest.approx(2.5)
    # a 2-row node padded to the 4-row node's width cuts between its rows
    assert block_best_splits(X, y, [(rows, np.array([1, 0])),
                                    (np.array([3, 0]), np.array([0, 1]))]) \
        == [(0, 2.5), (0, 2.5)]


def test_best_split_returns_none_for_constant_features():
    X = np.ones((4, 2))
    y = np.array([0.0, 1.0, 0.0, 1.0])
    assert block_best_splits(X, y, [(np.arange(4), np.array([0, 1]))]) == [None]


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
            best = (int(f), split_threshold(col_sorted[cut], col_sorted[cut + 1]))
    return best


def split_threshold(lo, hi):
    """The midpoint of lo < hi, or lo where it rounds up to hi."""
    mid = lo / 2 + hi / 2
    return float(mid if mid < hi else lo)


@st.composite
def split_cases(draw):
    # few distinct values per column give ties and constant columns; the
    # nodes of one block share X, y and the subset size, not their rows
    n_samples, p = draw(st.integers(2, 40)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    distinct = rng.integers(1, 6, size=p)
    X = rng.integers(0, distinct, size=(n_samples, p)) * rng.normal(size=p)
    y = (rng.random(n_samples) < draw(st.sampled_from((0.1, 0.5, 0.9)))).astype(float)
    m = draw(st.integers(1, p))
    nodes = [(rng.integers(0, n_samples, size=draw(st.integers(2, 2 * n_samples))),
              rng.permutation(p)[:m])
             for _ in range(draw(st.integers(1, 6)))]
    return X, y, nodes


@settings(max_examples=300, deadline=None)
@given(split_cases())
def test_best_split_equals_the_per_feature_loop(case):
    X, y, nodes = case
    expected = [loop_best_split(X, y, rows, features) for rows, features in nodes]
    assert [block_best_splits(X, y, [node])[0] for node in nodes] == expected
    assert block_best_splits(X, y, nodes) == expected


def reference_forest(X, y, n_trees=100, max_depth=10, features_per_split=0,
                     seed=0):
    """rf_fit's trees grown one at a time by recursion, each node split
    by loop_best_split: the forest as it was before lockstep growth.
    Forests are compared by repr, which also tells an int from an equal
    float and -0.0 from 0.0."""
    p = X.shape[1]
    m = features_per_split if features_per_split > 0 else \
        max(1, int(np.ceil(np.sqrt(p))))
    m = min(m, p)

    def grow(rows, depth, rng, out):
        pos = float(y[rows].sum())
        if depth >= max_depth or rows.size < 2 or pos == 0 or pos == rows.size:
            out.append((-1, 0.0, pos / rows.size))
            return
        split = loop_best_split(X, y, rows, rng.permutation(p)[:m])
        if split is None:
            out.append((-1, 0.0, pos / rows.size))
            return
        f, threshold = split
        at = len(out)
        out.append(None)
        goes_left = X[rows, f] <= threshold
        grow(rows[goes_left], depth + 1, rng, out)
        out[at] = (f, threshold, len(out))  # the right subtree starts here
        grow(rows[~goes_left], depth + 1, rng, out)

    trees = []
    for i in range(n_trees):
        rng = derive_rng(seed, "rf-tree", i)
        nodes = []
        grow(rng.integers(0, X.shape[0], size=X.shape[0]), 0, rng, nodes)
        trees.append(tuple(nodes))
    return tuple(trees)


def test_rf_forest_is_node_for_node_the_per_feature_loop_forest():
    rng = derive_rng(14, "forest")
    X = np.round(rng.normal(size=(120, 12)), 1)  # rounding makes ties
    X[:, 3] = 1.0
    y = (X[:, 0] + X[:, 5] + 0.5 * rng.normal(size=120) > 0).astype(float)
    fast = rf_fit(X, y, n_trees=15, max_depth=8, seed=5)
    assert sum(len(t) for t in fast.trees) > 15 * 3
    assert repr(fast.trees) == repr(reference_forest(X, y, n_trees=15,
                                                     max_depth=8, seed=5))


@st.composite
def forest_cases(draw):
    n, p = draw(st.integers(2, 80)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # 1-5 distinct values per column give ties and constant columns
    distinct = rng.integers(1, 6, size=p) if draw(st.booleans()) else n
    X = rng.integers(0, distinct, size=(n, p)) * rng.normal(size=p)
    # one positive (or negative) makes one-class bootstraps, hence pure roots
    y = np.zeros(n)
    y[rng.permutation(n)[:draw(st.integers(1, n - 1))]] = 1.0
    return X, y, {"n_trees": draw(st.integers(1, 30)),
                  "max_depth": draw(st.integers(0, 12)),
                  "features_per_split": draw(st.integers(0, p + 3)),
                  "seed": draw(st.integers(0, 2**16))}


@settings(max_examples=80, deadline=None)
@given(forest_cases())
def test_lockstep_forest_is_the_recursive_forest(case):
    X, y, kwargs = case
    assert repr(rf_fit(X, y, **kwargs).trees) == repr(reference_forest(X, y, **kwargs))


def subtree_size(nodes, idx):
    """Nodes in the subtree rooted at nodes[idx], counted by walking the
    preorder list until its leaves outnumber its splits."""
    open_ends, end = 1, idx
    while open_ends:
        open_ends += 1 if nodes[end][0] >= 0 else -1
        end += 1
    return end - idx


def recursive_predict(nodes, x, idx=0):
    """The leaf value of x, descending by subtree sizes alone."""
    feature, threshold, value = nodes[idx]
    if feature < 0:
        return value
    left = idx + 1
    return recursive_predict(nodes, x, left if x[feature] <= threshold
                             else left + subtree_size(nodes, left))


@settings(max_examples=80, deadline=None)
@given(forest_cases())
def test_splits_point_at_their_right_child(case):
    X, y, kwargs = case
    model = rf_fit(X, y, **kwargs)
    for nodes in model.trees:
        assert subtree_size(nodes, 0) == len(nodes)
        for idx, (feature, _, right) in enumerate(nodes):
            if feature >= 0:
                assert right == idx + 1 + subtree_size(nodes, idx + 1)
    # the forest's mean over trees, summed in tree order as rf_predict_proba does
    want = [sum(recursive_predict(nodes, x) for nodes in model.trees)
            / len(model.trees) for x in X]
    assert rf_predict_proba(model, X).tolist() == want


def test_lockstep_forest_of_very_different_tree_sizes(monkeypatch):
    # three positives among 40 noise rows: a bootstrap that misses them is
    # one leaf, the others take up to six cuts to isolate them
    rng = derive_rng(15, "sizes")
    X = rng.normal(size=(40, 4))
    y = np.zeros(40)
    y[:3] = 1.0
    expected = repr(reference_forest(X, y, n_trees=30, max_depth=12, seed=2))
    lengths = [len(t) for t in rf_fit(X, y, n_trees=30, max_depth=12, seed=2).trees]
    assert min(lengths) == 1 and max(lengths) == 13
    # one node per block, the default block, and one block per step
    for block in (1, classifiers._SPLIT_BLOCK, 2**40):
        monkeypatch.setattr(classifiers, "_SPLIT_BLOCK", block)
        assert repr(rf_fit(X, y, n_trees=30, max_depth=12, seed=2).trees) == expected


def spy_on_split_blocks(monkeypatch):
    """The (rows, sizes, features) blocks rf_fit scores its nodes in."""
    blocks = []
    real = classifiers._best_splits

    def spy(X, y, rows, sizes, features):
        blocks.append((rows, sizes, features))
        return real(X, y, rows, sizes, features)

    monkeypatch.setattr(classifiers, "_best_splits", spy)
    return blocks


def test_rf_split_blocks_are_bounded_and_widest_first(monkeypatch):
    blocks = spy_on_split_blocks(monkeypatch)
    X, y = separable_problem(16, n=150, p=20)
    y[::3] = 1.0 - y[::3]  # label noise grows deep trees
    rf_fit(X, y, n_trees=100, max_depth=10, seed=0)
    assert len(blocks) > 20
    for rows, sizes, features in blocks:
        assert features.shape[1] == 5  # ceil(sqrt(20))
        assert sizes.size == 1 or rows.size * 5 <= classifiers._SPLIT_BLOCK
        assert rows.shape[1] == sizes[0] and (np.diff(sizes) <= 0).all()
    # the first step scores the 100 roots, all of 150 bootstrap rows
    roots = np.concatenate([sizes for _, sizes, _ in blocks])[:100]
    assert (roots == 150).all()


def test_rf_cuts_adjacent_floats_at_the_lower_value():
    # (a + b) / 2 rounds up to b: a cut there sent both rows left and the
    # empty right leaf divided by zero
    a, b = 1.0000000000000002, 1.0000000000000004
    assert (a + b) / 2 == b
    model = rf_fit([[a], [b]], [0, 1], n_trees=5, max_depth=2)
    splits = [node for tree in model.trees for node in tree if node[0] >= 0]
    assert splits and all(threshold == a for _, threshold, _ in splits)
    low, high = rf_predict_proba(model, [[a], [b]])
    assert low < high


@pytest.mark.parametrize("lo, hi", [(1e308, 1.5e308), (-1.5e308, -1e308)])
def test_rf_splits_values_whose_sum_overflows(lo, hi):
    model = rf_fit([[lo], [hi]], [0, 1], n_trees=5, max_depth=2)
    splits = [node for tree in model.trees for node in tree if node[0] >= 0]
    assert splits and all(lo <= threshold < hi for _, threshold, _ in splits)


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
    assert repr(a.trees) == repr(b.trees)
    assert repr(a.trees) != repr(c.trees)


def test_rf_depth_zero_predicts_the_bootstrap_base_rate():
    X = np.arange(10, dtype=float).reshape(-1, 1)
    y = (X[:, 0] >= 5).astype(float)
    model = rf_fit(X, y, n_trees=200, max_depth=0, seed=4)
    proba = rf_predict_proba(model, X)
    assert np.unique(proba).size == 1
    assert proba[0] == pytest.approx(0.5, abs=0.05)


def test_rf_default_feature_subset_is_ceil_sqrt(monkeypatch):
    blocks = spy_on_split_blocks(monkeypatch)
    X, y = separable_problem(12, n=30, p=10)
    rf_fit(X, y, n_trees=2, max_depth=2, seed=0)
    assert blocks
    assert {features.shape[1] for _, _, features in blocks} == {4}  # ceil(sqrt(10))


def test_rf_rejects_width_mismatch_and_zero_trees():
    X, y = separable_problem(13, n=20)
    model = rf_fit(X, y, n_trees=3, max_depth=2, seed=0)
    with pytest.raises(ValueError):
        rf_predict_proba(model, np.zeros((2, 9)))
    with pytest.raises(ValueError):
        rf_fit(X, y, n_trees=0)


def test_rf_predict_refuses_non_finite_features():
    # NaN <= t is False, so a NaN row would walk right at every node
    X, y = separable_problem(19, n=40, p=3)
    model = rf_fit(X, y, n_trees=5, max_depth=3, seed=0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            rf_predict_proba(model, np.array([[0.0, 0.0, 0.0], [bad, 0.0, 0.0]]))
