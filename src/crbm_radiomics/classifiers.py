"""The three prediction heads: logistic regression, linear SVM, random forest.

Each head exposes a fit function and a continuous scorer (probability or
raw margin); ROC analysis downstream needs only the ranking.  All
stochastic pieces (SVM shuffling, forest bootstraps and feature subsets)
draw from streams derived from an explicit seed, so refits are
bit-reproducible.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .seeding import derive_rng


def _check_xy(X: np.ndarray, y: np.ndarray, expect: tuple) -> tuple:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError(f"X {X.shape} does not match y {y.shape}")
    if not np.isfinite(X).all():
        raise ValueError("non-finite features")
    if set(np.unique(y)) != set(expect):
        raise ValueError(f"labels must be exactly the classes {expect}")
    return X, y


def _check_width(weights: np.ndarray, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != weights.shape[0]:
        raise ValueError(f"X width {X.shape} does not match model "
                         f"width {weights.shape[0]}")
    return X


# ---------------------------------------------------------------------------
# Logistic regression
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LrModel:
    weights: np.ndarray
    bias: float
    l2: float

    def __post_init__(self):
        if not (np.isfinite(self.weights).all() and np.isfinite(self.bias)):
            raise ValueError("non-finite parameters")
        if self.l2 < 0:
            raise ValueError("l2 must be >= 0")


def lr_loss_and_grad(weights: np.ndarray, bias: float, X: np.ndarray,
                     y: np.ndarray, l2: float) -> tuple:
    """Mean cross-entropy + (l2/2)||w||^2 and its exact gradient.

    Exposed so the gradient can be checked against finite differences.
    The bias is not regularized.
    """
    z = X @ weights + bias
    # stable log(1+exp(z)) - y z
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z)) \
        + 0.5 * l2 * float(weights @ weights)
    resid = expit(z) - y
    grad_w = X.T @ resid / X.shape[0] + l2 * weights
    grad_b = float(resid.mean())
    return loss, grad_w, grad_b


def lr_fit(X: np.ndarray, y: np.ndarray, l2: float = 1e-3,
           steps: int = 500, tol: float = 1e-8) -> LrModel:
    """Full-batch gradient descent with a Lipschitz-safe fixed step.

    The logistic Hessian's largest eigenvalue is at most
    ||X||_F^2 / (4n) + l2, so step = 1/that bound guarantees monotone loss.
    Stops early when the gradient's max-norm falls below tol.
    """
    X, y = _check_xy(X, y, (0.0, 1.0))
    n, p = X.shape
    lipschitz = 0.25 * float((X * X).sum()) / n + l2 + 1e-12
    step = 1.0 / lipschitz
    w = np.zeros(p)
    b = 0.0
    for _ in range(steps):
        _, gw, gb = lr_loss_and_grad(w, b, X, y, l2)
        if max(np.abs(gw).max(initial=0.0), abs(gb)) < tol:
            break
        w = w - step * gw
        b = b - step * gb
    return LrModel(weights=w, bias=b, l2=l2)


def lr_predict_proba(model: LrModel, X: np.ndarray) -> np.ndarray:
    X = _check_width(model.weights, X)
    return expit(X @ model.weights + model.bias)


# ---------------------------------------------------------------------------
# Linear SVM
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SvmModel:
    weights: np.ndarray
    bias: float
    C: float

    def __post_init__(self):
        if not (np.isfinite(self.weights).all() and np.isfinite(self.bias)):
            raise ValueError("non-finite parameters")
        if self.C <= 0:
            raise ValueError("C must be > 0")


def svm_objective(weights: np.ndarray, bias: float, X: np.ndarray,
                  y: np.ndarray, C: float) -> float:
    """(1/2)||w||^2 + C * sum(hinge), the quantity svm_fit descends."""
    margins = y * (X @ weights + bias)
    return 0.5 * float(weights @ weights) \
        + C * float(np.maximum(0.0, 1.0 - margins).sum())


def svm_fit(X: np.ndarray, y: np.ndarray, C: float = 1.0,
            epochs: int = 200, seed: int = 0) -> tuple:
    """Single-sample subgradient descent with a decaying step.

    Equivalent scaling: lambda = 1/(C n) turns the objective into the
    mean-hinge form, and step 1/(lambda (t + n)) decays like the classic
    schedule but skips the violent first updates.  Returns
    (SvmModel, per-epoch objective history).
    """
    X, y = _check_xy(X, y, (-1.0, 1.0))
    n, p = X.shape
    lam = 1.0 / (C * n)
    w = np.zeros(p)
    b = 0.0
    t = 0
    history = []
    for epoch in range(epochs):
        order = derive_rng(seed, "svm-shuffle", epoch).permutation(n)
        for i in order:
            t += 1
            eta = 1.0 / (lam * (t + n))
            violated = y[i] * (X[i] @ w + b) < 1.0
            w *= 1.0 - eta * lam
            if violated:
                w += eta * y[i] * X[i]
                b += eta * y[i]
        history.append(svm_objective(w, b, X, y, C))
    return SvmModel(weights=w, bias=b, C=C), history


def svm_decision(model: SvmModel, X: np.ndarray) -> np.ndarray:
    """Raw margin Xw + b; sign is the class call, magnitude the confidence."""
    X = _check_width(model.weights, X)
    return X @ model.weights + model.bias


# ---------------------------------------------------------------------------
# Random forest
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RfModel:
    """trees are preorder node lists; node = (feature, threshold, prob).
    Internal nodes have feature >= 0 and prob = nan; leaves have
    feature = -1 and carry the class-1 fraction."""

    trees: tuple
    n_trees: int
    max_depth: int
    features_per_split: int
    n_features: int
    rng_seed: int

    def __post_init__(self):
        if len(self.trees) != self.n_trees:
            raise ValueError("tree count mismatch")


def rf_bootstrap_indices(n: int, rng: np.random.Generator) -> np.ndarray:
    return rng.integers(0, n, size=n)


def _best_split(X: np.ndarray, y: np.ndarray, rows: np.ndarray,
                feature_ids: np.ndarray):
    """Lowest weighted-Gini (feature, threshold) over midpoint candidates,
    or None if every candidate feature is constant on the rows (n >= 2).

    All candidate features are scanned at once: each row of the (m, n)
    block of feature values is sorted, and every cut position between
    two distinct values is scored.  Ties break toward the lowest feature
    index, then the lowest threshold (argmin keeps the first minimum).
    """
    features = np.sort(feature_ids)
    n = rows.size
    cols = X[np.ix_(rows, features)].T
    order = np.argsort(cols, axis=1, kind="stable")
    cols_sorted = np.take_along_axis(cols, order, axis=1)
    y_sorted = y[rows][order]
    left_n = np.arange(1, n)
    left_pos = np.cumsum(y_sorted, axis=1)[:, :-1]
    right_n = n - left_n
    right_pos = y_sorted.sum(axis=1, keepdims=True) - left_pos
    p_l = left_pos / left_n
    p_r = right_pos / right_n
    scores = (left_n * 2 * p_l * (1 - p_l) + right_n * 2 * p_r * (1 - p_r)) / n
    scores[np.diff(cols_sorted, axis=1) <= 0] = np.inf
    cuts = np.argmin(scores, axis=1)
    best = scores[np.arange(features.size), cuts]
    k = int(np.argmin(best))
    if best[k] == np.inf:
        return None
    cut = cuts[k]
    return (int(features[k]),
            float((cols_sorted[k, cut] + cols_sorted[k, cut + 1]) / 2))


def _grow(X: np.ndarray, y: np.ndarray, rows: np.ndarray, depth: int,
          max_depth: int, m_features: int, rng: np.random.Generator,
          out: list) -> None:
    pos = float(y[rows].sum())
    if depth >= max_depth or rows.size < 2 or pos == 0 or pos == rows.size:
        out.append((-1, 0.0, pos / rows.size))
        return
    feature_ids = rng.permutation(X.shape[1])[:m_features]
    split = _best_split(X, y, rows, feature_ids)
    if split is None:
        out.append((-1, 0.0, pos / rows.size))
        return
    f, threshold = split
    out.append((f, threshold, float("nan")))
    goes_left = X[rows, f] <= threshold
    _grow(X, y, rows[goes_left], depth + 1, max_depth, m_features, rng, out)
    _grow(X, y, rows[~goes_left], depth + 1, max_depth, m_features, rng, out)


def rf_fit(X: np.ndarray, y: np.ndarray, n_trees: int = 100,
           max_depth: int = 10, features_per_split: int = 0,
           seed: int = 0) -> RfModel:
    """Bagged Gini trees; features_per_split=0 means ceil(sqrt(p)).

    Each tree draws its bootstrap rows and per-node feature subsets from
    its own stream (seed, "rf-tree", tree index), so trees are
    independent and the forest is reproducible.
    """
    X, y = _check_xy(X, y, (0.0, 1.0))
    if n_trees < 1:
        raise ValueError("n_trees must be >= 1")
    p = X.shape[1]
    m = features_per_split if features_per_split > 0 else \
        max(1, int(np.ceil(np.sqrt(p))))
    m = min(m, p)
    trees = []
    for i in range(n_trees):
        rng = derive_rng(seed, "rf-tree", i)
        rows = rf_bootstrap_indices(X.shape[0], rng)
        nodes = []
        _grow(X, y, rows, 0, max_depth, m, rng, nodes)
        trees.append(tuple(nodes))
    return RfModel(trees=tuple(trees), n_trees=n_trees, max_depth=max_depth,
                   features_per_split=m, n_features=p, rng_seed=seed)


def _tree_predict(nodes: tuple, x: np.ndarray) -> float:
    """Walk a preorder node list; skipping a subtree means scanning to its
    end by leaf counting (each internal node owns exactly two subtrees)."""
    idx = 0
    while True:
        feature, threshold, prob = nodes[idx]
        if feature < 0:
            return prob
        if x[feature] <= threshold:
            idx += 1
        else:
            # skip the left subtree: advance until leaves balance internals
            depth = 1
            idx += 1
            while depth > 0:
                depth += 1 if nodes[idx][0] >= 0 else -1
                idx += 1


def rf_predict_proba(model: RfModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ValueError(f"X shape {X.shape} does not match model "
                         f"width {model.n_features}")
    out = np.zeros(X.shape[0])
    for i in range(X.shape[0]):
        out[i] = sum(_tree_predict(tree, X[i]) for tree in model.trees)
    return out / model.n_trees
