"""The three prediction heads: logistic regression, linear SVM, random forest.

Each head exposes a fit function and a continuous scorer (probability or
raw margin); ROC analysis downstream needs only the ranking.  All
stochastic pieces (SVM shuffling, forest bootstraps and feature subsets)
draw from streams derived from an explicit seed, so refits are
bit-reproducible.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
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


def _check_width(width: int, X: np.ndarray) -> np.ndarray:
    """X as float64 rows of the model's width, all finite: a NaN or inf
    feature would otherwise score silently (NaN <= t is False)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != width:
        raise ValueError(f"X width {X.shape} does not match model "
                         f"width {width}")
    if not np.isfinite(X).all():
        raise ValueError("non-finite features")
    return X


@dataclass(frozen=True)
class LinearModel:
    """The LR and SVM heads' model: both score X @ weights + bias."""

    weights: np.ndarray
    bias: float

    def __post_init__(self):
        if not (np.isfinite(self.weights).all() and np.isfinite(self.bias)):
            raise ValueError("non-finite parameters")


# ---------------------------------------------------------------------------
# Logistic regression
# ---------------------------------------------------------------------------

def lr_gradient(weights: np.ndarray, bias: float, X: np.ndarray,
                y: np.ndarray, l2: float) -> tuple:
    """Exact gradient (d/dw, d/db) of the mean cross-entropy plus
    (l2/2)||w||^2; the bias is not regularized."""
    resid = kernels.sigmoid(X @ weights, bias)
    resid -= y
    grad_w = X.T @ resid
    grad_w /= X.shape[0]
    grad_w += l2 * weights
    return grad_w, float(resid.sum()) / X.shape[0]


def lr_fit(X: np.ndarray, y: np.ndarray, l2: float = 1e-3,
           steps: int = 500) -> LinearModel:
    """Full-batch gradient descent with a Lipschitz-safe fixed step.

    The logistic Hessian's largest eigenvalue is at most
    ||X||_F^2 / (4n) + l2, so step = 1/that bound guarantees monotone loss.
    Stops early when the gradient's max-norm falls below 1e-8.  Only the
    gradient is computed: the loss steers nothing.
    """
    if l2 < 0:
        raise ValueError("l2 must be >= 0")
    X, y = _check_xy(X, y, (0.0, 1.0))
    n, p = X.shape
    lipschitz = 0.25 * float((X * X).sum()) / n + l2 + 1e-12
    step = 1.0 / lipschitz
    w = np.zeros(p)
    b = 0.0
    for _ in range(steps):
        gw, gb = lr_gradient(w, b, X, y, l2)
        if max(np.abs(gw).max(initial=0.0), abs(gb)) < 1e-8:
            break
        gw *= step
        w -= gw
        b -= step * gb
    return LinearModel(weights=w, bias=b)


def lr_predict_proba(model: LinearModel, X: np.ndarray) -> np.ndarray:
    X = _check_width(model.weights.shape[0], X)
    return kernels.sigmoid(X @ model.weights, model.bias)


# ---------------------------------------------------------------------------
# Linear SVM
# ---------------------------------------------------------------------------


def svm_fit(X: np.ndarray, y: np.ndarray, C: float = 1.0,
            epochs: int = 200, seed: int = 0) -> LinearModel:
    """Single-sample subgradient descent with a decaying step on
    (1/2)||w||^2 + C * sum(hinge).

    Equivalent scaling: lambda = 1/(C n) turns the objective into the
    mean-hinge form, and step 1/(lambda (t + n)) decays like the classic
    schedule but skips the violent first updates.
    """
    if C <= 0:
        raise ValueError("C must be > 0")
    X, y = _check_xy(X, y, (-1.0, 1.0))
    n, p = X.shape
    lam = 1.0 / (C * n)
    w = np.zeros(p)
    b = 0.0
    t = 0
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
    return LinearModel(weights=w, bias=b)


def svm_decision(model: LinearModel, X: np.ndarray) -> np.ndarray:
    """Raw margin Xw + b; sign is the class call, magnitude the confidence."""
    X = _check_width(model.weights.shape[0], X)
    return X @ model.weights + model.bias


# ---------------------------------------------------------------------------
# Random forest
# ---------------------------------------------------------------------------

# Block elements (nodes x features x rows) one batched split search scores
# at once: at the workloads' 5 of 20 features and 150 rows, about 10 nodes.
# On the radiomics-rf folds, 2**13-2**15 time alike, and one block per
# step grows a forest about 30% slower.  The smallest holds the least
# memory: a forest's traced peak is 0.96 MB, against 1.36 MB at 2**14.
_SPLIT_BLOCK = 2 ** 13


@dataclass(frozen=True)
class RfModel:
    """trees are preorder node lists; node = (feature, threshold, value).
    A split has feature >= 0, its left child next in the list, and the
    index of its right child as value; a leaf has feature = -1 and the
    class-1 fraction as value.  rf_fit grows the trees in lockstep, but
    each list is the tree's recursive preorder."""

    trees: tuple
    n_features: int


def _best_splits(X: np.ndarray, y: np.ndarray, rows: np.ndarray,
                 sizes: np.ndarray, features: np.ndarray) -> tuple:
    """Lowest weighted-Gini (feature, threshold) of each node of a block.

    Node b holds the rows rows[b, :sizes[b]] of X and y (sizes >= 2).  Its
    padding rows[b, sizes[b]:] indexes a sentinel row that is +inf in X
    and 0 in y, so it sorts after every value and adds no positives.
    features[b] holds the node's candidate columns in ascending order.
    Each (node, feature) row of the (nodes, m, rows) block is sorted, and
    every cut between two distinct values of the node's own rows is
    scored; the threshold is their midpoint, or the lower value where the
    midpoint is not below the upper one.  Ties break toward the lowest
    feature, then the lowest threshold (argmin keeps the first minimum).
    The sort need not be stable: a cut's positives are all rows with
    values up to the cut, whatever the order among equal values.  Returns
    the arrays (feature, threshold, found); found is False where every
    candidate feature is constant on the node's rows.
    """
    nodes, width = rows.shape
    cols = X.take(rows[:, None, :] * X.shape[1] + features[:, :, None])
    order = cols.argsort(axis=2)
    # where each (node, feature) row starts in cols, each node in y[rows]
    col_starts = np.arange(0, cols.size, width).reshape(nodes, -1, 1)
    node_starts = np.arange(0, rows.size, width)[:, None, None]
    cols = cols.take(order + col_starts)
    pos = np.cumsum(y[rows].take(order + node_starts), axis=2)
    n = sizes[:, None, None]
    left_n = np.arange(1, width)
    right_n = np.maximum(n - left_n, 1)  # cuts at or past n - 1 are masked
    # (2 left_n p_l (1 - p_l) + 2 right_n p_r (1 - p_r)) / n, in place
    p_l = pos[:, :, :-1] / left_n
    p_r = pos[:, :, -1:] - pos[:, :, :-1]
    p_r /= right_n
    gini = 1 - p_l
    p_l *= left_n * 2
    p_l *= gini
    np.subtract(1, p_r, out=gini)
    p_r *= right_n * 2
    p_r *= gini
    scores = p_l
    scores += p_r
    scores /= n
    np.copyto(scores, np.inf, where=cols[:, :, 1:] == cols[:, :, :-1])
    short = sizes < width
    scores[short, :, sizes[short] - 1] = np.inf
    scores = scores.reshape(nodes, -1)
    best = np.argmin(scores, axis=1)
    k, cut = np.divmod(best, width - 1)
    b = np.arange(nodes)
    lo, hi = cols[b, k, cut], cols[b, k, cut + 1]
    # halves first, so that no sum overflows; the midpoint of two adjacent
    # floats can round up to hi, and then the cut is at lo, so that each
    # side keeps its rows
    threshold = lo / 2 + hi / 2
    threshold = np.where(threshold < hi, threshold, lo)
    return features[b, k], threshold, scores[b, best] < np.inf


def _split_nodes(X: np.ndarray, y: np.ndarray, chunk: list) -> None:
    """Score a chunk of pending nodes in one block and grow their trees.

    X and y end in the sentinel row; a pending node is (rows, depth,
    positives, its tree's node list, its tree's stack, feature subset),
    and the widest node comes first.  A node without a split becomes a
    leaf; a split node is listed and pushes its right child, marked with
    the split's index, then its left child, so the left subtree is grown
    first.
    """
    width = chunk[0][0].size
    sizes = np.array([node[0].size for node in chunk])
    block = np.full((len(chunk), width), X.shape[0] - 1)
    block[np.arange(width) < sizes[:, None]] = \
        np.concatenate([node[0] for node in chunk])
    f, threshold, found = _best_splits(
        X, y, block, sizes, np.sort([node[5] for node in chunk], axis=1))
    goes_left = X.take(block * X.shape[1] + f[:, None]) <= threshold[:, None]
    left_pos = np.where(goes_left, y.take(block), 0.0).sum(axis=1)
    for (rows, depth, pos, nodes, stack, _), split, feature, cut, left, \
            pos_left in zip(chunk, found.tolist(), f.tolist(),
                            threshold.tolist(), goes_left, left_pos.tolist()):
        if not split:
            nodes.append((-1, 0.0, pos / rows.size))
            continue
        nodes.append((feature, cut, -1))
        left = left[:rows.size]
        stack.append((rows[~left], depth + 1, pos - pos_left, len(nodes) - 1))
        stack.append((rows[left], depth + 1, pos_left, -1))


def rf_fit(X: np.ndarray, y: np.ndarray, n_trees: int = 100,
           max_depth: int = 10, features_per_split: int = 0,
           seed: int = 0) -> RfModel:
    """Bagged Gini trees; features_per_split=0 means ceil(sqrt(p)).

    Each tree draws its bootstrap rows and per-node feature subsets from
    its own stream (seed, "rf-tree", tree index), so trees are
    independent and the forest is reproducible.

    The trees grow in lockstep.  Each walks its nodes in preorder, left
    child first, off its own stack.  A step advances every tree to its
    next node that needs a split, listing the leaves on the way, and
    draws that node's feature subset.  It then scores all those nodes,
    widest first, in blocks of at most _SPLIT_BLOCK elements.  So every
    stream is drawn, and every node listed, in the order of recursive
    growth, and a step's memory stays bounded.  A split is listed with
    a placeholder index, which its right child overwrites with its own
    index when popped.
    """
    X, y = _check_xy(X, y, (0.0, 1.0))
    if n_trees < 1:
        raise ValueError("n_trees must be >= 1")
    n, p = X.shape
    m = features_per_split if features_per_split > 0 else \
        max(1, int(np.ceil(np.sqrt(p))))
    m = min(m, p)
    X_pad = np.vstack([X, np.full(p, np.inf)])
    y_pad = np.append(y, 0.0)
    rngs = [derive_rng(seed, "rf-tree", i) for i in range(n_trees)]
    trees = [[] for _ in range(n_trees)]
    stacks = []
    for rng in rngs:
        rows = rng.integers(0, n, size=n)  # the bootstrap rows
        stacks.append([(rows, 0, float(y[rows].sum()), -1)])
    while True:
        pending = []
        for nodes, stack, rng in zip(trees, stacks, rngs):
            while stack:
                rows, depth, pos, parent = stack.pop()
                if parent >= 0:
                    nodes[parent] = (*nodes[parent][:2], len(nodes))
                if depth >= max_depth or rows.size < 2 or pos == 0 \
                        or pos == rows.size:
                    nodes.append((-1, 0.0, pos / rows.size))
                else:
                    pending.append((rows, depth, pos, nodes, stack,
                                    rng.permutation(p)[:m]))
                    break
        if not pending:
            break
        pending.sort(key=lambda node: node[0].size, reverse=True)
        start = 0
        while start < len(pending):
            width = pending[start][0].size
            stop = start + max(1, _SPLIT_BLOCK // (m * width))
            _split_nodes(X_pad, y_pad, pending[start:stop])
            start = stop
    return RfModel(trees=tuple(tuple(nodes) for nodes in trees), n_features=p)


def _tree_predict(nodes: tuple, x: list) -> float:
    """Walk a preorder node list from the root to x's leaf."""
    idx = 0
    while True:
        feature, threshold, value = nodes[idx]
        if feature < 0:
            return value
        idx = idx + 1 if x[feature] <= threshold else value


def rf_predict_proba(model: RfModel, X: np.ndarray) -> np.ndarray:
    X = _check_width(model.n_features, X)
    # rows as Python lists, which index faster than numpy rows
    return np.array([sum(_tree_predict(tree, x) for tree in model.trees)
                     for x in X.tolist()]) / len(model.trees)
