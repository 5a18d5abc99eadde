"""Partial-least-squares reduction of a feature matrix to A latent scores.

PLS1 via NIPALS on z-scored columns and the centered binary label:
each round extracts the unit weight vector proportional to X'y, scores
the data, then deflates X and y by the score regression.  Training score
vectors are pairwise orthogonal; new data is projected in one shot
through the deflation-consistent rotation W (P'W)^-1.

An alternative "vip-subset" reducer keeps the top-A original columns by
VIP (variable importance in projection) instead of latent scores.
"""

from dataclasses import dataclass
from itertools import compress

import numpy as np

from .errors import TrainingError
from .features import FeatureMatrix


@dataclass(frozen=True)
class PlsModel:
    weights: np.ndarray        # (p, A) unit-norm, sign-fixed
    loadings: np.ndarray       # (p, A)
    y_loadings: np.ndarray     # (A,)
    score_sq_norms: np.ndarray  # (A,) t_a' t_a, kept for VIP
    column_means: np.ndarray   # (p,)
    column_sds: np.ndarray     # (p,) all > 0
    feature_names: tuple       # retained columns, order matches the arrays
    dropped_names: tuple       # zero-variance columns removed before fitting
    source_names: tuple        # every column of the fitted matrix, in order
    source_columns: np.ndarray  # (p,) position of each retained column there

    def __post_init__(self):
        p, a = self.weights.shape
        if self.loadings.shape != (p, a) or self.y_loadings.shape != (a,):
            raise ValueError("inconsistent component shapes")
        if self.column_means.shape != (p,) or self.column_sds.shape != (p,):
            raise ValueError("inconsistent column-statistic shapes")
        if len(self.feature_names) != p or self.source_columns.shape != (p,):
            raise ValueError("feature_names or source_columns length mismatch")
        if (self.column_sds <= 0).any():
            raise ValueError("column_sds must be positive")

    @property
    def n_components(self) -> int:
        return self.weights.shape[1]

    @property
    def rotation(self) -> np.ndarray:
        """R = W (P'W)^-1 so that standardized X @ R reproduces NIPALS scores."""
        return self.weights @ np.linalg.inv(self.loadings.T @ self.weights)


def _column_order(X: FeatureMatrix, model: PlsModel) -> np.ndarray:
    """Positions of the model's columns in X; a matrix with the columns
    the model was fit on, in that order, skips the lookup by name."""
    if X.names == model.source_names:
        return model.source_columns
    pos = {name: i for i, name in enumerate(X.names)}
    missing = [n for n in model.feature_names if n not in pos]
    if missing:
        raise ValueError(f"input is missing trained columns {missing[:5]}")
    return np.array([pos[n] for n in model.feature_names])


def _standardize(model: PlsModel, X: FeatureMatrix) -> np.ndarray:
    vals = X.values[:, _column_order(X, model)]
    if not np.isfinite(vals).all():
        raise ValueError("non-finite feature values")
    return (vals - model.column_means) / model.column_sds


def fit_pls(X: FeatureMatrix, y: np.ndarray, n_components: int) -> PlsModel:
    """NIPALS PLS1 on z-scored columns and centered labels.

    Zero-variance columns are dropped (recorded in dropped_names).  Each
    weight vector is sign-fixed by making its largest-magnitude entry
    positive, so refits are bit-reproducible.
    """
    y = np.asarray(y, dtype=np.float64).ravel()
    vals = X.values
    n = vals.shape[0]
    if y.shape[0] != n:
        raise ValueError("label count does not match rows")
    if n < 2:
        raise ValueError("need at least 2 samples")
    if len(np.unique(y)) < 2:
        raise ValueError("labels are single-class")
    sds = vals.std(axis=0)
    keep = sds > 0
    if not keep.any():
        raise ValueError("all feature columns are constant")
    names = tuple(compress(X.names, keep.tolist()))
    dropped = tuple(compress(X.names, (~keep).tolist()))
    means = vals.mean(axis=0)[keep]
    sds = sds[keep]
    p = sds.size
    if n_components > min(n - 1, p):
        raise ValueError(f"n_components {n_components} exceeds "
                         f"min(n-1, p) = {min(n - 1, p)}")

    Xa = (vals[:, keep] - means) / sds
    ya = y - y.mean()
    W = np.empty((p, n_components))
    P = np.empty((p, n_components))
    q = np.empty(n_components)
    tt = np.empty(n_components)
    for a in range(n_components):
        cov = Xa.T @ ya
        norm = np.linalg.norm(cov)
        if norm < 1e-12:
            raise TrainingError(
                f"response fully deflated after {a} components; "
                f"reduce n_components below {n_components}")
        w = cov / norm
        if w[np.argmax(np.abs(w))] < 0:
            w = -w
        t = Xa @ w
        t_sq = float(t @ t)
        if t_sq < 1e-24:
            raise TrainingError(f"degenerate score vector at component {a}")
        p_a = Xa.T @ t / t_sq
        q_a = float(ya @ t) / t_sq
        Xa = Xa - np.outer(t, p_a)
        ya = ya - q_a * t
        W[:, a], P[:, a], q[a], tt[a] = w, p_a, q_a, t_sq
    return PlsModel(weights=W, loadings=P, y_loadings=q, score_sq_norms=tt,
                    column_means=means, column_sds=sds,
                    feature_names=names, dropped_names=dropped,
                    source_names=X.names, source_columns=np.flatnonzero(keep))


def transform(model: PlsModel, X: FeatureMatrix) -> np.ndarray:
    """(n, A) latent scores; training data reproduces its NIPALS scores."""
    return _standardize(model, X) @ model.rotation


def vip_scores(model: PlsModel) -> np.ndarray:
    """Variable importance in projection, one score per retained column."""
    ss = model.y_loadings ** 2 * model.score_sq_norms  # explained y-variation
    p = model.weights.shape[0]
    contrib = (model.weights ** 2) @ ss
    return np.sqrt(p * contrib / ss.sum())


@dataclass(frozen=True)
class Reducer:
    """Either the latent-score projection or a VIP-ranked column subset."""

    mode: str  # "latent" | "vip-subset"
    pls: PlsModel
    selected: tuple  # vip-subset mode: retained column names, VIP-descending

    def __post_init__(self):
        if self.mode not in ("latent", "vip-subset"):
            raise ValueError(f"unknown reducer mode {self.mode!r}")


def fit_reducer(X: FeatureMatrix, y: np.ndarray, n_components: int,
                mode: str = "latent") -> Reducer:
    model = fit_pls(X, y, n_components)
    if mode == "latent":
        return Reducer(mode=mode, pls=model, selected=())
    scores = vip_scores(model)
    # stable: VIP descending, then column order
    order = np.lexsort((np.arange(scores.size), -scores))[:n_components]
    selected = tuple(model.feature_names[i] for i in order)
    return Reducer(mode=mode, pls=model, selected=selected)


def apply_reducer(reducer: Reducer, X: FeatureMatrix) -> np.ndarray:
    if reducer.mode == "latent":
        return transform(reducer.pls, X)
    std = _standardize(reducer.pls, X)
    pos = {n: i for i, n in enumerate(reducer.pls.feature_names)}
    return std[:, [pos[n] for n in reducer.selected]]
