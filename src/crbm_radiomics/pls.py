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

import numpy as np

from .errors import TrainingError


@dataclass(frozen=True)
class PlsModel:
    weights: np.ndarray        # (p, A) unit-norm, sign-fixed
    loadings: np.ndarray       # (p, A)
    y_loadings: np.ndarray     # (A,)
    score_sq_norms: np.ndarray  # (A,) t_a' t_a, kept for VIP
    column_means: np.ndarray   # (p,)
    column_sds: np.ndarray     # (p,) all > 0
    columns: np.ndarray        # (p,) positions of the retained input columns
    n_inputs: int              # columns of the fitted matrix, constant ones too

    def __post_init__(self):
        p, a = self.weights.shape
        if self.loadings.shape != (p, a) or self.y_loadings.shape != (a,):
            raise ValueError("inconsistent component shapes")
        if self.column_means.shape != (p,) or self.column_sds.shape != (p,):
            raise ValueError("inconsistent column-statistic shapes")
        if self.columns.shape != (p,):
            raise ValueError("columns length mismatch")
        if (self.column_sds <= 0).any():
            raise ValueError("column_sds must be positive")

    @property
    def rotation(self) -> np.ndarray:
        """R = W (P'W)^-1 so that standardized X @ R reproduces NIPALS scores."""
        return self.weights @ np.linalg.inv(self.loadings.T @ self.weights)


def _standardize(model: PlsModel, X: np.ndarray) -> np.ndarray:
    """The retained columns of X, z-scored with the training statistics."""
    if X.ndim != 2 or X.shape[1] != model.n_inputs:
        raise ValueError(f"input has {X.shape[-1]} columns, the model was "
                         f"fit on {model.n_inputs}")
    vals = X[:, model.columns]
    if not np.isfinite(vals).all():
        raise ValueError("non-finite feature values")
    return (vals - model.column_means) / model.column_sds


def fit_pls(X: np.ndarray, y: np.ndarray, n_components: int) -> PlsModel:
    """NIPALS PLS1 on z-scored columns and centered labels; X is (n, p).

    Zero-variance columns are dropped (columns keeps the others'
    positions).  Each weight vector is sign-fixed by making its
    largest-magnitude entry positive, so refits are bit-reproducible.
    """
    y = np.asarray(y, dtype=np.float64).ravel()
    vals = np.asarray(X, dtype=np.float64)
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
                    columns=np.flatnonzero(keep), n_inputs=vals.shape[1])


def transform(model: PlsModel, X: np.ndarray) -> np.ndarray:
    """(n, A) latent scores of an (n, n_inputs) matrix; training data
    reproduces its NIPALS scores."""
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
    selected: tuple  # vip-subset mode: positions among pls.columns, VIP-descending

    def __post_init__(self):
        if self.mode not in ("latent", "vip-subset"):
            raise ValueError(f"unknown reducer mode {self.mode!r}")


def fit_reducer(X: np.ndarray, y: np.ndarray, n_components: int,
                mode: str = "latent") -> Reducer:
    model = fit_pls(X, y, n_components)
    if mode == "latent":
        return Reducer(mode=mode, pls=model, selected=())
    scores = vip_scores(model)
    # stable: VIP descending, then column order
    order = np.lexsort((np.arange(scores.size), -scores))[:n_components]
    return Reducer(mode=mode, pls=model, selected=tuple(order.tolist()))


def apply_reducer(reducer: Reducer, X: np.ndarray) -> np.ndarray:
    if reducer.mode == "latent":
        return transform(reducer.pls, X)
    return _standardize(reducer.pls, X)[:, list(reducer.selected)]
