"""Partial-least-squares reduction of a feature matrix to A columns.

PLS1 via NIPALS on z-scored columns and the centered binary label:
each round extracts the unit weight vector proportional to X'y, scores
the data, then deflates X and y by the score regression.  Training score
vectors are pairwise orthogonal.

fit_reducer turns one fit into a self-contained Reducer: the input
columns it reads, their training means and sds, and for "latent" scores
the deflation-consistent rotation W (P'W)^-1, which projects new data in
one shot.  A "vip-subset" reducer has no rotation: it reads the top-A
input columns by VIP (variable importance in projection) and returns
them z-scored.
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


def fit_pls(X: np.ndarray, y: np.ndarray, n_components: int) -> PlsModel:
    """NIPALS PLS1 on z-scored columns and centered labels; X is (n, p).

    Constant columns, whose training values are all equal, are dropped
    (columns keeps the others' positions).  Each weight vector is
    sign-fixed by making its largest-magnitude entry positive, so refits
    are bit-reproducible.
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
    # constant means all values equal, compared exactly: the float mean of
    # equal values need not be that value (summed down a column, nine 0.1s
    # have a std of 1.4e-17), and a constant column kept would be z-scored
    # to a constant +-1
    keep = (vals != vals[0]).any(axis=0) & (sds > 0)
    if not keep.any():
        raise ValueError("all feature columns are constant")
    means = vals.mean(axis=0)[keep]
    sds = sds[keep]
    p = sds.size
    if n_components > min(n - 1, p):
        raise ValueError(f"n_components {n_components} exceeds "
                         f"min(n-1, p) = {min(n - 1, p)}")

    # the one (n, p) copy, standardized in place; column-major, as the
    # indexing leaves it.  The first deflation makes the row-major copy
    # that later components' products read (each layout gives its own
    # bits), and every deflation subtracts in place, so the fit holds at
    # most two (n, p) arrays besides X, np.outer's temporary among them
    Xa = vals[:, keep]
    Xa -= means
    Xa /= sds
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
        Xa = np.ascontiguousarray(Xa)  # a copy the first time: see above
        Xa -= np.outer(t, p_a)
        ya = ya - q_a * t
        W[:, a], P[:, a], q[a], tt[a] = w, p_a, q_a, t_sq
    return PlsModel(weights=W, loadings=P, y_loadings=q, score_sq_norms=tt,
                    column_means=means, column_sds=sds,
                    columns=np.flatnonzero(keep), n_inputs=vals.shape[1])


def vip_scores(model: PlsModel) -> np.ndarray:
    """Variable importance in projection, one score per retained column."""
    ss = model.y_loadings ** 2 * model.score_sq_norms  # explained y-variation
    p = model.weights.shape[0]
    contrib = (model.weights ** 2) @ ss
    return np.sqrt(p * contrib / ss.sum())


@dataclass(frozen=True)
class Reducer:
    """A fitted reduction, all of it fixed at fit time."""

    columns: np.ndarray   # (k,) input positions read, in output order
    means: np.ndarray     # (k,) their training means
    sds: np.ndarray       # (k,) and sds, all > 0
    n_inputs: int         # columns of the fitted matrix
    rotation: np.ndarray | None  # (k, A) W (P'W)^-1, or None for vip-subset


def fit_reducer(X: np.ndarray, y: np.ndarray, n_components: int,
                mode: str = "latent") -> Reducer:
    if mode not in ("latent", "vip-subset"):
        raise ValueError(f"unknown reducer mode {mode!r}")
    model = fit_pls(X, y, n_components)
    if mode == "latent":
        keep = slice(None)
        rotation = model.weights @ np.linalg.inv(model.loadings.T @ model.weights)
    else:
        scores = vip_scores(model)
        # stable: VIP descending, then column order
        keep = np.lexsort((np.arange(scores.size), -scores))[:n_components]
        rotation = None
    return Reducer(columns=model.columns[keep], means=model.column_means[keep],
                   sds=model.column_sds[keep], n_inputs=model.n_inputs,
                   rotation=rotation)


def apply_reducer(reducer: Reducer, X: np.ndarray) -> np.ndarray:
    """(n, A) reduced rows of an (n, n_inputs) matrix; a latent reducer
    reproduces the NIPALS scores of its training data.  The reducer's
    columns are copied once, as float64, and standardized in place."""
    if X.ndim != 2 or X.shape[1] != reducer.n_inputs:
        raise ValueError(f"input has {X.shape[-1]} columns, the reducer was "
                         f"fit on {reducer.n_inputs}")
    vals = X[:, reducer.columns].astype(np.float64, copy=False)
    if not np.isfinite(vals).all():
        raise ValueError("non-finite feature values")
    vals -= reducer.means
    vals /= reducer.sds
    return vals if reducer.rotation is None else vals @ reducer.rotation
