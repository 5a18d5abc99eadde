"""ROC/AUC metrics and the k-fold evaluation protocol.

The headline number is the pooled ROC: held-out scores from every fold
are concatenated and swept once.  Per-fold metrics are kept alongside.
The trapezoidal AUC is cross-checked in tests against the rank-statistic
(Mann-Whitney) formulation, which must agree to near machine precision,
ties included.

Results are the plain values the report is written as: make_folds gives
one fold index per record, confusion_metrics a dict, and cross_validate
the whole report dict, keys in the order `run` writes them.  Only the
ROC curve keeps a type, whose checks hold for every curve built.
"""

from dataclasses import dataclass

import numpy as np

from . import classifiers, crbm, features, kernels, pls
from .config import PipelineConfig
from .data_model import Dataset
from .errors import ConfigError, TrainingError
from .seeding import derive_rng, derive_seed


# ---------------------------------------------------------------------------
# ROC and AUC
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RocCurve:
    """Operating points swept over descending score thresholds.

    The first point is (0, 0) at threshold +inf; tied scores collapse to
    one step, so the curve has (#unique scores + 1) points and ends at (1, 1).
    """

    fpr: np.ndarray
    tpr: np.ndarray
    thresholds: np.ndarray

    def __post_init__(self):
        fpr = np.asarray(self.fpr, dtype=np.float64)
        tpr = np.asarray(self.tpr, dtype=np.float64)
        if not (fpr.shape == tpr.shape == self.thresholds.shape):
            raise ValueError("coordinate arrays must share one shape")
        if fpr[0] != 0 or tpr[0] != 0 or fpr[-1] != 1 or tpr[-1] != 1:
            raise ValueError("curve must run from (0,0) to (1,1)")
        if (np.diff(fpr) < 0).any() or (np.diff(tpr) < 0).any():
            raise ValueError("curve coordinates must be non-decreasing")
        object.__setattr__(self, "fpr", fpr)
        object.__setattr__(self, "tpr", tpr)


def _check_scores(scores, labels, need_both: bool = True) -> tuple:
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel().astype(np.int64)
    if scores.shape != labels.shape or scores.size == 0:
        raise ValueError("scores and labels must be equal-length and non-empty")
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    if not np.isin(labels, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    if need_both and (labels.min() == labels.max()):
        raise ValueError("both classes must be present")
    return scores, labels


def roc_curve(scores, labels) -> RocCurve:
    """Threshold sweep over unique scores, descending, ties as one step."""
    scores, labels = _check_scores(scores, labels)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    pos = labels[order]
    tp = np.cumsum(pos)
    fp = np.cumsum(1 - pos)
    last = np.nonzero(np.append(np.diff(s) != 0, True))[0]  # end of each tie run
    return RocCurve(fpr=np.concatenate([[0.0], fp[last] / n_neg]),
                    tpr=np.concatenate([[0.0], tp[last] / n_pos]),
                    thresholds=np.concatenate([[np.inf], s[last]]))


def auc_trapezoid(curve: RocCurve) -> float:
    return float(np.trapezoid(curve.tpr, curve.fpr))


def confusion_metrics(scores, labels, threshold: float) -> dict:
    """Counts and rates for 'positive iff score >= threshold', as the
    report writes them: tp, fp, tn, fn, accuracy, sensitivity,
    specificity, threshold, zero_division.

    A rate whose denominator is zero is reported as 0 and named in the
    zero_division list rather than raising.
    """
    scores, labels = _check_scores(scores, labels, need_both=False)
    pred = scores >= threshold
    actual = labels == 1
    tp = int(np.count_nonzero(pred & actual))
    fp = int(np.count_nonzero(pred & ~actual))
    tn = int(np.count_nonzero(~pred & ~actual))
    fn = int(np.count_nonzero(~pred & actual))
    flags = []
    if tp + fn:
        sens = tp / (tp + fn)
    else:
        sens, flags = 0.0, flags + ["sensitivity"]
    if tn + fp:
        spec = tn / (tn + fp)
    else:
        spec, flags = 0.0, flags + ["specificity"]
    return {"tp": tp, "fp": fp, "tn": tn, "fn": fn,
            "accuracy": (tp + tn) / labels.size,
            "sensitivity": sens, "specificity": spec,
            "threshold": float(threshold), "zero_division": flags}


def youden_threshold(curve: RocCurve) -> float:
    """Threshold maximizing TPR - FPR; the first maximum along the sweep
    (i.e. the highest such threshold) wins."""
    j = curve.tpr - curve.fpr
    idx = int(np.argmax(j))
    t = curve.thresholds[idx]
    return float(t) if np.isfinite(t) else float(curve.thresholds[1])


# ---------------------------------------------------------------------------
# Fold construction
# ---------------------------------------------------------------------------

def make_folds(dataset: Dataset, k: int, mode: str = "slice-level",
               seed: int = 0) -> np.ndarray:
    """The fold in [0, k) of each dataset record, in record order, as an
    int array: label-stratified row assignment, or greedy balanced
    whole-patient assignment that never splits one patient across folds.
    Every fold is non-empty: the n >= k records fill the k slice-level
    folds in turn, and the greedy pass puts the first k of the >= k
    patients into the k empty folds."""
    n = len(dataset)
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if n < k:
        raise ValueError(f"cannot split {n} samples into {k} folds")
    assignments = [0] * n
    if mode == "slice-level":
        counter = 0
        for label in (1, 0):
            idx = [i for i, r in enumerate(dataset.records) if r.label == label]
            rng = derive_rng(seed, "folds", "slice", label)
            for i in rng.permutation(len(idx)):
                assignments[idx[int(i)]] = counter % k
                counter += 1
    elif mode == "patient-grouped":
        groups = {}
        for i, r in enumerate(dataset.records):
            groups.setdefault(r.patient_id, []).append(i)
        patients = list(groups)
        if len(patients) < k:
            raise ValueError(f"patient-grouped folds need >= {k} patients, "
                             f"have {len(patients)}")
        rng = derive_rng(seed, "folds", "grouped")
        shuffled = [patients[int(i)] for i in rng.permutation(len(patients))]
        shuffled.sort(key=lambda p: -len(groups[p]))  # stable: big first
        loads = [0] * k
        for p in shuffled:
            fold = loads.index(min(loads))
            for i in groups[p]:
                assignments[i] = fold
            loads[fold] += len(groups[p])
    else:
        raise ValueError(f"unknown fold mode {mode!r}")
    return np.array(assignments)


# ---------------------------------------------------------------------------
# Cross-validated pipeline evaluation
# ---------------------------------------------------------------------------

def _fold_summary(per_fold) -> dict:
    aucs = [f["auc"] for f in per_fold if f["auc"] is not None]
    if not aucs:
        return {"auc_mean": None, "auc_sd": None}
    return {"auc_mean": float(np.mean(aucs)),
            "auc_sd": float(np.std(aucs))}


def _fit_and_score(clf, Ztr: np.ndarray, ytr: np.ndarray, Zte: np.ndarray,
                   seed: int) -> tuple:
    """Fit the configured head on the training scores, return held-out
    continuous scores and the head's default decision threshold."""
    if clf.kind == "lr":
        model = classifiers.lr_fit(Ztr, ytr, l2=clf.lr_l2, steps=clf.lr_steps)
        return classifiers.lr_predict_proba(model, Zte), 0.5
    if clf.kind == "svm":
        model = classifiers.svm_fit(Ztr, 2.0 * ytr - 1.0, C=clf.svm_c,
                                    epochs=clf.svm_epochs, seed=seed)
        return classifiers.svm_decision(model, Zte), 0.0
    model = classifiers.rf_fit(Ztr, ytr, n_trees=clf.rf_trees,
                               max_depth=clf.rf_depth,
                               features_per_split=clf.rf_features_per_split,
                               seed=seed)
    return classifiers.rf_predict_proba(model, Zte), 0.5


def train_crbm_for(config: PipelineConfig, dataset: Dataset):
    """Unsupervised CRBM fit on every image (labels unseen), as performed
    once before cross-validation.  Returns (model, history); raises
    ConfigError under feature_source radiomics, which uses no CRBM."""
    if config.feature_source == "radiomics":
        raise ConfigError("feature_source 'radiomics' uses no CRBM to train")
    images = features.crbm_training_images(dataset, config)
    init = crbm.init_model(config.crbm.num_filters, config.crbm.kernel_size,
                           config.crbm.input_size,
                           config.crbm.weight_init_sigma,
                           seed=derive_seed(config.seed, "crbm-init"))
    return crbm.train(init, images, config.crbm,
                      seed=derive_seed(config.seed, "crbm-train"))


def cross_validate(config: PipelineConfig, dataset: Dataset,
                   model=None) -> dict:
    """Fold-contained PLS + classifier over a once-built feature matrix;
    returns the report dict that `run` writes, with its keys in the
    written order.

    The CRBM (when used) is trained on all images without labels before
    the folds are formed; that protocol is recorded in provenance.  Patch
    rows inherit their parent slice's fold and their held-out scores are
    averaged back to one score per slice before any metric is computed.
    """
    if config.feature_source != "radiomics" and model is None:
        model, _ = train_crbm_for(config, dataset)
    fm = features.build_features(dataset, config, model)
    folds = make_folds(dataset, config.cv.k, config.cv.mode, config.seed)
    labels = np.array([r.label for r in dataset.records])
    row_folds = folds[fm.records]

    scores = np.full(len(dataset), np.nan)  # one per record
    per_fold = []
    default_threshold = 0.5
    for fold in range(config.cv.k):
        test = row_folds == fold
        Xtr, ytr = fm.values[~test], labels[fm.records[~test]]
        try:
            reducer = pls.fit_reducer(Xtr, ytr, config.pls_components,
                                      config.pls_mode)
            Ztr = pls.apply_reducer(reducer, Xtr)
            Zte = pls.apply_reducer(reducer, fm.values[test])
            row_scores, default_threshold = _fit_and_score(
                config.classifier, Ztr, ytr.astype(np.float64), Zte,
                seed=derive_seed(config.seed, "clf", fold))
        except (ValueError, TrainingError) as exc:
            raise TrainingError(f"fold {fold}: {exc}") from exc
        # a record's rows are adjacent, so its scores are one run of row_scores
        records, starts = np.unique(fm.records[test], return_index=True)
        for record, part in zip(records, np.split(row_scores, starts[1:])):
            scores[record] = np.mean(part)

        in_fold = folds == fold
        f_scores, f_labels = scores[in_fold], labels[in_fold]
        cm = confusion_metrics(f_scores, f_labels, default_threshold)
        fold_auc = (auc_trapezoid(roc_curve(f_scores, f_labels))
                    if 0 < f_labels.sum() < f_labels.size else None)
        per_fold.append({"fold": fold, "n": int(f_labels.size),
                         "auc": fold_auc, **cm})

    curve = roc_curve(scores, labels)
    cm = confusion_metrics(scores, labels, default_threshold)
    yt = youden_threshold(curve)
    ym = confusion_metrics(scores, labels, yt)

    provenance = {
        "feature_source": config.feature_source,
        "classifier": config.classifier.kind,
        "seed": config.seed,
        "cv_mode": config.cv.mode,
        "fold_sizes": np.bincount(folds, minlength=config.cv.k).tolist(),
        "n_slices": len(dataset),
        "n_feature_rows": fm.n_rows,
        "n_feature_columns": fm.n_columns,
        "class_counts": list(dataset.class_counts),
        "crbm_protocol": ("trained once on all images, unsupervised, "
                          "before fold assignment"
                          if config.feature_source != "radiomics" else "unused"),
        "patch_aggregation": ("mean of patch scores per slice"
                              if config.feature_source == "crbm-patch"
                              else "none (one row per slice)"),
        "kernel_backend": kernels.active_backend(),
    }
    return {
        "auc": auc_trapezoid(curve),
        "accuracy": cm["accuracy"],
        "sensitivity": cm["sensitivity"],
        "specificity": cm["specificity"],
        "threshold_used": default_threshold,
        "confusion": {key: cm[key] for key in ("tp", "fp", "tn", "fn")},
        "per_fold": per_fold,
        "per_fold_summary": _fold_summary(per_fold),
        "youden": {"threshold": yt, **ym},
        "roc": {"fpr": curve.fpr.tolist(),
                "tpr": curve.tpr.tolist(),
                "thresholds": [float(t) if np.isfinite(t) else None
                               for t in curve.thresholds]},
        "provenance": provenance,
    }
