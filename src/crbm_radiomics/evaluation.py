"""ROC/AUC metrics and the k-fold evaluation protocol.

The headline number is the pooled ROC: held-out scores from every fold
are concatenated and swept once.  Per-fold metrics are kept alongside.
The trapezoidal AUC is cross-checked in tests against the rank-statistic
(Mann-Whitney) formulation, which must agree to near machine precision,
ties included.
"""

from dataclasses import dataclass, field

import numpy as np

from . import classifiers, crbm, features, kernels, pls
from .config import PipelineConfig
from .data_model import Dataset
from .errors import TrainingError
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

    @property
    def points(self) -> np.ndarray:
        return np.stack([self.fpr, self.tpr], axis=1)


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


def auc_mann_whitney(scores, labels) -> float:
    """(#pos-over-neg pairs + half the tied pairs) / (n_pos * n_neg)."""
    scores, labels = _check_scores(scores, labels)
    pos = scores[labels == 1][:, None]
    neg = scores[labels == 0][None, :]
    wins = np.count_nonzero(pos > neg)
    ties = np.count_nonzero(pos == neg)
    return (wins + 0.5 * ties) / (pos.size * neg.size)


@dataclass(frozen=True)
class ConfusionMetrics:
    tp: int
    fp: int
    tn: int
    fn: int
    accuracy: float
    sensitivity: float
    specificity: float
    threshold: float
    zero_division: tuple = ()

    def to_dict(self) -> dict:
        return {"tp": self.tp, "fp": self.fp, "tn": self.tn, "fn": self.fn,
                "accuracy": self.accuracy, "sensitivity": self.sensitivity,
                "specificity": self.specificity, "threshold": self.threshold,
                "zero_division": list(self.zero_division)}


def confusion_metrics(scores, labels, threshold: float) -> ConfusionMetrics:
    """Counts and rates for 'positive iff score >= threshold'.

    A rate whose denominator is zero is reported as 0 and named in
    zero_division rather than raising.
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
    return ConfusionMetrics(tp=tp, fp=fp, tn=tn, fn=fn,
                            accuracy=(tp + tn) / labels.size,
                            sensitivity=sens, specificity=spec,
                            threshold=float(threshold),
                            zero_division=tuple(flags))


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

@dataclass(frozen=True)
class FoldPlan:
    k: int
    assignments: tuple  # fold index per dataset record, in record order
    mode: str
    seed: int

    def __post_init__(self):
        if sorted(set(self.assignments)) != list(range(self.k)):
            raise ValueError("assignments must use every fold in [0, k)")

    def fold_sizes(self) -> tuple:
        return tuple(self.assignments.count(f) for f in range(self.k))


def make_folds(dataset: Dataset, k: int, mode: str = "slice-level",
               seed: int = 0) -> FoldPlan:
    """Label-stratified row assignment, or greedy balanced whole-patient
    assignment that never splits one patient across folds."""
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
    return FoldPlan(k=k, assignments=tuple(assignments), mode=mode, seed=seed)


# ---------------------------------------------------------------------------
# Cross-validated pipeline evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvalReport:
    auc: float
    accuracy: float
    sensitivity: float
    specificity: float
    threshold_used: float
    confusion: tuple  # (tp, fp, tn, fn)
    per_fold: tuple   # one dict per fold
    youden: dict      # same metrics at the Youden-optimal threshold
    roc: RocCurve
    provenance: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        thresholds = [None if not np.isfinite(t) else float(t)
                      for t in self.roc.thresholds]
        return {
            "auc": self.auc,
            "accuracy": self.accuracy,
            "sensitivity": self.sensitivity,
            "specificity": self.specificity,
            "threshold_used": self.threshold_used,
            "confusion": {"tp": self.confusion[0], "fp": self.confusion[1],
                          "tn": self.confusion[2], "fn": self.confusion[3]},
            "per_fold": list(self.per_fold),
            "per_fold_summary": _fold_summary(self.per_fold),
            "youden": self.youden,
            "roc": {"fpr": self.roc.fpr.tolist(),
                    "tpr": self.roc.tpr.tolist(),
                    "thresholds": thresholds},
            "provenance": self.provenance,
        }


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
        model, _ = classifiers.svm_fit(Ztr, 2.0 * ytr - 1.0, C=clf.svm_c,
                                       epochs=clf.svm_epochs, seed=seed)
        return classifiers.svm_decision(model, Zte), 0.0
    model = classifiers.rf_fit(Ztr, ytr, n_trees=clf.rf_trees,
                               max_depth=clf.rf_depth,
                               features_per_split=clf.rf_features_per_split,
                               seed=seed)
    return classifiers.rf_predict_proba(model, Zte), 0.5


def train_crbm_for(config: PipelineConfig, dataset: Dataset):
    """Unsupervised CRBM fit on every image (labels unseen), as performed
    once before cross-validation.  Returns (model, history)."""
    images = features.crbm_training_images(dataset, config)
    init = crbm.init_model(config.crbm.num_filters, config.crbm.kernel_size,
                           config.crbm.input_size,
                           config.crbm.weight_init_sigma,
                           seed=derive_seed(config.seed, "crbm-init"))
    return crbm.train(init, images, config.crbm.train_config(
        seed=derive_seed(config.seed, "crbm-train")))


def cross_validate(config: PipelineConfig, dataset: Dataset,
                   model=None) -> EvalReport:
    """Fold-contained PLS + classifier over a once-built feature matrix.

    The CRBM (when used) is trained on all images without labels before
    the folds are formed; that protocol is recorded in provenance.  Patch
    rows inherit their parent slice's fold and their held-out scores are
    averaged back to one score per slice before any metric is computed.
    """
    if config.feature_source != "radiomics" and model is None:
        model, _ = train_crbm_for(config, dataset)
    fm = features.build_features(dataset, config, model)
    plan = make_folds(dataset, config.cv.k, config.cv.mode, config.seed)
    fold_of_slice = {r.sample_id: plan.assignments[i]
                     for i, r in enumerate(dataset.records)}
    row_folds = np.array([fold_of_slice[p] for p in fm.parents])

    slice_scores = {}
    per_fold = []
    default_threshold = 0.5
    for fold in range(plan.k):
        train_rows = np.nonzero(row_folds != fold)[0]
        test_rows = np.nonzero(row_folds == fold)[0]
        Xtr, ytr = fm.values[train_rows], fm.labels[train_rows]
        try:
            reducer = pls.fit_reducer(Xtr, ytr, config.pls_components,
                                      config.pls_mode)
            Ztr = pls.apply_reducer(reducer, Xtr)
            Zte = pls.apply_reducer(reducer, fm.values[test_rows])
            scores, default_threshold = _fit_and_score(
                config.classifier, Ztr, ytr.astype(np.float64), Zte,
                seed=derive_seed(config.seed, "clf", fold))
        except (ValueError, TrainingError) as exc:
            raise TrainingError(f"fold {fold}: {exc}") from exc
        by_parent = {}
        for i, row in enumerate(test_rows):
            by_parent.setdefault(fm.parents[row], []).append(scores[i])
        for parent, vals in by_parent.items():
            slice_scores[parent] = float(np.mean(vals))

        f_ids = [r.sample_id for i, r in enumerate(dataset.records)
                 if plan.assignments[i] == fold]
        f_scores = np.array([slice_scores[s] for s in f_ids])
        f_labels = np.array([r.label for i, r in enumerate(dataset.records)
                             if plan.assignments[i] == fold])
        cm = confusion_metrics(f_scores, f_labels, default_threshold)
        fold_auc = (auc_trapezoid(roc_curve(f_scores, f_labels))
                    if 0 < f_labels.sum() < f_labels.size else None)
        per_fold.append({"fold": fold, "n": int(f_labels.size),
                         "auc": fold_auc, **cm.to_dict()})

    pooled_scores = np.array([slice_scores[r.sample_id]
                              for r in dataset.records])
    pooled_labels = np.array([r.label for r in dataset.records])
    curve = roc_curve(pooled_scores, pooled_labels)
    cm = confusion_metrics(pooled_scores, pooled_labels, default_threshold)
    yt = youden_threshold(curve)
    ym = confusion_metrics(pooled_scores, pooled_labels, yt)

    provenance = {
        "feature_source": config.feature_source,
        "classifier": config.classifier.kind,
        "seed": config.seed,
        "cv_mode": plan.mode,
        "fold_sizes": list(plan.fold_sizes()),
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
    return EvalReport(auc=auc_trapezoid(curve),
                      accuracy=cm.accuracy, sensitivity=cm.sensitivity,
                      specificity=cm.specificity,
                      threshold_used=default_threshold,
                      confusion=(cm.tp, cm.fp, cm.tn, cm.fn),
                      per_fold=tuple(per_fold),
                      youden={"threshold": yt, **ym.to_dict()},
                      roc=curve, provenance=provenance)
