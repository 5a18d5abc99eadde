"""ROC machinery, fold construction, and the cross-validation driver."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crbm_radiomics import classifiers, evaluation, features
from crbm_radiomics.config import (
    ClassifierSection,
    CvSection,
    PipelineConfig,
)
from crbm_radiomics.crbm import CrbmConfig
from crbm_radiomics.data_model import Dataset, SampleRecord
from crbm_radiomics.errors import TrainingError
from crbm_radiomics.evaluation import (
    RocCurve,
    auc_trapezoid,
    confusion_metrics,
    cross_validate,
    make_folds,
    roc_curve,
    youden_threshold,
)
from crbm_radiomics.seeding import derive_rng

from auc_reference import auc_mann_whitney


def dummy_dataset(labels, patients=None):
    records = []
    for i, label in enumerate(labels):
        pid = patients[i] if patients else f"P{i}"
        records.append(SampleRecord(sample_id=f"S{i}", patient_id=pid,
                                    image_path="x.pgm", mask_path="m.pgm",
                                    label=int(label)))
    return Dataset(records=tuple(records))


# ---------------------------------------------------------------------------
# ROC curve and AUC
# ---------------------------------------------------------------------------

def test_roc_hand_example():
    scores = [0.9, 0.8, 0.3, 0.1]
    labels = [1, 1, 0, 1]
    curve = roc_curve(scores, labels)
    np.testing.assert_allclose(curve.fpr, [0, 0, 0, 1, 1])
    np.testing.assert_allclose(curve.tpr, [0, 1 / 3, 2 / 3, 2 / 3, 1])
    np.testing.assert_allclose(curve.thresholds[1:], [0.9, 0.8, 0.3, 0.1])
    assert curve.thresholds[0] == np.inf
    assert auc_trapezoid(curve) == pytest.approx(2 / 3, abs=1e-12)
    assert auc_mann_whitney(scores, labels) == pytest.approx(2 / 3, abs=1e-12)


def test_roc_collapses_tied_scores_to_one_step():
    curve = roc_curve([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0])
    points = np.stack([curve.fpr, curve.tpr], axis=1)
    assert points.shape == (2, 2)
    np.testing.assert_allclose(points, [[0, 0], [1, 1]])
    assert auc_trapezoid(curve) == pytest.approx(0.5, abs=1e-12)


def test_roc_point_count_is_unique_scores_plus_one():
    rng = derive_rng(1, "pc")
    scores = rng.integers(0, 10, size=40) / 10.0
    labels = np.array([0, 1] * 20)
    curve = roc_curve(scores, labels)
    assert curve.fpr.size == np.unique(scores).size + 1


def test_auc_extremes():
    assert auc_trapezoid(roc_curve([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])) == 1.0
    assert auc_trapezoid(roc_curve([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1])) == 0.0


def test_trapezoid_equals_mann_whitney_with_ties():
    rng = derive_rng(2, "mw")
    for trial in range(60):
        n = int(rng.integers(4, 60))
        scores = rng.integers(0, max(2, n // 3), size=n) / 7.0
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        a = auc_trapezoid(roc_curve(scores, labels))
        b = auc_mann_whitney(scores, labels)
        assert abs(a - b) < 1e-9


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 80), st.integers(1, 40), st.floats(0.05, 0.95),
       st.integers(0, 2**32 - 1))
def test_trapezoid_equals_mann_whitney_under_random_ties(n, distinct, share, seed):
    # `distinct` score values shared by n samples: from all tied to no ties
    rng = np.random.default_rng(seed)
    scores = rng.integers(0, distinct, size=n) / 7.0
    labels = (rng.random(n) < share).astype(int)
    labels[:2] = [0, 1]  # both classes present, at any balance
    rng.shuffle(labels)
    a = auc_trapezoid(roc_curve(scores, labels))
    b = auc_mann_whitney(scores, labels)
    assert abs(a - b) < 1e-9


def test_roc_validation_errors():
    with pytest.raises(ValueError):
        roc_curve([0.1, 0.2], [1, 1])  # single class
    with pytest.raises(ValueError):
        roc_curve([0.1, np.nan], [1, 0])
    with pytest.raises(ValueError):
        roc_curve([], [])
    with pytest.raises(ValueError):
        roc_curve([0.1], [2])


def test_roc_curve_container_validation():
    with pytest.raises(ValueError):
        RocCurve(fpr=np.array([0.0, 0.5]), tpr=np.array([0.0, 1.0]),
                 thresholds=np.array([np.inf, 0.5]))  # does not reach (1,1)
    with pytest.raises(ValueError):
        RocCurve(fpr=np.array([0.0, 0.7, 0.4, 1.0]),
                 tpr=np.array([0.0, 0.5, 0.6, 1.0]),
                 thresholds=np.array([np.inf, 0.9, 0.5, 0.1]))  # non-monotone


# ---------------------------------------------------------------------------
# Confusion metrics and Youden threshold
# ---------------------------------------------------------------------------

def test_confusion_hand_case():
    cm = confusion_metrics([0.9, 0.4, 0.6, 0.2], [1, 1, 0, 0], 0.5)
    assert (cm["tp"], cm["fp"], cm["tn"], cm["fn"]) == (1, 1, 1, 1)
    assert cm["accuracy"] == 0.5
    assert cm["sensitivity"] == 0.5
    assert cm["specificity"] == 0.5
    assert cm["zero_division"] == []


def test_confusion_threshold_is_inclusive():
    cm = confusion_metrics([0.5, 0.4], [1, 0], 0.5)
    assert cm["tp"] == 1 and cm["tn"] == 1


def test_confusion_zero_division_flags():
    cm = confusion_metrics([0.9, 0.8], [1, 1], 0.5)
    assert cm["zero_division"] == ["specificity"]
    assert cm["specificity"] == 0.0
    cm = confusion_metrics([0.1, 0.2], [0, 0], 0.5)
    assert cm["zero_division"] == ["sensitivity"]


def test_youden_picks_the_separating_threshold():
    curve = roc_curve([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
    assert youden_threshold(curve) == pytest.approx(0.8)


def test_youden_prefers_the_highest_optimal_threshold():
    # J = 1/2 at both 0.9 and 0.5; the sweep reaches 0.9 first
    curve = roc_curve([0.9, 0.7, 0.5, 0.3], [1, 0, 1, 0])
    assert youden_threshold(curve) == pytest.approx(0.9)


def test_youden_degenerate_curve_falls_back_to_finite_threshold():
    assert youden_threshold(roc_curve([0.5, 0.5], [1, 0])) == 0.5


# ---------------------------------------------------------------------------
# Fold construction
# ---------------------------------------------------------------------------

def test_slice_folds_are_balanced_and_stratified():
    rng = derive_rng(3, "folds")
    labels = rng.integers(0, 2, size=103)
    ds = dummy_dataset(labels)
    folds = make_folds(ds, 4, "slice-level", seed=5)
    sizes = np.bincount(folds, minlength=4)
    assert sum(sizes) == 103
    assert max(sizes) - min(sizes) <= 1
    for label in (0, 1):
        per_fold = [sum(1 for i, r in enumerate(ds.records)
                        if r.label == label and folds[i] == f)
                    for f in range(4)]
        assert max(per_fold) - min(per_fold) <= 1


def test_slice_folds_depend_on_seed_deterministically():
    ds = dummy_dataset([0, 1] * 20)
    a = make_folds(ds, 4, "slice-level", seed=1)
    b = make_folds(ds, 4, "slice-level", seed=1)
    c = make_folds(ds, 4, "slice-level", seed=2)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_exact_split_sizes_for_divisible_counts():
    ds = dummy_dataset([0, 1] * 50)
    folds = make_folds(ds, 4, "slice-level", seed=0)
    assert np.bincount(folds, minlength=4).tolist() == [25, 25, 25, 25]


def test_patient_folds_never_split_a_patient():
    rng = derive_rng(4, "pg")
    labels = rng.integers(0, 2, size=60)
    patients = [f"P{i // 3}" for i in range(60)]  # 20 patients of 3 slices
    ds = dummy_dataset(labels, patients)
    folds = make_folds(ds, 4, "patient-grouped", seed=7)
    fold_of = {}
    for i, r in enumerate(ds.records):
        fold_of.setdefault(r.patient_id, set()).add(folds[i])
    assert all(len(s) == 1 for s in fold_of.values())
    sizes = np.bincount(folds, minlength=4)
    assert sum(sizes) == 60
    assert max(sizes) - min(sizes) <= 3  # bounded by the largest group


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=2, max_size=30), st.integers(2, 6),
       st.integers(0, 2**16))
def test_patient_folds_never_split_a_patient_of_any_size(sizes, k, seed):
    if len(sizes) < k:
        sizes = sizes + [1] * (k - len(sizes))
    patients = [f"P{p}" for p, size in enumerate(sizes) for _ in range(size)]
    labels = derive_rng(seed, "pg-labels").integers(0, 2, size=len(patients))
    ds = dummy_dataset(labels, patients)
    folds = make_folds(ds, k, "patient-grouped", seed=seed)
    fold_of = {}
    for i, r in enumerate(ds.records):
        fold_of.setdefault(r.patient_id, set()).add(folds[i])
    assert all(len(s) == 1 for s in fold_of.values())
    fold_sizes = np.bincount(folds, minlength=k)
    assert fold_sizes.size == k  # every fold index lies in [0, k)
    assert fold_sizes.min() >= 1  # and every fold holds a patient
    assert sum(fold_sizes) == len(patients)
    # greedy least-loaded, biggest patients first: no fold exceeds another
    # by more than the largest patient
    assert max(fold_sizes) - min(fold_sizes) <= max(sizes)


def test_patient_folds_handle_uneven_group_sizes():
    labels = [0, 1] * 12
    # patient sizes 7, 6, 5, 3, 2, 1
    patients = (["A"] * 7 + ["B"] * 6 + ["C"] * 5 + ["D"] * 3
                + ["E"] * 2 + ["F"] * 1)
    ds = dummy_dataset(labels, patients)
    folds = make_folds(ds, 3, "patient-grouped", seed=0)
    sizes = np.bincount(folds, minlength=3)
    assert sum(sizes) == 24
    # greedy least-loaded with sizes sorted descending: 7 | 6+1 | 5+3 -> then 2
    assert max(sizes) - min(sizes) <= 2


def test_fold_validation_errors():
    ds = dummy_dataset([0, 1, 0, 1])
    with pytest.raises(ValueError):
        make_folds(ds, 1)
    with pytest.raises(ValueError):
        make_folds(ds, 5)
    with pytest.raises(ValueError):
        make_folds(ds, 2, "leave-one-out")
    two_patients = dummy_dataset([0, 1, 0, 1], ["A", "A", "B", "B"])
    with pytest.raises(ValueError):
        make_folds(two_patients, 3, "patient-grouped")


# ---------------------------------------------------------------------------
# Cross-validated pipeline
# ---------------------------------------------------------------------------

def radiomics_config(**over):
    base = dict(feature_source="radiomics", pls_components=5,
                classifier=ClassifierSection(kind="lr"),
                cv=CvSection(k=3, mode="slice-level"), seed=11)
    base.update(over)
    return PipelineConfig(**base)


def small_crbm_section():
    return CrbmConfig(num_filters=4, kernel_size=5, input_size=16,
                      learning_rate=0.05, cd_steps=1, epochs=1, batch_size=8)


def test_cross_validate_radiomics_lr(tiny_corpus):
    dataset, _ = tiny_corpus
    report = cross_validate(radiomics_config(), dataset)
    assert 0.0 <= report["auc"] <= 1.0
    assert len(report["per_fold"]) == 3
    assert sum(f["n"] for f in report["per_fold"]) == len(dataset)
    assert report["provenance"]["feature_source"] == "radiomics"
    assert report["provenance"]["crbm_protocol"] == "unused"
    assert sum(report["confusion"].values()) == len(dataset)
    assert report["roc"]["thresholds"][0] is None  # inf serialized as null
    assert report["per_fold_summary"]["auc_mean"] is not None


def test_cross_validate_is_deterministic(tiny_corpus):
    dataset, _ = tiny_corpus
    a = cross_validate(radiomics_config(), dataset)
    b = cross_validate(radiomics_config(), dataset)
    assert a == b


def test_cross_validate_report_keys_are_in_the_written_order(tiny_corpus):
    dataset, _ = tiny_corpus
    report = cross_validate(radiomics_config(), dataset)
    counts = ["tp", "fp", "tn", "fn"]
    rates = ["accuracy", "sensitivity", "specificity"]
    assert list(report) == ["auc", *rates, "threshold_used",
                            "confusion", "per_fold", "per_fold_summary",
                            "youden", "roc", "provenance"]
    assert list(report["confusion"]) == counts
    for fold in report["per_fold"]:
        assert list(fold) == ["fold", "n", "auc", *counts, *rates,
                              "threshold", "zero_division"]
    assert list(report["per_fold_summary"]) == ["auc_mean", "auc_sd"]
    assert list(report["youden"]) == ["threshold", *counts, *rates,
                                      "zero_division"]
    assert list(report["roc"]) == ["fpr", "tpr", "thresholds"]
    assert list(report["provenance"]) == [
        "feature_source", "classifier", "seed", "cv_mode", "fold_sizes",
        "n_slices", "n_feature_rows", "n_feature_columns", "class_counts",
        "crbm_protocol", "patch_aggregation", "kernel_backend",
        "blas_threads"]


def test_cross_validate_crbm_patch_aggregates_to_slices(tiny_corpus):
    dataset, _ = tiny_corpus
    config = radiomics_config(feature_source="crbm-patch",
                              crbm=small_crbm_section(), patch_stride=8,
                              pls_components=4)
    report = cross_validate(config, dataset)
    assert report["provenance"]["n_feature_rows"] > len(dataset)
    assert report["provenance"]["patch_aggregation"] == "mean of patch scores per slice"
    assert len(report["roc"]["fpr"]) <= len(dataset) + 1
    assert 0.0 <= report["auc"] <= 1.0


def test_crbm_patch_slice_score_is_the_mean_of_its_patch_scores(tiny_corpus,
                                                                monkeypatch):
    dataset, _ = tiny_corpus
    config = radiomics_config(
        feature_source="crbm-patch", patch_stride=4, pls_components=4,
        crbm=CrbmConfig(num_filters=4, kernel_size=3, input_size=8,
                        learning_rate=0.05, epochs=1, batch_size=8))
    spied = {"patch_scores": [], "roc_scores": []}

    def spy(module, name, record):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            out = real(*args, **kwargs)
            record(args, out)
            return out

        monkeypatch.setattr(module, name, wrapper)

    spy(features, "build_features", lambda args, fm: spied.update(fm=fm))
    spy(classifiers, "lr_predict_proba",
        lambda args, out: spied["patch_scores"].append(out))
    spy(evaluation, "roc_curve",
        lambda args, out: spied["roc_scores"].append(args[0]))
    cross_validate(config, dataset)

    records = spied["fm"].records
    assert np.bincount(records).min() >= 8  # patches per slice
    folds = make_folds(dataset, 3, "slice-level", 11)
    want = np.empty(len(dataset))
    for fold, patch_scores in enumerate(spied["patch_scores"]):
        test_records = records[folds[records] == fold]
        for record in np.unique(test_records):
            want[record] = np.mean(patch_scores[test_records == record])
    pooled = spied["roc_scores"][-1]  # the pooled sweep, in manifest order
    assert np.array_equal(pooled, want)  # bit-equal


def test_cross_validate_crbm_image_source(tiny_corpus):
    dataset, _ = tiny_corpus
    config = radiomics_config(feature_source="crbm-image",
                              crbm=small_crbm_section(), pls_components=4,
                              classifier=ClassifierSection(kind="svm"))
    report = cross_validate(config, dataset)
    assert report["provenance"]["n_feature_rows"] == len(dataset)
    assert report["threshold_used"] == 0.0  # svm decisions cut at zero margin


def test_cross_validate_annotates_fold_failures(tiny_corpus):
    dataset, _ = tiny_corpus
    config = radiomics_config(pls_components=100)  # exceeds fold row count
    with pytest.raises(TrainingError, match=r"fold 0:"):
        cross_validate(config, dataset)


def test_cross_validate_patient_grouped_mode(tiny_corpus):
    dataset, _ = tiny_corpus
    config = radiomics_config(cv=CvSection(k=3, mode="patient-grouped"))
    report = cross_validate(config, dataset)
    assert report["provenance"]["cv_mode"] == "patient-grouped"
    assert 0.0 <= report["auc"] <= 1.0
