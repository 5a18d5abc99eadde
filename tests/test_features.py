"""Feature-matrix assembly from manifests, for all three sources."""

import numpy as np
import pytest

from crbm_radiomics import crbm, features, radiomics
from crbm_radiomics.config import CrbmSection, PipelineConfig
from crbm_radiomics.data_model import (MANIFEST_HEADER, Image2D, RoiMask,
                                       load_manifest, load_sample, save_image,
                                       save_mask)
from crbm_radiomics.errors import ConfigError
from crbm_radiomics.features import (
    FeatureMatrix,
    build_features,
    column_names,
    crbm_image_features,
    crbm_patch_features,
    crbm_training_images,
    radiomics_features,
)
from crbm_radiomics.radiomics import FEATURE_COUNT, RadiomicsConfig
from radiomics_reference import assert_catalog_row_matches_reference


def small_config(**over):
    base = dict(feature_source="crbm-image",
                crbm=CrbmSection(num_filters=3, kernel_size=5, input_size=16),
                seed=3)
    base.update(over)
    return PipelineConfig(**base)


def small_model():
    return crbm.init_model(3, 5, 16, seed=3)


# ---------------------------------------------------------------------------
# Container validation
# ---------------------------------------------------------------------------

def valid_kwargs():
    return dict(values=np.zeros((2, 2)),
                row_ids=("r0", "r1"), labels=np.array([0, 1]),
                patient_ids=("p0", "p1"), parents=("r0", "r1"))


def test_feature_matrix_validation():
    FeatureMatrix(**valid_kwargs())  # baseline passes
    for corrupt in (
            dict(values=np.zeros(2)),
            dict(row_ids=("r0", "r0")),
            dict(row_ids=("r0",)),
            dict(labels=np.array([0, 2])),
            dict(values=np.array([[0.0, 1.0], [np.nan, 0.0]]))):
        kwargs = {**valid_kwargs(), **corrupt}
        with pytest.raises(ValueError):
            FeatureMatrix(**kwargs)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def test_radiomics_features_one_row_per_slice(tiny_corpus):
    dataset, _ = tiny_corpus
    fm = radiomics_features(dataset, RadiomicsConfig())
    assert fm.n_rows == len(dataset)
    assert fm.n_columns == FEATURE_COUNT
    assert fm.row_ids == tuple(r.sample_id for r in dataset.records)
    assert fm.parents == fm.row_ids
    assert fm.labels.tolist() == [r.label for r in dataset.records]
    assert fm.patient_ids == tuple(r.patient_id for r in dataset.records)


def spy_on_extract_all(monkeypatch):
    """The stack sizes extract_all is called with, in call order."""
    sizes = []
    real = radiomics.extract_all

    def spy(pixels, bits, cfg):
        sizes.append(pixels.shape[0])
        return real(pixels, bits, cfg)

    monkeypatch.setattr(radiomics, "extract_all", spy)
    return sizes


def test_radiomics_rows_do_not_depend_on_the_stack_budget(tiny_corpus, monkeypatch):
    dataset, _ = tiny_corpus
    sizes = spy_on_extract_all(monkeypatch)
    default = radiomics_features(dataset, RadiomicsConfig()).values
    # 24 slices of 32x32: 8 per stack at the default budget of 2**13 pixels
    assert sizes == [8, 8, 8]
    for budget, stacks in ((1, [1] * len(dataset)), (10 ** 9, [len(dataset)])):
        sizes.clear()
        monkeypatch.setattr(features, "_STACK_PIXELS", budget)
        values = radiomics_features(dataset, RadiomicsConfig()).values
        assert sizes == stacks
        assert np.array_equal(values, default)  # bit-identical


def write_mixed_shape_corpus(root):
    """A manifest of slices of mixed and odd shapes, runs of equal shapes
    broken up and resumed, each with its own ROI."""
    rng = np.random.default_rng(11)
    shapes = [(9, 7), (9, 7), (12, 12), (9, 7), (5, 11), (5, 11), (5, 11),
              (1, 6), (12, 12), (3, 3)]
    lines = [",".join(MANIFEST_HEADER)]
    for k, (h, w) in enumerate(shapes):
        bits = (rng.random((h, w)) < 0.6).astype(np.uint8)
        bits[rng.integers(h), rng.integers(w)] = 1
        save_image(root / f"s{k}.pgm", Image2D(pixels=rng.random((h, w))))
        save_mask(root / f"m{k}.pgm", RoiMask(bits=bits))
        lines.append(f"s{k},p{k // 2},s{k}.pgm,m{k}.pgm,{k % 2},unknown,unknown")
    (root / "manifest.csv").write_text("\n".join(lines) + "\n")
    return load_manifest(root / "manifest.csv")


def test_radiomics_rows_of_mixed_shapes_follow_the_manifest(tmp_path, monkeypatch):
    dataset = write_mixed_shape_corpus(tmp_path)
    sizes = spy_on_extract_all(monkeypatch)
    fm = radiomics_features(dataset, RadiomicsConfig())
    assert sizes == [2, 1, 1, 3, 1, 1, 1]  # one stack per run of equal shapes
    assert fm.row_ids == tuple(r.sample_id for r in dataset.records)
    for row, record in zip(fm.values, dataset.records):
        img, mask = load_sample(record)
        assert_catalog_row_matches_reference(row, img.pixels, mask.bits, 32)


def test_crbm_image_features_shape_and_names(tiny_corpus):
    dataset, _ = tiny_corpus
    model = small_model()
    weights = crbm.reduction_weights("uniform", 3)
    fm = crbm_image_features(dataset, model, weights)
    side = model.hidden_side
    assert fm.n_rows == len(dataset)
    assert fm.n_columns == side * side
    names = column_names(small_config(), model)
    assert names[0] == "crbm_0_0"
    assert names[-1] == f"crbm_{side - 1}_{side - 1}"
    assert fm.parents == fm.row_ids


def test_crbm_patch_features_track_parent_slices(tiny_corpus):
    dataset, _ = tiny_corpus
    model = small_model()
    weights = crbm.reduction_weights("uniform", 3)
    fm = crbm_patch_features(dataset, model, weights, stride=8)
    assert fm.n_rows >= len(dataset)
    assert all("#p" in rid for rid in fm.row_ids)
    sample_ids = {r.sample_id for r in dataset.records}
    assert set(fm.parents) == sample_ids  # every slice contributes a patch
    for rid, parent in zip(fm.row_ids, fm.parents):
        assert rid.startswith(parent + "#p")
    label_of = {r.sample_id: r.label for r in dataset.records}
    for parent, label in zip(fm.parents, fm.labels):
        assert label == label_of[parent]


def test_patch_rows_differ_when_stride_shrinks(tiny_corpus):
    dataset, _ = tiny_corpus
    model = small_model()
    weights = crbm.reduction_weights("uniform", 3)
    coarse = crbm_patch_features(dataset, model, weights, stride=16)
    fine = crbm_patch_features(dataset, model, weights, stride=4)
    assert fine.n_rows > coarse.n_rows


def test_crbm_training_images_match_extraction_geometry(tiny_corpus):
    dataset, _ = tiny_corpus
    whole = crbm_training_images(dataset, small_config())
    assert len(whole) == len(dataset)
    assert all(img.pixels.shape == (16, 16) for img in whole)

    patched = crbm_training_images(
        dataset, small_config(feature_source="crbm-patch", patch_stride=8))
    assert len(patched) >= len(dataset)
    assert all(img.pixels.shape == (16, 16) for img in patched)


def test_build_features_dispatch(tiny_corpus):
    dataset, _ = tiny_corpus
    fm = build_features(dataset, small_config(feature_source="radiomics"))
    assert fm.n_columns == FEATURE_COUNT

    model = small_model()
    fm = build_features(dataset, small_config(), model)
    assert fm.n_columns == model.hidden_side ** 2

    with pytest.raises(ConfigError):
        build_features(dataset, small_config(), None)


@pytest.mark.parametrize("source", ["radiomics", "crbm-image", "crbm-patch"])
def test_column_names_are_unique_and_name_every_built_column(tiny_corpus, source):
    dataset, _ = tiny_corpus
    config = small_config(feature_source=source)
    model = small_model()
    names = column_names(config, model)
    assert len(set(names)) == len(names)
    assert len(names) == build_features(dataset, config, model).n_columns


def test_build_features_uses_configured_reduction(tiny_corpus):
    dataset, _ = tiny_corpus
    model = small_model()
    uniform = build_features(dataset, small_config(), model)
    projected = build_features(
        dataset, small_config(reduction_weights="random-projection"), model)
    assert not np.allclose(uniform.values, projected.values)
