"""Feature-matrix assembly from manifests, for all three sources."""

import numpy as np
import pytest

from crbm_radiomics import crbm, features, radiomics
from crbm_radiomics.config import PipelineConfig
from crbm_radiomics.crbm import CrbmConfig
from crbm_radiomics.data_model import (MANIFEST_HEADER, Image2D, RoiMask,
                                       load_manifest, load_sample, save_image,
                                       save_mask)
from crbm_radiomics.errors import ConfigError
from crbm_radiomics.features import (
    FeatureMatrix,
    build_features,
    column_names,
    crbm_training_images,
)
from crbm_radiomics.radiomics import FEATURE_COUNT
from radiomics_reference import assert_catalog_row_matches_reference


def small_config(**over):
    base = dict(feature_source="crbm-image",
                crbm=CrbmConfig(num_filters=3, kernel_size=5, input_size=16),
                seed=3)
    base.update(over)
    return PipelineConfig(**base)


def small_model():
    return crbm.init_model(3, 5, 16, seed=3)


RADIOMICS = small_config(feature_source="radiomics")


# ---------------------------------------------------------------------------
# Container validation
# ---------------------------------------------------------------------------

def valid_kwargs():
    return dict(values=np.zeros((3, 2)), records=np.array([0, 1, 1]))


def test_feature_matrix_validation():
    fm = FeatureMatrix(**valid_kwargs())  # baseline passes
    assert (fm.n_rows, fm.n_columns) == (3, 2)
    assert fm.records.dtype == np.int64
    for corrupt in (
            dict(values=np.zeros(3)),
            dict(records=np.array([0, 1])),
            dict(records=np.array([[0, 1, 1]])),
            dict(records=np.array([-1, 0, 1])),
            dict(records=np.array([0, 2, 1])),
            dict(values=np.array([[0.0, 1.0], [np.nan, 0.0], [0.0, 0.0]]))):
        kwargs = {**valid_kwargs(), **corrupt}
        with pytest.raises(ValueError):
            FeatureMatrix(**kwargs)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def test_radiomics_features_one_row_per_slice(tiny_corpus):
    dataset, _ = tiny_corpus
    fm = build_features(dataset, RADIOMICS)
    assert fm.n_rows == len(dataset)
    assert fm.n_columns == FEATURE_COUNT
    assert fm.records.tolist() == list(range(len(dataset)))


def spy_on_extract_all(monkeypatch):
    """The stack sizes extract_all is called with, in call order."""
    sizes = []
    real = radiomics.extract_all

    def spy(pixels, bits, levels):
        sizes.append(pixels.shape[0])
        return real(pixels, bits, levels)

    monkeypatch.setattr(radiomics, "extract_all", spy)
    return sizes


def test_radiomics_rows_do_not_depend_on_the_stack_budget(tiny_corpus, monkeypatch):
    dataset, _ = tiny_corpus
    sizes = spy_on_extract_all(monkeypatch)
    default = build_features(dataset, RADIOMICS).values
    # 24 slices of 32x32: 8 per stack at the default budget of 2**13 pixels
    assert sizes == [8, 8, 8]
    for budget, stacks in ((1, [1] * len(dataset)), (10 ** 9, [len(dataset)])):
        sizes.clear()
        monkeypatch.setattr(features, "_STACK_PIXELS", budget)
        values = build_features(dataset, RADIOMICS).values
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
    fm = build_features(dataset, RADIOMICS)
    assert sizes == [2, 1, 1, 3, 1, 1, 1]  # one stack per run of equal shapes
    assert fm.records.tolist() == list(range(len(dataset)))
    for row, record in zip(fm.values, dataset.records):
        img, mask = load_sample(record)
        assert_catalog_row_matches_reference(row, img.pixels, mask.bits, 32)


def test_crbm_image_features_shape_and_names(tiny_corpus):
    dataset, _ = tiny_corpus
    model = small_model()
    fm = build_features(dataset, small_config(), model)
    side = model.hidden_side
    assert fm.n_rows == len(dataset)
    assert fm.n_columns == side * side
    assert fm.records.tolist() == list(range(len(dataset)))
    names = column_names(small_config(), model)
    assert names[0] == "crbm_0_0"
    assert names[-1] == f"crbm_{side - 1}_{side - 1}"


def test_crbm_patch_features_track_parent_slices(tiny_corpus):
    dataset, _ = tiny_corpus
    fm = build_features(
        dataset, small_config(feature_source="crbm-patch", patch_stride=8),
        small_model())
    assert fm.n_rows > len(dataset)
    # every slice contributes its patches, adjacent and in manifest order
    counts = np.bincount(fm.records)
    assert counts.size == len(dataset) and counts.min() >= 1
    assert (np.diff(fm.records) >= 0).all()


def test_patch_rows_differ_when_stride_shrinks(tiny_corpus):
    dataset, _ = tiny_corpus
    model = small_model()
    coarse, fine = (build_features(
        dataset, small_config(feature_source="crbm-patch", patch_stride=stride),
        model) for stride in (16, 4))
    assert fine.n_rows > coarse.n_rows


def test_crbm_encodes_exactly_the_images_it_trains_on(tiny_corpus, monkeypatch):
    dataset, _ = tiny_corpus
    seen = []
    real = crbm.extract_feature_map

    def spy(model, images):
        seen.append(images.copy())
        return real(model, images)

    monkeypatch.setattr(crbm, "extract_feature_map", spy)
    # five images a chunk, so chunks hold several samples and split some
    monkeypatch.setattr(features, "_STACK_PIXELS", 5 * 16 * 16)
    for config in (small_config(),
                   small_config(feature_source="crbm-patch", patch_stride=8)):
        seen.clear()
        trained = crbm_training_images(dataset, config)
        fm = build_features(dataset, config, small_model())
        encoded = np.concatenate(seen)
        assert trained.shape == (fm.n_rows, 16, 16)
        assert [len(chunk) for chunk in seen[:-1]] == [5] * (len(seen) - 1)
        # training takes the float32 cast of the float64 images encoded
        assert encoded.dtype == np.float64
        assert trained.dtype == np.float32
        assert trained.tobytes() == encoded.astype(np.float32).tobytes()


@pytest.mark.parametrize("source, stride", [("crbm-image", 0),
                                            ("crbm-patch", 4)])
def test_extraction_chunking_never_changes_a_bit(tiny_corpus, monkeypatch,
                                                 source, stride):
    # an image encoded in a stack gets the bits it gets alone: the batched
    # corr_valid, the sigmoid and the mean over maps all keep each image's
    # arithmetic as it is for one image
    dataset, _ = tiny_corpus
    # the quick-start's 16 maps: enough terms per pixel that a mean
    # through BLAS (tensordot) would sum them in another order in a stack
    config = small_config(feature_source=source, patch_stride=stride,
                          crbm=CrbmConfig(num_filters=16, kernel_size=5,
                                          input_size=16))
    model = crbm.init_model(16, 5, 16, weight_init_sigma=0.3, seed=3)
    per_image = 16 * 16  # pixels
    assert features._STACK_PIXELS >= 24 * per_image  # one chunk
    whole = build_features(dataset, config, model)
    if source == "crbm-patch":
        assert np.bincount(whole.records).min() >= 8
    for images in (1, 5):  # one image a chunk; chunks that split samples
        monkeypatch.setattr(features, "_STACK_PIXELS", images * per_image)
        chunked = build_features(dataset, config, model)
        assert np.array_equal(chunked.records, whole.records)
        assert chunked.values.tobytes() == whole.values.tobytes()
    # and each row is its float64 image's maps, computed alone, summed map
    # after map in float64, then divided by 16; np.tensordot sums them in
    # another order
    images = [img for _, stack in features._crbm_inputs(dataset, config)
              for img in stack]
    assert len(images) == whole.n_rows
    for row, image in zip(whole.values, images):
        maps = crbm._hidden_probs(model, image)
        want = np.zeros(maps.shape[1:])
        for one in maps:
            want += one
        assert row.tobytes() == (want / 16).tobytes()


def test_build_features_dispatch(tiny_corpus):
    dataset, _ = tiny_corpus
    fm = build_features(dataset, RADIOMICS)
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
