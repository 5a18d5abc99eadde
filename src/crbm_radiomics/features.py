"""Feature-matrix assembly for the three feature sources.

radiomics: one row per slice, the 374-feature hand-crafted catalog,
computed over stacks of consecutive same-shape slices.
crbm-image: one row per slice; the ROI crop is standardized to the model's
input size, pushed through the CRBM, the hidden maps are combined by a
1x1 reduction and flattened.
crbm-patch: one row per non-overlapping ROI patch, same per-patch encoding;
rows remember their parent slice so scores can be pooled back.
"""

from dataclasses import dataclass

import numpy as np

from . import crbm as crbm_mod
from . import radiomics as radiomics_mod
from .config import PipelineConfig, effective_patch_stride
from .data_model import (Dataset, Image2D, crop_to_roi, extract_patches,
                         load_sample, resize_or_pad)
from .errors import ConfigError

# Original-plane pixels per radiomics stack: 8 slices of 32x32.  The
# catalog's temporaries, and so the peak memory, grow with the stack; at 8
# slices its per-call numpy overhead is already spread over the stack.
_STACK_PIXELS = 2 ** 13


@dataclass(frozen=True)
class FeatureMatrix:
    """Feature columns over identified rows, ready for reduction and
    classification.  A column is known by its position; column_names
    gives the names the extract CSV header writes.

    parents maps each row to the manifest sample it came from; outside
    patch mode it equals row_ids.
    """

    values: np.ndarray
    row_ids: tuple
    labels: np.ndarray
    patient_ids: tuple
    parents: tuple

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        n, _ = values.shape
        if not (len(self.row_ids) == len(self.patient_ids)
                == len(self.parents) == self.labels.shape[0] == n):
            raise ValueError("row metadata length mismatch")
        if len(set(self.row_ids)) != n:
            raise ValueError("row ids must be unique")
        if not np.isfinite(values).all():
            raise ValueError("feature values must be finite")
        labels = np.asarray(self.labels, dtype=np.int64)
        if not np.isin(labels, (0, 1)).all():
            raise ValueError("labels must be 0 or 1")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "row_ids", tuple(self.row_ids))
        object.__setattr__(self, "patient_ids", tuple(self.patient_ids))
        object.__setattr__(self, "parents", tuple(self.parents))

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_columns(self) -> int:
        return self.values.shape[1]


def _standardized_crop(record, input_size: int) -> Image2D:
    img, mask = load_sample(record)
    return resize_or_pad(crop_to_roi(img, mask), input_size)


def _roi_patches(record, patch: int, stride: int) -> list:
    """Non-padded ROI patches; a crop smaller than the patch in either
    dimension is standardized to one patch-sized image instead."""
    img, mask = load_sample(record)
    box = crop_to_roi(img, mask)
    if box.height < patch or box.width < patch:
        return [resize_or_pad(box, patch)]
    return extract_patches(box, patch, stride)


def crbm_training_images(dataset: Dataset, config: PipelineConfig) -> list:
    """The unlabeled image list the CRBM trains on, matching the rows the
    extractor will later encode (whole standardized crops or ROI patches)."""
    size = config.crbm.input_size
    if config.feature_source == "crbm-patch":
        stride = effective_patch_stride(config)
        out = []
        for record in dataset.records:
            out.extend(_roi_patches(record, size, stride))
        return out
    return [_standardized_crop(record, size) for record in dataset.records]


def _encode(model, img: Image2D, weights: np.ndarray) -> np.ndarray:
    stack = crbm_mod.extract_feature_map(model, img)
    return crbm_mod.reduce_1x1(stack, weights).ravel()


def _assemble(rows) -> FeatureMatrix:
    """The FeatureMatrix of (record, row_id, values) rows: labels, patients
    and parents come from each row's manifest record."""
    records, ids, values = zip(*rows)
    return FeatureMatrix(values=np.stack(values), row_ids=ids,
                         labels=np.array([r.label for r in records]),
                         patient_ids=tuple(r.patient_id for r in records),
                         parents=tuple(r.sample_id for r in records))


def _same_shape_runs(records):
    """Lists of (record, pixels, bits) of consecutive same-shape samples,
    in manifest order, each at most _STACK_PIXELS original-plane pixels
    (or one sample, if a single one is larger)."""
    run = []
    for record in records:
        img, mask = load_sample(record)
        if run and (img.pixels.shape != run[0][1].shape
                    or (len(run) + 1) * img.pixels.size > _STACK_PIXELS):
            yield run
            run = []
        run.append((record, img.pixels, mask.bits))
    if run:
        yield run


def radiomics_features(dataset: Dataset,
                       cfg: radiomics_mod.RadiomicsConfig) -> FeatureMatrix:
    """One catalog row per slice, in manifest order; each run of
    consecutive same-shape slices goes through extract_all as one stack."""
    rows = []
    for run in _same_shape_runs(dataset.records):
        records, pixels, bits = zip(*run)
        values = radiomics_mod.extract_all(np.stack(pixels), np.stack(bits), cfg)
        rows += [(r, r.sample_id, v) for r, v in zip(records, values)]
    return _assemble(rows)


def crbm_image_features(dataset: Dataset, model,
                        weights: np.ndarray) -> FeatureMatrix:
    rows = ((r, r.sample_id,
             _encode(model, _standardized_crop(r, model.input_size), weights))
            for r in dataset.records)
    return _assemble(rows)


def crbm_patch_features(dataset: Dataset, model, weights: np.ndarray,
                        stride: int) -> FeatureMatrix:
    """One row per ROI patch; each row carries its parent slice's label."""
    rows = ((r, f"{r.sample_id}#p{i}", _encode(model, patch, weights))
            for r in dataset.records
            for i, patch in enumerate(_roi_patches(r, model.input_size, stride)))
    return _assemble(rows)


def build_features(dataset: Dataset, config: PipelineConfig,
                   model=None) -> FeatureMatrix:
    """Dispatch on config.feature_source; crbm sources need a trained model."""
    if config.feature_source == "radiomics":
        return radiomics_features(
            dataset, radiomics_mod.RadiomicsConfig(levels=config.radiomics_levels))
    if model is None:
        raise ConfigError(f"feature_source {config.feature_source!r} "
                          "requires a trained model")
    weights = crbm_mod.reduction_weights(config.reduction_weights,
                                         model.num_filters, config.seed)
    if config.feature_source == "crbm-image":
        return crbm_image_features(dataset, model, weights)
    return crbm_patch_features(dataset, model, weights,
                               effective_patch_stride(config))


def column_names(config: PipelineConfig, model) -> tuple:
    """The names of build_features' columns, in order: the radiomics
    catalog names, or crbm_<row>_<col> over the model's hidden map."""
    if config.feature_source == "radiomics":
        return radiomics_mod.CATALOG_NAMES
    side = model.hidden_side
    return tuple(f"crbm_{r}_{c}" for r in range(side) for c in range(side))
