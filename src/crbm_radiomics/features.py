"""Feature-matrix assembly for the three feature sources.

radiomics: one row per slice, the 374-feature hand-crafted catalog,
computed over stacks of consecutive same-shape slices.
crbm-image: one row per slice; the ROI crop is standardized to the
configured input size, pushed through the CRBM, the hidden maps are
combined by a 1x1 reduction and flattened.
crbm-patch: one row per ROI patch, same per-patch encoding.

A row is known by the index in dataset.records of the sample it came
from; the rows of one sample are adjacent and follow the manifest order.
The CRBM trains on exactly the images it later encodes: both draw them
from one generator, _crbm_inputs.
"""

from dataclasses import dataclass

import numpy as np

from . import crbm as crbm_mod
from . import radiomics as radiomics_mod
from .config import PipelineConfig, effective_patch_stride
from .data_model import (Dataset, crop_to_roi, extract_patches, load_sample,
                         resize_or_pad)
from .errors import ConfigError

# Original-plane pixels per radiomics stack: 8 slices of 32x32.  The
# catalog's temporaries, and so the peak memory, grow with the stack; at 8
# slices its per-call numpy overhead is already spread over the stack.
_STACK_PIXELS = 2 ** 13


@dataclass(frozen=True)
class FeatureMatrix:
    """Feature columns over rows, ready for reduction and classification.
    A column is known by its position; column_names gives the names the
    extract CSV header writes.  records[i] is the index in dataset.records
    of row i's sample; it never decreases from one row to the next."""

    values: np.ndarray
    records: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        records = np.asarray(self.records, dtype=np.int64)
        if values.ndim != 2 or records.shape != values.shape[:1]:
            raise ValueError("need one record index per row of a 2-D matrix")
        if records.size and (records[0] < 0 or (np.diff(records) < 0).any()):
            raise ValueError("record indices must be >= 0 and non-decreasing")
        if not np.isfinite(values).all():
            raise ValueError("feature values must be finite")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "records", records)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_columns(self) -> int:
        return self.values.shape[1]


def _crbm_inputs(dataset: Dataset, config: PipelineConfig):
    """(record index, image) of every image the CRBM sees, in manifest
    order: its ROI patches at the configured stride (crbm-patch), or else
    the ROI crop standardized to the input size.  A crop smaller than a
    patch in either dimension is standardized to one patch-sized image
    instead."""
    size = config.crbm.input_size
    stride = effective_patch_stride(config)
    for i, record in enumerate(dataset.records):
        box = crop_to_roi(*load_sample(record))
        if (config.feature_source != "crbm-patch"
                or box.height < size or box.width < size):
            yield i, resize_or_pad(box, size)
        else:
            for patch in extract_patches(box, size, stride):
                yield i, patch


def crbm_training_images(dataset: Dataset, config: PipelineConfig) -> list:
    """The unlabeled images the CRBM trains on: the ones it later encodes."""
    return [img for _, img in _crbm_inputs(dataset, config)]


def _crbm_features(dataset: Dataset, config: PipelineConfig,
                   model) -> FeatureMatrix:
    """One row per CRBM input: its hidden maps, 1x1-reduced and flattened.
    The maps are a temporary of one row, so one image's are alive at a
    time."""
    weights = crbm_mod.reduction_weights(config.reduction_weights,
                                         model.num_filters, config.seed)
    records, rows = [], []
    for i, img in _crbm_inputs(dataset, config):
        records.append(i)
        rows.append(crbm_mod.reduce_1x1(crbm_mod.extract_feature_map(model, img),
                                        weights).ravel())
    return FeatureMatrix(values=np.stack(rows), records=np.array(records))


def _same_shape_runs(records):
    """(pixels, bits) stacks of consecutive same-shape samples, in
    manifest order, each at most _STACK_PIXELS original-plane pixels (or
    one sample, if a single one is larger)."""
    run = []
    for record in records:
        img, mask = load_sample(record)
        if run and (img.pixels.shape != run[0][0].shape
                    or (len(run) + 1) * img.pixels.size > _STACK_PIXELS):
            yield tuple(map(np.stack, zip(*run)))
            run = []
        run.append((img.pixels, mask.bits))
    if run:
        yield tuple(map(np.stack, zip(*run)))


def _radiomics_features(dataset: Dataset, levels: int) -> FeatureMatrix:
    """One catalog row per slice; each run of consecutive same-shape
    slices goes through extract_all as one stack."""
    values = [radiomics_mod.extract_all(pixels, bits, levels)
              for pixels, bits in _same_shape_runs(dataset.records)]
    return FeatureMatrix(values=np.concatenate(values),
                         records=np.arange(len(dataset)))


def build_features(dataset: Dataset, config: PipelineConfig,
                   model=None) -> FeatureMatrix:
    """Dispatch on config.feature_source; crbm sources need a trained model."""
    if config.feature_source == "radiomics":
        return _radiomics_features(dataset, config.radiomics_levels)
    if model is None:
        raise ConfigError(f"feature_source {config.feature_source!r} "
                          "requires a trained model")
    return _crbm_features(dataset, config, model)


def column_names(config: PipelineConfig, model) -> tuple:
    """The names of build_features' columns, in order: the radiomics
    catalog names, or crbm_<row>_<col> over the model's hidden map."""
    if config.feature_source == "radiomics":
        return radiomics_mod.CATALOG_NAMES
    side = model.hidden_side
    return tuple(f"crbm_{r}_{c}" for r in range(side) for c in range(side))
