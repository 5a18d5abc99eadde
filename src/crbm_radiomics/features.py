"""Feature-matrix assembly for the three feature sources.

radiomics: one row per slice, the 374-feature hand-crafted catalog,
computed over stacks of consecutive same-shape slices.
crbm-image: one row per slice; the ROI crop is standardized to the
configured input size, pushed through the CRBM, the hidden maps are
combined by a 1x1 reduction and flattened.
crbm-patch: one row per ROI patch, same per-patch encoding.

A row is known by the index in dataset.records of the sample it came
from; the rows of one sample are adjacent and follow the manifest order.
The CRBM trains on exactly the images it later encodes: both draw them,
as one (P, N, N) array per sample, from one generator, _crbm_inputs.
Training takes them as one (n, N, N) stack; extraction encodes them in
chunks of images, each chunk through the CRBM as one stack.
"""

from dataclasses import dataclass
from itertools import islice

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
# Hidden-map values per CRBM extraction chunk (2 MB of float64); a chunk
# holds as many whole images as fit, and at least one.  The maps of one
# chunk are alive at a time, so the peak memory grows with it: at 2^20 the
# quick-start peak RSS was 81 MB, at 2^16 and 2^18 66 and 65 MB.
_EXTRACT_MAP_VALUES = 2 ** 18


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
    """(record index, (P, N, N) stack) of the images the CRBM sees of each
    sample, in manifest order: its ROI patches at the configured stride
    (crbm-patch), or else the ROI crop standardized to the input size
    (P = 1).  A crop smaller than a patch in either dimension is
    standardized to one patch-sized image instead."""
    size = config.crbm.input_size
    stride = effective_patch_stride(config)
    for i, record in enumerate(dataset.records):
        box = crop_to_roi(*load_sample(record))  # unnamed: not held across yield
        if config.feature_source == "crbm-patch" and min(box.shape) >= size:
            yield i, extract_patches(box, size, stride)
        else:
            yield i, resize_or_pad(box, size)[None]


def crbm_training_images(dataset: Dataset, config: PipelineConfig) -> np.ndarray:
    """The unlabeled images the CRBM trains on, the ones it later encodes,
    as one (n, N, N) stack, filled as they are read, so they are never held
    twice (as a list and its concatenation).  Outside patch mode n is one
    per sample, and the stack is allocated once, at its size."""
    size = config.crbm.input_size
    count = -1 if config.feature_source == "crbm-patch" else len(dataset)
    images = (img for _, stack in _crbm_inputs(dataset, config) for img in stack)
    return np.fromiter(images, dtype=np.dtype((np.float64, (size, size))),
                       count=count)


def _crbm_features(dataset: Dataset, config: PipelineConfig,
                   model) -> FeatureMatrix:
    """One row per CRBM input: its hidden maps, 1x1-reduced and flattened.
    The inputs go through the CRBM in chunks of images, so one chunk's
    maps are alive at a time."""
    weights = crbm_mod.reduction_weights(config.reduction_weights,
                                         model.num_filters, config.seed)
    step = max(1, _EXTRACT_MAP_VALUES // model.num_hidden)
    inputs = ((i, img) for i, stack in _crbm_inputs(dataset, config)
              for img in stack)
    records, rows = [], []
    while chunk := list(islice(inputs, step)):
        indices, images = zip(*chunk)
        records.extend(indices)
        # unnamed, the maps are freed before the next chunk's are computed
        rows.append(crbm_mod.reduce_1x1(
            crbm_mod.extract_feature_map(model, np.stack(images)),
            weights).reshape(len(images), -1))
    return FeatureMatrix(values=np.concatenate(rows), records=np.array(records))


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
