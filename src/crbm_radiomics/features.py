"""Feature-matrix assembly for the three feature sources.

radiomics: one row per slice, the 374-feature hand-crafted catalog.
crbm-image: one row per slice; the ROI crop is standardized to the
configured input size and pushed through the CRBM, whose hidden maps,
averaged over the filters (crbm.extract_feature_map), are flattened.
crbm-patch: one row per ROI patch, same per-patch encoding.

A row is known by the index in dataset.records of the sample it came
from; the rows of one sample are adjacent and follow the manifest order.
The CRBM trains on exactly the images it later encodes: both draw them,
as one float64 (P, N, N) array per sample, from one generator,
_crbm_inputs.  Training takes their float32 cast, the dtype its CD chain
runs in, as one (n, N, N) stack; extraction and the feature matrices
stay float64.

Both sources extract by one rule (_stacks): their inputs, slices or CRBM
images, go through the extractor in stacks of consecutive same-shape
arrays of at most _STACK_PIXELS values, or one larger array alone (a
256x256 slice, whose maps the CRBM then computes in bands of rows).  A
row does not depend on the stack it was computed in.
"""

from dataclasses import dataclass

import numpy as np

from . import crbm as crbm_mod
from . import radiomics as radiomics_mod
from .config import PipelineConfig, effective_patch_stride
from .data_model import (Dataset, crop_to_roi, extract_patches, load_sample,
                         resize_or_pad)
from .errors import ConfigError

# Input values per stack of either source: 8 slices of 32x32, or 32 CRBM
# patches of 16x16.  The extractors' temporaries grow with the stack: the
# catalog holds one offset's texture matrices at a time and peaks at 1.0
# MiB on such a stack at 32 levels.  At this size the catalog's per-call
# numpy overhead is already spread over the stack, and the CRBM's maps
# take as long per patch as in stacks of 113.
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
    as one float32 (n, N, N) stack, filled as they are read, so they are
    never held twice (as a list and its concatenation).  Each is the
    float32 cast of a float64 image of _crbm_inputs: the CD chain runs in
    float32, so crbm.train takes this stack as it is, at half the size of
    a float64 one.  Outside patch mode n is one per sample, and the stack
    is allocated once, at its size."""
    size = config.crbm.input_size
    count = -1 if config.feature_source == "crbm-patch" else len(dataset)
    images = (img for _, stack in _crbm_inputs(dataset, config) for img in stack)
    return np.fromiter(images, dtype=np.dtype((np.float32, (size, size))),
                       count=count)


def _crbm_features(dataset: Dataset, config: PipelineConfig,
                   model) -> FeatureMatrix:
    """One row per CRBM input: the mean of its M hidden maps, flattened,
    each stack of _stacks through the CRBM at once."""
    inputs = ((img, i) for i, stack in _crbm_inputs(dataset, config)
              for img in stack)
    records, rows = [], []
    for images, indices in _stacks(inputs):
        records.append(indices)
        rows.append(crbm_mod.extract_feature_map(model, images)
                    .reshape(len(images), -1))
    return FeatureMatrix(values=np.concatenate(rows),
                         records=np.concatenate(records))


def _stacks(items):
    """Each run of consecutive items, tuples whose first array gives the
    shape, stacked field by field: runs of one shape, in order, of at most
    _STACK_PIXELS values of first arrays, or one item larger than that.
    np.array stacks a field of same-shape arrays as np.stack would, in a
    third of its time."""
    run = []
    for item in items:
        if run and (item[0].shape != run[0][0].shape
                    or (len(run) + 1) * item[0].size > _STACK_PIXELS):
            yield tuple(map(np.array, zip(*run)))
            run = []
        run.append(item)
    if run:
        yield tuple(map(np.array, zip(*run)))


def _radiomics_features(dataset: Dataset, levels: int) -> FeatureMatrix:
    """One catalog row per slice, each stack of _stacks through
    extract_all at once."""
    samples = ((img.pixels, mask.bits)
               for img, mask in map(load_sample, dataset.records))
    values = [radiomics_mod.extract_all(pixels, bits, levels)
              for pixels, bits in _stacks(samples)]
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
