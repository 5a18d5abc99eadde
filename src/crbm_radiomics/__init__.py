"""Texture-based treatment-response prediction.

Two feature paths over ROI-masked grayscale slices: a binary
convolutional restricted Boltzmann machine trained with contrastive
divergence, and a hand-crafted radiomics catalog (first-order, shape,
co-occurrence, run-length, Haar-subband statistics).  Either path feeds
partial-least-squares reduction, one of three classifier heads, and
cross-validated ROC/AUC evaluation.  The `radiomics-crbm` command drives
the whole pipeline; a synthetic texture corpus makes every claim
verifiable at desk scale.
"""

__version__ = "0.1.0"

from .data_model import Dataset, Image2D, RoiMask, SampleRecord  # noqa: F401
from .errors import (ConfigError, ManifestError,  # noqa: F401
                     ModelFormatError, PipelineError, RasterFormatError,
                     ShapeMismatchError, TrainingError)
