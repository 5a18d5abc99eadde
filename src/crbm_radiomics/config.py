"""Pipeline and synthetic-corpus configuration.

One JSON file drives a whole experiment.  Every default that mirrors the
reference setup is marked below; everything else is an artifact default
chosen for desk-scale runs and echoed into reports, so a report plus this
module is enough to re-run the experiment exactly.
"""

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .crbm import CrbmTrainConfig
from .errors import ConfigError

FEATURE_SOURCES = ("radiomics", "crbm-image", "crbm-patch")
CLASSIFIER_KINDS = ("lr", "svm", "rf")
CV_MODES = ("slice-level", "patient-grouped")
REDUCTION_MODES = ("uniform", "random-projection")
PLS_MODES = ("latent", "vip-subset")


@dataclass(frozen=True)
class CrbmSection:
    """CRBM architecture plus training schedule.

    num_filters=64, kernel_size=5, learning_rate=1e-4 and input_size=256
    reproduce the reference setup; epochs/batch_size are artifact defaults.
    """

    num_filters: int = 64
    kernel_size: int = 5
    input_size: int = 256
    learning_rate: float = 1e-4
    cd_steps: int = 1
    epochs: int = 30
    batch_size: int = 16
    weight_init_sigma: float = 0.01
    binarize_visible: bool = False

    def __post_init__(self):
        if self.num_filters < 1 or self.kernel_size < 1:
            raise ConfigError("num_filters and kernel_size must be >= 1")
        if self.kernel_size > self.input_size:
            raise ConfigError("kernel_size must not exceed input_size")
        try:  # CrbmTrainConfig's own checks, at load rather than at train time
            self.train_config(seed=0)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def train_config(self, seed: int) -> CrbmTrainConfig:
        return CrbmTrainConfig(learning_rate=self.learning_rate,
                               cd_steps=self.cd_steps,
                               epochs=self.epochs,
                               batch_size=self.batch_size,
                               rng_seed=seed,
                               weight_init_sigma=self.weight_init_sigma,
                               binarize_visible=self.binarize_visible)


@dataclass(frozen=True)
class ClassifierSection:
    kind: str = "lr"
    lr_l2: float = 1e-3
    lr_steps: int = 500
    svm_c: float = 1.0
    svm_epochs: int = 200
    rf_trees: int = 100
    rf_depth: int = 10
    rf_features_per_split: int = 0  # 0 = ceil(sqrt(n_features))

    def __post_init__(self):
        if self.kind not in CLASSIFIER_KINDS:
            raise ConfigError(f"classifier kind must be one of {CLASSIFIER_KINDS}, "
                              f"got {self.kind!r}")


@dataclass(frozen=True)
class CvSection:
    k: int = 4
    mode: str = "slice-level"

    def __post_init__(self):
        if self.k < 2:
            raise ConfigError(f"cv.k must be >= 2, got {self.k}")
        if self.mode not in CV_MODES:
            raise ConfigError(f"cv.mode must be one of {CV_MODES}, got {self.mode!r}")


@dataclass(frozen=True)
class PipelineConfig:
    feature_source: str = "radiomics"
    crbm: CrbmSection = field(default_factory=CrbmSection)
    pls_components: int = 20
    pls_mode: str = "latent"
    classifier: ClassifierSection = field(default_factory=ClassifierSection)
    cv: CvSection = field(default_factory=CvSection)
    reduction_weights: str = "uniform"
    patch_stride: int = 0  # 0 = non-overlapping (stride = patch size)
    radiomics_levels: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.feature_source not in FEATURE_SOURCES:
            raise ConfigError(f"feature_source must be one of {FEATURE_SOURCES}, "
                              f"got {self.feature_source!r}")
        if self.pls_components < 1:
            raise ConfigError("pls_components must be >= 1")
        if self.pls_mode not in PLS_MODES:
            raise ConfigError(f"pls_mode must be one of {PLS_MODES}")
        if self.reduction_weights not in REDUCTION_MODES:
            raise ConfigError(f"reduction_weights must be one of {REDUCTION_MODES}")
        if self.patch_stride < 0:
            raise ConfigError("patch_stride must be >= 0")
        if self.radiomics_levels < 2:
            raise ConfigError("radiomics_levels must be >= 2")


@dataclass(frozen=True)
class SynthSpec:
    """Two texture classes separable by construction: class 1 is periodic
    stripes, class 0 is sparse bright blobs on a flat background."""

    n_per_class: int = 100
    image_size: int = 32
    stripe_period: int = 4
    stripe_orientation: str = "horizontal"
    blob_density: float = 0.01
    noise_level: float = 0.05
    slices_per_patient: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.n_per_class < 1:
            raise ConfigError("n_per_class must be >= 1")
        if self.image_size < 8:
            raise ConfigError("image_size must be >= 8")
        if self.stripe_period < 2:
            raise ConfigError("stripe_period must be >= 2")
        if self.stripe_orientation not in ("horizontal", "vertical", "diagonal"):
            raise ConfigError("stripe_orientation must be horizontal, vertical "
                              "or diagonal")
        if not 0.0 < self.blob_density <= 1.0:
            raise ConfigError("blob_density must lie in (0, 1]")
        if self.noise_level < 0:
            raise ConfigError("noise_level must be >= 0")
        if self.slices_per_patient < 1:
            raise ConfigError("slices_per_patient must be >= 1")


_SECTIONS = {"crbm": CrbmSection, "classifier": ClassifierSection, "cv": CvSection}


def _has_type(value, annotation) -> bool:
    """Whether a JSON value fits a scalar field's annotation.  An int fits
    a float field and is kept as is, so an echoed config keeps the file's
    numbers; a bool (an int subclass) fits only a bool field."""
    if isinstance(value, bool) or annotation is bool:
        return isinstance(value, bool) and annotation is bool
    if annotation is float:
        return isinstance(value, (int, float))
    return isinstance(value, annotation)


def _build(cls, data: dict, context: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{context}: expected an object, got {type(data).__name__}")
    fields = {f.name: f.type for f in cls.__dataclass_fields__.values()}
    unknown = set(data) - set(fields)
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown)}")
    kwargs = {}
    for key, value in data.items():
        if key in _SECTIONS:
            kwargs[key] = _build(_SECTIONS[key], value, f"{context}.{key}")
        elif _has_type(value, fields[key]):
            kwargs[key] = value
        else:
            raise ConfigError(f"{context}.{key}: expected {fields[key].__name__}, "
                              f"got {type(value).__name__}")
    try:
        return cls(**kwargs)
    except (ConfigError, TypeError, ValueError) as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def load_pipeline_config(path) -> PipelineConfig:
    """Read and validate a pipeline config; unknown keys are errors."""
    return _build(PipelineConfig, _read_json(path), Path(path).name)


def load_synth_spec(path) -> SynthSpec:
    return _build(SynthSpec, _read_json(path), Path(path).name)


def _read_json(path) -> dict:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # bad JSON, bad UTF-8, an int of > 4300 digits
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc


def config_echo(config) -> dict:
    """Plain-dict copy of a config, embedded in reports for reproducibility."""
    return asdict(config)


def effective_patch_stride(config: PipelineConfig) -> int:
    return config.patch_stride if config.patch_stride > 0 else config.crbm.input_size

