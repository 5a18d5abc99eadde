"""Pipeline and synthetic-corpus configuration.

One JSON file drives a whole experiment.  Every default that mirrors the
reference setup is marked where it is declared: below, or, for the "crbm"
section, on crbm.CrbmConfig, the one type that declares and checks the
CRBM's settings.  Everything else is an artifact default chosen for
desk-scale runs.  The config is echoed into reports, so a report plus
these defaults is enough to re-run the experiment exactly.
"""

import json
import math
from dataclasses import asdict, dataclass, field

from .crbm import CrbmConfig
from .errors import ConfigError
from .radiomics import MAX_LEVELS

FEATURE_SOURCES = ("radiomics", "crbm-image", "crbm-patch")
CLASSIFIER_KINDS = ("lr", "svm", "rf")
CV_MODES = ("slice-level", "patient-grouped")
PLS_MODES = ("latent", "vip-subset")


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
        if self.lr_l2 < 0:
            raise ConfigError("lr_l2 must be >= 0")
        if self.svm_c <= 0:
            raise ConfigError("svm_c must be > 0")
        if self.rf_trees < 1:
            raise ConfigError("rf_trees must be >= 1")
        for name in ("lr_steps", "svm_epochs", "rf_depth", "rf_features_per_split"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")


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
    crbm: CrbmConfig = field(default_factory=CrbmConfig)
    pls_components: int = 20
    pls_mode: str = "latent"
    classifier: ClassifierSection = field(default_factory=ClassifierSection)
    cv: CvSection = field(default_factory=CvSection)
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
        if self.patch_stride < 0:
            raise ConfigError("patch_stride must be >= 0")
        if not 2 <= self.radiomics_levels <= MAX_LEVELS:
            raise ConfigError(
                f"radiomics_levels must be within 2 .. {MAX_LEVELS}")


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


_SECTIONS = {"crbm": CrbmConfig, "classifier": ClassifierSection, "cv": CvSection}


def _type_error(value, annotation) -> str | None:
    """Why a JSON value does not fit a scalar field's annotation, or None
    if it does.  An int fits a float field if float() can convert it, and
    is kept as is, so an echoed config keeps the file's numbers; a bool (an
    int subclass) fits no field."""
    if annotation is float and type(value) is int:
        try:
            float(value)
        except OverflowError:
            return "integer too large for a float"
        return None
    if isinstance(value, annotation) and not isinstance(value, bool):
        return None
    return f"expected {annotation.__name__}, got {type(value).__name__}"


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
        elif (error := _type_error(value, fields[key])) is not None:
            raise ConfigError(f"{context}.{key}: {error}")
        else:
            kwargs[key] = value
    try:
        return cls(**kwargs)
    except (ConfigError, TypeError, ValueError) as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def load_pipeline_config(path) -> PipelineConfig:
    """Read and validate a pipeline config; unknown keys are errors."""
    return _build(PipelineConfig, _read_json(path), str(path))


def load_synth_spec(path) -> SynthSpec:
    return _build(SynthSpec, _read_json(path), str(path))


def _finite_float(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"{token} is not a finite number")
    return value


def _read_json(path) -> dict:
    """The JSON document at path, which may name any readable file, a pipe
    too; Python's json would also read NaN, Infinity and -Infinity, a
    number like 1e999 as inf, and the last of two equal keys."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        return json.loads(
            text, parse_float=_finite_float, parse_constant=_finite_float,
            object_pairs_hook=lambda pairs: _json_object(path, pairs))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as exc:  # a directory, no permission
        raise ConfigError(f"{path}: cannot read ({exc.strerror or exc})") from exc
    # bad JSON, bad UTF-8, an int of > 4300 digits; arrays or objects
    # nested deeper than the interpreter's recursion limit
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc


def _json_object(path, pairs: list) -> dict:
    """A JSON object of the file at path as a dict; a key it gives twice
    is a ConfigError naming the file and the key."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ConfigError(f"{path}: duplicate key {key!r}")
        doc[key] = value
    return doc


def config_echo(config) -> dict:
    """Plain-dict copy of a config, embedded in reports for reproducibility."""
    return asdict(config)


def effective_patch_stride(config: PipelineConfig) -> int:
    return config.patch_stride if config.patch_stride > 0 else config.crbm.input_size

