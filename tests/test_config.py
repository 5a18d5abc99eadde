"""Config loading, defaults, and validation."""

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crbm_radiomics
from crbm_radiomics import classifiers
from crbm_radiomics.config import (
    ClassifierSection,
    CvSection,
    PipelineConfig,
    SynthSpec,
    config_echo,
    effective_patch_stride,
    load_pipeline_config,
    load_synth_spec,
)
from crbm_radiomics.crbm import CrbmConfig
from crbm_radiomics.errors import ConfigError, PipelineError
from crbm_radiomics.seeding import derive_rng


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return path


def test_pipeline_defaults_mirror_reference_setup():
    config = PipelineConfig()
    assert config.crbm.num_filters == 64
    assert config.crbm.kernel_size == 5
    assert config.crbm.input_size == 256
    assert config.crbm.learning_rate == 1e-4
    assert config.crbm.cd_steps == 1
    assert config.pls_components == 20
    assert config.cv.k == 4
    assert config.feature_source == "radiomics"
    assert config.classifier.kind == "lr"


def test_load_pipeline_config_round_trip(tmp_path):
    doc = {"feature_source": "crbm-patch",
           "crbm": {"num_filters": 8, "input_size": 32},
           "classifier": {"kind": "rf", "rf_trees": 25},
           "cv": {"k": 3, "mode": "patient-grouped"},
           "pls_components": 5, "seed": 42}
    config = load_pipeline_config(write_json(tmp_path / "c.json", doc))
    assert config.feature_source == "crbm-patch"
    assert config.crbm.num_filters == 8
    assert config.crbm.kernel_size == 5  # untouched default
    assert config.classifier.rf_trees == 25
    assert config.cv.mode == "patient-grouped"
    assert config.seed == 42


# each message follows the config's path as given
@pytest.mark.parametrize("doc, message", [
    ({"featuresource": "radiomics"}, ": unknown keys ['featuresource']"),
    ({"crbm": {"filters": 9}}, ".crbm: unknown keys ['filters']"),
    # removed modes: an old config carrying them is refused, not ignored
    ({"reduction_weights": "uniform"},
     ": unknown keys ['reduction_weights']"),
    ({"crbm": {"binarize_visible": False}},
     ".crbm: unknown keys ['binarize_visible']")],
    ids=["featuresource", "crbm.filters", "removed-reduction-weights",
         "removed-crbm-binarize-visible"])
def test_unknown_keys_are_rejected_with_context(tmp_path, doc, message):
    path = write_json(tmp_path / "c.json", doc)
    with pytest.raises(ConfigError) as err:
        load_pipeline_config(path)
    assert str(err.value) == f"{path}{message}"


def test_invalid_values_are_config_errors(tmp_path):
    cases = [
        {"feature_source": "deep-features"},
        {"pls_components": 0},
        {"pls_mode": "pca"},
        {"radiomics_levels": 1},
        {"radiomics_levels": 257},
        {"classifier": {"kind": "xgboost"}},
        {"cv": {"k": 1}},
        {"cv": {"mode": "loocv"}},
        {"crbm": {"kernel_size": 7, "input_size": 5}},
        {"crbm": {"num_filters": 0}},
    ]
    for i, doc in enumerate(cases):
        path = write_json(tmp_path / f"bad{i}.json", doc)
        with pytest.raises(ConfigError):
            load_pipeline_config(path)


@pytest.mark.parametrize("source", ["crbm-image", "radiomics"])
@pytest.mark.parametrize("field, value", [
    ("learning_rate", -1), ("weight_init_sigma", 0), ("batch_size", 0),
    ("cd_steps", 0), ("epochs", -1)])
def test_crbm_training_fields_are_checked_at_load(tmp_path, source, field, value):
    path = write_json(tmp_path / "c.json",
                      {"feature_source": source, "crbm": {field: value}})
    with pytest.raises(ConfigError,
                       match=rf"^{re.escape(str(path))}\.crbm: .*{field}"):
        load_pipeline_config(path)


@pytest.mark.parametrize("field, bad, edge", [
    ("lr_l2", -1e-9, 0.0), ("svm_c", 0.0, 1e-9), ("svm_c", -1, 1),
    ("rf_trees", 0, 1), ("lr_steps", -1, 0), ("svm_epochs", -1, 0),
    ("rf_depth", -1, 0), ("rf_features_per_split", -1, 0)])
def test_classifier_fields_are_checked_at_load(tmp_path, field, bad, edge):
    path = write_json(tmp_path / "c.json", {"classifier": {field: bad}})
    with pytest.raises(ConfigError,
                       match=rf"^{re.escape(str(path))}\.classifier: {field}"):
        load_pipeline_config(path)
    path = write_json(tmp_path / "c.json", {"classifier": {field: edge}})
    assert getattr(load_pipeline_config(path).classifier, field) == edge


def test_missing_file_and_bad_json(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_pipeline_config(tmp_path / "absent.json")
    (tmp_path / "broken.json").write_text("{nope")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_pipeline_config(tmp_path / "broken.json")
    (tmp_path / "list.json").write_text("[1, 2]")
    with pytest.raises(ConfigError, match="expected an object"):
        load_pipeline_config(tmp_path / "list.json")
    # a path that exists but cannot be read is not "not found"
    with pytest.raises(ConfigError) as err:
        load_pipeline_config(tmp_path)
    assert str(err.value).startswith(f"{tmp_path}: cannot read (")


@pytest.mark.parametrize("text, key", [
    ('{"pls_components": 2, "pls_components": 3}', "pls_components"),
    ('{"crbm": {"epochs": 1}, "seed": 1, "crbm": {"epochs": 2}}', "crbm"),
    ('{"classifier": {"svm_c": 1, "kind": "svm", "svm_c": 2}}', "svm_c")])
def test_a_key_given_twice_is_refused_naming_the_file_and_the_key(
        tmp_path, text, key):
    # Python's json keeps the last of two equal keys
    path = tmp_path / "twice.json"
    path.write_text(text)
    with pytest.raises(ConfigError) as err:
        load_pipeline_config(path)
    assert str(err.value) == f"{path}: duplicate key {key!r}"


PIPED_SYNTH = """
import sys
sys.path.insert(0, sys.argv[1])
from crbm_radiomics import cli
sys.exit(cli.main(["synth", "--config", "/dev/stdin", "--out", sys.argv[2]]))
"""


def test_a_config_is_read_from_a_pipe(tmp_path):
    # /dev/stdin is no regular file, but it can be read
    src = Path(crbm_radiomics.__file__).parent.parent
    runs = []
    for text in ('{"n_per_class": 1, "image_size": 8}',
                 '{"n_per_class": 1, "n_per_class": 2}'):
        runs.append(subprocess.run(
            [sys.executable, "-c", PIPED_SYNTH, str(src),
             str(tmp_path / f"corpus{len(runs)}")],
            input=text, capture_output=True, text=True))
    ok, twice = runs
    assert ok.returncode == 0, ok.stderr
    assert (tmp_path / "corpus0" / "manifest.csv").is_file()
    assert twice.returncode == 2
    assert twice.stderr == ("radiomics-crbm: config error: /dev/stdin: "
                            "duplicate key 'n_per_class'\n")


def test_undecodable_config_names_the_file(tmp_path):
    for i, data in enumerate((b'\xff{"seed": 1}', b'{"seed": ' + b"9" * 5000 + b"}")):
        path = tmp_path / f"odd{i}.json"
        path.write_bytes(data)
        with pytest.raises(ConfigError, match=f"odd{i}.json: invalid JSON"):
            load_pipeline_config(path)


@pytest.mark.parametrize("text", [
    '{"classifier": {"svm_c": NaN}}', '{"classifier": {"lr_l2": NaN}}',
    '{"crbm": {"learning_rate": Infinity}}', '{"seed": -Infinity}',
    '{"classifier": {"svm_c": 1e999}}'])
def test_non_finite_numbers_are_refused_naming_the_file(tmp_path, text):
    # Python's json reads NaN and Infinity, and 1e999 as inf
    path = tmp_path / "odd.json"
    path.write_text(text)
    with pytest.raises(ConfigError, match=r"odd\.json: invalid JSON"):
        load_pipeline_config(path)


@pytest.mark.parametrize("text", ['{"noise_level": Infinity}',
                                  '{"blob_density": NaN}',
                                  '{"noise_level": -1e400}'])
def test_non_finite_synth_numbers_are_refused_naming_the_file(tmp_path, text):
    path = tmp_path / "spec.json"
    path.write_text(text)
    with pytest.raises(ConfigError, match=r"spec\.json: invalid JSON"):
        load_synth_spec(path)


def test_wrong_type_is_reported_as_config_error(tmp_path):
    # the message names the file by its path as given, the dotted field,
    # the expected type and the type found
    cases = [
        ({"seed": "lots"}, ".seed: expected int, got str"),
        ({"crbm": {"num_filters": "x"}},
         ".crbm.num_filters: expected int, got str"),
        ({"cv": {"k": 2.5}}, ".cv.k: expected int, got float"),
        ({"crbm": {"learning_rate": "0.1"}},
         ".crbm.learning_rate: expected float, got str"),
        ({"classifier": {"rf_trees": True}},
         ".classifier.rf_trees: expected int, got bool"),
        ({"feature_source": None}, ".feature_source: expected str, got NoneType"),
        ({"pls_components": [3]}, ".pls_components: expected int, got list"),
    ]
    for doc, message in cases:
        path = write_json(tmp_path / "badcfg.json", doc)
        with pytest.raises(ConfigError) as err:
            load_pipeline_config(path)
        assert str(err.value) == f"{path}{message}"
    path = write_json(tmp_path / "bad.json", {"noise_level": "0.5"})
    with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}"
                                          r"\.noise_level: expected float, got str$"):
        load_synth_spec(path)


def test_same_named_configs_in_two_directories_give_two_messages(tmp_path):
    # a value error names the config by the path it was given, not by its
    # file name alone, which both share
    messages = []
    for folder in ("a", "b"):
        (tmp_path / folder).mkdir()
        path = write_json(tmp_path / folder / "spec.json", {"n_per_class": 0})
        with pytest.raises(ConfigError) as err:
            load_synth_spec(path)
        messages.append(str(err.value))
        path = write_json(tmp_path / folder / "c.json", {"cv": {"k": 1}})
        with pytest.raises(ConfigError) as err:
            load_pipeline_config(path)
        messages.append(str(err.value))
    a_spec, a_cfg, b_spec, b_cfg = messages
    assert a_spec.startswith(f"{tmp_path / 'a' / 'spec.json'}: n_per_class")
    assert b_spec.startswith(f"{tmp_path / 'b' / 'spec.json'}: n_per_class")
    assert a_cfg.startswith(f"{tmp_path / 'a' / 'c.json'}.cv: ")
    assert b_cfg.startswith(f"{tmp_path / 'b' / 'c.json'}.cv: ")


def test_int_for_a_float_field_is_kept_as_written(tmp_path):
    # not converted: the echoed config (and so a report) keeps the file's bytes
    path = write_json(tmp_path / "c.json", {"crbm": {"learning_rate": 1},
                                            "classifier": {"svm_c": 2}})
    config = load_pipeline_config(path)
    echo = config_echo(config)
    assert type(echo["crbm"]["learning_rate"]) is int
    assert json.dumps(echo["classifier"]["svm_c"]) == "2"
    spec = load_synth_spec(write_json(tmp_path / "s.json", {"noise_level": 2}))
    assert type(spec.noise_level) is int


def test_an_int_too_large_for_a_float_field_is_refused_naming_the_file(tmp_path):
    # float() cannot convert it, so it would overflow where it is used
    huge = 10 ** 400
    path = write_json(tmp_path / "big.json", {"crbm": {"learning_rate": huge}})
    with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}"
                                          r"\.crbm\.learning_rate: "
                                          r"integer too large for a float$"):
        load_pipeline_config(path)
    path = write_json(tmp_path / "bigspec.json", {"noise_level": -huge})
    with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}"
                                          r"\.noise_level: "
                                          r"integer too large for a float$"):
        load_synth_spec(path)
    # the largest int float() converts still loads, as written
    edge = int(sys.float_info.max)
    path = write_json(tmp_path / "edge.json", {"crbm": {"learning_rate": edge}})
    assert load_pipeline_config(path).crbm.learning_rate == edge


def test_synth_spec_load_and_validation(tmp_path):
    spec = load_synth_spec(write_json(tmp_path / "s.json",
                                      {"n_per_class": 7, "image_size": 16}))
    assert spec.n_per_class == 7
    assert spec.image_size == 16
    assert spec.stripe_period == 4
    for doc in ({"n_per_class": 0}, {"image_size": 4}, {"stripe_period": 1},
                {"stripe_orientation": "spiral"}, {"blob_density": 0.0},
                {"noise_level": -0.1}, {"slices_per_patient": 0}):
        with pytest.raises(ConfigError):
            load_synth_spec(write_json(tmp_path / "bad.json", doc))


def test_config_echo_is_json_ready(tmp_path):
    echo = config_echo(PipelineConfig())
    text = json.dumps(echo)  # must not raise
    assert json.loads(text)["crbm"]["num_filters"] == 64
    assert echo["cv"]["k"] == 4


def test_effective_patch_stride():
    config = PipelineConfig(crbm=CrbmConfig(input_size=32))
    assert effective_patch_stride(config) == 32  # 0 means non-overlapping
    assert effective_patch_stride(
        PipelineConfig(crbm=CrbmConfig(input_size=32), patch_stride=8)) == 8


def test_effective_rf_features_ceil_sqrt(monkeypatch):
    sizes = []
    real = classifiers._best_splits
    monkeypatch.setattr(classifiers, "_best_splits",
                        lambda *args: sizes.append(args[4].shape[1]) or real(*args))

    def used(section, n_features):
        X = derive_rng(n_features, "width").normal(size=(20, n_features))
        y = np.array([0.0, 1.0] * 10)
        sizes.clear()
        classifiers.rf_fit(X, y, n_trees=1, max_depth=1,
                           features_per_split=section.rf_features_per_split)
        (size,) = sizes  # a depth-1 tree searches only its root
        return size

    section = ClassifierSection(kind="rf")
    assert used(section, 1) == 1
    assert used(section, 4) == 2
    assert used(section, 5) == 3
    assert used(section, 374) == 20
    fixed = ClassifierSection(kind="rf", rf_features_per_split=7)
    assert used(fixed, 374) == 7
    assert used(fixed, 5) == 5  # capped at n_features


def test_cv_section_defaults():
    assert CvSection().k == 4
    assert CvSection().mode == "slice-level"
    with pytest.raises(ConfigError):
        CvSection(k=0)


# Fuzzed config files, in the style of the damaged-PGM fuzzer: a complete
# pipeline config or synth spec with one field, key or section replaced,
# or its bytes damaged.  Each file loads, or raises a PipelineError whose
# message names the file; never a bare TypeError, ValueError, KeyError or
# IndexError.
ODD_VALUES = (None, True, False, 0, -1, 1, 2.5, -0.0, 10 ** 30, 1e308,
              float("nan"), float("inf"), "", "x", "0.1", "lr", "radiomics",
              [], [1], {}, {"k": 2}, "9" * 5000)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=5)


@st.composite
def config_files(draw, base):
    doc = json.loads(json.dumps(config_echo(base)))
    sections = [doc] + [v for v in doc.values() if isinstance(v, dict)]
    where = draw(st.sampled_from(sections))
    kind = draw(st.sampled_from(("value", "key", "drop", "bytes")))
    value = draw(st.sampled_from(ODD_VALUES) | JSON_VALUES)
    if kind == "value":
        where[draw(st.sampled_from(sorted(where)))] = value
    elif kind == "key":
        where[draw(st.text(max_size=6))] = value
    elif kind == "drop":
        del where[draw(st.sampled_from(sorted(where)))]
    data = json.dumps(doc).encode()
    if kind == "bytes":
        at = draw(st.integers(0, len(data)))
        how = draw(st.sampled_from(("byte", "insert", "delete", "truncate")))
        if how == "byte":
            data = data[:at] + bytes([draw(st.integers(0, 255))]) + data[at + 1:]
        elif how == "insert":
            data = data[:at] + draw(st.binary(min_size=1, max_size=4)) + data[at:]
        elif how == "delete":
            data = data[:at] + data[at + draw(st.integers(1, 4)):]
        else:
            data = data[:at]
    return data


@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_fuzzed_config_loads_or_names_the_file(tmp_path_factory, data):
    loader, base = data.draw(st.sampled_from(((load_pipeline_config, PipelineConfig()),
                                              (load_synth_spec, SynthSpec()))))
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_bytes(data.draw(config_files(base)))
    try:
        loader(path)
    except PipelineError as exc:
        assert "fuzzed.json" in str(exc)
