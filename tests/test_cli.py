"""End-to-end command-line flows, exercised in-process via main(argv)."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import crbm_radiomics
from crbm_radiomics import cli, crbm
from crbm_radiomics.data_model import (MANIFEST_HEADER, RoiMask, load_manifest,
                                       save_mask)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A generated corpus plus config files, shared by the chain tests."""
    root = tmp_path_factory.mktemp("cli")
    synth_cfg = root / "synth.json"
    synth_cfg.write_text(json.dumps(
        {"n_per_class": 6, "image_size": 32, "seed": 13}))
    corpus = root / "corpus"
    assert cli.main(["synth", "--config", str(synth_cfg),
                     "--out", str(corpus)]) == 0
    manifest = corpus / "manifest.csv"

    radiomics_cfg = root / "radiomics.json"
    radiomics_cfg.write_text(json.dumps(
        {"feature_source": "radiomics", "pls_components": 4,
         "cv": {"k": 3}, "seed": 21}))
    crbm_cfg = root / "crbm.json"
    crbm_cfg.write_text(json.dumps(
        {"feature_source": "crbm-image",
         "crbm": {"num_filters": 4, "kernel_size": 5, "input_size": 16,
                  "learning_rate": 0.05, "epochs": 2, "batch_size": 8},
         "pls_components": 4, "cv": {"k": 3}, "seed": 21}))
    return {"root": root, "manifest": manifest,
            "radiomics_cfg": radiomics_cfg, "crbm_cfg": crbm_cfg}


def test_synth_output_loads(workspace):
    dataset = load_manifest(workspace["manifest"])
    assert len(dataset) == 12
    assert dataset.class_counts == (6, 6)


def test_train_crbm_writes_model_and_history(workspace):
    out = workspace["root"] / "model.json"
    code = cli.main(["train-crbm", "--config", str(workspace["crbm_cfg"]),
                     "--manifest", str(workspace["manifest"]),
                     "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["format"] == "crbm-model"
    history = (workspace["root"] / "model.history.csv").read_text().splitlines()
    assert history[0] == "epoch,recon_cross_entropy,mean_abs_dw"
    assert len(history) == 3  # header + 2 epochs


def test_extract_radiomics_csv_shape(workspace):
    out = workspace["root"] / "features.csv"
    code = cli.main(["extract", "--config", str(workspace["radiomics_cfg"]),
                     "--manifest", str(workspace["manifest"]),
                     "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 13  # header + 12 slices
    header = lines[0].split(",")
    assert header[:2] == ["sample_id", "patient_id"]
    assert header[-1] == "label"
    assert len(header) == 2 + 374 + 1


def test_extract_crbm_requires_model(workspace):
    out = workspace["root"] / "nope.csv"
    code = cli.main(["extract", "--config", str(workspace["crbm_cfg"]),
                     "--manifest", str(workspace["manifest"]),
                     "--out", str(out)])
    assert code == 2  # config error: crbm source without --model
    assert not out.exists()


def test_extract_with_model(workspace):
    model = workspace["root"] / "model.json"
    if not model.exists():
        cli.main(["train-crbm", "--config", str(workspace["crbm_cfg"]),
                  "--manifest", str(workspace["manifest"]),
                  "--out", str(model)])
    out = workspace["root"] / "crbm_features.csv"
    code = cli.main(["extract", "--config", str(workspace["crbm_cfg"]),
                     "--manifest", str(workspace["manifest"]),
                     "--out", str(out), "--model", str(model)])
    assert code == 0
    header = out.read_text().splitlines()[0].split(",")
    assert len(header) == 2 + 12 * 12 + 1  # 16 - 5 + 1 = 12 map side


def test_run_radiomics_report(workspace, capsys):
    out = workspace["root"] / "report.json"
    code = cli.main(["run", "--config", str(workspace["radiomics_cfg"]),
                     "--manifest", str(workspace["manifest"]),
                     "--out", str(out)])
    assert code == 0
    assert "AUC" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert set(doc) == {"package_version", "config", "report"}
    assert doc["config"]["seed"] == 21
    assert 0.0 <= doc["report"]["auc"] <= 1.0
    roc = (workspace["root"] / "report.roc.csv").read_text().splitlines()
    assert roc[0] == "fpr,tpr"
    assert roc[1] == "0.0,0.0"
    assert roc[-1] == "1.0,1.0"


def test_run_is_byte_deterministic(workspace):
    a = workspace["root"] / "rerun_a.json"
    b = workspace["root"] / "rerun_b.json"
    for out in (a, b):
        assert cli.main(["run", "--config", str(workspace["radiomics_cfg"]),
                         "--manifest", str(workspace["manifest"]),
                         "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (workspace["root"] / "rerun_a.roc.csv").read_bytes() == \
        (workspace["root"] / "rerun_b.roc.csv").read_bytes()


def test_run_with_pretrained_model_matches_internal_training(workspace):
    model = workspace["root"] / "model.json"
    if not model.exists():
        cli.main(["train-crbm", "--config", str(workspace["crbm_cfg"]),
                  "--manifest", str(workspace["manifest"]),
                  "--out", str(model)])
    internal = workspace["root"] / "internal.json"
    external = workspace["root"] / "external.json"
    assert cli.main(["run", "--config", str(workspace["crbm_cfg"]),
                     "--manifest", str(workspace["manifest"]),
                     "--out", str(internal)]) == 0
    assert cli.main(["run", "--config", str(workspace["crbm_cfg"]),
                     "--manifest", str(workspace["manifest"]),
                     "--out", str(external), "--model", str(model)]) == 0
    assert internal.read_bytes() == external.read_bytes()


@pytest.mark.parametrize("command", ["run", "extract"])
def test_exit_code_2_names_the_model_fields_the_config_differs_in(
        workspace, tmp_path, capsys, command):
    model = tmp_path / "other.json"
    crbm.save_model(crbm.init_model(5, 5, 20, seed=1), model)  # config: 4, 5, 16
    out = tmp_path / "out.csv"
    code = cli.main([command, "--config", str(workspace["crbm_cfg"]),
                     "--manifest", str(workspace["manifest"]),
                     "--out", str(out), "--model", str(model)])
    assert code == 2
    err = capsys.readouterr().err
    assert str(model) in err
    assert "num_filters 5 (config 4)" in err and "input_size 20 (config 16)" in err
    assert "kernel_size" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "extract"])
def test_exit_code_2_for_a_model_under_radiomics(workspace, tmp_path, capsys,
                                                 command):
    # the model fits the config's crbm section; radiomics would ignore it
    model = tmp_path / "fits.json"
    crbm.save_model(crbm.init_model(64, 5, 256, seed=1), model)
    out = tmp_path / "out.csv"
    code = cli.main([command, "--config", str(workspace["radiomics_cfg"]),
                     "--manifest", str(workspace["manifest"]),
                     "--out", str(out), "--model", str(model)])
    assert code == 2
    err = capsys.readouterr().err
    assert "--model" in err and "feature_source 'radiomics'" in err
    assert not out.exists()


def test_train_crbm_refuses_a_radiomics_config(workspace, tmp_path, capsys):
    out = tmp_path / "model.json"
    code = cli.main(["train-crbm", "--config", str(workspace["radiomics_cfg"]),
                     "--manifest", str(workspace["manifest"]),
                     "--out", str(out)])
    assert code == 2
    assert "feature_source 'radiomics'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []  # neither model nor history


def test_exit_code_1_names_a_malformed_model_file(workspace, tmp_path, capsys):
    model = tmp_path / "broken.json"
    model.write_text('{"format": "crbm-model"}')
    code = cli.main(["run", "--config", str(workspace["crbm_cfg"]),
                     "--manifest", str(workspace["manifest"]),
                     "--out", str(tmp_path / "r.json"), "--model", str(model)])
    assert code == 1
    assert f"error: {model}: missing" in capsys.readouterr().err


def test_deeply_nested_json_ends_in_a_typed_error(workspace, tmp_path, capsys):
    # nested deeper than the JSON parser's recursion limit: a config error
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    code = cli.main(["run", "--config", str(deep),
                     "--manifest", str(workspace["manifest"]),
                     "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert f"config error: {deep}: invalid JSON (" in capsys.readouterr().err
    # filters nested deeper than the model check's recursion limit: a
    # malformed model
    model = tmp_path / "deep-model.json"
    crbm.save_model(crbm.init_model(2, 2, 4), model)
    doc = json.loads(model.read_text())
    doc["filters"] = None
    model.write_text(json.dumps(doc).replace("null", "[" * 900 + "]" * 900))
    code = cli.main(["run", "--config", str(workspace["crbm_cfg"]),
                     "--manifest", str(workspace["manifest"]),
                     "--out", str(tmp_path / "r.json"), "--model", str(model)])
    assert code == 1
    assert f"error: {model}: filters must be" in capsys.readouterr().err


def test_exit_code_2_for_config_errors(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"feature_source": "deep"}')
    code = cli.main(["run", "--config", str(bad),
                     "--manifest", str(workspace["manifest"]),
                     "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_exit_code_2_for_non_finite_json_numbers(workspace, tmp_path, capsys):
    # Infinity noise would otherwise write images of pure binary noise, and
    # a NaN C fail only in the first fold
    spec = tmp_path / "spec.json"
    spec.write_text('{"n_per_class": 2, "noise_level": Infinity}')
    assert cli.main(["synth", "--config", str(spec),
                     "--out", str(tmp_path / "corpus")]) == 2
    assert "spec.json: invalid JSON" in capsys.readouterr().err
    assert not (tmp_path / "corpus").exists()
    bad = tmp_path / "c.json"
    bad.write_text('{"classifier": {"kind": "svm", "svm_c": NaN}}')
    code = cli.main(["run", "--config", str(bad),
                     "--manifest", str(workspace["manifest"]),
                     "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert "c.json: invalid JSON" in capsys.readouterr().err


def test_exit_code_2_names_the_file_of_a_bad_crbm_training_field(workspace, tmp_path,
                                                                 capsys):
    bad = tmp_path / "c.json"
    bad.write_text('{"crbm": {"learning_rate": -1}}')
    code = cli.main(["run", "--config", str(bad),
                     "--manifest", str(workspace["manifest"]),
                     "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert f"config error: {bad}.crbm: learning_rate" in capsys.readouterr().err


def test_exit_code_2_names_the_file_of_too_many_radiomics_levels(
        workspace, tmp_path, capsys):
    # 70000 levels once reached the texture counters and failed there,
    # allocating hundreds of GiB; 257 is the first refused
    bad = tmp_path / "c.json"
    bad.write_text('{"radiomics_levels": 257}')
    code = cli.main(["run", "--config", str(bad),
                     "--manifest", str(workspace["manifest"]),
                     "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert (f"config error: {bad}: radiomics_levels must be within 2 .. 256"
            in capsys.readouterr().err)
    assert not (tmp_path / "r.json").exists()


def test_exit_code_2_names_the_file_of_an_int_too_large_for_a_float(
        workspace, tmp_path, capsys):
    huge = "1" + "0" * 400
    bad = tmp_path / "c.json"
    bad.write_text('{"crbm": {"learning_rate": %s}}' % huge)
    code = cli.main(["run", "--config", str(bad),
                     "--manifest", str(workspace["manifest"]),
                     "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert (f"config error: {bad}.crbm.learning_rate: integer too large "
            "for a float") in capsys.readouterr().err
    spec = tmp_path / "spec.json"
    spec.write_text('{"n_per_class": 2, "noise_level": %s}' % huge)
    assert cli.main(["synth", "--config", str(spec),
                     "--out", str(tmp_path / "corpus")]) == 2
    assert f"{spec}.noise_level: integer too large" in capsys.readouterr().err
    assert not (tmp_path / "corpus").exists()


def test_exit_code_1_for_missing_manifest(workspace, tmp_path, capsys):
    code = cli.main(["run", "--config", str(workspace["radiomics_cfg"]),
                     "--manifest", str(tmp_path / "absent.csv"),
                     "--out", str(tmp_path / "r.json")])
    assert code == 1
    assert "error" in capsys.readouterr().err


PIPED_RUN = """
import sys
sys.path.insert(0, sys.argv[1])
from crbm_radiomics import cli
sys.exit(cli.main(["run", "--config", sys.argv[2], "--manifest", "/dev/stdin",
                   "--out", sys.argv[3]]))
"""


def test_a_manifest_is_read_from_a_pipe(workspace, tmp_path):
    # /dev/stdin is no regular file, but it can be read; its paths are
    # absolute, as a pipe's directory means nothing
    records = load_manifest(workspace["manifest"]).records
    text = "".join(
        [",".join(MANIFEST_HEADER) + "\n"]
        + [f"{r.sample_id},{r.patient_id},{r.image_path},{r.mask_path},"
           f"{r.label},{r.stage},{r.subtype}\n" for r in records])
    src = Path(crbm_radiomics.__file__).parent.parent
    piped = tmp_path / "piped.json"
    done = subprocess.run(
        [sys.executable, "-c", PIPED_RUN, str(src),
         str(workspace["radiomics_cfg"]), str(piped)],
        input=text, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    direct = tmp_path / "direct.json"
    assert cli.main(["run", "--config", str(workspace["radiomics_cfg"]),
                     "--manifest", str(workspace["manifest"]),
                     "--out", str(direct)]) == 0
    assert piped.read_bytes() == direct.read_bytes()


@pytest.mark.parametrize("command", ["run", "extract"])
def test_exit_code_1_names_a_manifest_with_a_header_but_no_rows(
        workspace, tmp_path, capsys, command):
    manifest = tmp_path / "header_only.csv"
    manifest.write_text(",".join(MANIFEST_HEADER) + "\n")
    code = cli.main([command, "--config", str(workspace["radiomics_cfg"]),
                     "--manifest", str(manifest),
                     "--out", str(tmp_path / "out")])
    assert code == 1
    assert f"{manifest}: no samples" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("config", ["radiomics_cfg", "crbm_cfg"])
def test_exit_code_1_names_the_sample_and_file_of_an_empty_mask(workspace, tmp_path,
                                                                capsys, config):
    records = load_manifest(workspace["manifest"]).records
    empty = tmp_path / "empty_mask.pgm"
    save_mask(empty, RoiMask(bits=np.zeros((32, 32), dtype=np.uint8)))
    rows = [",".join(MANIFEST_HEADER)] + [
        ",".join((r.sample_id, r.patient_id, r.image_path,
                  str(empty) if i == 3 else r.mask_path, str(r.label),
                  r.stage, r.subtype))
        for i, r in enumerate(records)]
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("\n".join(rows) + "\n")
    code = cli.main(["run", "--config", str(workspace[config]),
                     "--manifest", str(manifest),
                     "--out", str(tmp_path / "r.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert str(empty) in err and records[3].sample_id in err


COLD_START = """
import sys
sys.path.insert(0, sys.argv[1])
from crbm_radiomics import cli
if cli.main(["synth", "--config", sys.argv[2], "--out", sys.argv[3]]) != 0:
    sys.exit(1)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_exit_code_1_for_an_allocation_failure(workspace, monkeypatch, capsys):
    # numpy's MemoryError for an array too large to allocate, made without
    # allocating it
    from numpy._core._exceptions import _ArrayMemoryError
    error = _ArrayMemoryError((1 << 40,), np.dtype(np.float64))

    def fail(*args):
        raise error

    monkeypatch.setattr(crbm_radiomics.evaluation, "cross_validate", fail)
    out = workspace["root"] / "oom.json"
    assert cli.main(["run", "--config", str(workspace["radiomics_cfg"]),
                     "--manifest", str(workspace["manifest"]),
                     "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"radiomics-crbm: error: out of memory ({error})\n")
    assert not out.exists()


def test_cold_start_loads_no_scipy(tmp_path):
    # the runtime is numpy-only; scipy is the tests' independent oracle
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n_per_class": 1, "image_size": 8}))
    src = Path(crbm_radiomics.__file__).parent.parent
    done = subprocess.run([sys.executable, "-c", COLD_START, str(src),
                           str(spec), str(tmp_path / "corpus")],
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "corpus" / "manifest.csv").is_file()


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as info:
        cli.main(["run", "--config", "x.json"])  # missing required flags
    assert info.value.code == 2
    with pytest.raises(SystemExit):
        cli.main([])
