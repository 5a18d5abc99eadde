"""The CLI holds numpy's OpenBLAS at one thread, and leaves BLAS alone
where it finds no known setter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import crbm_radiomics
from crbm_radiomics import blas, cli, evaluation

# 128x128 images and 64 filters: OpenBLAS's float32 CD products give
# other bits at 2 threads than at 1 on this size, so an unheld BLAS makes
# the model, and so the report, depend on OPENBLAS_NUM_THREADS
SYNTH = {"n_per_class": 2, "image_size": 128, "noise_level": 0.5, "seed": 1}
CONFIG = {"feature_source": "crbm-image",
          "crbm": {"num_filters": 64, "kernel_size": 5, "input_size": 128,
                   "learning_rate": 1e-4, "epochs": 1, "batch_size": 16},
          "pls_components": 1, "classifier": {"kind": "lr"},
          "cv": {"k": 2}, "seed": 2026}
RADIOMICS = {"feature_source": "radiomics", "pls_components": 1,
             "cv": {"k": 2}, "seed": 2026}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """(manifest, CRBM config, radiomics config) paths."""
    root = tmp_path_factory.mktemp("blas")
    (root / "synth.json").write_text(json.dumps(SYNTH))
    (root / "config.json").write_text(json.dumps(CONFIG))
    (root / "radiomics.json").write_text(json.dumps(RADIOMICS))
    assert cli.main(["synth", "--config", str(root / "synth.json"),
                     "--out", str(root / "corpus")]) == 0
    return (root / "corpus" / "manifest.csv", root / "config.json",
            root / "radiomics.json")


def openblas_or_skip():
    found = blas._openblas()
    if found is None:
        pytest.skip("numpy's BLAS exports no known thread setter")
    return found


@pytest.fixture
def two_threads():
    """numpy's OpenBLAS at two threads for the test, then at the count it
    had; yields its getter."""
    getter, setter = openblas_or_skip()
    before = getter()
    setter(2)
    try:
        yield getter
    finally:
        setter(before)


def test_outputs_are_the_same_bytes_whatever_openblas_num_threads_says(
        corpus, tmp_path):
    openblas_or_skip()
    manifest, config, _ = corpus
    src = str(Path(crbm_radiomics.__file__).parent.parent)
    outputs = {}
    for threads in (None, "1", "2"):
        env = {key: value for key, value in os.environ.items()
               if key != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = src
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        out = tmp_path / str(threads)
        out.mkdir()
        for argv in (["train-crbm", "--out", str(out / "model.json")],
                     ["run", "--model", str(out / "model.json"),
                      "--out", str(out / "report.json")]):
            done = subprocess.run(
                [sys.executable, "-m", "crbm_radiomics.cli", *argv,
                 "--config", str(config), "--manifest", str(manifest)],
                env=env, capture_output=True, text=True)
            assert done.returncode == 0, done.stderr
        outputs[threads] = {path.name: path.read_bytes()
                            for path in sorted(out.iterdir())}
    assert sorted(outputs[None]) == ["model.history.csv", "model.json",
                                     "report.json", "report.roc.csv"]
    assert outputs[None] == outputs["1"] == outputs["2"]
    report = json.loads(outputs[None]["report.json"])["report"]
    assert report["provenance"]["blas_threads"] == 1


def threads_seen_by_run(monkeypatch, getter, radiomics, manifest, out):
    """Run `run` in this process; returns (the OpenBLAS thread count while
    it ran, read with getter, and the report's provenance.blas_threads)."""
    seen = []

    def cross_validate(*args):
        seen.append(getter())
        return real(*args)

    real = evaluation.cross_validate
    with monkeypatch.context() as patch:
        patch.setattr(evaluation, "cross_validate", cross_validate)
        assert cli.main(["run", "--config", str(radiomics),
                         "--manifest", str(manifest), "--out", str(out)]) == 0
    report = json.loads(out.read_text())["report"]
    return seen[0], report["provenance"]["blas_threads"]


def test_run_holds_blas_at_one_thread_and_restores_it(corpus, tmp_path,
                                                      monkeypatch, two_threads):
    manifest, _, radiomics = corpus
    assert threads_seen_by_run(monkeypatch, two_threads, radiomics, manifest,
                               tmp_path / "report.json") == (1, 1)
    assert two_threads() == 2


def test_without_a_known_setter_blas_is_left_alone(corpus, tmp_path,
                                                   monkeypatch, two_threads):
    manifest, _, radiomics = corpus
    with monkeypatch.context() as patch:
        patch.setattr(blas, "_SETTER", "no_such_setter")
        blas._openblas.cache_clear()
        try:
            with blas.one_thread():
                assert two_threads() == 2
                assert blas.thread_count() == "unknown"
            assert threads_seen_by_run(
                monkeypatch, two_threads, radiomics, manifest,
                tmp_path / "report.json") == (2, "unknown")
        finally:
            blas._openblas.cache_clear()
    assert two_threads() == 2
