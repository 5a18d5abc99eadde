"""The CRBM's worker thread: the CD uniforms it fills beside the hidden
pass and the bands of feature maps it computes give the bits of the same
work done on one thread, in buffers the calling thread allocated.

The banded feature maps equal the one-band mean only as far as the float64
matrix product gives a column the same bits in a band's product and the
whole stack's.  crbm.extract_feature_map bands only where every product
has a multiple of 8 columns, a rule found by trial on one OpenBLAS build;
a failure of the banded tests on another BLAS or CPU target points there
first."""

import sys
import threading
import tracemalloc
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from crbm_radiomics import crbm
from crbm_radiomics.seeding import derive_rng
from test_crbm_training import record_chunks, replay_batch

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402


class InlineExecutor:
    """Runs each submitted call at once, on the calling thread."""

    def submit(self, fn, *args, **kwargs):
        future = Future()
        future.set_result(fn(*args, **kwargs))
        return future


class ThreadLog:
    """Passes each submitted call on to executor, noting the thread it
    runs on."""

    def __init__(self, executor):
        self.executor = executor
        self.threads = []

    def submit(self, fn, *args, **kwargs):
        def run():
            self.threads.append(threading.get_ident())
            return fn(*args, **kwargs)
        return self.executor.submit(run)


def run_inline(monkeypatch):
    """Run the calls submitted to the worker on the calling thread."""
    executor = InlineExecutor()
    monkeypatch.setattr(crbm, "_worker", lambda: executor)


def on_worker(monkeypatch):
    """Log the threads of the calls submitted to the real worker."""
    log = ThreadLog(crbm._worker())
    monkeypatch.setattr(crbm, "_worker", lambda: log)
    return log


@pytest.mark.parametrize("k", [1, 2])
def test_overlapped_cd_chunks_are_bit_identical_on_the_worker_and_inline(
        monkeypatch, k):
    # chunks of 2 images draw _CD_CHUNK_DRAWS each, so they overlap; the
    # last chunk, of 1 image, draws fewer and stays inline
    model = crbm.init_model(3, 3, 6, weight_init_sigma=0.5, seed=4)
    cfg = crbm.CrbmConfig(learning_rate=0.1, cd_steps=k, batch_size=7)
    batch = derive_rng(21, "grey").random((7, 6, 6))
    per_image = k * (model.num_hidden + model.num_visible)
    monkeypatch.setattr(crbm, "_CD_CHUNK_DRAWS", 2 * per_image)
    runs = []
    for executor in ("worker", "inline"):
        with monkeypatch.context() as patch:
            if executor == "inline":
                run_inline(patch)
            log = on_worker(patch)
            chunks = record_chunks(patch)
            runs.append(crbm.cd_update(model, batch, cfg, derive_rng(22, "u")))
        main = threading.get_ident()
        assert [len(chunk[0]) for chunk in chunks] == [2, 2, 2, 1]
        assert len(log.threads) == 3
        assert all((t == main) == (executor == "inline") for t in log.threads)
        # the samples are the one-image chains' from the same stream
        vk = replay_batch(model, batch.astype(np.float32), k,
                          derive_rng(22, "u"))[0]
        assert np.array_equal(np.concatenate([c[1] for c in chunks]), vk)
    (worker, worker_diag), (inline, inline_diag) = runs
    for name in ("filters", "visible_bias", "hidden_biases"):
        assert (np.asarray(getattr(worker, name)).tobytes()
                == np.asarray(getattr(inline, name)).tobytes())
    assert worker_diag == inline_diag


def test_an_overlapped_cd_chunk_adds_one_im2col_copy_to_its_peak(monkeypatch):
    # the 128x128 chunk of the inline test beside it in
    # test_crbm_training.py, with its uniforms filled on the worker
    model = crbm.init_model(64, 5, 128, seed=19)
    v0 = derive_rng(19, "mem").random((1, 128, 128)).astype(np.float32)
    per_image = model.num_hidden + model.num_visible
    monkeypatch.setattr(crbm, "_CD_CHUNK_DRAWS", per_image)
    log = on_worker(monkeypatch)
    crbm._cd_sums(model, v0, 1, derive_rng(19, "u"))  # lazy set-up first
    tracemalloc.start()
    try:
        crbm._cd_sums(model, v0, 1, derive_rng(19, "u"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(log.threads) == 2
    hidden = 4 * model.num_hidden
    uniforms = 4 * per_image
    im2col = 4 * model.kernel_size ** 2 * model.hidden_side ** 2
    # the uniforms are allocated before the first hidden pass, so the
    # pass's im2col copy, or the data phase's, is alive beside them
    assert peak <= hidden + uniforms + im2col + hidden // 16


def one_band_mean(model, images):
    return crbm._hidden_probs(model, np.asarray(images, np.float64)).mean(axis=-3)


@pytest.mark.parametrize("lead", [(), (3,)])
def test_banded_feature_maps_equal_the_one_band_mean(monkeypatch, lead):
    # 8 filters of 5x5 on 68x68: 64 hidden rows in 16 bands of 4
    model = crbm.init_model(8, 5, 68, weight_init_sigma=0.3, seed=23)
    images = derive_rng(23, "band").random((*lead, 68, 68))
    want = one_band_mean(model, images)
    rows = 4 * int(np.prod(lead)) * 8 * 64
    monkeypatch.setattr(crbm, "_EXTRACT_MAP_VALUES", rows)
    for executor in ("worker", "inline"):
        with monkeypatch.context() as patch:
            if executor == "inline":
                run_inline(patch)
            log = on_worker(patch)
            got = crbm.extract_feature_map(model, images)
        assert len(log.threads) == 1
        assert (log.threads[0] == threading.get_ident()) == (executor == "inline")
        assert got.shape == (*lead, 64, 64)
        assert got.tobytes() == want.tobytes()


def test_a_side_not_a_multiple_of_4_is_extracted_in_one_band(monkeypatch):
    model = crbm.init_model(8, 5, 66, weight_init_sigma=0.3, seed=24)
    image = derive_rng(24, "band").random((66, 66))
    monkeypatch.setattr(crbm, "_EXTRACT_MAP_VALUES", 4 * 8 * 62)
    log = on_worker(monkeypatch)
    got = crbm.extract_feature_map(model, image)
    assert log.threads == []
    assert got.tobytes() == one_band_mean(model, image).tobytes()


def test_paper_slice_feature_map_is_banded_and_equals_the_one_band_mean(
        monkeypatch):
    # 64 maps of 252x252 hold 4.1M values: bands of 16 rows, half of them
    # on the worker
    model = crbm.init_model(64, 5, 256, seed=25)
    image = derive_rng(25, "slice").random((1, 256, 256))
    log = on_worker(monkeypatch)
    got = crbm.extract_feature_map(model, image)
    assert len(log.threads) == 1 and log.threads[0] != threading.get_ident()
    assert got.tobytes() == one_band_mean(model, image).tobytes()


def test_no_traced_function_runs_on_the_worker(monkeypatch):
    # the tracer keeps one stack of open spans, so a traced call from the
    # worker thread would nest under whatever the main thread has open
    calls = []

    def spying(name, fn):
        def spy(*args, **kwargs):
            calls.append((name, threading.get_ident()))
            return fn(*args, **kwargs)
        return spy

    for name, module, attr, _ in tracing.TRACE_POINTS:
        monkeypatch.setattr(module, attr, spying(name, getattr(module, attr)))
    log = on_worker(monkeypatch)
    model = crbm.init_model(8, 5, 68, weight_init_sigma=0.3, seed=26)
    images = derive_rng(26, "spy").random((2, 68, 68))
    monkeypatch.setattr(crbm, "_CD_CHUNK_DRAWS",
                        model.num_hidden + model.num_visible)
    monkeypatch.setattr(crbm, "_EXTRACT_MAP_VALUES", 4 * 2 * 8 * 64)
    crbm.train(model, images, crbm.CrbmConfig(epochs=1, batch_size=2))
    crbm.extract_feature_map(model, images)
    main = threading.get_ident()
    assert len(log.threads) == 3 and main not in log.threads
    names = {name for name, _ in calls}
    assert {"crbm.train", "crbm.cd_update", "crbm.extract_feature_map",
            "kernels.corr_valid", "kernels.conv_full",
            "kernels.corr_grad"} <= names
    assert {thread for _, thread in calls} == {main}


def test_threads_sharing_the_worker_each_get_their_own_results(monkeypatch):
    # six threads queue bands and uniform fills on the one worker at once,
    # with the interpreter switching threads every 10 us
    model = crbm.init_model(8, 5, 68, weight_init_sigma=0.3, seed=27)
    images = derive_rng(27, "threads").random((6, 68, 68))
    cfg = crbm.CrbmConfig(learning_rate=0.1, batch_size=2)
    monkeypatch.setattr(crbm, "_CD_CHUNK_DRAWS",
                        model.num_hidden + model.num_visible)
    monkeypatch.setattr(crbm, "_EXTRACT_MAP_VALUES", 4 * 8 * 64)

    def work(i):
        update = crbm.cd_update(model, images[i:i + 2], cfg,
                                derive_rng(27, "u", i))[0]
        return crbm.extract_feature_map(model, images[i]), update.filters

    with monkeypatch.context() as patch:
        run_inline(patch)
        want = [work(i) for i in range(len(images))]
    got = [[] for _ in images]

    def repeat(i):
        for _ in range(5):
            got[i].append(work(i))

    threads = [threading.Thread(target=repeat, args=(i,))
               for i in range(len(images))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for runs, expected in zip(got, want):
        assert len(runs) == 5
        for result in runs:
            assert all(a.tobytes() == b.tobytes()
                       for a, b in zip(result, expected))
