"""The CRBM's worker thread: the CD chain and the bands of feature maps it
shares with the calling thread give the bits of the same work done on one
thread, in buffers the calling thread allocated.

Two results rest on the matrix product giving a part of its output the
bits it gets in the whole product, a rule found by trial on one OpenBLAS
build; a failure of these tests on another BLAS or CPU target points
there first.  The banded feature maps equal the one-band mean only as far
as the float64 product gives a column the same bits in a band's product
and the whole stack's: crbm.extract_feature_map bands only where every
product has a multiple of 8 columns.  The two-thread CD chain equals the
one-thread chain at the paper's shape, where the products split by filter
rows and by columns cut at a multiple of 8 give the whole products' bits;
the filter-gradient product split by rows did not at some smaller shapes
(64x64 with 16 filters, 100x100 with 8, 6x6 with 3).  Only CD-1 takes two
threads: a CD-k chain for k > 1 runs on one thread at any size."""

import os
import signal
import sys
import threading
import tracemalloc
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from crbm_radiomics import crbm, kernels
from crbm_radiomics.seeding import derive_rng
from test_crbm_training import assert_same_sums, replay_sums

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


# calls a two-thread CD-1 chunk submits to the worker: the uniform fill,
# two hidden passes and the reconstruction's tap product
SUBMISSIONS = 4


@pytest.mark.parametrize("k", [1, 2])
def test_overlapped_cd_chunks_are_bit_identical_on_the_worker_and_inline(
        monkeypatch, k):
    # each image draws _CD_CHUNK_DRAWS, so it is a chunk of its own, and
    # runs on two threads under CD-1 and on this one under CD-2
    model = crbm.init_model(3, 3, 6, weight_init_sigma=0.5, seed=4)
    cfg = crbm.CrbmConfig(learning_rate=0.1, cd_steps=k, batch_size=7)
    batch = derive_rng(21, "grey").random((7, 6, 6))
    per_image = k * (model.num_hidden + model.num_visible)
    runs = []
    for executor in ("worker", "inline", "one thread"):
        with monkeypatch.context() as patch:
            # one more draw than an image's: one-image chunks on one thread
            patch.setattr(crbm, "_CD_CHUNK_DRAWS",
                          per_image + (executor == "one thread"))
            if executor == "inline":
                run_inline(patch)
            log = on_worker(patch)
            runs.append(crbm.cd_update(model, batch, cfg, derive_rng(22, "u")))
        main = threading.get_ident()
        two_threads = k == 1 and executor != "one thread"
        assert len(log.threads) == (7 * SUBMISSIONS if two_threads else 0)
        assert all((t == main) == (executor == "inline") for t in log.threads)
    (worker, worker_diag), (inline, inline_diag), (one, one_diag) = runs
    # CD-2 runs every image as a one-thread chunk of one image, so all
    # three runs are the one-thread replay's bits
    for other in (inline, one) if k > 1 else (inline,):
        for name in ("filters", "visible_bias", "hidden_biases"):
            assert (np.asarray(getattr(worker, name)).tobytes()
                    == np.asarray(getattr(other, name)).tobytes())
    assert worker_diag == inline_diag
    # the one-thread chunks draw the same samples, so the visible bias and
    # the cross-entropy agree; at this shape the filter-gradient product
    # split by filter rows rounds otherwise than the whole product, within
    # float32 precision of the largest step
    assert worker.visible_bias == one.visible_bias
    assert worker_diag["recon_cross_entropy"] == one_diag["recon_cross_entropy"]
    for got, want, before in ((worker.filters, one.filters, model.filters),
                              (worker.hidden_biases, one.hidden_biases,
                               model.hidden_biases)):
        step = np.abs(want - before).max()
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=8 * np.finfo(np.float32).eps * step)


@pytest.mark.parametrize("k", [1, 2])
def test_a_paper_shape_two_thread_chunk_equals_a_one_thread_replay(
        monkeypatch, k):
    """One 256x256 image, 64 filters of 5x5: the two-thread CD-1 chunk's
    sums are, bit for bit, those of the one-image chain replayed through
    the whole-stack kernels and summed as _cd_sums' one-thread chunks sum
    them.  This rests on the BLAS build: the products split by filter rows
    and by columns cut at a multiple of 8 gave the whole products' bits at
    this shape, at 1 and 2 BLAS threads, on one OpenBLAS build (0.3.31,
    Haswell kernels; see the module docstring).  The CD-2 chunk of the
    same image runs on this thread alone, with the same bits."""
    model = crbm.init_model(64, 5, 256, seed=29)
    model = crbm.CrbmModel(filters=model.filters, visible_bias=-0.1,
                           hidden_biases=np.linspace(-0.5, 0.5, 64),
                           input_size=256)
    v0 = derive_rng(29, "paper").random((1, 256, 256)).astype(np.float32)
    log = on_worker(monkeypatch)
    sums = crbm._cd_sums(model, v0, k, derive_rng(29, "u"))
    assert len(log.threads) == (SUBMISSIONS if k == 1 else 0)
    assert threading.get_ident() not in log.threads
    assert_same_sums(sums, replay_sums(model, v0, k, derive_rng(29, "u"), 1))


def test_the_two_thread_chunks_of_a_call_share_one_uniforms_buffer(
        monkeypatch):
    # a buffer per image made a paper-shape cd_update 1.090x as slow
    model = crbm.init_model(3, 3, 6, weight_init_sigma=0.5, seed=31)
    images = derive_rng(31, "grey").random((5, 6, 6)).astype(np.float32)
    per_image = model.num_hidden + model.num_visible
    monkeypatch.setattr(crbm, "_CD_CHUNK_DRAWS", per_image)
    buffers = []
    chain = crbm._two_thread_chain

    def spy(model, v0, rng, g_w, g_c, uniforms):
        buffers.append(uniforms)
        return chain(model, v0, rng, g_w, g_c, uniforms)

    monkeypatch.setattr(crbm, "_two_thread_chain", spy)
    crbm._cd_sums(model, images, 1, derive_rng(31, "u"))
    assert len(buffers) == len(images)
    assert all(buffer is buffers[0] for buffer in buffers)
    assert buffers[0].shape == (per_image,) and buffers[0].dtype == np.float32
    # CD-2 chunks of the same images, each drawing twice as many uniforms,
    # run on this thread with the one-thread replay's bits
    log = on_worker(monkeypatch)
    sums = crbm._cd_sums(model, images, 2, derive_rng(31, "u"))
    assert len(buffers) == len(images) and log.threads == []
    assert_same_sums(sums, replay_sums(model, images, 2, derive_rng(31, "u"), 1))


def test_a_strided_batch_trains_to_the_bits_of_its_contiguous_copy(
        monkeypatch):
    # the two-thread chain takes its chunk's windows as a view, which needs
    # a C-contiguous chunk: a strided float32 batch is copied a chunk at a
    # time, as it is checked
    model = crbm.init_model(3, 3, 6, weight_init_sigma=0.5, seed=34)
    cfg = crbm.CrbmConfig(learning_rate=0.1, batch_size=4)
    batch = derive_rng(34, "grey").random((4, 6, 9)).astype(np.float32)[:, :, 1:7]
    assert not batch.flags.c_contiguous
    monkeypatch.setattr(crbm, "_CD_CHUNK_DRAWS",
                        model.num_hidden + model.num_visible)
    log = on_worker(monkeypatch)
    (got, got_diag), (want, want_diag) = (
        crbm.cd_update(model, images, cfg, derive_rng(34, "u"))
        for images in (batch, batch.copy()))
    assert len(log.threads) == 2 * 4 * SUBMISSIONS
    for name in ("filters", "visible_bias", "hidden_biases"):
        assert (np.asarray(getattr(got, name)).tobytes()
                == np.asarray(getattr(want, name)).tobytes())
    assert got_diag == want_diag


def test_an_overlapped_cd_chunk_adds_one_im2col_copy_to_its_peak(monkeypatch):
    # the 128x128 chunk of the inline test beside it in
    # test_crbm_training.py, run on two threads
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
    assert len(log.threads) == 2 * SUBMISSIONS
    hidden = 4 * model.num_hidden
    uniforms = 4 * per_image
    im2col = 4 * model.kernel_size ** 2 * model.hidden_side ** 2
    # the uniforms are allocated before the first hidden pass, so the
    # pass's im2col copy, or the data phase's, is alive beside them
    assert peak <= hidden + uniforms + im2col + hidden // 16


def test_a_paper_shape_two_thread_chunk_holds_one_stack_of_maps(monkeypatch):
    # one 256x256 image of 64 maps, which draws _CD_CHUNK_DRAWS as it is
    model = crbm.init_model(64, 5, 256, seed=30)
    v0 = derive_rng(30, "mem").random((1, 256, 256)).astype(np.float32)
    log = on_worker(monkeypatch)
    crbm._cd_sums(model, v0, 1, derive_rng(30, "u"))  # lazy set-up first
    tracemalloc.start()
    try:
        crbm._cd_sums(model, v0, 1, derive_rng(30, "u"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(log.threads) == 2 * SUBMISSIONS
    hidden = 4 * model.num_hidden
    uniforms = 4 * (model.num_hidden + model.num_visible)
    side = model.hidden_side
    im2col = 4 * model.kernel_size ** 2 * side ** 2
    frame = 4 * kernels._FRAME_ELEMENTS  # the most a frame holds, float32
    # beside the uniforms and one im2col-sized buffer, a hidden pass holds
    # one stack of maps and a reconstruction one frame: the maps are freed
    # once sampled, and the taps go into the im2col buffer (39.2 of
    # 40.1 MB seen)
    assert peak <= uniforms + im2col + max(hidden, frame) + hidden // 16


def test_a_forked_child_gets_a_worker_of_its_own(monkeypatch):
    # a child inherits the parent's executor but not its thread; the alarm
    # ends a child left waiting on it, so that this test fails, not hangs
    model = crbm.init_model(8, 5, 68, weight_init_sigma=0.3, seed=28)
    image = derive_rng(28, "fork").random((1, 68, 68))
    monkeypatch.setattr(crbm, "_EXTRACT_MAP_VALUES", 4 * 8 * 64)
    with monkeypatch.context() as patch:
        log = on_worker(patch)
        want = crbm.extract_feature_map(model, image)  # the worker runs
    assert len(log.threads) == 1
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            signal.alarm(10)
            got = crbm.extract_feature_map(model, image)
            code = 0 if got.tobytes() == want.tobytes() else 2
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


def one_band_mean(model, images):
    return crbm._hidden_probs(model, np.asarray(images, np.float64)).mean(axis=1)


@pytest.mark.parametrize("batch", [1, 3])
def test_banded_feature_maps_equal_the_one_band_mean(monkeypatch, batch):
    # 8 filters of 5x5 on 68x68: 64 hidden rows in 16 bands of 4
    model = crbm.init_model(8, 5, 68, weight_init_sigma=0.3, seed=23)
    images = derive_rng(23, "band").random((batch, 68, 68))
    want = one_band_mean(model, images)
    rows = 4 * batch * 8 * 64
    monkeypatch.setattr(crbm, "_EXTRACT_MAP_VALUES", rows)
    for executor in ("worker", "inline"):
        with monkeypatch.context() as patch:
            if executor == "inline":
                run_inline(patch)
            log = on_worker(patch)
            got = crbm.extract_feature_map(model, images)
        assert len(log.threads) == 1
        assert (log.threads[0] == threading.get_ident()) == (executor == "inline")
        assert got.shape == (batch, 64, 64)
        assert got.tobytes() == want.tobytes()


def test_a_side_not_a_multiple_of_4_is_extracted_in_one_band(monkeypatch):
    model = crbm.init_model(8, 5, 66, weight_init_sigma=0.3, seed=24)
    image = derive_rng(24, "band").random((1, 66, 66))
    monkeypatch.setattr(crbm, "_EXTRACT_MAP_VALUES", 4 * 8 * 62)
    log = on_worker(monkeypatch)
    got = crbm.extract_feature_map(model, image)
    assert log.threads == []
    assert got.tobytes() == one_band_mean(model, image).tobytes()


@pytest.mark.parametrize("batch", [1, 3, 6])
def test_a_stack_within_the_budget_is_one_band_of_the_band_routine(
        monkeypatch, batch):
    # 8 filters of 5x5 on 68x68: the maps of 6 images hold 196,608
    # values, within the budget, so every stack here is one band on this
    # thread, through the band routine that banded stacks use
    model = crbm.init_model(8, 5, 68, weight_init_sigma=0.3, seed=26)
    images = derive_rng(26, "one").random((batch, 68, 68))
    assert crbm._EXTRACT_MAP_VALUES >= 6 * 8 * 64 * 64
    bands = []
    real = crbm._mean_map_rows

    def spy(model, pixels, rows, out, maps, cols):
        bands.append(list(rows))
        real(model, pixels, rows, out, maps, cols)

    monkeypatch.setattr(crbm, "_mean_map_rows", spy)
    log = on_worker(monkeypatch)
    got = crbm.extract_feature_map(model, images)
    assert log.threads == []
    assert bands == [[(0, 64)]]
    assert got.shape == (batch, 64, 64)
    assert got.tobytes() == one_band_mean(model, images).tobytes()


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
    # each image is a two-thread chunk, then one banded extraction
    assert len(log.threads) == 2 * SUBMISSIONS + 1
    assert main not in log.threads
    # a two-thread chunk calls corr_valid for its first hidden pass and
    # no other public kernel
    names = {name for name, _ in calls}
    assert {"crbm.train", "crbm.cd_update", "crbm.extract_feature_map",
            "kernels.corr_valid"} <= names
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
        return crbm.extract_feature_map(model, images[i:i + 1]), update.filters

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
