"""benchmarks/bench_kernels.py stays runnable: every case it times runs
once, and its inline rows run the CRBM worker's calls on the calling
thread."""

import importlib
import threading
from pathlib import Path

from crbm_radiomics import crbm

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_every_bench_case_runs_once(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    bench = importlib.import_module("bench_kernels")
    inline = []
    submit = bench.InlineExecutor.submit

    def logged(self, fn, *args, **kwargs):
        inline.append(threading.get_ident())
        return submit(self, fn, *args, **kwargs)

    monkeypatch.setattr(bench.InlineExecutor, "submit", logged)
    worker = crbm._worker
    for label, fn, args in bench.CASES:
        before = len(inline)
        fn(*args)
        # an inline row that ran nothing inline times the worker instead
        assert (len(inline) > before) == label.endswith(" inline"), label
        assert crbm._worker is worker, label
    assert set(inline) == {threading.get_ident()}
