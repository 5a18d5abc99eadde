"""Span tracing of the program from outside it.

The tracer rebinds each public function at the place its caller looks it
up (a module attribute) to a wrapper that records a span: name, start,
end and the span that was open when it was called.  Nothing inside the
program changes; `installed()` restores every original on exit.  Spans
stay in memory and are aggregated into per-function call counts,
inclusive time, self time (duration minus the direct children's
durations) and counters derived from the call's arguments or result.
"""

import contextlib
import functools
from time import perf_counter

import numpy as np

from crbm_radiomics import (classifiers, cli, crbm, evaluation, features,
                            kernels, pls, radiomics, synth)


def _conv_gflop(m: int, hside: int, k: int) -> dict:
    # 2 * M * H^2 * K^2 multiply-adds, whatever formulation computes them
    return {"gflop": 2.0 * m * hside * hside * k * k / 1e9}


def _corr_valid_counts(args, result) -> dict:
    v, w = args[0], args[1]
    m, k = w.shape[0], w.shape[1]
    return _conv_gflop(m, v.shape[0] - k + 1, k)


def _conv_full_counts(args, result) -> dict:
    hmaps, w = args[0], args[1]
    return _conv_gflop(hmaps.shape[0], hmaps.shape[1], w.shape[1])


def _corr_grad_counts(args, result) -> dict:
    v, p = args[0], args[1]
    return _conv_gflop(p.shape[0], p.shape[1], v.shape[0] - p.shape[1] + 1)


def _texture_counts(args, result) -> dict:
    return {"roi_pixels": int(np.count_nonzero(args[1]))}


def _train_counts(args, result) -> dict:
    data, cfg = args[1], args[2]
    return {"images": len(data) * cfg.epochs}


def _matrix_counts(args, result) -> dict:
    return {"rows": result.n_rows, "columns": result.n_columns}


def _image_counts(args, result) -> dict:
    return {"images": len(result)}


# (span name, module whose attribute the caller looks up, attribute, counter)
TRACE_POINTS = (
    ("data_model.load_sample", features, "load_sample", None),
    ("data_model.load_manifest", cli, "load_manifest", None),
    ("kernels.corr_valid", kernels, "corr_valid", _corr_valid_counts),
    ("kernels.conv_full", kernels, "conv_full", _conv_full_counts),
    ("kernels.corr_grad", kernels, "corr_grad", _corr_grad_counts),
    ("kernels.glcm_counts", kernels, "glcm_counts", _texture_counts),
    ("kernels.glrlm_counts", kernels, "glrlm_counts", _texture_counts),
    ("crbm.train", crbm, "train", _train_counts),
    ("crbm.cd_update", crbm, "cd_update", None),
    ("crbm.extract_feature_map", crbm, "extract_feature_map", None),
    ("radiomics.extract_all", radiomics, "extract_all", None),
    ("radiomics.glcm_compute", radiomics, "glcm_compute", None),
    ("radiomics.glrlm_compute", radiomics, "glrlm_compute", None),
    ("radiomics.wavelet_decompose", radiomics, "wavelet_decompose", None),
    ("features.build_features", features, "build_features", _matrix_counts),
    ("features.crbm_training_images", features, "crbm_training_images",
     _image_counts),
    ("pls.fit_reducer", pls, "fit_reducer", None),
    ("pls.apply_reducer", pls, "apply_reducer", None),
    ("classifiers.lr_fit", classifiers, "lr_fit", None),
    ("classifiers.lr_predict_proba", classifiers, "lr_predict_proba", None),
    ("classifiers.svm_fit", classifiers, "svm_fit", None),
    ("classifiers.svm_decision", classifiers, "svm_decision", None),
    ("classifiers.rf_fit", classifiers, "rf_fit", None),
    ("classifiers.rf_predict_proba", classifiers, "rf_predict_proba", None),
    ("evaluation.cross_validate", evaluation, "cross_validate", None),
    ("evaluation.make_folds", evaluation, "make_folds", None),
    ("synth.generate", synth, "generate", None),
)


class Span:
    __slots__ = ("name", "parent", "start", "end", "counts")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.counts = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans of one traced call tree, kept in memory in start order."""

    def __init__(self):
        self.spans = []
        self._open = []

    def _begin(self, name: str) -> Span:
        s = Span(name, self._open[-1] if self._open else -1)
        self._open.append(len(self.spans))
        self.spans.append(s)
        s.start = perf_counter()
        return s

    def _end(self, s: Span) -> None:
        s.end = perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        s = self._begin(name)
        try:
            yield s
        finally:
            self._end(s)

    def wrap(self, name: str, fn, counter=None):
        # no context manager here: this runs tens of thousands of times
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(s)
            if counter is not None:
                s.counts = counter(args, result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every trace point to its wrapper; restore on exit."""
        originals = []
        try:
            for name, module, attr, counter in TRACE_POINTS:
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, self.wrap(name, fn, counter))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def self_times(self) -> list:
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_time[s.parent] += s.duration
        return [s.duration - c for s, c in zip(self.spans, child_time)]

    def aggregate(self) -> dict:
        """name -> {calls, total_s, self_s, <counter sums>}."""
        out = {}
        for s, self_s in zip(self.spans, self.self_times()):
            row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s.duration
            row["self_s"] += self_s
            for key, value in (s.counts or {}).items():
                row[key] = row.get(key, 0) + value
        return out

    def idle_modules(self, modules) -> list:
        """The listed modules that have no span with positive self time."""
        working = {s.name.split(".")[0]
                   for s, t in zip(self.spans, self.self_times()) if t > 0}
        return [m for m in modules if m not in working]
