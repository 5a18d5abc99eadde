"""Closed-loop measurement of `radiomics-crbm run` on one workload.

One client in one process calls the CLI entry point, one `run` after
another, on a corpus generated from the workload seed.  Every run's
outputs are checked; a run that raises, exits non-zero or fails a check
counts as failed.  Import this module only after BLAS threads are pinned
(run.py does that).
"""

import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from crbm_radiomics import cli, kernels
from crbm_radiomics.config import load_pipeline_config
from crbm_radiomics.data_model import MANIFEST_HEADER, load_manifest, load_mask

from tracing import Tracer

SETUP_REPEATS = 5
MIN_TIMED_RUNS = 3
WARMUP_SLICES_PER_CLASS = 2
RADIOMICS_COLUMNS = 374  # size of the paper's radiomics catalog

# Per-layer metrics of a traced run: (name, unit).  `<module>.<function>`
# names a span; the last part names its statistic.
PER_LAYER = (
    ("data_model.load_sample.calls", "count"),
    ("data_model.load_sample.self_s", "s"),
    ("data_model.load_manifest.self_s", "s"),
    *((f"kernels.{k}.{stat}", unit)
      for k in ("corr_valid", "conv_full", "corr_grad")
      for stat, unit in (("calls", "count"), ("self_s", "s"),
                         ("gflop", "gflop"), ("gflop_per_s", "gflop/s"))),
    *((f"kernels.{k}.{stat}", unit)
      for k in ("glcm_counts", "glrlm_counts")
      for stat, unit in (("calls", "count"), ("self_s", "s"),
                         ("roi_pixels", "pixels"))),
    ("crbm.train.total_s", "s"),
    ("crbm.train.images_per_s", "images/s"),
    ("crbm.train.self_s", "s"),
    ("crbm.cd_update.calls", "count"),
    ("crbm.cd_update.self_s", "s"),
    ("crbm.extract_feature_map.self_s", "s"),
    ("radiomics.extract_all.self_s", "s"),
    ("radiomics.glcm_compute.self_s", "s"),
    ("radiomics.glrlm_compute.self_s", "s"),
    ("radiomics.wavelet_decompose.self_s", "s"),
    ("features.build_features.total_s", "s"),
    ("features.build_features.rows", "rows"),
    ("features.build_features.columns", "columns"),
    ("features.build_features.self_s", "s"),
    ("features.crbm_training_images.images", "images"),
    ("features.crbm_training_images.self_s", "s"),
    ("pls.fit_reducer.self_s", "s"),
    ("pls.apply_reducer.self_s", "s"),
    *((f"classifiers.{f}.self_s", "s")
      for f in ("lr_fit", "lr_predict_proba", "svm_fit", "svm_decision",
                "rf_fit", "rf_predict_proba")),
    ("evaluation.cross_validate.self_s", "s"),
    ("evaluation.make_folds.self_s", "s"),
    ("synth.generate.total_s", "s"),
    ("untraced_s", "s"),
    ("trace.run_s", "s"),
    ("trace.overhead_s", "s"),
)

END_TO_END = (("run_s", "s"), ("auc", "1"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"))

# Set-up as a user pays it, in a fresh interpreter: import, synthesize the
# corpus, load the config and the manifest.
_SETUP_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
from crbm_radiomics import cli
from crbm_radiomics.config import load_pipeline_config
from crbm_radiomics.data_model import load_manifest
if cli.main(["synth", "--config", sys.argv[2], "--out", sys.argv[3]]) != 0:
    sys.exit(1)
load_pipeline_config(sys.argv[4])
load_manifest(sys.argv[3] + "/manifest.csv")
"""


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def environment(blas_threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads,
            "kernel_backend": kernels.active_backend()}


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _bbox_side(bits: np.ndarray) -> tuple:
    rows, cols = np.nonzero(bits)
    return int(rows.max() - rows.min() + 1), int(cols.max() - cols.min() + 1)


def expected_shape(manifest: Path, config_path: Path) -> tuple:
    """Feature rows and columns `run` must report for this corpus/config."""
    config = load_pipeline_config(config_path)
    records = load_manifest(manifest).records
    if config.feature_source == "radiomics":
        return len(records), RADIOMICS_COLUMNS
    side = config.crbm.input_size - config.crbm.kernel_size + 1
    if config.feature_source == "crbm-image":
        return len(records), side * side
    patch = config.crbm.input_size
    stride = config.patch_stride or patch
    per_mask = {}
    rows = 0
    for r in records:
        if r.mask_path not in per_mask:
            h, w = _bbox_side(load_mask(r.mask_path).bits)
            per_mask[r.mask_path] = (1 if h < patch or w < patch else
                                     ((h - patch) // stride + 1)
                                     * ((w - patch) // stride + 1))
        rows += per_mask[r.mask_path]
    return rows, side * side


def _roc_area(roc_csv: Path) -> float:
    lines = roc_csv.read_text().splitlines()
    if lines[0] != "fpr,tpr":
        raise ValueError("bad ROC header")
    pts = [tuple(map(float, line.split(","))) for line in lines[1:]]
    return sum((x1 - x0) * (y0 + y1) / 2.0
               for (x0, y0), (x1, y1) in zip(pts, pts[1:]))


def check_outputs(report: Path, shape: tuple, reference: bytes | None) -> tuple:
    """(auc, problems) for one run's report and ROC CSV."""
    roc = report.with_suffix(".roc.csv")
    missing = [p.name for p in (report, roc) if not p.is_file()]
    if missing:
        return math.nan, [f"missing output {', '.join(missing)}"]
    problems = []
    raw = report.read_bytes()
    try:
        doc = json.loads(raw)["report"]
        auc = doc["auc"]
        got = (doc["provenance"]["n_feature_rows"],
               doc["provenance"]["n_feature_columns"])
        area = _roc_area(roc)
    except (ValueError, KeyError, TypeError) as exc:
        return math.nan, [f"unreadable output: {exc!r}"]
    if not (isinstance(auc, float) and 0.0 <= auc <= 1.0):
        problems.append(f"auc {auc!r} not a finite number in [0, 1]")
    elif abs(area - auc) > 1e-9:
        problems.append("auc differs from the area under the ROC CSV")
    if got != shape:
        problems.append(f"feature matrix {got}, expected {shape}")
    if reference is not None and raw + roc.read_bytes() != reference:
        problems.append("outputs differ from the first run's bytes")
    return auc, problems


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

class Session:
    """One workload on one corpus: set-up, warm-up and checked runs."""

    def __init__(self, workload, seed: int, src: Path, work: Path):
        self.workload = workload
        self.seed = seed
        self.src = src
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.auc = math.nan
        self._reference = None

    def _write_json(self, name: str, doc: dict) -> Path:
        path = self.work / name
        path.write_text(json.dumps(doc, indent=1) + "\n")
        return path

    def setup(self) -> list:
        """Set up SETUP_REPEATS times in fresh interpreters; returns the
        wall times.  The last corpus is the one the runs use."""
        self.work.mkdir(parents=True, exist_ok=True)
        synth_json = self._write_json(
            "synth.json", self.workload.synth_spec(self.seed))
        self.config = self._write_json(
            "config.json", self.workload.pipeline_config())
        times = []
        for i in range(SETUP_REPEATS):
            corpus = self.work / f"corpus{i}"
            t0 = perf_counter()
            proc = subprocess.run(
                [sys.executable, "-c", _SETUP_SCRIPT, str(self.src),
                 str(synth_json), str(corpus), str(self.config)],
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True, timeout=120)
            times.append(perf_counter() - t0)
            if proc.returncode != 0:
                raise BenchError(f"set-up failed:\n{proc.stderr}")
        self.manifest = corpus / "manifest.csv"
        self.shape = expected_shape(self.manifest, self.config)
        return times

    def warm_up(self) -> None:
        """One checked run on a few slices per class, so lazy imports and
        heap growth happen before timing.  Two slice-level folds and one
        PLS component keep it valid on so few slices."""
        lines = self.manifest.read_text().splitlines()
        head, rows = lines[0], lines[1:]
        if head != ",".join(MANIFEST_HEADER):
            raise BenchError(f"unexpected manifest header {head!r}")
        keep = [r for label in ("1", "0")
                for r in [r for r in rows if r.split(",")[4] == label]
                [:WARMUP_SLICES_PER_CLASS]]
        manifest = self.manifest.with_name("warmup.csv")
        manifest.write_text("\n".join([head, *keep]) + "\n")
        config = self._write_json("warmup.json", {
            **self.workload.pipeline_config(),
            "pls_components": 1, "cv": {"k": 2, "mode": "slice-level"}})
        self._attempt(manifest, config, "warmup.json",
                      expected_shape(manifest, config), compare=False)

    def _attempt(self, manifest: Path, config: Path, out_name: str,
                 shape: tuple, compare: bool = True,
                 tracer: Tracer | None = None) -> tuple:
        """One checked `run`; returns (wall seconds, passed).  With a
        tracer, the call runs with every trace point bound, under a root
        span."""
        self.attempted += 1
        out = self.work / "out" / out_name
        out.parent.mkdir(exist_ok=True)
        argv = ["run", "--config", str(config), "--manifest", str(manifest),
                "--out", str(out)]
        traced = (contextlib.ExitStack() if tracer is None
                  else _traced_call(tracer, "run"))
        t0 = perf_counter()
        try:
            with traced, contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except Exception:  # a crash is a failed run, not a failed benchmark
            elapsed = perf_counter() - t0
            traceback.print_exc()
            self.failed += 1
            return elapsed, False
        elapsed = perf_counter() - t0
        if code != 0:
            print(f"run exited {code}", file=sys.stderr)
            self.failed += 1
            return elapsed, False
        auc, problems = check_outputs(
            out, shape, self._reference if compare else None)
        if problems:
            print(f"{out_name}: " + "; ".join(problems), file=sys.stderr)
            self.failed += 1
            return elapsed, False
        if compare and self._reference is None:
            self._reference = out.read_bytes() \
                + out.with_suffix(".roc.csv").read_bytes()
            self.auc = auc
        return elapsed, True

    def timed_run(self, index: int) -> float:
        return self._attempt(self.manifest, self.config, f"run{index}.json",
                             self.shape)[0]

    def traced_run(self, index: int, synth_stats: dict) -> dict | None:
        """Per-layer metrics of one run with every trace point bound, or
        None when the run or its consistency check failed."""
        tracer = Tracer()
        _, passed = self._attempt(self.manifest, self.config,
                                  f"traced{index}.json", self.shape,
                                  tracer=tracer)
        if not passed:
            return None
        metrics = layer_metrics({**tracer.aggregate(), **synth_stats})
        problems = [f"no span did work in module {m}" for m in
                    tracer.idle_modules(self.workload.traced_modules)]
        problems += consistency_problems(metrics)
        if problems:
            print("traced run: " + "; ".join(problems), file=sys.stderr)
            self.failed += 1
            return None
        return metrics

    def traced_synth(self) -> Tracer:
        """`radiomics-crbm synth` once under the tracer, for synth.*."""
        tracer = Tracer()
        argv = ["synth", "--config", str(self.work / "synth.json"),
                "--out", str(self.work / "corpus-traced")]
        with _traced_call(tracer, "synth"), \
                contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0 or tracer.idle_modules(("synth",)):
            raise BenchError(f"traced synth failed: exit {code}")
        return tracer


@contextlib.contextmanager
def _traced_call(tracer: Tracer, root: str):
    with tracer.installed(), tracer.span(root):
        yield


def _keep_going(times: list, started: float, seconds: float,
                minimum: int) -> bool:
    """Start another run only while it is expected to end in time."""
    if len(times) < minimum:
        return True
    return perf_counter() - started + statistics.median(times) <= seconds


def measure(workload, seed: int, seconds: float, src: Path, work: Path) -> dict:
    """End-to-end metrics of untraced runs (the `--trace 0` result)."""
    session = Session(workload, seed, src, work)
    setup_times = session.setup()
    session.warm_up()
    times = []
    started = perf_counter()
    while _keep_going(times, started, seconds, MIN_TIMED_RUNS):
        times.append(session.timed_run(len(times)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "session": session,
        "samples": {"run_s": times, "setup_s": setup_times},
        "metrics": {
            "run_s": statistics.median(times),
            "auc": session.auc,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup_times),
        },
    }


def measure_traced(workload, seed: int, seconds: float, src: Path,
                   work: Path) -> dict:
    """Per-layer metrics: alternating untraced and traced runs; each
    metric is the lower median over the traced runs that passed, so a
    count stays an observed whole number."""
    session = Session(workload, seed, src, work)
    session.setup()
    synth_stats = session.traced_synth().aggregate()
    session.warm_up()
    pair_times, per_run = [], []
    started = perf_counter()
    while _keep_going(pair_times, started, seconds, 1):
        t0 = perf_counter()
        plain = session.timed_run(len(pair_times))
        metrics = session.traced_run(len(pair_times), synth_stats)
        pair_times.append(perf_counter() - t0)
        if metrics is not None:
            metrics["trace.overhead_s"] = metrics["trace.run_s"] - plain
            per_run.append(metrics)
    if not per_run:
        raise BenchError("no traced run passed")
    return {"session": session,
            "samples": {name: [m[name] for m in per_run]
                        for name in ("trace.run_s", "trace.overhead_s")},
            "metrics": {name: statistics.median_low(m[name] for m in per_run)
                        for name, _ in PER_LAYER}}


def layer_metrics(stats: dict) -> dict:
    """PER_LAYER values from aggregated spans; absent spans read 0.
    `trace.overhead_s` is left to the caller, which knows the untraced
    run beside this one."""
    root = stats["run"]
    out = {}
    for name, _ in PER_LAYER:
        span, _, stat = name.rpartition(".")
        row = stats.get(span, {})
        if stat == "gflop_per_s":
            out[name] = row["gflop"] / row["self_s"] if row else 0.0
        elif stat == "images_per_s":
            out[name] = row["images"] / row["total_s"] if row else 0.0
        else:
            out[name] = row.get(stat, 0)
    out["untraced_s"] = root["self_s"]
    out["trace.run_s"] = root["total_s"]
    return out


def consistency_problems(metrics: dict, tol: float = 1e-6) -> list:
    """The reported self times plus `untraced_s` must make up the traced
    `run_s`; a trace point whose self time is not reported breaks this."""
    covered = metrics["untraced_s"] + sum(
        v for name, v in metrics.items() if name.endswith(".self_s"))
    if abs(covered - metrics["trace.run_s"]) > tol:
        return [f"reported self times sum to {covered:.6f} s, not the "
                f"traced run_s {metrics['trace.run_s']:.6f} s"]
    return []
