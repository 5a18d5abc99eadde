#!/usr/bin/env python3
"""Benchmark `radiomics-crbm run` end to end, or layer by layer when traced.

From the root of a checkout:

    python3 perfbench/run.py --workload quickstart-patch-lr --seed 1 \\
        --seconds 30 --trace 0

`--trace 0` prints the end-to-end metrics (run_s, auc, peak_rss_mb,
setup_s) of untraced runs; `--trace 1` prints the per-layer metrics of a
traced run and its overhead against an untraced one.  The last line of
standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Exits 2 without a result when the program's source is not beside this
directory, 1 when set-up fails.
"""

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

# Fixed before numpy loads.  One BLAS thread (at most nproc) keeps runs
# steady on a shared two-core machine and matches the traced layer shares.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv):
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measurement time; at least 3 runs are timed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def result_line(session, metrics: dict, units) -> str:
    return json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units},
    })


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "crbm_radiomics" / "cli.py").is_file():
        print(f"perfbench: program source not found under {SRC}",
              file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import harness
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench" / f"{workload.name}-{args.seed}-{os.getpid()}"
    measure = harness.measure_traced if args.trace else harness.measure
    try:
        out = measure(workload, args.seed, args.seconds, SRC, work)
    except harness.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    session, metrics, samples = out["session"], out["metrics"], out["samples"]
    units = harness.PER_LAYER if args.trace else harness.END_TO_END
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(harness.environment(BLAS_THREADS)))
    for name, times in samples.items():
        print(f"samples {name} n={len(times)} "
              + " ".join(f"{t:.4f}" for t in times))
    print("no high percentile: it needs 10 samples beyond it")
    for name, unit in units:
        print(f"{name:<40} {metrics[name]:>14.6g} {unit}")
    print(f"{'fail_ratio':<40} {session.failed / session.attempted:>14.6g} "
          f"({session.failed} of {session.attempted} runs)")
    print(result_line(session, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
