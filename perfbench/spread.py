#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/spread.py --workloads radiomics-rf --seeds 1-10 \\
        --out .perfbench/spread.json

Runs are untraced (`--trace 0`).  For every workload and end-to-end
metric it prints the median over the seeds, the quartiles
(statistics.quantiles, n=4) and the quartile distance as a share of the
median next to the metric's bound in BENCHMARK.json.  Runs go one at a
time, so they do not compete for cores.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan"),
            "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--out", type=Path, help="write the summary JSON here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {}
    for name in args.workloads:
        results = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, *spec["command"][1:], "--workload", name,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            result["env"] = json.loads(next(
                line[4:] for line in lines if line.startswith("env ")))
            result["samples"] = {
                line.split()[1]: [float(v) for v in line.split()[3:]]
                for line in lines if line.startswith("samples ")}
            results.append(result)
            print(f"{name} seed {seed}: "
                  + " ".join(f"{k}={v['value']:.6g}"
                             for k, v in result["metrics"].items()),
                  flush=True)
        metrics = {k: summarize([r["metrics"][k]["value"] for r in results])
                   for k in results[0]["metrics"]}
        summary[name] = {
            "seeds": args.seeds,
            "env": results[0]["env"],
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "correct": all(r["correct"] for r in results),
            "metrics": metrics,
            "samples": [r["samples"] for r in results],
        }
        for k, s in metrics.items():
            bound = bounds.get(k)
            print(f"  {k:<40} median {s['median']:.6g}  spread "
                  f"{s['spread']:.4f}" + (f"  bound {bound}" if bound else ""))
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
