"""Run the benchmark on several seeds and report how steady each metric is.

Usage (from the repository root):

    python3 perfbench/steadiness.py --workloads exact-lossy,mc-ideal \
        --seeds 1-10 --output perfbench/steadiness.json

For every workload and end-to-end metric it reports the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the spread,
(q3 - q1) / median, next to the metric's bound from BENCHMARK.json.  Runs
are sequential; each takes the ``run_seconds`` of BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--output", default=None)
    args = parser.parse_args()

    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    summary = {"run_seconds": bench["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in metrics}
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, **result})
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(workload, seed, result["correct"],
                  {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        table = {}
        for m in metrics:
            vals = values[m["name"]]
            q1, median, q3 = statistics.quantiles(vals, n=4)
            table[m["name"]] = {
                "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median if median else None,
                "bound": m.get("bound"),
            }
        summary["workloads"][workload] = {"metrics": table, "runs": runs}
        for name, row in table.items():
            spread = "n/a" if row["spread"] is None else f"{row['spread']:.3f}"
            print(f"  {workload:12s} {name:44s} median {row['median']:.5g} "
                  f"q1 {row['q1']:.5g} q3 {row['q3']:.5g} spread {spread} "
                  f"bound {row['bound']}", flush=True)
    if args.output:
        Path(args.output).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
