#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload translate-online --seeds 11-20

For every metric it prints the median of the runs and the distance between
the first and third quartile (`statistics.quantiles(values, n=4)`) as a share
of that median, next to the metric's bound from BENCHMARK.json. Runs go one
after another, each in its own process, with `run_seconds` from
BENCHMARK.json. Raw results are appended as JSON lines to
perfbench/out/spread-<workload>.jsonl.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    (HERE / "out").mkdir(exist_ok=True)
    log = HERE / "out" / f"spread-{args.workload}.jsonl"
    values: dict = {}
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {"correct": False}
        with open(log, "a", encoding="utf-8") as f:
            f.write(json.dumps({"seed": seed, "exit": proc.returncode, **result}) + "\n")
        if proc.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    if len(values.get("setup_s", ())) < 2:
        return 0
    for name, vals in values.items():
        bound = bounds[name]
        print(f"{name:40s} median {statistics.median(vals):12.6g}  spread {spread(vals):7.4f}"
              f"  bound {bound:.2f}  {'ok' if spread(vals) <= bound / 3 else 'WIDE'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
