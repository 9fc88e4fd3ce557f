"""Run every workload over several seeds and report each metric's spread.

    python3 perfbench/sweep.py --seeds 1 2 3 4 5 6 7 8 9 10 --out perfbench/results/x.json

Each workload in ``BENCHMARK.json`` runs once per seed, at its
``run_seconds``, each run in its own process, one after the other. For every
metric the report gives the value at each seed side by side,
the median, and the spread: the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the median.
An end-to-end metric is steady when its spread is below a third of the bound
``BENCHMARK.json`` fixes for it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 180


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The run's result line, with its ``# env`` line added under ``env``."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["env"] = next((json.loads(line[len("# env "):]) for line in lines
                          if line.startswith("# env ")), {})
    return result


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    if len(args.seeds) < 2:
        ap.error("need at least two seeds")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report, steady, env = {}, True, {}
    for workload in names:
        runs = {seed: run_one(workload, seed, spec["run_seconds"], args.trace)
                for seed in args.seeds}
        env = runs[args.seeds[0]]["env"]
        rows = {}
        for metric in next(iter(runs.values()))["metrics"]:
            values = [runs[s]["metrics"][metric]["value"] for s in args.seeds]
            row = {"unit": runs[args.seeds[0]]["metrics"][metric]["unit"],
                   "by_seed": dict(zip(map(str, args.seeds), values)),
                   "median": statistics.median(values), "spread": spread(values)}
            if metric in bounds and not args.trace:
                row["bound"] = bounds[metric]
                row["steady"] = row["spread"] < bounds[metric] / 3
                steady &= row["steady"]
            rows[metric] = row
        report[workload] = {
            "correct": all(r["correct"] for r in runs.values()),
            "failed": sum(r["failed"] for r in runs.values()),
            "attempted": sum(r["attempted"] for r in runs.values()),
            "metrics": rows}
        print(f"== {workload}: correct={report[workload]['correct']} "
              f"failed={report[workload]['failed']}/{report[workload]['attempted']}")
        header = "  ".join(f"seed {s:>5}" for s in args.seeds[:2])
        print(f"   {'metric':<36} {header}  {'median':>11} {'spread':>7}")
        for metric, row in rows.items():
            cols = "  ".join(f"{row['by_seed'][str(s)]:10.4g}" for s in args.seeds[:2])
            mark = "" if row.get("steady", True) else "  UNSTEADY"
            print(f"   {metric:<36} {cols}  {row['median']:11.5g} "
                  f"{100 * row['spread']:6.2f}%{mark}", flush=True)

    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"seconds": spec["run_seconds"],
                                        "trace": args.trace, "seeds": args.seeds,
                                        "env": env, "workloads": report},
                                       indent=1, sort_keys=True) + "\n")
    ok = steady and all(r["correct"] and r["failed"] == 0 for r in report.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
