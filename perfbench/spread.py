"""Run workloads over several seeds and report each metric's median and spread.

The spread is the distance between the first and third quartile of the
per-run values (``statistics.quantiles(values, n=4)``) as a share of their
median; ``BENCHMARK.json`` bounds it.  With ``--write`` the medians,
quartiles, spreads and every run's values go to ``perfbench/baseline.json``.
Usage (from the repository root)::

    python3 perfbench/spread.py --seeds 1-10 [--workloads fleet_lean_1024,...] [--trace 0] [--write]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    started = time.perf_counter()
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    wall = time.perf_counter() - started
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{completed.stderr[-2000:]}")
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2][len("detail: "):])
    return {"seed": seed, "wall_s": wall, "result": result, "detail": detail}


def summarize(runs: list) -> dict:
    summary = {}
    for name in runs[0]["result"]["metrics"]:
        values = [run["result"]["metrics"][name]["value"] for run in runs]
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        median = statistics.median(values)
        summary[name] = {
            "unit": runs[0]["result"]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else None,
        }
    return summary


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range")
    parser.add_argument("--workloads", default=",".join(item["name"] for item in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write", action="store_true", help="record the runs in baseline.json")
    args = parser.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))

    bounds = {item["name"]: item["bound"] for item in spec["end_to_end"]}
    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            run = run_once(workload, seed, args.seconds, args.trace)
            runs.append(run)
            print(
                f"{workload} seed {seed}: wall {run['wall_s']:.1f} s, correct {run['result']['correct']}, "
                f"failed {run['result']['failed']}",
                flush=True,
            )
        summary = summarize(runs)
        for name, entry in summary.items():
            bound = bounds.get(name)
            verdict = "" if bound is None or entry["spread"] is None else (
                "  within bound" if entry["spread"] <= bound else "  OVER BOUND"
            )
            print(f"  {name:34s} median {entry['median']:12.6g} {entry['unit']:6s} spread {entry['spread']}{verdict}")
        report[workload] = {
            "summary": summary,
            "mean_wall_s": statistics.fmean(run["wall_s"] for run in runs),
            "runs": [
                {
                    "seed": run["seed"],
                    "wall_s": run["wall_s"],
                    "correct": run["result"]["correct"],
                    "failed": run["result"]["failed"],
                    "metrics": {name: entry["value"] for name, entry in run["result"]["metrics"].items()},
                }
                for run in runs
            ],
            "provenance": runs[0]["detail"]["provenance"],
        }
    if args.write:
        path = HERE / "baseline.json"
        existing = json.loads(path.read_text()) if path.exists() else {}
        key = "per_layer" if args.trace else "end_to_end"
        existing.setdefault(key, {}).update(report)
        path.write_text(json.dumps(existing, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
