"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet_lean_1024 --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, the tracing
overhead and the self-time sum check.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it starts with
``detail:`` and carries the provenance, checks and output fingerprint.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fleet_full_256", "fleet_lean_1024", "fleet_fabric_1024", "risk_profile")


def git_sha(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest(root: Path) -> str:
    """Digest of every Python file under ``src/`` (identifies the code without git)."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(ROOT),
        "source_digest": source_digest(ROOT),
        "affinity_cores": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    if name == "risk_profile":
        from perfbench.pipeline import run_risk_profile

        return run_risk_profile(seed, seconds, trace)
    from perfbench.fleet import run_fleet

    return run_fleet(name, seed, seconds, trace)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's source is missing under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One BLAS thread in this process and in every worker it forks: two shard
    # workers on two cores must not each start a BLAS pool sized for the host.
    # Set before the first numpy import.
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.common import END_TO_END, PER_LAYER

    try:
        outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    attempted = max(outcome.attempted, 1)
    error_rate = 1.0 if not outcome.correct else outcome.failed / attempted
    outcome.layers["error_rate"] = error_rate
    if args.trace:
        metrics = {
            name: {"value": outcome.layers[name], "unit": unit} for name, (unit, _) in PER_LAYER.items()
        }
    else:
        metrics = {
            name: {"value": outcome.end_to_end[name], "unit": unit}
            for name, (unit, _) in END_TO_END.items()
        }

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for name, entry in metrics.items():
        print(f"  {name:34s} {entry['value']:14.6g} {entry['unit']}")
    if not args.trace:
        for name, value in outcome.info.get("quality", {}).items():
            print(f"  {name:34s} {value:14.6g} ratio")
        print(f"  {'error_rate':34s} {error_rate:14.6g} ratio")
    print(
        f"  tick p50 {outcome.layers['loop.tick_p50_ms']:.6g} ms; tail is p{outcome.layers['loop.tail_percentile']:g}"
        f" over {outcome.layers['loop.tick_samples']:g} ticks"
    )
    for name, passed in outcome.checks.items():
        print(f"  check {name}: {'ok' if passed else 'FAILED'}")
    detail = {"provenance": provenance(args), "checks": outcome.checks, "info": outcome.info}
    print("detail: " + json.dumps(detail, sort_keys=True, default=float))
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
