"""Record the ``risk_profile`` reference results that ``run.py`` checks against.

For each seed, runs one pipeline pass and stores the less-vulnerable cluster
and the recall table in ``perfbench/reference.json``.  Re-run it only when a
change to the program is meant to change these results, and say so in the
change.  Usage (from the repository root)::

    python3 perfbench/make_reference.py --seeds 0-99
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def render(reference: dict) -> str:
    """One seed per line, seeds in numeric order."""
    lines = [
        f"{json.dumps(seed)}: {json.dumps(reference[seed])}"
        for seed in sorted(reference, key=int)
    ]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-99")
    args = parser.parse_args(argv)
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.pipeline import REFERENCE_PATH, build_inputs, load_reference, pipeline_pass

    reference = load_reference()
    for seed in parse_seeds(args.seeds):
        (cohort, zoo), _ = build_inputs(seed)
        result = pipeline_pass(cohort, zoo)
        if result["errors"]:
            print(f"seed {seed}: {result['errors']}", file=sys.stderr)
            return 1
        reference[str(seed)] = result["summary"]
        print(f"seed {seed}: less vulnerable {result['summary']['less_vulnerable']}", flush=True)
        REFERENCE_PATH.write_text(render(reference))
    return 0


if __name__ == "__main__":
    sys.exit(main())
