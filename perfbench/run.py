"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload dashboard --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
work once untraced and once traced and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A result file
with provenance (and, when traced, a span file) is written under
``perfbench/results/``. See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"


def _git_sha() -> str:
    """HEAD's commit read from ``.git`` directly; "unknown" outside a
    git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        # Never fall back to an engine installed elsewhere: the
        # benchmark measures the code of the checkout it sits in.
        sys.stderr.write(f"no engine sources under {ROOT / 'src'}\n")
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import harness, workloads

    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(harness.WORKLOADS)}")
    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))

    for name, (value, unit) in result.metrics.items():
        print(f"{args.workload:<12} {name:<44} {value:>14.4f} {unit}")
    record = {
        "provenance": {
            "git_sha": _git_sha(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "date": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "scale_factor": workloads.SCALE_FACTOR,
        },
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
        "details": result.details,
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    if result.spans is not None:
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(result.spans))
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
