"""Steadiness report: repeat one workload and summarize the spread.

Usage, from the root of the repository::

    python3 perfbench/steady.py --workload adhoc --runs 10 --first-seed 1

Runs ``perfbench/run.py`` once per seed (``first-seed`` upward), one
after another, and prints for every end-to-end metric the median, the
quartiles (``statistics.quantiles(values, n=4)``), min and max, and the
quartile distance as a share of the median. It also reports which
statement classes chose more than one plan across the runs (plan
fingerprints come from each run's result file). The summary is written
to ``perfbench/results/steady-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"


def spread(values):
    """Median, quartiles, min, max and (q3 - q1) / median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "iqr_frac": (q3 - q1) / median if median else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("need at least two runs for quartiles")

    values, walls, fingerprints = {}, [], {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        command = [
            sys.executable, str(ROOT / "perfbench" / "run.py"),
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(args.seconds), "--trace", "0",
        ]
        started = time.perf_counter()
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        walls.append(time.perf_counter() - started)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        record = json.loads(
            (RESULTS / f"{args.workload}-seed{seed}-trace0.json").read_text()
        )
        for klass, seen in record["details"]["plan_fingerprints"].items():
            fingerprints.setdefault(klass, set()).update(seen)
        print(
            f"seed {seed}: wall {walls[-1]:.1f}s correct={result['correct']} "
            f"failed={result['failed']}/{result['attempted']} "
            + " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()),
            flush=True,
        )

    summary = {name: spread(series) for name, series in values.items()}
    print(f"\n{args.workload}: {args.runs} runs, median wall {statistics.median(walls):.1f}s")
    print(f"{'metric':<18}{'median':>12}{'q1':>12}{'q3':>12}{'min':>12}{'max':>12}{'iqr/med':>9}")
    for name, row in summary.items():
        print(
            f"{name:<18}{row['median']:>12.4f}{row['q1']:>12.4f}{row['q3']:>12.4f}"
            f"{row['min']:>12.4f}{row['max']:>12.4f}{row['iqr_frac']:>9.3f}"
        )
    # Classes repeat across seeds only when a class is a shape with
    # rotating literals; adhoc classes are per-seed and are skipped.
    unstable = {
        klass: len(seen)
        for klass, seen in sorted(fingerprints.items())
        if len(seen) > 1 and not klass.startswith("adhoc_")
    }
    print(f"classes with more than one plan across runs: {unstable or 'none'}")
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"steady-{args.workload}.json").write_text(
        json.dumps(
            {
                "workload": args.workload,
                "seeds": list(range(args.first_seed, args.first_seed + args.runs)),
                "seconds": args.seconds,
                "wall_s": walls,
                "values": values,
                "spread": summary,
                "classes_with_several_plans": unstable,
            },
            indent=1,
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
