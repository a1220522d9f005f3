"""CLI entry point: ``python -m repro.bench <experiment> [...]``."""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, Optional

from repro.bench.harness import available_experiments, run_experiment


def _git(*arguments: str) -> Optional[str]:
    try:
        completed = subprocess.run(
            ["git", *arguments],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return completed.stdout.strip()


def provenance() -> Dict[str, object]:
    """Where a BENCH_*.json came from: the code revision (and whether
    tracked files differed from it), the interpreter, the machine's CPU
    count and the date of the run."""
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "date": datetime.date.today().isoformat(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        help="experiment ids (see 'list'), or 'all'",
    )
    parser.add_argument(
        "--sf",
        type=float,
        default=0.02,
        help="TPC-D scale factor for experiments that use it (default 0.02)",
    )
    parser.add_argument(
        "--runs",
        type=int,
        default=5,
        help="repetitions for timed experiments (default 5)",
    )
    parser.add_argument(
        "--json-dir",
        type=Path,
        default=Path("."),
        help="directory for machine-readable BENCH_<id>.json payloads "
        "(experiments that produce one; default: current directory)",
    )
    arguments = parser.parse_args(argv)

    if arguments.experiments == ["list"]:
        for experiment_id, title in available_experiments():
            print(f"{experiment_id:20s} {title}")
        return 0

    wanted = arguments.experiments
    if wanted == ["all"]:
        wanted = [experiment_id for experiment_id, _ in available_experiments()]

    for experiment_id in wanted:
        report = run_experiment(
            experiment_id,
            scale_factor=arguments.sf,
            runs=arguments.runs,
        )
        print(report.render())
        payload = report.data.get("json")
        if payload is not None:
            arguments.json_dir.mkdir(parents=True, exist_ok=True)
            payload["provenance"] = provenance()
            json_name = report.data.get("json_name", experiment_id)
            target = arguments.json_dir / f"BENCH_{json_name}.json"
            target.write_text(json.dumps(payload, indent=2, sort_keys=True))
            print(f"wrote {target}")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
