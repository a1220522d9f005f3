"""Plans must not depend on the interpreter's string-hash seed.

Alias sets are frozensets, whose iteration order follows
``PYTHONHASHSEED``; if the join enumerator walked one when generating
candidates, an equal-cost tie would go to whichever side the seed
listed first and a cached plan fingerprint would change from process
to process. Each seed runs in its own interpreter, since the seed is
fixed at start-up.
"""

import os
import subprocess
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parents[2] / "src"

_PLAN_SCRIPT = """
from repro.api import plan_query
from repro.tpcd import build_tpcd_database, tpcd_query

db = build_tpcd_database(scale_factor=0.002, buffer_pool_pages=2048)
for name in ("q3", "q10"):
    print(name, plan_query(db, tpcd_query(name)).fingerprint())
"""


def test_q3_and_q10_plans_ignore_the_hash_seed():
    processes = []
    for seed in range(4):
        env = dict(os.environ, PYTHONHASHSEED=str(seed))
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (str(_SRC), os.environ.get("PYTHONPATH")))
        )
        processes.append(
            subprocess.Popen(
                [sys.executable, "-c", _PLAN_SCRIPT],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
        )
    fingerprints = {}
    for seed, process in enumerate(processes):
        out, err = process.communicate(timeout=300)
        assert process.returncode == 0, err
        for line in out.splitlines():
            name, fingerprint = line.split()
            fingerprints.setdefault(name, {})[seed] = fingerprint
    assert sorted(fingerprints) == ["q10", "q3"]
    for name, by_seed in fingerprints.items():
        assert len(set(by_seed.values())) == 1, (name, by_seed)
