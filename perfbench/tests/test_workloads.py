"""Statement lists: seeded, reproducible, and shaped as documented."""

from collections import defaultdict

import pytest

from perfbench import harness, workloads
from repro.service.parameterize import parameterize

NAMES = sorted(harness.WORKLOADS)


def _text(name, seed):
    statements = harness.WORKLOADS[name].statements(seed, 10)
    return "\n".join(f"{s.klass}\t{s.sql}" for s in statements).encode()


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_byte_identical_list(name):
    assert _text(name, 3) == _text(name, 3)


@pytest.mark.parametrize("name", NAMES)
def test_different_seeds_give_different_lists(name):
    assert _text(name, 3) != _text(name, 4)


@pytest.mark.parametrize("name", NAMES)
def test_every_run_times_at_least_100_statements(name):
    assert len(harness.WORKLOADS[name].statements(1, 10)) >= 100


def test_adhoc_statements_all_miss_the_cache():
    statements = workloads.adhoc(5, 100)
    fingerprints = {parameterize(s.sql).fingerprint for s in statements}
    assert len(fingerprints) == len(statements)


def test_adhoc_joins_are_the_same_mix_for_every_seed():
    def joins(seed):
        return sorted(
            tuple(sorted(s.sql.split(" from ")[1].split(" where ")[0].split(", ")))
            for s in workloads.adhoc(seed, 100)
        )

    assert joins(1) == joins(2)
    assert sorted(len(tables) for tables in joins(1)) == sorted(workloads.ADHOC_JOIN_SIZES)


@pytest.mark.parametrize(
    "make", [workloads.dashboard, workloads.partitioned], ids=["dashboard", "partitioned"]
)
def test_rotating_literals_collapse_to_one_fingerprint_per_class(make):
    by_class = defaultdict(set)
    for statement in make(9, 120):
        by_class[statement.klass].add(parameterize(statement.sql).fingerprint)
    assert all(len(prints) == 1 for prints in by_class.values())
    assert len({p for prints in by_class.values() for p in prints}) == len(by_class)


def test_partitioned_failing_classes_stay_under_a_tenth():
    # p90 must stay a measured latency, not the charged limit.
    classes = [klass for klass, _ in workloads.PARTITIONED_ROUND]
    literal = sum(1 for k in classes if k in ("date_band", "partition_join"))
    assert 0 < literal / len(classes) < 0.1


def test_priming_does_not_depend_on_the_seed():
    assert workloads.dashboard_priming() == workloads.dashboard_priming()
    assert workloads.adhoc_priming() == workloads.adhoc_priming()
