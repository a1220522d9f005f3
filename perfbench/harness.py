"""Run one workload: set up, drive the service, check rows, report.

The load is a closed loop: one client thread submits a statement to
``QueryService(workers=1)`` (or, for ``feedback``, to the service inside
``FleetRunner(workers=1)``), waits for its rows, then submits the next.
The engine and optimizer config stay at the service defaults.

Timing rules (NOTES.md has the full definitions):

* a statement's latency runs from ``submit`` until its result holds
  every row;
* a failed statement (exception, timeout, or rows that differ from the
  reference) is charged ``max(limit, measured)``, where ``limit`` is
  the workload's latency limit, in the percentiles and in throughput;
* ``throughput_qps`` is correct statements per second of charged
  statement time over the whole seed-generated statement list;
* every timing is rescaled to a reference machine speed
  (``perfbench/speed.py``): the speed probe runs after every statement,
  outside its timing, and each window of ``PROBE_WINDOW`` statements is
  scaled by the median probe of that window; set-up is scaled step by
  step. Raw timings stay in the result file.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.api import run_query
from repro.core import instrument
from repro.optimizer import OptimizerConfig
from repro.optimizer.plan import OpKind
from repro.service import QueryService
from repro.storage.buffer import IoStats
from repro.workload import FleetRunner, FleetStatement, build_skewed_fleet

from perfbench import databases, workloads
from perfbench.speed import Clock, probe_ms, speed_factor
from perfbench.trace import Tracer, self_times

SETUP_REPEATS = 3
REFERENCE_CONFIG = OptimizerConfig(
    order_optimization=False, enable_partitioning=False
)

# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_qps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("completed_frac", "frac"),
    ("peak_rss_mb", "MB"),
)

_COUNTED_LAYERS = (
    ("service.overhead_ms_p50", "ms"),
    ("service.parameterize_ms_p50", "ms"),
    ("service.plan_lookup_ms_p50", "ms"),
    ("service.cache_hit_rate", "frac"),
    ("service.cache_invalidations", "count"),
    ("parser.parse_ms", "ms"),
    ("qgm.rewrite_ms", "ms"),
    ("optimizer.order_scan_ms", "ms"),
    ("optimizer.enumerate_ms", "ms"),
    ("optimizer.finalize_ms", "ms"),
    ("optimizer.plan_ms_p50", "ms"),
    ("optimizer.plan_ms_p90", "ms"),
    ("optimizer.plans_distinct", "count"),
    ("core.reduce.calls", "count"),
    ("core.reduce.memo_hit_rate", "frac"),
    ("core.test.calls", "count"),
    ("core.cover.calls", "count"),
    ("core.homogenize.calls", "count"),
    ("core.closure.iterations", "count"),
    ("properties.propagate_join.calls", "count"),
    ("properties.propagate_join.memo_hit_rate", "frac"),
    ("properties.context_calls", "count"),
    ("catalog.joint_ndv.calls", "count"),
    ("catalog.joint_ndv_ms", "ms"),
    ("executor.build_ms_p50", "ms"),
    ("executor.run_ms_p50", "ms"),
    ("executor.result_ms_p50", "ms"),
)

PER_LAYER = (
    _COUNTED_LAYERS
    + tuple((f"executor.self_ms.{kind.name.lower()}", "ms") for kind in OpKind)
    + (
        ("executor.sorts", "count"),
        ("executor.rows_sorted", "count"),
        ("executor.partial_sorts", "count"),
        ("executor.index_probes", "count"),
        ("executor.spill_pages", "count"),
        ("executor.exchange_self_ms", "ms"),
        ("executor.exchange_threads", "count"),
        ("expr.compile.calls", "count"),
        ("expr.compile.memo_hit_rate", "frac"),
        ("expr.vector.filter_calls", "count"),
        ("expr.vector.fallback_terms", "count"),
        ("storage.buffer_hit_rate", "frac"),
        ("storage.sequential_misses", "count"),
        ("storage.random_misses", "count"),
        ("storage.sim_io_ms_per_stmt", "ms"),
        ("storage.partitions_touched_frac", "frac"),
        ("workload.observe_ms_p50", "ms"),
        ("workload.derive_ms", "ms"),
        ("workload.apply_feedback_ms", "ms"),
        ("workload.gate_ms", "ms"),
        ("workload.replans", "count"),
        ("workload.qerror_geomean_before", "ratio"),
        ("workload.qerror_geomean_after", "ratio"),
        ("workload.regressions_retained", "count"),
        ("setup.dbgen_s", "s"),
        ("setup.load_s", "s"),
        ("setup.index_s", "s"),
        ("setup.fleetgen_s", "s"),
        ("runtime.gc_gen2_collections", "count"),
        ("runtime.gc_pause_ms", "ms"),
        ("trace.overhead_frac", "frac"),
    )
)


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile (0 for no values).

    Interpolates between order statistics, so raising any one value
    never lowers any percentile.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


@dataclass
class Outcome:
    """One attempted statement."""

    index: int
    klass: str
    sql: str
    latency_ms: float
    error: Optional[str] = None
    rows: Optional[list] = field(default=None, repr=False)
    fingerprint: Optional[str] = None
    engine: Optional[str] = None
    # Set when the statement returned rows that are wrong (not merely
    # an error): it makes the run's ``correct`` false.
    wrong_rows: bool = False
    # The speed probe run right after the statement (0: not probed).
    probe_ms: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


def charged_ms(outcome: Outcome, limit_ms: float) -> float:
    return outcome.latency_ms if outcome.ok else max(limit_ms, outcome.latency_ms)


def summarize(outcomes: Sequence[Outcome], limit_ms: float) -> Dict[str, float]:
    """Throughput, percentiles and completion over charged latencies."""
    charged = [charged_ms(outcome, limit_ms) for outcome in outcomes]
    correct = sum(1 for outcome in outcomes if outcome.ok)
    return {
        "throughput_qps": correct / (sum(charged) / 1000.0) if charged else 0.0,
        "latency_p50_ms": percentile(charged, 0.50),
        "latency_p90_ms": percentile(charged, 0.90),
        "completed_frac": correct / len(outcomes) if outcomes else 0.0,
    }


# Statements per normalization window.
PROBE_WINDOW = 16


def normalize(outcomes: Sequence[Outcome]) -> List[Outcome]:
    """Outcomes with latencies rescaled to the reference speed, each
    window of ``PROBE_WINDOW`` consecutive statements by the median of
    its own probes. Failure charging applies to the rescaled latency."""
    scaled: List[Outcome] = []
    for start in range(0, len(outcomes), PROBE_WINDOW):
        window = outcomes[start : start + PROBE_WINDOW]
        factor = speed_factor([outcome.probe_ms for outcome in window])
        scaled.extend(
            replace(outcome, latency_ms=outcome.latency_ms * factor)
            for outcome in window
        )
    return scaled


def rows_match(sql: str, rows: list, reference: list) -> bool:
    """Exact sequence match under ORDER BY, multiset match otherwise."""
    if " order by " in sql.lower():
        return rows == reference
    return Counter(rows) == Counter(reference)


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------


class _Fingerprints:
    """``Plan.fingerprint()`` memoized per plan object (cache hits hand
    back the same object, so each plan is rendered once)."""

    def __init__(self) -> None:
        self._seen: Dict[int, Tuple[Any, str]] = {}

    def __call__(self, plan) -> str:
        entry = self._seen.get(id(plan))
        if entry is None:
            entry = self._seen[id(plan)] = (plan, plan.fingerprint())
        return entry[1]


def _error_text(error: BaseException) -> str:
    return f"{type(error).__name__}: {error}"


def timed_submit(
    service: QueryService,
    statement: workloads.Statement,
    index: int,
    limit_ms: float,
    fingerprint: _Fingerprints,
    keep_rows: bool,
    tracer: Optional[Tracer] = None,
) -> Tuple[Outcome, Any]:
    """Submit one statement with the workload's limit as its deadline
    and wait for its rows; returns the outcome and the result (None on
    failure)."""
    token = tracer.begin_statement(index) if tracer else None
    started = time.perf_counter()
    try:
        result = service.submit(statement.sql, timeout=limit_ms / 1000.0).result()
    except Exception as error:  # every failure is data, not a crash
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        if tracer:
            tracer.end_statement(token)
        outcome = Outcome(
            index, statement.klass, statement.sql, elapsed_ms,
            error=_error_text(error), probe_ms=probe_ms(),
        )
        return outcome, None
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    if tracer:
        tracer.end_statement(token)
    outcome = Outcome(
        index,
        statement.klass,
        statement.sql,
        elapsed_ms,
        rows=result.rows if keep_rows else None,
        fingerprint=fingerprint(result.plan),
        engine=result.exec_mode,
        probe_ms=probe_ms(),
    )
    return outcome, result


def check_rows(database, outcomes: Sequence[Outcome]) -> int:
    """Compare every kept result against the reference; a mismatch (or
    a reference that cannot run) fails the statement. Returns the
    number of statements compared."""
    compared = 0
    for outcome in outcomes:
        if outcome.rows is None or not outcome.ok:
            continue
        compared += 1
        try:
            reference = run_query(
                database, outcome.sql, config=REFERENCE_CONFIG, mode="interpreted"
            ).rows
        except Exception as error:
            outcome.error = f"reference failed: {_error_text(error)}"
        else:
            if not rows_match(outcome.sql, outcome.rows, reference):
                outcome.error = "rows differ from the reference"
                outcome.wrong_rows = True
        outcome.rows = None
    return compared


def _first_per_class(statements: Sequence[workloads.Statement], per_class: int):
    """Indexes of the first ``per_class`` statements of every class."""
    taken: Counter = Counter()
    chosen = set()
    for index, statement in enumerate(statements):
        if taken[statement.klass] < per_class:
            taken[statement.klass] += 1
            chosen.add(index)
    return chosen


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass
class PassResult:
    """One timed pass; ``compared`` counts the statements whose rows
    were checked against the reference (none on a traced pass)."""

    outcomes: List[Outcome]
    compared: int
    feedback: Dict[str, float] = field(default_factory=dict)


class ServiceWorkload:
    """dashboard / adhoc / partitioned: TPC-D through one QueryService."""

    def __init__(
        self,
        partitioned: bool,
        limit_ms: float,
        rate: float,
        make: Callable[[int, int], List[workloads.Statement]],
        priming: Callable[[], List[workloads.Statement]],
        checks_per_class: int,
        round_length: int,
        priming_rounds: int = 1,
    ):
        self.partitioned = partitioned
        self.limit_ms = limit_ms
        self.rate = rate
        self.make = make
        self.priming = priming
        self.checks_per_class = checks_per_class
        self.round_length = round_length
        self.priming_rounds = priming_rounds
        self.pool_pages = (
            databases.PARTITIONED_POOL_PAGES
            if partitioned
            else databases.WAREHOUSE_POOL_PAGES
        )

    def statements(self, seed: int, seconds: int) -> List[workloads.Statement]:
        """At least 100 statements, in whole rounds so every run has
        exactly the same class mix."""
        count = max(100, round(seconds * self.rate))
        rounds = -(-count // self.round_length)
        return self.make(seed, rounds * self.round_length)

    def build(self, clock: Clock):
        return databases.build_tpcd(workloads.SCALE_FACTOR, self.partitioned, clock)

    def warm(self, database, clock: Clock) -> QueryService:
        """A fresh service with every primed class planned and cached."""
        service = QueryService(database, workers=1)
        for _ in range(self.priming_rounds):
            for statement in self.priming():
                try:
                    service.submit(
                        statement.sql, timeout=self.limit_ms / 1000.0
                    ).result()
                except Exception:
                    pass  # failures are measured in the timed pass
                clock.lap()
        return service

    def run_pass(self, state, statements, tracer=None) -> PassResult:
        database, service = state
        chosen = _first_per_class(statements, self.checks_per_class)
        fingerprint = _Fingerprints()
        outcomes = [
            timed_submit(
                service, statement, index, self.limit_ms, fingerprint,
                index in chosen, tracer,
            )[0]
            for index, statement in enumerate(statements)
        ]
        compared = 0 if tracer else check_rows(database, outcomes)
        return PassResult(outcomes, compared)

    def fresh(self, state):
        """State for a second pass: same database, a new warmed service."""
        database, service = state
        service.close()
        return database, self.warm(database, Clock())

    def close(self, state) -> None:
        state[1].close()


class FeedbackWorkload:
    """The skewed fleet through ``FleetRunner``'s feedback loop.

    Each cycle builds a fresh fleet database (a new catalog), replays a
    seed-generated fleet (baseline), derives and applies corrections
    (``stats_version`` bump, cache invalidation), replays re-optimized,
    gates, and replays the regressed statements. Every statement of
    every replay is a timed statement.
    """

    limit_ms = 1000.0
    pool_pages = 1024  # repro.storage.Database's default
    fleet_rounds = 5
    cycles_per_second = 0.8
    database_seed = 7

    def statements(self, seed: int, seconds: int) -> List[workloads.Statement]:
        cycles = max(2, round(seconds * self.cycles_per_second))
        statements = []
        for cycle, fleet_seed in enumerate(workloads.feedback_seeds(seed, cycles)):
            for item in build_skewed_fleet(rounds=self.fleet_rounds, seed=fleet_seed):
                statements.append(workloads.Statement(f"{item.name}@{cycle}", item.sql))
        return statements

    def build(self, clock: Clock):
        return databases.build_fleet_database(self.database_seed, clock)

    def warm(self, database, clock: Clock):
        fleet = build_skewed_fleet(rounds=self.fleet_rounds, seed=0)
        with FleetRunner(database, fleet, workers=1) as runner:
            runner.run_feedback_round()
        clock.lap()
        return None

    def fresh(self, state):
        return state

    def close(self, state) -> None:
        pass

    def run_pass(self, state, statements, tracer=None) -> PassResult:
        cycles: Dict[str, List[workloads.Statement]] = {}
        for statement in statements:
            cycles.setdefault(statement.klass.split("@")[1], []).append(statement)
        outcomes: List[Outcome] = []
        compared = 0
        totals = Counter()
        before_q, after_q = [], []
        for cycle in cycles.values():
            database = databases.build_fleet_database(self.database_seed, Clock())
            report, cycle_outcomes = self._cycle(database, cycle, len(outcomes), tracer)
            outcomes.extend(cycle_outcomes)
            if report is None:
                continue
            if not tracer:
                compared += self._check(database, cycle, report, cycle_outcomes)
            totals["replans"] += sum(
                1 for run in report.reoptimized.runs if run.cache_status == "miss"
            )
            totals["regressions"] += len(report.regressions)
            before_q.append(report.baseline.qerror().geomean)
            after_q.append(report.final.qerror().geomean)
        feedback = {
            "workload.replans": totals["replans"],
            "workload.regressions_retained": totals["regressions"],
            "workload.qerror_geomean_before": _geomean(before_q),
            "workload.qerror_geomean_after": _geomean(after_q),
        }
        return PassResult(outcomes, compared, feedback)

    def _cycle(self, database, cycle, first_index, tracer):
        fleet = [
            FleetStatement(statement.klass.split("@")[0], statement.sql)
            for statement in cycle
        ]
        klass_of = {item.sql: item.name for item in fleet}
        outcomes: List[Outcome] = []
        fingerprint = _Fingerprints()
        with FleetRunner(database, fleet, workers=1) as runner:
            service = runner.service

            def timed_query(sql):
                outcome, result = timed_submit(
                    service,
                    workloads.Statement(klass_of[sql], sql),
                    first_index + len(outcomes),
                    self.limit_ms,
                    fingerprint,
                    False,
                    tracer,
                )
                outcomes.append(outcome)
                if result is None:
                    raise RuntimeError(outcome.error)
                return result

            service.query = timed_query
            try:
                report = runner.run_feedback_round()
            except Exception:
                return None, outcomes  # the failed statement is recorded
        return report, outcomes

    def _check(self, database, cycle, report, outcomes) -> int:
        """Reference-check the first fleet round of the cycle (one
        statement per class); any class whose rows changed across the
        replays fails all its statements."""
        per_round = len({statement.klass for statement in cycle})
        kept = [
            Outcome(i, run.statement.name, run.statement.sql, 0.0, rows=run.rows)
            for i, run in enumerate(report.baseline.runs[:per_round])
        ]
        compared = check_rows(database, kept)
        failed = {o.sql: o for o in kept if not o.ok}
        unstable = set(report.mismatches())
        for outcome in outcomes:
            if outcome.ok and outcome.sql in failed:
                outcome.error = failed[outcome.sql].error
                outcome.wrong_rows = failed[outcome.sql].wrong_rows
            elif outcome.ok and outcome.klass in unstable:
                outcome.error = "rows changed across feedback replays"
                outcome.wrong_rows = True
        return compared


def _geomean(values: Sequence[float]) -> float:
    if not values:
        return 0.0
    return math.exp(sum(math.log(value) for value in values) / len(values))


WORKLOADS = {
    "dashboard": ServiceWorkload(
        partitioned=False, limit_ms=1000.0, rate=27.6,
        make=workloads.dashboard, priming=workloads.dashboard_priming,
        checks_per_class=2, round_length=len(workloads.DASHBOARD_ROUND),
        priming_rounds=2,
    ),
    "adhoc": ServiceWorkload(
        partitioned=False, limit_ms=20000.0, rate=20.0,
        make=workloads.adhoc, priming=workloads.adhoc_priming, checks_per_class=1,
        round_length=len(workloads.ADHOC_JOIN_SIZES),
    ),
    "partitioned": ServiceWorkload(
        partitioned=True, limit_ms=1000.0, rate=18.0,
        make=workloads.partitioned, priming=workloads.partitioned_priming,
        checks_per_class=2, round_length=len(workloads.PARTITIONED_ROUND),
        priming_rounds=2,
    ),
    "feedback": FeedbackWorkload(),
}


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def _setup(workload, repeats: int):
    """Build and warm ``repeats`` times; keep the last state.

    Returns the state, the median set-up seconds at the reference speed
    (``perfbench.speed.Clock``), the raw set-up seconds of every repeat,
    and the median raw seconds of each build phase.
    """
    clocks, state = [], None
    for _ in range(repeats):
        if state is not None:
            workload.close(state)
            state = None
        gc.collect()
        clocks.append(Clock())
        state = _build_and_warm(workload, clocks[-1])
    gc.collect()
    phases = {phase for clock in clocks for phase in clock.phases}
    return (
        state,
        statistics.median(clock.seconds for clock in clocks),
        [clock.raw_seconds for clock in clocks],
        {
            phase: statistics.median(clock.phases.get(phase, 0.0) for clock in clocks)
            for phase in phases
        },
    )


def _build_and_warm(workload, clock: Clock):
    # A function of its own, so no local still holds the previous
    # set-up's database while the next one is built.
    database = workload.build(clock)
    return database, workload.warm(database, clock)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class RunResult:
    metrics: Dict[str, Tuple[float, str]]
    attempted: int
    failed: int
    correct: bool
    details: Dict[str, Any]
    spans: Optional[list] = None


def _statement_time_ms(outcomes: Sequence[Outcome], limit_ms: float) -> float:
    return sum(charged_ms(outcome, limit_ms) for outcome in outcomes)


def run(name: str, seed: int, seconds: int, trace: bool) -> RunResult:
    """One run: set up, one untraced pass with the row check, and with
    ``trace`` a second, traced pass over the same statements.

    ``correct``/``attempted``/``failed`` always describe the checked
    untraced pass; the metrics are end-to-end from that pass, or
    per-layer from the traced one.
    """
    workload = WORKLOADS[name]
    statements = workload.statements(seed, seconds)
    # Set-up is only an end-to-end metric; a traced run builds once.
    state, setup_s, raw_setup_s, phases = _setup(
        workload, 1 if trace else SETUP_REPEATS
    )
    try:
        checked = workload.run_pass(state, statements)
        if trace:
            state = workload.fresh(state)
            traced, layer, spans = _traced_pass(workload, state, statements)
    finally:
        workload.close(state)

    outcomes = checked.outcomes
    summary = summarize(normalize(outcomes), workload.limit_ms)
    if trace:
        layer["trace.overhead_frac"] = (
            _statement_time_ms(normalize(traced.outcomes), workload.limit_ms)
            / _statement_time_ms(normalize(outcomes), workload.limit_ms)
            - 1.0
        )
        for phase in ("dbgen", "load", "index", "fleetgen"):
            layer[f"setup.{phase}_s"] = phases.get(phase, 0.0)
        metrics = {key: (layer[key], unit) for key, unit in PER_LAYER}
    else:
        spans = None
        values = dict(summary, setup_s=setup_s, peak_rss_mb=_peak_rss_mb())
        metrics = {key: (values[key], unit) for key, unit in END_TO_END}
    return RunResult(
        metrics=metrics,
        attempted=len(outcomes),
        failed=sum(1 for outcome in outcomes if not outcome.ok),
        correct=checked.compared > 0
        and not any(outcome.wrong_rows for outcome in outcomes),
        details=dict(
            _details(workload, statements, checked, summary, setup_s),
            raw_summary=summarize(outcomes, workload.limit_ms),
            raw_setup_s=raw_setup_s,
            probe_ms_median=statistics.median(o.probe_ms for o in outcomes),
        ),
        spans=spans,
    )


def _details(workload, statements, result, summary, setup_s) -> Dict[str, Any]:
    fingerprints: Dict[str, List[str]] = {}
    latencies: Dict[str, List[float]] = {}
    errors: Counter = Counter()
    engines = set()
    for outcome in result.outcomes:
        klass = outcome.klass.split("@")[0]
        latencies.setdefault(klass, []).append(outcome.latency_ms)
        if outcome.fingerprint is not None:
            seen = fingerprints.setdefault(klass, [])
            if outcome.fingerprint not in seen:
                seen.append(outcome.fingerprint)
        if outcome.error:
            errors[f"{klass}: {outcome.error}"] += 1
        if outcome.engine:
            engines.add(outcome.engine)
    return {
        "statements": len(statements),
        "class_latency_ms": {
            klass: {
                "n": len(values),
                "p10": percentile(values, 0.1),
                "p50": percentile(values, 0.5),
                "p90": percentile(values, 0.9),
            }
            for klass, values in sorted(latencies.items())
        },
        "classes": len({s.klass.split("@")[0] for s in statements}),
        "compared_with_reference": result.compared,
        "latency_limit_ms": workload.limit_ms,
        "buffer_pool_pages": workload.pool_pages,
        "engine": sorted(engines),
        "summary": summary,
        "setup_s": setup_s,
        "errors": dict(errors),
        "plan_fingerprints": fingerprints,
        # Raw, in submission order: [class, latency_ms, probe_ms, ok].
        "statement_timings": [
            [o.klass, o.latency_ms, o.probe_ms, o.ok] for o in result.outcomes
        ],
    }


def _traced_pass(workload, state, statements):
    gc_events = {"gen2": 0, "pause": 0.0, "start": None}

    def on_gc(phase, info):
        if phase == "start":
            gc_events["start"] = time.perf_counter()
        elif gc_events["start"] is not None:
            gc_events["pause"] += time.perf_counter() - gc_events["start"]
            gc_events["start"] = None
            if info.get("generation") == 2:
                gc_events["gen2"] += 1

    tracer = Tracer()
    counters = instrument.snapshot()
    gc.callbacks.append(on_gc)
    try:
        with tracer:
            result = workload.run_pass(state, statements, tracer)
    finally:
        gc.callbacks.remove(on_gc)
    delta = instrument.delta(counters)
    layer = _layer_metrics(tracer, result, delta)
    layer["runtime.gc_gen2_collections"] = gc_events["gen2"]
    layer["runtime.gc_pause_ms"] = gc_events["pause"] * 1000.0
    return result, layer, tracer.to_json()


def _rate(delta: Dict[str, float], hits: str, calls: str) -> float:
    total = delta.get(calls, 0)
    return delta.get(hits, 0) / total if total else 0.0


def _layer_metrics(tracer: Tracer, result: PassResult, delta) -> Dict[str, float]:
    spans = tracer.spans
    own = self_times(spans)
    by_id = {span.span_id: span for span in spans}
    by_name: Dict[str, List[Any]] = {}
    children: Dict[int, List[Any]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)

    def durations_ms(name, keep=lambda span: True):
        return [s.duration * 1000.0 for s in by_name.get(name, ()) if keep(s)]

    def self_total_ms(*names):
        return sum(own[s.span_id] for n in names for s in by_name.get(n, ())) * 1000.0

    def has_child(span, name):
        return any(c.name == name for c in children.get(span.span_id, ()))

    overhead = []
    for span in by_name.get("statement", ()):
        inside = sum(
            c.duration for c in children.get(span.span_id, ())
            if c.name in ("service.plan_for", "api.execute")
        )
        overhead.append((span.duration - inside) * 1000.0)

    plans = durations_ms("optimizer.plan_sql")
    hits = delta.get("service.cache.hits", 0)
    misses = delta.get("service.cache.misses", 0)
    accesses = tracer.hits + tracer.sequential_misses + tracer.random_misses
    sim_io_ms = (
        (tracer.sequential_misses + tracer.spill_pages) * IoStats.SEQUENTIAL_MS
        + tracer.random_misses * IoStats.RANDOM_MS
    )
    exchange_ms = sum(
        tracer.operator_seconds.get(kind, 0.0)
        for kind in (OpKind.GATHER_EXCHANGE, OpKind.MERGE_EXCHANGE)
    ) * 1000.0
    fingerprints = {o.fingerprint for o in result.outcomes if o.fingerprint}
    layer = {
        "service.overhead_ms_p50": percentile(overhead, 0.5),
        "service.parameterize_ms_p50": percentile(
            durations_ms("service.parameterize"), 0.5
        ),
        "service.plan_lookup_ms_p50": percentile(
            durations_ms(
                "service.plan_for",
                lambda s: not has_child(s, "optimizer.plan_sql"),
            ),
            0.5,
        ),
        "service.cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "service.cache_invalidations": delta.get("service.cache.invalidations", 0),
        "parser.parse_ms": self_total_ms("parser.parse"),
        "qgm.rewrite_ms": self_total_ms("qgm.rewrite", "qgm.normalize"),
        "optimizer.order_scan_ms": self_total_ms("optimizer.order_scan"),
        "optimizer.enumerate_ms": self_total_ms("optimizer.enumerate"),
        "optimizer.finalize_ms": self_total_ms("optimizer.finalize"),
        "optimizer.plan_ms_p50": percentile(plans, 0.5),
        "optimizer.plan_ms_p90": percentile(plans, 0.9),
        "optimizer.plans_distinct": len(fingerprints),
        "core.reduce.calls": delta.get("reduce.calls", 0),
        "core.reduce.memo_hit_rate": _rate(delta, "reduce.memo_hits", "reduce.calls"),
        "core.test.calls": delta.get("test.calls", 0),
        "core.cover.calls": delta.get("cover.calls", 0),
        "core.homogenize.calls": delta.get("homogenize.calls", 0),
        "core.closure.iterations": delta.get("closure.iterations", 0),
        "properties.propagate_join.calls": delta.get("propagate.join_calls", 0),
        "properties.propagate_join.memo_hit_rate": _rate(
            delta, "propagate.join_memo_hits", "propagate.join_calls"
        ),
        "properties.context_calls": delta.get("stream.context_calls", 0),
        "catalog.joint_ndv.calls": len(by_name.get("catalog.joint_ndv", ())),
        "catalog.joint_ndv_ms": sum(durations_ms("catalog.joint_ndv")),
        "executor.build_ms_p50": percentile(
            [
                s.duration * 1000.0
                for s in by_name.get("executor.build", ())
                if s.parent in by_id and by_id[s.parent].name == "api.execute"
            ],
            0.5,
        ),
        "executor.run_ms_p50": percentile(durations_ms("executor.run"), 0.5),
        "executor.result_ms_p50": percentile(
            [own[s.span_id] * 1000.0 for s in by_name.get("api.execute", ())], 0.5
        ),
        "executor.sorts": delta.get("exec.sorts", 0),
        "executor.rows_sorted": delta.get("exec.rows_sorted", 0),
        "executor.partial_sorts": delta.get("exec.partial_sorts", 0),
        "executor.index_probes": delta.get("exec.index_probe.probes", 0),
        "executor.spill_pages": tracer.spill_pages,
        "executor.exchange_self_ms": exchange_ms,
        "executor.exchange_threads": tracer.exchange_threads,
        "expr.compile.calls": delta.get("compile.calls", 0),
        "expr.compile.memo_hit_rate": _rate(delta, "compile.memo_hits", "compile.calls"),
        "expr.vector.filter_calls": delta.get("vector.filter_calls", 0),
        "expr.vector.fallback_terms": delta.get("vector.fallback_terms", 0),
        "storage.buffer_hit_rate": tracer.hits / accesses if accesses else 0.0,
        "storage.sequential_misses": tracer.sequential_misses,
        "storage.random_misses": tracer.random_misses,
        "storage.sim_io_ms_per_stmt": (
            sim_io_ms / tracer.executions if tracer.executions else 0.0
        ),
        "storage.partitions_touched_frac": (
            statistics.fmean(tracer.partition_fractions)
            if tracer.partition_fractions
            else 0.0
        ),
        "workload.observe_ms_p50": percentile(durations_ms("workload.observe"), 0.5),
        "workload.derive_ms": sum(durations_ms("workload.derive")),
        "workload.apply_feedback_ms": sum(durations_ms("workload.apply_feedback")),
        "workload.gate_ms": sum(durations_ms("workload.gate")),
        "workload.replans": 0,
        "workload.qerror_geomean_before": 0.0,
        "workload.qerror_geomean_after": 0.0,
        "workload.regressions_retained": 0,
    }
    for kind in OpKind:
        layer[f"executor.self_ms.{kind.name.lower()}"] = (
            tracer.operator_seconds.get(kind, 0.0) * 1000.0
        )
    layer.update(result.feedback)
    return layer

