"""In-memory spans around the engine's public entry points.

The traced run wraps, from the benchmark's side only, the calls that
``QueryService`` reaches on its way from statement text to last row:
``PlanCache.plan_for``, ``parameterize``, ``Optimizer.plan_sql``,
``parse_query``, ``rewrite``/``normalize``, ``run_order_scan``,
``enumerate_joins``, ``finalize_plans``, ``build_executor``,
``api.execute`` and the root operator's ``execute``, plus
``TableStats.joint_ndv`` and the workload loop's ``observe_execution``,
``derive_corrections``, ``Catalog.apply_feedback`` and
``RegressionGate.evaluate``. Nothing under ``src/`` changes: each
wrapper is installed by replacing a module or class attribute and is
removed again by :meth:`Tracer.uninstall`.

A span has a name, start, end, parent and statement id. Spans opened on
a thread with no open span (the service worker, for instance) take the
client's current statement span as their parent; the benchmark runs a
closed loop against one worker, so exactly one statement is in flight.

Per-operator time comes from the execution context's
``OperatorMetrics`` (inclusive seconds per operator), read after each
root ``execute`` returns; self time is inclusive time minus the
children's.
"""

from __future__ import annotations

import importlib
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.optimizer.plan import OpKind

EXCHANGE_KINDS = (OpKind.GATHER_EXCHANGE, OpKind.MERGE_EXCHANGE)


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    statement: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part of it its children cover.

    Children are clipped to their parent's interval, and overlapping
    children (parallel work) count once.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    by_id = {span.span_id: span for span in spans}
    for span in spans:
        parent = by_id.get(span.parent) if span.parent is not None else None
        if parent is None:
            continue
        start = max(span.start, parent.start)
        end = min(span.end, parent.end)
        if end > start:
            children.setdefault(parent.span_id, []).append((start, end))
    return {
        span.span_id: span.duration - _covered(children.get(span.span_id, []))
        for span in spans
    }


def operator_self_seconds(
    root: Any, metrics: Dict[Any, Any], kinds: Dict[Any, OpKind]
) -> Dict[OpKind, float]:
    """Self seconds per operator kind for one executed operator tree.

    ``metrics`` maps operator -> ``OperatorMetrics`` (inclusive
    seconds). A plain operator's self time is its inclusive time minus
    its children's. An exchange's children run on worker threads in
    parallel, so its self time is what it spent beyond its slowest
    child: coordination, queue waits and the merge.
    """
    totals: Dict[OpKind, float] = {}
    seen = set()
    stack = [root]
    while stack:
        operator = stack.pop()
        if id(operator) in seen:
            continue  # split buckets share one child subtree
        seen.add(id(operator))
        children = list(operator.children())
        stack.extend(children)
        entry = metrics.get(operator)
        kind = kinds.get(operator)
        if entry is None or kind is None:
            continue
        child_seconds = [
            metrics[child].seconds for child in children if child in metrics
        ]
        if kind in EXCHANGE_KINDS:
            own = entry.seconds - max(child_seconds, default=0.0)
        else:
            own = entry.seconds - sum(child_seconds)
        totals[kind] = totals.get(kind, 0.0) + max(0.0, own)
    return totals


def partition_fractions(plan: Any, database: Any) -> List[float]:
    """For each partitioned table ``plan`` reads: the share of its
    partitions that the plan's scans touch."""
    touched: Dict[str, set] = {}
    for node in plan.find_all(OpKind.PARTITION_SCAN):
        touched.setdefault(node.args["table"], set()).update(
            node.args["partitions"]
        )
    for node in plan.find_all(OpKind.INDEX_SCAN):
        if node.args.get("partition") is not None:
            touched.setdefault(node.args["table"], set()).add(
                node.args["partition"]
            )
    return [
        len(parts) / database.catalog.table(table).partitioning.partition_count
        for table, parts in sorted(touched.items())
    ]


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.statement: Optional[int] = None
        self.statement_span: Optional[int] = None
        self.operator_seconds: Dict[OpKind, float] = {}
        self.exchange_threads = 0
        # Buffer-pool events, spill pages and per-table partition
        # fractions, summed over the traced executions.
        self.hits = 0
        self.sequential_misses = 0
        self.random_misses = 0
        self.spill_pages = 0
        self.executions = 0
        self.partition_fractions: List[float] = []
        self._executed: List[Tuple[Any, Any, Dict[Any, OpKind]]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Tuple[int, Optional[int], float]:
        stack = self._stack()
        parent = stack[-1] if stack else self.statement_span
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def close(self, token: Tuple[int, Optional[int], float], name: str) -> None:
        end = time.perf_counter()
        span_id, parent, start = token
        self._stack().pop()
        span = Span(span_id, name, start, end, parent, self.statement)
        with self._lock:
            self.spans.append(span)

    def begin_statement(self, statement: int) -> Tuple[int, Optional[int], float]:
        """Open the client-side root span of one statement."""
        self.statement = statement
        self.statement_span = None
        token = self.open("statement")
        self.statement_span = token[0]
        return token

    def end_statement(self, token) -> None:
        self.close(token, "statement")
        self.statement_span = None
        self.statement = None
        with self._lock:
            executed, self._executed = self._executed, []
        for operator, context, kinds in executed:
            seconds = operator_self_seconds(operator, context.metrics, kinds)
            for kind, value in seconds.items():
                self.operator_seconds[kind] = (
                    self.operator_seconds.get(kind, 0.0) + value
                )

    # -- wrappers ------------------------------------------------------

    def _wrap(self, owner: Any, attribute: str, name: str) -> None:
        original = getattr(owner, attribute)
        tracer = self

        def traced(*args, **kwargs):
            token = tracer.open(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.close(token, name)

        self._replace(owner, attribute, traced)

    def _replace(self, owner: Any, attribute: str, value: Any) -> None:
        self._restore.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def install(self) -> None:
        from repro.catalog import Catalog, TableStats
        from repro.optimizer import Optimizer
        from repro.service import PlanCache
        from repro.workload import RegressionGate

        # Submodules by name: some packages re-export a function under
        # the submodule's own name (repro.service.parameterize).
        module = importlib.import_module
        api = module("repro.api")
        build_module = module("repro.executor.build")
        feedback_module = module("repro.executor.feedback")
        optimizer_module = module("repro.optimizer.optimizer")
        parameterize_module = module("repro.service.parameterize")
        service_module = module("repro.service.service")
        fleet_module = module("repro.workload.fleet")

        wrap = self._wrap
        wrap(PlanCache, "plan_for", "service.plan_for")
        wrap(parameterize_module, "parameterize", "service.parameterize")
        wrap(Optimizer, "plan_sql", "optimizer.plan_sql")
        wrap(optimizer_module, "parse_query", "parser.parse")
        wrap(optimizer_module, "rewrite", "qgm.rewrite")
        wrap(optimizer_module, "normalize", "qgm.normalize")
        wrap(optimizer_module, "run_order_scan", "optimizer.order_scan")
        wrap(optimizer_module, "enumerate_joins", "optimizer.enumerate")
        wrap(optimizer_module, "finalize_plans", "optimizer.finalize")
        self._replace(
            service_module, "execute", self._execute_wrapper(service_module.execute)
        )
        wrap(TableStats, "joint_ndv", "catalog.joint_ndv")
        wrap(feedback_module, "observe_execution", "workload.observe")
        wrap(fleet_module, "derive_corrections", "workload.derive")
        wrap(Catalog, "apply_feedback", "workload.apply_feedback")
        wrap(RegressionGate, "evaluate", "workload.gate")
        # The plan cache imports build_executor from its module at call
        # time (the warm tree built on a miss); api binds it at import.
        build = self._build_wrapper(build_module.build_executor)
        self._replace(build_module, "build_executor", build)
        self._replace(api, "build_executor", build)
        self._replace(threading.Thread, "start", self._thread_start_wrapper())

    def _build_wrapper(self, original: Callable) -> Callable:
        tracer = self

        def build_executor(plan, database, node_map=None):
            token = tracer.open("executor.build")
            try:
                nodes = {} if node_map is None else node_map
                operator = original(plan, database, node_map=nodes)
            finally:
                tracer.close(token, "executor.build")
            kinds = {}
            stack = [plan.root]
            while stack:
                node = stack.pop()
                built = nodes.get(id(node))
                if built is not None:
                    kinds[built] = node.kind
                stack.extend(node.children)
            tracer._wrap_execute(operator, kinds)
            return operator

        return build_executor

    def _wrap_execute(self, operator: Any, kinds: Dict[Any, OpKind]) -> None:
        tracer = self
        original = operator.execute

        def execute(context):
            token = tracer.open("executor.run")
            try:
                return original(context)
            finally:
                tracer.close(token, "executor.run")
                # Attributed after the statement ends, outside every span.
                with tracer._lock:
                    tracer._executed.append((operator, context, kinds))

        operator.execute = execute

    def _execute_wrapper(self, original: Callable) -> Callable:
        tracer = self

        def execute(database, plan, *args, **kwargs):
            stats = database.buffer_pool.stats
            before = stats.snapshot()
            token = tracer.open("api.execute")
            try:
                result = original(database, plan, *args, **kwargs)
            finally:
                tracer.close(token, "api.execute")
            used = stats.delta_since(before)
            fractions = partition_fractions(plan, database)
            with tracer._lock:
                tracer.executions += 1
                tracer.hits += used.hits
                tracer.sequential_misses += used.sequential_misses
                tracer.random_misses += used.random_misses
                tracer.spill_pages += result.spill_pages
                tracer.partition_fractions.extend(fractions)
            return result

        return execute

    def _thread_start_wrapper(self) -> Callable:
        tracer = self
        original = threading.Thread.start

        def start(thread):
            if thread.name.startswith("repro-exch-"):
                with tracer._lock:
                    tracer.exchange_threads += 1
            return original(thread)

        return start

    def uninstall(self) -> None:
        while self._restore:
            owner, attribute, value = self._restore.pop()
            setattr(owner, attribute, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- output --------------------------------------------------------

    def to_json(self) -> List[Dict[str, Any]]:
        return [
            {
                "id": span.span_id,
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "parent": span.parent,
                "statement": span.statement,
            }
            for span in self.spans
        ]
