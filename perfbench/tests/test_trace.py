"""Span self time, operator self time, and the wrappers' lifecycle."""

from types import SimpleNamespace

from perfbench.trace import Span, Tracer, operator_self_seconds, self_times
from repro.optimizer.plan import OpKind


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(0, "statement", 0.0, 10.0, None, 0),
        Span(1, "a", 1.0, 4.0, 0, 0),
        Span(2, "b", 3.0, 6.0, 0, 0),  # overlaps a: counted once
        Span(3, "a.child", 2.0, 3.0, 1, 0),
        Span(4, "late", 9.0, 12.0, 0, 0),  # clipped to the parent
    ]
    own = self_times(spans)
    assert own[0] == 10.0 - (5.0 + 1.0)
    assert own[1] == 3.0 - 1.0
    assert own[2] == 3.0
    assert own[3] == 1.0
    assert own[4] == 3.0


class _Op:
    def __init__(self, *children):
        self._children = children

    def children(self):
        return self._children


def test_operator_self_time_and_the_exchange_rule():
    left, right = _Op(), _Op()
    gather = _Op(left, right)
    root = _Op(gather)
    metrics = {
        root: SimpleNamespace(seconds=10.0),
        gather: SimpleNamespace(seconds=7.0),
        left: SimpleNamespace(seconds=5.0),
        right: SimpleNamespace(seconds=6.0),
    }
    kinds = {
        root: OpKind.SORT,
        gather: OpKind.GATHER_EXCHANGE,
        left: OpKind.PARTITION_SCAN,
        right: OpKind.PARTITION_SCAN,
    }
    totals = operator_self_seconds(root, metrics, kinds)
    assert totals[OpKind.SORT] == 3.0
    assert totals[OpKind.GATHER_EXCHANGE] == 1.0  # beyond the slowest child
    assert totals[OpKind.PARTITION_SCAN] == 11.0


def test_wrappers_record_nested_spans_and_are_removed(simple_service):
    import repro.optimizer.optimizer as optimizer_module
    from repro.service import PlanCache

    original = (PlanCache.plan_for, optimizer_module.enumerate_joins)
    tracer = Tracer()
    with tracer:
        token = tracer.begin_statement(0)
        simple_service.query("select a from t where a > 2 order by a")
        tracer.end_statement(token)
    assert (PlanCache.plan_for, optimizer_module.enumerate_joins) == original

    by_id = {span.span_id: span for span in tracer.spans}
    names = {span.name for span in tracer.spans}
    assert {"statement", "service.plan_for", "optimizer.plan_sql",
            "optimizer.enumerate", "api.execute", "executor.run"} <= names
    for span in tracer.spans:
        assert span.statement == 0
        if span.name != "statement":
            assert span.parent in by_id
            parent = by_id[span.parent]
            assert parent.start <= span.start and span.end <= parent.end
    assert tracer.executions == 1
    assert tracer.operator_seconds
