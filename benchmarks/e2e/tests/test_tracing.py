"""Span self-time on hand-built spans; wrappers leave nothing behind."""

import threading

import pytest

from benchmarks.e2e.cli import load_spec
from benchmarks.e2e.layers import SPAN_SECONDS, TARGETS, layer_metrics
from benchmarks.e2e.tracing import (
    Span,
    SpanRecorder,
    format_table,
    layer_rows,
    resolve,
    self_seconds,
)


def test_self_time_subtracts_children_once():
    spans = [
        Span(1, None, "run", "traversal", 0.0, 10.0),
        Span(2, 1, "account", "memsim", 1.0, 4.0),
        Span(3, 2, "zero_copy", "memsim", 2.0, 3.0),
        Span(4, 1, "account", "memsim", 6.0, 8.0),
    ]
    own = self_seconds(spans)
    assert own[1] == pytest.approx(10.0 - 3.0 - 2.0)
    assert own[2] == pytest.approx(3.0 - 1.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(2.0)
    # Self times tile the root: nothing is counted twice.
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_merges_overlapping_children_and_clips_to_parent():
    spans = [
        Span(1, None, "wave", "service", 0.0, 10.0),
        Span(2, 1, "a", "x", 1.0, 5.0, thread="t1"),
        Span(3, 1, "b", "x", 3.0, 7.0, thread="t2"),  # overlaps span 2
        Span(4, 1, "c", "x", 9.0, 12.0, thread="t2"),  # runs past the parent
    ]
    assert self_seconds(spans)[1] == pytest.approx(10.0 - 6.0 - 1.0)


def test_layer_rows_take_each_layers_least_round():
    spans = [
        # round 0: solo 4 s of which 1 s is accounting
        Span(1, None, "solo", "traversal", 0.0, 4.0, round=0),
        Span(2, 1, "account", "memsim", 1.0, 2.0, round=0),
        # round 1, disturbed: the same calls take longer
        Span(3, None, "solo", "traversal", 10.0, 16.0, round=1),
        Span(4, 3, "account", "memsim", 11.0, 13.5, round=1),
    ]
    rows = layer_rows(spans)
    assert rows["traversal.solo"].calls == 1
    assert rows["traversal.solo"].busy_seconds == pytest.approx(4.0)
    assert rows["traversal.solo"].self_seconds == pytest.approx(3.0)
    assert rows["memsim.account"].self_seconds == pytest.approx(1.0)
    table = format_table(rows, round_seconds=4.5)
    assert "traversal.solo" in table and "(outside every span)" in table
    assert "66.7%" in table  # 3.0 / 4.5


def test_recorder_nests_by_thread_and_tags_the_op():
    class Layer:
        def outer(self):
            self.inner()
            other = threading.Thread(target=self.side, name="other")
            other.start()
            other.join(timeout=5)
            assert not other.is_alive()

        def inner(self):
            pass

        def side(self):
            pass

    recorder = SpanRecorder()
    for attribute in ("outer", "inner", "side"):
        recorder.wrap(Layer, attribute, attribute, "layer")
    recorder.op, recorder.round = "op7", 3
    try:
        Layer().outer()
    finally:
        recorder.uninstall()
    inner, beside, outer = recorder.spans
    assert (inner.name, inner.parent) == ("inner", outer.id)
    # A span's parent is the caller on its own thread, not whoever runs elsewhere.
    assert (beside.name, beside.parent, beside.thread) == ("side", None, "other")
    assert outer.parent is None
    assert inner.op == outer.op == beside.op == "op7"
    assert inner.round == outer.round == 3
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_wrappers_record_and_are_fully_removed():
    class Layer:
        def work(self, value):
            return value + 1

    original = vars(Layer)["work"]
    recorder = SpanRecorder()
    recorder.wrap(Layer, "work", "work", "layer")
    assert vars(Layer)["work"] is not original
    assert Layer().work(1) == 2
    assert [span.name for span in recorder.spans] == ["work"]
    recorder.uninstall()
    assert vars(Layer)["work"] is original
    assert recorder.installed == 0
    Layer().work(1)
    assert len(recorder.spans) == 1


def test_a_wrapped_call_that_raises_still_closes_its_span():
    class Layer:
        def work(self):
            raise KeyError("boom")

        def after(self):
            pass

    recorder = SpanRecorder()
    recorder.wrap(Layer, "work", "work", "layer")
    recorder.wrap(Layer, "after", "after", "layer")
    try:
        with pytest.raises(KeyError):
            Layer().work()
        Layer().after()
    finally:
        recorder.uninstall()
    failed, after = recorder.spans
    # The failed call left nothing on the stack: the next span has no parent.
    assert failed.name == "work" and after.parent is None


def test_every_target_exists_and_is_restored_after_a_traced_install():
    before = [(resolve(path), attr, vars(resolve(path))[attr]) for path, attr, _, _ in TARGETS]
    recorder = SpanRecorder()
    recorder.install(TARGETS)
    try:
        assert recorder.installed == len(TARGETS)
        assert all(vars(owner)[attr] is not original for owner, attr, original in before)
    finally:
        recorder.uninstall()
    assert all(vars(owner)[attr] is original for owner, attr, original in before)


def test_span_metrics_name_wrapped_spans():
    wrapped = {f"{layer}.{name}" for _, _, name, layer in TARGETS}
    assert set(SPAN_SECONDS.values()) == wrapped


def test_layer_metrics_are_the_names_the_spec_lists():
    class Round:
        counts, gauges, service_spans = {}, {}, None

    spans = [
        Span(1, None, "solo", "traversal", 0.0, 4.0),
        Span(2, 1, "account", "memsim", 1.0, 2.0),
    ]
    values = layer_metrics(spans, [Round()], {"graph.load_s": 0.5}, 1.04)
    assert set(values) == {metric["name"] for metric in load_spec()["per_layer"]}
    assert values["traversal.solo_s"] == pytest.approx(3.0)
    assert values["memsim.account_calls"] == 1
    assert values["graph.load_s"] == 0.5
    assert values["queue.push_s"] == 0.0  # a bypassed layer reads 0
    assert values["trace.overhead_ratio"] == 1.04
