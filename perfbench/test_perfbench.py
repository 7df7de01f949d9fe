"""Tests of the benchmark's own arithmetic and checks.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import calibrate  # noqa: E402
import loadgen  # noqa: E402
from calibrate import Calibration  # noqa: E402
from loadgen import Session  # noqa: E402
from tracing import (  # noqa: E402
    NO_PARENT,
    Tracer,
    percentile,
    root_time,
    self_time_by_name,
    self_times,
)
from truth import ABSENT, MISS, OK, WRONG, Truth, preload_value, verdict  # noqa: E402
from workloads import GET, PUT, WORKLOADS, make_ops  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] > b [1, 4] > c [2, 3];  a > d [5, 9]
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    parent = np.array([NO_PARENT, 0, 1, 0])
    assert self_times(start, end, parent).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_self_time_clips_children_to_the_parent():
    start = np.array([0.0, 3.0])
    end = np.array([4.0, 6.0])
    parent = np.array([NO_PARENT, 0])
    assert self_times(start, end, parent).tolist() == [3.0, 3.0]


def _ticking_tracer():
    ticks = iter(range(1000))
    return Tracer(clock=lambda: float(next(ticks)))


def test_wrapped_calls_nest_and_unwrap():
    class Layer:
        def outer(self, keys):
            return self.inner(keys) + self.inner(keys)

        def inner(self, keys):
            return len(keys)

    original = Layer.__dict__["outer"]
    tracer = _ticking_tracer()
    tracer.patch(Layer, "outer", "m.outer", keys_arg=1)
    tracer.patch(Layer, "inner", "m.inner")
    assert Layer().outer([1, 2, 3]) == 6
    tracer.uninstall()
    assert Layer.__dict__["outer"] is original
    # outer [0, 5] holds inner [1, 2] and [3, 4].
    assert self_time_by_name(tracer) == {"m.outer": 3.0, "m.inner": 2.0}
    assert root_time(tracer) == 5.0
    assert tracer.keys["m.outer"] == 3
    assert tracer.parent.tolist() == [NO_PARENT, 0, 0]


def test_submit_is_linked_to_the_dispatch_that_served_it():
    tracer = _ticking_tracer()

    class Batcher:
        def __init__(self):
            self.queue = []

        def submit(self, op, key, value=None):
            future = object()
            self.queue.append(
                SimpleNamespace(future=future, enqueued_at=tracer.clock())
            )
            return future

        def dispatch(self, batch):
            return len(batch)

    tracer.patch_submit(Batcher, "b.submit")
    tracer.patch_dispatch(Batcher, "b.dispatch")
    batcher = Batcher()
    for request_id in (7, 8):
        tracer.request_id = request_id
        batcher.submit("get", request_id)
    assert batcher.dispatch(batcher.queue) == 2
    tracer.uninstall()
    dispatch_span = 2
    assert tracer.rid.tolist()[:2] == [7, 8]
    assert tracer.links.tolist() == [7, dispatch_span, 8, dispatch_span]
    assert tracer.batch_sizes.tolist() == [2]
    # Enqueued at ticks 1 and 4; the dispatch span opened at tick 6.
    assert tracer.queue_waits.tolist() == [5.0, 2.0]


def test_truth_accepts_in_flight_and_flags_planted_values():
    truth = Truth.preloaded(4)
    old = preload_value(1)
    truth.begin_write(1, 100)
    allowed = truth.snapshot(1)
    assert verdict(allowed, True, old) == OK
    assert verdict(allowed, True, 100) == OK
    assert verdict(allowed, True, 12345) == WRONG
    assert verdict(allowed, False, None) == MISS
    truth.end_write(1, 100)
    # Once acknowledged, the overwritten value may no longer be read.
    assert verdict(truth.snapshot(1), True, old) == WRONG
    assert truth.in_flight == 0


def test_truth_allows_absence_only_around_a_delete():
    truth = Truth.preloaded(2)
    truth.begin_write(0, ABSENT)
    assert verdict(truth.snapshot(0), False, None) == OK
    assert verdict(truth.snapshot(0), True, preload_value(0)) == OK
    truth.end_write(0, ABSENT)
    assert verdict(truth.snapshot(0), False, None) == OK
    assert verdict(truth.snapshot(0), True, preload_value(0)) == WRONG


def test_percentile_reports_its_sample_count():
    value, count = percentile([4.0, 1.0, 3.0, 2.0], 50)
    assert (value, count) == (2.0, 4)
    assert percentile(list(range(1, 101)), 99) == (99.0, 100)
    value, count = percentile([], 99)
    assert math.isnan(value) and count == 0


def test_session_medians_are_taken_over_whole_chunks(monkeypatch):
    monkeypatch.setattr(loadgen, "CHUNK_OPS", 3)
    monkeypatch.setattr(loadgen, "WRITE_CHUNK", 2)
    session = Session(traced=False, warm_op=0, warm_at=10.0, clients_done=13.0)
    # Chunk one ends at 11.0, chunk two at 11.5; the last op is a
    # partial chunk and is dropped.  The writes form one whole group of
    # two (0.005, 0.007) and a partial one (0.006), which is dropped.
    for at, op, latency in [
        (10.1, GET, 0.001),
        (10.2, GET, 0.003),
        (11.0, PUT, 0.005),
        (11.2, GET, 0.004),
        (11.4, PUT, 0.007),
        (11.5, PUT, 0.006),
        (12.2, GET, 0.050),
    ]:
        session.kind.append(op)
        session.replied_at.append(at)
        session.latency.append(latency)
    medians = session.medians()
    assert medians["chunks"] == 2
    assert medians["ops_per_s"] == np.median([3 / 1.0, 3 / 0.5])
    assert medians["get_p50"] == np.median([0.001, 0.004])
    assert medians["get_p50_samples"] == 3
    assert medians["put_p99"] == 0.007
    assert medians["put_p99_samples"] == 2
    monkeypatch.setattr(loadgen, "WRITE_CHUNK", 1)
    assert session.medians()["put_p99"] == np.median([0.005, 0.007, 0.006])


def test_reference_time_is_cut_out_and_chunks_are_normalized(monkeypatch):
    monkeypatch.setattr(loadgen, "CHUNK_OPS", 2)
    monkeypatch.setattr(calibrate, "REFERENCE_S", 0.1)
    session = Session(
        traced=False, warm_op=0, started=9.0, warm_at=10.0, clients_done=14.0,
        ended=14.0,
    )
    for at, latency in [(10.5, 0.4), (11.0, 0.5), (12.0, 0.3), (13.0, 1.0)]:
        session.kind.append(GET)
        session.replied_at.append(at)
        session.latency.append(latency)
    # The reference ran twice: done at 10.75 (0.25 s in all, its timed
    # pass 0.1 s: nominal speed) and at 12.5 (0.5 s, timed 0.2 s: the
    # host ran at half speed).
    for ended, took, spent in [(10.75, 0.1, 0.25), (12.5, 0.2, 0.5)]:
        session.calibration.ended.append(ended)
        session.calibration.took.append(took)
        session.calibration.spent.append(spent)
    assert session.calibration.slowdown() == pytest.approx(1.5)
    chunks = session.chunks()
    assert [(width, slowdown) for __, width, slowdown in chunks] == [
        pytest.approx((0.75, 1.0)),
        pytest.approx((1.5, 2.0)),
    ]
    # The second and fourth ops were in flight while the reference ran.
    assert session.latencies() == pytest.approx([0.4, 0.25, 0.3, 0.5])
    assert session.wall_s == pytest.approx(5.0 - 0.75)
    measured = session.medians()
    assert measured["ops_per_s"] == pytest.approx(np.median([2 / 0.75, 2 / 1.5]))
    assert measured["get_p50"] == pytest.approx(np.median([0.25, 0.3]))
    # With the share 0.4, at twice the reference's nominal time the
    # second chunk ran 1.4 times as long as at nominal speed.
    monkeypatch.setattr(calibrate, "SERVING_SHARE", 0.4)
    assert calibrate.stretch(2.0, 0.4) == pytest.approx(1.4)
    nominal = session.medians(normalized=True)
    assert nominal["ops_per_s"] == pytest.approx(
        np.median([2 / 0.75, 2 * 1.4 / 1.5])
    )
    assert nominal["get_p50"] == pytest.approx(np.median([0.25, 0.3 / 1.4]))
    assert nominal["get_p99"] == pytest.approx(np.median([0.4, 0.5 / 1.4]))


def test_slowdown_without_reference_timings_is_one():
    assert Calibration().slowdown() == 1.0
    assert calibrate.stretch(1.0, 0.7) == 1.0


def test_op_stream_is_a_function_of_the_seed():
    workload = WORKLOADS["hot-read"]
    first = make_ops(workload, 7)
    assert first == make_ops(workload, 7)
    assert first != make_ops(workload, 8)
    ops, keys = first
    assert 0.94 < ops.count(GET) / len(ops) < 0.96
    assert 0 <= min(keys) and max(keys) < workload.keys
