"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.errors import RuntimePhaseError
from repro.sim.kernel import SimKernel


def test_kernel_starts_at_zero():
    kernel = SimKernel()
    assert kernel.now == 0.0
    assert kernel.pending == 0
    assert kernel.events_processed == 0


def test_kernel_custom_start_time():
    kernel = SimKernel(start_time=5.0)
    assert kernel.now == 5.0


def test_schedule_and_run_single_event():
    kernel = SimKernel()
    fired = []
    kernel.schedule(1.5, fired.append, "a")
    kernel.run()
    assert fired == ["a"]
    assert kernel.now == pytest.approx(1.5)


def test_events_run_in_time_order():
    kernel = SimKernel()
    order = []
    kernel.schedule(3.0, order.append, "late")
    kernel.schedule(1.0, order.append, "early")
    kernel.schedule(2.0, order.append, "middle")
    kernel.run()
    assert order == ["early", "middle", "late"]


def test_same_time_events_run_in_schedule_order():
    kernel = SimKernel()
    order = []
    for label in ("first", "second", "third"):
        kernel.schedule(1.0, order.append, label)
    kernel.run()
    assert order == ["first", "second", "third"]


def test_schedule_at_absolute_time():
    kernel = SimKernel()
    seen = []
    kernel.schedule_at(2.5, lambda: seen.append(kernel.now))
    kernel.run()
    assert seen == [pytest.approx(2.5)]


def test_negative_delay_rejected():
    kernel = SimKernel()
    with pytest.raises(RuntimePhaseError):
        kernel.schedule(-0.1, lambda: None)


def test_schedule_in_the_past_rejected():
    kernel = SimKernel()
    kernel.schedule(1.0, lambda: None)
    kernel.run()
    with pytest.raises(RuntimePhaseError):
        kernel.schedule_at(0.5, lambda: None)


def test_cancelled_event_does_not_fire():
    kernel = SimKernel()
    fired = []
    handle = kernel.schedule(1.0, fired.append, "x")
    handle.cancel()
    kernel.run()
    assert fired == []
    assert kernel.events_processed == 0


def test_run_until_stops_before_later_events():
    kernel = SimKernel()
    fired = []
    kernel.schedule(1.0, fired.append, "a")
    kernel.schedule(5.0, fired.append, "b")
    kernel.run(until=2.0)
    assert fired == ["a"]
    assert kernel.now == pytest.approx(2.0)
    kernel.run()
    assert fired == ["a", "b"]


def test_run_max_events_limit():
    kernel = SimKernel()
    fired = []
    for i in range(10):
        kernel.schedule(float(i + 1), fired.append, i)
    kernel.run(max_events=3)
    assert fired == [0, 1, 2]


def test_events_scheduled_during_run_are_processed():
    kernel = SimKernel()
    fired = []

    def chain(step):
        fired.append(step)
        if step < 3:
            kernel.schedule(1.0, chain, step + 1)

    kernel.schedule(1.0, chain, 0)
    kernel.run()
    assert fired == [0, 1, 2, 3]
    assert kernel.now == pytest.approx(4.0)


def test_step_returns_false_when_empty():
    kernel = SimKernel()
    assert kernel.step() is False


def test_pending_counts_only_live_events():
    kernel = SimKernel()
    handle = kernel.schedule(1.0, lambda: None)
    kernel.schedule(2.0, lambda: None)
    assert kernel.pending == 2
    handle.cancel()
    assert kernel.pending == 1


def test_advance_to_moves_time_forward_only():
    kernel = SimKernel()
    kernel.advance_to(4.0)
    assert kernel.now == 4.0
    with pytest.raises(RuntimePhaseError):
        kernel.advance_to(1.0)


def test_events_processed_counter():
    kernel = SimKernel()
    for i in range(5):
        kernel.schedule(float(i), lambda: None)
    kernel.run()
    assert kernel.events_processed == 5


def test_cancelling_twice_keeps_pending_consistent():
    kernel = SimKernel()
    handle = kernel.schedule(1.0, lambda: None)
    kernel.schedule(2.0, lambda: None)
    handle.cancel()
    handle.cancel()
    assert kernel.pending == 1


def test_cancel_after_execution_keeps_pending_consistent():
    kernel = SimKernel()
    handle = kernel.schedule(1.0, lambda: None)
    kernel.schedule(2.0, lambda: None)
    kernel.step()
    handle.cancel()  # already ran: must not corrupt the live counter
    assert kernel.pending == 1
    kernel.run()
    assert kernel.pending == 0


def test_heap_compaction_drops_dominating_cancelled_entries():
    kernel = SimKernel()
    doomed = [kernel.schedule(1e6 + i, lambda: None) for i in range(200)]
    kernel.schedule(1.0, lambda: None)
    for handle in doomed:
        handle.cancel()
    # The cancelled entries dominated the heap, so it was compacted
    # instead of lingering until their (far-future) times surface.  Only
    # sub-threshold residues may remain.
    assert kernel.compactions >= 1
    assert len(kernel._queue) < SimKernel.COMPACTION_MIN_QUEUE
    assert kernel.pending == 1


def test_small_queues_are_not_compacted():
    kernel = SimKernel()
    handles = [kernel.schedule(10.0 + i, lambda: None) for i in range(10)]
    for handle in handles:
        handle.cancel()
    assert kernel.compactions == 0
    assert kernel.pending == 0


def test_compaction_preserves_execution_order():
    kernel = SimKernel()
    order = []
    live = []
    doomed = []
    # Interleave live and to-be-cancelled events at identical times to
    # stress the (time, seq) ordering across a compaction.
    for i in range(100):
        live.append(kernel.schedule(float(i % 7), order.append, i))
        doomed.append(kernel.schedule(float(i % 7), order.append, -i - 1))
    doomed.extend(kernel.schedule(50.0, order.append, -1000 - i) for i in range(20))
    expected = sorted(range(100), key=lambda i: (i % 7, i))
    for handle in doomed:
        handle.cancel()
    assert kernel.compactions >= 1
    kernel.run()
    assert order == expected
    assert kernel.events_processed == 100


def test_post_at_orders_against_scheduled_events_at_equal_times():
    # Insertion order breaks equal-time ties across the monotone posted
    # lane and the heap, exactly as it does within either lane alone.
    kernel = SimKernel()
    order = []
    kernel.post_at(1.0, order.append, "posted-first")
    kernel.schedule_at(1.0, lambda: order.append("heap-second"))
    kernel.run()
    assert order == ["posted-first", "heap-second"]

    kernel = SimKernel()
    order = []
    kernel.schedule_at(1.0, lambda: order.append("heap-first"))
    kernel.post_at(1.0, order.append, "posted-second")
    kernel.run()
    assert order == ["heap-first", "posted-second"]


def test_post_at_accepts_any_arity_and_out_of_order_times():
    # The monotone lane only holds single-argument, nondecreasing posts;
    # everything else must transparently fall back to the heap and still
    # execute in global (time, insertion) order.
    kernel = SimKernel()
    order = []
    kernel.post_at(1.0, lambda: order.append("zero-arg"))
    kernel.post_at(1.0, order.append, "unary")
    kernel.post_at(1.0, lambda a, b: order.append((a, b)), 1, 2)
    kernel.post_at(0.5, order.append, "out-of-order")
    assert kernel.pending == 4
    kernel.run()
    assert order == ["out-of-order", "zero-arg", "unary", (1, 2)]
    assert kernel.pending == 0
    assert kernel.events_processed == 4


def test_run_until_and_step_drain_posted_lane():
    kernel = SimKernel()
    order = []
    kernel.post_at(1.0, order.append, "p1")
    kernel.schedule_at(2.0, lambda: order.append("h2"))
    kernel.post_at(3.0, order.append, "p3")
    kernel.run(until=2.5)
    assert order == ["p1", "h2"]
    assert kernel.now == 2.5
    assert kernel.step()
    assert order == ["p1", "h2", "p3"]
    assert not kernel.step()


def test_request_stop_from_heap_lane_returns_right_after_the_callback():
    kernel = SimKernel()
    order = []

    def stop(tag):
        order.append(tag)
        kernel.request_stop()

    kernel.schedule_at(1.0, order.append, "h1")
    kernel.schedule_at(2.0, stop, "stop")
    kernel.schedule_at(2.0, order.append, "same-time")
    kernel.post_at(3.0, order.append, "p3")
    kernel.run(until=10.0)
    assert order == ["h1", "stop"]
    assert kernel.now == 2.0  # a stopped run does not advance to ``until``
    assert kernel.events_processed == 2
    assert kernel.pending == 2


def test_request_stop_from_posted_lane_returns_right_after_the_callback():
    kernel = SimKernel()
    order = []

    def stop(tag):
        order.append(tag)
        kernel.request_stop()

    kernel.post_at(1.0, stop, "stop")
    kernel.post_at(1.0, order.append, "p1")
    kernel.schedule_at(1.5, order.append, "h2")
    kernel.run()
    assert order == ["stop"]
    assert kernel.now == 1.0
    assert kernel.pending == 2


def test_request_stop_does_not_leak_into_the_next_run():
    kernel = SimKernel()
    order = []
    kernel.post_at(1.0, lambda _: kernel.request_stop(), None)
    kernel.post_at(2.0, order.append, "a")
    kernel.post_at(3.0, order.append, "b")
    kernel.run()
    assert order == []
    kernel.run()
    assert order == ["a", "b"]
    # A request made outside any run is cleared when the next run starts.
    kernel.request_stop()
    kernel.post_at(4.0, order.append, "c")
    kernel.run()
    assert order == ["a", "b", "c"]
