"""Tests for the discrete-event kernel: ordering, determinism, clock contract."""

import numpy as np
import pytest

from repro.cloud.clock import VirtualClock
from repro.cloud.queueing import queue_model_for
from repro.devices.catalog import build_qpu
from repro.sched import CloudScheduler
from repro.sched.kernel import EventKernel


def record_trace(kernel, entries):
    """Schedule events that append (time, tag) to ``entries`` when fired."""
    for time, priority, tag in (
        (5.0, 0, "a"),
        (1.0, 0, "b"),
        (5.0, -1, "c"),
        (5.0, 0, "d"),
        (2.0, 1, "e"),
    ):
        kernel.schedule(time, lambda t, tag=tag: entries.append((t, tag)), priority=priority)


class TestEventOrdering:
    def test_time_then_priority_then_sequence(self):
        kernel = EventKernel()
        trace = []
        record_trace(kernel, trace)
        while kernel.step() is not None:
            pass
        # b(t=1) first, then e(t=2); at t=5 priority -1 beats 0, and among
        # equal (time, priority) the earlier-scheduled event wins.
        assert trace == [(1.0, "b"), (2.0, "e"), (5.0, "c"), (5.0, "a"), (5.0, "d")]

    def test_identical_seeds_replay_identical_traces(self):
        traces = []
        for _ in range(2):
            kernel = EventKernel(seed=42)
            trace = []
            rng = kernel.rng_stream("device")
            for _ in range(50):
                kernel.schedule(
                    float(rng.uniform(0, 100)),
                    lambda t: trace.append(round(t, 9)),
                    priority=int(rng.integers(0, 3)),
                )
            while kernel.step() is not None:
                pass
            traces.append(trace)
        assert traces[0] == traces[1]

    def test_rng_streams_are_label_independent(self):
        kernel = EventKernel(seed=3)
        a1 = kernel.rng_stream("Belem").uniform(size=4).tolist()
        # Consuming another label's stream never perturbs Belem's.
        kernel.rng_stream("Bogota").uniform(size=100)
        a2 = kernel.rng_stream("Belem").uniform(size=4).tolist()
        assert a1 == a2

    def test_cancelled_events_are_skipped(self):
        kernel = EventKernel()
        fired = []
        event = kernel.schedule(1.0, lambda t: fired.append("cancelled"))
        kernel.schedule(2.0, lambda t: fired.append("kept"))
        event.cancel()
        while kernel.step() is not None:
            pass
        assert fired == ["kept"]


class TestClockIntegration:
    def test_clock_is_high_water_mark(self):
        clock = VirtualClock()
        kernel = EventKernel(clock=clock)
        kernel.schedule(100.0, lambda t: None)
        kernel.step()
        assert clock.now == pytest.approx(100.0)

    def test_past_events_execute_without_rewinding_the_clock(self):
        """A late-replayed submission fires with its own timestamp while the
        shared clock stays at its high-water mark (advance_to no-op)."""
        kernel = EventKernel()
        kernel.schedule(100.0, lambda t: None)
        kernel.step()
        seen = []
        kernel.schedule(10.0, lambda t: seen.append(t))
        kernel.step()
        assert seen == [10.0]
        assert kernel.now == pytest.approx(100.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventKernel().schedule(-1.0, lambda t: None)

    @pytest.mark.parametrize("time", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_time_rejected(self, time):
        """A NaN key would make heap order undefined: refuse it, as the
        batch path does, and leave the kernel untouched."""
        kernel = EventKernel()
        with pytest.raises(ValueError, match="finite"):
            kernel.schedule(time, lambda t: None)
        with pytest.raises(ValueError, match="finite"):
            kernel.schedule_batch([1.0, time], lambda t: None)
        assert kernel.pending == 0 and kernel.heap_size == 0


class TestScheduleBatch:
    def test_batch_returns_count_and_tracks_pending(self):
        kernel = EventKernel()
        assert kernel.schedule_batch([1.0, 2.0, 3.0], lambda t: None) == 3
        assert kernel.pending == 3
        # The whole batch occupies a single heap slot (the run cursor).
        assert kernel.heap_size == 1

    def test_empty_batch_is_a_noop(self):
        kernel = EventKernel()
        assert kernel.schedule_batch([], lambda t: None) == 0
        assert kernel.pending == 0

    def test_batch_validation(self):
        kernel = EventKernel()
        with pytest.raises(ValueError):
            kernel.schedule_batch([1.0, -2.0], lambda t: None)
        with pytest.raises(ValueError):
            kernel.schedule_batch([1.0, float("nan")], lambda t: None)
        with pytest.raises(ValueError):
            kernel.schedule_batch([[1.0, 2.0]], lambda t: None)
        with pytest.raises(ValueError):
            kernel.schedule_batch([1.0], None)

    @pytest.mark.parametrize("size", [1, 2, 13, 256, 257, 2000])
    def test_validation_does_not_depend_on_batch_size(self, size):
        """Small batches are validated by one pass over the list, large ones
        by array reductions: both accept and reject exactly the same input."""
        base = np.cumsum(np.random.default_rng(size).standard_exponential(size))
        for position in {0, size // 2, size - 1}:
            for bad, message in (
                (float("nan"), "finite"),
                (float("inf"), "finite"),
                (float("-inf"), "finite"),
                (-1.0, "before t=0"),
            ):
                times = base.copy()
                times[position] = bad
                kernel = EventKernel()
                with pytest.raises(ValueError, match=message):
                    kernel.schedule_batch(times, lambda t: None)
                assert kernel.pending == 0 and kernel.heap_size == 0
        kernel = EventKernel()
        fired = []
        shuffled = np.random.default_rng(1).permutation(base)
        shuffled[0] = -0.0  # not negative: accepted, sorts first
        assert kernel.schedule_batch(shuffled, fired.append) == size
        kernel.run_until_time(float(base[-1]))
        assert fired == np.sort(shuffled).tolist()

    def test_unsorted_batch_fires_in_time_order(self):
        kernel = EventKernel()
        fired = []
        kernel.schedule_batch([5.0, 1.0, 3.0], lambda t: fired.append(t))
        while kernel.step() is not None:
            pass
        assert fired == [1.0, 3.0, 5.0]

    def test_batch_interleaves_with_singles(self):
        kernel = EventKernel()
        fired = []
        kernel.schedule_batch([1.0, 3.0, 5.0], lambda t: fired.append(("batch", t)))
        kernel.schedule(2.0, lambda t: fired.append(("single", t)))
        kernel.schedule(3.0, lambda t: fired.append(("single", t)))
        while kernel.step() is not None:
            pass
        # At the t=3.0 tie the batch element wins: it was scheduled first,
        # so its sequence number is lower — exactly as if the batch had been
        # admitted element by element.
        assert fired == [
            ("batch", 1.0),
            ("single", 2.0),
            ("batch", 3.0),
            ("single", 3.0),
            ("batch", 5.0),
        ]

    def test_event_scheduled_mid_run_preempts_the_inline_burst(self):
        """run_until_time fires consecutive run elements inline, but an
        action that schedules an earlier event must still be overtaken."""
        kernel = EventKernel()
        fired = []

        def on_arrival(t):
            fired.append(("run", t))
            if t == 1.0:
                kernel.schedule(1.5, lambda x: fired.append(("single", x)))

        kernel.schedule_batch([1.0, 2.0, 3.0], on_arrival)
        kernel.run_until_time(10.0)
        assert fired == [
            ("run", 1.0),
            ("single", 1.5),
            ("run", 2.0),
            ("run", 3.0),
        ]

    def test_run_until_time_leaves_late_run_elements_pending(self):
        kernel = EventKernel()
        fired = []
        kernel.schedule_batch(
            [float(t) for t in range(1, 11)], lambda t: fired.append(t)
        )
        assert kernel.run_until_time(5.5) == 5
        assert fired == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert kernel.pending == 5
        assert kernel.heap_size == 1
        kernel.run_until_time(100.0)
        assert len(fired) == 10 and kernel.pending == 0

    def test_batched_and_sequential_admission_fire_identically(self):
        times = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6]

        def run(batched):
            kernel = EventKernel()
            fired = []
            if batched:
                kernel.schedule_batch(times, lambda t: fired.append(t))
            else:
                for t in sorted(times):
                    kernel.schedule(t, lambda now: fired.append(now))
            kernel.run_until_time(100.0)
            return fired

        assert run(batched=True) == run(batched=False)


class TestCompaction:
    def test_cancel_storm_sweeps_dead_heap_entries(self):
        kernel = EventKernel()
        events = [kernel.schedule(float(i + 1), lambda t: None) for i in range(256)]
        for event in events[:200]:
            event.cancel()
        assert kernel.pending == 56
        # Dead entries are swept once they dominate, not kept forever.
        assert kernel.heap_size < 128
        fired = 0
        while kernel.step() is not None:
            fired += 1
        assert fired == 56

    def test_cancel_is_idempotent_and_safe_after_firing(self):
        kernel = EventKernel()
        event = kernel.schedule(1.0, lambda t: None)
        kernel.step()
        event.cancel()
        event.cancel()
        assert kernel.pending == 0


class TestRunHelpers:
    def test_run_until_time_processes_due_events_only(self):
        kernel = EventKernel()
        fired = []
        for t in (1.0, 2.0, 3.0, 10.0):
            kernel.schedule(t, lambda now, t=t: fired.append(t))
        assert kernel.run_until_time(3.0) == 3
        assert fired == [1.0, 2.0, 3.0]
        assert kernel.pending == 1
        assert kernel.now == pytest.approx(3.0)

    def test_run_until_raises_on_drained_heap(self):
        kernel = EventKernel()
        kernel.schedule(1.0, lambda t: None)
        with pytest.raises(RuntimeError):
            kernel.run_until(lambda: False)

    def test_run_until_counts_events(self):
        kernel = EventKernel()
        fired = []
        for t in (1.0, 2.0, 3.0):
            kernel.schedule(t, lambda now: fired.append(now))
        assert kernel.run_until(lambda: len(fired) == 2) == 2


class TestRearm:
    def test_a_pending_or_cancelled_event_is_refused(self):
        kernel = EventKernel()
        pending = kernel.schedule(1.0, lambda t: None)
        with pytest.raises(ValueError, match="only a fired event"):
            kernel.rearm(pending, 2.0)
        pending.cancel()
        with pytest.raises(ValueError, match="only a fired event"):
            kernel.rearm(pending, 2.0)
        fired = kernel.schedule(3.0, lambda t: None)
        assert kernel.step() is fired
        fired.cancel()  # after firing: nothing to withdraw, but it stays dead
        with pytest.raises(ValueError, match="only a fired event"):
            kernel.rearm(fired, 4.0)
        assert kernel.pending == 0 and kernel.heap_size == 0

    def test_a_fired_event_of_another_kernel_or_a_run_is_refused(self):
        kernel, other = EventKernel(), EventKernel()
        foreign = other.schedule(1.0, lambda t: None)
        assert other.step() is foreign
        with pytest.raises(ValueError, match="its own kernel"):
            kernel.rearm(foreign, 2.0)
        kernel.schedule_batch([1.0], lambda t: None)
        transient = kernel.step()  # a run element's firing has no handle
        with pytest.raises(ValueError, match="its own kernel"):
            kernel.rearm(transient, 2.0)

    @pytest.mark.parametrize("time", [float("nan"), float("inf"), -1.0])
    def test_a_bad_time_is_refused_and_leaves_the_event_fired(self, time):
        kernel = EventKernel()
        event = kernel.schedule(1.0, lambda t: None)
        kernel.step()
        with pytest.raises(ValueError):
            kernel.rearm(event, time)
        assert kernel.pending == 0 and kernel.heap_size == 0
        kernel.rearm(event, 2.0)
        assert kernel.pending == 1

    def test_a_rearmed_event_takes_a_fresh_sequence_and_fires_once(self):
        kernel = EventKernel()
        fired = []
        event = kernel.schedule(1.0, fired.append, priority=3, kind="service")
        kernel.schedule(5.0, lambda t: None)
        kernel.schedule_batch([2.0, 6.0, 7.0], lambda t: None)
        assert kernel.step() is event and fired == [1.0]
        issued = [entry[2] for entry in kernel._heap]
        pending = kernel.pending

        kernel.rearm(event, 6.0)
        assert event.sequence > max(issued)
        assert (event.time, event.priority, event.kind) == (6.0, 3, "service")
        assert kernel.pending == pending + 1
        order = []
        while (step := kernel.step()) is not None:
            order.append((step.time, step.sequence))
        # Rearmed after the batch was admitted, it fires after the batch's
        # element at the same timestamp, exactly as a fresh schedule would.
        assert fired == [1.0, 6.0]
        assert order == sorted(order)
        assert [t for t, _ in order] == [2.0, 5.0, 6.0, 6.0, 7.0]
        assert order[3] == (6.0, event.sequence)
        assert kernel.pending == 0 and kernel.events_processed == 6

    def test_an_outage_cancels_the_service_event_and_the_restart_takes_another(self):
        scheduler = CloudScheduler(policy="fifo", downtime_seconds=0.0)
        scheduler.register_device(build_qpu("Belem"), queue_model_for("Belem"))
        first = scheduler.submit("Belem", arrival=0.0, duration=100.0)
        scheduler.inject_outage("Belem", start=50.0, duration=10.0)
        kernel, queue = scheduler.kernel, scheduler.queues["Belem"]
        kernel.run_until_time(0.0)
        cut = queue._service_event
        assert cut is not None and cut.time == 100.0
        second = scheduler.submit("Belem", arrival=20.0, duration=30.0)

        fired = []
        while not second.done:
            fired.append(kernel.step())
        assert cut.cancelled and all(event is not cut for event in fired)
        assert kernel.events_processed == 1 + len(fired)
        completions = [e for e in fired if e.kind == "service_complete"]
        # The restart took a fresh event; the second service re-armed it.
        assert len(completions) == 2 and completions[0] is completions[1]
        assert completions[0] is queue._service_event is not cut
        assert (first.start_time, first.finish_time) == (60.0, 160.0)
        assert (second.start_time, second.finish_time) == (160.0, 190.0)
        assert queue.completed == [first, second]
