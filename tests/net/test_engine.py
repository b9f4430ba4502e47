"""Tests for the discrete-event engine."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.net.engine import Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, fired.append, "late")
        sim.schedule(1.0, fired.append, "early")
        sim.run()
        assert fired == ["early", "late"]

    def test_ties_break_by_scheduling_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "first")
        sim.schedule(1.0, fired.append, "second")
        sim.run()
        assert fired == ["first", "second"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(3.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [3.5]
        assert sim.now == 3.5

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_events_can_schedule_events(self):
        sim = Simulator()
        fired = []

        def chain(n):
            fired.append(sim.now)
            if n > 0:
                sim.schedule(1.0, chain, n - 1)

        sim.schedule(0.0, chain, 3)
        sim.run()
        assert fired == [0.0, 1.0, 2.0, 3.0]


class TestNaNRejected:
    """NaN compares false with everything, so a NaN event would sit
    anywhere in the heap and fire out of order; it is refused."""

    def test_schedule_nan_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(math.nan, lambda: None)
        assert sim.pending_events == 0

    def test_schedule_at_nan_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_at(math.nan, lambda: None)
        assert sim.pending_events == 1

    def test_schedule_at_nan_rejected_mid_run(self):
        sim = Simulator()
        errors = []

        def schedule_nan():
            try:
                sim.schedule_at(math.nan, lambda: None)
            except SimulationError as error:
                errors.append(error)

        sim.schedule(2.0, schedule_nan)
        sim.run()
        assert len(errors) == 1

    def test_run_until_nan_rejected(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        with pytest.raises(SimulationError):
            sim.run(until=math.nan)
        assert fired == []
        # The refused call leaves the simulator usable.
        sim.run()
        assert fired == ["a"]

    def test_round_off_in_the_past_clamps_to_now(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        handle = sim.schedule_at(1.0 - 1e-13, lambda: None)
        assert handle.time == 1.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, fired.append, "x")
        handle.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert handle.cancelled

    def test_pending_events_excludes_cancelled(self):
        sim = Simulator()
        keep = sim.schedule(1.0, lambda: None)
        drop = sim.schedule(2.0, lambda: None)
        drop.cancel()
        assert sim.pending_events == 1
        keep.cancel()
        assert sim.pending_events == 0


class TestRunUntil:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(5.0, fired.append, "b")
        sim.run(until=2.0)
        assert fired == ["a"]
        assert sim.now == 2.0

    def test_event_exactly_at_until_fires(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, fired.append, "edge")
        sim.run(until=2.0)
        assert fired == ["edge"]

    def test_resume_after_partial_run(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(5.0, fired.append, "b")
        sim.run(until=2.0)
        sim.run()
        assert fired == ["a", "b"]

    def test_reentrant_run_rejected(self):
        sim = Simulator()

        def nested():
            sim.run()

        sim.schedule(1.0, nested)
        with pytest.raises(SimulationError):
            sim.run()

    def test_run_until_idle_raises_on_runaway(self):
        sim = Simulator()

        def forever():
            sim.schedule(1.0, forever)

        sim.schedule(0.0, forever)
        with pytest.raises(SimulationError):
            sim.run_until_idle(max_time=10.0)

    def test_run_until_idle_finishes_quiet_sims(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run_until_idle(max_time=10.0)
        assert sim.pending_events == 0


class TestPendingCounter:
    """pending_events is a live counter, not a queue scan."""

    def test_counts_scheduled_events(self):
        sim = Simulator()
        for delay in (1.0, 2.0, 3.0):
            sim.schedule(delay, lambda: None)
        assert sim.pending_events == 3

    def test_cancel_decrements_immediately(self):
        sim = Simulator()
        handles = [sim.schedule(float(i), lambda: None) for i in (1, 2)]
        handles[0].cancel()
        # The cancelled entry still sits in the heap, but the count
        # reflects only live events.
        assert sim.pending_events == 1

    def test_double_cancel_does_not_double_decrement(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert sim.pending_events == 1

    def test_cancel_after_firing_is_harmless(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run(until=1.5)
        handle.cancel()
        assert sim.pending_events == 1

    def test_counter_tracks_across_partial_runs(self):
        sim = Simulator()
        for delay in (1.0, 5.0, 9.0):
            sim.schedule(delay, lambda: None)
        sim.run(until=2.0)
        assert sim.pending_events == 2
        sim.run()
        assert sim.pending_events == 0

    def test_counter_matches_queue_scan(self):
        # The counter must agree with the definitionally correct O(n)
        # scan under a mixed schedule/cancel/run workload.
        sim = Simulator()
        handles = [
            sim.schedule(float(i % 7) + 0.5, lambda: None)
            for i in range(40)
        ]
        for handle in handles[::3]:
            handle.cancel()
        sim.run(until=3.0)
        scan = sum(
            1 for _, _, event in sim._queue if not event.cancelled
        )
        assert sim.pending_events == scan

    def test_events_cancelled_by_handlers_mid_run(self):
        sim = Simulator()
        fired = []
        victim = sim.schedule(2.0, fired.append, "victim")
        sim.schedule(1.0, victim.cancel)
        sim.schedule(3.0, fired.append, "survivor")
        sim.run()
        assert fired == ["survivor"]
        assert sim.pending_events == 0


class TestTimestampEndBarrier:
    """call_at_timestamp_end defers work to the end of the current instant."""

    def test_barrier_runs_after_all_same_time_events(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, order.append, "a")
        sim.schedule(1.0, lambda: sim.call_at_timestamp_end(
            lambda: order.append("barrier")
        ))
        sim.schedule(1.0, order.append, "b")
        sim.schedule(2.0, order.append, "later")
        sim.run()
        assert order == ["a", "b", "barrier", "later"]

    def test_barrier_runs_before_clock_advances(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: sim.call_at_timestamp_end(
            lambda: seen.append(sim.now)
        ))
        sim.schedule(4.0, lambda: None)
        sim.run()
        assert seen == [1.0]

    def test_barrier_runs_when_queue_drains(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: sim.call_at_timestamp_end(
            lambda: seen.append(sim.now)
        ))
        sim.run()
        assert seen == [1.0]
        assert sim.now == 1.0

    def test_barrier_runs_before_run_until_pads_clock(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: sim.call_at_timestamp_end(
            lambda: seen.append(sim.now)
        ))
        sim.run(until=10.0)
        assert seen == [1.0]
        assert sim.now == 10.0

    def test_barrier_may_schedule_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: sim.call_at_timestamp_end(
            lambda: sim.schedule(0.5, lambda: fired.append(sim.now))
        ))
        sim.run()
        assert fired == [1.5]

    def test_barrier_event_at_current_time_reopens_timestamp(self):
        sim = Simulator()
        order = []

        def barrier():
            order.append("barrier")
            sim.schedule(0.0, order.append, "reopened")

        sim.schedule(1.0, lambda: sim.call_at_timestamp_end(barrier))
        sim.schedule(2.0, order.append, "later")
        sim.run()
        assert order == ["barrier", "reopened", "later"]

    def test_barriers_registered_outside_run_fire_before_first_advance(self):
        sim = Simulator()
        order = []
        sim.call_at_timestamp_end(lambda: order.append(("barrier", sim.now)))
        sim.schedule(3.0, lambda: order.append(("event", sim.now)))
        sim.run()
        assert order == [("barrier", 0.0), ("event", 3.0)]

    def test_barrier_callbacks_are_not_events(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: sim.call_at_timestamp_end(lambda: None))
        sim.run()
        assert sim.events_fired == 1

    def test_multiple_barriers_fire_in_registration_order(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda: [
            sim.call_at_timestamp_end(lambda: order.append("first")),
            sim.call_at_timestamp_end(lambda: order.append("second")),
        ])
        sim.run()
        assert order == ["first", "second"]


#: Delays with many exact ties (0 included) so ordering by ``seq`` is
#: exercised as often as ordering by time.
_DELAYS = st.sampled_from([0.0, 0.0, 0.25, 1.0, 1.0, 2.5])


class TestOrderingProperty:
    """Random schedule / cancel / reschedule / barrier programs fire in
    ``(time, seq)`` order, checked against a sorted reference model."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_fires_in_time_seq_order(self, data):
        sim = Simulator()
        seq = itertools.count(1)
        # Reference model: every live event by its (time, seq) key.
        live: dict[tuple[float, int], object] = {}
        fired: list[tuple[float, int]] = []
        done = []
        budget = [40]

        def check_counter():
            scan = sum(1 for _, _, event in sim._queue if not event.cancelled)
            assert sim.pending_events == scan == len(live)

        def fire(key):
            # The engine must fire exactly the smallest live key.
            assert key == min(live)
            assert sim.now == key[0]
            done.append(live.pop(key))
            fired.append(key)
            act()

        def barrier(registered_at):
            assert sim.now == registered_at
            act()

        def act():
            for _ in range(data.draw(st.integers(0, 3))):
                kind = data.draw(
                    st.sampled_from(
                        ["schedule", "schedule", "cancel", "late", "barrier"]
                    )
                )
                if kind == "schedule" and budget[0] > 0:
                    budget[0] -= 1
                    delay = data.draw(_DELAYS)
                    key = (sim.now + delay, next(seq))
                    live[key] = sim.schedule(delay, fire, key)
                elif kind == "cancel" and live:
                    key = data.draw(st.sampled_from(sorted(live)))
                    live.pop(key).cancel()
                elif kind == "late" and done:
                    data.draw(st.sampled_from(done)).cancel()
                elif kind == "barrier" and budget[0] > 0:
                    budget[0] -= 1
                    sim.call_at_timestamp_end(
                        lambda at=sim.now: barrier(at)
                    )
                check_counter()

        act()
        for until in data.draw(
            st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]), max_size=2)
        ):
            if until >= sim.now:
                sim.run(until=until)
                assert all(key[0] > until for key in live)
                check_counter()
                act()
        sim.run()
        check_counter()
        assert live == {}
        assert fired == sorted(fired)
        assert sim.events_fired == len(fired)
