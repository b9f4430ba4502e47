"""Discrete-event simulation engine.

A minimal, deterministic event loop.  The heap holds ``(time, seq,
handle)`` tuples: ``seq`` is unique and increasing, so ties in time
break by scheduling order (runs are exactly reproducible) and
``heapq`` orders entries by comparing a float and an int in C, never
reaching the :class:`EventHandle`, which carries the callback and the
cancelled flag.
"""

from __future__ import annotations

import heapq
import math
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable

from ..errors import SimulationError
from ..obs.events import SimulationCompleted, SimulationStarted

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.tracer import Tracer


class EventHandle:
    """A scheduled event that can be cancelled before it fires."""

    __slots__ = ("time", "_callback", "_args", "_cancelled", "_sim")

    def __init__(
        self,
        time: float,
        callback: Callable[..., None],
        args: tuple[Any, ...],
        sim: "Simulator | None" = None,
    ) -> None:
        self.time = time
        self._callback = callback
        self._args = args
        self._cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing (idempotent)."""
        if self._cancelled:
            return
        self._cancelled = True
        # Keep the owning simulator's live-event count exact: the
        # handle leaves the count the moment it is cancelled, not when
        # the stale heap entry is eventually popped.  ``_sim`` is None
        # once the event has been popped, so a late cancel (after the
        # callback already fired) cannot corrupt the count.
        sim = self._sim
        if sim is not None:
            self._sim = None
            sim._live -= 1

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` was called."""
        return self._cancelled


class Simulator:
    """The simulated clock and event queue.

    Typical use::

        sim = Simulator()
        sim.schedule(1.5, my_callback, arg)
        sim.run()

    Args:
        tracer: optional event tracer; when enabled, each ``run``
            brackets its events with ``SimulationStarted`` /
            ``SimulationCompleted``.
    """

    def __init__(self, tracer: "Tracer | None" = None) -> None:
        self._now = 0.0
        self._seq = 0
        self._queue: list[tuple[float, int, EventHandle]] = []
        self._live = 0
        self._running = False
        self._tracer = tracer
        self._events_fired = 0
        self._barriers: list[Callable[[], None]] = []

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Total callbacks the event loop has executed."""
        return self._events_fired

    @property
    def pending_events(self) -> int:
        """Number of queued, non-cancelled events.

        O(1): backed by a live counter maintained on schedule, cancel
        and pop rather than a scan of the heap (which still holds
        cancelled entries until they surface).
        """
        return self._live

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Args:
            delay: non-negative offset from the current time.
            callback: function invoked when the event fires.
            *args: positional arguments for the callback.

        Returns:
            A cancellable :class:`EventHandle`.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: {delay}")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulated ``time``.

        A time up to 1e-12 s in the past (float round-off) is clamped
        to now; earlier times and NaN raise :class:`SimulationError`.
        """
        now = self._now
        # One comparison on the fast path; NaN fails it and every
        # comparison below, so it lands in the error branch.
        if not time >= now:
            if not time >= now - 1e-12:
                raise SimulationError(
                    f"cannot schedule at {time}, current time is {now}"
                )
            time = now
        self._seq = seq = self._seq + 1
        event = EventHandle(time, callback, args, self)
        heapq.heappush(self._queue, (time, seq, event))
        self._live += 1
        return event

    def call_at_timestamp_end(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` once all events at the current instant fired.

        The *end-of-timestamp barrier*: callbacks registered here run
        after every event scheduled at the current simulated time has
        been processed, and strictly before the clock advances (or the
        run returns).  Components use it to coalesce a burst of
        same-instant updates into one deferred recomputation.

        Barrier callbacks are not events: they consume no sequence
        number, do not count toward :attr:`events_fired`, and may
        schedule ordinary events (including at the current time, which
        re-opens the timestamp and re-arms any barriers registered
        during the drain).
        """
        self._barriers.append(callback)

    def _drain_barriers(self) -> None:
        barriers = self._barriers
        while barriers:
            pending = barriers[:]
            barriers.clear()
            for callback in pending:
                callback()

    def run(self, until: float | None = None) -> None:
        """Process events in time order.

        Args:
            until: stop once the clock would pass this time (the event
                at exactly ``until`` still fires); ``None`` runs until
                the queue drains.
        """
        if self._running:
            raise SimulationError("run() called re-entrantly")
        if until is not None and math.isnan(until):
            raise SimulationError("cannot run until NaN")
        self._running = True
        tracer = self._tracer
        tracing = tracer is not None and tracer.enabled
        if tracing:
            tracer.emit(
                SimulationStarted(
                    time=self._now, pending=self.pending_events
                )
            )
        wall_started = perf_counter() if tracing else 0.0
        fired = 0
        # Hot loop: locals beat attribute loads, the time limit is a
        # plain float compare (inf when unbounded), and cancelled
        # entries are discarded without touching the live counter
        # (cancel() already removed them from it).  End-of-timestamp
        # barriers drain whenever the next live event would move the
        # clock (and when the queue runs dry), before time advances.
        queue = self._queue
        pop = heapq.heappop
        barriers = self._barriers
        limit = float("inf") if until is None else until
        try:
            while queue or barriers:
                if not queue:
                    self._drain_barriers()
                    if not queue:
                        break
                    continue
                time, _, event = queue[0]
                if event._cancelled:
                    pop(queue)
                    continue
                if barriers and time > self._now:
                    self._drain_barriers()
                    continue
                if time > limit:
                    break
                pop(queue)
                event._sim = None
                self._live -= 1
                self._now = time
                fired += 1
                event._callback(*event._args)
            if until is not None and self._now < until:
                self._now = until
        finally:
            self._events_fired += fired
            self._running = False
        if tracing:
            tracer.emit(
                SimulationCompleted(
                    time=self._now,
                    events_fired=fired,
                    wall_seconds=perf_counter() - wall_started,
                )
            )

    def run_until_idle(self, max_time: float = 1e9) -> None:
        """Run until no events remain, guarding against runaway loops.

        Raises:
            SimulationError: if the clock exceeds ``max_time`` with
                events still pending (almost always a scheduling bug).
        """
        self.run(until=max_time)
        if self.pending_events:
            raise SimulationError(
                f"simulation still has {self.pending_events} events pending "
                f"at the {max_time}s safety limit"
            )
