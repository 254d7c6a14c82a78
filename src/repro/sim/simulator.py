"""The discrete-event simulator (virtual-time event loop)."""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Coroutine, Iterable, List, Optional, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.sim.futures import SimFuture
from repro.sim.tasks import Task


class _Event:
    """A scheduled callback.  The heap holds ``(time, seq, event)`` tuples, so
    ordering by (time, sequence number) is compared in C; ``seq`` is unique,
    so the event itself is never compared."""

    __slots__ = ("time", "callback", "args", "cancelled")

    def __init__(self, time: float, callback: Callable, args: tuple) -> None:
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False


class EventHandle:
    """Handle returned by :meth:`Simulator.schedule`; allows cancellation."""

    __slots__ = ("_sim", "_event")

    def __init__(self, sim: "Simulator", event: _Event) -> None:
        self._sim = sim
        self._event = event

    def cancel(self) -> None:
        # Lazy cancellation: the event stays in the heap (removal from the
        # middle of a binary heap is O(n)) and is skipped when popped.  The
        # simulator counts live tombstones so it can compact the heap once
        # they dominate — without that, per-command timers cancelled on the
        # fast path accumulate without bound under open-loop load.
        if not self._event.cancelled:
            self._event.cancelled = True
            self._sim._note_cancelled()

    @property
    def time(self) -> float:
        return self._event.time


class Simulator:
    """Deterministic virtual-time event loop.

    The simulator owns a virtual clock (seconds), a priority queue of
    events, and a seeded random generator shared by latency models so that
    entire experiments are reproducible from a single seed.
    """

    #: Heaps smaller than this are never compacted (the rebuild would cost
    #: more than the tombstones it removes).
    _COMPACT_MIN_EVENTS = 256

    def __init__(self, *, seed: int = 0) -> None:
        self._now = 0.0
        self._heap: List[Tuple[float, int, _Event]] = []
        self._seq = itertools.count()
        self._rng = np.random.default_rng(seed)
        self._processed_events = 0
        # Live cancelled events still sitting in the heap (lazy cancel).
        self._cancelled_in_heap = 0
        self._heap_compactions = 0

    # -- clock ------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def rng(self) -> np.random.Generator:
        """Shared, seeded random generator for latency models/workloads."""
        return self._rng

    @property
    def processed_events(self) -> int:
        return self._processed_events

    @property
    def heap_size(self) -> int:
        """Events currently in the heap, cancelled tombstones included."""
        return len(self._heap)

    @property
    def cancelled_in_heap(self) -> int:
        """Cancelled events awaiting lazy removal (bounded by compaction)."""
        return self._cancelled_in_heap

    @property
    def heap_compactions(self) -> int:
        return self._heap_compactions

    def _note_cancelled(self) -> None:
        self._cancelled_in_heap += 1
        # Compact once tombstones dominate the heap (~50%): one O(n)
        # rebuild halves the heap, so the cost amortises to O(1) per
        # cancellation while peak occupancy stays within 2x of live events.
        if (
            len(self._heap) > self._COMPACT_MIN_EVENTS
            and self._cancelled_in_heap * 2 > len(self._heap)
        ):
            self._compact_heap()

    def _compact_heap(self) -> None:
        self._heap = [entry for entry in self._heap if not entry[2].cancelled]
        heapq.heapify(self._heap)
        self._cancelled_in_heap = 0
        self._heap_compactions += 1

    def _discard_cancelled(self) -> None:
        """Bookkeeping for a cancelled event that was popped normally."""
        if self._cancelled_in_heap > 0:
            self._cancelled_in_heap -= 1

    # -- scheduling primitives ---------------------------------------------

    def schedule(self, delay: float, callback: Callable, *args: Any) -> EventHandle:
        """Run ``callback(*args)`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.call_at(self._now + delay, callback, *args)

    def call_at(self, when: float, callback: Callable, *args: Any) -> EventHandle:
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at {when} before current time {self._now}"
            )
        event = _Event(when, callback, args)
        heapq.heappush(self._heap, (when, next(self._seq), event))
        return EventHandle(self, event)

    def call_soon(self, callback: Callable, *args: Any) -> EventHandle:
        """Run ``callback(*args)`` at the current virtual time (FIFO order)."""
        return self.call_at(self._now, callback, *args)

    # -- futures / tasks ---------------------------------------------------

    def create_future(self, name: str = "") -> SimFuture:
        return SimFuture(self, name=name)

    def create_task(self, coro: Coroutine, name: str = "") -> Task:
        """Wrap a coroutine into a task and schedule its first step."""
        task = Task(self, coro, name=name)
        task._start()
        return task

    def sleep(self, delay: float) -> SimFuture:
        """Return a future that resolves after ``delay`` seconds."""
        future = self.create_future(name=f"sleep({delay})")
        self.schedule(delay, self._resolve_if_pending, future, None)
        return future

    def timeout(self, awaitable: SimFuture, delay: float) -> SimFuture:
        """Return a future resolving with ``(done, value)``.

        ``done`` is True and ``value`` is the awaitable's result if it
        completed before the timeout, otherwise ``(False, None)``.
        """
        result = self.create_future(name="timeout")

        def on_done(fut: SimFuture) -> None:
            # Cancel the pending timer so short-lived awaitables don't
            # leave one tombstone per call sitting in the heap.
            timer.cancel()
            if result.done():
                return
            if fut.exception() is not None:
                result.set_exception(fut.exception())
            else:
                result.set_result((True, fut.result()))

        def on_timeout() -> None:
            if not result.done():
                result.set_result((False, None))

        timer = self.schedule(delay, on_timeout)
        awaitable.add_done_callback(on_done)
        return result

    def gather(self, awaitables: Iterable[SimFuture]) -> SimFuture:
        """Return a future resolving with the list of all results.

        The first exception (in completion order) fails the gather.
        """
        futures = list(awaitables)
        result = self.create_future(name="gather")
        if not futures:
            result.set_result([])
            return result
        remaining = [len(futures)]
        values: List[Any] = [None] * len(futures)

        def make_callback(index: int) -> Callable[[SimFuture], None]:
            def callback(fut: SimFuture) -> None:
                if result.done():
                    return
                if fut.exception() is not None:
                    result.set_exception(fut.exception())
                    return
                values[index] = fut.result()
                remaining[0] -= 1
                if remaining[0] == 0:
                    result.set_result(values)

            return callback

        for index, future in enumerate(futures):
            future.add_done_callback(make_callback(index))
        return result

    @staticmethod
    def _resolve_if_pending(future: SimFuture, value: Any) -> None:
        if not future.done():
            future.set_result(value)

    # -- running -----------------------------------------------------------

    def step(self) -> bool:
        """Process a single event; return False if the queue is empty."""
        while self._heap:
            when, _, event = heapq.heappop(self._heap)
            if event.cancelled:
                self._discard_cancelled()
                continue
            self._now = when
            self._processed_events += 1
            event.callback(*event.args)
            # A late ``cancel()`` on an already-executed event must be a
            # no-op (it is no longer in the heap), so mark it directly
            # without touching the tombstone counter.
            event.cancelled = True
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Drain the event queue.

        ``until`` stops once virtual time would exceed the bound;
        ``max_events`` bounds the number of processed events (a guard
        against accidental infinite loops in tests).
        """
        processed = 0
        while self._heap:
            when, _, next_event = self._heap[0]
            if next_event.cancelled:
                heapq.heappop(self._heap)
                self._discard_cancelled()
                continue
            if until is not None and when > until:
                self._now = until
                return
            self.step()
            processed += 1
            if max_events is not None and processed >= max_events:
                raise SimulationError(f"exceeded max_events={max_events}")

    def run_until_complete(self, awaitable: Any, max_events: Optional[int] = None) -> Any:
        """Run the loop until ``awaitable`` (coroutine, task or future) completes."""
        if hasattr(awaitable, "send") and not isinstance(awaitable, SimFuture):
            awaitable = self.create_task(awaitable)
        if not isinstance(awaitable, SimFuture):
            raise SimulationError(f"cannot run {awaitable!r} to completion")
        processed = 0
        while not awaitable.done():
            if not self.step():
                raise SimulationError(
                    "event queue drained before the awaitable completed (deadlock?)"
                )
            processed += 1
            if max_events is not None and processed >= max_events:
                raise SimulationError(f"exceeded max_events={max_events}")
        return awaitable.result()
