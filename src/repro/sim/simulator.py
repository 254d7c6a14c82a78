"""The discrete-event simulator (virtual-time event loop)."""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Coroutine, Iterable, List, Optional, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.sim.futures import SimFuture
from repro.sim.tasks import Task


class Simulator:
    """Deterministic virtual-time event loop.

    The simulator owns a virtual clock (seconds), a priority queue of
    events, and a seeded random generator shared by latency models so that
    entire experiments are reproducible from a single seed.
    """

    def __init__(self, *, seed: int = 0) -> None:
        self._now = 0.0
        #: ``(time, seq, callback, args)``: ordered by (time, sequence number)
        #: in C; ``seq`` is unique, so the callback is never compared.
        self._heap: List[Tuple[float, int, Callable, tuple]] = []
        self._seq = itertools.count()
        self._rng = np.random.default_rng(seed)
        self._processed_events = 0
        #: Armed periodic timers (``repro.sim.periodic``), one pending tick
        #: each: what :meth:`_only_ticks` tells apart from real work.
        self.armed_timers: List[Any] = []

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
        """Events currently in the heap: every one of them will run."""
        return len(self._heap)

    @property
    def cancelled_in_heap(self) -> int:
        """Always 0: a scheduled event is never cancelled (``perf/worker.py``'s
        drained-queue check reads it)."""
        return 0

    # -- scheduling primitives ---------------------------------------------

    def schedule(self, delay: float, callback: Callable, *args: Any) -> None:
        """Run ``callback(*args)`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self.call_at(self._now + delay, callback, *args)

    def call_at(self, when: float, callback: Callable, *args: Any) -> None:
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at {when} before current time {self._now}"
            )
        heapq.heappush(self._heap, (when, next(self._seq), callback, args))

    def call_soon(self, callback: Callable, *args: Any) -> None:
        """Run ``callback(*args)`` at the current virtual time (FIFO order)."""
        self.call_at(self._now, callback, *args)

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
        if not self._heap:
            return False
        when, _, callback, args = heapq.heappop(self._heap)
        self._now = when
        self._processed_events += 1
        callback(*args)
        return True

    def _only_ticks(self) -> bool:
        """Every live event is the tick of an armed timer that only watches
        and will re-arm: the clock would run forever and nothing else would
        ever happen."""
        timers = self.armed_timers
        return (
            len(self._heap) == len(timers)
            and all(timer.idle() for timer in timers)
        )

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Drain the event queue.

        ``until`` stops once virtual time would exceed the bound, ticking
        every armed timer up to it; without it the run also ends once
        nothing but timer ticks is pending (:meth:`_only_ticks`).
        ``max_events`` bounds the number of processed events (a guard
        against accidental infinite loops in tests).
        """
        processed = 0
        while self._heap:
            when = self._heap[0][0]
            if until is None:
                if self.armed_timers and self._only_ticks():
                    return
            elif when > until:
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
            if (self.armed_timers and self._only_ticks()) or not self.step():
                raise SimulationError(
                    "event queue drained (timer ticks aside) before the awaitable "
                    "completed (deadlock?)"
                )
            processed += 1
            if max_events is not None and processed >= max_events:
                raise SimulationError(f"exceeded max_events={max_events}")
        return awaitable.result()
