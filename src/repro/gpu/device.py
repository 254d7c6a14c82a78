"""The simulated accelerator: a serial executor with busy/idle states.

The device mirrors the execution model the paper's adaptive batch scheduler
relies on (§6.1): the GPU is either *busy* (processing one dispatched batch)
or *idle*; the moment it becomes idle, the inference layer notifies the
control layer so the scheduler can form and dispatch the next batch
(work-conserving scheduling).

Batches are submitted as :class:`DeviceBatch` objects carrying a ``run``
callable (the actual tensor math, executed against
:class:`~repro.gpu.memory.DeviceMemory`) and a pre-computed virtual-time
cost.  The device runs the math eagerly but only resolves the batch future
after the cost has elapsed, and it processes one batch at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Callable, Deque, Iterable, List, Optional

from collections import deque

from repro.errors import FaultInjectedError, SimulationError
from repro.sim.futures import SimFuture
from repro.sim.simulator import Simulator


def sum_stats(cls: type, records: Iterable[Any]) -> Any:
    """Field-wise sum of counter dataclasses (:class:`DeviceStats`, the
    scheduler's ``SchedulerStats``) into a fresh ``cls()``: numbers add,
    per-key dict counters add key by key, anything else (a histogram)
    ``merge``s.  Walks ``dataclasses.fields``, so a counter added to the
    class is aggregated without being named here."""
    total = cls()
    for record in records:
        for spec in fields(cls):
            mine, theirs = getattr(total, spec.name), getattr(record, spec.name)
            if isinstance(theirs, dict):
                for key, count in theirs.items():
                    mine[key] = mine.get(key, 0) + count
            elif isinstance(theirs, (int, float)):
                setattr(total, spec.name, mine + theirs)
            else:
                mine.merge(theirs)
    return total


@dataclass
class DeviceBatch:
    """A unit of work dispatched to the device."""

    kind: str
    run: Callable[[], Any]
    cost_seconds: float
    future: SimFuture
    size: int = 1


@dataclass
class DeviceStats:
    """Aggregate execution statistics (used by experiments and tests)."""

    batches_executed: int = 0
    busy_seconds: float = 0.0
    items_executed: int = 0
    batches_by_kind: dict = field(default_factory=dict)

    def record(self, batch: DeviceBatch) -> None:
        self.batches_executed += 1
        self.busy_seconds += batch.cost_seconds
        self.items_executed += batch.size
        self.batches_by_kind[batch.kind] = self.batches_by_kind.get(batch.kind, 0) + 1


class SimDevice:
    """Serial batch executor with idle notifications."""

    def __init__(self, sim: Simulator, name: str = "gpu0") -> None:
        self.sim = sim
        self.name = name
        self._queue: Deque[DeviceBatch] = deque()
        self._busy = False
        self._idle_callbacks: List[Callable[[], None]] = []
        self.stats = DeviceStats()
        # Chaos plane (repro.sim.faults): a crashed device is fail-stop for
        # new work — submissions resolve with FaultInjectedError after zero
        # cost; batches already accepted drain normally (their results are
        # discarded when the failover sweep terminates their owners).
        self.down = False
        self.down_since: Optional[float] = None

    # -- state ----------------------------------------------------------------

    @property
    def busy(self) -> bool:
        return self._busy

    # -- fault injection --------------------------------------------------------

    def mark_down(self) -> None:
        """Fail-stop the device (injected shard crash)."""
        if not self.down:
            self.down = True
            self.down_since = self.sim.now

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of virtual time the device spent busy."""
        elapsed = elapsed if elapsed is not None else self.sim.now
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.stats.busy_seconds / elapsed)

    # -- idle notification ------------------------------------------------------

    def on_idle(self, callback: Callable[[], None]) -> None:
        """Register a callback fired whenever the device transitions to idle."""
        self._idle_callbacks.append(callback)

    def _notify_idle(self) -> None:
        for callback in list(self._idle_callbacks):
            callback()

    # -- submission ---------------------------------------------------------------

    def submit(
        self,
        kind: str,
        run: Callable[[], Any],
        cost_seconds: float,
        size: int = 1,
    ) -> SimFuture:
        """Queue a batch for execution; returns a future for its results."""
        if cost_seconds < 0:
            raise SimulationError("device batch cost must be non-negative")
        future = self.sim.create_future(name=f"{self.name}:{kind}")
        if self.down:
            self.sim.schedule(
                0.0,
                future.set_exception,
                FaultInjectedError(
                    f"device {self.name} is down (injected shard crash)",
                    kind="shard_crash",
                ),
            )
            return future
        batch = DeviceBatch(
            kind=kind,
            run=run,
            cost_seconds=cost_seconds,
            future=future,
            size=size,
        )
        self._queue.append(batch)
        if not self._busy:
            self._start_next()
        return future

    # -- execution ---------------------------------------------------------------

    def _start_next(self) -> None:
        if self._busy or not self._queue:
            return
        batch = self._queue.popleft()
        self._busy = True
        try:
            result = batch.run()
        except BaseException as exc:  # noqa: BLE001 - surfaced via the future
            self.sim.schedule(batch.cost_seconds, self._finish, batch, None, exc)
            return
        self.sim.schedule(batch.cost_seconds, self._finish, batch, result, None)

    def _finish(
        self, batch: DeviceBatch, result: Any, error: Optional[BaseException]
    ) -> None:
        self.stats.record(batch)
        self._busy = False
        if error is not None:
            batch.future.set_exception(error)
        else:
            batch.future.set_result(result)
        if self._queue:
            self._start_next()
        else:
            self._notify_idle()
