"""Coroutine tasks driven by the simulator."""

from __future__ import annotations

import inspect
from typing import Any, Coroutine, Optional

from repro.errors import CancelledError, SimulationError
from repro.sim.futures import SimFuture


class Task(SimFuture):
    """A coroutine scheduled on the simulator.

    A task is itself a future: awaiting a task waits for the wrapped
    coroutine to return, and ``result()`` yields the coroutine's return
    value (or re-raises its exception).
    """

    __slots__ = ("_coro", "_waiting_on", "_started", "_cancel_with")

    def __init__(self, sim: Any, coro: Coroutine, name: str = "") -> None:
        super().__init__(sim, name=name or getattr(coro, "__name__", "task"))
        if not hasattr(coro, "send"):
            raise SimulationError("Task requires a coroutine object")
        self._coro = coro
        self._waiting_on: Optional[SimFuture] = None
        self._started = False
        # The exception a requested cancellation throws into the coroutine.
        self._cancel_with: Optional[BaseException] = None

    # -- lifecycle --------------------------------------------------------

    def cancel(self, exc: Optional[BaseException] = None) -> bool:
        """Request cancellation.

        If the task has not completed, ``exc`` (a :class:`CancelledError`
        when none is given) is thrown into the coroutine at its next
        resumption point; a coroutine that lets any other ``exc`` escape
        fails the task with it.
        """
        if self.done():
            return False
        self._cancel_with = exc or CancelledError(f"task {self.name!r} cancelled")
        waiting = self._waiting_on
        if waiting is not None and not waiting.done():
            # Wake the task up so the cancellation is delivered promptly.
            waiting.cancel()
        elif not self._started:
            self._sim.call_soon(self._step, None)
        return True

    @property
    def entered(self) -> bool:
        """Whether the coroutine has begun to run.  A cancel delivered
        before then runs none of its body, ``finally`` blocks included."""
        return inspect.getcoroutinestate(self._coro) != inspect.CORO_CREATED

    # -- stepping ---------------------------------------------------------

    def _start(self) -> None:
        if not self._started:
            self._started = True
            self._sim.call_soon(self._step, None)

    def _step(self, completed: Optional[SimFuture]) -> None:
        if self.done():
            return
        self._waiting_on = None
        try:
            if self._cancel_with is not None:
                exc, self._cancel_with = self._cancel_with, None
                yielded = self._coro.throw(exc)
            elif completed is None:
                yielded = self._coro.send(None)
            elif completed.exception() is not None:
                yielded = self._coro.throw(completed.exception())
            else:
                yielded = self._coro.send(completed.result())
        except StopIteration as stop:
            if not self.done():
                self.set_result(stop.value)
            return
        except CancelledError as exc:
            if not self.done():
                super().cancel()
            return
        except BaseException as exc:  # noqa: BLE001 - propagate via the future
            if not self.done():
                self.set_exception(exc)
            return

        if not isinstance(yielded, SimFuture):
            self.set_exception(
                SimulationError(
                    f"task {self.name!r} awaited a non-sim awaitable: {yielded!r}"
                )
            )
            return
        self._waiting_on = yielded
        yielded.add_done_callback(self._step)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Task {self.name!r} done={self.done()}>"
