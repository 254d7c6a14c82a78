"""The one self-re-arming timer on the virtual clock."""

from __future__ import annotations

from typing import Callable

from repro.sim.simulator import Simulator


class PeriodicService:
    """Calls ``tick()`` every ``period_s`` of virtual time while ``active()``.

    :meth:`poke` arms the timer (once, however often it is poked); each
    firing runs ``tick`` and re-arms only if ``active()`` still holds, so an
    idle system leaves nothing in the event queue and ``sim.run()`` drains.
    Whoever makes ``active()`` true again pokes.  ``period_s <= 0`` disables
    the service: it never arms.
    """

    def __init__(
        self,
        sim: Simulator,
        period_s: float,
        tick: Callable[[], None],
        active: Callable[[], bool],
    ) -> None:
        self.sim = sim
        self.period_s = period_s
        self._tick = tick
        self._active = active
        self._armed = False
        #: Firings so far.
        self.ticks = 0

    def poke(self) -> None:
        if self.period_s <= 0 or self._armed:
            return
        self._armed = True
        self.sim.schedule(self.period_s, self._fire)

    def _fire(self) -> None:
        self._armed = False
        self.ticks += 1
        self._tick()
        if self._active():
            self.poke()
