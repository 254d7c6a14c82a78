"""The one self-re-arming timer on the virtual clock."""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.simulator import Simulator


class PeriodicService:
    """Calls ``tick()`` every ``period_s`` of virtual time while ``active()``.

    :meth:`poke` arms the timer (once, however often it is poked); each
    firing runs ``tick`` and re-arms only if ``active()`` still holds, so an
    idle system leaves nothing in the event queue and ``sim.run()`` drains.
    Whoever makes ``active()`` true again pokes.  ``period_s <= 0`` disables
    the service: it never arms.  An armed timer is listed in
    ``sim.armed_timers``, so a run whose only pending events are ticks of
    :meth:`idle` timers ends instead of ticking forever (a deadlocked
    inferlet keeps ``active()`` true).  ``due()``, when given, says the next
    tick has work beyond watching (the heartbeat's undetected crash), so
    the run must reach it.
    """

    def __init__(
        self,
        sim: Simulator,
        period_s: float,
        tick: Callable[[], None],
        active: Callable[[], bool],
        due: Optional[Callable[[], bool]] = None,
    ) -> None:
        self.sim = sim
        self.period_s = period_s
        self._tick = tick
        self.active = active
        self._due = due
        self._armed = False
        #: Firings so far.
        self.ticks = 0

    def idle(self) -> bool:
        """The next tick only watches, and the timer re-arms after it."""
        return self.active() and not (self._due is not None and self._due())

    def poke(self) -> None:
        if self.period_s <= 0 or self._armed:
            return
        self._armed = True
        self.sim.armed_timers.append(self)
        self.sim.schedule(self.period_s, self._fire)

    def _fire(self) -> None:
        self._armed = False
        self.sim.armed_timers.remove(self)
        self.ticks += 1
        self._tick()
        if self.active():
            self.poke()
