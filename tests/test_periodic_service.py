"""The one self-re-arming virtual-clock timer (repro.sim.periodic).

The trace telemetry sampler, the monitor scraper and the health heartbeat
are three instances of it, so its guarantees are pinned once here: a poke
arms at most one timer, period 0 never arms, it stops re-arming when
``active()`` turns false — so ``sim.run()`` drains — and a later poke
restarts it.  The last test checks the three instances on a live server.
"""

import pytest

from repro.core import InferletProgram, PieServer, health, monitor
from repro.sim import PeriodicService, Simulator


def make_service(period_s=0.1, active=True):
    sim = Simulator(seed=1)
    state = {"active": active, "ticks_at": []}
    service = PeriodicService(
        sim,
        period_s,
        lambda: state["ticks_at"].append(sim.now),
        lambda: state["active"],
    )
    return sim, service, state


def test_double_poke_arms_once():
    sim, service, state = make_service()
    service.poke()
    service.poke()
    assert sim.heap_size == 1
    sim.run(until=0.35)
    # One tick per period, not two: the second poke did not double-arm.
    assert state["ticks_at"] == pytest.approx([0.1, 0.2, 0.3])
    assert service.ticks == 3


def test_period_zero_never_arms():
    for period in (0.0, -1.0):
        sim, service, state = make_service(period_s=period)
        service.poke()
        assert sim.heap_size == 0
        sim.run()
        assert service.ticks == 0 and state["ticks_at"] == []


def test_stops_rearming_when_inactive_so_the_queue_drains():
    sim, service, state = make_service()
    service.poke()
    sim.run(until=0.25)
    assert service.ticks == 2
    state["active"] = False
    sim.run()  # returns: nothing re-armed after the tick that saw inactive
    # One final tick fires from the already-armed timer, then the chain stops.
    assert service.ticks == 3
    assert sim.heap_size == 0
    assert sim.now == pytest.approx(0.3)


def test_a_later_poke_restarts_it():
    sim, service, state = make_service(active=False)
    service.poke()
    sim.run()
    assert service.ticks == 1
    state["active"] = True
    sim.schedule(1.0, service.poke)  # poked at 1.1: next ticks at 1.2, 1.3
    sim.run(until=1.35)
    assert state["ticks_at"] == pytest.approx([0.1, 1.2, 1.3])


def test_the_three_plane_timers_tick_while_inferlets_live_then_drain(monkeypatch):
    monkeypatch.setattr(monitor, "SCRAPE_INTERVAL_MS", 1.0)
    monkeypatch.setattr(health, "HEARTBEAT_INTERVAL_MS", 1.0)
    sim = Simulator(seed=1)
    server = PieServer(
        sim, tracing=True, trace_sample_ms=1.0, monitoring=True, faults=True
    )
    controller = server.controller
    assert len(controller.timers) == 3

    async def main(ctx):
        await ctx.sleep(0.01)

    server.register_program(InferletProgram(name="napper", main=main))
    assert all(timer.ticks == 0 for timer in controller.timers)
    sim.run_until_complete(server.run_inferlet("napper"))
    sim.run()  # drains: no timer re-arms once the last inferlet retired
    assert sim.heap_size == 0
    assert server.trace.samples_taken == controller.timers[0].ticks
    assert server.monitor.scrapes_taken == controller.timers[1].ticks
    for timer in controller.timers:
        assert timer.ticks >= 10
    ticks = [timer.ticks for timer in controller.timers]
    # A second wave pokes all three awake again.
    sim.run_until_complete(server.run_inferlet("napper"))
    sim.run()
    assert all(timer.ticks > before for timer, before in zip(controller.timers, ticks))
