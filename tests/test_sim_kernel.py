"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.errors import CancelledError, SimulationError
from repro.sim import ConstantLatency, NetworkLink, Simulator
from repro.sim.futures import SimFuture
from repro.sim.latency import microseconds, milliseconds


@pytest.fixture()
def sim():
    return Simulator(seed=7)


class TestFutures:
    def test_initially_pending(self, sim):
        fut = sim.create_future()
        assert not fut.done()
        with pytest.raises(SimulationError):
            fut.result()

    def test_set_result(self, sim):
        fut = sim.create_future()
        fut.set_result(42)
        assert fut.done()
        assert fut.result() == 42
        assert fut.exception() is None

    def test_set_exception(self, sim):
        fut = sim.create_future()
        fut.set_exception(ValueError("boom"))
        assert fut.done()
        with pytest.raises(ValueError):
            fut.result()

    def test_double_resolution_rejected(self, sim):
        fut = sim.create_future()
        fut.set_result(1)
        with pytest.raises(SimulationError):
            fut.set_result(2)

    def test_cancel(self, sim):
        fut = sim.create_future()
        assert fut.cancel()
        assert fut.cancelled()
        with pytest.raises(CancelledError):
            fut.result()

    def test_cancel_after_done_is_noop(self, sim):
        fut = sim.create_future()
        fut.set_result(1)
        assert not fut.cancel()
        assert fut.result() == 1

    def test_callback_runs_via_event_loop(self, sim):
        fut = sim.create_future()
        seen = []
        fut.add_done_callback(lambda f: seen.append(f.result()))
        fut.set_result("x")
        assert seen == []  # deferred to the loop
        sim.run()
        assert seen == ["x"]

    def test_callback_on_already_done_future(self, sim):
        fut = sim.create_future()
        fut.set_result(3)
        seen = []
        fut.add_done_callback(lambda f: seen.append(f.result()))
        sim.run()
        assert seen == [3]

    def test_unbound_future_invokes_callbacks_synchronously(self):
        fut = SimFuture()
        seen = []
        fut.add_done_callback(lambda f: seen.append(f.result()))
        fut.set_result(5)
        assert seen == [5]


class TestClockAndScheduling:
    def test_time_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_schedule_orders_by_time(self, sim):
        order = []
        sim.schedule(0.2, order.append, "b")
        sim.schedule(0.1, order.append, "a")
        sim.schedule(0.3, order.append, "c")
        sim.run()
        assert order == ["a", "b", "c"]
        assert sim.now == pytest.approx(0.3)

    def test_same_time_is_fifo(self, sim):
        order = []
        for label in "abcd":
            sim.schedule(0.5, order.append, label)
        sim.run()
        assert order == list("abcd")

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_call_at_in_past_rejected(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.call_at(0.5, lambda: None)

    def test_run_until_bound(self, sim):
        seen = []
        sim.schedule(1.0, seen.append, "early")
        sim.schedule(5.0, seen.append, "late")
        sim.run(until=2.0)
        assert seen == ["early"]
        assert sim.now == pytest.approx(2.0)
        sim.run()
        assert seen == ["early", "late"]

    def test_max_events_guard(self, sim):
        def reschedule():
            sim.schedule(0.001, reschedule)

        sim.schedule(0.0, reschedule)
        with pytest.raises(SimulationError):
            sim.run(max_events=50)


class TestTasks:
    def test_simple_coroutine_result(self, sim):
        async def work():
            await sim.sleep(0.5)
            return "done"

        result = sim.run_until_complete(work())
        assert result == "done"
        assert sim.now == pytest.approx(0.5)

    def test_nested_awaits_accumulate_time(self, sim):
        async def inner(delay):
            await sim.sleep(delay)
            return delay

        async def outer():
            a = await inner(0.1)
            b = await inner(0.2)
            return a + b

        assert sim.run_until_complete(outer()) == pytest.approx(0.3)
        assert sim.now == pytest.approx(0.3)

    def test_task_exception_propagates(self, sim):
        async def boom():
            await sim.sleep(0.1)
            raise RuntimeError("failure inside task")

        with pytest.raises(RuntimeError, match="failure inside task"):
            sim.run_until_complete(boom())

    def test_parallel_tasks_overlap_in_time(self, sim):
        async def worker(delay):
            await sim.sleep(delay)
            return sim.now

        async def main():
            t1 = sim.create_task(worker(1.0))
            t2 = sim.create_task(worker(1.0))
            return await sim.gather([t1, t2])

        results = sim.run_until_complete(main())
        assert results == [pytest.approx(1.0), pytest.approx(1.0)]
        assert sim.now == pytest.approx(1.0)

    def test_gather_empty(self, sim):
        async def main():
            return await sim.gather([])

        assert sim.run_until_complete(main()) == []

    def test_gather_propagates_exception(self, sim):
        async def good():
            await sim.sleep(0.1)
            return 1

        async def bad():
            await sim.sleep(0.05)
            raise ValueError("bad task")

        async def main():
            return await sim.gather([sim.create_task(good()), sim.create_task(bad())])

        with pytest.raises(ValueError, match="bad task"):
            sim.run_until_complete(main())

    def test_cancel_task(self, sim):
        progress = []

        async def worker():
            progress.append("start")
            await sim.sleep(10.0)
            progress.append("end")

        task = sim.create_task(worker())
        sim.schedule(1.0, task.cancel)
        sim.run()
        assert progress == ["start"]
        assert task.cancelled()

    def test_deadlock_detection(self, sim):
        async def waits_forever():
            await sim.create_future()

        with pytest.raises(SimulationError, match="deadlock"):
            sim.run_until_complete(waits_forever())

class TestLatencyModels:
    def test_constant(self, sim):
        model = ConstantLatency(0.02)
        assert model.sample(sim.rng) == pytest.approx(0.02)

    def test_negative_rejected(self):
        with pytest.raises(SimulationError):
            ConstantLatency(-1)

    def test_unit_helpers(self):
        assert milliseconds(25) == pytest.approx(0.025)
        assert microseconds(30) == pytest.approx(0.00003)


class TestNetworkLink:
    def test_send_pays_bandwidth_term(self, sim):
        link = NetworkLink(sim, ConstantLatency(0.01), bytes_per_second=1000.0)

        async def main():
            await link.send("x", size_bytes=500)

        sim.run_until_complete(main())
        # One-way delay plus 500 B at 1 kB/s of wire occupancy.
        assert sim.now == pytest.approx(0.01 + 0.5)
        assert (link.messages_sent, link.bytes_sent) == (1, 500)

    def test_reserve_serializes_concurrent_transfers(self, sim):
        """reserve() is the transfer scheduler's no-task FIFO channel: two
        reservations made at the same instant drain back-to-back, a later
        one starts fresh once the wire has gone idle."""
        link = NetworkLink(sim, ConstantLatency(0.002), bytes_per_second=1000.0)
        first = link.reserve(1000, now=0.0)  # occupies [0, 1), lands 1.002
        second = link.reserve(500, now=0.0)  # queues: [1, 1.5), lands 1.502
        assert first == pytest.approx(1.002)
        assert second == pytest.approx(1.502)
        # Issued while the wire is still busy: queues behind both.
        third = link.reserve(500, now=1.2)
        assert third == pytest.approx(2.002)
        # Issued after the wire drained: starts at its own now.
        fourth = link.reserve(1000, now=10.0)
        assert fourth == pytest.approx(11.002)
        assert link.messages_sent == 4
        assert link.bytes_sent == 3000

    def test_reserve_on_latency_only_link_costs_no_wire_time(self, sim):
        link = NetworkLink(sim, ConstantLatency(0.005))
        # No bandwidth term: payload size occupies no wire time, so two
        # reservations land at the same instant (pure propagation delay).
        assert link.reserve(10**9, now=1.0) == pytest.approx(1.005)
        assert link.reserve(10**9, now=1.0) == pytest.approx(1.005)


class TestDeterminism:
    def test_same_seed_same_trace(self):
        def trace(seed):
            sim = Simulator(seed=seed)
            link = NetworkLink(sim, ConstantLatency(0.01), bytes_per_second=1e4)
            times = []

            async def main():
                for _ in range(10):
                    await link.send(None, size_bytes=int(sim.rng.integers(1, 400)))
                    times.append(sim.now)

            sim.run_until_complete(main())
            return times

        assert trace(123) == trace(123)
        assert trace(123) != trace(321)
