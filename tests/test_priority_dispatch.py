"""Priority dispatch ordering: live queue priority.

Covers the stale-priority regression (``set_queue_priority`` after enqueue
must affect already-queued commands, since batch formation reads the live
queue priority), end-to-end dispatch ordering between contending queues on
one device (each program sets its own queue's priority, the paper's
``set_queue_priority``), and the aging bound on starvation under the core's dispatch order
(best class present first, ``repro.core.batching.AGING_MS``).
"""

from repro.core import InferletProgram, PieClient, PieServer, TenantSpec, batching
from repro.core.batching import form_candidate_batches
from repro.core.command_queue import Command, CommandQueue
from repro.core.config import ControlLayerConfig, PieConfig
from repro.gpu.config import GpuConfig
from repro.sim import Simulator
from repro.support import Context, SamplingParams


def _command(sim, kind="forward", issue_time=0.0):
    return Command(
        kind=kind,
        inferlet_id="test",
        payload={},
        future=sim.create_future(),
        issue_time=issue_time,
    )


class TestStalePriorityRegression:
    def test_priority_raised_after_enqueue_reorders_commands(self):
        """The regression: push snapshots priority, so a later
        set_queue_priority used to leave queued commands at their old rank."""
        sim = Simulator()
        low = CommandQueue(key="low", model="m", owner="a", priority=0)
        late = CommandQueue(key="late", model="m", owner="b", priority=0)
        low.push(_command(sim, issue_time=0.0))
        late.push(_command(sim, issue_time=1.0))
        # Raise the priority *after* the command was enqueued.
        late.priority = 5
        batches = form_candidate_batches([low, late], max_batch_rows=8)
        commands = batches["forward"].commands
        assert commands[0].queue_key == "late"
        # The live value was also refreshed onto the command snapshot.
        assert commands[0].priority == 5

    def test_priority_lowered_after_enqueue(self):
        sim = Simulator()
        first = CommandQueue(key="first", model="m", owner="a", priority=5)
        second = CommandQueue(key="second", model="m", owner="b", priority=0)
        first.push(_command(sim, issue_time=0.0))
        second.push(_command(sim, issue_time=1.0))
        first.priority = -1  # demoted after enqueue
        batches = form_candidate_batches([first, second], max_batch_rows=8)
        assert batches["forward"].commands[0].queue_key == "second"

    def test_truncation_drops_live_lowest_priority(self):
        sim = Simulator()
        queues = []
        for index in range(3):
            queue = CommandQueue(key=f"q{index}", model="m", owner="o", priority=0)
            queue.push(_command(sim, issue_time=float(index)))
            queues.append(queue)
        queues[2].priority = 9  # promoted after enqueue
        batches = form_candidate_batches(queues, max_batch_rows=2)
        keys = [c.queue_key for c in batches["forward"].commands]
        assert keys == ["q2", "q0"]  # promoted queue survives truncation


def _decoder(name: str, n_tokens: int, results: dict, priority: int = 0):
    async def main(ctx):
        queue = ctx.create_queue()
        ctx.set_queue_priority(queue, priority)
        context = Context(ctx, queue=queue, sampling=SamplingParams())
        await context.fill(f"prompt for {name} ")
        text = await context.generate_until(max_tokens=n_tokens)
        context.free()
        results[name] = ctx._instance.metrics.first_token_at
        return text

    return InferletProgram(name=name, main=main)


class TestEndToEndPriorityDispatch:
    def run_pair(self, high_priority: int):
        """Two decoders racing on a 1-row-batch device: every dispatch
        round is a head-to-head merge, so queue priority decides who is
        truncated out.  'low' is requested first (its commands carry the
        earlier issue times); 'high' carries ``high_priority``.  Returns
        first-token times keyed by name."""
        sim = Simulator(seed=0)
        config = PieConfig(gpu=GpuConfig(max_batch_rows=1))
        server = PieServer(sim, config=config)
        results = {}
        server.register_program(_decoder("low", 6, results, priority=0))
        server.register_program(_decoder("high", 6, results, priority=high_priority))
        client = PieClient(sim, server, rtt_ms=0.0)

        async def run_all():
            first = sim.create_task(client.launch_and_wait("low"))
            second = sim.create_task(client.launch_and_wait("high"))
            await sim.gather([first, second])

        sim.run_until_complete(run_all())
        return results

    def test_high_priority_queue_dispatches_first(self):
        results = self.run_pair(high_priority=5)
        # Despite being requested second, the high-priority inferlet wins
        # every contended 1-row batch and reaches its first token earlier.
        assert results["high"] < results["low"]

    def test_equal_priority_preserves_arrival_order(self):
        results = self.run_pair(high_priority=0)
        assert results["low"] < results["high"]


class TestAgingBoundsStarvation:
    def run_stream(self, monkeypatch, aging_ms: float) -> dict:
        """One batch-class decoder under a continuous interactive stream.

        Returns the batch job's first-token time and the stream end time;
        class order alone would starve the batch job until the device has
        idle gaps, the aging bound forces it through earlier."""
        monkeypatch.setattr(batching, "AGING_MS", aging_ms)
        sim = Simulator(seed=0)
        config = PieConfig(
            gpu=GpuConfig(max_batch_rows=1),
            control=ControlLayerConfig(
                tenants=(
                    TenantSpec(name="chat", priority_class="interactive"),
                    TenantSpec(name="jobs", priority_class="batch"),
                ),
            ),
        )
        server = PieServer(sim, config=config)
        done = {}

        async def batch_main(ctx):
            context = Context(ctx, sampling=SamplingParams())
            await context.fill("long background job ")
            await context.generate_until(max_tokens=8)
            context.free()
            done["batch_first_token_at"] = ctx._instance.metrics.first_token_at
            return "done"

        async def chat_main(ctx):
            context = Context(ctx, sampling=SamplingParams())
            await context.fill("hi ")
            await context.generate_until(max_tokens=2)
            context.free()
            return "ok"

        server.register_program(InferletProgram(name="job", main=batch_main))
        for i in range(14):
            server.register_program(
                InferletProgram(name=f"turn{i}", main=chat_main)
            )

        async def staggered(name, delay):
            await sim.sleep(delay)
            return await server.run_inferlet(name, tenant="chat")

        async def run_all():
            tasks = [sim.create_task(server.run_inferlet("job", tenant="jobs"))]
            for i in range(14):
                tasks.append(sim.create_task(staggered(f"turn{i}", 0.03 * i)))
            results = await sim.gather(tasks)
            done["stream_finished_at"] = sim.now
            return results

        results = sim.run_until_complete(run_all())
        assert all(r.status == "finished" for r in results)
        return done

    def test_aging_bounds_batch_class_starvation(self, monkeypatch):
        aged = self.run_stream(monkeypatch, aging_ms=60.0)
        starved = self.run_stream(monkeypatch, aging_ms=60_000.0)
        # With a tight aging bound the batch job's commands are forced
        # through the interactive stream; with an effectively infinite
        # bound class order alone leaves it to the queue's mercy.
        assert aged["batch_first_token_at"] < starved["batch_first_token_at"]
        # And the bound is meaningful: the first token lands while the
        # stream is still arriving (14 turns * 30 ms of arrivals).
        assert aged["batch_first_token_at"] < 0.3
        assert aged["stream_finished_at"] > 0.42
