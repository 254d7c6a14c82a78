"""What ``synchronize`` waits for: every command issued before it.

``Controller.submit_command`` numbers a command on its ``CommandQueue`` the
moment it is issued (``CommandQueue.issue``); the delivery that follows after
the inference-layer call overhead only makes the numbered command pending.
A barrier, like a deallocation, holds at the queue's issue watermark at
once, so it counts the commands still in their delivery window: a
``synchronize`` issued in the same instant as a prefill resolves only once
that prefill has written its KV slots.  The same count makes an owner
non-quiescent (``DeviceShard.quiescent`` reads ``CommandQueue.idle``) until
every command it issued has retired.

The watermark is exact: independent commands of one queue share batches, so
they retire out of issue order, and a count of retirements would resolve a
barrier early.
"""

import pytest

from repro.core import InferletProgram, PieServer
from repro.core.command_queue import Command, CommandQueue
from repro.errors import SchedulingError
from repro.sim import Simulator
from repro.support import Context, SamplingParams


def test_a_later_independent_command_retiring_first_does_not_resolve_a_barrier():
    sim = Simulator()
    queue = CommandQueue(key="q", model="m", owner="a")

    def push(kind, reads=(), writes=()):
        command = Command(
            kind=kind,
            inferlet_id="a",
            payload={},
            future=sim.create_future(),
            issue_time=0.0,
            reads=frozenset(reads),
            writes=frozenset(writes),
        )
        queue.issue(command)
        queue.push(command)
        return command

    e1 = push("embed_text", writes=[("emb", 1)])
    f1 = push("forward", reads=[("emb", 1)], writes=[("kv", 1), ("emb", 2)])
    barrier = sim.create_future()
    queue.synchronize(barrier)
    e2 = push("embed_text", writes=[("emb", 3)])
    # e2 touches nothing of e1 f1's, so it joins e1's embed batch and retires
    # while f1 is still pending: two retirements, the count the barrier saw.
    assert queue.ready_runs(8) == [[e1, e2]]
    queue.pop_commands([e1, e2])
    queue.mark_completed(e1)
    queue.mark_completed(e2)
    assert not barrier.done()
    queue.pop_commands([f1])
    queue.mark_completed(f1)
    assert barrier.done()


def test_a_command_pushed_without_being_issued_is_refused():
    # Unnumbered, it would retire at a place no barrier counts: the queue
    # would never read idle again.
    sim = Simulator()
    queue = CommandQueue(key="q", model="m", owner="a")
    command = Command(
        kind="embed_text", inferlet_id="a", payload={}, future=sim.create_future(), issue_time=0.0
    )
    with pytest.raises(SchedulingError, match="without being issued"):
        queue.push(command)
    assert queue.idle and queue.pending_count == 0


def test_a_synchronize_after_fill_resolves_once_the_prefill_wrote_the_kv_pages():
    sim = Simulator(seed=0)
    server = PieServer(sim)
    seen = {}

    async def main(ctx):
        context = Context(ctx, sampling=SamplingParams())
        await context.fill(list(range(32)))  # two pages of 16 tokens
        await ctx.synchronize(context.queue)
        shard = ctx._instance.placements[context.queue.model]
        pids = shard.resources.resolve_kv_many(ctx._instance.instance_id, context._pages)
        seen["valid"] = shard.memory.kv_pages.valid_counts(pids)
        context.free()

    server.register_program(InferletProgram(name="probe", main=main))
    result = sim.run_until_complete(server.run_inferlet("probe"))
    assert result.status == "finished"
    assert seen["valid"] == [16, 16], seen


def test_a_command_in_its_delivery_window_holds_quiescence_and_a_barrier():
    sim = Simulator(seed=0)
    server = PieServer(sim)
    seen = {}

    async def main(ctx):
        queue = ctx.create_queue()
        instance = ctx._instance
        shard = instance.placements[queue.model]
        slot = ctx.alloc_emb(queue, 1)
        embed = ctx.embed_txt(queue, [1], [0], slot)
        barrier = ctx.synchronize(queue)
        # Issued, not yet delivered: nothing is pending on the shard.
        seen["pending"] = shard.scheduler.total_pending
        seen["quiescent"] = shard.quiescent(instance)
        await barrier
        seen["embedded"] = embed.done()
        seen["quiescent after"] = shard.quiescent(instance)
        ctx.dealloc_emb(queue, slot)

    server.register_program(InferletProgram(name="probe", main=main))
    result = sim.run_until_complete(server.run_inferlet("probe"))
    assert result.status == "finished"
    assert seen == {
        "pending": 0,
        "quiescent": False,
        "embedded": True,
        "quiescent after": True,
    }, seen
