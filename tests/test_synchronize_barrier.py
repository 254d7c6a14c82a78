"""What ``synchronize`` waits for today — a known defect, pinned.

``Controller.synchronize`` asks ``CommandQueue.synchronize``, which counts
``len(pending) + inflight``.  A command is neither while it is *in the air*:
``Controller.submit`` hands it to ``sim.schedule(inference_call_overhead(),
_deliver)`` and only the delivery makes it pending.  A barrier
issued in the same instant as the commands it should wait for therefore
finds an empty queue and resolves at once — ``await context.fill(...)``
returns before its prefill has written a single KV slot.

Single-queue programs never notice (the next ``sample`` queues behind the
forward), but a second queue does: it is the "forked queues x prefix cache"
defect of ``perf/README.md`` (docs/ARCHITECTURE.md, "What ``synchronize``
waits for today").  It also left about one ``commands_dropped`` per request,
a last token's forward queued at exit; that reads 0 since ``Context`` writes
a chosen token only when something reads it, and a decode step awaits no
barrier.  ``fill`` still does: the fix moves every virtual number, so it
needs its own change with a re-baseline; until then this test must keep
failing, and ``strict`` makes sure whoever fixes the barrier finds it.

What a barrier waits for once a command *is* pushed is exact: every command
pushed before it has retired (a push-sequence watermark).  Independent
commands of one queue share batches, so they retire out of push order, and a
count of retirements would resolve a barrier early.
"""

import pytest

from repro.core import InferletProgram, PieServer
from repro.core.command_queue import Command, CommandQueue
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


@pytest.mark.xfail(
    strict=True,
    reason="synchronize() does not count commands still in their delivery window",
)
def test_fill_returns_after_its_prefill_has_written_the_kv_pages():
    sim = Simulator(seed=0)
    server = PieServer(sim)
    seen = {}

    async def main(ctx):
        context = Context(ctx, sampling=SamplingParams())
        started = sim.now
        await context.fill(list(range(32)))  # two pages of 16 tokens
        seen["elapsed"] = sim.now - started
        shard = ctx._instance.placements[context.queue.model]
        pids = shard.resources.resolve_kv_many(ctx._instance.instance_id, context._pages)
        seen["valid"] = shard.memory.kv_pages.valid_counts(pids)
        context.free()

    server.register_program(InferletProgram(name="probe", main=main))
    result = sim.run_until_complete(server.run_inferlet("probe"))
    assert result.status == "finished"
    # Today: [0, 0], 86 microseconds after fill() started.
    assert seen["valid"] == [16, 16], seen
