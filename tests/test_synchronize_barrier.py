"""What ``synchronize`` waits for today — a known defect, pinned.

``Controller.synchronize`` asks ``CommandQueue.synchronize``, which counts
``len(pending) + inflight``.  A command is neither while it is *in the air*:
``Controller.submit`` hands it to ``sim.schedule(inference_call_overhead(),
_deliver_command)`` and only the delivery makes it pending.  A barrier
issued in the same instant as the commands it should wait for therefore
finds an empty queue and resolves at once — ``await context.fill(...)``
returns before its prefill has written a single KV slot.

Single-queue programs never notice (the next ``sample`` queues behind the
forward), but a second queue does: it is the "forked queues x prefix cache"
defect of ``perf/README.md`` and the ``commands_dropped`` of about one per
request (docs/ARCHITECTURE.md, "What ``synchronize`` waits for today").  The
fix moves every virtual number, so it needs its own change with a
re-baseline; until then this test must keep failing, and ``strict`` makes
sure whoever fixes the barrier finds it.
"""

import pytest

from repro.core import InferletProgram, PieServer
from repro.sim import Simulator
from repro.support import Context, SamplingParams


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
