"""Invariants of chunked prefill: ordering, accounting, abort safety.

Three properties keep token-budget slicing from being an accounting trick:

* the residual of a sliced forward *stays at its queue head* — commands
  behind it (same queue) never dispatch early, synchronize barriers keep
  counting one command, and the caller's future resolves exactly once,
  when the final slice completes;
* aborting an inferlet mid-chunk releases its partially committed KV
  pages exactly once (the pool's free-validation would raise on a double
  free) and leaves both pools fully conserved;
* slicing changes *timing only*: a mixed fleet generates bit-identical
  tokens with chunking on and off.
"""

import pytest

from repro.bench.runners import make_pie_setup
from repro.core import InferletProgram
from repro.core.batching import CandidateBatch
from repro.core.command_queue import Command
from repro.core.config import ControlLayerConfig, PieConfig, SchedulerConfig
from repro.core.scheduler import BatchScheduler
from repro.gpu.config import GpuConfig
from repro.gpu.device import SimDevice
from repro.sim import Simulator
from repro.support import Context, SamplingParams
from tests.test_scheduler_index import COST_MODEL

CHUNK = 8
BUDGET = 10


class StubHandlers:
    """Execution log standing in for ApiHandlers in scheduler-level tests."""

    cost_model = COST_MODEL

    def __init__(self, fail_on_slice=None):
        self.log = []  # (inferlet_id, iemb slice, had_oemb)
        self.fail_on_slice = fail_on_slice

    def batch_cost_seconds(self, kind, commands):
        return 0.001 * sum(max(1, c.input_tokens) for c in commands)

    def execute_batch(self, kind, commands):
        results = []
        for c in commands:
            iemb = list(c.payload.get("iemb", []))
            self.log.append((c.inferlet_id, iemb, bool(c.payload.get("oemb"))))
            if self.fail_on_slice is not None and iemb and iemb[0] == self.fail_on_slice:
                results.append(RuntimeError("injected slice failure"))
            else:
                results.append(len(iemb) or 1)
        return results


def _scheduler(sim, handlers):
    return BatchScheduler(
        sim,
        SimDevice(sim),
        handlers,
        SchedulerConfig(),
        GpuConfig(max_batch_rows=64, max_batch_tokens=BUDGET),
        ControlLayerConfig(chunked_prefill=True, prefill_chunk_tokens=CHUNK),
    )


def _forward(sim, owner, tokens, oemb=(), writes=frozenset()):
    return Command(
        kind="forward",
        inferlet_id=owner,
        payload={
            "iemb": list(tokens),
            "okv": [],
            "oemb": list(oemb),
            "mask": None,
            "okv_offset": None,
        },
        future=sim.create_future(name=f"fwd:{owner}"),
        issue_time=sim.now,
        input_tokens=len(tokens),
        writes=writes,
    )


def test_final_residual_beside_a_head_slice_is_not_a_decode_row():
    """One spelling of "decode row": a prompt worn down to its last token
    is still prefill work, so a slice sharing its batch saved it no stall."""
    sim = Simulator(seed=1)
    scheduler = _scheduler(sim, StubHandlers())
    worn = _forward(sim, "a", list(range(CHUNK + 1)), oemb=["h"])
    worn.take_chunk(worn.plan_chunk(CHUNK, sim.create_future()), sim.now)
    assert worn.input_tokens == 1 and not worn.is_decode_row
    prompt = _forward(sim, "b", list(range(30)))
    head = prompt.plan_chunk(CHUNK, sim.create_future())
    prompt.take_chunk(head, sim.now)
    decode = _forward(sim, "c", [7])
    batch = CandidateBatch(kind="forward", commands=[worn, head, decode])

    scheduler._record_chunks(batch, [head])

    assert batch.decode_rows == 1
    assert scheduler.metrics.prefill_chunks_dispatched == 1
    assert scheduler.metrics.decode_rows_co_batched == 1
    # One decode row spared the 22 tokens the sliced prompt still holds.
    assert scheduler.metrics.chunk_stall_saved_seconds == pytest.approx(
        22 * COST_MODEL.cost.prefill_ms_per_token / 1e3
    )


def test_residual_keeps_queue_head_order_across_interleaved_submits():
    sim = Simulator(seed=1)
    handlers = StubHandlers()
    scheduler = _scheduler(sim, handlers)
    queue_a = scheduler.create_queue("A", model="m", owner="a")
    scheduler.create_queue("B", model="m", owner="b")

    long_cmd = _forward(sim, "a", list(range(30)), oemb=["h"])
    follow_up = _forward(sim, "a", [990])
    barrier = sim.create_future(name="barrier")
    scheduler.submit("A", long_cmd)
    scheduler.submit("A", follow_up)

    head_checks = []

    def check_head():
        # While the long forward still has tokens left, it must *be* the
        # queue head object (not a copy, not re-ordered behind follow_up).
        if long_cmd.input_tokens > 0 and queue_a.pending_count:
            head_checks.append(queue_a._pending[0] is long_cmd)

    # Interleave decode submissions from another queue while slices drain.
    for step in range(6):
        sim.schedule(0.002 + step * 0.004, check_head)
        sim.schedule(
            0.003 + step * 0.004,
            lambda: scheduler.submit("B", _forward(sim, "b", [500 + step])),
        )
    sim.schedule(0.001, lambda: queue_a.synchronize(barrier))
    resolution_order = []
    long_cmd.future.add_done_callback(lambda _f: resolution_order.append("long"))
    barrier.add_done_callback(lambda _f: resolution_order.append("barrier"))
    follow_up.future.add_done_callback(lambda _f: resolution_order.append("follow_up"))

    sim.run()

    assert head_checks and all(head_checks)
    # The long forward was sliced under the token budget...
    slices = [entry for entry in handlers.log if entry[0] == "a" and entry[1][:1] != [990]]
    assert len(slices) > 1
    # ...its tokens executed in order, with no token lost or duplicated...
    executed = [token for _, tokens, _ in slices for token in tokens]
    assert executed == list(range(30))
    # ...only the final slice carried the output-hidden slots...
    assert [had_oemb for _, _, had_oemb in slices] == [False] * (len(slices) - 1) + [True]
    # ...and the future resolved exactly once, before the barrier and the
    # queued follow-up (which dispatched only after the residual drained).
    assert resolution_order[0] == "long"
    assert set(resolution_order) == {"long", "barrier", "follow_up"}
    assert scheduler.metrics.prefill_chunks_dispatched == len(slices) - 1
    assert long_cmd.future.result() is not None


def test_failing_slice_fails_the_whole_forward_and_stops_slicing():
    sim = Simulator(seed=1)
    handlers = StubHandlers(fail_on_slice=8)  # second slice starts at token 8
    scheduler = _scheduler(sim, handlers)
    queue = scheduler.create_queue("A", model="m", owner="a")
    long_cmd = _forward(sim, "a", list(range(30)), oemb=["h"])
    barrier = sim.create_future(name="barrier")
    scheduler.submit("A", long_cmd)
    sim.schedule(0.0005, lambda: queue.synchronize(barrier))
    sim.run()
    assert long_cmd.future.done()
    assert isinstance(long_cmd.future.exception(), RuntimeError)
    # The residual was dropped: no slice past the failed one ever executed,
    # the queue drained, and the barrier counting the command resolved.
    executed = [token for _, tokens, _ in handlers.log for token in tokens]
    assert max(executed) < 16  # slices are 8 tokens; nothing after the failure
    assert queue.pending_count == 0
    assert barrier.done()


def test_abort_mid_chunk_releases_partially_committed_kv_exactly_once():
    """Terminate an inferlet while its prefill is mid-slice: the partially
    committed pages must be released exactly once (the pool validates
    frees) and both pools must conserve fully."""
    sim, server = make_pie_setup(
        seed=2,
        with_tools=False,
        chunked_prefill=True,
        prefill_chunk_tokens=32,
        max_batch_tokens=48,
    )

    async def main(ctx):
        context = Context(ctx, sampling=SamplingParams())
        await context.fill([i % 250 for i in range(600)])
        await context.generate_until(max_tokens=2)
        context.free()
        return "done"

    server.register_program(InferletProgram(name="doomed", main=main))
    instance, _ready = server.launch("doomed")

    def kill():
        if not instance.finished:
            server.controller.terminate_inferlet(instance, reason="test abort")

    # 600 tokens in 32-token slices at ~17+ ms per lone batch: 50 ms in,
    # several slices have committed and the residual is still pending.
    sim.schedule(0.05, kill)
    sim.run_until_complete(server.lifecycle.wait_for_completion(instance))
    sim.run()  # drain in-flight batches and deferred callbacks

    assert instance.status == "terminated"
    assert server.metrics.prefill_chunks_dispatched > 0  # the abort really hit mid-stream
    resources = server.service().resources
    assert resources.kv_pages_free == server.config.gpu.num_kv_pages
    assert resources.embeds_free == server.config.gpu.num_embed_slots


def test_chunked_cost_model_is_never_a_discount():
    """``chunked_prefill_ms`` is the reference oracle for chunk charging:
    it must equal the slice-by-slice ``forward_batch_cost`` the scheduler
    actually pays, and can never undercut the monolithic prefill."""
    from repro.gpu.kernels import ForwardRow, KernelCostModel
    from repro.model.registry import ModelRegistry

    config = ModelRegistry(["llama-sim-1b"]).get("llama-sim-1b").config
    model = KernelCostModel(config)
    for n_tokens, chunk in [(512, 64), (1000, 128), (300, 300), (97, 16)]:
        monolithic_ms = model.forward_seconds(prefill_tokens=n_tokens) * 1e3
        assert model.chunked_prefill_ms(n_tokens, chunk) >= monolithic_ms - 1e-9
    sliced = sum(
        model.forward_batch_cost(
            [ForwardRow(n_input_tokens=min(64, 512 - done), context_tokens=done)]
        )
        for done in range(0, 512, 64)
    )
    assert model.chunked_prefill_ms(512, 64) == pytest.approx(sliced * 1e3)


@pytest.mark.parametrize("policy", ["adaptive", "t_only"])
def test_interleaved_fleet_generates_identical_tokens_on_and_off(policy):
    """Chunking must change timing only: same seeds, same tokens."""

    def build_programs():
        def summarizer(index):
            async def main(ctx):
                context = Context(ctx, sampling=SamplingParams())
                await context.fill([(index + i) % 250 for i in range(300)])
                await context.generate_until(max_tokens=3)
                context.free()
                return list(context.generated_ids)

            return InferletProgram(name=f"s{index}", main=main)

        def chat(index):
            async def main(ctx):
                context = Context(ctx, sampling=SamplingParams())
                await context.fill(f"chat {index}? ")
                await context.generate_until(max_tokens=6)
                context.free()
                return list(context.generated_ids)

            return InferletProgram(name=f"c{index}", main=main)

        return [summarizer(i) for i in range(2)] + [chat(i) for i in range(4)]

    def run(chunked):
        config = PieConfig(
            scheduler=SchedulerConfig(policy=policy),
            gpu=GpuConfig(max_batch_tokens=24),
            control=ControlLayerConfig(chunked_prefill=chunked, prefill_chunk_tokens=16),
        )
        sim, server = make_pie_setup(seed=11, with_tools=False, config=config)
        programs = build_programs()
        for program in programs:
            server.register_program(program)

        async def one(name, delay):
            await sim.sleep(delay)
            return await server.run_inferlet(name)

        async def run_all():
            tasks = [
                sim.create_task(one(p.name, 0.005 * i)) for i, p in enumerate(programs)
            ]
            return await sim.gather(tasks)

        results = sim.run_until_complete(run_all())
        return (
            [(r.status, r.result) for r in results],
            server.metrics.prefill_chunks_dispatched,
        )

    off_results, off_chunks = run(False)
    on_results, on_chunks = run(True)
    assert off_chunks == 0
    assert on_chunks > 0
    assert on_results == off_results
