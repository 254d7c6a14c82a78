"""Figure 10: per-API-call overhead by handling layer vs concurrency.

The overhead is the time from issuing a call to its completion *excluding*
handling time.  Control-layer calls are handled in-process; inference-layer
calls additionally cross the IPC boundary and pay the (single-threaded)
deserialisation cost that grows with the number of concurrent inferlets.
The measurement registers N dummy inferlets to set the concurrency level,
then measures one end-to-end call of each layer with batching disabled
(eager policy) and subtracts the known handling cost.
"""

from __future__ import annotations

from repro.bench.reporting import ExperimentResult
from repro.bench.runners import make_pie_setup
from repro.core.config import PieConfig, SchedulerConfig
from repro.core.inferlet import InferletInstance, InferletProgram
from repro.core.scheduler import BATCH_SCHEDULING_OVERHEAD_MS, IPC_CROSSING_MS
from repro.inferlets import make_text_completion


async def _noop(ctx):
    future = ctx.receive()
    return await future


def _measure(n_concurrent: int):
    config = PieConfig(scheduler=SchedulerConfig(policy="eager"))
    sim, server = make_pie_setup(config=config, seed=9, with_tools=False)
    controller = server.controller

    # Park (n_concurrent - 1) idle inferlets so the concurrency-dependent
    # deserialisation term is exercised, then measure with one live probe.
    parked_program = InferletProgram(name="parked", main=_noop)
    server.register_program(parked_program)
    for index in range(max(0, n_concurrent - 1)):
        instance = InferletInstance(parked_program, instance_id=f"parked-{index}")
        instance.channel = None
        controller.register_inferlet(instance)

    measured = {}

    async def probe(ctx):
        queue = ctx.create_queue()
        embeds = ctx.alloc_emb(queue, 1)
        # Drain the overhead accumulated by the setup calls so it does not
        # pollute the measurements below.
        await ctx.sleep(0)
        # Control-layer call: synchronize on an empty queue (handled entirely
        # by the controller; no GPU work).
        start = ctx.now()
        await ctx.synchronize(queue)
        measured["control_us"] = (ctx.now() - start) * 1e6
        # Inference-layer call: one embed_txt command, minus its handling time.
        start = ctx.now()
        future = ctx.embed_txt(queue, [65], [0], embeds)
        await future
        elapsed = ctx.now() - start
        service = controller.service(queue.model)
        handling = service.cost_model.embed_batch_cost(1)
        scheduling = (BATCH_SCHEDULING_OVERHEAD_MS + IPC_CROSSING_MS) / 1e3
        measured["inference_us"] = max(0.0, elapsed - handling - scheduling) * 1e6
        return measured

    probe_program = InferletProgram(name="probe", main=probe)
    server.register_program(probe_program)
    sim.run_until_complete(server.run_inferlet(probe_program.name))
    measured["model_control_us"] = controller.control_call_overhead() * 1e6
    measured["model_inference_us"] = controller.inference_call_overhead() * 1e6
    return measured


def run(quick: bool = True) -> ExperimentResult:
    counts = (1, 128, 512) if quick else (1, 128, 256, 512, 896)
    result = ExperimentResult(
        name="Figure 10",
        description="API call overhead (microseconds) by handling layer vs concurrent inferlets",
    )
    for count in counts:
        measured = _measure(count)
        result.add_row(
            concurrent_inferlets=count,
            control_layer_us=measured["control_us"],
            inference_layer_us=measured["inference_us"],
        )
    result.add_note(
        "Paper: control-layer calls stay under 30 us; inference-layer calls grow from "
        "~10 us to ~300 us at 896 concurrent inferlets (Python-side deserialisation)."
    )
    return result
