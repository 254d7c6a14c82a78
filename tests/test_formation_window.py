"""What the formation window promises: a decode step joins the forward that
forms after its sample, at any fleet size.

``BatchScheduler._formation_delay`` says that while the next batch forms,
"the calls triggered by the just-completed batch arrive and join" it.  They
arrive ``Controller.inference_call_overhead()`` = 10 + 0.3·n µs after the
batch retires (n live inferlets); the batch forms 56 µs after the device goes
idle.  From n = 154 on they arrive too late.

The scenario: one device, a decoder whose ``sample`` is the batch in flight,
a new prompt whose ``embed_text`` is queued behind it, and ``idle`` live
inferlets parked on ``receive()``.  When the sample retires the decoder
issues its ``embed_text`` and ``forward``.  Inside the window its embed joins
the prompt's, both forwards reach the queue heads together, and the decode
row rides the prompt's forward.  Past it the prompt's embed goes alone; the
prompt's forward then yields to the decoder's late embed
(``_forward_yields``), whose forward lands beside it, and the decode row
still rides the prompt's forward — up to the Wasm pool's cap (950 idle
inferlets, a 296 µs call overhead).  Before that rule the prompt's forward
left alone and the decode row waited a whole prefill, which is why
``chat_overload``'s decoders missed their forwards (ARCHITECTURE, "Which
batch goes first").
"""

import pytest

from repro.core import InferletProgram, PieServer
from repro.sim import Simulator
from repro.support import Context, SamplingParams


def dispatched_batches(idle: int):
    """Run the scenario; returns ``(kind, [(inferlet, decode row?)])`` per
    dispatched batch, the two inferlets' ids and the call overhead and
    formation delay the window was decided on."""
    sim = Simulator(seed=0)
    server = PieServer(sim)
    scheduler = server.service().shards[0].scheduler
    prompt_may_start = sim.create_future(name="prompt-may-start")
    batches, overhead = [], []

    async def parked(ctx):
        await ctx.receive()

    async def decoder(ctx):
        context = Context(ctx, sampling=SamplingParams())
        await context.fill("The decoder's prompt. ")
        await context.generate_until(max_tokens=3)
        context.free()

    async def prompt(ctx):
        await prompt_may_start
        context = Context(ctx, sampling=SamplingParams())
        await context.fill("A new prompt arrives while the decoder samples. ")
        await context.next_dist()
        context.free()

    for program in (parked, decoder, prompt):
        server.register_program(InferletProgram(name=program.__name__, main=program))
    idlers = [server.launch("parked")[0] for _ in range(idle)]
    decoding, _ = server.launch("decoder")
    prompting, _ = server.launch("prompt")

    dispatch = scheduler._dispatch

    def recorded(batch):
        batches.append(
            (batch.kind, [(command.inferlet_id, command.is_decode_row) for command in batch.commands])
        )
        if batch.kind == "sample" and not prompt_may_start.done():
            # The decoder's first sample is in flight (~1.8 ms): the prompt's
            # commands land in the queue behind it.
            sim.schedule(0.0003, prompt_may_start.set_result, None)
            overhead.append(server.controller.inference_call_overhead())
        dispatch(batch)

    scheduler._dispatch = recorded
    sim.run_until_complete(
        sim.gather([x.done for x in (decoding, prompting)])
    )
    for instance in idlers:
        instance.channel.send_to_inferlet("done")
    sim.run()
    assert (decoding.status, prompting.status) == ("finished", "finished")
    ids = (decoding.instance_id, prompting.instance_id)
    return batches, ids, overhead[0], scheduler._formation_delay()


@pytest.mark.parametrize("idle", [100, 200, 950])
def test_a_decode_step_joins_the_batch_that_forms_after_its_sample(idle):
    batches, (decoding, prompting), overhead, window = dispatched_batches(idle)
    # The prompt's embed was queued behind the decoder's sample.
    first = next(index for index, (_, rows) in enumerate(batches) if (prompting, False) in rows)
    assert batches[first - 1] == ("sample", [(decoding, True)])
    assert batches[first][0] == "embed_text"
    # 10 + 0.3 * (idle + 2) µs against the 56 µs window (40.6 / 70.6).
    assert (overhead < window) == (idle + 2 < 154)
    [forward] = [rows for kind, rows in batches if kind == "forward" and (prompting, False) in rows]
    assert (decoding, True) in forward, batches
