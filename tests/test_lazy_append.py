"""A chosen token is written by the next call that reads the context.

``Context.generate_once`` / ``append_token`` count the token (``token_ids``,
its visibility, the output stamp) and leave its KV write pending; they issue
no command and wait for nothing.  The next reader issues the write first, on
the context's queue: ``next_dist`` ahead of its sample, ``fill`` as the first
input of its own forward, ``fork`` / ``export_prefix`` / ``mask_token_range``
/ ``refresh_hidden`` before they act.  ``free`` issues nothing for it, so a
stream's last token never reaches the device and exit has nothing to drop.

The references are explicit: a token written by ``next_dist`` before the
call under test, or a solo context filled with the same tokens.  Mutants
killed by name: ``free`` issuing the write (the decode-loop test), ``fill``
forwarding the token separately (the fill test), ``fork`` not writing first
(the fork test); ``export_prefix``, ``mask_token_range`` and
``refresh_hidden`` not writing first, the mask bounds check not counting
the pending token, and a mask writing before that check each fail their
own test.
"""

import numpy as np
import pytest

from repro.core import InferletProgram, PieServer
from repro.errors import ReproError
from repro.sim import Simulator
from repro.support import Context, SamplingParams

PROMPT = list(range(1, 41))  # 2.5 pages of 16 tokens
ALIGNED = list(range(1, 33))  # two full pages: the next token opens a third
TOP = 5


def serve():
    """A one-device server, the input sizes of every forward it runs, and
    the kind and instant of every command issued (run or not)."""
    sim = Simulator(seed=0)
    server = PieServer(sim)
    scheduler = server.service().shards[0].scheduler
    forwards, issued = [], []
    dispatch = scheduler._dispatch
    submit = server.controller.submit_command

    def spy(batch):
        if batch.kind == "forward":
            forwards.extend(command.input_tokens for command in batch.commands)
        dispatch(batch)

    def record(instance, home, queue, kind, *args, **kwargs):
        issued.append((kind, sim.now))
        return submit(instance, home, queue, kind, *args, **kwargs)

    scheduler._dispatch = spy
    server.controller.submit_command = record
    return sim, server, forwards, issued


def run_on(sim, server, *mains):
    """Run the programs one after another; their results."""
    results = []
    for index, main in enumerate(mains):
        server.register_program(InferletProgram(name=f"p{index}", main=main))
        result = sim.run_until_complete(server.run_inferlet(f"p{index}"))
        assert result.status == "finished", result
        results.append(result.result)
    sim.run()
    return results if len(mains) > 1 else results[0]


def run(*mains):
    sim, server, _, _ = serve()
    return run_on(sim, server, *mains)


def dense(dist):
    probs = np.zeros(1 << 16)
    probs[list(dist.token_ids)] = dist.probs
    return probs


def top_ids(dist):
    return [token for token, _ in dist.top(TOP)]


def assert_close(dist, reference, bound):
    assert np.abs(dense(dist) - dense(reference)).max() < bound
    assert top_ids(dist) == top_ids(reference)


async def solo(ctx, tokens):
    context = Context(ctx, sampling=SamplingParams())
    await context.fill(tokens)
    dist = await context.next_dist()
    context.free()
    return dist


# -- the decode loop ---------------------------------------------------------------


@pytest.mark.parametrize("steps", [1, 5])
def test_a_streams_last_token_is_never_forwarded(steps):
    """Fails at the parent: each stream exited with its last token's embed
    and forward still queued, and both were dropped at queue teardown."""
    sim, server, forwards, issued = serve()

    async def main(ctx):
        context = Context(ctx, sampling=SamplingParams())
        await context.fill(PROMPT)
        for _ in range(steps):
            await context.generate_once()
        cached = context.num_cached_tokens
        context.free()
        return cached

    cached = run_on(sim, server, main)
    assert cached == len(PROMPT) + steps - 1
    assert forwards == [len(PROMPT)] + [1] * (steps - 1)
    assert [kind for kind, _ in issued].count("forward") == steps
    assert server.metrics.forward_input_tokens == len(PROMPT) + steps - 1
    assert server.metrics.commands_dropped == 0
    assert server.metrics.total_output_tokens == steps


def test_a_decode_step_issues_its_write_with_its_sample():
    """The write and the sample leave in one instant: no barrier between a
    chosen token and the next sample (the parent awaited one)."""
    sim, server, _, issued = serve()

    async def main(ctx):
        context = Context(ctx, sampling=SamplingParams())
        await context.fill(PROMPT)
        await context.generate_once()
        issued.clear()
        await context.generate_once()
        context.free()

    run_on(sim, server, main)
    kinds = [kind for kind, _ in issued]
    assert kinds[:3] == ["embed_text", "forward", "sample"]
    assert len({at for _, at in issued[:3]}) == 1


# -- fill ------------------------------------------------------------------------------


def test_a_fill_carries_the_pending_token_in_its_own_forward():
    """The pending token rides in front of the prompt: one forward of
    1 + len(tokens) inputs, whose state matches the token written first by
    its own forward and the prompt filled after it."""
    suffix = [7, 8, 9, 10, 11]
    sim, server, forwards, _ = serve()

    async def lazy(ctx):
        context = Context(ctx, sampling=SamplingParams())
        await context.fill(PROMPT)
        token = await context.generate_once()
        forwards.clear()
        await context.fill(suffix)
        dist = await context.next_dist()
        return token, list(forwards), dist, context.num_cached_tokens

    token, sizes, dist, cached = run_on(sim, server, lazy)
    assert sizes == [1 + len(suffix)]
    assert cached == len(PROMPT) + 1 + len(suffix)

    async def written_first(ctx):
        context = Context(ctx, sampling=SamplingParams())
        await context.fill(PROMPT)
        await context.append_token(token)
        await context.next_dist()  # the write, as its own forward
        await context.fill(suffix)
        return await context.next_dist()

    assert_close(dist, run(written_first), 1e-5)


# -- the other readers -------------------------------------------------------------------


def test_a_fork_right_after_a_chosen_token_inherits_it():
    async def main(ctx):
        root = Context(ctx, sampling=SamplingParams())
        await root.fill(PROMPT)
        token = await root.generate_once()
        child = root.fork()
        written = (root.num_cached_tokens, child.num_cached_tokens)
        await child.refresh_hidden()
        return token, written, await child.next_dist(), await solo(ctx, PROMPT + [token])

    token, written, dist, reference = run(main)
    assert written == (len(PROMPT) + 1, len(PROMPT) + 1)
    assert_close(dist, reference, 1e-6)


def test_an_export_right_after_a_chosen_token_holds_it():
    """The prompt ends on a page boundary: without the write the export
    would hold two pages, too few for the prompt and the token."""

    async def exporter(ctx):
        context = Context(ctx, sampling=SamplingParams())
        await context.fill(ALIGNED)
        token = await context.generate_once()
        await context.export_prefix("lazy")
        written = context.num_cached_tokens
        await context.next_dist()  # let the write land before exit
        return token, written

    async def importer(ctx):
        context = await Context.from_export(ctx, "lazy", ALIGNED + [token])
        return await context.next_dist(), await solo(ctx, ALIGNED + [token])

    sim, server, _, _ = serve()
    token, written = run_on(sim, server, exporter)
    assert written == len(ALIGNED) + 1
    dist, reference = run_on(sim, server, importer)
    assert_close(dist, reference, 1e-6)


def test_a_mask_right_after_a_chosen_token_covers_it():
    """Its bounds count the pending token, and the token's page (a third
    one: the prompt fills two) exists before the mask is issued."""
    start = 24

    async def lazy(ctx):
        context = Context(ctx, sampling=SamplingParams())
        await context.fill(ALIGNED)
        token = await context.generate_once()
        await context.mask_token_range(start, context.num_tokens)
        written = context.num_cached_tokens
        await context.refresh_hidden()
        return token, written, await context.next_dist()

    token, written, dist = run(lazy)
    assert written == len(ALIGNED) + 1

    async def written_first(ctx):
        context = Context(ctx, sampling=SamplingParams())
        await context.fill(ALIGNED)
        await context.append_token(token)
        await context.next_dist()
        await context.mask_token_range(start, context.num_tokens)
        await context.refresh_hidden()
        return await context.next_dist()

    assert_close(dist, run(written_first), 1e-6)


def test_a_mask_past_the_pending_token_is_refused_before_anything_is_issued():
    sim, server, _, issued = serve()

    async def main(ctx):
        context = Context(ctx, sampling=SamplingParams())
        await context.fill(PROMPT)
        await context.generate_once()
        issued.clear()
        with pytest.raises(ReproError):
            await context.mask_token_range(0, context.num_tokens + 1)
        return context.num_cached_tokens

    assert run_on(sim, server, main) == len(PROMPT)
    assert issued == []


def test_a_refresh_right_after_a_chosen_token_recomputes_it():
    async def main(ctx):
        context = Context(ctx, sampling=SamplingParams())
        await context.fill(PROMPT)
        token = await context.generate_once()
        await context.refresh_hidden()
        written = context.num_cached_tokens
        return written, await context.next_dist(), await solo(ctx, PROMPT + [token])

    written, dist, reference = run(main)
    assert written == len(PROMPT) + 1
    assert_close(dist, reference, 1e-6)
