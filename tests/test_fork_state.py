"""What a forked, imported or refreshed ``Context`` holds.

A fork hands its child the parent's last hidden state (one ``copy_emb``)
and a private copy of a partial last page (one ``copy_kvpage``); nothing
either context appends afterwards reaches the other.  An import prefills
the export's last page into a page of its own.  A recomputed hidden state
(a changed mask, a second refresh) attends to its own token once.  Either
way the state matches the one the token was written with, up to float32
rounding.

The references are the contexts themselves: the parent's distribution at
the fork, the exporter's at the export, and a solo context filled with
the same tokens.
"""

import numpy as np
import pytest

from repro.core import InferletProgram, PieServer
from repro.inferlets import make_beam_search
from repro.sim import Simulator
from repro.support import Context, SamplingParams

PROMPT = list(range(40))  # 2.5 pages of 16 tokens: the last page is partial
TOP = 5
CLOSE = 1e-6


def run(*mains, **server_kwargs):
    """Run the programs one after another on a fresh server; their results."""
    sim = Simulator(seed=0)
    return run_on(sim, PieServer(sim, **server_kwargs), *mains)


def run_on(sim, server, *mains):
    results = []
    for index, main in enumerate(mains):
        server.register_program(InferletProgram(name=f"p{index}", main=main))
        result = sim.run_until_complete(server.run_inferlet(f"p{index}"))
        assert result.status == "finished", result
        results.append(result.result)
    sim.run()
    return results if len(mains) > 1 else results[0]


def dense(dist):
    probs = np.zeros(1 << 16)
    probs[list(dist.token_ids)] = dist.probs
    return probs


def top_ids(dist):
    return [token for token, _ in dist.top(TOP)]


def assert_close(dist, reference):
    assert np.abs(dense(dist) - dense(reference)).max() < CLOSE
    assert top_ids(dist) == top_ids(reference)


async def solo(ctx, tokens):
    context = Context(ctx, sampling=SamplingParams())
    await context.fill(tokens)
    dist = await context.next_dist()
    context.free()
    return dist


# -- fork ----------------------------------------------------------------------------


@pytest.mark.parametrize("own_queue", [True, False])
def test_a_childs_first_distribution_is_its_parents(own_queue):
    """Fails at the parent: there the child re-ran its last token, which
    then attended to itself twice (0.005 apart on this prompt)."""

    async def main(ctx):
        root = Context(ctx, sampling=SamplingParams())
        await root.fill(PROMPT)
        expected = await root.next_dist()
        children = [root.fork(queue=None if own_queue else root.queue) for _ in range(3)]
        for child in children:
            await child.refresh_hidden()
        return expected, [await child.next_dist() for child in children]

    expected, dists = run(main)
    for dist in dists:
        assert dist.token_ids == expected.token_ids
        assert dist.probs == expected.probs


def test_a_fork_runs_no_forward():
    """The refresh after a fork is the copies' wait: one batch of three
    ``copy_emb`` on the parent's queue, and nothing else."""
    sim = Simulator(seed=0)
    server = PieServer(sim)
    scheduler = server.service().shards[0].scheduler
    batches = []
    dispatch = scheduler._dispatch

    def spy(batch):
        batches.append((batch.kind, len(batch.commands)))
        dispatch(batch)

    scheduler._dispatch = spy

    async def main(ctx):
        root = Context(ctx, sampling=SamplingParams())
        await root.fill(list(range(48)))  # three full pages: no page to copy
        await root.next_dist()
        batches.clear()
        children = [root.fork() for _ in range(3)]
        for child in children:
            await child.refresh_hidden()
        return list(batches)

    assert run_on(sim, server, main) == [("copy_emb", 3)]


def test_a_child_never_sees_what_its_parent_appends():
    """Fails at the parent: the child shared the parent's partial last page,
    so its next token attended to the parent's token at the same position."""
    appended = [5, 6, 7]
    token = 9

    async def main(ctx):
        root = Context(ctx, sampling=SamplingParams())
        await root.fill(PROMPT)
        child = root.fork()
        await child.refresh_hidden()
        for parent_token in appended:
            await root.append_token(parent_token)
        await child.append_token(token)
        child_dist = await child.next_dist()
        root_dist = await root.next_dist()
        return (
            child_dist,
            await solo(ctx, PROMPT + [token]),
            root_dist,
            await solo(ctx, PROMPT + appended),
            (child.num_cached_tokens, root.num_cached_tokens),
        )

    child_dist, child_solo, root_dist, root_solo, cached = run(main)
    assert_close(child_dist, child_solo)
    assert_close(root_dist, root_solo)
    assert cached == (len(PROMPT) + 1, len(PROMPT) + len(appended))


def test_forks_before_anything_landed():
    """Forked straight after ``fill`` — whose barrier does not wait for the
    prefill (docs/ARCHITECTURE.md, "What `synchronize` waits for today") —
    a child is forked again and a third context is forked and freed unused,
    all before any copy landed.  The copies ride the root's queue in
    order, every context waits for what it reads or what reads it, and the
    freed one deallocates behind the copies into it."""

    async def main(ctx):
        root = Context(ctx, sampling=SamplingParams())
        await root.fill(PROMPT)
        child = root.fork()
        grandchild = child.fork()
        unused = child.fork()
        unused.free()
        await child.append_token(3)
        first = await grandchild.next_dist()
        await grandchild.append_token(4)
        return (
            await root.next_dist(),
            first,
            await child.next_dist(),
            await grandchild.next_dist(),
            await solo(ctx, PROMPT + [3]),
            await solo(ctx, PROMPT + [4]),
        )

    # Prefill slices of 16 tokens: between them the other queues' commands
    # go first, so nothing but the copies' order keeps them behind it.
    results = run(main, max_batch_tokens=16)
    root_dist, first, child_dist, grandchild_dist, child_solo, grandchild_solo = results
    assert first.token_ids == root_dist.token_ids
    assert first.probs == root_dist.probs
    assert_close(child_dist, child_solo)
    assert_close(grandchild_dist, grandchild_solo)


def test_a_fork_of_a_fork_in_flight_lands_the_first_parents_state():
    """Forked again before its copies landed, B's copies into C ride A's
    queue right behind A's into B, and each copy kind goes as one batch of
    two (one by one while copies were fences).  The handlers run a batch's
    copies in order, so C holds A's partial page and hidden state, not what
    B's fresh page and slot held before A's landed."""
    token = 9
    sim = Simulator(seed=0)
    server = PieServer(sim)
    scheduler = server.service().shards[0].scheduler
    copies = []
    dispatch = scheduler._dispatch

    def spy(batch):
        if batch.kind.startswith("copy_"):
            copies.append((batch.kind, len(batch.commands)))
        dispatch(batch)

    scheduler._dispatch = spy

    async def main(ctx):
        a = Context(ctx, sampling=SamplingParams())
        await a.fill(PROMPT)
        expected = await a.next_dist()
        b = a.fork()
        c = b.fork()
        first = await c.next_dist()
        await c.append_token(token)
        return expected, first, await c.next_dist(), await solo(ctx, PROMPT + [token])

    expected, first, after, reference = run_on(sim, server, main)
    assert copies == [("copy_kv", 2), ("copy_emb", 2)]
    assert first.token_ids == expected.token_ids
    assert first.probs == expected.probs
    assert_close(after, reference)


# -- the recompute path ----------------------------------------------------------------


@pytest.mark.parametrize("prefix_cache", [False, True])
def test_an_import_starts_from_the_exporters_state(prefix_cache):
    """Fails at the parent twice over: the importer's recomputed state let
    its last token attend to itself twice, and its partial last page was
    the exporter's, which the exporter kept writing after the export.  The
    exporter samples before it exports: that waits for its prefill, which
    ``fill`` alone does not (docs/ARCHITECTURE.md, "What `synchronize`
    waits for today")."""
    token = 9

    async def exporter(ctx):
        context = Context(ctx, sampling=SamplingParams())
        await context.fill(PROMPT)
        dist = await context.next_dist()
        await context.export_prefix("prefix")
        await context.fill([1, 2, 3])
        await context.next_dist()
        return dist

    async def importer(ctx):
        context = await Context.from_export(ctx, "prefix", PROMPT)
        first = await context.next_dist()
        await context.append_token(token)
        return first, await context.next_dist(), await solo(ctx, PROMPT + [token])

    exported, (first, then, then_solo) = run(exporter, importer, prefix_cache=prefix_cache)
    assert_close(first, exported)
    assert_close(then, then_solo)


def test_a_second_refresh_recomputes_the_same_state():
    """Fails at the parent: the recomputed token saw its cached copy too."""

    async def main(ctx):
        context = Context(ctx, sampling=SamplingParams())
        await context.fill(PROMPT)
        before = await context.next_dist()
        await context.refresh_hidden()
        return before, await context.next_dist()

    before, after = run(main)
    assert_close(after, before)


# -- beam search -------------------------------------------------------------------------


def test_every_beam_holds_the_prompt_and_its_own_tokens(monkeypatch):
    """Fails at the parent: an extra child forked after its sibling had
    appended, so two of the three final beams held 24 tokens, not 23.  A
    beam's last appended token is never written (nothing reads it), so a
    freed beam caches exactly one token fewer than it counts."""
    prompt, steps = "The quick brown fox", 4
    freed = []
    free = Context.free

    def recording(self):
        if not self._freed:
            freed.append((list(self.token_ids), self.num_cached_tokens, self.queue))
        free(self)

    monkeypatch.setattr(Context, "free", recording)
    sim = Simulator(seed=5)
    server = PieServer(sim)
    program = make_beam_search(prompt, beam_width=3, max_tokens=steps)
    server.register_program(program)
    result = sim.run_until_complete(server.run_inferlet(program.name))
    assert result.status == "finished"
    model = server.service().entry
    prompt_ids = model.tokenizer.encode(prompt)
    assert len(freed) == 3
    for token_ids, cached, _ in freed:
        assert token_ids[: len(prompt_ids)] == prompt_ids
        assert len(token_ids) == len(prompt_ids) + steps
        assert cached == len(token_ids) - 1
    texts = [model.tokenizer.decode(ids[len(prompt_ids) :]) for ids, _, _ in freed]
    assert result.result["text"] in texts
