"""Which ready batch goes first: a forward with no whole prompt yields.

``BatchScheduler._select`` used to answer "the candidate that has waited
longest", blind to cost: a 17 ms decode-only ``forward`` was dispatched
while a neighbour's 0.1 ms ``embed_text`` sat ready beside it, and the
neighbour's own forward then paid a second weight-bound floor.  Now a
forward candidate made only of decode steps (adaptive policy, no QoS) or
only of prefill slices (any policy) gives way while another kind has a
candidate, for at most ``decode_ms_base`` between two forward dispatches.

The tests, in the repo's oracle pattern:

* the parent's ``_select`` is kept **verbatim** below, and a hypothesis
  property spells out the whole rule against it: new == old whenever the
  forward carries a prompt, is the only candidate, the policy is
  ``eager`` / ``k_only`` / ``t_only``, QoS selects, or the hold has
  expired; otherwise new == longest-waiting over the other kinds;
* a scripted two-inferlet **cost** test that fails at the parent: a decode
  forward ready beside a neighbour's ``embed_text`` becomes one 2-row
  forward, not two 1-row ones;
* a **liveness** test: a fleet of ``await embed_txt`` loopers cannot hold a
  decoder's forward — or a sliced prompt's, which the parent starved for
  as long as the loopers ran — longer than ``decode_ms_base``.

Two hand-made mutants and the test that kills each: *bound removed* →
``TestLiveness``; *rule applied to prompt-carrying forwards* →
``test_selection_matches_the_parent_outside_the_rule``.
"""

from typing import Dict, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import InferletProgram, PieServer
from repro.core.batching import CandidateBatch, select_longest_waiting
from repro.core.command_queue import Command
from repro.core.config import ControlLayerConfig, PieConfig, SchedulerConfig
from repro.core.scheduler import BatchScheduler
from repro.gpu.config import GpuConfig
from repro.gpu.device import SimDevice
from repro.sim import Simulator
from repro.support import Context, SamplingParams
from tests.test_scheduler_index import COST_MODEL, StubHandlers

DECODE_MS_BASE = COST_MODEL.cost.decode_ms_base


# -- the parent's selection, verbatim ---------------------------------------


def _old_select(scheduler, candidates: Dict[str, CandidateBatch]) -> Optional[CandidateBatch]:
    candidates = _old_yield_lone_chunks(candidates)
    if scheduler._qos is not None:
        return scheduler._qos.select_batch(candidates)
    return select_longest_waiting(candidates)


def _old_yield_lone_chunks(candidates: Dict[str, CandidateBatch]) -> Dict[str, CandidateBatch]:
    if len(candidates) <= 1:
        return candidates
    forward = candidates.get("forward")
    if forward is None or not all(c.is_chunk for c in forward.commands):
        return candidates
    return {kind: batch for kind, batch in candidates.items() if kind != "forward"}


# -- a scheduler on stubs ---------------------------------------------------


class NewestFirstQos:
    """Stands in for ``QosService.select_batch`` with an order no other
    selector here produces, so "QoS selected" is visible in the result."""

    @staticmethod
    def select_batch(candidates):
        if not candidates:
            return None
        return max(candidates.values(), key=lambda batch: batch.oldest_issue_time)


def _scheduler(sim, policy="adaptive", qos=None):
    return BatchScheduler(
        sim,
        SimDevice(sim),
        StubHandlers(),
        SchedulerConfig(policy=policy),
        GpuConfig(max_batch_rows=16),
        ControlLayerConfig(),
        qos=qos,
    )


def _command(sim, kind, issue_time, input_tokens=1):
    return Command(
        kind=kind,
        inferlet_id="owner",
        payload={"iemb": list(range(input_tokens))},
        future=sim.create_future(),
        issue_time=issue_time,
        input_tokens=input_tokens,
    )


def _forward_row(sim, role, issue_time):
    """One forward command per role a batch can carry."""
    if role == "decode":
        return _command(sim, "forward", issue_time)
    prompt = _command(sim, "forward", issue_time, input_tokens=24)
    if role == "prompt":
        return prompt
    head = prompt.plan_chunk(8, sim.create_future())
    if role == "slice":
        return head
    assert role == "residual"
    prompt.take_chunk(head, issue_time)
    return prompt


ROLES = ("decode", "prompt", "slice", "residual")
OTHER_KINDS = ("embed_text", "sample", "dealloc_kv")
ISSUE_TIMES = st.floats(min_value=0.0, max_value=0.5, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(
    policy=st.sampled_from(("adaptive", "eager", "k_only", "t_only")),
    with_qos=st.booleans(),
    forward_rows=st.lists(st.tuples(st.sampled_from(ROLES), ISSUE_TIMES), max_size=4),
    others=st.dictionaries(st.sampled_from(OTHER_KINDS), ISSUE_TIMES, max_size=3),
    held_ms=st.none() | st.floats(min_value=0.0, max_value=2 * DECODE_MS_BASE),
)
def test_selection_matches_the_parent_outside_the_rule(
    policy, with_qos, forward_rows, others, held_ms
):
    sim = Simulator(seed=0)
    sim.run(until=1.0)
    scheduler = _scheduler(sim, policy, NewestFirstQos() if with_qos else None)
    candidates = {}
    if forward_rows:
        candidates["forward"] = CandidateBatch(
            "forward", [_forward_row(sim, role, at) for role, at in forward_rows]
        )
    for kind, at in others.items():
        candidates[kind] = CandidateBatch(kind, [_command(sim, kind, at)])
    if held_ms is not None:
        scheduler._forward_held_since = sim.now - held_ms / 1e3
    expired = held_ms is not None and held_ms >= DECODE_MS_BASE

    old = _old_select(scheduler, dict(candidates))
    new = scheduler._select(dict(candidates))

    forward = candidates.get("forward")
    roles = {role for role, _ in forward_rows}
    decode_only = roles == {"decode"}
    slices_only = roles == {"slice"}
    stats = scheduler.stats
    if forward is None or not others:
        assert new is old
        assert (stats.forward_yields, stats.forward_holds_expired) == (0, 0)
    elif slices_only:
        # The parent's rule, now bounded: past the bound the slices compete
        # by age again instead of waiting for a mixed batch for ever.
        everything = scheduler._qos.select_batch if with_qos else select_longest_waiting
        assert new is (everything(candidates) if expired else old)
        assert (stats.forward_yields, stats.forward_holds_expired) == (not expired, expired)
    elif not decode_only or policy != "adaptive" or with_qos:
        assert new is old
        assert (stats.forward_yields, stats.forward_holds_expired) == (0, 0)
    elif expired:
        assert new is old
        assert (stats.forward_yields, stats.forward_holds_expired) == (0, 1)
    else:
        rest = {kind: batch for kind, batch in candidates.items() if kind != "forward"}
        assert new is select_longest_waiting(rest)
        assert (stats.forward_yields, stats.forward_holds_expired) == (1, 0)
    if forward is None:
        assert scheduler._forward_held_since is None


def test_rows_are_counted_once_per_batch():
    """``decode_rows`` / ``prefill_rows`` are fields filled in one pass at
    formation, 0 for every other kind."""
    sim = Simulator(seed=0)
    rows = [_forward_row(sim, role, 0.0) for role in ROLES + ("decode",)]
    forward = CandidateBatch("forward", rows)
    assert (forward.decode_rows, forward.prefill_rows) == (2, 3)
    sample = CandidateBatch("sample", [_command(sim, "sample", 0.0)])
    assert (sample.decode_rows, sample.prefill_rows) == (0, 0)


# -- end to end --------------------------------------------------------------


def _spy_on_forwards(sim, scheduler):
    """Record ``(decode rows, rows, ms its oldest command waited)`` of every
    forward batch the scheduler dispatches."""
    seen = []
    dispatch = scheduler._dispatch

    def spy(batch):
        if batch.kind == "forward":
            waited_ms = (sim.now - batch.oldest_issue_time) * 1e3
            seen.append((batch.decode_rows, len(batch), waited_ms))
        dispatch(batch)

    scheduler._dispatch = spy
    return seen


def _run_fleet(sim, server, names):
    async def fleet():
        return await sim.gather(
            [sim.create_task(server.run_inferlet(name)) for name in names]
        )

    results = sim.run_until_complete(fleet())
    sim.run()
    assert [result.status for result in results] == ["finished"] * len(names)
    return results


def _stepper(name, detours):
    """Prefill, sample, ``detours`` awaited cheap calls, then one decode
    step (the closing ``next_dist`` queues behind the forward and so waits
    for it — ``append_token``'s own barrier does not, see ARCHITECTURE
    "What ``synchronize`` waits for today")."""

    async def main(ctx):
        context = Context(ctx, sampling=SamplingParams())
        await context.fill("a prompt ")
        dist = await context.next_dist()
        scratch = ctx.alloc_emb(context.queue, 1)
        for _ in range(detours):
            await ctx.embed_txt(context.queue, [dist.token_ids[0]], [0], scratch)
        await context.append_token(dist.token_ids[0])
        await context.next_dist()
        context.free()
        return ctx.now()

    return InferletProgram(name=name, main=main)


def test_decode_forward_waits_for_the_neighbours_embed():
    """The cost test (fails at the parent: two 1-row decode forwards, the
    second request finishing a whole floor later).  ``plain``'s decode
    forward is ready — and older — when ``detour``'s ``embed_text`` is; the
    0.07 ms embed runs first, ``detour``'s forward lands, and one 2-row
    forward carries both."""
    sim = Simulator(seed=0)
    server = PieServer(sim, num_devices=1)
    server.register_program(_stepper("plain", detours=0))
    server.register_program(_stepper("detour", detours=1))
    scheduler = server.service().shards[0].scheduler
    forwards = _spy_on_forwards(sim, scheduler)

    plain, detour = _run_fleet(sim, server, ["plain", "detour"])

    decode_forwards = [rows for decode_rows, rows, _ in forwards if decode_rows]
    assert decode_forwards == [2]
    assert scheduler.stats.forward_yields == 1
    assert scheduler.stats.forward_holds_expired == 0
    # Both leave with the shared forward; at the parent ``detour`` paid a
    # second floor (85.4 ms against 66.4 ms for ``plain``).
    assert detour.result == plain.result
    assert detour.result * 1e3 < 70.0


def _looper(name, rounds):
    async def main(ctx):
        queue = ctx.create_queue()
        scratch = ctx.alloc_emb(queue, 1)
        for _ in range(rounds):
            await ctx.embed_txt(queue, [5], [0], scratch)

    return InferletProgram(name=name, main=main)


def _victim(prompt_tokens, steps):
    async def main(ctx):
        context = Context(ctx, sampling=SamplingParams())
        await context.fill(list(range(3, 3 + prompt_tokens)))
        await context.generate_until(max_tokens=steps)
        await context.next_dist()
        context.free()

    return InferletProgram(name="victim", main=main)


class TestLiveness:
    """Longest-waiting ages every command; the yield rule does not, so its
    hold is bounded by ``decode_ms_base`` (read from the cost model).  Six
    loopers keep an ``embed_text`` candidate ready at every selection round
    for ≈ 300 ms; without the bound the victim's forwards wait that long."""

    LOOPERS = [f"looper{index}" for index in range(6)]
    # The bound, plus the embed batch in flight when it expires and the
    # formation delays around it.
    SLACK_MS = 1.0

    def run(self, prompt_tokens, **server_kwargs):
        sim = Simulator(seed=0)
        server = PieServer(sim, num_devices=1, **server_kwargs)
        for name in self.LOOPERS:
            server.register_program(_looper(name, rounds=1500))
        server.register_program(_victim(prompt_tokens, steps=3))
        scheduler = server.service().shards[0].scheduler
        forwards = _spy_on_forwards(sim, scheduler)
        _run_fleet(sim, server, self.LOOPERS + ["victim"])
        bound_ms = scheduler.handlers.cost_model.forward_seconds(decode_rows=1) * 1e3
        return scheduler.stats, forwards, bound_ms

    def test_loopers_cannot_hold_a_decoders_forward(self):
        stats, forwards, bound_ms = self.run(prompt_tokens=8)
        decode_waits = [waited for decode_rows, _, waited in forwards if decode_rows]
        assert len(decode_waits) == 3
        # Held (the rule is on) …
        assert stats.forward_yields > 0 and min(decode_waits) > 1.0
        # … and let go at the bound, every time.
        assert stats.forward_holds_expired == 3
        assert max(decode_waits) <= bound_ms + self.SLACK_MS

    def test_loopers_cannot_hold_a_sliced_prompt(self):
        """The parent's slices-only rule had no bound: this prompt's first
        slice waited 291 ms there, until the loopers had finished."""
        stats, forwards, bound_ms = self.run(
            prompt_tokens=200, chunked_prefill=True, prefill_chunk_tokens=128
        )
        decode_rows, _, waited = forwards[0]
        assert decode_rows == 0 and waited <= bound_ms + self.SLACK_MS
        assert stats.forward_holds_expired >= 1
        assert all(waited <= bound_ms + 25.0 for _, _, waited in forwards)


@pytest.mark.parametrize("policy", ["eager", "k_only", "t_only"])
def test_strawman_policies_never_hold_a_decode_forward(policy):
    """Table 5's strawmen keep the parent's order: the same two programs,
    and no selection round yields."""
    sim = Simulator(seed=0)
    server = PieServer(sim, config=PieConfig(scheduler=SchedulerConfig(policy=policy)))
    server.register_program(_stepper("plain", detours=0))
    server.register_program(_stepper("detour", detours=1))
    _run_fleet(sim, server, ["plain", "detour"])
    stats = server.service().shards[0].scheduler.stats
    assert stats.decode_rows_dispatched == 2
    assert (stats.forward_yields, stats.forward_holds_expired) == (0, 0)
