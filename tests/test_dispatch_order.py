"""Which batch goes next: one key, kept in the core, in every configuration.

``BatchScheduler`` used to pick two ways: ``select_longest_waiting`` with the
QoS plane off, and ``QosService.select_batch`` (class-weighted slack, a
fair-share tie-break, the forward yield switched off) with it on.  Now
:func:`repro.core.batching.select_batch` decides everywhere.  A candidate
whose oldest command has waited ``AGING_MS`` goes first, oldest first.
Otherwise the best class rank among its commands goes first, then its
oldest command.  Ties keep candidate order.  The rank is the owner's tenant
class, stamped once on each command queue by ``Controller.create_queue``.

The tests, in the repo's oracle pattern:

* the parent's ``select_longest_waiting`` is kept **verbatim** below, and a
  hypothesis property holds the new selection to it whenever one class is
  registered, which is every ``perf/`` workload;
* two tests that fail at the parent: with two classes registered through
  ``ControlLayerConfig`` alone, an interactive command issued after a batch
  one dispatches first; and with two classes registered, a decode-only
  forward yields to a ready ``embed_text`` (the parent switched the yield
  off under QoS);
* the aging bound at the selection (end to end it is
  ``test_priority_dispatch``'s starvation test);
* an AST scan: no ``qos`` identifier in the scheduler, router, transfer
  scheduler, model service or controller.

Three hand-made mutants and the test that kills each, automated in
``test_mutants_are_killed``: *aging removed* →
``test_aged_work_goes_first_whatever_its_class``; *rank ignored* →
``test_interactive_issued_later_dispatches_first``; *yields skipped when
more than one class is registered* →
``test_a_decode_forward_yields_with_two_classes``.
"""

import ast
import pathlib
from typing import Dict, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import InferletProgram, PieServer, TenantSpec, batching
from repro.core.batching import CandidateBatch, select_batch
from repro.core.command_queue import COMMAND_KINDS, Command
from repro.core.config import ControlLayerConfig, PieConfig
from repro.core.qos import CLASS_RANK
from repro.core.scheduler import BatchScheduler
from repro.sim import Simulator
from repro.support import Context, SamplingParams

CORE = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro" / "core"
TWO_CLASSES = (
    TenantSpec(name="chat", priority_class="interactive"),
    TenantSpec(name="jobs", priority_class="batch"),
)


# -- the parent's selection, verbatim -------------------------------------------


def select_longest_waiting(
    candidates: Dict[str, CandidateBatch]
) -> Optional[CandidateBatch]:
    """Pick the candidate whose oldest pending command has waited longest."""
    if not candidates:
        return None
    return min(candidates.values(), key=lambda batch: batch.oldest_issue_time)


# -- one class: the parent's order ------------------------------------------------


def _command(sim, kind, issue_time, rank):
    return Command(
        kind=kind,
        inferlet_id="owner",
        payload={},
        future=sim.create_future(),
        issue_time=issue_time,
        rank=rank,
    )


NOW = 1.0
# Issue times on both sides of the aging bound, repeats likely (ties).
ISSUE_TIMES = st.sampled_from([0.5, 0.7, 0.799, 0.8, 0.801, 0.9, 0.95, 0.999, 1.0]) | st.floats(
    min_value=0.5, max_value=NOW, allow_nan=False
)


@settings(max_examples=400, deadline=None)
@given(
    priority_class=st.sampled_from(tuple(CLASS_RANK)),
    batches=st.dictionaries(
        st.sampled_from(COMMAND_KINDS), st.lists(ISSUE_TIMES, min_size=1, max_size=3), max_size=5
    ),
)
def test_one_class_selects_what_longest_waiting_selected(priority_class, batches):
    sim = Simulator(seed=0)
    rank = CLASS_RANK[priority_class]
    candidates = {
        kind: CandidateBatch(kind, [_command(sim, kind, at, rank) for at in times])
        for kind, times in batches.items()
    }
    assert select_batch(dict(candidates), NOW) is select_longest_waiting(candidates)


# -- two classes ---------------------------------------------------------------------


def test_aged_work_goes_first_whatever_its_class():
    sim = Simulator(seed=0)
    aging_s = batching.AGING_MS / 1e3
    aged = CandidateBatch("copy_emb", [_command(sim, "copy_emb", 0.0, CLASS_RANK["batch"])])
    fresh = CandidateBatch("sample", [_command(sim, "sample", 0.001, CLASS_RANK["interactive"])])
    candidates = {"sample": fresh, "copy_emb": aged}
    # Just short of the bound the better class goes; at it, the oldest.
    assert select_batch(candidates, aging_s - 1e-9) is fresh
    assert select_batch(candidates, aging_s) is aged
    # Among equals, a candidate's best class is what counts.
    mixed = CandidateBatch(
        "embed_text",
        [
            _command(sim, "embed_text", 0.002, CLASS_RANK["batch"]),
            _command(sim, "embed_text", 0.003, CLASS_RANK["interactive"]),
        ],
    )
    assert select_batch({"sample": fresh, "embed_text": mixed}, 0.01) is fresh
    assert select_batch({"embed_text": mixed, "copy_emb": aged}, 0.01) is mixed


def _call_once(name, kind, delay):
    """Wait ``delay``, then issue one cheap command; returns when it was
    issued and when it completed."""

    async def main(ctx):
        queue = ctx.create_queue()
        first, second = ctx.alloc_emb(queue, 2)
        await ctx.sleep(delay)
        issued = ctx.now()
        if kind == "copy_emb":
            await ctx.copy_emb(queue, [first], [second])
        else:
            await ctx.embed_txt(queue, [5], [0], [first])
        return issued, ctx.now()

    return InferletProgram(name=name, main=main)


def _hog():
    """A 300-token prompt: the device is busy while the two calls queue."""

    async def main(ctx):
        context = Context(ctx, sampling=SamplingParams())
        await context.fill(list(range(3, 303)))
        await context.next_dist()
        context.free()

    return InferletProgram(name="hog", main=main)


def test_interactive_issued_later_dispatches_first():
    """Fails at the parent, where tenants without the ``qos`` shorthand left
    dispatch longest-waiting: the batch tenant's ``copy_emb`` went first."""
    sim = Simulator(seed=0)
    server = PieServer(sim, config=PieConfig(control=ControlLayerConfig(tenants=TWO_CLASSES)))
    server.register_program(_hog())
    server.register_program(_call_once("job", "copy_emb", delay=0.004))
    server.register_program(_call_once("chat", "embed_text", delay=0.006))

    async def fleet():
        launches = (("hog", "jobs"), ("job", "jobs"), ("chat", "chat"))
        return await sim.gather(
            [sim.create_task(server.run_inferlet(name, tenant=tenant)) for name, tenant in launches]
        )

    _, job, chat = sim.run_until_complete(fleet())
    (job_issued, job_done), (chat_issued, chat_done) = job.result, chat.result
    assert job_issued < chat_issued < job_done
    assert chat_done < job_done


def test_a_decode_forward_yields_with_two_classes():
    """Fails at the parent, which switched the yield off under QoS (and the
    ``tenants`` shorthand switched QoS on): the forward never yielded.  The
    interactive ``detour``'s embed runs first, its forward lands, and one
    2-row decode forward carries both (as one forward carries both
    prompts)."""
    # Imported here: that module imports this one's oracle at load time.
    from tests.test_forward_yields import _spy_on_forwards, _stepper

    sim = Simulator(seed=0)
    server = PieServer(sim, num_devices=1, tenants=list(TWO_CLASSES))
    server.register_program(_stepper("plain", detours=0))
    server.register_program(_stepper("detour", detours=1))
    scheduler = server.service().shards[0].scheduler
    forwards = _spy_on_forwards(sim, scheduler)

    async def fleet():
        launches = (("plain", "jobs"), ("detour", "chat"))
        return await sim.gather(
            [sim.create_task(server.run_inferlet(name, tenant=tenant)) for name, tenant in launches]
        )

    plain, detour = sim.run_until_complete(fleet())
    assert [(decode_rows, rows) for decode_rows, rows, _ in forwards] == [(0, 2), (2, 2)]
    # The prompts' forward waits for the second prompt's embed too.
    assert scheduler.stats.forward_yields == 2
    assert detour.result == plain.result


# -- no plane is involved ------------------------------------------------------------


def qos_names(source: str):
    """Every identifier in ``source`` naming QoS (the module a name is
    imported from is a path, not an identifier)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        names = [
            getattr(node, field, None)
            for field in ("id", "attr", "arg", "name", "asname")
            if not isinstance(node, ast.ImportFrom)
        ]
        found.extend(name for name in names if isinstance(name, str) and "qos" in name.lower())
    return found


def test_no_dispatch_module_names_qos():
    source = "self._qos = qos\nf(qos=None)\nfrom x.qos import QosService"
    assert sorted(qos_names(source)) == ["QosService", "_qos", "qos", "qos"]
    for module in ("scheduler", "router", "transfer", "service", "controller"):
        source = (CORE / f"{module}.py").read_text(encoding="utf-8")
        assert qos_names(source) == [], module


# -- the mutants ---------------------------------------------------------------------


def mutant_aging_removed(monkeypatch):
    def dispatch_key(batch, now):
        return (1, min(command.rank for command in batch.commands), batch.oldest_issue_time)

    monkeypatch.setattr(batching, "dispatch_key", dispatch_key)
    return test_aged_work_goes_first_whatever_its_class


def mutant_rank_ignored(monkeypatch):
    def dispatch_key(batch, now):
        oldest = batch.oldest_issue_time
        return (0 if now - oldest >= batching.AGING_MS / 1e3 else 1, oldest)

    monkeypatch.setattr(batching, "dispatch_key", dispatch_key)
    return test_interactive_issued_later_dispatches_first


def mutant_yields_skipped_with_two_classes(monkeypatch):
    forward_yields = BatchScheduler._forward_yields

    def skipped(self, candidates):
        if len({queue.rank for queue in self._queues.values()}) > 1:
            return False
        return forward_yields(self, candidates)

    monkeypatch.setattr(BatchScheduler, "_forward_yields", skipped)
    return test_a_decode_forward_yields_with_two_classes


@pytest.mark.parametrize(
    "mutant",
    [mutant_aging_removed, mutant_rank_ignored, mutant_yields_skipped_with_two_classes],
)
def test_mutants_are_killed(mutant, monkeypatch):
    killer = mutant(monkeypatch)
    with pytest.raises(AssertionError):
        killer()
