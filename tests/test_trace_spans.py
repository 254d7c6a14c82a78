"""The flight recorder only appends: each span is written once, when its
end is known, from a stamp the core already keeps (repro.core.trace).

* a scripted traced run pins every inferlet's phase spans — name, and
  start and end against the core's own stamps: they tile the lifecycle span
  from ``launched_at`` to the exit, admission ends at ``started_at``, each
  execution is its batch's span, a three-slice chunked prefill's waits end
  at its slices' dispatches, a raw write issued in the same instant as a
  ``synchronize`` runs before the barrier resolves, a repeat of it still
  queued at the exit is drained at queue teardown and its wait ends at the
  exit, and a parked-then-admitted, a parked-then-cancelled launch and a
  victim of reclamation end where their stamps say; each inferlet's spans are one
  block, written when it left;
* an AST scan: no ``begin`` / ``end`` call and no ``trace_span`` anywhere
  under ``src/repro``, so no core object carries a span handle;
* two mutants: a queue wait that starts at dispatch, and a tracer that
  skips the lifecycle span of a terminated inferlet.
"""

import ast
from pathlib import Path

import pytest

import repro
from repro.core import InferletProgram, PieServer, TenantSpec
from repro.core.timeline import TimelineKeeper
from repro.core.trace import LifecycleTracer
from repro.sim import Simulator
from repro.support import Context, SamplingParams

# 40 tokens under a 16-token chunk budget: two slices of 16, then the
# 8-token residual dispatches whole.  Three KV pages of 16 tokens.
TOKENS = list(range(1, 41))


async def chunky(ctx):
    context = Context(ctx, sampling=SamplingParams())
    # Allocated up front: the call's overhead is paid in fill's wait, so the
    # last wait below is as short as the write it follows.
    [slot] = ctx.alloc_emb(context.queue, 1)
    await context.fill(TOKENS)
    # The sampled token is never written: nothing reads it.
    await context.generate_until(max_tokens=1)
    [token] = context.generated_ids
    # A raw write of it: numbered at issue, so the barrier waits for both
    # commands and the forward retires before the exit.
    ctx.embed_txt(context.queue, [token], [len(TOKENS)], [slot])
    ctx.forward(context.queue, [], [slot], [], [slot])
    await ctx.synchronize(context.queue)
    # The same write again, fire and forget.  The sleep outlasts the calls'
    # delivery but not a batch's scheduling overhead: the write is still
    # queued at the exit, and queue teardown drains it.
    ctx.embed_txt(context.queue, [token], [len(TOKENS)], [slot])
    ctx.forward(context.queue, [], [slot], [], [slot])
    await ctx.sleep(20e-6)
    # Fire and forget: the deallocations hold behind that write.
    context.free()
    return "ok"


async def victim(ctx):
    context = Context(ctx, sampling=SamplingParams())
    await context.fill(TOKENS)
    await ctx.sleep(1.0)  # holds its three pages until reclaimed
    return "never"


async def requester(ctx):
    # Six of the device's eight pages: five are free, so a victim goes.
    ctx.alloc_kvpage(ctx.create_queue(), 6)
    return "ok"


async def job(ctx):
    await ctx.sleep(0.05)
    return "ok"


def scripted_run():
    sim = Simulator(seed=0)
    server = PieServer(
        sim,
        num_devices=1,
        num_kv_pages=8,
        prefill_chunk_tokens=16,
        tracing=True,
        tenants=[
            TenantSpec("backfill", priority_class="batch"),
            TenantSpec("front", priority_class="interactive"),
            TenantSpec("jobs", max_concurrent=1),
        ],
    )
    for main in (chunky, victim, requester, job):
        server.register_program(InferletProgram(name=main.__name__, main=main))
    launched, aborted_at = {}, []

    def launch(key, program, tenant=None):
        launched[key] = server.launch(program, tenant=tenant)[0]

    def abort():
        aborted_at.append(sim.now)
        server.lifecycle.abort(launched["cancelled"])

    sim.call_at(0.0, lambda: launch("chunky", "chunky"))
    sim.call_at(0.2, lambda: launch("victim", "victim", "backfill"))
    sim.call_at(0.3, lambda: launch("requester", "requester", "front"))
    for key in ("admitted", "parked", "cancelled"):
        sim.call_at(0.5, lambda key=key: launch(key, "job", "jobs"))
    sim.call_at(0.51, abort)
    sim.run()
    return server, launched, aborted_at


def end(span):
    return span["ts"] + span["dur"]


def check_scripted_run():
    server, launched, (aborted_at,) = scripted_run()
    trace = server.trace
    assert trace.dropped == 0
    ids = {key: instance.instance_id for key, instance in launched.items()}
    stamps = {key: instance.metrics for key, instance in launched.items()}
    spans = [event for event in trace.events() if event["ph"] == "X"]

    def of(key):
        return [s for s in spans if s["inferlet"] == ids[key]]

    def names(key):
        return [s["name"] for s in of(key)]

    # -- one block per inferlet, the lifecycle span first, tiled by phases ------
    for key in ids:
        block = of(key)
        assert block and block[0]["cat"] == "lifecycle", key
        first = spans.index(block[0])
        assert spans[first : first + len(block)] == block, key
        lifecycle, *phases = block
        assert lifecycle["ts"] == stamps[key].launched_at
        assert phases[0]["ts"] == lifecycle["ts"], key
        assert [end(s) for s in phases[:-1]] == [s["ts"] for s in phases[1:]], key
        assert end(phases[-1]) == pytest.approx(end(lifecycle), rel=0, abs=1e-12), key
        assert all(a["name"] != b["name"] for a, b in zip(phases, phases[1:])), key
        assert phases[0]["name"] == "admission" and phases[0]["cat"] == "admission"
        started = stamps[key].started_at
        assert end(phases[0]) == (end(lifecycle) if started is None else started), key

    def life(program, tenant, status):
        return {"program": program, "tenant": tenant, "status": status}

    # -- the chunked prefill, the raw write, the teardown drain ----------------
    assert of("chunky")[0]["args"] == life("chunky", "default", "finished")
    assert names("chunky")[1:] == [
        "admission",
        "queue", "compute",  # embed_text
        "queue", "prefill", "queue", "prefill", "queue", "prefill",  # three slices
        # (fill's dealloc_emb is no device work: it adds no span)
        "queue", "compute",  # sample
        "queue", "compute", "queue", "decode",  # the raw write, before the exit
        "queue",  # its repeat, drained at queue teardown
    ]  # fmt: skip
    finished = stamps["chunky"].finished_at
    batches = [s for s in spans if s["cat"] == "sched" and s["ts"] < finished]
    execs = [s for s in of("chunky") if s["cat"] == "exec"]
    assert [(s["ts"], end(s)) for s in execs] == [(b["ts"], end(b)) for b in batches]
    # Three slices, then the raw write's one token.
    assert [b["args"]["tokens"] for b in batches if b["name"] == "batch:forward"] == [16, 16, 8, 1]
    # The first wait starts when the program issued its first command, at
    # its start; the last is the drained repeat's, from its issue, after
    # the raw write's forward retired, to the exit.
    assert of("chunky")[2]["ts"] == stamps["chunky"].started_at
    assert of("chunky")[-1]["ts"] == end(of("chunky")[-2])
    assert end(of("chunky")[-1]) == finished

    assert names("victim") == ["inferlet", "admission"] + names("chunky")[2:10] + ["other"]
    assert names("requester") == ["inferlet", "admission"]
    assert names("admitted") == names("parked") == ["inferlet", "admission", "other"]
    assert names("cancelled") == ["inferlet", "admission"]
    assert {key: of(key)[0]["args"] for key in ids if key != "chunky"} == {
        "victim": life("victim", "backfill", "terminated"),
        "requester": life("requester", "front", "finished"),
        "admitted": life("job", "jobs", "finished"),
        "parked": life("job", "jobs", "finished"),
        "cancelled": life("job", "jobs", "terminated"),
    }

    # -- exits against the core's stamps --------------------------------------------
    (reclaim,) = [e for e in trace.events("sched") if e["name"] == "reclaim_terminate"]
    assert reclaim["inferlet"] == ids["victim"]
    assert reclaim["args"] == {"requester": ids["requester"]}
    assert end(of("victim")[0]) == reclaim["ts"] == stamps["requester"].started_at
    # Parked until the admitted job left, then handled.
    assert stamps["admitted"].finished_at < stamps["parked"].started_at
    for span in of("cancelled"):
        assert span["ts"] == stamps["cancelled"].launched_at
        assert end(span) == pytest.approx(aborted_at, rel=0, abs=1e-12)
    ids_written = [e["id"] for e in spans]
    assert len(set(ids_written)) == len(ids_written)


def test_each_span_is_written_once_from_the_core_stamps():
    check_scripted_run()


# -- no span handle anywhere ---------------------------------------------------------------


SRC = Path(repro.__file__).resolve().parent


def identifier(node):
    """The name a node binds or reads, if it has one."""
    for field in ("attr", "id", "name", "arg"):
        value = getattr(node, field, None)
        if isinstance(value, str):
            return value
    return None


def test_no_span_handle_under_src():
    """No ``begin`` / ``end`` call and no ``trace_span`` under ``src/repro``
    (a regex match's ``end()`` is the one ``end`` that is no span)."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            where = f"{path.relative_to(SRC)}:{getattr(node, 'lineno', '?')}"
            name = identifier(node)
            if name == "trace_span" or (
                isinstance(node, ast.FunctionDef) and name in ("begin", "end", "open_spans")
            ):
                found.append(f"{where}: {name}")
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("begin", "end")
                and identifier(node.func.value) != "match"
            ):
                found.append(f"{where}: .{node.func.attr}()")
    assert found == []


# -- mutants -------------------------------------------------------------------------------


DISPATCHED = TimelineKeeper.note_dispatched


def wait_from_dispatch(self, shard_index, commands):
    """Mutant: a queue wait starts when it ends, not at ``issue_time``."""
    issued = [command.issue_time for command in commands]
    for command in commands:
        command.issue_time = self.sim.now
    try:
        DISPATCHED(self, shard_index, commands)
    finally:
        for command, issue_time in zip(commands, issued):
            command.issue_time = issue_time


FINISHED = LifecycleTracer.note_finished


def skip_terminated(self, instance):
    """Mutant: a terminated inferlet's lifecycle span is never written."""
    if instance.status != "terminated":
        FINISHED(self, instance)


def test_mutant_wait_from_dispatch_is_killed(monkeypatch):
    monkeypatch.setattr(TimelineKeeper, "note_dispatched", wait_from_dispatch)
    with pytest.raises(AssertionError):
        check_scripted_run()


def test_mutant_skipping_a_terminated_lifecycle_is_killed(monkeypatch):
    monkeypatch.setattr(LifecycleTracer, "note_finished", skip_terminated)
    with pytest.raises(AssertionError):
        check_scripted_run()
