"""The flight recorder only appends: each span is written once, when it
ends, from a stamp the core already keeps (repro.core.trace).

* a scripted traced run pins every queue, admission and lifecycle span it
  writes — name, outcome, and start and end against the core's own stamps:
  a three-slice chunked prefill whose waits tile from submission to the
  final dispatch, commands drained at queue teardown and dropped in the
  delivery window, a parked-then-admitted and a parked-then-cancelled
  launch, and a victim of reclamation;
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
from repro.core.trace import LifecycleTracer
from repro.sim import Simulator
from repro.support import Context, SamplingParams

# 40 tokens under a 16-token chunk budget: two slices of 16, then the
# 8-token residual dispatches whole.  Three KV pages of 16 tokens.
TOKENS = list(range(1, 41))


async def chunky(ctx):
    context = Context(ctx, sampling=SamplingParams())
    await context.fill(TOKENS)
    # Appending the sampled token is left pending in the queue at exit.
    await context.generate_until(max_tokens=1)
    # Fire and forget: the deallocs are still in their delivery window.
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

    def spans(key, *cats):
        return [
            event
            for event in trace.events()
            if event["ph"] == "X" and event["inferlet"] == ids[key] and event["cat"] in cats
        ]

    def told(key):
        return [(s["name"], s["args"]) for s in spans(key, "queue", "admission", "lifecycle")]

    def life(program, tenant, status):
        return ("inferlet", {"program": program, "tenant": tenant, "status": status})

    # -- the chunked prefill, the teardown drain, the delivery window ----------
    assert told("chunky") == [
        ("launch", None),
        ("queue:embed_text", {"tokens": 40}),
        ("queue:forward", {"tokens": 40, "sliced": 16}),
        ("queue:forward", {"residual_tokens": 24, "sliced": 16}),
        ("queue:forward", {"residual_tokens": 8}),
        ("queue:dealloc_emb", None),
        ("queue:sample", None),
        ("queue:embed_text", {"tokens": 1, "dropped": True}),
        ("queue:forward", {"tokens": 1, "dropped": True}),
        life("chunky", "default", "finished"),
        ("queue:dealloc_kv", {"dropped": True}),
        ("queue:dealloc_emb", {"dropped": True}),
    ]
    queue = spans("chunky", "queue")
    waits = [s for s in queue if s["name"] == "queue:forward"][:3]
    prefills = [s for s in spans("chunky", "exec") if s["name"] == "prefill"]
    assert [s["args"]["tokens"] for s in prefills] == [16, 16, 8]
    # The waits tile from submission (the instant the embed it reads was
    # issued) to the final dispatch; each ends where its slice's prefill starts.
    assert waits[0]["ts"] == queue[0]["ts"] and waits[0]["dur"] > 0
    assert [end(w) for w in waits] == [p["ts"] for p in prefills]
    assert [w["ts"] for w in waits[1:]] == [p["ts"] for p in prefills[:-1]]
    finished = stamps["chunky"].finished_at
    drained, in_air = queue[-4:-2], queue[-2:]
    assert all(end(s) == finished and s["dur"] > 0 for s in drained)
    assert all(s["ts"] == finished and end(s) > finished for s in in_air)

    assert told("victim") == [
        ("launch", None),
        ("queue:embed_text", {"tokens": 40}),
        ("queue:forward", {"tokens": 40, "sliced": 16}),
        ("queue:forward", {"residual_tokens": 24, "sliced": 16}),
        ("queue:forward", {"residual_tokens": 8}),
        ("queue:dealloc_emb", None),
        life("victim", "backfill", "terminated"),
    ]
    assert told("requester") == [("launch", None), life("requester", "front", "finished")]
    assert told("admitted") == [("launch", None), life("job", "jobs", "finished")]
    assert told("parked") == [
        ("admission_queued", {"tenant": "jobs"}),
        ("launch", None),
        life("job", "jobs", "finished"),
    ]
    assert told("cancelled") == [
        ("admission_queued", {"tenant": "jobs", "cancelled": True}),
        ("launch", {"aborted": True}),
        life("job", "jobs", "terminated"),
    ]

    # -- admission and lifecycle spans start at launched_at --------------------
    for key in ids:
        (launch,) = [s for s in spans(key, "admission") if s["name"] == "launch"]
        (lifecycle,) = spans(key, "lifecycle")
        assert launch["ts"] == lifecycle["ts"] == stamps[key].launched_at, key
        if stamps[key].started_at is not None:
            assert end(launch) == stamps[key].started_at, key
        else:
            assert end(launch) == end(lifecycle), key

    (reclaim,) = [e for e in trace.events("sched") if e["name"] == "reclaim_terminate"]
    assert (reclaim["inferlet"], reclaim["args"]) == (ids["victim"], {"requester": ids["requester"]})
    (victim_life,) = spans("victim", "lifecycle")
    assert end(victim_life) == reclaim["ts"] == stamps["requester"].started_at
    queued, _ = spans("parked", "admission")
    assert queued["ts"] == stamps["parked"].launched_at
    assert end(queued) == stamps["admitted"].finished_at
    for span in spans("cancelled", "admission", "lifecycle"):
        assert span["ts"] == stamps["cancelled"].launched_at
        assert end(span) == pytest.approx(aborted_at, rel=0, abs=1e-12)
    ids_written = [e["id"] for e in trace.events() if e["ph"] == "X"]
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


WAIT = LifecycleTracer._queue_wait


def wait_from_dispatch(self, command, shard, dropped=False):
    """Mutant: a queue wait starts when it ends, not at ``issue_time``."""
    issued, command.issue_time = command.issue_time, self.recorder.sim.now
    try:
        WAIT(self, command, shard, dropped=dropped)
    finally:
        command.issue_time = issued


FINISHED = LifecycleTracer.note_finished


def skip_terminated(self, instance):
    """Mutant: a terminated inferlet's lifecycle span is never written."""
    if instance.status != "terminated":
        FINISHED(self, instance)


def test_mutant_wait_from_dispatch_is_killed(monkeypatch):
    monkeypatch.setattr(LifecycleTracer, "_queue_wait", wait_from_dispatch)
    with pytest.raises(AssertionError):
        check_scripted_run()


def test_mutant_skipping_a_terminated_lifecycle_is_killed(monkeypatch):
    monkeypatch.setattr(LifecycleTracer, "note_finished", skip_terminated)
    with pytest.raises(AssertionError):
        check_scripted_run()
