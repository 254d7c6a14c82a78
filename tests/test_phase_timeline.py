"""The phase timeline against the overlap sweep it replaced.

``repro.core.timeline`` keeps one ``(t, phase)`` timeline per inferlet as
serving happens and closes it into ten bucket totals on
``InferletMetrics.stall_buckets``.  Before it, the flight recorder wrote a
span per command wait, per command execution, per swap stall, KV stream,
handoff and relaunch, and ``tools/trace_report`` swept them per inferlet by
a fixed priority.  That code is kept here verbatim as the oracle: an
observer writing the old spans to its own recorder, told every note beside
the keeper, and the old sweep over them.

* traced runs covering chunked prefill, teardown drains and delivery-window
  drops, reclamation, a parked-then-admitted, a parked-then-cancelled and a
  refused launch, an exec still in flight at the exit, host-tier swap
  stalls, a shard kill with a relaunch, and disaggregation (KV streams and
  handoffs) with a shard kill: on every inferlet all ten buckets equal the
  oracle's within 1e-9 s, and so do the trace's phase spans;
* an untraced run's buckets equal the traced run's ``attribute_stalls``;
* two mutants are killed: a window that overwrites a higher-ranked
  segment, and a close that ignores execs still in flight.
"""

import inspect
from typing import Any, Dict, List, Optional

import pytest

from repro.core import InferletProgram, PieServer, TenantSpec
from repro.core import controller as controller_module
from repro.core import timeline as timeline_module
from repro.core.config import ControlLayerConfig, PieConfig
from repro.core.inferlet import LifecycleObserver
from repro.core.timeline import BUCKETS, Timeline, TimelineKeeper
from repro.core.trace import TraceRecorder
from repro.errors import AdmissionRejectedError
from repro.gpu.config import GpuConfig
from repro.sim import Simulator
from repro.sim.latency import ConstantLatency
from repro.support import Context, SamplingParams
from repro.tools.trace_report import attribute_stalls

# -- the oracle: the old per-inferlet spans ------------------------------------------


class OracleTracer(LifecycleObserver):
    """The old tracer's per-inferlet span notes, verbatim.  (Its
    ``admission_queued`` span, from launch to leaving the tenant's backlog,
    lay inside the ``launch`` span, so the sweep never saw it; the note
    that wrote it is gone.)"""

    def __init__(self, recorder: TraceRecorder) -> None:
        self.recorder = recorder

    def note_running(self, instance) -> None:
        self._since_launch("launch", "admission", instance, None)

    def note_finished(self, instance) -> None:
        status = instance.status
        if instance.metrics.started_at is None:  # it never ran
            outcome = {"terminated": "aborted", "rejected": "rejected"}.get(status, "failed")
            self._since_launch("launch", "admission", instance, {outcome: True})
        args = {"program": instance.program.name, "tenant": instance.tenant, "status": status}
        self._since_launch("inferlet", "lifecycle", instance, args)

    def _since_launch(self, name: str, cat: str, instance, args: Optional[dict]) -> None:
        """Write a span from the instance's ``launched_at`` stamp to now."""
        self.recorder.complete(
            name, cat, instance.metrics.launched_at, inferlet=instance.instance_id, args=args
        )

    def note_dispatched(self, shard_index, commands) -> None:
        for command in commands:
            self._queue_wait(command, shard_index)

    def note_dropped(self, shard_index, command) -> None:
        self._queue_wait(command, shard_index, dropped=True)

    def _queue_wait(self, command, shard: int, dropped: bool = False) -> None:
        residual = command.parent or command
        sliced = command.input_tokens if command.is_chunk else 0
        args: Dict[str, Any] = {}
        if residual.chunks_taken > (1 if sliced else 0):
            args["residual_tokens"] = residual.input_tokens + sliced
        elif residual.input_tokens:
            args["tokens"] = residual.input_tokens + sliced
        if sliced:
            args["sliced"] = sliced
        if dropped:
            args["dropped"] = True
        self.recorder.complete(
            f"queue:{command.kind}",
            "queue",
            command.issue_time,
            shard=shard,
            inferlet=command.inferlet_id,
            args=args or None,
        )

    def note_batch_done(self, shard_index, batch, dispatched, failed) -> None:
        for command in batch.commands:
            if batch.kind == "forward":
                name = "decode" if command.is_decode_row else "prefill"
            else:
                name = command.kind
            self.recorder.complete(
                name,
                "exec",
                dispatched,
                shard=shard_index,
                inferlet=command.inferlet_id,
                args={"tokens": max(1, command.input_tokens), "kind": command.kind},
            )

    def note_swap_stall(self, instance, started) -> None:
        self.recorder.complete("swap_stall", "swap", started, inferlet=instance.instance_id)

    def note_kv_streamed(self, owner, src_index, dst_index, pages, size, arrival) -> None:
        self.recorder.complete(
            "kv_stream",
            "transfer",
            self.recorder.sim.now,
            end=arrival,
            shard=src_index,
            inferlet=owner,
            args={"pages": pages, "bytes": size, "dst": dst_index},
        )

    def note_handoff(self, owner, src, dst, stall, landing, tail_pages) -> None:
        if stall + landing > 0.0:
            now = self.recorder.sim.now
            self.recorder.complete(
                "handoff",
                "transfer",
                now,
                end=now + stall + landing,
                shard=dst.index,
                inferlet=owner,
                args={"stall": stall, "landing": landing, "tail_pages": tail_pages},
            )

    def note_relaunched(self, instance, dead, dst, embeds) -> None:
        self.recorder.complete(
            "relaunch",
            "fault",
            dead.device.down_since,
            shard=dst.index,
            inferlet=instance.instance_id,
            args={"src": dead.index, "dst": dst.index, "embeds": embeds},
        )


# -- the oracle: the old sweep ------------------------------------------------------------

CATEGORY_PRIORITY = (
    "swap",
    "transfer",
    "relaunch",
    "prefill",
    "decode",
    "compute",
    "queue",
    "admission",
)
ATTRIBUTION_BUCKETS = CATEGORY_PRIORITY + ("decode_gap", "other")


def _bucket_of(event: dict) -> Optional[str]:
    cat = event.get("cat")
    if cat in ("swap", "transfer", "queue", "admission"):
        return cat
    if cat == "exec":
        name = event.get("name")
        if name in ("prefill", "decode"):
            return name
        return "compute"
    if cat == "fault" and event.get("name") == "relaunch":
        return "relaunch"
    return None


def sweep(events: List[dict]) -> Dict[str, dict]:
    per: Dict[str, dict] = {}
    for event in events:
        inferlet = event.get("inferlet")
        if inferlet is None or event.get("ph") != "X":
            continue
        record = per.setdefault(inferlet, {"lifecycle": None, "spans": []})
        if event.get("cat") == "lifecycle":
            if record["lifecycle"] is None:
                record["lifecycle"] = event
        else:
            record["spans"].append(event)
    return {inferlet: _attribute_one(record) for inferlet, record in sorted(per.items())}


def _attribute_one(record: dict) -> dict:
    intervals = []  # (start, end, bucket)
    for event in record["spans"]:
        bucket = _bucket_of(event)
        if bucket is None:
            continue
        start = event["ts"]
        end = start + event.get("dur", 0.0)
        if end > start:
            intervals.append((start, end, bucket))

    lifecycle = record["lifecycle"]
    if lifecycle is not None:
        launch = lifecycle["ts"]
        finish = launch + lifecycle.get("dur", 0.0)
    elif intervals:  # synthetic/partial traces without lifecycle spans
        launch = min(start for start, _, _ in intervals)
        finish = max(end for _, end, _ in intervals)
    else:
        launch = finish = 0.0

    status = None
    aborted = False
    if lifecycle is not None:
        args = lifecycle.get("args") or {}
        status = args.get("status")
        aborted = status in ("terminated", "failed")

    clipped = []
    for start, end, bucket in intervals:
        lo, hi = max(start, launch), min(end, finish)
        if hi > lo:
            clipped.append((lo, hi, bucket))

    points = sorted(
        {launch, finish}
        | {start for start, _, _ in clipped}
        | {end for _, end, _ in clipped}
    )
    exec_spans = [
        (start, end)
        for start, end, bucket in clipped
        if bucket in ("prefill", "decode", "compute")
    ]
    first_exec_end = min((end for _, end in exec_spans), default=None)
    last_exec_start = max((start for start, _ in exec_spans), default=None)
    priority = {name: rank for rank, name in enumerate(CATEGORY_PRIORITY)}
    buckets = {name: 0.0 for name in ATTRIBUTION_BUCKETS}
    for left, right in zip(points, points[1:]):
        if right <= left:
            continue
        mid = (left + right) / 2.0
        covering = [b for start, end, b in clipped if start <= mid < end]
        if covering:
            buckets[min(covering, key=priority.__getitem__)] += right - left
        elif (
            first_exec_end is not None
            and left >= first_exec_end
            and right <= last_exec_start
        ):
            buckets["decode_gap"] += right - left
        else:
            buckets["other"] += right - left

    return {
        "launch": launch,
        "finish": finish,
        "latency": finish - launch,
        "status": status,
        "aborted": aborted,
        "buckets": buckets,
    }


# -- the keeper and the oracle, told every note ---------------------------------------


class Tee(LifecycleObserver):
    """The keeper, then the oracle; keeps what each inferlet's close wrote."""

    def __init__(self, sim) -> None:
        self.keeper = TimelineKeeper(sim)
        self.oracle = OracleTracer(TraceRecorder(sim))
        self.closed: Dict[str, dict] = {}
        self.on_dispatch = None

    def note_finished(self, instance) -> None:
        self.keeper.note_finished(instance)
        self.oracle.note_finished(instance)
        self.closed[instance.instance_id] = dict(instance.metrics.stall_buckets)

    def note_dispatched(self, shard_index, commands) -> None:
        self.keeper.note_dispatched(shard_index, commands)
        self.oracle.note_dispatched(shard_index, commands)
        if self.on_dispatch is not None:
            self.on_dispatch(commands)


def _told(name):
    def note(self, *args):
        getattr(self.keeper, name)(*args)
        getattr(self.oracle, name)(*args)

    note.__name__ = name
    return note


for _name in vars(LifecycleObserver):
    if _name.startswith("note_") and _name not in vars(Tee):
        setattr(Tee, _name, _told(_name))


@pytest.fixture
def tees(monkeypatch):
    """Every controller built in the test gets a :class:`Tee` for its keeper."""
    built: List[Tee] = []

    def build(sim):
        built.append(Tee(sim))
        return built[-1]

    monkeypatch.setattr(controller_module, "TimelineKeeper", build)
    return built


def check(tee: Tee, server=None) -> int:
    """Every closed inferlet: the keeper's buckets equal the oracle's, and
    the trace's phase spans sum to them; returns how many were checked."""
    oracle = {
        inferlet: row
        for inferlet, row in sweep(tee.oracle.recorder.events()).items()
        if row["status"] is not None
    }
    assert tee.oracle.recorder.dropped == 0
    assert set(oracle) == set(tee.closed)
    traced = attribute_stalls(server.trace.events()) if server is not None else None
    for inferlet, row in oracle.items():
        buckets = tee.closed[inferlet]
        assert set(buckets) == set(BUCKETS) == set(row["buckets"])
        for name in BUCKETS:
            assert buckets[name] == pytest.approx(row["buckets"][name], rel=0, abs=1e-9), (
                inferlet,
                name,
                buckets,
                row["buckets"],
            )
        assert sum(buckets.values()) == pytest.approx(row["latency"], rel=0, abs=1e-9)
        if traced is not None:
            assert traced[inferlet]["buckets"] == buckets
            assert traced[inferlet]["latency"] == row["latency"]
            assert traced[inferlet]["status"] == row["status"]
    return len(oracle)


# -- the runs ---------------------------------------------------------------------------

TOOL_URL = "http://tools/archive"
# 40 tokens under a 16-token chunk budget: two slices of 16, then the 8-token
# residual dispatches whole.  Three KV pages of 16 tokens.
TOKENS = list(range(1, 41))


async def chunky(ctx):
    context = Context(ctx, sampling=SamplingParams())
    [slot] = ctx.alloc_emb(context.queue, 1)
    await context.fill(TOKENS)
    await context.generate_until(max_tokens=2)
    ctx.embed_txt(context.queue, [context.generated_ids[-1]], [len(TOKENS) + 1], [slot])
    ctx.forward(context.queue, [], [slot], [], [slot])
    await ctx.synchronize(context.queue)
    context.free()  # its deallocs are still in their delivery window at exit
    return "ok"


async def victim(ctx):
    context = Context(ctx, sampling=SamplingParams())
    await context.fill(TOKENS)
    await ctx.sleep(1.0)  # holds its three pages until reclaimed
    return "never"


async def requester(ctx):
    ctx.alloc_kvpage(ctx.create_queue(), 6)
    return "ok"


async def job(ctx):
    await ctx.sleep(0.05)
    return "ok"


async def interrupted(ctx):
    """Prefills, writes one embed, idles, then forwards it: aborted while
    that forward runs, after an idle stretch only the in-flight exec
    makes a gap between executions."""
    context = Context(ctx, sampling=SamplingParams())
    [slot] = ctx.alloc_emb(context.queue, 1)
    await context.fill(TOKENS[:8])
    ctx.embed_txt(context.queue, [9], [8], [slot])
    await ctx.synchronize(context.queue)
    await ctx.sleep(0.05)
    ctx.forward(context.queue, [], [slot], [], [slot])
    await ctx.sleep(1.0)
    return "never"


def scripted_run(tracing=True):
    sim = Simulator(seed=0)
    server = PieServer(
        sim,
        num_devices=1,
        num_kv_pages=8,
        prefill_chunk_tokens=16,
        tracing=tracing,
        tenants=[
            TenantSpec("backfill", priority_class="batch"),
            TenantSpec("front", priority_class="interactive"),
            TenantSpec("jobs", max_concurrent=1, max_queued=2),
        ],
    )
    for main in (chunky, victim, requester, job, interrupted):
        server.register_program(InferletProgram(name=main.__name__, main=main))
    launched, refused = {}, []

    def launch(key, program, tenant=None):
        try:
            launched[key] = server.launch(program, tenant=tenant)[0]
        except AdmissionRejectedError:
            refused.append(key)

    def abort_during_the_second_forward(commands):
        target = launched.get("interrupted")
        if target is None or target.finished:
            return
        mine = [c for c in commands if c.inferlet_id == target.instance_id]
        if any(c.kind == "forward" for c in mine) and sim.now > target.metrics.launched_at + 0.05:
            sim.schedule(1e-6, server.lifecycle.abort, target)

    sim.call_at(0.0, lambda: launch("chunky", "chunky"))
    sim.call_at(0.2, lambda: launch("victim", "victim", "backfill"))
    sim.call_at(0.3, lambda: launch("requester", "requester", "front"))
    for key in ("admitted", "parked", "cancelled", "refused"):
        sim.call_at(0.5, lambda key=key: launch(key, "job", "jobs"))
    sim.call_at(0.51, lambda: server.lifecycle.abort(launched["cancelled"]))
    sim.call_at(0.6, lambda: launch("interrupted", "interrupted"))
    return sim, server, launched, refused, abort_during_the_second_forward


def run_scripted(tees, tracing=True):
    sim, server, launched, refused, hook = scripted_run(tracing)
    [tee] = tees
    tee.on_dispatch = hook
    sim.run()
    assert refused == ["refused"]
    return tee, server, launched


def fleet(seed, disagg, crash, tracing=True, n_agents=4):
    """Tool-calling agents on two shards with a host tier; ``crash`` kills
    shard 1 at that time."""
    sim = Simulator(seed=seed)
    config = PieConfig(
        gpu=GpuConfig(num_kv_pages=64, num_devices=2, host_kv_pages=48),
        control=ControlLayerConfig(
            placement_policy="disaggregated" if disagg else "round_robin",
            prefill_shards=1,
            swap_policy="proactive",
            prefill_chunk_tokens=16,
            fault_plan=(("shard_crash", crash, 1),) if crash is not None else (),
            tracing=tracing,
        ),
    )
    server = PieServer(sim, config=config)
    server.register_external(TOOL_URL, lambda payload: "rows", ConstantLatency(0.15))

    def agent(index):
        async def main(ctx):
            context = Context(ctx, sampling=SamplingParams())
            await context.fill(f"System: a traced fleet agent. Task {index}. " * 2)
            await context.generate_until(max_tokens=3)
            observation = await ctx.http_get(TOOL_URL)
            await context.fill(f"obs:{observation} ")
            await context.generate_until(max_tokens=3)
            context.free()
            return None

        return InferletProgram(name=f"agent{index}", main=main)

    for index in range(n_agents):
        server.register_program(agent(index))

    async def one(index):
        await sim.sleep(0.03 + 0.07 * index)
        return await server.run_inferlet(f"agent{index}")

    async def run_all():
        return await sim.gather([sim.create_task(one(i)) for i in range(n_agents)])

    return server, sim.run_until_complete(run_all())


def mover(tracing=True):
    """Swapped to the host tier during a long tool call, its shard killed
    under it, relaunched on the survivor."""
    sim = Simulator(seed=3)
    config = PieConfig(
        gpu=GpuConfig(num_kv_pages=64, num_devices=2, host_kv_pages=64),
        control=ControlLayerConfig(
            swap_policy="proactive",
            tracing=tracing,
            fault_plan=(("shard_crash", 0.45, 0),),
        ),
    )
    server = PieServer(sim, config=config)
    server.register_external(TOOL_URL, lambda payload: "rows", ConstantLatency(0.5))

    async def main(ctx):
        context = Context(ctx, sampling=SamplingParams())
        await context.fill("A long analysis prompt. " * 12)
        await context.generate_until(max_tokens=3)
        observation = await ctx.http_get(TOOL_URL)
        await context.fill(f"obs:{observation} ")
        out = await context.generate_until(max_tokens=3)
        context.free()
        return out

    server.register_program(InferletProgram(name="mover", main=main))
    result = sim.run_until_complete(server.run_inferlet("mover"))
    assert result.status == "finished"
    assert server.metrics.failover_relaunches == 1
    return server, result


# -- the oracle checks ---------------------------------------------------------------------


def test_scripted_run_matches_the_sweep(tees):
    tee, server, launched = run_scripted(tees)
    assert check(tee, server) == len(launched) + 1
    statuses = {key: instance.status for key, instance in launched.items()}
    assert statuses == {
        "chunky": "finished",
        "victim": "terminated",
        "requester": "finished",
        "admitted": "finished",
        "parked": "finished",
        "cancelled": "terminated",
        "interrupted": "terminated",
    }
    buckets = {key: instance.metrics.stall_buckets for key, instance in launched.items()}
    # Not vacuous: slices prefill, the aborted one's idle stretch lies
    # between executions only through its in-flight forward.
    assert buckets["chunky"]["prefill"] > 0 and buckets["chunky"]["queue"] > 0
    assert buckets["interrupted"]["decode_gap"] > 0.04
    assert buckets["cancelled"]["admission"] == sum(buckets["cancelled"].values()) > 0


def test_swap_stall_and_relaunch_match_the_sweep(tees):
    server, result = mover()
    [tee] = tees
    assert check(tee, server) == 1
    buckets = server.metrics.per_inferlet[result.instance_id].stall_buckets
    assert buckets["relaunch"] > 0 and buckets["swap"] > 0


@pytest.mark.parametrize("disagg", [False, True])
@pytest.mark.parametrize("crash", [None, 0.12, 0.3])
def test_fleets_match_the_sweep(tees, disagg, crash):
    server, results = fleet(seed=7, disagg=disagg, crash=crash)
    [tee] = tees
    assert check(tee, server) == len(results)
    totals = {name: 0.0 for name in BUCKETS}
    for record in server.metrics.per_inferlet.values():
        for name, value in record.stall_buckets.items():
            totals[name] += value
    assert totals["queue"] > 0 and totals["decode_gap"] > 0
    if disagg:
        assert totals["transfer"] > 0
    if crash is not None:
        assert server.metrics.shard_crashes == 1


def test_untraced_buckets_equal_the_traced_attribution(tees):
    """The always-built keeper needs no recorder: an untraced run's
    per-inferlet buckets are the traced run's ``attribute_stalls``."""
    server, results = fleet(seed=5, disagg=True, crash=0.3, tracing=False)
    assert server.trace is None
    untraced = [server.metrics.per_inferlet[r.instance_id].stall_buckets for r in results]
    server, results = fleet(seed=5, disagg=True, crash=0.3, tracing=True)
    rows = attribute_stalls(server.trace.events())
    assert [rows[r.instance_id]["buckets"] for r in results] == untraced
    assert all(sum(buckets.values()) > 0 for buckets in untraced)


# -- mutants ---------------------------------------------------------------------------


def mutate(monkeypatch, method, old, new):
    """Replace ``method`` of :class:`Timeline` by its source with one edit."""
    source = inspect.getsource(getattr(Timeline, method))
    assert source.count(old) == 1, old
    namespace = dict(vars(timeline_module))
    code = compile("if True:\n" + source.replace(old, new), timeline_module.__file__, "exec")
    exec(code, namespace)
    monkeypatch.setattr(Timeline, method, namespace[method])


def test_mutant_window_overwriting_a_stronger_segment_is_killed(tees, monkeypatch):
    mutate(monkeypatch, "window", "if held > phase and t < now:", "if t < now:")
    with pytest.raises(AssertionError):
        check(*run_scripted(tees)[:2])


def test_mutant_close_ignoring_execs_in_flight_is_killed(tees, monkeypatch):
    mutate(monkeypatch, "close", "if any(self.running) and", "if False and")
    with pytest.raises(AssertionError):
        check(*run_scripted(tees)[:2])
