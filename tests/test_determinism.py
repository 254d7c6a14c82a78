"""Determinism regression for the full cluster + swap + prefix-cache stack.

Two identical seeded simulations must produce bit-identical SystemMetrics
(and finish at the same virtual time).  This guards against wall-clock
time, unseeded randomness or iteration-order nondeterminism leaking into
the simulator — the property every experiment in this repo rests on.
"""

from dataclasses import asdict

from repro.core import InferletProgram, PieServer, TenantSpec, health, monitor
from repro.core.config import ControlLayerConfig, PieConfig
from repro.core.timeline import TimelineKeeper
from repro.core.trace import TRACE_CATEGORIES
from repro.gpu.config import GpuConfig
from repro.sim import Simulator
from repro.sim.latency import ConstantLatency
from repro.support import Context, SamplingParams

TOOL_URL = "http://tools/slow-crm"
PROMPT = (
    "System: you are one agent in a determinism regression fleet; answer "
    "tersely and deterministically, every single run. "
)


def make_agent(index):
    async def main(ctx):
        context = Context(ctx, sampling=SamplingParams())
        await context.fill(PROMPT + f"Task {index}. ")
        await context.generate_until(max_tokens=2 + index % 2)
        observation = await ctx.http_get(TOOL_URL)
        await context.fill(f"obs:{observation} ")
        answer = await context.generate_until(max_tokens=2)
        context.free()
        return answer

    return InferletProgram(name=f"det{index}", main=main, prefix_hint=PROMPT)


def run_stack(
    seed=7,
    n_agents=6,
    classes=False,
    chunked=False,
    disagg=False,
    tracing=False,
    fault_plan=(),
    export_at=(),
):
    """Cluster of 2 devices + host KV tier + prefix cache, staggered fleet.

    ``classes=True`` registers two tenants of different classes (the
    interactive fleet, a batch backfill capped at two): the launch gate
    parks, and dispatch, batch merging and preemption tell the classes
    apart.  The determinism guarantee must hold either way.
    ``chunked=True`` slices prefills under a small token budget (chunked
    prefill); otherwise the default budget never binds on this fleet.
    ``disagg=True`` splits the two devices into one prefill and one decode
    shard with KV-page streaming between them (repro.core.transfer);
    token sampling is per-instance, so the emitted text must be
    bit-identical to the disaggregation-off run.  ``tracing=True`` turns on
    the flight recorder (repro.core.trace), which must observe without
    perturbing: tokens, metrics and virtual timestamps stay bit-identical
    to the tracing-off run.  The live SLO monitor (repro.core.monitor) is
    on in every run under the same contract, and ``export_at`` takes its
    snapshot document at those virtual times, mid-run.  The chaos plane
    (repro.sim.faults + repro.core.health) is too: the seeded
    ``fault_plan`` replays bit-identically.
    """
    sim = Simulator(seed=seed)
    # Small enough that the ~40-token fleet prompts actually slice.
    max_batch_tokens, chunk_tokens = (
        (24, 16)
        if chunked
        else (GpuConfig.max_batch_tokens, ControlLayerConfig.prefill_chunk_tokens)
    )
    tenants = (
        (
            TenantSpec(name="fleet", priority_class="interactive"),
            TenantSpec(name="backfill", priority_class="batch", max_concurrent=2),
        )
        if classes
        else ()
    )
    config = PieConfig(
        gpu=GpuConfig(
            num_kv_pages=96,
            num_devices=2,
            host_kv_pages=64,
            max_batch_tokens=max_batch_tokens,
        ),
        control=ControlLayerConfig(
            prefix_cache=True,
            placement_policy="disaggregated" if disagg else "cache_affinity",
            prefill_shards=1,
            tenants=tenants,
            prefill_chunk_tokens=chunk_tokens,
            tracing=tracing,
            fault_plan=tuple(tuple(entry) for entry in fault_plan),
        ),
    )
    server = PieServer(sim, config=config)
    server.register_external(TOOL_URL, lambda payload: "rows", ConstantLatency(0.2))
    programs = [make_agent(i) for i in range(n_agents)]
    for program in programs:
        server.register_program(program)

    async def one(program, delay, tenant):
        await sim.sleep(delay)
        return await server.run_inferlet(program.name, tenant=tenant)

    async def run_all():
        tasks = [
            sim.create_task(
                one(
                    p,
                    i * 0.15,
                    ("fleet" if i % 2 == 0 else "backfill") if classes else None,
                )
            )
            for i, p in enumerate(programs)
        ]
        return await sim.gather(tasks)

    mid_run = []
    for when in export_at:
        sim.call_at(when, lambda: mid_run.append(server.export_metrics()))
    results = sim.run_until_complete(run_all())
    metrics = asdict(server.metrics)
    # Instance ids embed a process-global launch counter (det0-1 vs det0-7
    # on a second run); re-key the per-inferlet block by program name so
    # only *simulation* state is compared.
    per_inferlet = {}
    for instance_id, record in metrics.pop("per_inferlet").items():
        record = dict(record)
        record.pop("inferlet_id")
        per_inferlet[instance_id.rsplit("-", 1)[0]] = record
    metrics["per_inferlet"] = per_inferlet
    out = {
        "now": sim.now,
        "results": [(r.status, r.result) for r in results],
        "metrics": metrics,
    }
    if server.trace is not None:
        categories = {}
        for event in server.trace.events():
            categories[event["cat"]] = categories.get(event["cat"], 0) + 1
        # The catalogue is binding: every emitted category is listed there.
        assert set(categories) <= set(TRACE_CATEGORIES), set(categories) - set(TRACE_CATEGORIES)
        out["trace_categories"] = categories
    out["monitor_scrapes"] = server.monitor.scrapes_taken
    out["heartbeats"] = server.controller.health.heartbeat.ticks
    out["monitor_exports"] = [server.export_metrics(), server.export_metrics()]
    out["monitor_mid_run"] = mid_run
    return out


def test_identical_seeded_runs_are_bit_identical():
    first = run_stack()
    second = run_stack()
    assert first["now"] == second["now"]
    assert first["results"] == second["results"]
    assert first["metrics"] == second["metrics"]
    # The scenario actually exercises the stack under test.
    assert first["metrics"]["prefix_cache_hits"] > 0
    assert first["metrics"]["swap_outs"] > 0


def admitted(run) -> int:
    """Launches the gate admitted, over every tenant's record."""
    return sum(record["admitted"] for record in run["metrics"]["tenants"].values())


def test_qos_off_is_bit_identical_and_leaves_no_qos_trace():
    """With no tenant registered two seeded runs agree bit-for-bit, and
    nothing the removed QoS plane counted is left on the records."""
    first = run_stack()
    second = run_stack()
    assert first["now"] == second["now"]
    assert first["metrics"] == second["metrics"]
    # (The qos_preemption_* twins of reclamation_* are gone: the victim
    # order is the core's, QoS or not; so are the qos_{admitted, queued,
    # rejected} twins of the tenant records' counts.)
    assert not any(name.startswith("qos_") for name in first["metrics"])
    # The core keeps a record per tenant with every plane off, the launch
    # gate's decisions included: the default tenant is unlimited, so every
    # launch is admitted and none parks.
    [record] = first["metrics"]["tenants"].values()
    assert (record["tenant"], record["offered"], record["finished"]) == ("default", 6, 6)
    assert (record["admitted"], record["rejected"], record["queued"]) == (6, 0, 0)
    for field in ("handoffs", "dispatched_commands", "virtual_tokens"):
        assert field not in record, field
    # The preemption counts are the core's now, counted at the reclamation
    # rung; this run never reclaims, so they read zero because nothing was
    # preempted.
    assert first["metrics"]["reclamation_swaps"] == record["preempted_swaps"] == 0
    assert first["metrics"]["reclamation_terminations"] == record["preempted_terminations"] == 0


def test_qos_on_stack_is_bit_identical():
    """Determinism holds with two classes registered (the launch gate's
    backlog, class-then-age dispatch, class-first merging, tenant
    metrics)."""
    first = run_stack(classes=True)
    second = run_stack(classes=True)
    assert first["now"] == second["now"]
    assert first["results"] == second["results"]
    assert first["metrics"] == second["metrics"]
    # The scenario exercised the tenant machinery, not just its table.
    assert admitted(first) > 0
    assert set(first["metrics"]["tenants"]) == {"fleet", "backfill"}


def test_a_budget_that_never_binds_leaves_no_chunk_trace():
    """A batch budget that never binds slices nothing: every chunk counter
    stays zero on the full-stack run."""
    run = run_stack(chunked=False)
    for counter in (
        "prefill_chunks_dispatched",
        "decode_rows_co_batched",
        "chunk_stall_saved_seconds",
    ):
        assert run["metrics"][counter] == 0, counter


def test_chunked_on_stack_is_bit_identical():
    """Determinism holds with chunked prefill slicing live on the full
    cluster + swap + prefix-cache stack (and the slices really happen)."""
    first = run_stack(chunked=True)
    second = run_stack(chunked=True)
    assert first["now"] == second["now"]
    assert first["results"] == second["results"]
    assert first["metrics"] == second["metrics"]
    assert first["metrics"]["prefill_chunks_dispatched"] > 0


def test_chunked_and_qos_stack_is_bit_identical():
    """The full stack with *every* subsystem on: two classes plus chunked
    prefill must still be deterministic run-to-run."""
    first = run_stack(classes=True, chunked=True)
    second = run_stack(classes=True, chunked=True)
    assert first["now"] == second["now"]
    assert first["results"] == second["results"]
    assert first["metrics"] == second["metrics"]
    assert first["metrics"]["prefill_chunks_dispatched"] > 0
    assert admitted(first) > 0


def test_different_seeds_still_complete():
    run = run_stack(seed=8)
    assert all(status == "finished" for status, _ in run["results"])


def test_disagg_off_default_leaves_no_trace():
    """Any placement policy but "disaggregated" must never feed the transfer
    machinery: no prefill role, no chunk listeners, zero counters."""
    run = run_stack(disagg=False)
    for counter in (
        "disagg_handoffs",
        "disagg_handoff_failures",
        "disagg_pages_streamed",
        "disagg_pages_tail",
        "disagg_bytes_streamed",
        "disagg_handoff_stall_seconds",
    ):
        assert run["metrics"][counter] == 0, counter
    # Structural inertness, not just quiet counters: the transfer
    # scheduler every cluster carries holds no stream and no streaming hook
    # is installed.
    sim = Simulator(seed=1)
    server = PieServer(sim, num_devices=2)
    service = server.service()
    assert service.transfer.active_streams == 0
    assert service.transfer._forwards == {}
    for shard in service.shards:
        assert shard.role == "mixed"
        assert shard.scheduler._chunk_listener is None


def test_disagg_on_stack_is_bit_identical():
    """Determinism holds with prefill/decode disaggregation live on the
    full cluster + swap + prefix-cache stack (and handoffs really happen)."""
    first = run_stack(disagg=True)
    second = run_stack(disagg=True)
    assert first["now"] == second["now"]
    assert first["results"] == second["results"]
    assert first["metrics"] == second["metrics"]
    assert first["metrics"]["disagg_handoffs"] > 0


def test_disagg_tokens_match_disagg_off():
    """Migrating an inferlet mid-flight must not change what it says.

    KV pages and embed slots are copied content-exactly and sampling uses
    the per-instance rng, so the emitted text (and finish status) of every
    inferlet is bit-identical whether the fleet ran disaggregated or not —
    only placement and timing may differ."""
    on = run_stack(disagg=True)
    off = run_stack(disagg=False)
    assert all(status == "finished" for status, _ in on["results"])
    assert on["results"] == off["results"]
    assert on["metrics"]["disagg_handoffs"] > 0


def test_tracing_off_default_is_inert():
    """tracing=False (the default) constructs no recorder at all and every
    subsystem that tells observers holds the one always-built observer, the
    phase-timeline keeper: the off-knob path is structurally inert, not
    merely quiet."""
    sim = Simulator(seed=1)
    server = PieServer(sim, num_devices=2)
    assert server.trace is None
    assert server.controller.trace is None
    observers = server.controller.observers
    assert [type(observer) for observer in observers] == [TimelineKeeper]
    service = server.service()
    for subsystem in (service.mover, service.swap, service.transfer):
        assert subsystem.observers is observers
    for shard in service.shards:
        assert shard.scheduler.observers is observers


def test_tracing_on_does_not_perturb_the_run():
    """The flight recorder observes without perturbing: tokens, metrics
    and every virtual timestamp are bit-identical with tracing on vs off,
    on the full classes+chunked+disagg stack (and the trace is non-trivial)."""
    on = run_stack(classes=True, chunked=True, disagg=True, tracing=True)
    off = run_stack(classes=True, chunked=True, disagg=True, tracing=False)
    assert on["now"] == off["now"]
    assert on["results"] == off["results"]
    assert on["metrics"] == off["metrics"]
    categories = on["trace_categories"]
    for cat in ("lifecycle", "admission", "queue", "exec", "sched", "swap", "transfer", "counter"):
        assert categories.get(cat, 0) > 0, cat


def test_tracing_on_is_bit_identical_run_to_run():
    first = run_stack(classes=True, chunked=True, disagg=True, tracing=True)
    second = run_stack(classes=True, chunked=True, disagg=True, tracing=True)
    assert first["now"] == second["now"]
    assert first["results"] == second["results"]
    assert first["metrics"] == second["metrics"]
    assert first["trace_categories"] == second["trace_categories"]


def quiet(monkeypatch):
    """The watch planes' timers never arm: tick period 0."""
    monkeypatch.setattr(monitor, "SCRAPE_INTERVAL_MS", 0.0)
    monkeypatch.setattr(health, "HEARTBEAT_INTERVAL_MS", 0.0)


def test_monitoring_on_does_not_perturb_the_run(monkeypatch):
    """The monitor observes without perturbing: tokens, metrics and every
    virtual timestamp are bit-identical whether it ticks or not, on the
    full classes+chunked+disagg stack (and the monitor actually scraped)."""
    ticking = run_stack(classes=True, chunked=True, disagg=True)
    monkeypatch.setattr(monitor, "SCRAPE_INTERVAL_MS", 0.0)
    still = run_stack(classes=True, chunked=True, disagg=True)
    assert ticking["now"] == still["now"]
    assert ticking["results"] == still["results"]
    assert ticking["metrics"] == still["metrics"]
    assert ticking["monitor_scrapes"] > 0 and still["monitor_scrapes"] == 0
    document = ticking["monitor_exports"][0]
    assert document["metrics"]["pie_requests_total"]["samples"]


def test_monitoring_on_is_bit_identical_run_to_run():
    first = run_stack(classes=True, chunked=True, disagg=True)
    second = run_stack(classes=True, chunked=True, disagg=True)
    assert first["now"] == second["now"]
    assert first["results"] == second["results"]
    assert first["metrics"] == second["metrics"]
    assert first["monitor_scrapes"] == second["monitor_scrapes"]
    assert first["monitor_exports"] == second["monitor_exports"]


def test_exporting_is_idempotent_and_invisible_to_the_run():
    """An export is a pure read of live state: twice in a row it says the
    same thing, and taken mid-run it changes neither tokens, metrics and
    virtual time nor what a later export says."""
    stack = dict(classes=True, chunked=True, disagg=True)
    plain = run_stack(**stack)
    probed = run_stack(**stack, export_at=(0.4, 0.9))
    assert plain["monitor_exports"][0] == plain["monitor_exports"][1]
    assert probed["now"] == plain["now"]
    assert probed["results"] == plain["results"]
    assert probed["metrics"] == plain["metrics"]
    assert probed["monitor_scrapes"] == plain["monitor_scrapes"]
    assert probed["monitor_exports"] == plain["monitor_exports"]
    early, late = probed["monitor_mid_run"]
    assert early["now"] == 0.4 and late["now"] == 0.9
    launched = "pie_system_inferlets_launched"
    assert (
        0
        < early["metrics"][launched]["samples"][0]["value"]
        < late["metrics"][launched]["samples"][0]["value"]
    )


CHAOS_PLAN = (
    # A fail-stop crash of shard 0 — where cache affinity clusters the
    # fleet — while the staggered launches are still mid-flight, forcing a
    # failover sweep.
    ("shard_crash", 0.5, 0),
)


def test_faults_on_with_empty_plan_does_not_perturb(monkeypatch):
    """The chaos plane with nothing scheduled observes without perturbing:
    the heartbeat probes leave tokens, metrics and virtual timestamps
    bit-identical to a heartbeat that never ticks, and the chaos counters
    stay zero."""
    ticking = run_stack(classes=True, chunked=True, disagg=True)
    monkeypatch.setattr(health, "HEARTBEAT_INTERVAL_MS", 0.0)
    still = run_stack(classes=True, chunked=True, disagg=True)
    assert ticking["now"] == still["now"]
    assert ticking["results"] == still["results"]
    assert ticking["metrics"] == still["metrics"]
    assert ticking["heartbeats"] > 0 and still["heartbeats"] == 0
    for counter in (
        "faults_injected",
        "shard_crashes",
        "failover_terminations",
        "failover_relaunches",
        "disagg_replans",
    ):
        assert ticking["metrics"][counter] == 0, counter


def test_chaos_replay_is_bit_identical():
    """The same fault_plan replays bit-identically: two seeded chaos runs
    with a mid-flight crash agree on every metric, timestamp and surviving
    token."""
    first = run_stack(classes=True, chunked=True, fault_plan=CHAOS_PLAN)
    second = run_stack(classes=True, chunked=True, fault_plan=CHAOS_PLAN)
    assert first["now"] == second["now"]
    assert first["results"] == second["results"]
    assert first["metrics"] == second["metrics"]
    # The plan actually fired and the cluster actually reacted.
    assert first["metrics"]["faults_injected"] == len(CHAOS_PLAN)
    assert first["metrics"]["shard_crashes"] == 1
    assert (
        first["metrics"]["failover_terminations"]
        + first["metrics"]["failover_relaunches"]
        > 0
    )


def test_chaos_decode_crash_replays_bit_identically_under_disagg():
    """A crash of the decode shard under the disaggregated KV stream
    replays bit-identically, and the failover sweep acts on it."""
    plan = (("shard_crash", 0.5, 1),)
    first = run_stack(disagg=True, fault_plan=plan)
    second = run_stack(disagg=True, fault_plan=plan)
    assert first["now"] == second["now"]
    assert first["results"] == second["results"]
    assert first["metrics"] == second["metrics"]
    assert first["metrics"]["shard_crashes"] == 1
    assert first["metrics"]["disagg_handoffs"] > 0
    assert (
        first["metrics"]["failover_terminations"]
        + first["metrics"]["failover_relaunches"]
        > 0
    )


def test_disagg_composed_with_qos_and_chunked_is_bit_identical():
    """The full stack with *every* subsystem on — two tenant classes,
    chunked prefill slicing, swap tier, prefix cache AND disaggregated
    shard roles — must stay deterministic, keep streaming chunk-wise, and
    still emit the same tokens as the disaggregation-off composition."""
    first = run_stack(classes=True, chunked=True, disagg=True)
    second = run_stack(classes=True, chunked=True, disagg=True)
    assert first["now"] == second["now"]
    assert first["results"] == second["results"]
    assert first["metrics"] == second["metrics"]
    assert first["metrics"]["disagg_handoffs"] > 0
    assert first["metrics"]["prefill_chunks_dispatched"] > 0
    assert admitted(first) > 0
    off = run_stack(classes=True, chunked=True, disagg=False)
    assert first["results"] == off["results"]


def test_three_observers_together_do_not_perturb_the_run(monkeypatch):
    """Tracing + monitoring + two classes together: every lifecycle fact is then
    published to both observers at once (the monitor is none: it reads the
    tenant records the core counts).  Tokens and each inferlet's
    first-token / finish timestamps match a run with every plane off and
    no timer ticking, and with every knob off only the always-built
    timeline keeper is told."""
    sim = Simulator(seed=1)
    plain = PieServer(sim, num_devices=2).controller.observers
    assert [type(o).__name__ for o in plain] == ["TimelineKeeper"]
    together = PieServer(sim, num_devices=2, tenants=[TenantSpec("fleet")], tracing=True)
    # Tenants bring no observer: admission is the core's launch gate.
    assert [type(o).__name__ for o in together.controller.observers] == [
        "TimelineKeeper",
        "LifecycleTracer",
    ]
    assert together.monitor.scraper in together.controller.timers
    on = run_stack(classes=True, tracing=True)
    quiet(monkeypatch)
    off = run_stack()
    assert on["now"] == off["now"]
    assert on["results"] == off["results"]
    assert set(on["metrics"]["per_inferlet"]) == set(off["metrics"]["per_inferlet"])
    for name, record in on["metrics"]["per_inferlet"].items():
        baseline = off["metrics"]["per_inferlet"][name]
        for stamp in ("first_token_at", "last_token_at", "started_at", "finished_at"):
            assert record[stamp] == baseline[stamp], (name, stamp)
        assert record["output_tokens"] == baseline["output_tokens"]
    # All three planes saw the fleet.
    assert on["trace_categories"].get("lifecycle", 0) == len(on["results"])
    assert on["monitor_scrapes"] > 0
    assert admitted(on) == len(on["results"])
