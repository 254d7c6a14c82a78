"""Chaos-plane regression: injection, detection and failover.

Covers the robustness contract end to end:

* :class:`FaultPlan` grammar validation (unit level): a plan is outside
  input, so a malformed crash entry is refused, never coerced;
* ≥100 seeded chaos interleavings (one seeded crash each) against the live
  cluster with **zero pool leaks** — every KV page, embed slot and host
  slot comes home wherever and whenever the shard died;
* failover places only on healthy shards: after a crash is detected no
  batch executes on the dead shard and fresh launches land elsewhere;
* a fully host-tier-resident inferlet is re-materialized on a healthy
  shard and emits **exactly** the tokens of the crash-free run — no
  duplicate and no lost tokens.

That an empty plan perturbs nothing is pinned in ``tests/test_determinism.py``.
"""

import numpy as np
import pytest

from repro.core import InferletProgram, PieServer
from repro.core.config import ControlLayerConfig, PieConfig
from repro.errors import InferletTerminated, ReproError
from repro.gpu.config import GpuConfig
from repro.sim import FaultPlan, Simulator
from repro.sim.latency import ConstantLatency
from repro.support import Context, SamplingParams

TOOL_URL = "http://tools/archive"
PROMPT = "System: chaos fleet agent; answer tersely and deterministically. "


# -- unit: the fault plan grammar -------------------------------------------


class TestFaultPlan:
    def test_entries_are_time_sorted(self):
        plan = FaultPlan([("shard_crash", 0.9, 1), ("shard_crash", 0.1, 0)])
        assert [entry[1] for entry in plan] == [0.1, 0.9]

    @pytest.mark.parametrize(
        "entry",
        [
            ("meteor_strike", 0.1),
            ("shard_crash", -1.0, 0),
            ("shard_crash", 0.1, 9),
            ("shard_crash", 0.1),
            # Kinds outside the grammar: only a crash is injected.
            ("shard_slowdown", 0.1, 0, 0.5, 1.0),
            ("shard_slowdown", 0.1, 0, 2.0, 0.0),
            ("link_flap", 0.1),
            ("link_spike", 0.1, -0.001, 1.0),
            ("tool_error", 0.1, 0.0),
            # A plan is outside input: nothing is coerced into a crash.
            ("shard_crash", 0.5, 1.7),  # int() would make it shard 1
            ("shard_crash", 0.5, -0.5),  # int() would make it shard 0
            ("shard_crash", 0.5, True),  # a bool is not a shard index
            ("shard_crash", float("nan"), 0),  # passes a ``< 0`` check
            ("shard_crash", 0.5, "a"),  # int() raises an untyped ValueError
        ],
    )
    def test_validation_rejects_malformed_entries(self, entry):
        with pytest.raises(ReproError):
            FaultPlan.validate([entry], num_shards=2)


# -- system harness ----------------------------------------------------------


def make_agent(index, tool_delay=True):
    async def main(ctx):
        context = Context(ctx, sampling=SamplingParams())
        await context.fill(PROMPT + f"Task {index}. ")
        await context.generate_until(max_tokens=2)
        if tool_delay:
            observation = await ctx.http_get(TOOL_URL)
            await context.fill(f"obs:{observation} ")
            await context.generate_until(max_tokens=2)
        context.free()
        return None

    return InferletProgram(name=f"chaos{index}", main=main)


def run_fleet(
    seed=0,
    fault_plan=(),
    n_agents=3,
    num_devices=2,
    disagg=False,
    tracing=False,
):
    """Seeded staggered fleet on a small cluster with the chaos plane armed.

    Returns ``(server, statuses)``; the caller inspects pools, health and
    metrics on the server after the run completes.
    """
    sim = Simulator(seed=seed)
    config = PieConfig(
        gpu=GpuConfig(num_kv_pages=64, num_devices=num_devices, host_kv_pages=48),
        control=ControlLayerConfig(
            placement_policy="disaggregated" if disagg else "round_robin",
            prefill_shards=1,
            fault_plan=tuple(tuple(entry) for entry in fault_plan),
            tracing=tracing,
        ),
    )
    server = PieServer(sim, config=config)
    server.register_external(TOOL_URL, lambda payload: "rows", ConstantLatency(0.15))
    programs = [make_agent(i) for i in range(n_agents)]
    for program in programs:
        server.register_program(program)

    async def one(program, delay):
        await sim.sleep(delay)
        return await server.run_inferlet(program.name)

    async def run_all():
        tasks = [
            sim.create_task(one(p, 0.05 + i * 0.1)) for i, p in enumerate(programs)
        ]
        return await sim.gather(tasks)

    results = sim.run_until_complete(run_all())
    return server, [r.status for r in results]


def assert_pools_conserved(server):
    """Every device pool, embed pool and host slot came home."""
    for service in server.controller._services.values():
        for shard in service.shards:
            rm = shard.resources
            assert rm.memory.kv_pages.num_allocated == 0, (
                f"shard {shard.index}: {rm.memory.kv_pages.num_allocated} KV pages leaked"
            )
            assert rm.memory.embeds.num_allocated == 0, (
                f"shard {shard.index}: {rm.memory.embeds.num_allocated} embed slots leaked"
            )
            assert not rm._spaces, f"shard {shard.index}: spaces leaked"
        assert service.host_pool.num_used == 0, "host slots leaked"


# -- system: pool conservation under 100+ chaos interleavings ----------------


@pytest.mark.parametrize("block", range(4))
def test_seeded_chaos_interleavings_conserve_pools(block):
    """100+ seeded crashes, zero pool leaks in every one.

    Four parametrized blocks of 26 seeds each (104 interleavings total).
    Each seed draws its crash time and shard from its own generator; odd
    seeds run the disaggregated two-role topology so stream re-plans are
    exercised, with shard 0 (the sole prefill shard) protected from the
    crash.
    """
    for offset in range(26):
        seed = block * 26 + offset
        disagg = seed % 2 == 1
        rng = np.random.default_rng(seed)
        candidates = (1,) if disagg else (0, 1)
        time_s = float(rng.uniform(0.0, 0.9))
        shard = candidates[int(rng.integers(len(candidates)))]
        plan = (("shard_crash", time_s, shard),)
        server, statuses = run_fleet(seed=seed, fault_plan=plan, disagg=disagg)
        assert_pools_conserved(server)
        # Every launch reached a terminal state (nothing wedged mid-air).
        assert all(
            status in ("finished", "failed", "terminated") for status in statuses
        ), (seed, statuses)


# -- system: detection and failover -----------------------------------------


def test_crash_marks_shard_down_and_stops_placement():
    server, statuses = run_fleet(
        seed=4, n_agents=4, fault_plan=(("shard_crash", 0.3, 1),), tracing=True
    )
    health = server.controller.health
    assert health.state(1) == "down"
    assert not health.placeable(1)
    assert health.placeable(0)
    assert server.metrics.shard_crashes == 1
    # Detection paid the heartbeat: the shard_down transition landed on
    # the trace strictly after the injection instant.
    events = server.trace.events("fault")
    crash_ts = next(e["ts"] for e in events if e["name"] == "fault_shard_crash")
    down_ts = next(e["ts"] for e in events if e["name"] == "shard_down")
    assert down_ts > crash_ts
    # No batch executed on the dead shard after detection.
    for event in server.trace.events("exec"):
        if event.get("shard") == 1:
            assert event["ts"] < down_ts
    assert_pools_conserved(server)


def test_launches_after_crash_land_on_healthy_shards_and_finish():
    """Round-robin placement skips the dead shard: every agent launched
    after the crash is detected still finishes (a placement on the dead
    device would fail its submissions with FaultInjectedError)."""
    server, statuses = run_fleet(
        seed=2, n_agents=5, fault_plan=(("shard_crash", 0.02, 1),)
    )
    # The crash precedes every launch; detection happens at the first
    # heartbeat after the first register poke, so at worst the earliest
    # launch races it — all later ones must finish on shard 0.
    assert statuses.count("finished") >= 4
    assert server.metrics.shard_crashes == 1
    assert_pools_conserved(server)


def test_terminated_inferlet_carries_structured_cause():
    """A victim with device-resident KV cannot be rescued: it terminates
    with cause="shard_down" on the typed error."""
    sim = Simulator(seed=5)
    config = PieConfig(
        gpu=GpuConfig(num_kv_pages=64, num_devices=2, host_kv_pages=0),
        control=ControlLayerConfig(
            placement_policy="round_robin",
            fault_plan=(("shard_crash", 0.2, 0),),
        ),
    )
    server = PieServer(sim, config=config)
    server.register_external(TOOL_URL, lambda payload: "rows", ConstantLatency(0.5))
    server.register_program(make_agent(0))
    instance, _ = server.launch("chaos0")
    sim.run_until_complete(instance.done)
    assert instance.status == "terminated"
    assert server.metrics.failover_terminations == 1
    # The structured cause is on the instance, and any API touch-point
    # surfaces it inside the typed InferletTerminated.
    assert instance.terminated_cause == "shard_down"
    with pytest.raises(InferletTerminated) as exc_info:
        instance.check_alive()
    assert exc_info.value.cause == "shard_down"


def test_a_crash_under_an_idle_inferlet_is_still_detected():
    """Nothing but timer ticks is pending after the crash — the victim
    awaits a message nobody sends — yet the next heartbeat still runs:
    detecting the crash is real work, so the run reaches it and the
    victim terminates with cause="shard_down" instead of the run ending
    as a deadlock."""
    sim = Simulator(seed=5)
    config = PieConfig(
        gpu=GpuConfig(num_kv_pages=64, num_devices=2),
        control=ControlLayerConfig(fault_plan=(("shard_crash", 0.1, 0),)),
    )
    server = PieServer(sim, config=config)

    async def main(ctx):
        await ctx.receive()

    server.register_program(InferletProgram(name="waiter", main=main))
    instance, _ = server.launch("waiter")
    sim.run_until_complete(instance.done, max_events=1_000)
    assert server.controller.health.state(0) == "down"
    assert instance.status == "terminated"
    assert instance.terminated_cause == "shard_down"
    assert server.metrics.failover_terminations == 1
    assert sim.now <= 0.1 + 5e-3 + 1e-9  # within one heartbeat of the crash


# -- system: relaunch (failover rescue) --------------------------------------


def make_mover():
    async def main(ctx):
        context = Context(ctx, sampling=SamplingParams())
        await context.fill("A long analysis prompt. " * 12)
        await context.generate_until(max_tokens=3)
        observation = await ctx.http_get(TOOL_URL)
        await context.fill(f"obs:{observation} ")
        out = await context.generate_until(max_tokens=3)
        context.free()
        return out

    return InferletProgram(name="mover", main=main)


def run_mover(crash):
    sim = Simulator(seed=3)
    config = PieConfig(
        gpu=GpuConfig(num_kv_pages=64, num_devices=2, host_kv_pages=64),
        control=ControlLayerConfig(
            swap_policy="proactive",
            fault_plan=(("shard_crash", 0.45, 0),) if crash else (),
        ),
    )
    server = PieServer(sim, config=config)
    server.register_external(TOOL_URL, lambda payload: "rows", ConstantLatency(0.5))
    server.register_program(make_mover())
    result = sim.run_until_complete(server.run_inferlet("mover"))
    return server, result


def test_swapped_inferlet_is_relaunched_with_identical_tokens():
    """The mover blocks on a 500ms tool call, is proactively swapped to
    the host tier, and its shard then crashes.  Failover re-materializes
    it on the healthy shard; it resumes and emits exactly the tokens of
    the crash-free run — no duplicates, no losses."""
    _, clean = run_mover(crash=False)
    server, crashed = run_mover(crash=True)
    assert clean.status == "finished"
    assert crashed.status == "finished"
    assert crashed.result == clean.result
    assert server.metrics.failover_relaunches == 1
    assert server.metrics.failover_terminations == 0
    assert server.metrics.swap_outs >= 1
    assert_pools_conserved(server)


def _short_mover():
    """Less than one KV page of context, so with the prefix cache on no page
    of it is cache-registered (pinned) and it can be swapped out whole."""

    async def main(ctx):
        context = Context(ctx, sampling=SamplingParams())
        await context.fill("Hi. ")
        await context.generate_until(max_tokens=3)
        observation = await ctx.http_get(TOOL_URL)
        await context.fill(f"{observation} ")
        out = await context.generate_until(max_tokens=3)
        context.free()
        return out

    return InferletProgram(name="mover", main=main)


def _run_short_mover_beside_a_warmer(crash):
    async def warm(ctx):
        context = Context(ctx, sampling=SamplingParams())
        await context.fill("Warm the other shard's cache. ")
        context.free()

    sim = Simulator(seed=3)
    server = PieServer(
        sim,
        num_kv_pages=64,
        num_devices=2,
        host_kv_pages=64,
        prefix_cache=True,
        fault_plan=(("shard_crash", 0.45, 0),) if crash else (),
    )
    server.register_external(TOOL_URL, lambda payload: "rows", ConstantLatency(0.5))
    server.register_program(_short_mover())
    server.register_program(InferletProgram(name="warmer", main=warm))
    mover, _ = server.launch("mover")  # round robin: shard 0
    server.launch("warmer")  # shard 1; embeds a prompt, frees its slots, exits
    return sim, server, mover


def test_relaunch_forgets_the_destination_caches_embed_identities():
    """Regression: the relaunch took embed slots straight from the
    destination's pool, so with the prefix cache on the adopted slots kept
    the (token, position) identity the destination cache had recorded for
    their previous owner — ``alloc_embeds`` and the disaggregation handoff
    both forget those; the relaunch did not."""
    sim, server, mover = _run_short_mover_beside_a_warmer(crash=False)
    sim.run_until_complete(mover.done)
    clean = mover.result

    sim, server, mover = _run_short_mover_beside_a_warmer(crash=True)
    survivor = server.service().shards[1]
    sim.run(until=0.44)  # the warmer is gone; the mover is swapped out on shard 0
    assert server.service().shard_for(mover.instance_id).index == 0
    stale = set(survivor.prefix_cache._emb_tokens)
    sim.run(until=0.5)  # crash at 0.45, detected and relaunched within a beat
    assert server.metrics.failover_relaunches == 1
    assert server.service().shard_for(mover.instance_id) is survivor
    adopted = set(survivor.resources.emb_mapping(mover.instance_id).values())
    assert adopted & stale, "the relaunch must reuse slots the cache knew"
    assert not adopted & set(survivor.prefix_cache._emb_tokens)
    sim.run_until_complete(mover.done)
    assert mover.status == "finished"
    assert mover.result == clean
    sim.run()
    assert_pools_conserved(server)


def test_relaunch_requires_a_healthy_destination():
    """With every shard down the rescue is impossible: the mover is
    terminated with cause, and new launches fail typed."""
    sim = Simulator(seed=3)
    config = PieConfig(
        gpu=GpuConfig(num_kv_pages=64, num_devices=2, host_kv_pages=64),
        control=ControlLayerConfig(
            swap_policy="proactive",
            fault_plan=(("shard_crash", 0.45, 0), ("shard_crash", 0.45, 1)),
        ),
    )
    server = PieServer(sim, config=config)
    server.register_external(TOOL_URL, lambda payload: "rows", ConstantLatency(0.5))
    server.register_program(make_mover())
    instance, _ = server.launch("mover")
    sim.run_until_complete(instance.done)
    assert instance.status == "terminated"
    assert instance.terminated_cause == "shard_down"
    assert server.metrics.failover_relaunches == 0
    assert server.metrics.failover_terminations == 1


# -- reports: fault instants and recovery stall buckets ----------------------


def test_slo_report_interleaves_fault_instants():
    """``export_metrics`` carries the injected-fault record, and the SLO
    report renders FAULT lines on the alert timeline."""
    sim = Simulator(seed=2)
    config = PieConfig(
        gpu=GpuConfig(num_kv_pages=64, num_devices=2),
        control=ControlLayerConfig(
            fault_plan=(("shard_crash", 0.1, 1),),
        ),
    )
    server = PieServer(sim, config=config)
    server.register_external(TOOL_URL, lambda payload: "rows", ConstantLatency(0.15))
    server.register_program(make_agent(0))
    instance, _ = server.launch("chaos0")
    sim.run_until_complete(instance.done)
    assert instance.status == "finished"

    from repro.tools.slo_report import build_report, render_report

    document = server.export_metrics()
    assert [record["kind"] for record in document["faults"]] == ["shard_crash"]
    report = build_report(document)
    assert report["faults"] == document["faults"]
    rendered = render_report(report)
    assert "FAULT shard_crash" in rendered


def test_trace_report_buckets_relaunch():
    """The rescue window lands in its own stall attribution bucket."""
    from repro.tools.trace_report import attribute_stalls

    # The mover rescue with the flight recorder on.
    sim = Simulator(seed=3)
    config = PieConfig(
        gpu=GpuConfig(num_kv_pages=64, num_devices=2, host_kv_pages=64),
        control=ControlLayerConfig(
            swap_policy="proactive",
            tracing=True,
            fault_plan=(("shard_crash", 0.45, 0),),
        ),
    )
    server = PieServer(sim, config=config)
    server.register_external(TOOL_URL, lambda payload: "rows", ConstantLatency(0.5))
    server.register_program(make_mover())
    result = sim.run_until_complete(server.run_inferlet("mover"))
    assert result.status == "finished"
    assert server.metrics.failover_relaunches == 1
    rows = attribute_stalls(server.controller.trace.events())
    assert rows[result.instance_id]["buckets"]["relaunch"] > 0
