"""Chaos-plane regression: injection, failover, retry and brownout.

Covers the robustness contract end to end:

* :class:`FaultPlan` grammar validation and :class:`RetryPolicy`
  determinism (unit level);
* ≥100 seeded chaos interleavings (generated plans) against the live
  cluster with **zero pool leaks** — every KV page, embed slot and host
  slot comes home no matter which faults fired;
* failover places only on healthy shards: after a crash is detected no
  batch executes on the dead shard and fresh launches land elsewhere;
* a fully host-tier-resident inferlet is re-materialized on a healthy
  shard and emits **exactly** the tokens of the crash-free run — no
  duplicate and no lost tokens;
* chaos off is structurally inert (no injector, no health service, no
  probe on the router);
* the brownout controller fires on an interactive burn-rate alert,
  sheds batch admission with ``reason="brownout"``, widens the chunked
  prefill budgets, and restores both once the alert clears.
"""

import pytest

from repro.core import InferletProgram, PieServer, TenantSpec, monitor, retry, slo
from repro.core.config import ControlLayerConfig, PieConfig
from repro.core.retry import RetryPolicy
from repro.core.slo import BurnWindow
from repro.errors import (
    AdmissionRejectedError,
    FaultInjectedError,
    InferletTerminated,
    ReproError,
    RetriesExhaustedError,
)
from repro.gpu.config import GpuConfig
from repro.sim import FaultPlan, Simulator
from repro.sim.latency import ConstantLatency
from repro.support import Context, SamplingParams

TOOL_URL = "http://tools/archive"
PROMPT = "System: chaos fleet agent; answer tersely and deterministically. "


# -- unit: the fault plan grammar -------------------------------------------


class TestFaultPlan:
    def test_entries_are_time_sorted(self):
        plan = FaultPlan([("shard_crash", 0.9, 1), ("link_flap", 0.1, 0.2)])
        assert [entry[0] for entry in plan] == ["link_flap", "shard_crash"]

    @pytest.mark.parametrize(
        "entry",
        [
            ("meteor_strike", 0.1),
            ("shard_crash", -1.0, 0),
            ("shard_crash", 0.1, 9),
            ("shard_crash", 0.1),
            ("shard_slowdown", 0.1, 0, 0.5, 1.0),  # multiplier < 1
            ("shard_slowdown", 0.1, 0, 2.0, 0.0),  # zero duration
            ("link_flap", 0.1),
            ("link_spike", 0.1, -0.001, 1.0),
            ("tool_error", 0.1, 0.0),
        ],
    )
    def test_validation_rejects_malformed_entries(self, entry):
        with pytest.raises(ReproError):
            FaultPlan.validate([entry], num_shards=2)

    def test_generate_is_a_pure_function_of_its_seed(self):
        a = FaultPlan.generate(seed=5, horizon_s=2.0, num_shards=4, n_faults=6)
        b = FaultPlan.generate(seed=5, horizon_s=2.0, num_shards=4, n_faults=6)
        assert a == b
        assert len(a) == 6
        assert a != FaultPlan.generate(seed=6, horizon_s=2.0, num_shards=4, n_faults=6)

    def test_generate_respects_protected_shards(self):
        for seed in range(20):
            plan = FaultPlan.generate(
                seed=seed, horizon_s=1.0, num_shards=2, protect_shards=(0,)
            )
            for entry in plan:
                if entry[0] in ("shard_crash", "shard_slowdown"):
                    assert entry[2] == 1


# -- unit: deterministic exponential backoff --------------------------------


def retry_policy(seed, **overrides):
    params = dict(
        max_attempts=4,
        base_s=0.010,
        multiplier=2.0,
        max_backoff_s=0.025,
        jitter=0.1,
        budget=1000,
    )
    params.update(overrides)
    return RetryPolicy(seed=seed, **params)


class TestRetryPolicy:
    def test_same_seed_same_delays(self):
        a = retry_policy(seed=11)
        b = retry_policy(seed=11)
        assert [a.backoff(i, "tool") for i in range(3)] == [
            b.backoff(i, "tool") for i in range(3)
        ]

    def test_exponential_growth_and_cap(self):
        policy = retry_policy(seed=0, jitter=0.0)
        delays = [policy.backoff(i, "tool") for i in range(3)]
        assert delays[0] == pytest.approx(0.010)
        assert delays[1] == pytest.approx(0.020)
        assert delays[2] == pytest.approx(0.025)  # capped at max_backoff_s

    def test_attempt_cap_returns_none(self):
        policy = retry_policy(seed=0)
        assert policy.backoff(3, "tool") is None  # attempt 4 of max 4

    def test_per_class_budget_exhausts(self):
        policy = retry_policy(seed=0, budget=2)
        assert policy.backoff(0, "tool") is not None
        assert policy.backoff(0, "tool") is not None
        assert policy.backoff(0, "tool") is None  # tool budget spent
        assert policy.backoff(0, "handoff") is not None  # separate class

    def test_an_argument_not_given_falls_back_to_the_module_constant(self, monkeypatch):
        # Looked up when the policy is built, so a patched constant takes.
        monkeypatch.setattr(retry, "MAX_ATTEMPTS", 8)
        policy = RetryPolicy(jitter=0.0, seed=0)
        assert (policy.max_attempts, policy.jitter) == (8, 0.0)
        assert (policy.base_s, policy.multiplier) == (retry.BASE_S, retry.MULTIPLIER)
        assert (policy.max_backoff_s, policy.budget) == (retry.MAX_BACKOFF_S, retry.BUDGET)

    def test_jitter_stays_within_band(self):
        policy = retry_policy(seed=3, jitter=0.1, max_backoff_s=1.0)
        for attempt in range(3):
            delay = policy.backoff(attempt, "tool")
            nominal = 0.010 * (2.0**attempt)
            assert nominal * 0.9 <= delay <= nominal * 1.1


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
            faults=True,
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
    """100+ generated fault schedules, zero pool leaks in every one.

    Four parametrized blocks of 26 seeds each (104 interleavings total);
    odd seeds run the disaggregated two-role topology so link faults and
    stream re-plans are exercised, with shard 0 (the sole prefill shard)
    protected from crashes.
    """
    for offset in range(26):
        seed = block * 26 + offset
        disagg = seed % 2 == 1
        plan = FaultPlan.generate(
            seed=seed,
            horizon_s=0.9,
            num_shards=2,
            n_faults=3,
            protect_shards=(0,) if disagg else (),
        )
        server, statuses = run_fleet(seed=seed, fault_plan=plan, disagg=disagg)
        assert_pools_conserved(server)
        # Every launch reached a terminal state (nothing wedged mid-air).
        assert all(
            status in ("finished", "failed", "terminated") for status in statuses
        ), (seed, statuses)


def test_chaos_off_is_structurally_inert():
    """faults=False builds none of the chaos plane (the off path cannot
    even reach it: no injector, no health service, no router probe)."""
    server = PieServer(Simulator(seed=0), num_devices=2)
    controller = server.controller
    assert controller.faults is None
    assert controller.health is None
    assert controller.retry is None
    assert controller.brownout is None
    for service in controller._services.values():
        assert service.router.health_probe is None


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
            faults=True,
            fault_plan=(("shard_crash", 0.2, 0),),
        ),
    )
    server = PieServer(sim, config=config)
    server.register_external(TOOL_URL, lambda payload: "rows", ConstantLatency(0.5))
    server.register_program(make_agent(0))
    instance, _ = server.launch("chaos0")
    sim.run_until_complete(server.lifecycle.wait_for_completion(instance))
    assert instance.status == "terminated"
    assert server.metrics.failover_terminations == 1
    # The structured cause is on the instance, and any API touch-point
    # surfaces it inside the typed InferletTerminated.
    assert instance.terminated_cause == "shard_down"
    with pytest.raises(InferletTerminated) as exc_info:
        instance.check_alive()
    assert exc_info.value.cause == "shard_down"


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
            faults=True,
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
        faults=True,
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
    sim.run_until_complete(server.lifecycle.wait_for_completion(mover))
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
    sim.run_until_complete(server.lifecycle.wait_for_completion(mover))
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
            faults=True,
            fault_plan=(("shard_crash", 0.45, 0), ("shard_crash", 0.45, 1)),
        ),
    )
    server = PieServer(sim, config=config)
    server.register_external(TOOL_URL, lambda payload: "rows", ConstantLatency(0.5))
    server.register_program(make_mover())
    instance, _ = server.launch("mover")
    sim.run_until_complete(server.lifecycle.wait_for_completion(instance))
    assert instance.status == "terminated"
    assert instance.terminated_cause == "shard_down"
    assert server.metrics.failover_relaunches == 0
    assert server.metrics.failover_terminations == 1


# -- system: tool faults, retry and backoff ----------------------------------


def test_tool_fault_retries_then_succeeds_outside_the_window(monkeypatch):
    """A short tool_error window: the retry policy backs off past the end
    of the window and the call eventually succeeds."""
    monkeypatch.setattr(retry, "MAX_ATTEMPTS", 8)
    server, statuses = run_fleet(
        seed=1,
        n_agents=1,
        fault_plan=(("tool_error", 0.0, 0.12, TOOL_URL),),
    )
    assert statuses == ["finished"]
    assert server.metrics.tool_faults >= 1
    assert server.metrics.tool_retries >= 1
    assert server.metrics.retries_exhausted == 0
    assert server.metrics.retry_backoff_seconds > 0


def test_tool_fault_exhausts_retries_with_typed_error(monkeypatch):
    """A window outlasting every backoff: the inferlet fails with
    RetriesExhaustedError chained onto the injected fault."""
    monkeypatch.setattr(retry, "MAX_ATTEMPTS", 3)
    monkeypatch.setattr(retry, "JITTER", 0.0)
    sim = Simulator(seed=1)
    config = PieConfig(
        gpu=GpuConfig(num_kv_pages=64, num_devices=1),
        control=ControlLayerConfig(
            faults=True,
            fault_plan=(("tool_timeout", 0.0, 60.0, TOOL_URL),),
        ),
    )
    server = PieServer(sim, config=config)
    server.register_external(TOOL_URL, lambda payload: "rows", ConstantLatency(0.15))
    server.register_program(make_agent(0))
    instance, _ = server.launch("chaos0")
    sim.run_until_complete(server.lifecycle.wait_for_completion(instance))
    assert instance.status == "failed"
    error = instance.task.exception()
    assert isinstance(error, RetriesExhaustedError)
    assert error.attempts == 3
    assert isinstance(error.__cause__, FaultInjectedError)
    assert error.__cause__.kind == "tool_timeout"
    assert server.metrics.retries_exhausted == 1
    # Each tool_timeout attempt burned the simulated client-side wait.
    assert sim.now >= 3 * 0.05
    assert_pools_conserved(server)


# -- system: SLO-driven brownout ---------------------------------------------


def make_filler(name, tenant_prompt="", max_tokens=2):
    async def main(ctx):
        context = Context(ctx, sampling=SamplingParams())
        await context.fill(PROMPT + tenant_prompt)
        await context.generate_until(max_tokens=max_tokens)
        context.free()
        return None

    return InferletProgram(name=name, main=main)


def run_brownout_scenario(monkeypatch):
    monkeypatch.setattr(monitor, "SCRAPE_INTERVAL_MS", 5.0)
    monkeypatch.setattr(slo, "BURN_WINDOWS", (BurnWindow(0.2 / 1e3, 0.05 / 1e3, 2.0),))
    sim = Simulator(seed=9)
    tenants = (
        # Impossible TTFT target: every fleet first-token observation is
        # an SLO miss, so the burn-rate alert must fire while it runs.
        TenantSpec(name="fleet", priority_class="interactive", ttft_slo_ms=0.001),
        # Lax target: keeps the monitor ticking after the fleet drains so
        # the alert windows empty out and the brownout clears.
        TenantSpec(name="calm", priority_class="interactive", ttft_slo_ms=60_000.0),
        TenantSpec(name="backfill", priority_class="batch"),
    )
    config = PieConfig(
        gpu=GpuConfig(
            num_kv_pages=96, num_devices=2, host_kv_pages=64, max_batch_tokens=24
        ),
        control=ControlLayerConfig(
            qos=True,
            tenants=tenants,
            chunked_prefill=True,
            prefill_chunk_tokens=16,
            monitoring=True,
            faults=True,
            brownout=True,
        ),
    )
    server = PieServer(sim, config=config)
    controller = server.controller
    for index in range(4):
        server.register_program(make_filler(f"burn{index}", f"Task {index}. "))
    server.register_program(make_filler("longtail", "Keep going. ", max_tokens=160))
    server.register_program(make_filler("batchjob", "Backfill. "))

    observed = {"shed": None, "chunk_scale_during": None, "batch_ok_after": False}

    async def burn_load():
        for index in range(4):
            await sim.sleep(0.05)
            await server.run_inferlet(f"burn{index}", tenant="fleet")

    async def keepalive():
        await sim.sleep(0.02)
        await server.run_inferlet("longtail", tenant="calm")

    async def shed_probe():
        # Poll for activation, then try one batch-class launch inside the
        # brownout window and record the typed rejection.
        while not controller.brownout.active:
            await sim.sleep(0.005)
        observed["chunk_scale_during"] = server.service().shards[0].scheduler.chunk_scale
        try:
            await server.run_inferlet("batchjob", tenant="backfill")
        except AdmissionRejectedError as exc:
            observed["shed"] = exc
        # Wait for the clear, then batch admission must work again.
        while controller.brownout.active:
            await sim.sleep(0.005)
        result = await server.run_inferlet("batchjob", tenant="backfill")
        observed["batch_ok_after"] = result.status == "finished"

    async def run_all():
        await sim.gather(
            [
                sim.create_task(burn_load()),
                sim.create_task(keepalive()),
                sim.create_task(shed_probe()),
            ]
        )

    sim.run_until_complete(run_all())
    return server, observed


def test_brownout_fires_sheds_batch_widens_chunks_and_clears(monkeypatch):
    server, observed = run_brownout_scenario(monkeypatch)
    metrics = server.metrics
    assert metrics.brownout_activations >= 1
    assert metrics.brownout_clears >= 1
    assert metrics.brownout_shed >= 1
    # The shed was typed and attributed.
    assert isinstance(observed["shed"], AdmissionRejectedError)
    assert observed["shed"].reason == "brownout"
    assert observed["shed"].tenant == "backfill"
    # Chunk budgets widened during the brownout and restored after it.
    assert observed["chunk_scale_during"] == 2.0
    for shard in server.service().shards:
        assert shard.scheduler.chunk_scale == 1.0
    assert observed["batch_ok_after"]
    # Interactive admission was never shed.
    assert metrics.qos_rejected == metrics.brownout_shed


# -- reports: fault instants and recovery stall buckets ----------------------


def test_slo_report_interleaves_fault_instants(monkeypatch):
    """``export_metrics`` carries the injected-fault record, and the SLO
    report renders FAULT lines on the alert timeline."""
    monkeypatch.setattr(retry, "MAX_ATTEMPTS", 8)
    sim = Simulator(seed=2)
    config = PieConfig(
        gpu=GpuConfig(num_kv_pages=64, num_devices=1),
        control=ControlLayerConfig(
            monitoring=True,
            faults=True,
            fault_plan=(("tool_error", 0.0, 0.1, TOOL_URL),),
        ),
    )
    server = PieServer(sim, config=config)
    server.register_external(TOOL_URL, lambda payload: "rows", ConstantLatency(0.15))
    server.register_program(make_agent(0))
    instance, _ = server.launch("chaos0")
    sim.run_until_complete(server.lifecycle.wait_for_completion(instance))
    assert instance.status == "finished"

    from repro.tools.slo_report import build_report, render_report

    document = server.export_metrics()
    assert [record["kind"] for record in document["faults"]] == ["tool_error"]
    report = build_report(document)
    assert report["faults"] == document["faults"]
    rendered = render_report(report)
    assert "FAULT tool_error" in rendered


def test_trace_report_buckets_relaunch_and_retry_backoff(monkeypatch):
    """The rescue window and the backoff waits land in their own stall
    attribution buckets."""
    from repro.tools.trace_report import attribute_stalls

    # Relaunch: the mover rescue with the flight recorder on.
    sim = Simulator(seed=3)
    config = PieConfig(
        gpu=GpuConfig(num_kv_pages=64, num_devices=2, host_kv_pages=64),
        control=ControlLayerConfig(
            swap_policy="proactive",
            tracing=True,
            faults=True,
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

    # Retry backoff: a tool-fault window with the flight recorder on.
    monkeypatch.setattr(retry, "MAX_ATTEMPTS", 8)
    server, statuses = run_fleet(
        seed=1,
        n_agents=1,
        fault_plan=(("tool_error", 0.0, 0.12, TOOL_URL),),
        tracing=True,
    )
    assert statuses == ["finished"]
    assert server.metrics.tool_retries >= 1
    rows = attribute_stalls(server.controller.trace.events())
    backoff = sum(row["buckets"]["retry_backoff"] for row in rows.values())
    assert backoff > 0
