"""Tests for the tiered KV memory subsystem: host pool, swap manager,
swap-first reclamation, and the host_kv_pages=0 regression."""

import pytest

from repro.core import InferletProgram, PieServer
from repro.core.config import ControlLayerConfig, PieConfig, SWAP_POLICIES
from repro.core.inferlet import InferletInstance
from repro.core.router import Router
from repro.errors import ReproError, ResourceError, SimulationError
from repro.gpu import host_pool
from repro.gpu.config import GpuConfig
from repro.gpu.host_pool import HostMemoryPool, kv_page_bytes
from repro.gpu.memory import DeviceMemory
from repro.model.registry import ModelRegistry
from repro.sim import Simulator
from repro.sim.latency import ConstantLatency
from repro.support import Context, SamplingParams
from repro.workloads import ToolEnvironment

SLOW_URL = "http://tools/slow-crm"


def model_config():
    return ModelRegistry(["llama-sim-1b"]).get("llama-sim-1b").config


def make_server(sim, *, kv_pages=48, host_pages=0, policy="proactive"):
    config = PieConfig(
        gpu=GpuConfig(num_kv_pages=kv_pages, host_kv_pages=host_pages),
        control=ControlLayerConfig(swap_policy=policy),
    )
    server = PieServer(sim, config=config)
    ToolEnvironment(sim, server.external)
    server.register_external(SLOW_URL, lambda payload: "rows", ConstantLatency(0.3))
    return server


def make_io_agent(name, n_interactions=3, max_tokens=4):
    async def main(ctx):
        context = Context(ctx, sampling=SamplingParams())
        await context.fill("You are a research agent. ")
        for step in range(n_interactions):
            await context.generate_until(max_tokens=max_tokens)
            obs = await ctx.http_get(SLOW_URL)
            await context.fill(f"o{step}:{obs} ")
        answer = await context.generate_until(max_tokens=max_tokens)
        context.free()
        return answer

    return InferletProgram(name=name, main=main)


def suspended(server):
    """Inferlets whose address space holds host-tier pages, on any shard."""
    return [
        owner
        for shard in server.service().shards
        for owner in shard.resources.owners()
        if shard.resources.is_swapped(owner)
    ]


def run_fleet(server, programs, stagger=0.0):
    sim = server.sim
    for program in programs:
        server.register_program(program)

    async def one(program, delay):
        if delay:
            await sim.sleep(delay)
        return await server.run_inferlet(program.name)

    async def run_all():
        tasks = [
            sim.create_task(one(p, i * stagger)) for i, p in enumerate(programs)
        ]
        return await sim.gather(tasks)

    return sim.run_until_complete(run_all())


class TestHostMemoryPool:
    def test_disabled_at_zero_capacity(self):
        pool = HostMemoryPool(model_config(), GpuConfig(host_kv_pages=0))
        assert not pool.enabled
        assert pool.capacity == 0

    def test_store_load_roundtrip_preserves_contents(self):
        config = model_config()
        memory = DeviceMemory(config, GpuConfig(num_kv_pages=4, host_kv_pages=2))
        pool = HostMemoryPool(config, GpuConfig(num_kv_pages=4, host_kv_pages=2))
        [pid] = memory.kv_pages.allocate(1)
        page = memory.kv_pages.page(pid)
        page.positions[:] = 7
        page.valid[:] = True
        page.keys[0][:] = 1.5
        slot = pool.store(page)
        assert pool.num_used == 1
        page.clear()  # device page reused by someone else
        [pid2] = memory.kv_pages.allocate(1)
        restored = memory.kv_pages.page(pid2)
        pool.load(slot, restored)
        assert pool.num_used == 0
        assert restored.positions[0] == 7
        assert restored.valid.all()
        assert float(restored.keys[0][0, 0, 0]) == 1.5

    def test_capacity_enforced_and_discard(self):
        config = model_config()
        memory = DeviceMemory(config, GpuConfig(num_kv_pages=4))
        pool = HostMemoryPool(config, GpuConfig(host_kv_pages=1))
        [pid] = memory.kv_pages.allocate(1)
        slot = pool.store(memory.kv_pages.page(pid))
        from repro.errors import OutOfResourcesError

        with pytest.raises(OutOfResourcesError):
            pool.store(memory.kv_pages.page(pid))
        pool.discard([slot])
        assert pool.num_free == 1
        with pytest.raises(ResourceError):
            pool.discard([slot])

    def test_pcie_cost_model_is_linear(self, monkeypatch):
        monkeypatch.setattr(host_pool, "PCIE_TRANSFER_BASE_MS", 1.0)
        monkeypatch.setattr(host_pool, "PCIE_TRANSFER_MS_PER_PAGE", 0.5)
        pool = HostMemoryPool(model_config(), GpuConfig(host_kv_pages=8))
        assert pool.transfer_seconds(0) == 0.0
        assert pool.transfer_seconds(2) == pytest.approx(0.002)
        assert pool.transfer_seconds(4) == pytest.approx(0.003)

    def test_page_bytes_accounting(self):
        config = model_config()
        expected = (
            config.kv_page_size
            * 2
            * config.n_layers
            * config.n_kv_heads
            * config.d_head
            * 4
        )
        assert kv_page_bytes(config) == expected
        pool = HostMemoryPool(config, GpuConfig(host_kv_pages=2))
        assert pool.transfer_bytes(3) == 3 * expected


class TestConfigValidation:
    def test_negative_host_pages_rejected(self):
        with pytest.raises(ReproError):
            GpuConfig(host_kv_pages=-1)

    def test_swap_policy_validated(self):
        with pytest.raises(ReproError):
            PieConfig(control=ControlLayerConfig(swap_policy="aggressive"))
        for policy in SWAP_POLICIES:
            PieConfig(control=ControlLayerConfig(swap_policy=policy))

    def test_server_shorthand_overrides(self):
        sim = Simulator(seed=0)
        server = PieServer(sim, host_kv_pages=32, swap_policy="on_demand")
        assert server.config.gpu.host_kv_pages == 32
        assert server.config.control.swap_policy == "on_demand"
        assert server.service().host_pool.capacity == 32
        assert server.service().swap.enabled


class TestProactiveSwap:
    def test_blocked_agent_is_staged_and_resumed(self):
        sim = Simulator(seed=3)
        server = make_server(sim, kv_pages=64, host_pages=64)
        [result] = run_fleet(server, [make_io_agent("solo")])
        assert result.status == "finished"
        m = server.metrics
        # Each of the 3 tool calls staged the agent out and back in.
        assert m.swap_outs == 3
        assert m.swap_ins == 3
        assert m.kv_pages_swapped_out == m.kv_pages_swapped_in > 0
        assert m.bytes_swapped_out == m.bytes_swapped_in > 0
        assert m.swap_stall_seconds > 0.0
        # Everything came home: the host pool is empty again.
        assert server.service().host_pool.num_used == 0
        assert suspended(server) == []

    def test_swapped_pages_restore_identical_contents(self):
        # The strongest correctness check available: generation continues
        # from restored KV, so any corruption changes the decoded text.
        def run(host_pages):
            sim = Simulator(seed=5)
            server = make_server(sim, kv_pages=64, host_pages=host_pages)
            [result] = run_fleet(server, [make_io_agent("roundtrip")])
            return server, result

        server_plain, plain = run(0)
        server_swap, swapped = run(64)
        assert server_plain.metrics.swap_outs == 0
        assert server_swap.metrics.swap_outs > 0
        assert plain.status == swapped.status == "finished"
        assert plain.result == swapped.result

    def test_disabled_tier_changes_nothing(self):
        def run():
            sim = Simulator(seed=7)
            server = make_server(sim, kv_pages=64, host_pages=0)
            [result] = run_fleet(server, [make_io_agent("baseline")])
            return server, result, sim.now

        server_a, result_a, now_a = run()
        server_b, result_b, now_b = run()
        assert result_a.result == result_b.result
        assert now_a == now_b
        assert server_a.metrics.swap_outs == 0
        assert server_a.metrics.swap_ins == 0
        # No swap batches ever reach the device.
        kinds = server_a.service().pool.aggregate_stats().batches_by_kind
        assert "swap_out" not in kinds and "swap_in" not in kinds

    def test_swap_traffic_reaches_the_device(self):
        sim = Simulator(seed=3)
        server = make_server(sim, kv_pages=64, host_pages=64)
        run_fleet(server, [make_io_agent("traffic")])
        kinds = server.service().pool.aggregate_stats().batches_by_kind
        assert kinds.get("swap_out") == 3
        assert kinds.get("swap_in") == 3

    def test_exported_pages_are_pinned_on_device(self):
        sim = Simulator(seed=0)
        server = make_server(sim, kv_pages=64, host_pages=64)

        async def exporter(ctx):
            context = Context(ctx, sampling=SamplingParams())
            await context.fill("shared prefix ")
            await context.export_prefix("pinned-prefix")
            await ctx.http_get(SLOW_URL)  # blocks; prefix must stay resident
            return "ok"

        [result] = run_fleet(server, [InferletProgram(name="exp", main=exporter)])
        assert result.status == "finished"
        # The exported pages were shared (refcount > 1), so nothing moved.
        assert server.metrics.kv_pages_swapped_out == 0


class TestSwapFirstReclamation:
    def _pressure_fleet(self, host_pages, policy="proactive", seed=1):
        sim = Simulator(seed=seed)
        server = make_server(sim, kv_pages=48, host_pages=host_pages, policy=policy)
        programs = [make_io_agent(f"a{i}", n_interactions=4) for i in range(16)]
        results = run_fleet(server, programs, stagger=0.06)
        return server, results

    def test_baseline_terminates_under_pressure(self):
        server, results = self._pressure_fleet(host_pages=0)
        assert server.metrics.inferlets_terminated > 0
        assert server.metrics.reclamation_terminations > 0

    def test_host_tier_prevents_terminations(self):
        baseline, _ = self._pressure_fleet(host_pages=0)
        tiered, results = self._pressure_fleet(host_pages=192)
        assert (
            tiered.metrics.inferlets_terminated
            < baseline.metrics.inferlets_terminated
        )
        assert sum(1 for r in results if r.status == "finished") > sum(
            1 for r in results if r.status == "terminated"
        )

    def test_on_demand_policy_swaps_only_under_pressure(self):
        # A single agent with plenty of memory never triggers reclamation,
        # so the on_demand policy moves nothing.
        sim = Simulator(seed=3)
        server = make_server(sim, kv_pages=64, host_pages=64, policy="on_demand")
        [result] = run_fleet(server, [make_io_agent("lazy")])
        assert result.status == "finished"
        assert server.metrics.swap_outs == 0
        # Under pressure the reclamation path stages blocked inferlets out.
        server2, _ = self._pressure_fleet(host_pages=192, policy="on_demand")
        assert server2.metrics.reclamation_swaps > 0
        assert server2.metrics.swap_outs > 0


class TestSwapSafety:
    def test_resolving_swapped_page_raises_without_fault_path(self):
        # Direct ResourceManager check: a swapped vid cannot be resolved.
        sim = Simulator(seed=0)
        server = make_server(sim, kv_pages=16, host_pages=16)
        service = server.service()
        resources = service.shards[0].resources
        resources.create_space("probe")
        handles = resources.alloc_kv_pages("probe", 2)
        moved = resources.swap_out_kv("probe")
        assert moved == 2
        assert resources.kv_pages_swapped_by("probe") == 2
        with pytest.raises(ResourceError, match="swapped out"):
            resources.resolve_kv("probe", handles[0])
        restored = resources.swap_in_kv("probe")
        assert restored == 2
        assert resources.resolve_kv("probe", handles[0]) >= 0
        resources.destroy_space("probe")

    def test_dealloc_of_swapped_page_discards_host_slot(self):
        sim = Simulator(seed=0)
        server = make_server(sim, kv_pages=16, host_pages=16)
        resources = server.service().shards[0].resources
        host_pool = server.service().host_pool
        resources.create_space("probe")
        handles = resources.alloc_kv_pages("probe", 2)
        resources.swap_out_kv("probe")
        assert host_pool.num_used == 2
        resources.dealloc_kv_pages("probe", handles)
        assert host_pool.num_used == 0
        assert resources.kv_pages_swapped_by("probe") == 0
        resources.destroy_space("probe")

    def test_destroy_space_discards_host_slots(self):
        sim = Simulator(seed=0)
        server = make_server(sim, kv_pages=16, host_pages=16)
        resources = server.service().shards[0].resources
        host_pool = server.service().host_pool
        resources.create_space("probe")
        resources.alloc_kv_pages("probe", 3)
        resources.swap_out_kv("probe")
        assert host_pool.num_used == 3
        resources.destroy_space("probe")
        assert host_pool.num_used == 0

    def test_fire_and_forget_tool_call_faults_pages_back_in(self):
        # The inferlet keeps using its context while the call is in flight;
        # if its pages were staged out, the first resolve faults them in.
        sim = Simulator(seed=2)
        server = make_server(sim, kv_pages=64, host_pages=64)

        async def eager(ctx):
            context = Context(ctx, sampling=SamplingParams())
            await context.fill("prompt for a concurrent agent ")
            await context.generate_until(max_tokens=3)
            pending = ctx.http_get(SLOW_URL)
            await context.fill("keep working while the call is in flight ")
            await context.generate_until(max_tokens=3)
            observation = await pending
            await context.fill(f"obs:{observation} ")
            answer = await context.generate_until(max_tokens=3)
            context.free()
            return answer

        [result] = run_fleet(server, [InferletProgram(name="eager", main=eager)])
        assert result.status == "finished"
        # Whether or not a swap happened (timing-dependent), the agent must
        # never observe missing pages and all staged pages must be back.
        assert suspended(server) == []
        assert server.service().host_pool.num_used == 0
        assert (
            server.metrics.kv_pages_swapped_in == server.metrics.kv_pages_swapped_out
        )


class TestGuardedDispatchResume:
    def test_eager_policy_commands_issued_while_swapped_still_dispatch(self):
        # Embedding-only commands never resolve a KV page, so they trigger
        # no fault-in; under the 'eager' policy (dispatch-on-submit only)
        # the guard would hold them forever unless swap-in re-triggers the
        # scheduler (BatchScheduler.notify_resumed).
        from repro.core.config import SchedulerConfig

        sim = Simulator(seed=2)
        config = PieConfig(
            gpu=GpuConfig(num_kv_pages=64, host_kv_pages=64),
            scheduler=SchedulerConfig(policy="eager"),
        )
        server = PieServer(sim, config=config)
        ToolEnvironment(sim, server.external)
        server.register_external(SLOW_URL, lambda p: "rows", ConstantLatency(0.3))

        async def emb_while_blocked(ctx):
            context = Context(ctx, sampling=SamplingParams())
            await context.fill("a context that will be staged out ")
            pending = ctx.http_get(SLOW_URL)
            await ctx.sleep(0.05)  # pipeline drains; proactive swap fires
            queue = context.queue
            embs = ctx.alloc_emb(queue, 1)
            ctx.embed_txt(queue, [5], [0], embs)
            dists = await ctx.get_dists(queue, embs)  # guard-held until resume
            observation = await pending
            ctx.dealloc_emb(queue, embs)
            context.free()
            return len(dists)

        [result] = run_fleet(
            server, [InferletProgram(name="embwait", main=emb_while_blocked)]
        )
        assert result.status == "finished"
        assert result.result == 1
        assert server.metrics.swap_outs > 0  # the scenario actually staged


def free_while_suspended(server, early_embed):
    """A fire-and-forget caller, staged out to the host tier, frees every
    page it holds there and then embeds text.  ``early_embed`` issues that
    embed on a second queue while still suspended, before the free; else it
    is issued after the free, on a queue of its own."""

    async def main(ctx):
        context = Context(ctx, sampling=SamplingParams())
        await context.fill("You are a careful research agent. Be brief. ")
        call = ctx.http_get(SLOW_URL)  # fire and forget: staged out now
        queue = ctx.create_queue()
        embeds = ctx.alloc_emb(queue, 2)
        await ctx.sleep(0.05)
        host = server.service().host_pool
        staged = host.num_used
        if early_embed:
            embedded = ctx.embed_txt(queue, [1, 2], [0, 1], embeds)
            await ctx.sleep(0.01)  # held by the dispatch guard meanwhile
        context.free()  # every host-tier page of the owner is discarded
        await ctx.sleep(0)  # the free runs a loop step after the watermark
        left = host.num_used
        if not early_embed:
            embedded = ctx.embed_txt(queue, [1, 2], [0, 1], embeds)
        started = ctx.now()
        await embedded
        embed_s = ctx.now() - started
        await call
        return staged, left, embed_s

    return InferletProgram(name="free-while-suspended", main=main)


class TestSuspensionIsReadFromTheSpace:
    """Suspended means the owner's space holds host-tier pages: once the
    last one is freed, the dispatch guard holds nothing of it."""

    def test_an_embed_after_freeing_every_host_page_runs_at_once(self):
        sim = Simulator(seed=0)
        server = make_server(sim, kv_pages=64, host_pages=64)
        [result] = run_fleet(server, [free_while_suspended(server, early_embed=False)])
        assert result.status == "finished"
        staged, left, embed_s = result.result
        assert (staged, left) == (3, 0)
        assert embed_s < 0.01  # not held until the tool call returns

    @pytest.mark.xfail(
        strict=True,
        raises=SimulationError,
        reason="a command the guard held while suspended is not pumped when "
        "the free ends the suspension: nothing re-triggers the scheduler",
    )
    def test_an_embed_held_before_the_free_runs_once_it_ends(self):
        sim = Simulator(seed=0)
        server = make_server(sim, kv_pages=64, host_pages=64)
        [result] = run_fleet(server, [free_while_suspended(server, early_embed=True)])
        assert result.status == "finished"


class TestOverlappingExternalCalls:
    def test_blocked_registration_is_counted_not_clobbered(self):
        sim = Simulator(seed=0)
        server = make_server(sim, kv_pages=32, host_pages=32)
        service = server.service()
        swap = service.swap
        shard = service.shards[0]

        class FakeInstance:
            instance_id = "overlap"
            finished = False

        inst = FakeInstance()
        swap.note_blocked(inst, shard)
        swap.note_blocked(inst, shard)  # second overlapping call
        assert swap.is_blocked("overlap")
        swap.note_unblocked(inst)  # first call resolves
        assert swap.is_blocked("overlap")  # still parked on the second
        swap.note_unblocked(inst)
        assert not swap.is_blocked("overlap")
        swap.note_unblocked(inst)  # spurious extra resolve is harmless

    def test_overlapping_tool_calls_roundtrip_cleanly(self):
        sim = Simulator(seed=4)
        server = make_server(sim, kv_pages=64, host_pages=64)

        async def overlapper(ctx):
            context = Context(ctx, sampling=SamplingParams())
            await context.fill("an agent with two calls in flight ")
            first = ctx.http_get(SLOW_URL)
            second = ctx.http_get(SLOW_URL)
            b = await second
            a = await first
            await context.fill(f"{a}/{b} ")
            answer = await context.generate_until(max_tokens=3)
            context.free()
            return answer

        [result] = run_fleet(server, [InferletProgram(name="overlap", main=overlapper)])
        assert result.status == "finished"
        # All staged pages came home and no bookkeeping leaked.
        assert suspended(server) == []
        assert not server.service().swap.is_blocked(result.instance_id)
        assert server.service().host_pool.num_used == 0
        assert (
            server.metrics.kv_pages_swapped_in == server.metrics.kv_pages_swapped_out
        )


class TestSwapExportInteraction:
    """Pinned pages (exports, prefix cache) and PCIe charge accounting."""

    SHARED = "Shared fleet system prompt, long enough to span pages comfortably. "

    def _cache_server(self, sim, *, kv_pages=96, host_pages=64):
        config = PieConfig(
            gpu=GpuConfig(num_kv_pages=kv_pages, host_kv_pages=host_pages),
            control=ControlLayerConfig(prefix_cache=True),
        )
        server = PieServer(sim, config=config)
        ToolEnvironment(sim, server.external)
        server.register_external(SLOW_URL, lambda p: "rows", ConstantLatency(0.3))
        return server

    def test_prefix_cached_pages_are_never_suspended(self):
        sim = Simulator(seed=1)
        server = self._cache_server(sim)
        service = server.service()

        async def producer(ctx):
            context = Context(ctx, sampling=SamplingParams())
            await context.fill(self.SHARED + "producer task. ")
            await ctx.http_get(SLOW_URL)  # blocks; proactive swap kicks in
            answer = await context.generate_until(max_tokens=2)
            context.free()
            return answer

        [result] = run_fleet(server, [InferletProgram(name="prod", main=producer)])
        assert result.status == "finished"
        cache = service.shards[0].prefix_cache
        m = server.metrics
        registered = m.prefix_cache_inserted_pages
        assert registered > 0
        # The proactive suspend moved *something* (the partial tail page),
        # but every cache-pinned page stayed resident on the device.
        assert m.swap_outs > 0
        assert 0 < m.kv_pages_swapped_out < registered
        assert cache.cached_pages() == registered

    def test_a_barrier_waiter_runs_after_the_finish_hook_it_waited_for(self):
        """Fails at the parent, which retired a command before resolving its
        future: the ``synchronize`` waiter resumed, blocked on the tool call
        and had all six pages swapped out before the prefix cache's finish
        hook registered any.  Now the five full prompt pages are registered
        (cache-pinned) first and only the partial tail goes to the host."""
        sim = Simulator(seed=1)
        server = self._cache_server(sim)

        async def producer(ctx):
            queue = ctx.create_queue()
            tokens = ctx.tokenize(queue, self.SHARED + "producer task. ")
            pages = ctx.alloc_kvpage(queue, -(-len(tokens) // ctx.kv_page_size()))
            embeds = ctx.alloc_emb(queue, len(tokens))
            ctx.embed_txt(queue, tokens, list(range(len(tokens))), embeds)
            ctx.forward(queue, pages, embeds, pages, embeds[-1:])
            await ctx.synchronize(queue)
            await ctx.http_get(SLOW_URL)  # blocks; proactive swap kicks in
            return len(pages)

        [result] = run_fleet(server, [InferletProgram(name="raw", main=producer)])
        assert (result.status, result.result) == ("finished", 6)
        m = server.metrics
        assert (m.prefix_cache_inserted_pages, m.kv_pages_swapped_out) == (5, 1)

    def test_exported_pages_excluded_from_swappable_count(self):
        sim = Simulator(seed=0)
        server = make_server(sim, kv_pages=32, host_pages=32)
        resources = server.service().shards[0].resources
        resources.create_space("probe")
        handles = resources.alloc_kv_pages("probe", 4)
        assert resources.swappable_kv_count("probe") == 4
        resources.export_kv_pages("probe", handles[:3], "pinned")
        assert resources.swappable_kv_count("probe") == 1
        assert resources.swap_out_kv("probe") == 1  # only the private page
        resources.release_export("pinned")
        assert resources.swappable_kv_count("probe") == 3
        resources.swap_in_kv("probe")
        resources.destroy_space("probe")

    def test_fault_in_after_resume_charges_pcie_exactly_once(self):
        sim = Simulator(seed=2)
        server = make_server(sim, kv_pages=64, host_pages=64)

        async def one_call(ctx):
            context = Context(ctx, sampling=SamplingParams())
            await context.fill("an agent with exactly one blocking tool call ")
            observation = await ctx.http_get(SLOW_URL)
            # Several post-resume commands resolve the same pages: none may
            # trigger a second (already-resident) fault-in.
            await context.fill(f"obs:{observation} ")
            answer = await context.generate_until(max_tokens=3)
            context.free()
            return answer

        [result] = run_fleet(server, [InferletProgram(name="once", main=one_call)])
        assert result.status == "finished"
        m = server.metrics
        assert m.swap_outs == 1
        assert m.swap_ins == 1
        assert m.kv_pages_swapped_in == m.kv_pages_swapped_out
        kinds = server.service().pool.aggregate_stats().batches_by_kind
        assert kinds.get("swap_out") == 1
        assert kinds.get("swap_in") == 1  # the PCIe restore hit the device once


class TestRouterSwapAwareness:
    def test_least_loaded_ignores_swapped_instances(self):
        sim = Simulator(seed=0)
        server = PieServer(sim, num_devices=2, host_kv_pages=8)
        router = Router(server.service().shards, policy="cache_affinity")
        program = InferletProgram(name="bare", main=lambda ctx: None)
        a, b, c = (InferletInstance(program, instance_id=name) for name in "abc")
        home = router.place(a)
        assert home.index == 0
        home.resources.create_space("a")
        home.resources.alloc_kv_pages("a", 1)
        assert home.resources.swap_out_kv("a") == 1
        # "a" is suspended: shard 0 counts as empty again, so "b" and "c"
        # land on 0 and 1 rather than both avoiding 0.
        for instance, index in ((b, 0), (c, 1)):
            shard = router.place(instance)
            assert shard.index == index
            shard.resources.create_space(instance.instance_id)
