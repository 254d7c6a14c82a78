"""Invariant suite for the automatic prefix cache (repro.core.prefix_cache).

Covers the radix index itself, the transparent forward-rewrite path,
refcount pinning (pages survive their producer's exit, are never
double-freed), LRU eviction / demotion to the host tier with PCIe-charged
fault-in, invalidation on page mutation, and the ``prefix_cache=off``
regression (no service constructed, zero cache activity).
"""

from repro.core import InferletProgram, PieServer
from repro.core.config import ControlLayerConfig, PieConfig
from repro.core.inferlet import InferletInstance
from repro.gpu.config import GpuConfig
from repro.sim import Simulator
from repro.support import Context, SamplingParams

#: 6+ pages of shared prompt under the byte tokenizer (page size 16).
SHARED_PROMPT = (
    "System: you are a careful assistant; follow the fleet style guide and "
    "answer each task precisely and briefly. "
)


def make_server(sim, *, prefix_cache=True, kv_pages=256, host_pages=0):
    config = PieConfig(
        gpu=GpuConfig(num_kv_pages=kv_pages, host_kv_pages=host_pages),
        control=ControlLayerConfig(prefix_cache=prefix_cache),
    )
    return PieServer(sim, config=config)


def make_agent(name, suffix, max_tokens=3):
    async def main(ctx):
        context = Context(ctx, sampling=SamplingParams())
        await context.fill(SHARED_PROMPT + suffix)
        answer = await context.generate_until(max_tokens=max_tokens)
        context.free()
        return answer

    return InferletProgram(name=name, main=main)


def run_sequential(server, programs):
    """Launch programs strictly one after another (no overlap)."""
    for program in programs:
        server.register_program(program)

    async def run_all():
        results = []
        for program in programs:
            results.append(await server.run_inferlet(program.name))
        return results

    return server.sim.run_until_complete(run_all())


class TestRadixIndex:
    def _service(self):
        sim = Simulator(seed=0)
        server = make_server(sim)
        return server.service().shards[0].prefix_cache

    def test_match_is_page_aligned_longest_prefix(self):
        cache = self._service()
        size = cache.page_size
        resources = cache.resources
        resources.create_space("producer")
        handles = resources.alloc_kv_pages("producer", 2)
        pids = resources.resolve_kv_many("producer", handles)
        chain = list(range(2 * size))
        for index, pid in enumerate(pids):
            cache._page_tokens[pid] = chain[index * size : (index + 1) * size]
            page = cache.memory.kv_pages.page(pid)
            for slot in range(size):
                page.valid[slot] = True
        cache._commit_chain(pids, chain)
        assert cache.cached_pages() == 2
        assert cache.match_len(chain) == 2 * size
        assert cache.match_len(chain[: size + 3]) == size
        assert cache.match_len([999] + chain[1:]) == 0
        # Probing does not mutate the LRU clock.
        stamps = [n.last_used for n in cache._reclaim_candidates()]
        cache.match_len(chain)
        assert [n.last_used for n in cache._reclaim_candidates()] == stamps

    def test_lru_eviction_order_is_deterministic(self):
        cache = self._service()
        size = cache.page_size
        resources = cache.resources
        resources.create_space("producer")
        for branch in range(3):
            handles = resources.alloc_kv_pages("producer", 1)
            [pid] = resources.resolve_kv_many("producer", handles)
            chain = [100 + branch] * size
            cache._page_tokens[pid] = list(chain)
            page = cache.memory.kv_pages.page(pid)
            for slot in range(size):
                page.valid[slot] = True
            cache._commit_chain([pid], chain)
            # The producer moves on: only the cache's pin remains.
            resources.dealloc_kv_pages("producer", handles)
        assert cache.cached_pages() == 3
        first = cache._reclaim_candidates()[0]
        assert first.tokens[0] == 100  # insertion order decides untouched ties
        assert cache.reclaim_one() == 1
        assert cache.cached_pages() == 2
        # The freed branch was the coldest one; 101/102 remain.
        assert cache.match_len([100] * size) == 0
        assert cache.match_len([101] * size) == size


class TestTransparentReuse:
    def test_second_agent_reuses_first_agents_prompt(self):
        sim = Simulator(seed=1)
        server = make_server(sim)
        run_sequential(
            server,
            [make_agent("p1", "task one. "), make_agent("p2", "task two. ")],
        )
        m = server.metrics
        assert m.prefix_cache_hits == 1
        assert m.prefix_cache_saved_tokens >= (len(SHARED_PROMPT) // 16) * 16
        assert m.prefix_cache_inserted_pages > 0

    def test_generation_is_bit_identical_with_cache(self):
        def run(prefix_cache):
            sim = Simulator(seed=2)
            server = make_server(sim, prefix_cache=prefix_cache)
            results = run_sequential(
                server,
                [make_agent("g1", "alpha. "), make_agent("g2", "alpha. ")],
            )
            return [r.result for r in results]

        assert run(False) == run(True)

    def test_cached_pages_survive_producer_exit(self):
        sim = Simulator(seed=3)
        server = make_server(sim)
        service = server.service()
        [first] = run_sequential(server, [make_agent("solo", "task. ")])
        assert first.status == "finished"
        cache = service.shards[0].prefix_cache
        # The producer freed everything it owned, yet the registered pages
        # are still allocated — pinned solely by the cache's references.
        assert cache.cached_pages() > 0
        assert service.memory.kv_pages.num_allocated == cache.cached_pages()
        # ... and a later consumer still hits.
        run_sequential(server, [make_agent("late", "task. ")])
        assert server.metrics.prefix_cache_hits == 1

    def test_drop_all_returns_every_page_exactly_once(self):
        sim = Simulator(seed=4)
        server = make_server(sim)
        service = server.service()
        run_sequential(server, [make_agent("d1", "one. "), make_agent("d2", "two. ")])
        cache = service.shards[0].prefix_cache
        store = service.memory.kv_pages
        assert store.num_allocated == cache.cached_pages() > 0
        cache.drop_all()
        # No leak, no double free: pool conservation holds and is empty.
        assert store.num_allocated == 0
        assert store.num_free == store.capacity

    def test_mutating_a_cached_page_invalidates_its_subtree(self):
        sim = Simulator(seed=5)
        server = make_server(sim)
        service = server.service()

        async def masker(ctx):
            context = Context(ctx, sampling=SamplingParams())
            await context.fill(SHARED_PROMPT + "masked tail. ")
            await context.mask_token_range(0, 8)
            context.free()
            return "done"

        run_sequential(server, [InferletProgram(name="masker", main=masker)])
        cache = service.shards[0].prefix_cache
        # Masking page 0 taints it: the chain hanging off it is never
        # registered (or, had it been registered already, is dropped).
        assert cache.cached_pages() == 0

    def test_masking_an_adopted_page_copies_on_write(self):
        """Mutating a cache-shared page must not leak into other holders."""

        def run(prefix_cache):
            sim = Simulator(seed=12)
            server = make_server(sim, prefix_cache=prefix_cache)

            async def masker(ctx):
                context = Context(ctx, sampling=SamplingParams())
                await context.fill(SHARED_PROMPT + "task. ")
                await context.mask_token_range(0, 8)
                answer = await context.generate_until(max_tokens=3)
                context.free()
                return answer

            programs = [
                make_agent("seed-agent", "task. "),
                InferletProgram(name="masker", main=masker),
                make_agent("after", "task. "),
            ]
            results = run_sequential(server, programs)
            return server, [r.result for r in results]

        server_off, outputs_off = run(False)
        server_on, outputs_on = run(True)
        # The masker adopted shared pages, then masked them: it got private
        # copies, so its own output and every later consumer's output match
        # the cache-off run bit for bit.
        assert outputs_on == outputs_off
        m = server_on.metrics
        assert m.prefix_cache_hits == 2  # masker and the follower both hit
        # The cache index survived the mutation intact.
        assert server_on.service().shards[0].prefix_cache.cached_pages() > 0
        kinds = server_on.service().pool.aggregate_stats().batches_by_kind
        assert kinds.get("cache_cow", 0) >= 1

    def test_export_shared_pages_keep_inplace_mutation_semantics(self):
        """COW applies to cache aliasing only, not application exports."""
        sim = Simulator(seed=13)
        server = make_server(sim)

        async def exporter(ctx):
            queue = ctx.create_queue()
            pages = ctx.alloc_kvpage(queue, 1)
            ctx.export_kvpage(pages, "raw-shared")
            await ctx.synchronize(queue)
            return "exported"

        async def masker(ctx):
            queue = ctx.create_queue()
            [page] = ctx.import_kvpage("raw-shared")
            ctx.mask_kvpage(queue, page, [True] * 16)
            await ctx.synchronize(queue)
            return "masked"

        run_sequential(
            server,
            [
                InferletProgram(name="exp", main=exporter),
                InferletProgram(name="msk", main=masker),
            ],
        )
        # The page is shared (export entry + importer) but the cache never
        # aliased it, so the mutation stayed in place: no copy-on-write.
        kinds = server.service().pool.aggregate_stats().batches_by_kind
        assert "cache_cow" not in kinds

    def test_invalidation_drops_a_registered_subtree(self):
        sim = Simulator(seed=11)
        server = make_server(sim)
        service = server.service()
        run_sequential(server, [make_agent("reg", "task. ")])
        cache = service.shards[0].prefix_cache
        assert cache.cached_pages() > 0
        root_pid = next(iter(cache._root.children.values())).pid
        cache.invalidate_pid(root_pid)
        assert cache.cached_pages() == 0
        assert server.metrics.prefix_cache_evictions > 0
        assert service.memory.kv_pages.num_allocated == 0


class TestDemotionLadder:
    def test_reclaim_demotes_then_faults_back_in(self):
        sim = Simulator(seed=6)
        server = make_server(sim, host_pages=32)
        service = server.service()
        cache = service.shards[0].prefix_cache
        run_sequential(server, [make_agent("warm", "task. ")])
        resident = cache.cached_pages()
        assert resident > 0
        # Drain the cache onto the host tier via the reclamation rung.
        freed = 0
        while True:
            got = service.swap.reclaim_by_cache(service.shards[0])
            if not got:
                break
            freed += got
        m = server.metrics
        assert freed == resident
        assert m.prefix_cache_demotions == resident
        assert m.prefix_cache_reclaims == resident
        assert service.host_pool.num_used == resident
        assert cache.cached_pages() == 0
        assert service.memory.kv_pages.num_allocated == 0
        # A new consumer faults the demoted prefix back in over PCIe.
        run_sequential(server, [make_agent("hitter", "task. ")])
        assert m.prefix_cache_hits == 1
        assert m.prefix_cache_faultins > 0
        kinds = service.pool.aggregate_stats().batches_by_kind
        assert kinds.get("cache_demote") == resident
        assert kinds.get("cache_fault_in") == 1  # one batched transfer

    def test_reclaim_without_host_tier_evicts(self):
        sim = Simulator(seed=7)
        server = make_server(sim, host_pages=0)
        service = server.service()
        run_sequential(server, [make_agent("evictme", "task. ")])
        cache = service.shards[0].prefix_cache
        assert cache.cached_pages() > 0
        assert service.swap.reclaim_by_cache(service.shards[0]) == 1
        assert server.metrics.prefix_cache_demotions == 0
        assert server.metrics.prefix_cache_evictions >= 1


class TestDisabledKnob:
    def test_off_means_no_service_and_no_activity(self):
        sim = Simulator(seed=9)
        server = make_server(sim, prefix_cache=False)
        assert server.service().shards[0].prefix_cache is None
        run_sequential(
            server, [make_agent("o1", "task. "), make_agent("o2", "task. ")]
        )
        m = server.metrics
        assert m.prefix_cache_hits == m.prefix_cache_misses == 0
        assert m.prefix_cache_saved_tokens == m.prefix_cache_inserted_pages == 0
        # Every page went home when its owner exited.
        assert server.service().memory.kv_pages.num_allocated == 0

    def test_server_shorthand(self):
        sim = Simulator(seed=0)
        server = PieServer(sim, prefix_cache=True)
        assert server.config.control.prefix_cache
        assert server.service().shards[0].prefix_cache is not None


class TestCacheAffinityPlacement:
    def test_fleet_follows_the_cached_prompt(self):
        sim = Simulator(seed=10)
        config = PieConfig(
            gpu=GpuConfig(num_devices=2),
            control=ControlLayerConfig(
                prefix_cache=True, placement_policy="cache_affinity"
            ),
        )
        server = PieServer(sim, config=config)
        programs = []
        for index in range(4):
            program = make_agent(f"c{index}", f"task {index}. ")
            program.prefix_hint = SHARED_PROMPT
            programs.append(program)
        run_sequential(server, programs)
        m = server.metrics
        # The first agent seeds one shard; every follower lands beside the
        # cached prompt and hits, instead of spreading across devices.
        assert m.prefix_cache_hits == 3
        assert max(m.placements_by_device.values()) == 4

    def test_tied_shards_split_least_loaded(self):
        """Shards holding the same prefix share the fleet, not pack shard 0."""
        from repro.core.router import Router

        sim = Simulator(seed=14)
        config = PieConfig(
            gpu=GpuConfig(num_devices=2),
            control=ControlLayerConfig(
                prefix_cache=True, placement_policy="cache_affinity"
            ),
        )
        server = PieServer(sim, config=config)
        shards = server.service().shards
        size = shards[0].prefix_cache.page_size
        chain = list(range(size))
        # Seed BOTH shard indexes with the same one-page prefix.
        for shard in shards:
            shard.resources.create_space("seeder")
            handles = shard.resources.alloc_kv_pages("seeder", 1)
            [pid] = shard.resources.resolve_kv_many("seeder", handles)
            cache = shard.prefix_cache
            cache._page_tokens[pid] = list(chain)
            page = cache.memory.kv_pages.page(pid)
            for slot in range(size):
                page.valid[slot] = True
            cache._commit_chain([pid], chain)
        router = Router(shards, policy="cache_affinity")
        program = InferletProgram(name="tie", main=lambda ctx: None, prefix_hint=chain)
        first = router.place(InferletInstance(program, instance_id="tie-a")).index
        second = router.place(InferletInstance(program, instance_id="tie-b")).index
        assert {first, second} == {0, 1}
