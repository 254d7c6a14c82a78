"""Tests for the cluster layer: router placement policies, per-device
schedulers, cross-device KV import, and the num_devices=1 regression."""

import dataclasses
from types import SimpleNamespace

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from repro.core import InferletProgram, PieServer, PLACEMENT_POLICIES
from repro.core.inferlet import InferletInstance
from repro.core.config import ControlLayerConfig, PieConfig
from repro.core.router import DeviceShard, Router, aggregate_scheduler_stats
from repro.core.scheduler import SchedulerStats
from repro.errors import ReproError, ShardUnavailableError
from repro.gpu.config import GpuConfig
from repro.gpu.device import DeviceStats, sum_stats
from repro.sim import Simulator
from repro.support import Context, SamplingParams


def make_completion_program(name, prompt, max_tokens=8):
    async def main(ctx):
        context = Context(ctx, sampling=SamplingParams())
        await context.fill(prompt)
        text = await context.generate_until(max_tokens=max_tokens)
        context.free()
        return text

    return InferletProgram(name=name, main=main)


def inst(name, **hints):
    """A bare instance for driving a Router directly; ``hints`` are the
    program's ``placement_hint`` / ``prefix_hint``."""
    program = InferletProgram(name=name, main=lambda ctx: None, **hints)
    return InferletInstance(program, instance_id=name)


def seed_prefix_cache(shard, pages=2):
    """Commit a ``pages``-page token chain into ``shard``'s prefix cache, as
    a finished prompt forward would; returns the chain."""
    cache = shard.prefix_cache
    size = cache.page_size
    chain = list(range(100, 100 + pages * size))
    shard.resources.create_space("seeder")
    handles = shard.resources.alloc_kv_pages("seeder", pages)
    pids = shard.resources.resolve_kv_many("seeder", handles)
    for index, pid in enumerate(pids):
        cache._page_tokens[pid] = chain[index * size : (index + 1) * size]
        page = cache.memory.kv_pages.page(pid)
        for slot in range(size):
            page.valid[slot] = True
    cache._commit_chain(pids, chain)
    assert cache.match_len(chain) == len(chain)
    return chain


def run_fleet(server, programs):
    sim = server.sim
    for program in programs:
        server.register_program(program)

    async def run_all():
        tasks = [sim.create_task(server.run_inferlet(p.name)) for p in programs]
        return await sim.gather(tasks)

    return sim.run_until_complete(run_all())


class TestConfig:
    def test_num_devices_must_be_positive(self):
        with pytest.raises(ReproError):
            GpuConfig(num_devices=0)

    def test_placement_policy_validated(self):
        with pytest.raises(ReproError):
            PieConfig(control=ControlLayerConfig(placement_policy="random"))

    def test_policy_sets_agree(self):
        # The literal set validated in config must match the router's.
        for policy in PLACEMENT_POLICIES:
            PieConfig(control=ControlLayerConfig(placement_policy=policy))

    def test_disaggregated_needs_a_device_in_each_role(self):
        # The (prefill_shards, num_devices) range is checked once, by the
        # router the server builds.
        for devices, prefill_shards in ((1, 1), (2, 2), (3, 5)):
            with pytest.raises(ReproError, match="1 <= prefill_shards < num shards"):
                PieServer(
                    Simulator(seed=0),
                    num_devices=devices,
                    placement_policy="disaggregated",
                    prefill_shards=prefill_shards,
                )

    def test_server_shorthand_overrides(self):
        sim = Simulator(seed=0)
        server = PieServer(sim, num_devices=3, placement_policy="least_loaded")
        assert server.num_devices == 3
        assert server.config.control.placement_policy == "least_loaded"
        assert len(server.service().shards) == 3


class TestPlacementPolicies:
    def test_round_robin_cycles_devices(self):
        sim = Simulator(seed=0)
        server = PieServer(sim, num_devices=3, placement_policy="round_robin")
        programs = [make_completion_program(f"p{i}", f"prompt {i} ") for i in range(6)]
        results = run_fleet(server, programs)
        assert all(r.status == "finished" for r in results)
        placements = server.metrics.placements_by_device
        assert sorted(placements.values()) == [2, 2, 2]

    def test_least_loaded_fills_gaps(self):
        sim = Simulator(seed=0)
        server = PieServer(sim, num_devices=3)
        router = Router(server.service().shards, policy="least_loaded")
        a, b, c = inst("a"), inst("b"), inst("c")
        assert [router.place(i).index for i in (a, b, c)] == [0, 1, 2]
        router.release(b)
        assert router.place(inst("d")).index == 1  # the freed shard is emptiest
        assert router.place(inst("e")).index == 0  # ties broken by index

    def test_cache_affinity_follows_export(self):
        sim = Simulator(seed=0)
        server = PieServer(sim, num_devices=2, placement_policy="cache_affinity")

        async def exporter(ctx):
            context = Context(ctx, sampling=SamplingParams())
            await context.fill("shared prefix text ")
            context.export_prefix("affinity-prefix")
            return "ok"

        async def importer(ctx):
            queue = ctx.create_queue()
            tokens = ctx.tokenize(queue, "shared prefix text ")
            context = await Context.from_export(ctx, "affinity-prefix", tokens)
            await context.fill("suffix")
            text = await context.generate_until(max_tokens=4)
            context.free()
            return text

        server.register_program(InferletProgram(name="exporter", main=exporter))
        server.register_program(
            InferletProgram(
                name="importer", main=importer, placement_hint="affinity-prefix"
            )
        )
        sim.run_until_complete(server.run_inferlet("exporter"))
        result = sim.run_until_complete(server.run_inferlet("importer"))
        assert result.status == "finished"
        # The hint co-located the importer with the pages: no migration.
        assert server.metrics.cross_device_imports == 0

    def test_cache_affinity_without_matching_export_falls_back(self):
        sim = Simulator(seed=0)
        server = PieServer(sim, num_devices=3)
        router = Router(server.service().shards, policy="cache_affinity")
        # No export anywhere: hinted placement degrades to least_loaded,
        # spreading across shards instead of pinning to shard 0.
        indices = [
            router.place(inst(f"i{n}", placement_hint="ghost-prefix")).index
            for n in range(3)
        ]
        assert indices == [0, 1, 2]

    def test_unknown_policy_rejected_by_router(self):
        sim = Simulator(seed=0)
        server = PieServer(sim, num_devices=2)
        with pytest.raises(ReproError):
            Router(server.service().shards, policy="hash")


class TestDisaggregatedRouter:
    """Router mechanics specific to the prefill/decode role split: role
    predicates, migration, and placement within the prefill role."""

    def _router(self, devices=3, prefill_shards=1, prefix_cache=False):
        sim = Simulator(seed=0)
        server = PieServer(
            sim,
            num_devices=devices,
            placement_policy="disaggregated",
            prefill_shards=prefill_shards,
            prefix_cache=prefix_cache,
        )
        return Router(
            server.service().shards,
            policy="disaggregated",
            prefill_shards=prefill_shards,
        )

    def test_roles_and_decode_destination(self):
        router = self._router(devices=3, prefill_shards=1)
        assert router.is_prefill_index(0)
        assert not router.is_prefill_index(1)
        assert router.decode_indices() == [1, 2]
        assert router.place(inst("a")).index == 0  # new arrivals land on prefill
        assert router.on_prefill_shard("a")
        dst = router.choose_decode_shard()
        assert dst.index in (1, 2)
        # In-flight streams the placement map can't see shift the choice.
        loaded = router.choose_decode_shard(extra_occupancy={dst.index: 5.0})
        assert loaded.index != dst.index

    def test_migrate_repoints_and_validates(self):
        router = self._router()
        a = inst("a")
        router.place(a)
        assert a.placements[router.model] is router.shards[0]
        router.migrate(a, 2)
        assert router.shard_for("a").index == 2
        assert a.placements[router.model] is router.shards[2]
        assert not router.on_prefill_shard("a")
        with pytest.raises(ReproError):
            router.migrate(inst("ghost"), 1)
        with pytest.raises(ReproError):
            router.migrate(a, 99)
        router.release(a)
        assert not a.placements
        with pytest.raises(ReproError):
            a.placements[router.model]

    def test_hinted_launches_spread_then_follow_the_cache(self):
        """The prefill role is placed by the load key: a family's launches
        spread by occupancy (no per-prompt memory packs one prefill shard),
        and when occupancies tie the shard whose cache holds the prompt
        wins — a re-launch after its holder migrated goes back to it."""
        router = self._router(devices=4, prefill_shards=2)
        tokens = (9, 8, 7)
        a, b, c = (inst(name, prefix_hint=tokens) for name in "abc")
        assert [router.place(i).index for i in (a, b, c)] == [0, 1, 0]

        router = self._router(devices=4, prefill_shards=2, prefix_cache=True)
        chain = tuple(seed_prefix_cache(router.shards[1]))
        a, b, c = (inst(name, prefix_hint=chain) for name in "abc")
        assert router.place(a).index == 1  # a tie on occupancy: the cached shard
        assert router.place(b).index == 0  # a is live there: occupancy first
        router.migrate(a, router.decode_indices()[0])
        router.release(a)
        router.migrate(b, router.decode_indices()[1])
        assert router.place(c).index == 1  # the tie again, the cache again


#: One prompt family: a 6+-page system prompt under the byte tokenizer.
FAMILY_PROMPT = (
    "System: you are a careful assistant; follow the fleet style guide and "
    "answer each task precisely and briefly. "
)


class TestLoadBeforePrefix:
    """``cache_affinity`` and ``disaggregated`` place by one key: least
    occupancy, then the longest cached match of ``prefix_hint``, then
    pending work, then index — after an exact export-name match."""

    def test_a_live_holder_sends_the_next_of_its_family_to_the_empty_shard(self):
        """The first of a family still runs on the shard that cached its
        prompt when the second launches: the second goes to the empty
        shard and re-prefills there, instead of queueing behind the first."""
        sim = Simulator(seed=10)
        server = PieServer(
            sim, num_devices=2, prefix_cache=True, placement_policy="cache_affinity"
        )

        def member(name, linger_s):
            async def main(ctx):
                context = Context(ctx, sampling=SamplingParams())
                await context.fill(FAMILY_PROMPT + "task. ")
                text = await context.generate_until(max_tokens=3)
                await ctx.sleep(linger_s)
                context.free()
                return text

            return InferletProgram(name=name, main=main, prefix_hint=FAMILY_PROMPT)

        server.register_program(member("first", 0.5))
        server.register_program(member("second", 0.0))
        shards = server.service().shards
        prompt = server.service().entry.tokenizer.encode(FAMILY_PROMPT)

        async def scenario():
            head = sim.create_task(server.run_inferlet("first"))
            await sim.sleep(0.2)
            # The first's prompt is cached on its shard, and it is still live.
            assert shards[0].prefix_cache.match_len(prompt) > 0
            assert shards[1].prefix_cache.match_len(prompt) == 0
            assert server.service().router.instances_on(shards[0])
            tail = await server.run_inferlet("second")
            return await head, tail

        first, second = sim.run_until_complete(scenario())
        assert first.status == second.status == "finished"
        assert server.metrics.placements_by_device == {
            shards[0].name: 1,
            shards[1].name: 1,
        }
        assert server.metrics.prefix_cache_hits == 0  # the second re-prefilled
        assert first.result == second.result  # placement never changes tokens


PAGE = 4
FAMILY = tuple(range(50, 50 + 3 * PAGE))


class PagedStubCache:
    """A shard's prefix cache holding the first ``pages`` pages of
    ``FAMILY``: ``match_len`` is the page-aligned common prefix."""

    def __init__(self, pages):
        self.chain = FAMILY[: pages * PAGE]

    def match_len(self, tokens):
        matched = 0
        while (
            matched + PAGE <= min(len(tokens), len(self.chain))
            and tuple(tokens[matched : matched + PAGE]) == self.chain[matched : matched + PAGE]
        ):
            matched += PAGE
        return matched


def stub_shard(index, cached_pages, pending, export):
    """A ``DeviceShard`` whose load readings and cache are drawn, not run."""
    return DeviceShard(
        index=index,
        device=SimpleNamespace(name=f"stub:{index}", queue_depth=pending, busy=False),
        memory=None,
        handlers=None,
        scheduler=SimpleNamespace(total_pending=0),
        resources=SimpleNamespace(model_name="stub", has_export=lambda name: export),
        prefix_cache=None if cached_pages is None else PagedStubCache(cached_pages),
    )


@st.composite
def placement_worlds(draw):
    n = draw(st.integers(1, 5))
    shards = [
        stub_shard(
            index,
            cached_pages=draw(st.none() | st.integers(0, 3)),
            pending=draw(st.integers(0, 2)),
            export=draw(st.booleans()),
        )
        for index in range(n)
    ]
    # Live inferlets: (shard, swapped, weight) — weights sum exactly.
    live = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.booleans(),
                st.sampled_from((0.5, 1.0, 2.0, 3.0)),
            ),
            max_size=8,
        )
    )
    down = draw(st.none() | st.sets(st.integers(0, n - 1)))
    restrict = draw(st.none() | st.sets(st.integers(0, n - 1), min_size=1).map(sorted))
    hint = draw(st.integers(0, len(FAMILY)).map(lambda k: list(FAMILY[:k])))
    return {
        "shards": shards,
        "live": live,
        "swap_flags": draw(st.booleans()),
        "weights": draw(st.booleans()),
        "down": down,
        "restrict": restrict,
        "hint": hint,
    }


def build_router(world, policy="cache_affinity", prefill_shards=0):
    live = {f"live{k}": entry for k, entry in enumerate(world["live"])}
    down = world["down"]
    router = Router(
        world["shards"],
        policy=policy,
        prefill_shards=prefill_shards,
        is_swapped=(lambda iid: live[iid][1]) if world["swap_flags"] else None,
        placement_weight=(lambda iid: live[iid][2]) if world["weights"] else None,
        health_probe=None if down is None else (lambda index: index not in down),
    )
    for iid, (index, _, _) in live.items():
        router._placements[iid] = index
    return router


def expected_pick(world, allowed):
    """The key, computed independently: ``None`` when nothing is placeable."""
    down = world["down"] or set()
    allowed = [i for i in allowed if i not in down]
    if not allowed:
        return None
    occupancy = {i: 0.0 for i in allowed}
    for index, swapped, weight in world["live"]:
        if index in occupancy and not (world["swap_flags"] and swapped):
            occupancy[index] += weight if world["weights"] else 1
    least = [i for i in allowed if occupancy[i] == min(occupancy.values())]
    caches = {i: world["shards"][i].prefix_cache for i in least}
    matches = {i: cache.match_len(world["hint"]) if cache else 0 for i, cache in caches.items()}
    longest = [i for i in least if matches[i] == max(matches.values())]
    return min(longest, key=lambda i: (world["shards"][i].pending_work, i))


def pick_is_load_then_match(world):
    """The property, for a bare key call with the drawn ``restrict`` set and
    for ``place`` under both prefix-aware policies."""
    router = build_router(world)
    n = len(world["shards"])
    allowed = range(n) if world["restrict"] is None else world["restrict"]
    expected = expected_pick(world, allowed)
    try:
        got = router._place_least_loaded(
            restrict=world["restrict"], prefix_tokens=world["hint"]
        )
    except ShardUnavailableError:
        got = None
    if got != expected:
        return False
    policies = [("cache_affinity", 0)] + [("disaggregated", k) for k in range(1, n)]
    for policy, prefill_shards in policies:
        router = build_router(world, policy, prefill_shards)
        candidates = range(prefill_shards or n)
        holders = [
            i
            for i in candidates
            if world["shards"][i].resources.has_export("x") and router._placeable(i)
        ]
        expected = holders[0] if holders else expected_pick(world, candidates)
        try:
            got = router.place(inst("new", placement_hint="x", prefix_hint=world["hint"])).index
        except ShardUnavailableError:
            got = None
        if got != expected:
            return False
    return True


@settings(max_examples=300, deadline=None)
@given(world=placement_worlds())
def test_pick_has_least_occupancy_then_longest_match(world):
    assert pick_is_load_then_match(world)


LEAST_LOADED = Router._place_least_loaded


def match_before_occupancy(self, restrict=None, extra_occupancy=None, prefix_tokens=None):
    """The parent's order: the longest match anywhere, load among the tied."""
    candidates = range(len(self.shards)) if restrict is None else restrict
    matches = {
        i: self._cached_len(self.shards[i], prefix_tokens)
        for i in candidates
        if self._placeable(i)
    }
    longest = [i for i in matches if matches[i] == max(matches.values())]
    return LEAST_LOADED(self, longest or candidates, extra_occupancy, prefix_tokens)


def no_match_tie_break(shard, prefix_tokens):
    return 0


@pytest.mark.parametrize(
    "name, attr, mutant",
    [
        ("match before occupancy", "_place_least_loaded", match_before_occupancy),
        ("no match tie-break", "_cached_len", staticmethod(no_match_tie_break)),
    ],
)
def test_mutants_are_killed(monkeypatch, name, attr, mutant):
    monkeypatch.setattr(Router, attr, mutant)
    # find() raises NoSuchExample, failing the test, if the mutant survives.
    find(
        placement_worlds(),
        lambda world: not pick_is_load_then_match(world),
        settings=settings(max_examples=2000, derandomize=True, database=None),
    )


class TestCrossDeviceImport:
    def _run(self, num_devices):
        sim = Simulator(seed=3)
        server = PieServer(sim, num_devices=num_devices, placement_policy="round_robin")

        async def exporter(ctx):
            context = Context(ctx, sampling=SamplingParams())
            await context.fill("the quick brown fox ")
            context.export_prefix("xfer-prefix")
            return "exported"

        async def importer(ctx):
            queue = ctx.create_queue()
            tokens = ctx.tokenize(queue, "the quick brown fox ")
            context = await Context.from_export(ctx, "xfer-prefix", tokens)
            await context.fill("jumps")
            text = await context.generate_until(max_tokens=6)
            context.free()
            return text

        server.register_program(InferletProgram(name="exporter", main=exporter))
        server.register_program(InferletProgram(name="importer", main=importer))
        sim.run_until_complete(server.run_inferlet("exporter"))
        result = sim.run_until_complete(server.run_inferlet("importer"))
        return server, result

    def test_import_migrates_pages_between_devices(self):
        server, result = self._run(num_devices=2)
        assert result.status == "finished"
        # Round robin put exporter on device 0 and importer on device 1, so
        # the import paid one device-to-device page migration.
        assert server.metrics.cross_device_imports == 1

    def test_migrated_pages_decode_identically(self):
        _, single = self._run(num_devices=1)
        _, clustered = self._run(num_devices=2)
        # The KV contents survived the copy: greedy decoding from the
        # migrated prefix yields the exact same text as the local import.
        assert clustered.result == single.result

    def test_migration_is_not_free(self):
        # The transfer occupies the destination device, so the clustered
        # run is strictly slower than the same-shard import and the device
        # records the kv_transfer batch.
        server_1, single = self._run(num_devices=1)
        server_2, clustered = self._run(num_devices=2)
        assert clustered.latency > single.latency
        pool_kinds = server_2.service().pool.aggregate_stats().batches_by_kind
        assert pool_kinds.get("kv_transfer") == 1
        single_kinds = server_1.service().pool.aggregate_stats().batches_by_kind
        assert "kv_transfer" not in single_kinds


class TestCacheAffinityCrossDeviceImport:
    """cache_affinity placement with a stale/missing hint: the importer
    lands on another shard and the import must migrate pages — charged
    to the destination device and bit-identical after the copy."""

    def _run(self, importer_hint):
        sim = Simulator(seed=11)
        server = PieServer(sim, num_devices=2, placement_policy="cache_affinity")

        async def exporter(ctx):
            context = Context(ctx, sampling=SamplingParams())
            await context.fill("the quick brown fox ")
            context.export_prefix("real-prefix")
            # Stay alive so least_loaded sends the importer elsewhere.
            await ctx.sleep(0.5)
            return "exported"

        async def importer(ctx):
            queue = ctx.create_queue()
            tokens = ctx.tokenize(queue, "the quick brown fox ")
            context = await Context.from_export(ctx, "real-prefix", tokens)
            await context.fill("jumps")
            text = await context.generate_until(max_tokens=6)
            context.free()
            return text

        server.register_program(InferletProgram(name="exporter", main=exporter))
        server.register_program(
            InferletProgram(name="importer", main=importer, placement_hint=importer_hint)
        )

        async def scenario():
            exp_task = sim.create_task(server.run_inferlet("exporter"))
            await sim.sleep(0.1)  # the export exists, the exporter still runs
            imp_result = await server.run_inferlet("importer")
            exp_result = await exp_task
            return exp_result, imp_result

        exp_result, imp_result = sim.run_until_complete(scenario())
        assert exp_result.status == imp_result.status == "finished"
        return server, imp_result

    def test_stale_hint_migrates_and_charges_the_transfer(self):
        server, result = self._run(importer_hint="ghost-prefix")
        # The hint matched nothing, least_loaded placed the importer on the
        # free device, and the import paid a cross-device page migration.
        assert server.metrics.cross_device_imports == 1
        kinds = server.service().pool.aggregate_stats().batches_by_kind
        assert kinds.get("kv_transfer") == 1
        # The transfer landed on the importer's device and cost real time.
        dst_shard = server.service().shards[1]
        assert dst_shard.device.stats.batches_by_kind.get("kv_transfer") == 1
        assert dst_shard.device.stats.busy_seconds > 0.0

    def test_pages_arrive_intact_across_devices(self):
        # A matching hint co-locates (local aliasing import); a stale hint
        # migrates.  Greedy continuation from the prefix must be identical,
        # proving the migrated KV contents survived the copy.
        server_local, local = self._run(importer_hint="real-prefix")
        server_remote, remote = self._run(importer_hint="ghost-prefix")
        assert server_local.metrics.cross_device_imports == 0
        assert server_remote.metrics.cross_device_imports == 1
        assert local.result == remote.result


class TestPerDeviceMemory:
    def test_pools_are_per_device(self):
        # Two inferlets each grab the ENTIRE per-device KV pool; on a
        # 2-device cluster both fit (one pool each), so neither is
        # FCFS-terminated.
        config = PieConfig(gpu=GpuConfig(num_kv_pages=8, num_devices=2))
        sim = Simulator(seed=0)
        server = PieServer(sim, config=config)

        async def hog(ctx):
            queue = ctx.create_queue()
            pages = ctx.alloc_kvpage(queue, 8)
            await ctx.sleep(0.05)
            await ctx.dealloc_kvpage(queue, pages)
            await ctx.synchronize(queue)
            return len(pages)

        programs = [
            InferletProgram(name="hog0", main=hog),
            InferletProgram(name="hog1", main=hog),
        ]
        results = run_fleet(server, programs)
        assert [r.status for r in results] == ["finished", "finished"]
        assert server.metrics.inferlets_terminated == 0

    def test_single_device_contention_still_reclaims(self):
        # Same workload on ONE device: the second hog cannot fit and the
        # FCFS policy terminates the youngest inferlet, as before.
        config = PieConfig(gpu=GpuConfig(num_kv_pages=8, num_devices=1))
        sim = Simulator(seed=0)
        server = PieServer(sim, config=config)

        async def hog(ctx):
            queue = ctx.create_queue()
            pages = ctx.alloc_kvpage(queue, 8)
            await ctx.sleep(0.05)
            await ctx.dealloc_kvpage(queue, pages)
            await ctx.synchronize(queue)
            return len(pages)

        programs = [
            InferletProgram(name="hog0", main=hog),
            InferletProgram(name="hog1", main=hog),
        ]
        results = run_fleet(server, programs)
        assert server.metrics.inferlets_terminated == 1
        assert sorted(r.status for r in results) == ["finished", "terminated"]


class TestClusterStats:
    def test_aggregation_matches_per_device_sums(self):
        sim = Simulator(seed=0)
        server = PieServer(sim, num_devices=4)
        programs = [make_completion_program(f"p{i}", f"prompt {i} ") for i in range(8)]
        results = run_fleet(server, programs)
        sim.run()  # drain batches still executing on the devices
        assert all(r.status == "finished" for r in results)
        stats = server.cluster_stats()
        assert len(stats.per_device) == 4
        assert stats.combined.batches_dispatched == sum(
            s.batches_dispatched for s in stats.per_device.values()
        )
        assert stats.combined.commands_dispatched == sum(
            s.commands_dispatched for s in stats.per_device.values()
        )
        assert stats.combined.batch_sizes.total == stats.combined.batches_dispatched
        # Every device actually served work under round robin.
        assert all(s.batches_dispatched > 0 for s in stats.per_device.values())
        # The device pool saw exactly the dispatched batches.
        pool = server.service().pool
        assert pool.aggregate_stats().batches_executed == stats.combined.batches_dispatched

    def test_aggregate_of_nothing_is_empty(self):
        total = aggregate_scheduler_stats([])
        assert total.batches_dispatched == 0
        assert total.mean_batch_size == 0.0

    @pytest.mark.parametrize("cls", [SchedulerStats, DeviceStats])
    def test_no_field_can_be_forgotten(self, cls):
        """The aggregate used to name its fields by hand and was never told
        about ``forward_yields`` / ``forward_holds_expired``: two shards with
        3 and 4 yields summed to 0.  Every field of the dataclass — one
        added tomorrow included — must reach the sum."""

        @dataclasses.dataclass
        class Tomorrow(cls):
            added_tomorrow: int = 0

        def filled(base):
            record = Tomorrow()
            for n, spec in enumerate(dataclasses.fields(Tomorrow), start=base):
                value = getattr(record, spec.name)
                if isinstance(value, dict):
                    value.update({"forward": n, f"only_{base}": 1})
                elif isinstance(value, (int, float)):
                    setattr(record, spec.name, type(value)(n))
                else:
                    value.observe(n)
            return record

        a, b = filled(3), filled(40)
        total = sum_stats(Tomorrow, [a, b])
        for spec in dataclasses.fields(Tomorrow):
            mine, (x, y) = getattr(total, spec.name), (getattr(a, spec.name), getattr(b, spec.name))
            if isinstance(mine, dict):
                assert mine == {"forward": x["forward"] + y["forward"], "only_3": 1, "only_40": 1}
            elif isinstance(mine, (int, float)):
                assert mine == x + y != 0, spec.name
            else:
                assert (mine.total, mine.sum) == (2, x.sum + y.sum), spec.name
        assert total.added_tomorrow == a.added_tomorrow + b.added_tomorrow > 0
        # The inputs are read, never written.
        assert a == filled(3) and b == filled(40)

    def test_cluster_stats_carry_the_selection_counters(self):
        a, b = SchedulerStats(forward_yields=3), SchedulerStats(forward_yields=4)
        b.forward_holds_expired = 2
        total = aggregate_scheduler_stats([a, b])
        assert (total.forward_yields, total.forward_holds_expired) == (7, 2)


class TestSingleDeviceRegression:
    """num_devices=1 must be behavior-identical to the pre-cluster path."""

    def _run_workload(self, server):
        programs = [make_completion_program(f"p{i}", f"regression {i} ") for i in range(4)]
        results = run_fleet(server, programs)
        return results

    def test_default_config_equals_explicit_one_device(self):
        sim_a = Simulator(seed=7)
        server_a = PieServer(sim_a)  # default: num_devices=1
        results_a = self._run_workload(server_a)

        sim_b = Simulator(seed=7)
        server_b = PieServer(sim_b, num_devices=1, placement_policy="least_loaded")
        results_b = self._run_workload(server_b)

        assert [r.result for r in results_a] == [r.result for r in results_b]
        assert [r.latency for r in results_a] == [r.latency for r in results_b]
        stats_a = server_a.service().scheduler.stats
        stats_b = server_b.service().scheduler.stats
        assert stats_a.batches_dispatched == stats_b.batches_dispatched
        assert stats_a.batch_sizes == stats_b.batch_sizes
        assert sim_a.now == sim_b.now

    def test_single_device_keeps_legacy_accessors_and_name(self):
        sim = Simulator(seed=0)
        server = PieServer(sim)
        service = server.service()
        # Shard-0 accessors alias the only shard.
        assert service.memory is service.shards[0].memory
        assert service.scheduler is service.shards[0].scheduler
        assert service.resources is service.shards[0].resources
        assert service.device.name == "gpu:llama-sim-1b"
        assert service.num_devices == 1

    def test_cluster_devices_are_numbered(self):
        sim = Simulator(seed=0)
        server = PieServer(sim, num_devices=2)
        names = [shard.device.name for shard in server.service().shards]
        assert names == ["gpu:llama-sim-1b:0", "gpu:llama-sim-1b:1"]
