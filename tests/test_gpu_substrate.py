"""Tests for the simulated GPU: memory pools, cost model, serial device."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.handlers import ApiHandlers
from repro.errors import OutOfResourcesError, ResourceError, SimulationError
from repro.gpu import (
    DeviceMemory,
    ForwardRow,
    GpuConfig,
    KernelCostModel,
    KvPageStore,
    SimDevice,
)
from repro.model import get_model_config
from repro.model.registry import ModelEntry
from repro.sim import Simulator


@pytest.fixture()
def config():
    return get_model_config("llama-sim-1b")


@pytest.fixture()
def memory(config):
    return DeviceMemory(config, GpuConfig(num_kv_pages=8, num_embed_slots=16))


class TestGpuConfig:
    def test_defaults_valid(self):
        cfg = GpuConfig()
        assert cfg.num_kv_pages > 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_kv_pages": 0},
            {"num_embed_slots": 0},
            {"max_batch_rows": 0},
            {"max_batch_tokens": -1},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(Exception):
            GpuConfig(**kwargs)


class TestKvPageStore:
    def test_allocate_and_free(self, memory):
        ids = memory.kv_pages.allocate(3)
        assert len(ids) == 3
        assert memory.kv_pages.num_allocated == 3
        memory.kv_pages.free(ids)
        assert memory.kv_pages.num_allocated == 0
        assert memory.kv_pages.num_free == 8

    def test_exhaustion(self, memory):
        memory.kv_pages.allocate(8)
        with pytest.raises(OutOfResourcesError):
            memory.kv_pages.allocate(1)

    def test_double_free_rejected(self, memory):
        ids = memory.kv_pages.allocate(1)
        memory.kv_pages.free(ids)
        with pytest.raises(ResourceError):
            memory.kv_pages.free(ids)

    def test_unallocated_page_access_rejected(self, memory):
        with pytest.raises(ResourceError):
            memory.kv_pages.page(0)

    def test_page_reuse_is_cleared(self, memory, config):
        ids = memory.kv_pages.allocate(1)
        page = memory.kv_pages.page(ids[0])
        k = [np.ones((config.n_kv_heads, config.d_head), np.float32)] * config.n_layers
        page.write_token(0, position=5, keys_per_layer=k, values_per_layer=k)
        assert page.num_valid == 1
        memory.kv_pages.free(ids)
        ids2 = memory.kv_pages.allocate(1)
        page2 = memory.kv_pages.page(ids2[0])
        assert page2.num_valid == 0

    def test_write_and_copy_token(self, memory, config):
        ids = memory.kv_pages.allocate(2)
        src = memory.kv_pages.page(ids[0])
        dst = memory.kv_pages.page(ids[1])
        k = [np.full((config.n_kv_heads, config.d_head), 2.0, np.float32)] * config.n_layers
        v = [np.full((config.n_kv_heads, config.d_head), 3.0, np.float32)] * config.n_layers
        src.write_token(1, position=7, keys_per_layer=k, values_per_layer=v)
        dst.copy_token_from(src, src_slot=1, dst_slot=0)
        assert dst.valid[0]
        assert dst.positions[0] == 7
        np.testing.assert_array_equal(dst.keys[0][0], k[0])

    def test_copy_unwritten_slot_rejected(self, memory):
        ids = memory.kv_pages.allocate(2)
        src = memory.kv_pages.page(ids[0])
        dst = memory.kv_pages.page(ids[1])
        with pytest.raises(ResourceError):
            dst.copy_token_from(src, 0, 0)

    @pytest.mark.parametrize(
        "src_slots, dst_slots",
        [([-1], [0]), ([16], [0]), ([0], [-1]), ([0], [16]), ([0, 1], [1, 99])],
    )
    def test_copy_kvpage_slot_lists_are_range_checked(self, memory, config, src_slots, dst_slots):
        """Inferlet-supplied slots: a negative one must not wrap to the end
        of the page, one past the end must not surface as an IndexError."""
        assert config.kv_page_size == 16
        handlers = ApiHandlers(ModelEntry(config), memory, KernelCostModel(config))
        src_id, dst_id = memory.kv_pages.allocate(2)
        src, dst = memory.kv_pages.page(src_id), memory.kv_pages.page(dst_id)
        k = np.ones((config.n_layers, config.n_kv_heads, config.d_head), np.float32)
        for slot in range(config.kv_page_size):
            src.write_token(slot, position=slot, keys_per_layer=k, values_per_layer=k)
        payload = {"src": src_id, "dst": dst_id, "src_slots": src_slots, "dst_slots": dst_slots}
        [result] = handlers.execute_batch("copy_kv", [SimpleNamespace(payload=payload)])
        assert isinstance(result, ResourceError)
        assert dst.num_valid == 0  # rejected before anything was copied

    def test_mask_tokens(self, memory, config):
        ids = memory.kv_pages.allocate(1)
        page = memory.kv_pages.page(ids[0])
        mask = [False] * config.kv_page_size
        mask[3] = True
        page.mask_tokens(mask)
        assert page.visible[3]
        assert not page.visible[0]

    def test_mask_wrong_length_rejected(self, memory):
        ids = memory.kv_pages.allocate(1)
        with pytest.raises(ResourceError):
            memory.kv_pages.page(ids[0]).mask_tokens([True, False])

    def test_write_bad_slot_rejected(self, memory, config):
        ids = memory.kv_pages.allocate(1)
        page = memory.kv_pages.page(ids[0])
        k = [np.zeros((config.n_kv_heads, config.d_head), np.float32)] * config.n_layers
        with pytest.raises(ResourceError):
            page.write_token(config.kv_page_size, 0, k, k)

    @given(st.lists(st.integers(min_value=1, max_value=3), max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_allocation_accounting_property(self, sizes):
        store = KvPageStore(get_model_config("llama-sim-1b"), num_pages=32)
        allocated = []
        for size in sizes:
            allocated.append(store.allocate(size))
        assert store.num_allocated == sum(len(a) for a in allocated)
        for ids in allocated:
            store.free(ids)
        assert store.num_allocated == 0
        assert store.num_free == 32


class TestPoolFreeHardening:
    """_Pool.free must reject bad batches atomically (swap churn makes a
    silently corrupted free list a live failure mode)."""

    def test_double_free_raises(self, memory):
        ids = memory.kv_pages.allocate(2)
        memory.kv_pages.free(ids)
        with pytest.raises(ResourceError, match="double free or unknown"):
            memory.kv_pages.free([ids[0]])

    def test_unknown_id_raises(self, memory):
        with pytest.raises(ResourceError, match="double free or unknown"):
            memory.kv_pages.free([12345])

    def test_duplicate_within_batch_raises(self, memory):
        [pid] = memory.kv_pages.allocate(1)
        with pytest.raises(ResourceError, match="double free or unknown"):
            memory.kv_pages.free([pid, pid])

    def test_failed_free_leaves_pool_untouched(self, memory):
        ids = memory.kv_pages.allocate(3)
        free_before = memory.kv_pages.num_free
        # A batch that is partially valid must not be partially applied:
        # the valid prefix stays allocated when the bad tail raises.
        with pytest.raises(ResourceError):
            memory.kv_pages.free([ids[0], ids[1], 99999])
        assert memory.kv_pages.num_free == free_before
        assert memory.kv_pages.num_allocated == 3
        # The ids are still allocated and can be freed cleanly afterwards.
        memory.kv_pages.free(ids)
        assert memory.kv_pages.num_allocated == 0


class TestEmbedStore:
    def test_write_read_roundtrip(self, memory, config):
        ids = memory.embeds.allocate(2)
        data = np.arange(2 * config.d_model, dtype=np.float32).reshape(2, -1)
        memory.embeds.write(ids, data)
        np.testing.assert_array_equal(memory.embeds.read(ids), data)
        assert memory.embeds.is_written(ids[0])

    def test_read_unallocated_rejected(self, memory):
        with pytest.raises(ResourceError):
            memory.embeds.read([0])

    def test_write_count_mismatch_rejected(self, memory, config):
        ids = memory.embeds.allocate(1)
        with pytest.raises(ResourceError):
            memory.embeds.write(ids, np.zeros((2, config.d_model), np.float32))

    def test_exhaustion(self, memory):
        memory.embeds.allocate(16)
        with pytest.raises(OutOfResourcesError):
            memory.embeds.allocate(1)

    def test_capacity_token_count(self, memory, config):
        assert memory.kv_tokens_capacity == 8 * config.kv_page_size


class TestKernelCostModel:
    def test_single_decode_matches_tpot(self, config):
        model = KernelCostModel(config)
        cost = model.forward_batch_cost([ForwardRow(1, 100)])
        assert cost * 1e3 == pytest.approx(config.cost.decode_ms_base, rel=0.01)

    def test_batching_is_sublinear(self, config):
        model = KernelCostModel(config)
        one = model.forward_batch_cost([ForwardRow(1)])
        many = model.forward_batch_cost([ForwardRow(1)] * 32)
        assert many < 32 * one
        assert many > one

    def test_prefill_scales_with_tokens(self, config):
        model = KernelCostModel(config)
        short = model.forward_batch_cost([ForwardRow(16)])
        long = model.forward_batch_cost([ForwardRow(512)])
        assert long > short

    def test_empty_batch_free(self, config):
        model = KernelCostModel(config)
        assert model.forward_batch_cost([]) == 0.0

    def test_context_term(self, config):
        model = KernelCostModel(config)
        small_ctx = model.forward_batch_cost([ForwardRow(1, 0)])
        big_ctx = model.forward_batch_cost([ForwardRow(1, 8192)])
        assert big_ctx > small_ctx

    def test_embed_and_sample_costs_positive(self, config):
        model = KernelCostModel(config)
        assert model.embed_batch_cost(10) > 0
        assert model.sample_batch_cost(1) > 0
        assert model.sample_batch_cost(8) > model.sample_batch_cost(1)

    def test_forward_batch_cost_sums_its_rows(self, config):
        """The baselines' fused engine step is charged ``forward_batch_cost``
        (the ``fused_step_cost`` alias varied nothing), which is the one
        formula, ``forward_seconds``, over its rows' sums."""
        model = KernelCostModel(config)
        rows = [ForwardRow(1, 256)] * 4 + [ForwardRow(40, 8)]
        assert model.forward_batch_cost(rows) == model.forward_seconds(
            decode_rows=4, prefill_tokens=40, context_tokens=1032
        )

    def test_costs_ordered_by_model_size(self):
        # A single-sequence decode step, the paper's monolithic TPOT.
        costs = [
            KernelCostModel(get_model_config(name)).forward_seconds(decode_rows=1)
            for name in ("llama-sim-1b", "llama-sim-3b", "llama-sim-8b")
        ]
        assert costs == sorted(costs)

    def test_misc_costs(self, config):
        model = KernelCostModel(config)
        assert model.copy_batch_cost(4) > model.copy_batch_cost(1)
        assert model.mask_batch_cost(4) > 0
        # A prompt pays the decode step's floor and then its tokens.
        assert model.forward_seconds(prefill_tokens=100) > model.forward_seconds(decode_rows=1)


class TestSimDevice:
    def test_serial_execution_accumulates_time(self):
        sim = Simulator()
        device = SimDevice(sim)
        results = []

        async def main():
            f1 = device.submit("op", lambda: "a", cost_seconds=0.010)
            f2 = device.submit("op", lambda: "b", cost_seconds=0.020)
            results.append(await f1)
            results.append(await f2)

        sim.run_until_complete(main())
        assert results == ["a", "b"]
        assert sim.now == pytest.approx(0.030)
        assert device.stats.batches_executed == 2

    def test_busy_flag_and_idle_notification(self):
        sim = Simulator()
        device = SimDevice(sim)
        idle_times = []
        device.on_idle(lambda: idle_times.append(sim.now))

        device.submit("op", lambda: None, cost_seconds=0.005)
        assert device.busy
        sim.run()
        assert not device.busy
        assert idle_times == [pytest.approx(0.005)]

    def test_error_propagates_through_future(self):
        sim = Simulator()
        device = SimDevice(sim)

        def failing():
            raise ValueError("kernel crash")

        async def main():
            await device.submit("op", failing, cost_seconds=0.001)

        with pytest.raises(ValueError, match="kernel crash"):
            sim.run_until_complete(main())

    def test_negative_cost_rejected(self):
        sim = Simulator()
        device = SimDevice(sim)
        with pytest.raises(SimulationError):
            device.submit("op", lambda: None, cost_seconds=-1.0)

    def test_utilization(self):
        sim = Simulator()
        device = SimDevice(sim)
        device.submit("op", lambda: None, cost_seconds=0.5)
        sim.run()
        sim.schedule(0.5, lambda: None)
        sim.run()
        assert device.utilization() == pytest.approx(0.5)

    def test_stats_by_kind(self):
        sim = Simulator()
        device = SimDevice(sim)
        device.submit("forward", lambda: None, cost_seconds=0.01, size=4)
        device.submit("embed", lambda: None, cost_seconds=0.01)
        sim.run()
        assert device.stats.batches_by_kind == {"forward": 1, "embed": 1}
        assert device.stats.items_executed == 5
