"""The slab-backed KV data plane against the per-slot loops it replaced.

``reference_gather`` / ``reference_write`` are the loops ``ApiHandlers``
ran before ``KvPageStore.gather`` / ``scatter`` existed, kept here as the
reference: the arithmetic is unchanged, so results must be *equal*, not
close.  Every scenario drives one store through the kernels and a twin
through the loops and compares all state after every step.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ResourceError
from repro.gpu import DeviceMemory, GpuConfig, HostMemoryPool, KvPageStore
from repro.model import get_model_config
from repro.model.transformer import KvContext, TinyTransformer

CONFIG = get_model_config("llama-sim-1b")
PAGE = CONFIG.kv_page_size
TOKEN_SHAPE = (CONFIG.n_kv_heads, CONFIG.d_head)
TRANSFORMER = TinyTransformer(CONFIG)


# -- the replaced loops -----------------------------------------------------------


def reference_gather(store: KvPageStore, page_ids) -> KvContext:
    context = KvContext.empty(CONFIG)
    if not page_ids:
        return context
    keys = [[] for _ in range(CONFIG.n_layers)]
    values = [[] for _ in range(CONFIG.n_layers)]
    positions, visible = [], []
    for page_id in page_ids:
        page = store.page(page_id)
        for slot in range(page.page_size):
            if not page.valid[slot]:
                continue
            for layer in range(CONFIG.n_layers):
                keys[layer].append(page.keys[layer][slot])
                values[layer].append(page.values[layer][slot])
            positions.append(int(page.positions[slot]))
            visible.append(bool(page.visible[slot]))
    if not positions:
        return context
    return KvContext(
        keys=[np.stack(layer_keys) for layer_keys in keys],
        values=[np.stack(layer_values) for layer_values in values],
        positions=np.asarray(positions, dtype=np.int64),
        visible=np.asarray(visible, dtype=bool),
    )


def reference_write(store: KvPageStore, page_ids, offset, new_keys, new_values, positions):
    pages = [store.page(pid) for pid in page_ids]
    if offset is None:
        offset = sum(page.num_valid for page in pages)
    if offset + len(positions) > len(pages) * PAGE:
        raise ResourceError("exceeds the capacity of the provided KV pages")
    for index in range(len(positions)):
        global_slot = offset + index
        pages[global_slot // PAGE].write_token(
            global_slot % PAGE,
            position=int(positions[index]),
            keys_per_layer=[k[index] for k in new_keys],
            values_per_layer=[v[index] for v in new_values],
        )


def reference_copy(dst, src, src_slots, dst_slots):
    for src_slot, dst_slot in zip(src_slots, dst_slots):
        for layer in range(CONFIG.n_layers):
            dst.keys[layer][dst_slot] = src.keys[layer][src_slot]
            dst.values[layer][dst_slot] = src.values[layer][src_slot]
        dst.positions[dst_slot] = src.positions[src_slot]
        dst.valid[dst_slot] = True
        dst.visible[dst_slot] = src.visible[src_slot]


# -- comparison helpers -----------------------------------------------------------


def assert_same_context(got: KvContext, want: KvContext) -> None:
    assert len(got.keys) == len(want.keys) == CONFIG.n_layers
    for name in ("keys", "values"):
        for a, b in zip(getattr(got, name), getattr(want, name)):
            assert a.dtype == b.dtype and a.shape == b.shape
            np.testing.assert_array_equal(a, b)
    for name in ("positions", "visible"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


def assert_same_forward(got: KvContext, want: KvContext, rng) -> None:
    embeds = rng.normal(size=(3, CONFIG.d_model)).astype(np.float32)
    positions = [1000, 1001, 1002]  # after every context token: all attended
    a = TRANSFORMER.forward_row(embeds, positions, got)
    b = TRANSFORMER.forward_row(embeds, positions, want)
    np.testing.assert_array_equal(a.hidden, b.hidden)
    for x, y in zip(a.new_keys + a.new_values, b.new_keys + b.new_values):
        np.testing.assert_array_equal(x, y)


def fresh_kv(rng, count):
    shape = (count, *TOKEN_SHAPE)
    keys = [rng.normal(size=shape).astype(np.float32) for _ in range(CONFIG.n_layers)]
    values = [rng.normal(size=shape).astype(np.float32) for _ in range(CONFIG.n_layers)]
    return keys, values


# -- property: kernels == loops over random op sequences --------------------------

slots = st.integers(min_value=0, max_value=PAGE - 1)
ops = st.one_of(
    st.tuples(st.just("alloc"), st.integers(1, 3)),
    # chunked-prefill style: auto-offset append of a slice
    st.tuples(st.just("append"), st.integers(1, 2 * PAGE)),
    st.tuples(st.just("write_at"), st.integers(0, 3 * PAGE), st.integers(1, PAGE + 3)),
    st.tuples(st.just("copy"), st.integers(0, 7), st.integers(0, 7), st.lists(slots, max_size=5, unique=True), st.lists(slots, max_size=5, unique=True)),
    st.tuples(st.just("mask"), st.integers(0, 7), st.lists(st.booleans(), min_size=PAGE, max_size=PAGE)),
    st.tuples(st.just("free"), st.integers(0, 7)),
)  # fmt: skip


def _outcome(write) -> str:
    try:
        write()
    except ResourceError:
        return "rejected"
    return "written"


class _Twin:
    """One sequence of pages on two stores: kernels on ``fast``, loops on ``slow``."""

    def __init__(self, seed: int) -> None:
        self.fast = KvPageStore(CONFIG, num_pages=12)
        self.slow = KvPageStore(CONFIG, num_pages=12)
        self.pages = []  # same ids on both: the allocator is deterministic
        self.rng = np.random.default_rng(seed)
        self.next_position = 0

    def pick(self, index):
        return self.pages[index % len(self.pages)]

    def apply(self, op) -> None:
        kind = op[0]
        if kind == "alloc":
            count = min(op[1], self.fast.num_free)
            ids = self.fast.allocate(count)
            assert ids == self.slow.allocate(count)
            self.pages += ids
        elif not self.pages:
            return
        elif kind in ("append", "write_at"):
            offset, count = (None, op[1]) if kind == "append" else (op[1], op[2])
            keys, values = fresh_kv(self.rng, count + 2)  # extra rows must be ignored
            positions = np.arange(self.next_position, self.next_position + count)
            self.next_position += count
            fast = _outcome(lambda: self.fast.scatter_one(self.pages, offset, keys, values, positions))
            slow = _outcome(
                lambda: reference_write(
                    self.slow,
                    self.pages,
                    offset,
                    [k[:count] for k in keys],
                    [v[:count] for v in values],
                    positions,
                )
            )
            assert fast == slow
        elif kind == "copy":
            src_id, dst_id = self.pick(op[1]), self.pick(op[2])
            count = min(len(op[3]), len(op[4]))
            src_slots, dst_slots = op[3][:count], op[4][:count]
            if src_id == dst_id or not all(self.slow.page(src_id).valid[src_slots]):
                # Same-page copies read before they write where the loop
                # interleaved; unwritten sources: test_gpu_substrate.
                return
            self.fast.page(dst_id).copy_token_from(self.fast.page(src_id), src_slots, dst_slots)
            reference_copy(self.slow.page(dst_id), self.slow.page(src_id), src_slots, dst_slots)
        elif kind == "mask":
            page_id = self.pick(op[1])
            self.fast.page(page_id).mask_tokens(op[2])
            self.slow.page(page_id).mask_tokens(op[2])
        elif kind == "free":
            page_id = self.pages.pop(op[1] % len(self.pages))
            self.fast.free([page_id])
            self.slow.free([page_id])

    def check(self) -> None:
        want = reference_gather(self.slow, self.pages)
        assert_same_context(self.fast.gather_one(self.pages), want)
        # The slab itself, read back through the page views by the old loop.
        assert_same_context(reference_gather(self.fast, self.pages), want)
        assert_same_forward(self.fast.gather_one(self.pages), want, self.rng)


@given(st.integers(0, 2**16), st.lists(ops, min_size=1, max_size=14))
@settings(max_examples=120, deadline=None)
def test_gather_scatter_match_the_per_slot_loops(seed, sequence):
    twin = _Twin(seed)
    twin.apply(("alloc", 2))
    for op in sequence:
        twin.apply(op)
        twin.check()


# -- directed cases ---------------------------------------------------------------


def filled_store(num_pages=6, tokens=2 * PAGE + 5, seed=0):
    store = KvPageStore(CONFIG, num_pages=num_pages)
    pages = store.allocate(3)
    keys, values = fresh_kv(np.random.default_rng(seed), tokens)
    store.scatter_one(pages, None, keys, values, np.arange(tokens))
    return store, pages, keys, values


def test_gather_compresses_partial_last_page_in_page_then_slot_order():
    store, pages, keys, _ = filled_store()
    context = store.gather_one(pages)
    assert context.length == 2 * PAGE + 5
    np.testing.assert_array_equal(context.positions, np.arange(2 * PAGE + 5))
    np.testing.assert_array_equal(context.keys[1], keys[1])
    # Page order is the caller's, not the allocator's.
    reordered = store.gather_one(pages[::-1])
    np.testing.assert_array_equal(
        reordered.positions,
        np.concatenate([np.arange(2 * PAGE, 2 * PAGE + 5), np.arange(PAGE, 2 * PAGE), np.arange(PAGE)]),
    )  # fmt: skip


def test_gather_result_owns_its_memory():
    store, pages, _, _ = filled_store()
    context = store.gather_one(pages)
    before = context.keys[0].copy()
    store.page(pages[0]).clear()
    np.testing.assert_array_equal(context.keys[0], before)


def test_gather_of_nothing_is_the_empty_context():
    store = KvPageStore(CONFIG, num_pages=4)
    pages = store.allocate(2)
    for context in (store.gather_one([]), store.gather_one(pages)):
        assert_same_context(context, KvContext.empty(CONFIG))


def test_kernels_reject_unallocated_pages_and_bad_offsets():
    store, pages, keys, values = filled_store()
    with pytest.raises(ResourceError):
        store.gather_one(pages + [5])
    with pytest.raises(ResourceError):
        store.scatter_one([5], 0, keys, values, [0])
    with pytest.raises(ResourceError):  # past the capacity of the pages given
        store.scatter_one(pages, 3 * PAGE - 1, keys, values, [0, 1])
    with pytest.raises(ResourceError):  # numpy would wrap a negative offset
        store.scatter_one(pages, -1, keys, values, [0])
    assert store.gather_one(pages).length == 2 * PAGE + 5  # nothing was written


def test_freed_page_comes_back_empty_and_neighbours_are_untouched():
    store, pages, _, _ = filled_store()
    kept = store.gather_one(pages[:1])
    store.free(pages[1:])
    again = store.allocate(2)
    assert sorted(again) == sorted(pages[1:])
    assert store.gather_one(again).length == 0
    for pid in again:
        page = store.page(pid)
        assert not page.keys.any() and not page.values.any() and page.visible.all()
    assert_same_context(store.gather_one(pages[:1]), kept)


def test_host_pool_snapshot_clear_restore_round_trip():
    store, pages, _, _ = filled_store()
    store.page(pages[2]).mask_tokens([False] + [True] * (PAGE - 1))
    pool = HostMemoryPool(CONFIG, GpuConfig(host_kv_pages=4))
    want = store.gather_one(pages)
    host_slots = [pool.store(store.page(pid)) for pid in pages]
    store.free(pages)  # swap-out: the device rows are cleared and reused
    other = store.allocate(1)
    store.scatter_one(other, 0, *fresh_kv(np.random.default_rng(9), 4), np.arange(4))
    restored = store.allocate(3)
    for slot, pid in zip(host_slots, restored):
        pool.load(slot, store.page(pid))
    assert pool.num_used == 0
    assert_same_context(store.gather_one(restored), want)
    assert store.gather_one(other).length == 4


def test_host_snapshot_is_detached_from_the_slab():
    store, pages, _, _ = filled_store()
    snapshot = store.page(pages[0]).snapshot()
    store.page(pages[0]).clear()
    assert snapshot.valid.all() and snapshot.keys.any()


def test_cross_device_copy_page_from_copies_one_slab_row():
    store, pages, _, _ = filled_store()
    store.page(pages[1]).mask_tokens([True, False] * (PAGE // 2))
    remote = DeviceMemory(CONFIG, GpuConfig(num_kv_pages=5)).kv_pages
    dst = remote.allocate(3)
    remote.page(dst[1]).copy_page_from(store.page(pages[1]))
    assert_same_context(remote.gather_one([dst[1]]), store.gather_one([pages[1]]))
    assert remote.gather_one([dst[0], dst[2]]).length == 0  # neighbouring rows untouched
    store.page(pages[1]).clear()  # the copy is independent of its source
    assert remote.gather_one([dst[1]]).length == PAGE
