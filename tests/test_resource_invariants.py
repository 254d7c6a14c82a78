"""Property-based invariants for the ResourceManager.

A seeded random interleaving of ~500 allocate / deallocate / export /
import / release / swap-out / swap-in / space-lifecycle operations, with
conservation checked after every step:

* no page leaks and no double frees — ``free + allocated == capacity`` on
  the device pool and ``free + used == capacity`` on the host pool;
* no refcount underflow — every mapped physical page has refcount >= 1;
* a full teardown returns every resource: both pools end empty.

Deliberately illegal operations (double free, foreign handles, imports of
unknown exports) are also thrown in and must raise ``ResourceError``
without perturbing any invariant.

The harness models the chaos plane's failure modes too: it runs *two*
device managers over one shared host pool (the per-node host tier), and
the op mix includes the crash-relaunch migration the failover sweep
performs (detach a fully swapped space from a dead device, adopt it on
the survivor with fresh embed slots) and the transient pin/unpin
sequence the transfer scheduler applies to staged pages when a
destination shard dies mid-stream.
"""

import random

import numpy as np
import pytest

from repro.core.handles import KvPage
from repro.core.resources import ResourceManager
from repro.errors import OutOfResourcesError, ResourceError
from repro.gpu.config import GpuConfig
from repro.gpu.host_pool import HostMemoryPool
from repro.gpu.memory import DeviceMemory
from repro.model.registry import ModelRegistry

KV_CAPACITY = 24
EMB_CAPACITY = 32
HOST_CAPACITY = 16
N_OPS = 500


def build_manager(host_pool=None):
    config = ModelRegistry(["llama-sim-1b"]).get("llama-sim-1b").config
    gpu = GpuConfig(
        num_kv_pages=KV_CAPACITY,
        num_embed_slots=EMB_CAPACITY,
        host_kv_pages=HOST_CAPACITY,
    )
    memory = DeviceMemory(config, gpu)
    host_pool = host_pool or HostMemoryPool(config, gpu)
    return ResourceManager(memory, model_name="llama-sim-1b", host_pool=host_pool)


class Harness:
    """Shadow state + weighted random operations over two ResourceManagers.

    Two "devices" share one host pool, exactly as a service's shards
    share the per-node host tier; ``home`` tracks which device each
    owner's space currently lives on so the crash-relaunch op can move
    fully swapped spaces between them.
    """

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.rm0 = build_manager()
        self.rm1 = build_manager(host_pool=self.rm0.host_pool)
        self.home = {}  # owner -> the ResourceManager holding its space
        self.kv = {}  # owner -> list of live KvPage handles
        self.emb = {}  # owner -> list of live Embed handles
        self.exports = []  # (name, rm) pairs currently live
        self.next_owner = 0
        self.next_export = 0

    @property
    def rm(self):
        """The primary device (kept for assertions in older tests)."""
        return self.rm0

    def _rm(self, owner):
        return self.home[owner]

    # -- operations --------------------------------------------------------

    def op_create_space(self):
        owner = f"inferlet-{self.next_owner}"
        self.next_owner += 1
        rm = self.rng.choice((self.rm0, self.rm1))
        rm.create_space(owner)
        self.home[owner] = rm
        self.kv[owner] = []
        self.emb[owner] = []

    def op_destroy_space(self):
        owner = self._pick_owner()
        if owner is None:
            return
        self._rm(owner).destroy_space(owner)
        del self.home[owner]
        del self.kv[owner]
        del self.emb[owner]

    def op_alloc_kv(self):
        owner = self._pick_owner()
        if owner is None:
            return
        count = self.rng.randint(1, 4)
        try:
            self.kv[owner].extend(self._rm(owner).alloc_kv_pages(owner, count))
        except OutOfResourcesError:
            pass  # legal refusal; invariants must still hold

    def op_dealloc_kv(self):
        owner = self._pick_owner()
        if owner is None or not self.kv[owner]:
            return
        count = self.rng.randint(1, len(self.kv[owner]))
        victims = [
            self.kv[owner].pop(self.rng.randrange(len(self.kv[owner])))
            for _ in range(count)
        ]
        self._rm(owner).dealloc_kv_pages(owner, victims)

    def op_alloc_emb(self):
        owner = self._pick_owner()
        if owner is None:
            return
        try:
            self.emb[owner].extend(
                self._rm(owner).alloc_embeds(owner, self.rng.randint(1, 3))
            )
        except OutOfResourcesError:
            pass

    def op_dealloc_emb(self):
        owner = self._pick_owner()
        if owner is None or not self.emb[owner]:
            return
        handle = self.emb[owner].pop(self.rng.randrange(len(self.emb[owner])))
        self._rm(owner).dealloc_embeds(owner, [handle])

    def op_export(self):
        owner = self._pick_owner()
        if owner is None or not self.kv[owner]:
            return
        rm = self._rm(owner)
        resident = [h for h in self.kv[owner] if h.vid in rm._spaces[owner].kv_map]
        if not resident:
            return
        count = self.rng.randint(1, min(3, len(resident)))
        name = f"export-{self.next_export}"
        self.next_export += 1
        rm.export_kv_pages(owner, self.rng.sample(resident, count), name)
        self.exports.append((name, rm))

    def op_import(self):
        owner = self._pick_owner()
        if owner is None:
            return
        rm = self._rm(owner)
        local = [name for name, export_rm in self.exports if export_rm is rm]
        if not local:
            return
        name = self.rng.choice(local)
        self.kv[owner].extend(rm.import_kv_pages(owner, name))

    def op_release_export(self):
        if not self.exports:
            return
        name, rm = self.exports.pop(self.rng.randrange(len(self.exports)))
        rm.release_export(name)

    def op_swap_out(self):
        owner = self._pick_owner()
        if owner is None:
            return
        self._rm(owner).swap_out_kv(owner)

    def op_swap_in(self):
        owner = self._pick_owner()
        if owner is None:
            return
        rm = self._rm(owner)
        if rm.kv_pages_swapped_by(owner) <= rm.kv_pages_free:
            rm.swap_in_kv(owner)

    def op_pin_unpin(self):
        """The transfer scheduler's staged-page sequence under shard death:
        pin a resident page (staging), then unpin it (stream re-plan)."""
        owner = self._pick_owner()
        if owner is None:
            return
        rm = self._rm(owner)
        resident = sorted(rm._spaces[owner].kv_map.values())
        if not resident:
            return
        pid = self.rng.choice(resident)
        before = rm.kv_refcount(pid)
        rm.pin_kv(pid)
        assert rm.kv_refcount(pid) == before + 1
        rm.unpin_kv(pid)
        assert rm.kv_refcount(pid) == before

    def op_crash_relaunch(self):
        """The failover sweep's rescue: a fully swapped space moves from its
        (dead) device to the other one, swapped host slots moving as-is and
        embed slots re-provisioned fresh."""
        owner = self._pick_owner()
        if owner is None:
            return
        src = self._rm(owner)
        dst = self.rm1 if src is self.rm0 else self.rm0
        src.swap_out_kv(owner)  # stage whatever is exclusively owned
        if src.kv_mapping(owner):
            return  # shared/unswappable pages keep it device-resident
        emb_vids = sorted(src.emb_mapping(owner))
        if dst.memory.embeds.num_free < len(emb_vids):
            return
        emb_map = dict(zip(emb_vids, dst.memory.embeds.allocate(len(emb_vids))))
        src.move_space(owner, dst, {}, emb_map)
        self.home[owner] = dst

    def op_illegal(self):
        """Deliberate misuse must raise cleanly and change nothing."""
        owner = self._pick_owner()
        if owner is None:
            return
        rm = self._rm(owner)
        choice = self.rng.randrange(3)
        if choice == 0 and self.kv[owner]:
            handle = self.rng.choice(self.kv[owner])
            resident = handle.vid in rm._spaces[owner].kv_map
            if resident:
                rm.dealloc_kv_pages(owner, [handle])
                self.kv[owner].remove(handle)
                with pytest.raises(ResourceError):
                    rm.dealloc_kv_pages(owner, [handle])  # double free
        elif choice == 1:
            with pytest.raises(ResourceError):
                rm.import_kv_pages(owner, "no-such-export")
        elif choice == 2 and self.kv[owner]:
            foreign = KvPage(
                vid=self.kv[owner][0].vid,
                owner="someone-else",
                page_size=rm.page_size,
                model=rm.model_name,
            )
            with pytest.raises(ResourceError):
                rm.resolve_kv(owner, foreign)

    # -- helpers -----------------------------------------------------------

    def _pick_owner(self):
        owners = sorted(self.kv)
        return self.rng.choice(owners) if owners else None

    # -- invariants --------------------------------------------------------

    def check_invariants(self):
        for rm in (self.rm0, self.rm1):
            kv_pool = rm.memory.kv_pages
            emb_pool = rm.memory.embeds
            # Conservation on every device pool.
            assert kv_pool.num_free + kv_pool.num_allocated == KV_CAPACITY
            assert emb_pool.num_free + emb_pool.num_allocated == EMB_CAPACITY
            # Device-resident + host-resident pages of every space are
            # disjoint and every mapped physical page carries >= 1 ref.
            for owner, space in rm._spaces.items():
                assert not (set(space.kv_map) & set(space.swapped_kv)), owner
                for pid in space.kv_map.values():
                    assert rm.kv_refcount(pid) >= 1
                # Suspended is a fact about the space: it holds host pages.
                assert rm.is_swapped(owner) == bool(space.swapped_kv)
            # Each owner lives on exactly the device holding its space.
            assert sorted(rm.owners()) == sorted(o for o, home in self.home.items() if home is rm)
            assert rm.num_resident == sum(not rm.is_swapped(o) for o in rm.owners())
        # Conservation on the shared host tier.
        host = self.rm0.host_pool
        assert host.num_free + host.num_used == HOST_CAPACITY
        # Exported pages stay referenced even without a live owner mapping.
        for name, rm in self.exports:
            for pid in rm.export_info(name).physical_ids:
                assert rm.kv_refcount(pid) >= 1

    def teardown(self):
        for name, rm in list(self.exports):
            rm.release_export(name)
        for owner in list(self.kv):
            self._rm(owner).destroy_space(owner)


OPS = (
    ("create_space", 6),
    ("destroy_space", 2),
    ("alloc_kv", 14),
    ("dealloc_kv", 8),
    ("alloc_emb", 6),
    ("dealloc_emb", 4),
    ("export", 5),
    ("import", 5),
    ("release_export", 3),
    ("swap_out", 6),
    ("swap_in", 6),
    ("pin_unpin", 3),
    ("crash_relaunch", 4),
    ("illegal", 3),
)


@pytest.mark.parametrize("seed", [0, 1, 2026])
def test_randomised_interleaving_preserves_invariants(seed):
    harness = Harness(seed)
    harness.op_create_space()
    names = [name for name, weight in OPS for _ in range(weight)]
    for _ in range(N_OPS):
        getattr(harness, f"op_{harness.rng.choice(names)}")()
        harness.check_invariants()
    # Full teardown: every page, slot and host copy comes home exactly once.
    harness.teardown()
    for rm in (harness.rm0, harness.rm1):
        assert rm.memory.kv_pages.num_allocated == 0
        assert rm.memory.embeds.num_allocated == 0
        assert rm.memory.kv_pages.num_free == KV_CAPACITY
        assert rm.list_exports() == []
    assert harness.rm.host_pool.num_used == 0


def test_valid_counts_follow_every_writer_of_the_valid_bits():
    """``KvPageStore.valid_counts`` is what the prefix cache reads instead of
    ``page(pid).num_valid``: after every operation that writes ``valid`` —
    through the store's kernels, through a page view, or from another device
    — it must equal ``valid.sum(axis=1)`` on every allocated page."""
    src = build_manager()
    dst = build_manager(host_pool=src.host_pool)
    config = src.memory.model_config
    size = config.kv_page_size

    def check(*managers):
        for rm in managers or (src, dst):
            store = rm.memory.kv_pages
            ids = sorted(pid for space in rm._spaces.values() for pid in space.kv_map.values())
            assert store.valid_counts(ids) == [int(store.valid[pid].sum()) for pid in ids]
            assert store.valid_counts(ids) == [store.page(pid).num_valid for pid in ids]

    def kv(count):
        shape = (config.n_layers, count, config.n_kv_heads, config.d_head)
        return np.ones(shape, dtype=np.float32), np.ones(shape, dtype=np.float32)

    src.create_space("a")
    pages = src.alloc_kv_pages("a", 4)
    pids = src.resolve_kv_many("a", pages)
    store = src.memory.kv_pages
    assert store.valid_counts(pids) == [0, 0, 0, 0]
    store.scatter_one(pids, None, *kv(size + 3), list(range(size + 3)))  # append
    check()
    assert store.valid_counts(pids) == [size, 3, 0, 0]
    store.scatter_one(pids, 1, *kv(4), [1, 2, 3, 4])  # explicit offset over written slots
    check()
    assert store.valid_counts(pids) == [size, 3, 0, 0]
    store.scatter_one(pids[2:], 5, *kv(2), [40, 41])  # ... and leaving a hole
    check()
    store.page(pids[3]).copy_token_from(store.page(pids[0]), [0, 1], [2, 7])
    check()
    assert store.valid_counts(pids) == [size, 3, 2, 2]
    store.page(pids[1]).clear()
    check()
    assert store.valid_counts(pids) == [size, 0, 2, 2]
    src.dealloc_kv_pages("a", pages[2:3])  # free: the page is reset for its next owner
    [again] = src.alloc_kv_pages("a", 1)
    assert src.resolve_kv_many("a", [again]) == [pids[2]]
    check()
    assert store.valid_counts([pids[2]]) == [0]
    assert src.swap_out_kv("a") == 4  # host tier and back (host load)
    check()
    assert src.swap_in_kv("a") == 4
    check()
    live = [pages[0], pages[1], pages[3], again]
    assert sorted(store.valid_counts(src.resolve_kv_many("a", live))) == [0, 0, 2, size]
    # Handoff import: pages copied onto another device's slabs.
    dst.create_space("a")
    staged = dst.alloc_kv_pages("a", len(live))
    for src_pid, dst_pid in zip(src.resolve_kv_many("a", live), dst.resolve_kv_many("a", staged)):
        dst.memory.kv_pages.page(dst_pid).copy_page_from(store.page(src_pid))
    check()
    assert dst.memory.kv_pages.valid_counts(
        dst.resolve_kv_many("a", staged)
    ) == store.valid_counts(src.resolve_kv_many("a", live))
    with pytest.raises(ResourceError):
        store.valid_counts([KV_CAPACITY - 1])  # not allocated
