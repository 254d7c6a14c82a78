"""The prefix cache's chain cursors against the per-page scans they replaced.

``PrefixCacheService`` used to read every page of a context on every
``forward`` — once in ``begin_forward`` to rebuild the token chain, once in
the completion hook to re-check and re-register it.  It now remembers the
verified chain in a cursor and only looks at the pages the new tokens land
in.  The change is meant to be *decision-equivalent*, so this file keeps the
old scans (``ScanningService``: ``_existing_chain``, ``_fresh`` and
``_commit_chain`` as they were) and drives the real service next to them:

* a hypothesis state machine applies the same operation to two worlds —
  fill, decode, fork (onto fresh pages, or onto the shared partial page),
  pipelined forwards, chunked-prefill slices, mask / clear / copy mutations
  (taint, with copy-on-write of cache-shared pages), dealloc and page reuse,
  demotion to the host tier and fault-in, owner swap-out / swap-in — and
  after every step requires equal return values, equal ``_page_tokens``, an
  equal radix index (tokens, pid, host slot, ``seq``, ``last_used``) and
  equal counters, pools and page contents;
* scripted scenarios pin each of those cases, so coverage does not rest on
  what the search happens to reach;
* a cost test counts what one decode step executes inside the cache and the
  page store for a 4-page and a 64-page context and requires the same count.
"""

import dataclasses
import sys

import numpy as np
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core.metrics import SystemMetrics
from repro.core.mover import KvMover
from repro.core.prefix_cache import PrefixCacheService, PrefixNode, _ChainCursor
from repro.core.resources import ResourceManager
from repro.errors import ResourceError
from repro.gpu import DeviceMemory, GpuConfig, HostMemoryPool
from repro.gpu.kernels import KernelCostModel
from repro.gpu.memory import KvPageStore
from repro.model import get_model_config
from repro.sim import Simulator

PAGE = 4
CONFIG = dataclasses.replace(get_model_config("llama-sim-1b"), kv_page_size=PAGE)
OWNERS = ("a", "b")
METRICS = (
    "prefix_cache_hits",
    "prefix_cache_misses",
    "prefix_cache_saved_tokens",
    "prefix_cache_inserted_pages",
    "prefix_cache_evictions",
    "prefix_cache_demotions",
    "prefix_cache_faultins",
)


# -- the replaced scans -------------------------------------------------------------


class ScanningService(PrefixCacheService):
    """The service with its per-page scans as they were before the cursor."""

    def _existing_chain(self, ikv_pids):
        chain = self._scan_existing(ikv_pids)
        if chain is None:
            return None
        # Never remembered, so the completion hook falls to _commit_chain.
        return _ChainCursor([], chain, self._root, 0)

    def _scan_existing(self, ikv_pids):
        chain = []
        saw_partial = False
        for pid in ikv_pids:
            if pid in self._tainted:
                return None
            tokens = self._page_tokens.get(pid)
            count = len(tokens) if tokens else 0
            if count != self.memory.kv_pages.page(pid).num_valid:
                return None
            if count == 0:
                saw_partial = True  # only empties may follow
                continue
            if saw_partial:
                return None
            if count < self.page_size:
                saw_partial = True
            chain.extend(tokens)
        return chain

    def _fresh(self, pid, num_valid):
        return (
            self.resources.kv_refcount(pid) == 1
            and pid not in self._by_pid
            and not self._is_busy(pid)
            and pid not in self._tainted
            and self.memory.kv_pages.page(pid).num_valid == 0
        )

    def _commit_chain(self, pids, chain):
        size = self.page_size
        recorded = []
        saw_partial = False
        for pid in pids:
            tokens = self._page_tokens.get(pid) or []
            if not tokens:
                saw_partial = True
                continue
            if saw_partial:
                return
            if len(tokens) < size:
                saw_partial = True
            recorded.extend(tokens)
        if recorded != chain[: len(recorded)]:
            return
        for index, pid in enumerate(pids):
            chunk = chain[index * size : (index + 1) * size]
            if not chunk:
                break
            if pid in self._tainted:
                return
            if self.memory.kv_pages.page(pid).num_valid < len(chunk):
                return
            self._page_tokens[pid] = list(chunk)
        node = self._root
        for index in range(len(chain) // size):
            chunk = tuple(chain[index * size : (index + 1) * size])
            child = node.children.get(chunk[0])
            if child is not None and child.tokens == chunk:
                node = child
                continue
            if child is not None or index >= len(pids):
                break
            pid = pids[index]
            if pid in self._by_pid or self._page_tokens.get(pid) != list(chunk):
                break
            self._seq += 1
            child = PrefixNode(
                tokens=chunk,
                pid=pid,
                parent=node,
                last_used=self._tick(),
                seq=self._seq,
            )
            node.children[chunk[0]] = child
            self._by_pid[pid] = child
            self.resources.pin_kv(pid)
            self.metrics.prefix_cache_inserted_pages += 1
            node = child


class _Recording:
    """Keeps what ``_existing_chain`` answered, to compare the two worlds."""

    def _existing_chain(self, ikv_pids):
        cursor = super()._existing_chain(ikv_pids)
        self.answers.append(None if cursor is None else list(cursor.chain))
        return cursor


class RealService(_Recording, PrefixCacheService):
    pass


class ReferenceService(_Recording, ScanningService):
    pass


# -- one shard's worth of state, driven the way api.py and the handlers drive it ---------


class FakeDevice:
    def __init__(self):
        self.submitted = []

    def submit(self, kind, run, cost_seconds, size):
        self.submitted.append((kind, size))


class FakeFuture:
    def __init__(self, error=None):
        self._error = error

    def exception(self):
        return self._error


@dataclasses.dataclass
class Ctx:
    """What ``support.Context`` keeps: the pages, and where it writes next."""

    owner: str
    gen: object
    pages: list = dataclasses.field(default_factory=list)
    owned: list = dataclasses.field(default_factory=list)
    cursor: int = 0  # index of the first page still written to
    fill: int = 0  # tokens issued into that page
    issued: int = 0  # positions handed out


class World:
    def __init__(self, service, kv_pages=24, host_pages=3):
        gpu = GpuConfig(num_kv_pages=kv_pages, num_embed_slots=256, host_kv_pages=host_pages)
        self.memory = DeviceMemory(CONFIG, gpu)
        self.store = self.memory.kv_pages
        self.host = HostMemoryPool(CONFIG, gpu)
        self.resources = ResourceManager(self.memory, host_pool=self.host)
        self.metrics = SystemMetrics()
        self.device = FakeDevice()
        self.cache = service(
            resources=self.resources,
            memory=self.memory,
            mover=KvMover(Simulator(), self.host, KernelCostModel(CONFIG)),
            device=self.device,
            metrics=self.metrics,
        )
        self.cache.answers = []
        self.resources.set_kv_free_listener(self.cache.on_physical_freed)
        for owner in OWNERS:
            self.resources.create_space(owner)
        self.contexts = []
        self.pending = []
        self.swapped = set()

    # -- operations (each returns something the two worlds must agree on) --------

    def new_context(self, owner):
        [gen] = self.resources.alloc_embeds(owner, 1)
        self.contexts.append(Ctx(owner=owner, gen=gen))
        return len(self.contexts)

    def fork(self, index, onto_shared_tail):
        parent = self.contexts[index]
        [gen] = self.resources.alloc_embeds(parent.owner, 1)
        child = Ctx(owner=parent.owner, gen=gen, pages=list(parent.pages), issued=parent.issued)
        if onto_shared_tail:
            child.cursor, child.fill = parent.cursor, parent.fill
        else:
            child.cursor = len(parent.pages)
        self.contexts.append(child)
        return len(self.contexts)

    def _fault_in(self, owner):
        if owner not in self.swapped:
            return True
        if self.resources.kv_pages_free < self.resources.kv_pages_swapped_by(owner):
            return False
        self.resources.swap_in_kv(owner)
        self.swapped.discard(owner)
        return True

    def _mapped(self, ctx):
        try:
            self.resources.resolve_kv_many(ctx.owner, ctx.pages)
        except ResourceError:
            return False
        return True

    def forward(self, index, tokens, refresh=False):
        """``Context.fill`` / ``append_token`` (or ``refresh_hidden``) up to
        the point where the command is queued."""
        ctx = self.contexts[index]
        if not self._fault_in(ctx.owner):
            return "no room to fault in"
        if not self._mapped(ctx):
            return "a page was freed by the context it was forked from"
        if refresh:
            if not ctx.issued:
                return "nothing to refresh"
            tokens, positions, okv = tokens[:1], [ctx.issued - 1], []
        else:
            missing = len(tokens) - ((len(ctx.pages) - ctx.cursor) * PAGE - ctx.fill)
            if missing > 0:
                needed = -(-missing // PAGE)
                if self.resources.kv_pages_free < needed:
                    return "out of pages"
                fresh = self.resources.alloc_kv_pages(ctx.owner, needed)
                ctx.pages += fresh
                ctx.owned += fresh
            positions = list(range(ctx.issued, ctx.issued + len(tokens)))
            okv = ctx.pages[ctx.cursor :]
            ctx.issued += len(tokens)
            ctx.cursor, ctx.fill = divmod(ctx.cursor * PAGE + ctx.fill + len(tokens), PAGE)
        iemb = [ctx.gen]
        if len(tokens) > 1:
            iemb = self.resources.alloc_embeds(ctx.owner, len(tokens))
            self.cache.forget_embeds(self.resources.resolve_emb_many(ctx.owner, iemb))
        slots = self.resources.resolve_emb_many(ctx.owner, iemb)
        self.cache.record_embeds(slots, tokens, positions)
        kept, finish = self.cache.begin_forward(
            ctx.owner, list(ctx.pages), list(iemb), list(okv), [ctx.gen], None, None, None
        )
        ikv_pids = self.resources.resolve_kv_many(ctx.owner, ctx.pages)
        okv_pids = self.resources.resolve_kv_many(ctx.owner, okv)
        self.cache.forget_embeds(self.resources.resolve_emb_many(ctx.owner, [ctx.gen]))
        self.pending.append(
            {
                "okv": okv_pids,
                "positions": positions[len(positions) - len(kept) :] if okv else [],
                "finish": finish,
                "ticket": self.cache.note_busy(ikv_pids + okv_pids),
                "embeds": (ctx.owner, iemb if len(tokens) > 1 else []),
            }
        )
        return len(kept), finish is not None

    def execute(self, index, count):
        """The device runs a queued command: all of it, or (chunked prefill)
        its next ``count`` tokens."""
        entry = self.pending[index]
        if "mutation" in entry:
            del self.pending[index]
            return self._apply_mutation(*entry["mutation"])
        positions = entry["positions"]
        count = len(positions) if count is None else min(count, len(positions))
        error = None
        if count:
            shape = (CONFIG.n_layers, count, CONFIG.n_kv_heads, CONFIG.d_head)
            try:
                self.store.scatter_one(
                    entry["okv"], None, np.ones(shape), np.ones(shape), positions[:count]
                )
            except ResourceError as raised:  # a page was freed under the command
                error = raised
        entry["positions"] = positions[count:]
        if entry["positions"] and error is None:
            return "slice"
        del self.pending[index]
        self.cache.release_busy(entry["ticket"])
        owner, embeds = entry["embeds"]
        if embeds and self.resources.has_space(owner):
            self.resources.dealloc_embeds(owner, embeds)
        if entry["finish"] is not None:
            entry["finish"](FakeFuture(error))
        return "failed" if error else "done"

    def mutate(self, index, page, kind):
        """``prepare_kv_mutation`` now, the mutation itself queued."""
        ctx = self.contexts[index]
        if not ctx.pages or not self._fault_in(ctx.owner) or not self._mapped(ctx):
            return "skipped"
        handle = ctx.pages[page % len(ctx.pages)]
        [pid] = self.resources.resolve_kv_many(ctx.owner, [handle])
        if self.resources.kv_refcount(pid) > 1 and self.cache.is_cache_shared(pid):
            if not self.resources.kv_pages_free:
                return "skipped"
            pid = self.resources.materialize_private_kv(ctx.owner, handle)
        self.cache.invalidate_pid(pid)
        self.pending.append({"mutation": (kind, pid)})
        return pid

    def _apply_mutation(self, kind, pid):
        try:
            page = self.store.page(pid)
            if kind == "clear":
                page.clear()
            elif kind == "mask":
                page.mask_tokens([False] + [True] * (PAGE - 1))
            else:
                page.copy_token_from(page, 0, PAGE - 1)
        except ResourceError:
            return "mutation failed"
        return "mutated"

    def free(self, index):
        ctx = self.contexts[index]
        if not self._fault_in(ctx.owner):
            return "no room to fault in"
        del self.contexts[index]
        self.resources.dealloc_kv_pages(ctx.owner, ctx.owned)
        self.resources.dealloc_embeds(ctx.owner, [ctx.gen])
        return len(ctx.owned)

    def reclaim(self):
        return self.cache.reclaim_one()

    def swap_out(self, owner):
        moved = self.resources.swap_out_kv(owner)
        if moved:
            self.swapped.add(owner)
        return moved

    # -- what must be equal -------------------------------------------------------

    def snapshot(self):
        cache = self.cache

        def dump(node):
            children = sorted((key, dump(child)) for key, child in node.children.items())
            return (node.tokens, node.pid, node.host_slot, node.seq, node.last_used, children)

        return {
            "answers": cache.answers,
            "page_tokens": cache._page_tokens,
            "tree": dump(cache._root),
            "by_pid": {pid: node.tokens for pid, node in cache._by_pid.items()},
            "tainted": cache._tainted,
            "cache_shared": cache._cache_shared,
            "clock": (cache._clock, cache._seq),
            "metrics": [getattr(self.metrics, name) for name in METRICS],
            "pools": (self.store.num_free, self.host.num_free, self.memory.embeds.num_free),
            "refcounts": self.resources._kv_refs._counts,
            "valid": self.store.valid.tobytes(),
            "visible": self.store.visible.tobytes(),
            "positions": self.store.positions.tobytes(),
            "device": self.device.submitted,
        }

    def check_cursors(self):
        """What a remembered cursor promises (see ``_ChainCursor``)."""
        cache = self.cache
        for tail, cursor in cache._cursors.items():
            assert cursor.pids[-1] == tail
            assert cache._tainted.isdisjoint(cursor.pids)
            pages = [cursor.chain[at : at + PAGE] for at in range(0, len(cursor.chain), PAGE)]
            assert [cache._page_tokens.get(pid) for pid in cursor.pids] == pages
            assert all(cursor in cache._cursors_by_pid[pid] for pid in cursor.pids)
        for pid, holders in cache._cursors_by_pid.items():
            assert holders
            for cursor in holders:
                assert pid in cursor.pids and cache._remembered(cursor)


class Pair:
    """The real service and the scanning one, fed the same operations."""

    def __init__(self, **sizes):
        self.real = World(RealService, **sizes)
        self.reference = World(ReferenceService, **sizes)

    def __getattr__(self, operation):
        def both(*args, **kwargs):
            got = getattr(self.real, operation)(*args, **kwargs)
            expected = getattr(self.reference, operation)(*args, **kwargs)
            assert got == expected, (operation, args, got, expected)
            self.compare()
            return got

        return both

    def compare(self):
        got, expected = self.real.snapshot(), self.reference.snapshot()
        for key in expected:
            assert got[key] == expected[key], key
        self.real.check_cursors()
        assert not self.reference.cache._cursors

    def drain(self):
        while self.real.pending:
            self.execute(0, None)


# -- scripted scenarios ------------------------------------------------------------------


def run(pair, index, tokens, **kwargs):
    """Issue one forward and let it complete."""
    issued = pair.forward(index, tokens, **kwargs)
    pair.execute(len(pair.real.pending) - 1, None)
    return issued


def test_decode_rides_the_cursor_across_page_boundaries():
    pair = Pair()
    pair.new_context("a")
    assert run(pair, 0, [1, 2, 3, 4, 5, 6]) == (6, True)
    cache = pair.real.cache
    for token in range(7, 7 + 3 * PAGE):
        before = dict(cache._cursors)
        assert run(pair, 0, [token]) == (1, True)
        [cursor] = cache._cursors.values()
        assert cursor in before.values()  # extended in place, never rebuilt
        assert len(cursor.chain) == token
        assert cursor.depth == token // PAGE
    assert pair.real.metrics.prefix_cache_inserted_pages == 4


def test_second_prompt_adopts_the_first_and_then_decodes():
    pair = Pair()
    prompt = list(range(10, 10 + 3 * PAGE))
    pair.new_context("a")
    run(pair, 0, prompt + [1, 2])
    pair.new_context("b")
    assert run(pair, 1, prompt + [3]) == (1, True)  # three pages adopted
    assert pair.real.metrics.prefix_cache_hits == 1
    for token in (4, 5, 6, 7):
        assert run(pair, 1, [token]) == (1, True)
        assert run(pair, 0, [token]) == (1, True)


def test_forks_onto_fresh_pages_and_onto_the_shared_partial_page():
    pair = Pair()
    pair.new_context("a")
    run(pair, 0, list(range(2 * PAGE)))  # the root's last page is full
    for _ in range(3):
        pair.fork(0, False)
    for branch in (1, 2, 3):
        assert pair.forward(branch, [9], refresh=True) == (1, False)
    pair.drain()
    for step in range(PAGE + 1):
        for branch in (1, 2, 3):
            assert run(pair, branch, [20 * branch + step]) == (1, True)
    assert run(pair, 0, [7]) == (1, True)
    # A partial last page: a fork that writes on fresh pages leaves the
    # conventional layout after its first token ...
    pair.fork(0, False)
    assert run(pair, 4, [1]) == (1, True)
    assert run(pair, 4, [2]) == (1, False)
    # ... and two that write into the shared page itself see each other.
    pair.fork(0, True)
    pair.fork(0, True)
    assert pair.forward(5, [5]) == (1, True)
    assert pair.forward(6, [6]) == (1, True)
    pair.drain()
    assert run(pair, 5, [5]) == (1, False)
    assert run(pair, 0, [3]) == (1, False)


def test_pipelined_forwards_and_prefill_slices():
    pair = Pair()
    pair.new_context("a")
    assert pair.forward(0, [1, 2, 3, 4, 5]) == (5, True)
    assert pair.forward(0, [6]) == (1, False)  # the first has not landed
    assert pair.forward(0, [7]) == (1, False)
    pair.drain()
    assert pair.forward(0, [8] * 7) == (7, False)  # untracked tokens on the pages
    pair.new_context("b")
    pair.forward(1, list(range(30, 30 + 2 * PAGE + 1)))
    assert pair.execute(0, None) == "done"
    assert pair.execute(0, 3) == "slice"
    pair.new_context("b")
    assert pair.forward(2, list(range(30, 30 + 2 * PAGE + 1))) == (2 * PAGE + 1, True)
    assert pair.execute(0, 3) == "slice"
    assert pair.forward(1, [1]) == (1, False)  # mid-prefill: counts disagree
    pair.drain()
    assert run(pair, 1, [1]) == (1, False)  # that token landed untracked
    assert run(pair, 2, [1]) == (1, True)


def test_mutations_taint_and_drop_the_cursor():
    for kind in ("clear", "mask", "copy"):
        pair = Pair()
        pair.new_context("a")
        run(pair, 0, list(range(2 * PAGE + 2)))
        run(pair, 0, [50])
        assert pair.real.cache._cursors
        pair.mutate(0, 2, kind)  # the private last page: mutated in place
        assert not pair.real.cache._cursors
        assert run(pair, 0, [51]) == (1, False)
        # Tainted between issue and completion: the hook must refuse too.
        pair.new_context("a")
        run(pair, 1, [1, 2])
        assert pair.forward(1, [3]) == (1, True)
        pair.mutate(1, 0, kind)
        pair.drain()
        assert run(pair, 1, [4]) == (1, False)
        # A cache-shared page is copied before it is mutated.
        pair.new_context("b")
        pair.new_context("b")
        run(pair, 2, list(range(60, 60 + PAGE + 1)))
        run(pair, 3, list(range(60, 60 + PAGE + 1)))
        assert pair.real.metrics.prefix_cache_hits == 1
        pair.mutate(3, 0, kind)
        pair.drain()
        assert run(pair, 3, [5]) == (1, False)
        assert run(pair, 2, [5]) == (1, True)


def test_dealloc_and_page_reuse():
    pair = Pair()
    pair.new_context("a")
    run(pair, 0, [1, 2, 3, 4, 5])
    run(pair, 0, [6])
    pair.reclaim()  # only the context holds the full page now
    pair.free(0)
    assert not pair.real.cache._cursors
    pair.new_context("a")
    assert run(pair, 0, [9, 8, 7, 6, 5]) == (5, True)  # the same physical pages
    assert run(pair, 0, [4]) == (1, True)
    # Freed under a queued command: it fails, its hook does nothing.
    pair.forward(0, [3])
    pair.free(0)
    assert pair.execute(0, None) == "failed"
    pair.new_context("b")
    assert run(pair, 0, [1, 2]) == (2, True)
    assert run(pair, 0, [3]) == (1, True)


def test_demotion_fault_in_and_swap():
    pair = Pair()
    prompt = list(range(40, 40 + 2 * PAGE))
    pair.new_context("a")
    run(pair, 0, prompt + [1])
    run(pair, 0, [2])
    pair.free(0)
    assert pair.reclaim() == 1 and pair.reclaim() == 1
    assert pair.real.metrics.prefix_cache_demotions == 2
    pair.new_context("b")
    assert run(pair, 0, prompt + [3]) == (1, True)
    assert pair.real.metrics.prefix_cache_faultins == 2
    assert run(pair, 0, [4]) == (1, True)
    # Swapping the owner out frees its private pages (cursor dropped);
    # after the swap-in the pages are new ones and carry no tokens.
    pair.new_context("a")
    run(pair, 1, [1, 2, 3])
    assert pair.swap_out("a") == 1
    assert run(pair, 1, [4]) == (1, False)


# -- the state machine -----------------------------------------------------------------------

#: Prompts that share page-aligned prefixes (adoption, fault-in, radix
#: collisions on the first token), next to short random runs.
SHARED = [0, 1, 2, 0, 1, 1, 2, 2, 0, 0, 1, 2, 2, 1]
TOKENS = st.one_of(
    st.lists(st.integers(0, 2), min_size=1, max_size=2 * PAGE + 2),
    st.integers(PAGE + 1, len(SHARED)).map(lambda length: SHARED[:length]),
    st.integers(1, 2 * PAGE).map(lambda length: [0] + SHARED[1 : PAGE + length]),
)
PICK = st.integers(0, 1 << 16)


class CursorAgainstScans(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.pair = Pair()

    def has_context(self):
        return bool(self.pair.real.contexts)

    def has_pending(self):
        return bool(self.pair.real.pending)

    def context(self, pick):
        return pick % len(self.pair.real.contexts)

    @precondition(lambda self: len(self.pair.real.contexts) < 6)
    @rule(owner=st.sampled_from(OWNERS))
    def new_context(self, owner):
        self.pair.new_context(owner)

    @precondition(has_context)
    @rule(pick=PICK, tokens=TOKENS)
    def forward(self, pick, tokens):
        self.pair.forward(self.context(pick), tokens)

    @precondition(has_context)
    @rule(pick=PICK, token=st.integers(0, 2))
    def decode_to_completion(self, pick, token):
        self.pair.drain()
        self.pair.forward(self.context(pick), [token])
        self.pair.drain()

    @precondition(has_context)
    @rule(pick=PICK, token=st.integers(0, 2))
    def refresh(self, pick, token):
        self.pair.forward(self.context(pick), [token], refresh=True)

    @precondition(has_pending)
    @rule(pick=PICK, count=st.one_of(st.none(), st.integers(1, PAGE)))
    def execute(self, pick, count):
        self.pair.execute(pick % len(self.pair.real.pending), count)

    @precondition(lambda self: 0 < len(self.pair.real.contexts) < 6)
    @rule(pick=PICK, onto_shared_tail=st.booleans())
    def fork(self, pick, onto_shared_tail):
        self.pair.fork(self.context(pick), onto_shared_tail)

    @precondition(has_context)
    @rule(pick=PICK, page=PICK, kind=st.sampled_from(("clear", "mask", "copy")))
    def mutate(self, pick, page, kind):
        self.pair.mutate(self.context(pick), page, kind)

    @precondition(has_context)
    @rule(pick=PICK)
    def free(self, pick):
        self.pair.free(self.context(pick))

    @rule()
    def reclaim(self):
        self.pair.reclaim()

    @rule(owner=st.sampled_from(OWNERS))
    def swap_out(self, owner):
        self.pair.swap_out(owner)

    @invariant()
    def pools_add_up(self):
        store = self.pair.real.store
        assert store.num_free + store.num_allocated == store.capacity


CursorAgainstScans.TestCase.settings = settings(
    max_examples=300, stateful_step_count=60, deadline=None, derandomize=True
)
TestCursorAgainstScans = CursorAgainstScans.TestCase


# -- cost ------------------------------------------------------------------------------------


def _decode_cost(context_pages):
    """(``KvPageStore.page`` calls, lines executed inside the prefix cache and
    the page store) of each of ``PAGE + 1`` one-token forwards — issue and
    completion hook — over a context of ``context_pages`` pages, one of which
    fills and is registered (so does the one after it)."""
    world = World(RealService, kv_pages=context_pages + 8)
    world.new_context("a")
    world.forward(0, list(range(1000, 1000 + context_pages * PAGE - 2)))
    world.execute(0, None)
    world.forward(0, [1])  # the first decode leaves the cursor where the loop finds it
    world.execute(0, None)

    page_calls = []
    original = KvPageStore.page

    def counted_page(store, page_id):
        page_calls.append(page_id)
        return original(store, page_id)

    watched = ("prefix_cache.py", "memory.py")
    lines = 0

    def tracer(frame, event, arg):
        nonlocal lines
        if not frame.f_code.co_filename.endswith(watched):
            return None
        if event == "line":
            lines += 1
        return tracer

    costs = []
    KvPageStore.page = counted_page
    try:
        for token in range(PAGE + 1):
            lines = 0
            del page_calls[:]
            sys.settrace(tracer)
            try:
                issued = world.forward(0, [token])
                world.execute(0, None)
            finally:
                sys.settrace(None)
            assert issued == (1, True)
            costs.append((len(page_calls), lines))
    finally:
        KvPageStore.page = original
    assert world.metrics.prefix_cache_inserted_pages == context_pages + 1
    return costs


def test_a_decode_step_costs_the_same_at_page_4_and_page_64():
    short, long = _decode_cost(4), _decode_cost(64)
    assert short == long
    assert all(page_calls == 0 for page_calls, _ in long)
    # The scans it replaced do grow: the reference reads every page, twice.
    reference = World(ReferenceService, kv_pages=72)
    reference.new_context("a")
    reference.forward(0, list(range(64 * PAGE - 2)))
    reference.execute(0, None)
    calls = []
    original = KvPageStore.page
    KvPageStore.page = lambda store, pid: calls.append(pid) or original(store, pid)
    try:
        reference.forward(0, [1])
        reference.execute(0, None)
    finally:
        KvPageStore.page = original
    assert len(calls) >= 2 * 64
