"""System-wide automatic prefix caching: token-addressed KV reuse.

Pie's export/import API gives *applications* control over prefix sharing,
but the headline optimisation of monolithic engines — automatic reuse of
KV state for common prompt prefixes (vLLM's hash-chained blocks, SGLang's
RadixAttention; both reproduced in :mod:`repro.baselines`) — has no Pie
counterpart in the paper.  The :class:`PrefixCacheService` closes that gap
inside the control layer, per device shard:

* a **token-addressed radix index** (a generalisation of
  :class:`repro.baselines.radix_tree.RadixTree`) maps page-aligned token
  chains to *committed* physical KV pages;
* when a tracked ``forward`` fills a page completely, the page is
  registered under its token chain and **pinned** through the shard's
  :class:`~repro.core.resources.ResourceManager` refcounts, so it survives
  its producer's exit and can never be double-freed;
* a later ``forward`` whose prompt shares a cached page-aligned prefix is
  transparently rewritten: the caller's freshly allocated pages are
  *rebound* to the cached physical pages and the matching input embeddings
  are dropped from the command, skipping their prefill compute entirely;
* on a cluster, a prefix the local index lacks but a peer shard's cache
  holds device-resident is copied into the caller's fresh pages over the
  pair's link and indexed here, instead of being prefilled again;
* under memory pressure the :class:`~repro.core.swap.SwapManager` asks the
  cache to **demote** its coldest leaf to the host tier (or evict it),
  before any live inferlet is terminated; a demoted entry faults back in
  on its next hit, paying the PCIe cost (both through the cluster's
  :class:`~repro.core.mover.KvMover`).

Everything here is inert unless ``ControlLayerConfig.prefix_cache`` is
True: with the knob off the service is never constructed and the serving
path is bit-identical to the pre-cache system.

Safety rules (mirroring the swap manager's):

* a caller page is only rebound to a cached page when it is *fresh* —
  refcount 1, no token written, not referenced by any issued-but-unretired
  command — so no in-flight command can observe the old physical id;
* cached pages are shared read-only, exactly like export/import aliases:
  ``mask_kvpage`` / ``clear_kvpage`` / ``copy_kvpage`` against a tracked
  page invalidate its whole subtree;
* registration happens only when the producing ``forward`` has *executed*
  (its future resolved without error), so a hit never aliases a page whose
  contents are still pending.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import takewhile
from typing import TYPE_CHECKING, Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.errors import ResourceError
from repro.core.metrics import SystemMetrics
from repro.core.mover import KvMover
from repro.gpu.memory import DeviceMemory

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.handles import Embed, KvPage
    from repro.core.resources import ResourceManager
    from repro.core.router import DeviceShard
    from repro.gpu.device import SimDevice
    from repro.sim.futures import SimFuture


@dataclass
class PrefixNode:
    """One page worth of tokens in the radix index.

    A node is *device-resident* (``pid`` set, the physical page pinned via
    the resource manager) or *demoted* (``host_slot`` set, contents parked
    in the host pool); never both.
    """

    tokens: Tuple[int, ...] = ()
    pid: Optional[int] = None
    host_slot: Optional[int] = None
    parent: Optional["PrefixNode"] = None
    children: Dict[int, "PrefixNode"] = field(default_factory=dict)
    last_used: float = 0.0
    seq: int = 0


@dataclass(eq=False)
class _ChainCursor:
    """What the last forward over a run of pages verified, so that the next
    one does not re-read every page.

    ``pids`` are the written pages of one context, in order; ``chain`` is
    their tracked tokens, concatenated; ``node`` is the deepest radix node
    the chain's registration walk has reached, ``depth`` pages down.  While a
    cursor is remembered, ``_page_tokens`` holds ``chain`` cut into pages for
    exactly these pids and none of them is tainted: whatever breaks that
    forgets the cursor (see :meth:`PrefixCacheService._forget_cursors`).
    """

    pids: List[int]
    chain: List[int]
    node: PrefixNode
    depth: int


class PrefixCacheService:
    """Per-shard automatic prefix cache over committed KV pages."""

    def __init__(
        self,
        resources: "ResourceManager",
        memory: DeviceMemory,
        mover: KvMover,
        device: "SimDevice",
        metrics: SystemMetrics,
    ) -> None:
        self.resources = resources
        self.memory = memory
        self.mover = mover
        self.device = device
        self.metrics = metrics
        self.page_size = memory.model_config.kv_page_size
        # This cache's shard and the cluster's shards (this one among them),
        # handed over by set_peers: a miss looks up the caches of the
        # others before the forward re-prefills.  None / () = no peers.
        self.shard: Optional["DeviceShard"] = None
        self.peers: Sequence["DeviceShard"] = ()
        self._root = PrefixNode()
        self._by_pid: Dict[int, PrefixNode] = {}
        # tokens currently held by a physical page, in slot order (tracked
        # producer pages and cache-resident pages alike).
        self._page_tokens: Dict[int, List[int]] = {}
        # token identity of written embedding slots: slot -> (token, position)
        self._emb_tokens: Dict[int, Tuple[int, int]] = {}
        # physical KV pages referenced by issued-but-unretired commands: one
        # page set per command, keyed by the ticket note_busy hands out.
        self._busy: Dict[int, FrozenSet[int]] = {}
        self._busy_tickets = 0
        # chain cursors by the last page of their run, and by every page.
        self._cursors: Dict[int, _ChainCursor] = {}
        self._cursors_by_pid: Dict[int, Set[_ChainCursor]] = {}
        # pages mutated by mask/clear/copy since allocation: never (re)
        # registered, since their contents no longer follow token
        # addressing.  Cleared when the physical page returns to the pool.
        self._tainted: set = set()
        # pages the cache aliased into some address space via rebind: these
        # (unlike export/import shares the application opted into) must be
        # unshared copy-on-write before a mutation.  Persists past node
        # eviction — importers may still share the page — and clears when
        # the physical page returns to the pool.
        self._cache_shared: set = set()
        self._clock = 0.0
        self._seq = 0

    def set_peers(self, shard: "DeviceShard", peers: Sequence["DeviceShard"]) -> None:
        """Join the cluster: ``shard`` is this cache's own, ``peers`` every
        shard of the cluster (``shard`` among them)."""
        self.shard, self.peers = shard, peers

    # -- basic state -------------------------------------------------------

    def cached_pages(self) -> int:
        """Device-resident pages currently owned by the index."""
        return len(self._by_pid)

    def _tick(self) -> float:
        self._clock += 1.0
        return self._clock

    def _touch(self, node: PrefixNode) -> None:
        node.last_used = self._tick()

    # -- embedding-token tracking (driven by the API bindings) -------------

    def record_embeds(
        self, slot_ids: Sequence[int], tokens: Sequence[int], positions: Sequence[int]
    ) -> None:
        """``embed_txt`` wrote these tokens into these slots."""
        for slot, token, position in zip(slot_ids, tokens, positions):
            self._emb_tokens[slot] = (int(token), int(position))

    def forget_embeds(self, slot_ids: Sequence[int]) -> None:
        """Slots were reallocated or overwritten with non-token content."""
        for slot in slot_ids:
            self._emb_tokens.pop(slot, None)

    # -- busy-page tracking (driven by the controller's command path) ------

    def note_busy(self, pids: Sequence[int]) -> int:
        """A command referencing these pages was issued; returns the ticket
        :meth:`release_busy` takes when the command retires."""
        self._busy_tickets += 1
        self._busy[self._busy_tickets] = frozenset(pids)
        return self._busy_tickets

    def release_busy(self, ticket: int) -> None:
        del self._busy[ticket]

    def _is_busy(self, pid: int) -> bool:
        return any(pid in pages for pages in self._busy.values())

    # -- invalidation ------------------------------------------------------

    def invalidate_pid(self, pid: int) -> None:
        """A page is about to be mutated: drop its subtree and taint it.

        The taint matters because a mutation is usually *issued* before the
        page's producing forward has completed: ``Context.fill`` awaits no
        barrier, and queue order alone keeps a later ``mask_kvpage`` behind
        the forward.  The completion hook must then refuse to register the
        page.
        """
        self._page_tokens.pop(pid, None)
        self._forget_cursors(pid)
        self._tainted.add(pid)
        node = self._by_pid.get(pid)
        if node is not None:
            self._drop_subtree(node)

    def on_physical_freed(self, pid: int) -> None:
        """Resource-manager callback: a physical page returned to the pool."""
        self._page_tokens.pop(pid, None)
        self._forget_cursors(pid)
        self._tainted.discard(pid)
        self._cache_shared.discard(pid)

    def is_cache_shared(self, pid: int) -> bool:
        """Is this page aliased by (or pinned in) the cache — as opposed to
        shared only through application-controlled export/import?"""
        return pid in self._by_pid or pid in self._cache_shared

    def _drop_subtree(self, node: PrefixNode) -> None:
        for child in list(node.children.values()):
            self._drop_subtree(child)
        self._detach(node)
        self.metrics.prefix_cache_evictions += 1

    def _detach(self, node: PrefixNode) -> None:
        """Release a (now childless) node's page and unlink it from the tree."""
        if node.pid is not None:
            self._by_pid.pop(node.pid, None)
            self.resources.unpin_kv(node.pid)
            node.pid = None
        if node.host_slot is not None:
            self.mover.host_pool.discard([node.host_slot])
            node.host_slot = None
        if node.parent is not None and node.tokens:
            current = node.parent.children.get(node.tokens[0])
            if current is node:
                del node.parent.children[node.tokens[0]]
        node.parent = None

    # -- lookup ------------------------------------------------------------

    def _match_path(self, tokens: Sequence[int]) -> List[PrefixNode]:
        """Radix walk: nodes covering the longest cached page-aligned prefix."""
        node = self._root
        path: List[PrefixNode] = []
        size = self.page_size
        for index in range(len(tokens) // size):
            chunk = tuple(tokens[index * size : (index + 1) * size])
            child = node.children.get(chunk[0])
            if child is None or child.tokens != chunk:
                break
            path.append(child)
            node = child
        return path

    def match_len(self, tokens: Sequence[int]) -> int:
        """Cached page-aligned prefix length, in tokens (read-only probe)."""
        return len(self._match_path(tokens)) * self.page_size

    # -- the forward interception path -------------------------------------

    def begin_forward(
        self,
        owner: str,
        ikv: List["KvPage"],
        iemb: List["Embed"],
        okv: List["KvPage"],
        oemb: List["Embed"],
        mask: object,
        adapter: Optional[str],
        okv_offset: Optional[int],
    ) -> Tuple[List["Embed"], Optional[Callable[["SimFuture"], None]]]:
        """Rewrite a ``forward`` against the cache.

        Returns the (possibly trimmed) input-embedding list plus a
        completion hook that registers newly committed full pages; either
        may be the originals / None when the call is not cacheable (masked
        attention, adapters, explicit write offsets, unknown token
        identities, non-contiguous layouts).
        """
        if mask is not None or adapter is not None or okv_offset is not None:
            return iemb, None
        if not iemb:
            return iemb, None
        try:
            ikv_pids = self.resources.resolve_kv_many(owner, ikv)
            iemb_ids = self.resources.resolve_emb_many(owner, iemb)
        except ResourceError:
            return iemb, None

        new_tokens: List[int] = []
        for slot in iemb_ids:
            record = self._emb_tokens.get(slot)
            if record is None:
                return iemb, None
            new_tokens.append(record[0])

        cursor = self._existing_chain(ikv_pids)
        if cursor is None:
            return iemb, None
        existing = cursor.chain
        # The new tokens must extend the chain contiguously.
        for index, slot in enumerate(iemb_ids):
            if self._emb_tokens[slot][1] != len(existing) + index:
                return iemb, None

        chain = existing + new_tokens
        finish = self._make_finish(owner, list(ikv), ikv_pids, cursor, chain)

        size = self.page_size
        full_existing, remainder = divmod(len(existing), size)
        # Leave at least one (and every requested output-hidden) token for
        # the real forward; matches are page-aligned extensions only.
        max_new_pages = (len(new_tokens) - max(1, len(oemb))) // size
        if remainder != 0 or max_new_pages < 1:
            return iemb, finish

        path = self._match_path(chain)
        usable = path[full_existing : full_existing + max_new_pages]
        used = self._adopt(owner, ikv, ikv_pids, okv, full_existing, usable)
        start = full_existing + used
        if len(path) == start and used < max_new_pages:
            # The local walk stopped short of what the fill could reuse.
            copied = self._copy_from_peer(
                ikv, ikv_pids, okv[used:], chain, path, start, max_new_pages - used
            )
            used += self._adopt(owner, ikv, ikv_pids, okv[used:], start, copied)
        if used == 0:
            self.metrics.prefix_cache_misses += 1
            return iemb, finish
        saved = used * size
        self.metrics.prefix_cache_hits += 1
        self.metrics.prefix_cache_saved_tokens += saved
        return iemb[saved:], finish

    def _existing_chain(self, ikv_pids: List[int]) -> Optional[_ChainCursor]:
        """Token chain already committed across the context pages, in order,
        as the cursor that remembers it (an unremembered one when no page is
        written yet).

        Requires the conventional layout — full pages, then at most one
        partial page, then empty pages; any page holding tokens the tracker
        cannot account for makes the chain unknown (returns None).
        """
        size = self.page_size
        counts = self.memory.kv_pages.valid_counts(ikv_pids)
        used = len(counts) - counts.count(0)
        if used and (counts[used - 1] == 0 or counts[: used - 1].count(size) != used - 1):
            return None
        if not self._tainted.isdisjoint(ikv_pids):
            return None
        if not self._page_tokens.keys().isdisjoint(ikv_pids[used:]):
            return None  # tokens tracked on a page nothing is written to
        if not used:
            return _ChainCursor([], [], self._root, 0)
        written = ikv_pids[:used]
        cursor = self._cursors.get(written[-1])
        if (
            cursor is not None
            and cursor.pids == written
            and len(cursor.chain) == (used - 1) * size + counts[used - 1]
        ):
            return cursor
        chain: List[int] = []
        for pid, count in zip(written, counts):
            tokens = self._page_tokens.get(pid)
            if tokens is None or len(tokens) != count:
                return None
            chain.extend(tokens)
        return self._remember(written, chain, self._root, 0)

    # -- chain cursors -------------------------------------------------------

    def _remember(
        self, pids: List[int], chain: List[int], node: PrefixNode, depth: int
    ) -> _ChainCursor:
        """Remember a verified run of written pages under its last page."""
        stale = self._cursors.get(pids[-1])
        if stale is not None:
            self._forget(stale)
        cursor = _ChainCursor(pids, chain, node, depth)
        self._cursors[pids[-1]] = cursor
        for pid in pids:
            self._cursors_by_pid.setdefault(pid, set()).add(cursor)
        return cursor

    def _remembered(self, cursor: _ChainCursor) -> bool:
        return bool(cursor.pids) and self._cursors.get(cursor.pids[-1]) is cursor

    def _forget(self, cursor: _ChainCursor) -> None:
        if self._remembered(cursor):
            del self._cursors[cursor.pids[-1]]
        for pid in cursor.pids:
            holders = self._cursors_by_pid.get(pid)
            if holders is not None:
                holders.discard(cursor)
                if not holders:
                    del self._cursors_by_pid[pid]

    def _forget_cursors(self, pid: int, keep: Optional[_ChainCursor] = None) -> None:
        """The tracked tokens of ``pid`` are changing under every cursor that
        holds it (except ``keep``, which its caller updates itself)."""
        for cursor in list(self._cursors_by_pid.get(pid, ())):
            if cursor is not keep:
                self._forget(cursor)

    def _adopt(
        self,
        owner: str,
        ikv: List["KvPage"],
        ikv_pids: List[int],
        okv: List["KvPage"],
        full_existing: int,
        usable: List[PrefixNode],
    ) -> int:
        """Rebind the caller's fresh pages to the cached path; returns pages."""
        used = 0
        faulted: List[Tuple[int, int]] = []  # (host slot, device page)
        num_valid = self.memory.kv_pages.valid_counts(
            ikv_pids[full_existing : full_existing + len(usable)]
        )
        for offset, node in enumerate(usable):
            index = full_existing + offset
            if index >= len(ikv):
                break
            # The adopted page must be the next *output* page too, so the
            # forward handler's auto-offset write lands after the reused
            # prefix (the support library's fill() layout).
            if offset >= len(okv) or okv[offset].vid != ikv[index].vid:
                break
            handle = ikv[index]
            old_pid = ikv_pids[index]
            if node.pid == old_pid:
                self._touch(node)
                used += 1
                continue
            if not self._fresh(old_pid, num_valid[offset]):
                break
            if node.pid is not None:
                self.resources.rebind_kv(owner, handle, node.pid)
                self._page_tokens[node.pid] = list(node.tokens)
                self._cache_shared.add(node.pid)
            else:
                # Demoted entry: fault the host copy into the caller's own
                # fresh page and promote the node back to device residency.
                faulted.append((node.host_slot, old_pid))
                node.host_slot = None
                node.pid = old_pid
                self.resources.pin_kv(old_pid)
                self._by_pid[old_pid] = node
                self._page_tokens[old_pid] = list(node.tokens)
            self._touch(node)
            used += 1
        if faulted:
            self.metrics.prefix_cache_faultins += len(faulted)
            self.mover.from_host(
                self.device,
                "cache_fault_in",
                [slot for slot, _ in faulted],
                [self.memory.kv_pages.page(pid) for _, pid in faulted],
            )
        return used

    def _copy_from_peer(
        self,
        ikv: List["KvPage"],
        ikv_pids: List[int],
        okv: List["KvPage"],
        chain: List[int],
        path: List[PrefixNode],
        start: int,
        limit: int,
    ) -> List[PrefixNode]:
        """Serve a miss from the live peer whose cache holds the most
        device-resident pages of ``chain`` past ``start`` (the end of the
        local ``path``): copy at most ``limit`` of them into the caller's
        fresh pages from index ``start`` on, land them on this device, and
        register those pages as pinned local nodes.  Returns the nodes."""
        size = self.page_size
        parent = path[-1] if path else self._root
        if chain[start * size] in parent.children:
            return []  # a sibling holds the radix slot the copy would need
        window = chain[: (start + limit) * size]
        source, held = None, []
        for peer in self.peers:
            cache = peer.prefix_cache
            if peer is self.shard or cache is None or peer.device.down:
                continue
            # A demoted page stays on the host tier: the resident run counts.
            theirs = cache._match_path(window)
            resident = list(takewhile(lambda node: node.pid is not None, theirs))
            if len(resident) > max(start, len(held)):
                source, held = peer, resident
        if source is None:
            return []
        # The copy lands only in the caller's fresh pages that _adopt takes.
        n = 0
        num_valid = self.memory.kv_pages.valid_counts(ikv_pids[start : len(held)])
        while start + n < min(len(held), len(ikv)) and n < len(okv):
            index = start + n
            if okv[n].vid != ikv[index].vid or not self._fresh(ikv_pids[index], num_valid[n]):
                break
            n += 1
        if not n or not self.mover.beats_recompute(
            self.mover.land_seconds(source.index, self.shard.index, n), n
        ):
            return []
        sources = held[start : start + n]
        dst_pids = ikv_pids[start : start + n]
        self.mover.copy(source, self.shard, [node.pid for node in sources], dst_pids)
        self.mover.land(source.index, self.shard, "cache_fault_in", n)
        self.metrics.prefix_cache_faultins += n
        copied: List[PrefixNode] = []
        for node, pid in zip(sources, dst_pids):
            self._page_tokens[pid] = list(node.tokens)
            parent = self._insert(parent, node.tokens, pid)
            copied.append(parent)
        return copied

    def _fresh(self, pid: int, num_valid: int) -> bool:
        """A page safe to rebind away from: untouched and unobserved."""
        return (
            num_valid == 0
            and self.resources.kv_refcount(pid) == 1
            and pid not in self._by_pid
            and pid not in self._tainted
            and not self._is_busy(pid)
        )

    # -- registration (runs when the producing forward completes) ----------

    def _make_finish(
        self,
        owner: str,
        ikv: List["KvPage"],
        ikv_pids: List[int],
        cursor: _ChainCursor,
        chain: List[int],
    ) -> Callable[["SimFuture"], None]:
        existing = len(cursor.chain)

        def finish(future: "SimFuture") -> None:
            if future.exception() is not None:
                return
            if not self.resources.has_space(owner):
                return
            try:
                pids = self.resources.resolve_kv_many(owner, ikv)
            except ResourceError:
                return
            if (
                pids == ikv_pids
                and self._remembered(cursor)
                and len(cursor.chain) == existing
                and self._page_tokens.keys().isdisjoint(pids[len(cursor.pids) :])
            ):
                # Pages and cursor are as begin_forward left them, so what is
                # tracked is the chain this forward extended: only the pages
                # its tokens landed in are left to look at.
                self._commit_pages(pids, chain, existing // self.page_size, cursor)
            else:
                self._commit_chain(pids, chain)

        return finish

    def _commit_chain(self, pids: List[int], chain: List[int]) -> None:
        """Record per-page tokens and register every completed full page."""
        size = self.page_size
        # The tokens tracked before this forward must be a prefix of the
        # chain it was issued with (full pages, then at most one partial);
        # any interleaved mutation shows up as a mismatch and aborts.
        recorded: List[int] = []
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
        # Pages tracked as full already hold their part of the chain; they
        # must still be untainted and fully written.
        full = pids[: len(recorded) // size]
        if not self._tainted.isdisjoint(full):
            return
        if self.memory.kv_pages.valid_counts(full).count(size) != len(full):
            return
        self._commit_pages(pids, chain, len(full), None)

    def _commit_pages(
        self, pids: List[int], chain: List[int], start: int, cursor: Optional[_ChainCursor]
    ) -> None:
        """Track ``chain``'s tokens on the pages from index ``start`` on (the
        ones before hold theirs already), register the full pages not yet in
        the index, and leave a cursor on the run for the next forward."""
        size = self.page_size
        written = pids[: (len(chain) - 1) // size + 1]
        landed = written[start:]
        num_valid = self.memory.kv_pages.valid_counts(landed)
        for offset, pid in enumerate(landed):
            index = start + offset
            chunk = chain[index * size : (index + 1) * size]
            # A pipelined later forward may have committed further tokens
            # already; fewer than expected means the write never landed.
            if pid in self._tainted or num_valid[offset] < len(chunk):
                if cursor is not None:
                    self._forget(cursor)
                return
            if self._page_tokens.get(pid) != chunk:
                self._forget_cursors(pid, keep=cursor)
                self._page_tokens[pid] = chunk
        node, depth = self._root, 0
        if cursor is not None and (cursor.node is self._root or cursor.node.parent is not None):
            # The walk below would descend to the same node: a node is only
            # unlinked together with everything under it.
            node, depth = cursor.node, cursor.depth
        node, depth = self._register(node, depth, pids, chain)
        if len(chain) > len(written) * size:
            chain = chain[: len(written) * size]  # more tokens than pages given
        if cursor is None:
            if written:
                self._remember(written, chain, node, depth)
        else:
            fresh = written[len(cursor.pids) :]
            if fresh:
                del self._cursors[cursor.pids[-1]]
                cursor.pids.extend(fresh)
                for pid in fresh:
                    self._cursors_by_pid.setdefault(pid, set()).add(cursor)
                self._cursors[fresh[-1]] = cursor
            cursor.chain, cursor.node, cursor.depth = chain, node, depth

    def _register(
        self, node: PrefixNode, depth: int, pids: List[int], chain: List[int]
    ) -> Tuple[PrefixNode, int]:
        """Continue the registration walk of ``chain`` below ``node`` (which
        covers its first ``depth`` pages); returns where it stopped."""
        size = self.page_size
        for index in range(depth, len(chain) // size):
            chunk = tuple(chain[index * size : (index + 1) * size])
            child = node.children.get(chunk[0])
            if child is None or child.tokens != chunk:
                if child is not None or index >= len(pids):
                    break
                pid = pids[index]
                if pid in self._by_pid or self._page_tokens.get(pid) != list(chunk):
                    break
                child = self._insert(node, chunk, pid)
            node, depth = child, index + 1
        return node, depth

    def _insert(self, parent: PrefixNode, tokens: Tuple[int, ...], pid: int) -> PrefixNode:
        """Index the full page ``pid`` below ``parent`` and pin it."""
        self._seq += 1
        child = PrefixNode(
            tokens=tokens, pid=pid, parent=parent, last_used=self._tick(), seq=self._seq
        )
        parent.children[tokens[0]] = child
        self._by_pid[pid] = child
        self.resources.pin_kv(pid)
        self.metrics.prefix_cache_inserted_pages += 1
        return child

    # -- eviction / demotion (the memory-pressure ladder) -------------------

    def _reclaim_candidates(self) -> List[PrefixNode]:
        """Device-resident nodes with no resident descendants, coldest first.

        These are the tree's "resident fringe": demoting one keeps the
        chain intact (its subtree is already on host), and dropping one
        only discards already-demoted descendants — never a resident page.
        """
        candidates: List[PrefixNode] = []

        def visit(node: PrefixNode) -> bool:
            resident_below = False
            for child in node.children.values():
                resident_below |= visit(child)
            if node is self._root:
                return resident_below
            resident = node.pid is not None
            if resident and not resident_below:
                candidates.append(node)
            return resident or resident_below

        visit(self._root)
        candidates.sort(key=lambda n: (n.last_used, n.seq))
        return candidates

    def reclaim_one(self) -> int:
        """Free one device page for the swap manager's reclamation ladder.

        Demotes the coldest sole-reference fringe node to the host tier when
        it has room (PCIe charged), dropping it outright otherwise.  Returns
        the number of device pages freed (0 when the cache has nothing cold).
        """
        for leaf in self._reclaim_candidates():
            if self.resources.kv_refcount(leaf.pid) > 1:
                continue  # importers keep the page resident; freeing helps nobody
            if self._is_busy(leaf.pid):
                # Freeing the page would let it be reallocated under an
                # issued-but-unretired command that still references it.
                continue
            if self.mover.host_pool.enabled and self.mover.host_pool.num_free > 0:
                pid = leaf.pid
                [leaf.host_slot] = self.mover.to_host(
                    self.device, "cache_demote", [self.memory.kv_pages.page(pid)]
                )
                leaf.pid = None
                self._by_pid.pop(pid, None)
                self.resources.unpin_kv(pid)  # frees the device page
                self.metrics.prefix_cache_demotions += 1
                return 1
            # Dropping the node takes its (all-demoted) subtree with it.
            self._drop_subtree(leaf)
            return 1
        return 0

    def drop_all(self) -> None:
        """Release every cache entry (teardown / tests)."""
        for child in list(self._root.children.values()):
            self._drop_subtree(child)
