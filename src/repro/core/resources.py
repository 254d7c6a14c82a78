"""Resource virtualisation: per-inferlet address spaces and export/import.

Each inferlet sees opaque virtual handles (:class:`~repro.core.handles.KvPage`
and :class:`~repro.core.handles.Embed`); the control layer maps them onto
physical page/slot ids in device memory.  Physical resources are reference
counted so that pages can be shared between inferlets through the
``export_kvpage`` / ``import_kvpage`` APIs (the mechanism behind
application-controlled prefix caching) and survive the exporter's exit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import ResourceError
from repro.core.handles import Embed, KvPage
from repro.gpu.host_pool import HostMemoryPool
from repro.gpu.memory import DeviceMemory


class _RefCounter:
    """Reference counts for physical resource ids of one kind."""

    def __init__(self) -> None:
        self._counts: Dict[int, int] = {}

    def incref(self, physical_id: int) -> None:
        self._counts[physical_id] = self._counts.get(physical_id, 0) + 1

    def decref(self, physical_id: int) -> bool:
        """Decrement; return True if the count dropped to zero."""
        if physical_id not in self._counts:
            raise ResourceError(f"refcount underflow for physical id {physical_id}")
        self._counts[physical_id] -= 1
        if self._counts[physical_id] == 0:
            del self._counts[physical_id]
            return True
        return False

    def count(self, physical_id: int) -> int:
        return self._counts.get(physical_id, 0)


@dataclass
class ExportEntry:
    """A named export of KV pages, importable by other inferlets."""

    name: str
    physical_ids: List[int]
    exporter: str
    imports: int = 0


@dataclass
class _Space:
    """One inferlet's virtual address space.

    ``swapped_kv`` maps virtual page ids whose contents currently live in
    the host-memory tier (no device page backs them) to their host slot id;
    a vid is in exactly one of ``kv_map`` / ``swapped_kv`` at a time.
    """

    owner: str
    kv_map: Dict[int, int] = field(default_factory=dict)
    emb_map: Dict[int, int] = field(default_factory=dict)
    swapped_kv: Dict[int, int] = field(default_factory=dict)
    # Plain ints (not itertools.count) so a space can be detached on one
    # device and re-created on another without restarting vid numbering —
    # live handles keep resolving after a disaggregation handoff.
    next_kv_vid: int = 1
    next_emb_vid: int = 1

    def take_kv_vid(self) -> int:
        vid = self.next_kv_vid
        self.next_kv_vid += 1
        return vid

    def take_emb_vid(self) -> int:
        vid = self.next_emb_vid
        self.next_emb_vid += 1
        return vid


class ResourceManager:
    """Global resource pool manager + per-inferlet virtual address spaces."""

    def __init__(
        self,
        memory: DeviceMemory,
        model_name: str = "",
        host_pool: Optional[HostMemoryPool] = None,
    ) -> None:
        self.memory = memory
        self.model_name = model_name
        self.host_pool = host_pool
        self._spaces: Dict[str, _Space] = {}
        self._kv_refs = _RefCounter()
        self._emb_refs = _RefCounter()
        self._exports: Dict[str, ExportEntry] = {}
        self.page_size = memory.model_config.kv_page_size
        # Invoked with the physical id whenever a KV page's last reference
        # is dropped and the page returns to the pool (prefix-cache
        # bookkeeping hook; None when no one listens).
        self._kv_free_listener: Optional[Callable[[int], None]] = None

    # -- address space lifecycle -------------------------------------------

    def create_space(self, owner: str) -> None:
        if owner in self._spaces:
            raise ResourceError(f"address space for {owner!r} already exists")
        self._spaces[owner] = _Space(owner=owner)

    def destroy_space(self, owner: str) -> None:
        """Release every resource still referenced by an inferlet's space."""
        space = self._space(owner)
        for physical_id in list(space.kv_map.values()):
            self._release_kv(physical_id)
        for physical_id in list(space.emb_map.values()):
            self._release_emb(physical_id)
        if space.swapped_kv:
            self.host_pool.discard(space.swapped_kv.values())
        del self._spaces[owner]

    def has_space(self, owner: str) -> bool:
        return owner in self._spaces

    def _space(self, owner: str) -> _Space:
        try:
            return self._spaces[owner]
        except KeyError:
            raise ResourceError(f"no address space for inferlet {owner!r}") from None

    # -- usage accounting -----------------------------------------------------

    def kv_pages_swapped_by(self, owner: str) -> int:
        return len(self._space(owner).swapped_kv)

    @property
    def kv_pages_free(self) -> int:
        return self.memory.kv_pages.num_free

    @property
    def embeds_free(self) -> int:
        return self.memory.embeds.num_free

    # -- KV pages ---------------------------------------------------------------

    def alloc_kv_pages(self, owner: str, count: int) -> List[KvPage]:
        space = self._space(owner)
        physical_ids = self.memory.kv_pages.allocate(count)
        handles = []
        for physical_id in physical_ids:
            vid = space.take_kv_vid()
            space.kv_map[vid] = physical_id
            self._kv_refs.incref(physical_id)
            handles.append(
                KvPage(vid=vid, owner=owner, page_size=self.page_size, model=self.model_name)
            )
        return handles

    def dealloc_kv_pages(self, owner: str, handles: Sequence[KvPage]) -> None:
        space = self._space(owner)
        for handle in handles:
            self._check_owner(handle.owner, owner, handle)
            physical_id = space.kv_map.pop(handle.vid, None)
            if physical_id is None:
                # A page freed while swapped out never returns to the device:
                # its host slot is simply discarded.
                slot = space.swapped_kv.pop(handle.vid, None)
                if slot is None:
                    raise ResourceError(f"{handle!r} is not mapped (double free?)")
                self.host_pool.discard([slot])
                continue
            self._release_kv(physical_id)

    def resolve_kv(self, owner: str, handle: KvPage) -> int:
        space = self._space(owner)
        self._check_owner(handle.owner, owner, handle)
        try:
            return space.kv_map[handle.vid]
        except KeyError:
            if handle.vid in space.swapped_kv:
                raise ResourceError(
                    f"{handle!r} is swapped out to host memory; swap it in first"
                ) from None
            raise ResourceError(f"{handle!r} is not mapped in {owner!r}") from None

    def resolve_kv_many(self, owner: str, handles: Sequence[KvPage]) -> List[int]:
        physical_ids = self._resolve_many(self._space(owner).kv_map, owner, handles)
        if physical_ids is None:
            return [self.resolve_kv(owner, handle) for handle in handles]
        return physical_ids

    @staticmethod
    def _resolve_many(mapping: Dict[int, int], owner: str, handles) -> Optional[List[int]]:
        """The handles' physical ids in one pass over the space's map, or None
        when one is foreign, unmapped or swapped out: the per-handle path then
        raises for the first such handle, with its message."""
        try:
            physical_ids = [mapping[h.vid] for h in handles if h.owner == owner]
        except KeyError:
            return None
        return physical_ids if len(physical_ids) == len(handles) else None

    def _release_kv(self, physical_id: int) -> None:
        if self._kv_refs.decref(physical_id):
            self.memory.kv_pages.free([physical_id])
            if self._kv_free_listener is not None:
                self._kv_free_listener(physical_id)

    # -- physical-page sharing hooks (prefix cache) -----------------------------

    def set_kv_free_listener(self, listener: Optional[Callable[[int], None]]) -> None:
        self._kv_free_listener = listener

    def kv_refcount(self, physical_id: int) -> int:
        return self._kv_refs.count(physical_id)

    def pin_kv(self, physical_id: int) -> None:
        """Take a reference on a physical page (it must be allocated)."""
        self.memory.kv_pages.check_allocated(physical_id)
        self._kv_refs.incref(physical_id)

    def unpin_kv(self, physical_id: int) -> None:
        """Drop a reference taken with :meth:`pin_kv` (may free the page)."""
        self._release_kv(physical_id)

    def rebind_kv(self, owner: str, handle: KvPage, new_pid: int) -> None:
        """Point a virtual page at a different physical page.

        The prefix-cache import path: the owner's freshly allocated page is
        released and the handle aliases the cached page instead.  Reference
        counts move atomically — the new page is pinned before the old one
        is dropped, so a crash between the two cannot double-free.
        """
        space = self._space(owner)
        self._check_owner(handle.owner, owner, handle)
        old_pid = space.kv_map.get(handle.vid)
        if old_pid is None:
            raise ResourceError(f"{handle!r} is not device-resident; cannot rebind")
        if old_pid == new_pid:
            return
        self._kv_refs.incref(new_pid)
        space.kv_map[handle.vid] = new_pid
        self._release_kv(old_pid)

    def materialize_private_kv(self, owner: str, handle: KvPage) -> int:
        """Copy-on-write: give ``handle`` its own physical page.

        The current contents are copied into a freshly allocated page, the
        handle is remapped to it, and the shared page loses this owner's
        reference (the cache / other importers keep theirs).  Returns the
        new physical id; the caller must have ensured device capacity.
        """
        space = self._space(owner)
        self._check_owner(handle.owner, owner, handle)
        old_pid = space.kv_map.get(handle.vid)
        if old_pid is None:
            raise ResourceError(f"{handle!r} is not device-resident; cannot unshare")
        [new_pid] = self.memory.kv_pages.allocate(1)
        self.memory.kv_pages.page(new_pid).copy_page_from(
            self.memory.kv_pages.page(old_pid)
        )
        self._kv_refs.incref(new_pid)
        space.kv_map[handle.vid] = new_pid
        self._release_kv(old_pid)
        return new_pid

    # -- embeddings ----------------------------------------------------------------

    def alloc_embeds(self, owner: str, count: int) -> List[Embed]:
        space = self._space(owner)
        physical_ids = self.memory.embeds.allocate(count)
        handles = []
        for physical_id in physical_ids:
            vid = space.take_emb_vid()
            space.emb_map[vid] = physical_id
            self._emb_refs.incref(physical_id)
            handles.append(Embed(vid=vid, owner=owner, model=self.model_name))
        return handles

    def dealloc_embeds(self, owner: str, handles: Sequence[Embed]) -> None:
        space = self._space(owner)
        unreferenced: List[int] = []
        try:
            for handle in handles:
                self._check_owner(handle.owner, owner, handle)
                physical_id = space.emb_map.pop(handle.vid, None)
                if physical_id is None:
                    raise ResourceError(f"{handle!r} is not mapped (double free?)")
                if self._emb_refs.decref(physical_id):
                    unreferenced.append(physical_id)
        finally:
            # One batch for the store (it validates the batch before it
            # releases any slot); a bad handle still leaves the ones before
            # it freed.
            self.memory.embeds.free(unreferenced)

    def resolve_emb(self, owner: str, handle: Embed) -> int:
        space = self._space(owner)
        self._check_owner(handle.owner, owner, handle)
        try:
            return space.emb_map[handle.vid]
        except KeyError:
            raise ResourceError(f"{handle!r} is not mapped in {owner!r}") from None

    def resolve_emb_many(self, owner: str, handles: Sequence[Embed]) -> List[int]:
        physical_ids = self._resolve_many(self._space(owner).emb_map, owner, handles)
        if physical_ids is None:
            return [self.resolve_emb(owner, handle) for handle in handles]
        return physical_ids

    def _release_emb(self, physical_id: int) -> None:
        if self._emb_refs.decref(physical_id):
            self.memory.embeds.free([physical_id])

    # -- host-memory swap (tiered KV, see repro.core.swap) -------------------------

    def swappable_kv_count(self, owner: str) -> int:
        """Device pages of ``owner`` that can be staged to host memory.

        Only *exclusively owned* pages qualify (refcount 1): pages shared
        through export/import or forking are pinned on the device, since
        another inferlet may read them at any time.
        """
        space = self._space(owner)
        return sum(
            1 for pid in space.kv_map.values() if self._kv_refs.count(pid) == 1
        )

    def swap_out_kv(self, owner: str) -> int:
        """Stage every exclusively owned device page of ``owner`` to host.

        Page contents are snapshotted into the host pool, the device pages
        are freed, and the owning vids move to the space's ``swapped_kv``
        map.  Shared pages (refcount > 1: exports, forked prefixes) are
        pinned and stay resident.  Returns the number of pages moved — 0
        if nothing qualifies or the host pool lacks room for the whole
        swappable set (the swappable set moves all-or-nothing, so a fault
        on any private page restores every private page).
        """
        space = self._space(owner)
        movable = {
            vid: pid
            for vid, pid in space.kv_map.items()
            if self._kv_refs.count(pid) == 1
        }
        if not movable or self.host_pool is None:
            return 0
        if self.host_pool.num_free < len(movable):
            return 0
        for vid, physical_id in movable.items():
            slot = self.host_pool.store(self.memory.kv_pages.page(physical_id))
            del space.kv_map[vid]
            space.swapped_kv[vid] = slot
            self._release_kv(physical_id)
        return len(movable)

    def swap_in_kv(self, owner: str) -> int:
        """Restore every swapped page of ``owner`` onto the device.

        The caller must have ensured device capacity (the controller's
        reclamation path does); raises ``OutOfResourcesError`` otherwise.
        Returns the number of pages restored.
        """
        space = self._space(owner)
        if not space.swapped_kv:
            return 0
        vids = list(space.swapped_kv)
        physical_ids = self.memory.kv_pages.allocate(len(vids))
        for vid, physical_id in zip(vids, physical_ids):
            slot = space.swapped_kv.pop(vid)
            self.host_pool.load(slot, self.memory.kv_pages.page(physical_id))
            space.kv_map[vid] = physical_id
            self._kv_refs.incref(physical_id)
        return len(vids)

    # -- migration (disaggregation handoff, see repro.core.transfer) ---------------

    def kv_mapping(self, owner: str) -> Dict[int, int]:
        """Snapshot of ``owner``'s device-resident vid -> physical id map."""
        return dict(self._space(owner).kv_map)

    def emb_mapping(self, owner: str) -> Dict[int, int]:
        """Snapshot of ``owner``'s embed vid -> physical slot map."""
        return dict(self._space(owner).emb_map)

    def detach_space_for_migration(self, owner: str):
        """Remove ``owner``'s space from this device, releasing device refs.

        Returns ``(kv_map, emb_map, swapped_kv, next_kv_vid, next_emb_vid)``
        — the vid -> *source* physical id maps as they stood at detach time
        plus the vid counters, so the destination can re-create the space
        with identical virtual ids (live :class:`KvPage` / :class:`Embed`
        handles keep resolving).  Device pages and embed slots lose this
        owner's reference (shared pages survive through their other
        holders); host-tier slots in ``swapped_kv`` are *not* discarded —
        the host pool is per-node, so they move with the inferlet.  The
        caller must have copied page/slot contents to the destination
        first.
        """
        space = self._space(owner)
        kv_map = dict(space.kv_map)
        emb_map = dict(space.emb_map)
        swapped_kv = dict(space.swapped_kv)
        for physical_id in kv_map.values():
            self._release_kv(physical_id)
        for physical_id in emb_map.values():
            self._release_emb(physical_id)
        del self._spaces[owner]
        return kv_map, emb_map, swapped_kv, space.next_kv_vid, space.next_emb_vid

    def adopt_migrated_space(
        self,
        owner: str,
        kv_map: Dict[int, int],
        emb_map: Dict[int, int],
        swapped_kv: Dict[int, int],
        next_kv_vid: int,
        next_emb_vid: int,
    ) -> None:
        """Re-create a detached space on this device.

        ``kv_map`` / ``emb_map`` must already point at *this* device's
        physical ids (the transfer scheduler remaps them via its staged
        copies); every physical id gains one reference here.  Pages the
        caller pre-pinned during staging should be unpinned afterwards so
        the space holds exactly one reference per mapping.
        """
        if owner in self._spaces:
            raise ResourceError(f"address space for {owner!r} already exists")
        space = _Space(
            owner=owner,
            kv_map=dict(kv_map),
            emb_map=dict(emb_map),
            swapped_kv=dict(swapped_kv),
            next_kv_vid=next_kv_vid,
            next_emb_vid=next_emb_vid,
        )
        for physical_id in space.kv_map.values():
            self._kv_refs.incref(physical_id)
        for physical_id in space.emb_map.values():
            self._emb_refs.incref(physical_id)
        self._spaces[owner] = space

    # -- export / import ----------------------------------------------------------

    def export_kv_pages(self, owner: str, handles: Sequence[KvPage], name: str) -> None:
        """Publish KV pages under a name; they survive the exporter's exit."""
        if name in self._exports:
            raise ResourceError(f"export name {name!r} already in use")
        physical_ids = self.resolve_kv_many(owner, handles)
        for physical_id in physical_ids:
            self._kv_refs.incref(physical_id)
        self._exports[name] = ExportEntry(name=name, physical_ids=physical_ids, exporter=owner)

    def import_kv_pages(self, owner: str, name: str) -> List[KvPage]:
        """Map an exported page set into the importer's address space."""
        entry = self._get_export(name)
        space = self._space(owner)
        handles = []
        entry.imports += 1
        for physical_id in entry.physical_ids:
            vid = space.take_kv_vid()
            space.kv_map[vid] = physical_id
            self._kv_refs.incref(physical_id)
            handles.append(
                KvPage(vid=vid, owner=owner, page_size=self.page_size, model=self.model_name)
            )
        return handles

    def release_export(self, name: str) -> None:
        """Drop an export entry (pages are freed once no space references them)."""
        entry = self._get_export(name)
        for physical_id in entry.physical_ids:
            self._release_kv(physical_id)
        del self._exports[name]

    def list_exports(self) -> List[str]:
        return sorted(self._exports)

    def has_export(self, name: str) -> bool:
        return name in self._exports

    def export_info(self, name: str) -> ExportEntry:
        return self._get_export(name)

    def _get_export(self, name: str) -> ExportEntry:
        try:
            return self._exports[name]
        except KeyError:
            raise ResourceError(f"no export named {name!r}") from None

    # -- misc -----------------------------------------------------------------------

    @staticmethod
    def _check_owner(handle_owner: str, owner: str, handle: object) -> None:
        if handle_owner != owner:
            raise ResourceError(
                f"{handle!r} belongs to {handle_owner!r}, not {owner!r}; "
                "use export/import to share resources"
            )
