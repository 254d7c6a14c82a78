"""Physical device memory: paged KV cache and embedding slots.

Following PagedAttention, the KV cache is carved into fixed-size pages of
``kv_page_size`` token slots; each slot stores per-layer key/value vectors,
the token's sequence position, a validity flag (has the slot been written?)
and a visibility flag (has it been masked out with ``mask_kvpage``?).

The pools are shared by Pie's control layer and by the baseline engines'
block managers — the paper's "same FlashInfer backend" setup — and enforce
capacity limits so resource-contention policies can be exercised.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass
from typing import Iterable, List, NamedTuple, Optional, Sequence, Union

import numpy as np

from repro.errors import OutOfResourcesError, ResourceError
from repro.gpu.config import GpuConfig
from repro.model.config import ModelConfig
from repro.model.transformer import KvContext


@dataclass
class PhysicalKvPage:
    """One physical KV page: ``page_size`` token slots across all layers.

    ``store.page(pid)`` builds one over *views* of row ``pid`` of the store's
    slabs (``keys``/``values``: ``(n_layers, page_size, n_kv_heads, d_head)``,
    so ``keys[layer]`` is that layer's slots; the rest ``(page_size,)``):
    writes through it land in the slab.  A :meth:`snapshot` owns copies
    instead, which is what the host tier holds.
    """

    page_id: int
    keys: np.ndarray
    values: np.ndarray
    positions: np.ndarray
    valid: np.ndarray
    visible: np.ndarray

    @property
    def page_size(self) -> int:
        return self.positions.shape[0]

    def snapshot(self) -> "PhysicalKvPage":
        """A detached point-in-time copy (restore it with :meth:`copy_page_from`)."""
        arrays = (self.keys, self.values, self.positions, self.valid, self.visible)
        return PhysicalKvPage(self.page_id, *(array.copy() for array in arrays))

    def clear(self) -> None:
        """Reset the page for reuse by a future allocation."""
        self.keys[...] = 0.0
        self.values[...] = 0.0
        self.positions[:] = 0
        self.valid[:] = False
        self.visible[:] = True

    def write_token(
        self,
        slot: int,
        position: int,
        keys_per_layer: Sequence[np.ndarray],
        values_per_layer: Sequence[np.ndarray],
    ) -> None:
        """Store K/V vectors for a token at ``slot``."""
        if not 0 <= slot < self.page_size:
            raise ResourceError(f"slot {slot} out of range for page of {self.page_size}")
        self.keys[:, slot] = keys_per_layer
        self.values[:, slot] = values_per_layer
        self.positions[slot] = position
        self.valid[slot] = True
        self.visible[slot] = True

    def copy_page_from(self, other: "PhysicalKvPage") -> None:
        """Whole-page copy: from another device's slab row, or a snapshot."""
        if other.page_size != self.page_size:
            raise ResourceError(
                f"page size mismatch: {other.page_size} -> {self.page_size}"
            )
        self.keys[...] = other.keys
        self.values[...] = other.values
        self.positions[:] = other.positions
        self.valid[:] = other.valid
        self.visible[:] = other.visible

    def copy_token_from(self, other: "PhysicalKvPage", src_slot, dst_slot) -> None:
        """Token-level copy (``copy_kvpage``) of one slot or of equally long
        slot sequences; all sources are read before any destination is written.
        The slots come from the inferlet, so both are range-checked: numpy
        would wrap a negative one to the end of the page."""
        src = np.asarray(src_slot, dtype=np.intp)
        dst = np.asarray(dst_slot, dtype=np.intp)
        for slots, page in ((src, other), (dst, self)):
            if ((slots < 0) | (slots >= page.page_size)).any():
                raise ResourceError(
                    f"slot {slots.tolist()} out of range for page of {page.page_size}"
                )
        if not other.valid[src].all():
            raise ResourceError("cannot copy from an unwritten KV slot")
        self.keys[:, dst] = other.keys[:, src]
        self.values[:, dst] = other.values[:, src]
        self.positions[dst] = other.positions[src]
        self.valid[dst] = True
        self.visible[dst] = other.visible[src]

    def mask_tokens(self, mask: Sequence[bool]) -> None:
        """Apply a token-level visibility mask (True = keep attending)."""
        mask_arr = np.asarray(list(mask), dtype=bool)
        if mask_arr.shape[0] != self.page_size:
            raise ResourceError(
                f"mask length {mask_arr.shape[0]} != page size {self.page_size}"
            )
        self.visible[:] = mask_arr

    @property
    def num_valid(self) -> int:
        return int(self.valid.sum())


class _Pool:
    """Free-list allocator over a fixed number of integer ids."""

    def __init__(self, capacity: int, kind: str) -> None:
        self.capacity = capacity
        self.kind = kind
        self._free: List[int] = list(range(capacity - 1, -1, -1))
        self._allocated: set = set()

    def allocate(self, count: int) -> List[int]:
        if count < 0:
            raise ResourceError(f"cannot allocate {count} {self.kind}s")
        if count > len(self._free):
            raise OutOfResourcesError(
                f"out of {self.kind}s: requested {count}, free {len(self._free)}"
            )
        ids = [self._free.pop() for _ in range(count)]
        self._allocated.update(ids)
        return ids

    def free(self, ids: Iterable[int]) -> None:
        """Return ids to the free list.

        The whole batch is validated *before* any id is released, so a
        double free / unknown id / duplicate within the batch raises without
        mutating the pool (a partially applied free would corrupt the free
        list, which swap churn would then silently hand out twice).
        """
        items = list(ids)
        seen: set = set()
        for item in items:
            if item in seen or item not in self._allocated:
                raise ResourceError(f"double free or unknown {self.kind} id {item}")
            seen.add(item)
        for item in items:
            self._allocated.remove(item)
            self._free.append(item)

    @property
    def num_free(self) -> int:
        return len(self._free)

    @property
    def num_allocated(self) -> int:
        return len(self._allocated)

    def is_allocated(self, item: int) -> bool:
        return item in self._allocated

    def check(self, ids: Sequence[int]) -> None:
        """Raise unless all of ``ids`` are allocated (one set operation)."""
        if not self._allocated.issuperset(ids):
            missing = next(item for item in ids if item not in self._allocated)
            raise ResourceError(f"{self.kind} {missing} is not allocated")

    def checked(self, ids: Sequence[int]) -> np.ndarray:
        """``ids`` as an index array, after :meth:`check`."""
        self.check(ids)
        return np.asarray(ids, dtype=np.intp)


class KvWrite(NamedTuple):
    """One command's KV output: the first ``len(positions)`` tokens of per-layer
    ``new_keys``/``new_values`` go into consecutive slots of ``page_ids``, from
    slot ``offset`` of the first page; ``None`` appends after the tokens already
    valid there (how chunked-prefill slices land behind one another)."""

    page_ids: Sequence[int]
    offset: Optional[int]
    new_keys: Sequence[np.ndarray]
    new_values: Sequence[np.ndarray]
    positions: Sequence[int]


def _lazy_zeros(shape: Sequence[int], dtype) -> np.ndarray:
    """A zero array the OS commits 4 KB at a time, on first write.  ``np.zeros``
    is lazy too, but above 4 MB numpy asks for transparent huge pages, and a
    KV slab is written at scattered rows: each would commit 2 MB."""
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    buffer = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE)
    return np.frombuffer(buffer, dtype=dtype).reshape(shape)


class KvPageStore:
    """Physical KV pages plus their allocator.

    The bytes live in contiguous per-device slabs — ``keys``/``values``
    shaped ``(n_layers, num_pages, page_size, n_kv_heads, d_head)``, the rest
    ``(num_pages, page_size)`` — and :meth:`gather`/:meth:`scatter` are the
    only code that moves them in bulk.  The slabs are committed lazily and a
    page is reset when freed, not when allocated, so resident memory follows
    the pages ever in use, not the pool's capacity.
    """

    def __init__(self, model_config: ModelConfig, num_pages: int) -> None:
        self.model_config = model_config
        self.page_size = model_config.kv_page_size
        self._pool = _Pool(num_pages, "kv page")
        grid = (num_pages, self.page_size)
        token = (model_config.n_kv_heads, model_config.d_head)
        self.keys = _lazy_zeros((model_config.n_layers, *grid, *token), np.float32)
        self.values = _lazy_zeros((model_config.n_layers, *grid, *token), np.float32)
        self.positions = np.zeros(grid, dtype=np.int64)
        self.valid = np.zeros(grid, dtype=bool)
        self.visible = np.ones(grid, dtype=bool)
        self._slot_range = np.arange(self.page_size)
        # The same memory indexed by token (page * page_size + slot).
        self._token_keys = self.keys.reshape(model_config.n_layers, -1, *token)
        self._token_values = self.values.reshape(model_config.n_layers, -1, *token)

    def allocate(self, count: int) -> List[int]:
        return self._pool.allocate(count)

    def free(self, ids: Iterable[int]) -> None:
        """Release pages, reset for their next owner."""
        ids = list(ids)
        self._pool.free(ids)
        self.keys[:, ids] = 0.0
        self.values[:, ids] = 0.0
        self.positions[ids] = 0
        self.valid[ids] = False
        self.visible[ids] = True

    def check_allocated(self, page_id: int) -> None:
        if not self._pool.is_allocated(page_id):
            raise ResourceError(f"KV page {page_id} is not allocated")

    def page(self, page_id: int) -> PhysicalKvPage:
        self.check_allocated(page_id)
        row = (array[page_id] for array in (self.positions, self.valid, self.visible))
        return PhysicalKvPage(page_id, self.keys[:, page_id], self.values[:, page_id], *row)

    def valid_counts(self, page_ids: Sequence[int]) -> List[int]:
        """Written slots of each of ``page_ids`` (``page(pid).num_valid`` for
        the whole list in one array operation, no page object built)."""
        return self.valid.take(self._pool.checked(page_ids), axis=0).sum(axis=1).tolist()

    def _token_grid(self, ids: np.ndarray) -> np.ndarray:
        """Slab token index of every slot of pages ``ids``, page-then-slot order."""
        return (ids[:, None] * self.page_size + self._slot_range).reshape(-1)

    def _wave_index(self, page_lists: Sequence[Sequence[int]]):
        """The page lists of a forward wave as one index.  Per list: its own
        :class:`ResourceError` if it names an unallocated page (one set
        operation), else ``None``.  For the lists that passed, in order: their
        pages as one array, the ``valid`` rows of those pages, and — one entry
        per list plus an end mark — where each list's pages start in the array
        and how many tokens are valid in the pages before them."""
        errors: List[Optional[ResourceError]] = []
        flat: List[int] = []
        page_cuts = [0]
        for page_ids in page_lists:
            try:
                self._pool.check(page_ids)
            except ResourceError as exc:
                errors.append(exc)
                continue
            errors.append(None)
            flat.extend(page_ids)
            page_cuts.append(len(flat))
        ids = np.asarray(flat, dtype=np.intp)
        valid = self.valid.take(ids, axis=0)
        token_cuts = np.concatenate(([0], valid.sum(axis=1).cumsum()))[page_cuts].tolist()
        return errors, ids, valid, page_cuts, token_cuts

    def gather(
        self, page_lists: Sequence[Sequence[int]]
    ) -> List[Union[KvContext, ResourceError]]:
        """The attention context of every page list of a forward wave, in one
        pass: one index array, one ``take`` per tensor for the whole wave.

        A list's context is its written tokens — unwritten slots (a partial
        page, ``copy_kvpage`` holes) are skipped, the rest keep page-then-slot
        order, ``visible`` carries their ``mask_kvpage`` state — as ``[a:b]``
        slices of the wave-wide copies: per layer C-contiguous, and detached
        from the slab.  A list naming an unallocated page gets its own
        :class:`ResourceError` instead, and costs the other lists nothing.
        """
        results, ids, valid, _, cuts = self._wave_index(page_lists)
        tokens = self._token_grid(ids)[valid.reshape(-1)]
        keys = self._token_keys.take(tokens, axis=1)
        values = self._token_values.take(tokens, axis=1)
        positions = self.positions.reshape(-1).take(tokens)
        visible = self.visible.reshape(-1).take(tokens)
        spans = zip(cuts, cuts[1:])
        for index, error in enumerate(results):
            if error is None:
                a, b = next(spans)
                results[index] = KvContext(
                    keys=[layer[a:b] for layer in keys],
                    values=[layer[a:b] for layer in values],
                    positions=positions[a:b],
                    visible=visible[a:b],
                )
        return results

    def gather_one(self, page_ids: Sequence[int]) -> KvContext:
        """:meth:`gather` for a single list; raises what the list failed with."""
        (context,) = self.gather([page_ids])
        if isinstance(context, ResourceError):
            raise context
        return context

    def scatter(self, writes: Sequence[KvWrite]) -> List[Optional[ResourceError]]:
        """Every KV write of a forward wave in one pass: one token index for
        the wave and one slab assignment per layer and tensor.

        Offsets of ``None`` count the tokens valid *before* the call, so two
        writes of one call must not share a page (the handlers' wave rule).  A
        write naming an unallocated page, or not fitting its pages, gets its
        own :class:`ResourceError` — ``None`` otherwise — and writes nothing.
        """
        errors, ids, _, page_cuts, valid_cuts = self._wave_index(
            [write.page_ids for write in writes]
        )
        grid = self._token_grid(ids)
        landed: List[KvWrite] = []
        tokens: List[np.ndarray] = []
        at = 0  # among the writes whose pages are all allocated
        for index, write in enumerate(writes):
            if errors[index] is not None:
                continue
            offset = write.offset
            if offset is None:
                offset = valid_cuts[at + 1] - valid_cuts[at]
            count = len(write.positions)
            capacity = len(write.page_ids) * self.page_size
            if offset < 0 or offset + count > capacity:
                errors[index] = ResourceError(
                    f"writing {count} tokens at offset {offset} exceeds the "
                    f"{capacity}-token capacity of the provided KV pages"
                )
            else:
                first = page_cuts[at] * self.page_size + offset
                landed.append(write)
                tokens.append(grid[first : first + count])
            at += 1
        if not landed:
            return errors
        counts = [len(chunk) for chunk in tokens]
        tokens = np.concatenate(tokens)
        for layer in range(self.model_config.n_layers):
            self._token_keys[layer, tokens] = np.concatenate(
                [write.new_keys[layer][:count] for write, count in zip(landed, counts)]
            )
            self._token_values[layer, tokens] = np.concatenate(
                [write.new_values[layer][:count] for write, count in zip(landed, counts)]
            )
        self.positions.reshape(-1)[tokens] = np.concatenate([write.positions for write in landed])
        self.valid.reshape(-1)[tokens] = True
        self.visible.reshape(-1)[tokens] = True
        return errors

    def scatter_one(
        self,
        page_ids: Sequence[int],
        offset: Optional[int],
        new_keys: Sequence[np.ndarray],
        new_values: Sequence[np.ndarray],
        positions: Sequence[int],
    ) -> None:
        """:meth:`scatter` for a single write; raises what the write failed with."""
        (error,) = self.scatter([KvWrite(page_ids, offset, new_keys, new_values, positions)])
        if error is not None:
            raise error

    @property
    def num_free(self) -> int:
        return self._pool.num_free

    @property
    def num_allocated(self) -> int:
        return self._pool.num_allocated

    @property
    def capacity(self) -> int:
        return self._pool.capacity


class EmbedStore:
    """Physical embedding slots (one d_model vector per slot)."""

    def __init__(self, model_config: ModelConfig, num_slots: int) -> None:
        self.model_config = model_config
        self._pool = _Pool(num_slots, "embedding slot")
        self._data = _lazy_zeros((num_slots, model_config.d_model), np.float32)
        self._positions = np.zeros(num_slots, dtype=np.int64)
        self._written = np.zeros(num_slots, dtype=bool)

    def allocate(self, count: int) -> List[int]:
        ids = self._pool.allocate(count)
        self._data[ids] = 0.0
        self._positions[ids] = 0
        self._written[ids] = False
        return ids

    def free(self, ids: Iterable[int]) -> None:
        self._pool.free(ids)

    def write(
        self,
        slot_ids: Sequence[int],
        vectors: np.ndarray,
        positions: Optional[Sequence[int]] = None,
    ) -> None:
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.shape[0] != len(slot_ids):
            raise ResourceError("write: slot/vector count mismatch")
        if positions is not None and len(positions) != len(slot_ids):
            raise ResourceError("write: slot/position count mismatch")
        slots = self._pool.checked(slot_ids)
        self._data[slots] = vectors
        if positions is not None:
            self._positions[slots] = positions
        self._written[slots] = True

    def check(self, slot_ids: Sequence[int]) -> None:
        """Raise unless every slot is allocated (one set operation): how a
        batch-wide handler tells which command named a bad slot."""
        self._pool.check(slot_ids)

    def positions(self, slot_ids: Sequence[int]) -> List[int]:
        """Sequence positions associated with the given slots."""
        return self._positions[self._pool.checked(slot_ids)].tolist()

    def read(self, slot_ids: Sequence[int]) -> np.ndarray:
        return self._data[self._pool.checked(slot_ids)]

    def is_written(self, slot: int) -> bool:
        self._check(slot)
        return bool(self._written[slot])

    def clone_slot_from(self, dst_slot: int, other: "EmbedStore", src_slot: int) -> None:
        """Copy one slot's full state (vector, position, written flag) from
        another store — the disaggregation handoff path migrating embeds
        between devices.  Content-exact so sampled distributions are
        bit-identical on the destination."""
        self._check(dst_slot)
        other._check(src_slot)
        self._data[dst_slot] = other._data[src_slot]
        self._positions[dst_slot] = other._positions[src_slot]
        self._written[dst_slot] = other._written[src_slot]

    def _check(self, slot: int) -> None:
        if not self._pool.is_allocated(slot):
            raise ResourceError(f"embedding slot {slot} is not allocated")

    @property
    def num_free(self) -> int:
        return self._pool.num_free

    @property
    def num_allocated(self) -> int:
        return self._pool.num_allocated

    @property
    def capacity(self) -> int:
        return self._pool.capacity


class DeviceMemory:
    """The device's physical memory: one KV page store + one embed store."""

    def __init__(self, model_config: ModelConfig, gpu_config: Optional[GpuConfig] = None) -> None:
        gpu_config = gpu_config or GpuConfig()
        self.gpu_config = gpu_config
        self.model_config = model_config
        self.kv_pages = KvPageStore(model_config, gpu_config.num_kv_pages)
        self.embeds = EmbedStore(model_config, gpu_config.num_embed_slots)

    @property
    def kv_tokens_capacity(self) -> int:
        return self.kv_pages.capacity * self.model_config.kv_page_size
