"""Prefill/decode disaggregation: the KV transfer scheduler.

Under ``placement_policy="disaggregated"`` the cluster's shards split
into *prefill* and *decode* roles (``repro.core.router``): every new
inferlet is admitted onto a prefill shard, chews its prompt there
(optionally via chunked prefill), and migrates to a decode shard the
moment its first sampled token retires.  This module owns everything
between those two states but the move itself
(:meth:`repro.core.service.ModelService.move`, shared with failover):

* **Overlapped streaming** — as prefill commits KV pages (each completed
  head slice of a chunked prefill, or a whole forward), the provably-full
  pages are copied to the chosen decode shard ahead of time over a modeled
  device-to-device :class:`~repro.sim.network.NetworkLink`, so the
  transfer overlaps the tail of the prefill instead of serialising behind
  it.  A page is *provably full* after ``committed // page_size`` pages:
  auto-offset commits tokens densely from the front, and pre-existing
  fill only makes the prefix fuller.
* **Dirty tracking** — any later command that writes a staged page (mask,
  clear, copy, another forward) marks the staged copy dirty at submit
  time; dirty pages are re-copied in the synchronous handoff tail, so the
  migrated state is always content-exact.
* **The handoff** — triggered by the completion of a ``sample`` command
  while the owner still lives on a prefill shard.  The completion
  callback is registered at submit time, so under the simulator's FIFO
  ``call_soon`` it runs *before* the program's own continuation: the
  owner is provably quiescent (no in-air commands, every queue empty) and
  the whole migration — KV pages, embed slots, swapped host slots, queue
  objects, router placement, swap/QoS registrations — happens
  synchronously before the program can submit its first decode command.
  The decode shard is charged a ``kv_handoff`` batch covering the link
  stall (time left until the streamed pages have drained) plus the
  landing cost of the tail pages.

Failure safety: staged destination pages are held only by this
scheduler's pin until the handoff adopts them, so an abort at any point
(:meth:`KvTransferScheduler.forget`, called when the inferlet exits or is
terminated) simply unpins them back to the free pool — nothing leaks, and
the source state is never touched before the capacity check for the tail
has succeeded.

Everything here is event-count deterministic: link occupancy is plain
arithmetic (:meth:`NetworkLink.reserve`), copies are content-exact, and
token sampling uses the per-instance rng — so a run with disaggregation
on produces bit-identical tokens to the same run with it off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.errors import OutOfResourcesError, SchedulingError
from repro.core.command_queue import Command
from repro.core.metrics import SystemMetrics
from repro.gpu.host_pool import kv_page_bytes
from repro.sim.latency import ConstantLatency, milliseconds
from repro.sim.network import NetworkLink
from repro.sim.simulator import Simulator

# Model constants, not configurable.
#: Newly committed (provably full) pages that trigger a streaming event
#: during prefill; larger would trade overlap for fewer, bigger transfers.
STREAM_MIN_PAGES = 1
#: The modeled device-to-device interconnect for KV streaming: one-way
#: latency plus a bandwidth term, approximating a PCIe-class link (the
#: per-page landing cost on the destination device comes from
#: ``KernelCostModel.kv_transfer_cost``).
LINK_LATENCY_MS = 0.05
LINK_GBYTES_PER_S = 16.0

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.core.inferlet import InferletInstance
    from repro.core.qos import QosService
    from repro.core.router import DeviceShard, Router
    from repro.gpu.kernels import KernelCostModel


@dataclass
class _StagedPage:
    """One KV page copied ahead of the handoff."""

    dst_pid: int
    clean: bool = True
    consumed: bool = False


@dataclass
class _ForwardTrack:
    """Commit progress of one in-flight prefill forward."""

    owner: str
    total_tokens: int
    ikv: List[int]
    okv: List[int]
    committed: int = 0
    ikv_staged: bool = False
    okv_staged: int = 0  # pages of the okv prefix already queued


@dataclass
class _Stream:
    """Per-owner staging state between first commit and handoff."""

    src_index: int
    dst_index: Optional[int] = None
    staged: Dict[int, _StagedPage] = field(default_factory=dict)  # src_pid ->
    queued: List[int] = field(default_factory=list)  # awaiting min-pages flush
    link_ready: float = 0.0  # when every streamed page has landed


class KvTransferScheduler:
    """Streams committed KV to decode shards and runs the handoff."""

    def __init__(
        self,
        sim: Simulator,
        router: "Router",
        cost_model: "KernelCostModel",
        metrics: SystemMetrics,
        ensure_capacity,
        qos: Optional["QosService"] = None,
        trace=None,
        retry=None,
    ) -> None:
        self.sim = sim
        self.shards = router.shards
        self.router = router
        self.cost_model = cost_model
        self.metrics = metrics
        self.qos = qos
        # Flight recorder (repro.core.trace): "kv_stream" spans per flush,
        # a "handoff" span covering stall+landing, and wire spans via the
        # link tracer hook.  None = off, no hook installed anywhere.
        self._trace = trace
        self.page_size = cost_model.config.kv_page_size
        self.page_bytes = kv_page_bytes(cost_model.config)
        self._streams: Dict[str, _Stream] = {}
        self._forwards: Dict[int, _ForwardTrack] = {}  # parent command_id ->
        self._links: Dict[Tuple[int, int], NetworkLink] = {}
        # The controller's swap-first / terminate-last reclamation path
        # (``(dst_shard, instance, kv_pages, embeds)``), so the handoff tail
        # competes for destination capacity under exactly the same policy
        # as any allocation.
        self._ensure_capacity = ensure_capacity
        # Chaos plane (repro.core.retry): given its RetryPolicy, refused
        # handoffs (no destination capacity / no healthy decode shard) are
        # retried on a backoff timer instead of waiting for the next sample
        # completion that will never come on a quiescent owner.
        self._retry = retry
        self._retry_attempts: Dict[str, int] = {}

    # -- controller-facing hooks (submit path) -----------------------------

    def on_command_submitted(self, instance: "InferletInstance", command: Command) -> None:
        """Observe one command of a prefill-shard resident at submit time.

        Three jobs: conservatively dirty any staged page the command may
        write (the write is *issued* now even if it executes later);
        track prefill forwards so their commit progress can be staged; and
        arm the handoff on sample completion.
        """
        owner = instance.instance_id
        stream = self._streams.get(owner)
        if stream is not None and command.writes:
            for tag, pid in command.writes:
                if tag != "kv":
                    continue
                entry = stream.staged.get(pid)
                if entry is not None:
                    entry.clean = False
                # A queued-but-unflushed page is simply no longer stageable.
                if pid in stream.queued:
                    stream.queued.remove(pid)
        if command.kind == "forward" and command.input_tokens > 1:
            okv = list(command.payload.get("okv", []))
            self._forwards[command.command_id] = _ForwardTrack(
                owner=owner,
                total_tokens=command.input_tokens,
                ikv=list(command.payload.get("ikv", [])),
                okv=okv,
            )
            command.future.add_done_callback(
                lambda fut, c=command: self._on_forward_done(c, fut)
            )
        elif command.kind == "sample":
            command.future.add_done_callback(
                lambda fut, inst=instance: self._on_sample_done(inst, fut)
            )

    def on_chunk_complete(self, chunk: Command) -> None:
        """One head slice of a chunked prefill retired successfully."""
        parent = chunk.parent
        if parent is None:
            return
        track = self._forwards.get(parent.command_id)
        if track is None:
            return
        track.committed += chunk.input_tokens
        self._stage_from_track(track)

    def _on_forward_done(self, command: Command, future) -> None:
        track = self._forwards.pop(command.command_id, None)
        if track is None:
            return
        if future.exception() is not None or future.result() is None:
            return  # failed or dropped: nothing committed by this command
        track.committed = track.total_tokens
        self._stage_from_track(track)

    # -- staging ------------------------------------------------------------

    def _stream_for(self, owner: str) -> Optional[_Stream]:
        if not self.router.on_prefill_shard(owner):
            return None
        stream = self._streams.get(owner)
        if stream is None:
            stream = _Stream(src_index=self.router.shard_for(owner).index)
            self._streams[owner] = stream
        return stream

    def _stage_from_track(self, track: _ForwardTrack) -> None:
        stream = self._stream_for(track.owner)
        if stream is None:
            return
        want: List[int] = []
        if not track.ikv_staged:
            # Context pages the forward only reads are sealed already.
            track.ikv_staged = True
            okv_set = set(track.okv)
            want.extend(pid for pid in track.ikv if pid not in okv_set)
        full = min(len(track.okv), track.committed // self.page_size)
        if full > track.okv_staged:
            want.extend(track.okv[track.okv_staged : full])
            track.okv_staged = full
        for pid in want:
            if pid not in stream.staged and pid not in stream.queued:
                stream.queued.append(pid)
        if len(stream.queued) >= STREAM_MIN_PAGES:
            self._flush_queued(track.owner, stream)

    def _flush_queued(self, owner: str, stream: _Stream) -> None:
        if not stream.queued:
            return
        src = self.shards[stream.src_index]
        try:
            dst = self._destination(stream)
        except SchedulingError:
            # No healthy decode shard right now (chaos plane): keep the
            # pages queued; the next commit or the handoff retries.
            return
        pids = stream.queued
        stream.queued = []
        dst_pids = dst.memory.kv_pages.allocate(len(pids))
        for src_pid, dst_pid in zip(pids, dst_pids):
            # The transfer holds the only reference until the handoff
            # adopts the page (or forget() aborts the stream).
            dst.resources.pin_kv(dst_pid)
            dst.memory.kv_pages.page(dst_pid).copy_page_from(
                src.memory.kv_pages.page(src_pid)
            )
            stream.staged[src_pid] = _StagedPage(dst_pid=dst_pid)
        arrival = self._link(stream.src_index, dst.index).reserve(
            len(pids) * self.page_bytes, now=self.sim.now
        )
        stream.link_ready = max(stream.link_ready, arrival)
        self.metrics.disagg_pages_streamed += len(pids)
        self.metrics.disagg_bytes_streamed += len(pids) * self.page_bytes
        if self._trace is not None:
            self._trace.complete(
                "kv_stream",
                "transfer",
                self.sim.now,
                end=arrival,
                shard=stream.src_index,
                inferlet=owner,
                args={
                    "pages": len(pids),
                    "bytes": len(pids) * self.page_bytes,
                    "dst": dst.index,
                },
            )

    def _destination(self, stream: _Stream) -> "DeviceShard":
        """The decode shard this stream targets (chosen once, lazily).

        Streams still in flight count toward their target's occupancy:
        placement alone cannot see them (the owners are still placed on
        prefill shards), and without the correction every stream started
        on an idle cluster would resolve the least-loaded tie to the same
        first decode shard.
        """
        if stream.dst_index is None:
            stream.dst_index = self._choose_decode_shard().index
        return self.shards[stream.dst_index]

    def _choose_decode_shard(self) -> "DeviceShard":
        inflight: Dict[int, float] = {}
        for other in self._streams.values():
            if other.dst_index is not None:
                inflight[other.dst_index] = inflight.get(other.dst_index, 0.0) + 1.0
        return self.router.choose_decode_shard(extra_occupancy=inflight)

    def _link(self, src_index: int, dst_index: int) -> NetworkLink:
        key = (src_index, dst_index)
        link = self._links.get(key)
        if link is None:
            link = NetworkLink(
                self.sim,
                latency=ConstantLatency(milliseconds(LINK_LATENCY_MS)),
                name=f"kvlink:{src_index}->{dst_index}",
                bytes_per_second=LINK_GBYTES_PER_S * 1e9,
            )
            if self._trace is not None:
                link.set_tracer(self._trace_wire)
            self._links[key] = link
        return link

    # -- handoff -------------------------------------------------------------

    def _on_sample_done(self, instance: "InferletInstance", future) -> None:
        if future.exception() is not None or future.result() is None:
            return  # failed / dropped sample: the program never resumes normally
        self.maybe_handoff(instance)

    def maybe_handoff(self, instance: "InferletInstance") -> bool:
        """Migrate ``instance`` to a decode shard if it is safe right now.

        Returns True on a completed handoff.  A refusal (non-quiescent
        owner, no destination capacity) is counted and retried at the next
        sample completion; the source state is left fully intact.
        """
        owner = instance.instance_id
        src = instance.placements.get(self.router.model)
        if src is None or src.role != "prefill":
            return False
        if src.service.swap.is_swapped(owner) or not src.quiescent(instance):
            self.metrics.disagg_handoff_failures += 1
            return False
        stream = self._streams.get(owner)
        staged = stream.staged if stream is not None else {}

        kv_map = src.resources.kv_mapping(owner)
        emb_map = src.resources.emb_mapping(owner)
        new_kv: Dict[int, int] = {}
        tail: List[Tuple[int, int]] = []  # (vid, src_pid) copied synchronously
        for vid in sorted(kv_map):
            src_pid = kv_map[vid]
            entry = staged.get(src_pid)
            if entry is not None and entry.clean and not entry.consumed:
                entry.consumed = True
                new_kv[vid] = entry.dst_pid
            else:
                # Never staged, staged-then-dirtied, rebound to a different
                # physical page, or aliased by a vid served already: copy
                # in the tail.
                tail.append((vid, src_pid))

        try:
            if stream is not None and stream.dst_index is not None:
                dst = self.shards[stream.dst_index]
            else:
                # Nothing was ever streamed (short prompt below the
                # page/chunk granularity): pick a destination now, still
                # counting the streams other owners have in flight.
                dst = self._choose_decode_shard()
        except SchedulingError:  # every decode shard is down (chaos plane)
            return self._refuse(instance, staged)
        try:
            if tail or emb_map:
                self._ensure_capacity(dst, instance, len(tail), len(emb_map))
        except OutOfResourcesError:
            return self._refuse(instance, staged)

        # Tail KV pages: allocate, content-exact copy (the move below takes
        # the owning reference).
        tail_pids = dst.memory.kv_pages.allocate(len(tail))
        for (vid, src_pid), dst_pid in zip(tail, tail_pids):
            dst.memory.kv_pages.page(dst_pid).copy_page_from(
                src.memory.kv_pages.page(src_pid)
            )
            new_kv[vid] = dst_pid
        # Embed slots: full-state clones (vector, position, written flag) so
        # downstream sampling is bit-identical.
        emb_items = sorted(emb_map.items())
        dst_slots = dst.memory.embeds.allocate(len(emb_items))
        new_emb: Dict[int, int] = {}
        for (vid, src_slot), dst_slot in zip(emb_items, dst_slots):
            dst.memory.embeds.clone_slot_from(dst_slot, src.memory.embeds, src_slot)
            new_emb[vid] = dst_slot

        # The point of no return: the space, the queues and the placement
        # record move; then the transfer's staging pins drop — consumed
        # pages settle at one owning reference, stale ones free.
        src.service.move(instance, dst, new_kv, new_emb)
        for entry in staged.values():
            dst.resources.unpin_kv(entry.dst_pid)
        if self.qos is not None:
            self.qos.note_handoff(instance)

        # Timing: the decode shard cannot touch the migrated KV before the
        # link has drained (streamed pages still in flight) and the tail
        # has both crossed the wire and landed in the paged cache.
        now = self.sim.now
        ready = stream.link_ready if stream is not None else 0.0
        if tail:
            ready = max(
                ready,
                self._link(src.index, dst.index).reserve(
                    len(tail) * self.page_bytes, now=now
                ),
            )
            self.metrics.disagg_bytes_streamed += len(tail) * self.page_bytes
        stall = max(0.0, ready - now)
        landing = self.cost_model.kv_transfer_cost(len(tail)) if tail else 0.0
        if stall + landing > 0.0:
            dst.device.submit(
                kind="kv_handoff",
                run=lambda: None,
                cost_seconds=stall + landing,
                size=len(tail),
            )
        self.metrics.disagg_handoffs += 1
        self.metrics.disagg_pages_tail += len(tail)
        self.metrics.disagg_handoff_stall_seconds += stall
        if self._trace is not None:
            self._trace.instant(
                "migrate",
                "transfer",
                shard=dst.index,
                inferlet=owner,
                args={"src": src.index, "dst": dst.index},
            )
            if stall + landing > 0.0:
                # The decode side cannot serve this owner before the link
                # drains and the tail lands — the TTFT-domain handoff cost.
                self._trace.complete(
                    "handoff",
                    "transfer",
                    now,
                    end=now + stall + landing,
                    shard=dst.index,
                    inferlet=owner,
                    args={"stall": stall, "landing": landing, "tail_pages": len(tail)},
                )

        self._streams.pop(owner, None)
        self._retry_attempts.pop(owner, None)
        self._drop_tracks(owner)
        return True

    def _refuse(self, instance: "InferletInstance", staged: Dict[int, _StagedPage]) -> bool:
        """No destination or no room there: the source stays intact; back
        off and retry — the owner is quiescent, so no further sample
        completion will re-trigger the handoff."""
        for entry in staged.values():
            entry.consumed = False
        self.metrics.disagg_handoff_failures += 1
        self._schedule_retry(instance)
        return False

    # -- chaos plane ----------------------------------------------------------

    def _schedule_retry(self, instance: "InferletInstance") -> None:
        """Back off and re-attempt a refused handoff (retry policy installed)."""
        if self._retry is None:
            return
        owner = instance.instance_id
        attempt = self._retry_attempts.get(owner, 0)
        delay = self._retry.charge(
            attempt, "handoff", self.metrics, self._trace, self.sim.now, inferlet=owner
        )
        if delay is None:
            self._retry_attempts.pop(owner, None)
            return
        self._retry_attempts[owner] = attempt + 1
        self.sim.schedule(delay, self._retry_handoff, instance)

    def _retry_handoff(self, instance: "InferletInstance") -> None:
        if instance.finished:
            self._retry_attempts.pop(instance.instance_id, None)
            return
        self.maybe_handoff(instance)

    def on_shard_down(self, index: int) -> None:
        """Re-plan streams targeting a dead decode shard.

        Staged destination pages are unpinned back to the dead shard's
        free pool (pool conservation: device death does not destroy the
        paged cache bookkeeping), clean staged source pages re-queue for
        streaming to a fresh destination chosen at the next flush, and
        dirtied ones fall back to the handoff's synchronous tail copy.
        """
        for owner in sorted(self._streams):
            stream = self._streams[owner]
            if stream.dst_index != index:
                continue
            dst = self.shards[index]
            requeue = [pid for pid, entry in sorted(stream.staged.items()) if entry.clean]
            for entry in stream.staged.values():
                dst.resources.unpin_kv(entry.dst_pid)
            stream.staged = {}
            already = set(stream.queued)
            stream.queued = [pid for pid in requeue if pid not in already] + stream.queued
            stream.dst_index = None
            stream.link_ready = 0.0
            self.metrics.disagg_replans += 1
            if self._trace is not None:
                self._trace.instant(
                    "kv_stream_replan",
                    "fault",
                    inferlet=owner,
                    args={"dead_shard": index, "requeued_pages": len(requeue)},
                )

    # -- teardown -------------------------------------------------------------

    def forget(self, owner: str) -> None:
        """Abort any stream of ``owner``; staged destination pages free."""
        stream = self._streams.pop(owner, None)
        if stream is not None and stream.staged:
            if stream.dst_index is None:  # pragma: no cover - staged implies dst
                raise SchedulingError("staged pages without a destination shard")
            dst = self.shards[stream.dst_index]
            for entry in stream.staged.values():
                dst.resources.unpin_kv(entry.dst_pid)
        self._retry_attempts.pop(owner, None)
        self._drop_tracks(owner)

    def _drop_tracks(self, owner: str) -> None:
        stale = [cid for cid, track in self._forwards.items() if track.owner == owner]
        for cid in stale:
            del self._forwards[cid]

    # -- inspection (tests, experiments) --------------------------------------

    @property
    def active_streams(self) -> int:
        return len(self._streams)

    def staged_pages(self, owner: str) -> int:
        stream = self._streams.get(owner)
        return len(stream.staged) if stream is not None else 0

    def links(self) -> List[NetworkLink]:
        return [self._links[key] for key in sorted(self._links)]

    def _trace_wire(self, link: NetworkLink, start: float, end: float, size_bytes: int) -> None:
        """Link tracer hook: one wire-occupancy span per reservation."""
        self._trace.complete(
            link.name,
            "net",
            start,
            end=end,
            args={"bytes": size_bytes},
        )
