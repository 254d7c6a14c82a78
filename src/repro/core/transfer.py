"""Prefill/decode disaggregation: the KV transfer scheduler.

Under ``placement_policy="disaggregated"`` every inferlet prefills on a
prefill shard and migrates to a decode shard when its first sampled token
retires (docs/ARCHITECTURE.md, "Prefill/decode disaggregation").  This
module keeps the decisions in between; the move is
:meth:`repro.core.service.ModelService.move` and every copy, wire and
charge the cluster's :class:`~repro.core.mover.KvMover`:

* **Which pages stream** — as prefill commits KV (each head slice of a
  chunked prefill, or a whole forward), the provably-full pages
  (``committed // page_size``: auto-offset commits densely from the front)
  are staged on the decode shard while the prefill tail still runs.
  Staging takes free pages only; what does not fit stays queued for the
  handoff tail, which competes for room like any allocation.
* **Which are dirty** — a later command that writes a staged page dirties
  it at submit time; dirty pages are re-copied in the tail, so the
  migrated state is content-exact.
* **Whether to hand off** — on a ``sample``'s completion, registered at
  submit time so under FIFO ``call_soon`` it runs before the program
  resumes: the owner is quiescent and the whole migration happens before
  its first decode command.  The decode shard is charged the link stall
  plus the tail's landing (a ``kv_handoff`` batch).

Staged pages are held only by their staging pin until the handoff adopts
them, so an abort (:meth:`KvTransferScheduler.forget`) frees them all, and
the source is untouched until the tail's capacity check has succeeded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.errors import OutOfResourcesError, SchedulingError
from repro.core.command_queue import Command
from repro.core.metrics import SystemMetrics
from repro.core.mover import KvMover
from repro.sim.simulator import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.core.inferlet import InferletInstance
    from repro.core.qos import QosService
    from repro.core.router import DeviceShard, Router


@dataclass
class _StagedPage:
    """One KV page copied ahead of the handoff."""

    dst_pid: int
    clean: bool = True


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
    queued: List[int] = field(default_factory=list)  # full, not yet staged
    link_ready: float = 0.0  # when every streamed page has landed


class KvTransferScheduler:
    """Streams committed KV to decode shards and runs the handoff."""

    def __init__(
        self,
        sim: Simulator,
        router: "Router",
        mover: KvMover,
        metrics: SystemMetrics,
        ensure_capacity,
        qos: Optional["QosService"] = None,
        trace=None,
        retry=None,
    ) -> None:
        self.sim = sim
        self.shards = router.shards
        self.router = router
        self.mover = mover
        self.metrics = metrics
        self.qos = qos
        # Flight recorder (repro.core.trace): "kv_stream" spans per flush, a
        # "handoff" span over stall+landing (the mover traces the wire).
        self._trace = trace
        self.page_size = mover.cost_model.config.kv_page_size
        self._streams: Dict[str, _Stream] = {}
        self._forwards: Dict[int, _ForwardTrack] = {}  # parent command_id ->
        # The controller's swap-first / terminate-last reclamation
        # ``(dst_shard, instance, kv_pages, embeds)``: the handoff tail
        # competes for room under the same policy as any allocation.
        self._ensure_capacity = ensure_capacity
        # Chaos plane (repro.core.retry): a refused handoff is retried on a
        # backoff timer (a quiescent owner completes no further sample).
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
            self._forwards[command.command_id] = _ForwardTrack(
                owner=owner,
                total_tokens=command.input_tokens,
                ikv=list(command.payload.get("ikv", [])),
                okv=list(command.payload.get("okv", [])),
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
        track = self._forwards.get(chunk.parent.command_id) if chunk.parent is not None else None
        if track is not None:
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
        if stream.queued:
            self._flush_queued(track.owner, stream)

    def _flush_queued(self, owner: str, stream: _Stream) -> None:
        try:
            dst = self._destination(stream)
        except SchedulingError:
            # No healthy decode shard right now (chaos plane): keep the
            # pages queued; the next commit or the handoff retries.
            return
        dst_pids, arrival = self.mover.stage(
            self.shards[stream.src_index], dst, stream.queued
        )
        if not dst_pids:
            return  # the decode shard is full: the handoff tail carries them
        n_pages = len(dst_pids)
        for src_pid, dst_pid in zip(stream.queued, dst_pids):
            stream.staged[src_pid] = _StagedPage(dst_pid=dst_pid)
        del stream.queued[:n_pages]
        stream.link_ready = max(stream.link_ready, arrival)
        self.metrics.disagg_pages_streamed += n_pages
        self.metrics.disagg_bytes_streamed += n_pages * self.mover.page_bytes
        if self._trace is not None:
            self._trace.complete(
                "kv_stream",
                "transfer",
                self.sim.now,
                end=arrival,
                shard=stream.src_index,
                inferlet=owner,
                args={
                    "pages": n_pages,
                    "bytes": n_pages * self.mover.page_bytes,
                    "dst": dst.index,
                },
            )

    def _destination(self, stream: _Stream) -> "DeviceShard":
        """The decode shard this stream targets, chosen once, lazily, with
        the streams in flight counted toward their targets' occupancy (their
        owners are still placed on prefill shards, so without them every
        stream on an idle cluster would pick the same first decode shard)."""
        if stream.dst_index is None:
            stream.dst_index = self._choose_decode_shard().index
        return self.shards[stream.dst_index]

    def _choose_decode_shard(self) -> "DeviceShard":
        inflight: Dict[int, float] = {}
        for other in self._streams.values():
            if other.dst_index is not None:
                inflight[other.dst_index] = inflight.get(other.dst_index, 0.0) + 1.0
        return self.router.choose_decode_shard(extra_occupancy=inflight)

    def _unstage(self, stream: _Stream) -> None:
        """Drop ``stream``'s staging pins: adopted, aborted or re-planned."""
        if stream.staged:
            self.mover.unstage(
                self.shards[stream.dst_index],
                [entry.dst_pid for entry in stream.staged.values()],
            )

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
        adopted = set()  # staged source pages a vid took already
        for vid in sorted(kv_map):
            src_pid = kv_map[vid]
            entry = staged.get(src_pid)
            if entry is not None and entry.clean and src_pid not in adopted:
                adopted.add(src_pid)
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
            return self._refuse(instance)
        try:
            if tail or emb_map:
                self._ensure_capacity(dst, instance, len(tail), len(emb_map))
        except OutOfResourcesError:
            return self._refuse(instance)

        # Tail KV pages and embed slots (full-state clones, so downstream
        # sampling is bit-identical); the move below takes the owning
        # reference.
        tail_pids = dst.memory.kv_pages.allocate(len(tail))
        self.mover.copy(src, dst, [src_pid for _, src_pid in tail], tail_pids)
        new_kv.update(zip([vid for vid, _ in tail], tail_pids))
        emb_items = sorted(emb_map.items())
        dst_slots = self.mover.clone_embeds(src, dst, [slot for _, slot in emb_items])
        new_emb = dict(zip([vid for vid, _ in emb_items], dst_slots))

        # The point of no return: the space, the queues and the placement
        # record move; then the staging pins drop — consumed pages settle
        # at one owning reference, stale ones free.
        src.service.move(instance, dst, new_kv, new_emb)
        if stream is not None:
            self._unstage(stream)
        if self.qos is not None:
            self.qos.note_handoff(instance)

        # Timing: the decode shard cannot touch the migrated KV before the
        # link has drained (streamed pages still in flight) and the tail
        # has both crossed the wire and landed in the paged cache.
        now = self.sim.now
        stall, landing = self.mover.land(
            src.index,
            dst,
            "kv_handoff",
            len(tail),
            ready=stream.link_ready if stream is not None else 0.0,
        )
        self.metrics.disagg_bytes_streamed += len(tail) * self.mover.page_bytes
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

    def _refuse(self, instance: "InferletInstance") -> bool:
        """No destination or no room there: the source stays intact; back
        off and retry — the owner is quiescent, so no further sample
        completion will re-trigger the handoff."""
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
            requeue = [pid for pid, entry in sorted(stream.staged.items()) if entry.clean]
            self._unstage(stream)
            queued = [pid for pid in requeue if pid not in stream.queued] + stream.queued
            self._streams[owner] = _Stream(src_index=stream.src_index, queued=queued)
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
        if stream is not None:
            self._unstage(stream)
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
