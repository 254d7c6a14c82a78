"""The cluster router: placing inferlets onto devices.

With ``GpuConfig.num_devices > 1`` each served model becomes a cluster of
:class:`DeviceShard` replicas — one device, one memory, one set of API
handlers, one adaptive batch scheduler per shard.  An inferlet is *placed*
onto exactly one shard per model when it registers with the controller;
every queue it creates and every page it allocates then lives on that
shard, so the per-device schedulers never have to coordinate.

Placement is a pluggable policy (:data:`PLACEMENT_POLICIES`):

* ``round_robin``   — cycle through the shards in order; the baseline
  data-parallel strategy and the default.
* ``least_loaded``  — pick the shard with the fewest live inferlets,
  breaking ties by pending work (queued commands + device backlog), then
  by index.  Deterministic given the simulator's event order.
* ``cache_affinity`` — if the inferlet declares a placement hint (the name
  of a KV export it intends to import, see
  ``InferletProgram.placement_hint``) and a shard holds an export of
  exactly that name, place it there so the import is a local remap instead
  of a device-to-device copy; otherwise fall back to ``least_loaded``.
* ``disaggregated`` — prefill/decode disaggregation (this policy is the
  plane's one switch): the first ``prefill_shards``
  shards take every new inferlet (prompts are chewed there, optionally via
  chunked prefill), and once the first sampled token retires the KV
  transfer scheduler (:mod:`repro.core.transfer`) migrates the inferlet to
  a decode shard chosen ``least_loaded`` among the rest.  Placement among
  prefill shards scores export hints and prefix-cache affinity exactly
  like ``cache_affinity`` but restricted to the prefill role; repeated
  ``prefix_hint`` prompts remember their shard so their cached prefixes
  stay hot.

:class:`ClusterSchedulerStats` merges the per-shard
:class:`~repro.core.scheduler.SchedulerStats` so experiments read one
aggregate regardless of cluster size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from repro.errors import ReproError, SchedulingError, ShardUnavailableError
from repro.core.config import PLACEMENT_POLICIES
from repro.core.handlers import ApiHandlers
from repro.core.resources import ResourceManager
from repro.core.scheduler import BatchScheduler, SchedulerStats
from repro.gpu.device import SimDevice, sum_stats
from repro.gpu.memory import DeviceMemory

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.core.inferlet import InferletInstance
    from repro.core.prefix_cache import PrefixCacheService
    from repro.core.service import ModelService

__all__ = [
    "PLACEMENT_POLICIES",
    "DeviceShard",
    "Router",
    "ClusterSchedulerStats",
    "aggregate_scheduler_stats",
]


@dataclass
class DeviceShard:
    """One device-parallel replica of a model's inference layer.

    It names its cluster (``service``), so the shard an inferlet lives on —
    its *placement record*, ``instance.placements[model]``, written only by
    :class:`Router`'s ``place`` / ``migrate`` / ``release`` — is all an API
    call needs resolved."""

    index: int
    device: SimDevice
    memory: DeviceMemory
    handlers: ApiHandlers
    scheduler: BatchScheduler
    resources: ResourceManager
    # The shard's automatic prefix cache; None unless
    # ControlLayerConfig.prefix_cache is enabled.
    prefix_cache: Optional["PrefixCacheService"] = None
    # Disaggregation role: "mixed" (default), "prefill" or "decode".  Set
    # by ModelService.build under placement_policy="disaggregated";
    # purely observational outside it.
    role: str = "mixed"
    # The cluster this shard is part of; set by the owning ModelService.
    service: Optional["ModelService"] = None

    @property
    def name(self) -> str:
        return self.device.name

    @property
    def pending_work(self) -> int:
        """Commands awaiting dispatch plus batches queued on the device."""
        return self.scheduler.total_pending + self.device.queue_depth + (
            1 if self.device.busy else 0
        )

    def readings(self) -> Dict[str, float]:
        """Live load readings (pure reads), shared by the trace telemetry
        sampler and the monitor scraper."""
        kv, embeds = self.memory.kv_pages, self.memory.embeds
        return {
            "queue_depth": self.scheduler.total_pending,
            "kv_occupancy": 1.0 - kv.num_free / kv.capacity,
            "embed_occupancy": 1.0 - embeds.num_free / embeds.capacity,
            "busy_seconds": self.device.stats.busy_seconds,
        }

    def quiescent(self, instance: "InferletInstance") -> bool:
        """No command of ``instance`` is anywhere between issue and retire
        here, so no resolved physical id of its space can still execute —
        the precondition of moving its state (handoff, relaunch, swap-out).
        Busy pins held by *other* owners (cache-shared prefix reads in
        flight) do not count: a move copies pages without mutating them,
        and every page an in-flight command can observe is kept alive by
        the prefix cache's own pin or by the reader's space reference."""
        owner = instance.instance_id
        return (
            instance.in_air_commands == 0
            and self.resources.has_space(owner)
            and not any(
                queue.pending_count or queue.inflight_count
                for queue in self.scheduler.queues_for_owner(owner)
            )
        )


class Router:
    """Places inferlet instances onto the shards of one model service.

    ``is_swapped`` (installed when the tiered KV memory subsystem is
    active, see :mod:`repro.core.swap`) reports inferlets whose pages are
    currently staged in host memory; they occupy no device HBM and compute
    nothing, so ``least_loaded`` placement ignores them.
    """

    def __init__(
        self,
        shards: Sequence[DeviceShard],
        policy: str = "round_robin",
        is_swapped: Optional[Callable[[str], bool]] = None,
        placement_weight: Optional[Callable[[str], float]] = None,
        prefill_shards: int = 0,
        trace=None,
        health_probe: Optional[Callable[[int], bool]] = None,
    ) -> None:
        if not shards:
            raise ReproError("router needs at least one shard")
        if policy not in PLACEMENT_POLICIES:
            raise ReproError(
                f"unknown placement policy {policy!r}; have {sorted(PLACEMENT_POLICIES)}"
            )
        self.shards = list(shards)
        self.policy = policy
        # The key of this cluster's placement record on every instance.
        self.model = self.shards[0].resources.model_name
        self.is_swapped = is_swapped
        # Chaos plane (repro.core.health): shard-index predicate reporting
        # whether a shard may receive new placements.  None — the off-knob
        # path — keeps every policy's arithmetic untouched; installed, any
        # shard the probe rejects (down or draining) is skipped, and an
        # empty eligible set raises ShardUnavailableError.
        self.health_probe = health_probe
        # QoS fair share (repro.core.qos): per-instance occupancy weight for
        # least_loaded placement — better-class inferlets count heavier, so
        # interactive tenants spread across shards instead of queueing
        # behind one shard's batch backlog.  None = every instance counts 1.
        self.placement_weight = placement_weight
        # Disaggregation: shards [0, prefill_shards) take new inferlets
        # (prefill role), the rest receive them via migrate().  0 = no
        # role split (every policy but "disaggregated").
        if policy == "disaggregated":
            if prefill_shards < 1 or prefill_shards >= len(shards):
                raise ReproError(
                    "disaggregated placement needs 1 <= prefill_shards < num shards"
                )
        self.prefill_shards = prefill_shards if policy == "disaggregated" else 0
        self._placements: Dict[str, int] = {}
        self._rr_next = 0
        # Prompt-affinity memory for the disaggregated policy: repeated
        # prefix_hint prompts return to the prefill shard that already holds
        # their cached prefix.  Instance-keyed so release() can retire a
        # hint when its last holder exits (stale entries would keep scoring
        # re-launches against a shard whose cache may long have evicted the
        # prefix).
        self._hint_shard: Dict[tuple, int] = {}
        self._instance_hints: Dict[str, tuple] = {}
        # Flight recorder (repro.core.trace); None when tracing is off.
        self._trace = trace

    # -- placement -------------------------------------------------------------

    def place(self, instance: "InferletInstance") -> DeviceShard:
        """Assign an inferlet to a shard; idempotent per instance.  Only
        ``cache_affinity`` and ``disaggregated`` read the program's
        ``placement_hint`` / ``prefix_hint``."""
        instance_id = instance.instance_id
        if instance_id in self._placements:
            return self.shards[self._placements[instance_id]]
        program = instance.program
        if self.policy == "round_robin":
            index = self._place_round_robin()
        elif self.policy == "least_loaded":
            index = self._place_least_loaded()
        elif self.policy == "disaggregated":
            index = self._place_disaggregated(
                instance_id, program.placement_hint, self._prefix_tokens(program)
            )
        else:
            index = self._place_cache_affinity(
                program.placement_hint, self._prefix_tokens(program)
            )
        self._record(instance, index)
        if self._trace is not None:
            self._trace.instant(
                "place",
                "sched",
                shard=index,
                inferlet=instance_id,
                args={"policy": self.policy, "role": self.shards[index].role},
            )
        return self.shards[index]

    def _prefix_tokens(self, program) -> Optional[List[int]]:
        hint = program.prefix_hint
        if isinstance(hint, str):
            return self.shards[0].service.entry.tokenizer.encode(hint)
        return None if hint is None else list(hint)

    def _record(self, instance: "InferletInstance", index: int) -> None:
        self._placements[instance.instance_id] = index
        instance.placements[self.model] = self.shards[index]

    def release(self, instance: "InferletInstance") -> None:
        instance_id = instance.instance_id
        self._placements.pop(instance_id, None)
        instance.placements.pop(self.model, None)
        # Retire the prompt-affinity memory with its last holder.  An
        # instance that migrated to a decode shard still retires the *hint*
        # entry (which points at its original prefill shard): without this,
        # a re-launch with the same prefix_hint keeps scoring against a
        # shard chosen in a long-gone load situation.
        hint_key = self._instance_hints.pop(instance_id, None)
        if hint_key is not None and hint_key not in set(self._instance_hints.values()):
            self._hint_shard.pop(hint_key, None)

    def shard_for(self, instance_id: str) -> DeviceShard:
        """Query by id (tests, tools); API calls read the record instead."""
        try:
            return self.shards[self._placements[instance_id]]
        except KeyError:
            raise SchedulingError(
                f"inferlet {instance_id!r} was never placed on this model's cluster"
            ) from None

    def instances_on(self, shard: DeviceShard) -> List[str]:
        return [iid for iid, index in self._placements.items() if index == shard.index]

    # -- disaggregation roles ----------------------------------------------------

    def is_prefill_index(self, index: int) -> bool:
        return 0 < self.prefill_shards and index < self.prefill_shards

    def decode_indices(self) -> List[int]:
        return [s.index for s in self.shards if s.index >= self.prefill_shards]

    def on_prefill_shard(self, instance_id: str) -> bool:
        index = self._placements.get(instance_id)
        return index is not None and self.is_prefill_index(index)

    def choose_decode_shard(
        self, extra_occupancy: Optional[Dict[int, float]] = None
    ) -> DeviceShard:
        """The least-loaded decode-role shard (handoff destination).

        ``extra_occupancy`` adds per-index load the placement map cannot
        see yet — the transfer scheduler passes its in-flight streams, so
        several prefills streaming concurrently spread across the decode
        role instead of all resolving the same idle-cluster tie.
        """
        if self.prefill_shards < 1:
            raise SchedulingError("cluster has no decode-role shards")
        return self.shards[
            self._place_least_loaded(
                restrict=self.decode_indices(), extra_occupancy=extra_occupancy
            )
        ]

    def migrate(self, instance: "InferletInstance", dst_index: int) -> None:
        """Re-point an already placed inferlet at another shard.

        State migration (pages, queues, swap registration) is
        :meth:`repro.core.service.ModelService.move`'s job; the router only
        rewrites the placement record, so every later API call — command
        submission, capacity reclamation, swap fault-in — resolves against
        the destination.
        """
        instance_id = instance.instance_id
        if instance_id not in self._placements:
            raise SchedulingError(
                f"cannot migrate {instance_id!r}: it was never placed"
            )
        if not 0 <= dst_index < len(self.shards):
            raise SchedulingError(f"no shard with index {dst_index}")
        self._record(instance, dst_index)

    # -- policy implementations -------------------------------------------------

    def _placeable(self, index: int) -> bool:
        return self.health_probe is None or self.health_probe(index)

    def _place_round_robin(self) -> int:
        # Advance the cursor past unplaceable shards (at most one full lap)
        # so a crashed shard drops out of the rotation without disturbing
        # the order the survivors are visited in.
        for _ in range(len(self.shards)):
            index = self._rr_next % len(self.shards)
            self._rr_next += 1
            if self._placeable(index):
                return index
        raise ShardUnavailableError("no healthy shard available for placement")

    def least_loaded_shard(self) -> DeviceShard:
        """The least-loaded placeable shard (``ShardUnavailableError`` if none)."""
        return self.shards[self._place_least_loaded()]

    def _place_least_loaded(
        self,
        restrict: Optional[Sequence[int]] = None,
        extra_occupancy: Optional[Dict[int, float]] = None,
    ) -> int:
        occupancy = {shard.index: 0.0 for shard in self.shards}
        for instance_id, placed_index in self._placements.items():
            if self.is_swapped is not None and self.is_swapped(instance_id):
                continue  # suspended to host memory: no HBM, no compute
            occupancy[placed_index] += (
                self.placement_weight(instance_id)
                if self.placement_weight is not None
                else 1
            )
        if extra_occupancy:
            for index, load in extra_occupancy.items():
                occupancy[index] = occupancy.get(index, 0.0) + load
        eligible = self.shards
        if restrict is not None:
            allowed = set(restrict)
            eligible = [shard for shard in self.shards if shard.index in allowed]
        if self.health_probe is not None:
            eligible = [shard for shard in eligible if self.health_probe(shard.index)]
            if not eligible:
                raise ShardUnavailableError("no healthy shard available for placement")
        return min(
            eligible,
            key=lambda shard: (occupancy[shard.index], shard.pending_work, shard.index),
        ).index

    def _export_holder(self, indices: Sequence[int], hint: Optional[str]) -> Optional[int]:
        # Exact export-name match only: fuzzy (prefix) matching would let one
        # generic export name capture every hinted inferlet and create a
        # hotspot the least_loaded fallback is meant to prevent.
        if hint:
            for index in indices:
                if self.shards[index].resources.has_export(hint) and self._placeable(index):
                    return index
        return None

    def _best_prefix_match(
        self, indices: Sequence[int], prefix_tokens: Sequence[int]
    ) -> Optional[int]:
        """With the automatic prefix cache on, a declared prompt prefix
        (``InferletProgram.prefix_hint``) is scored by longest page-aligned
        match against each shard's index; the winner gets the inferlet so
        its prefill reuses the cached pages locally.  Several shards tied
        at the best score are split least_loaded-style (replicated prompts
        must not pack one shard); None when nothing matches."""
        scores = {}
        for index in indices:
            cache = self.shards[index].prefix_cache
            if cache is None or not self._placeable(index):
                continue
            matched = cache.match_len(prefix_tokens)
            if matched > 0:
                scores[index] = matched
        if not scores:
            return None
        best = max(scores.values())
        tied = [index for index, score in scores.items() if score == best]
        return tied[0] if len(tied) == 1 else self._place_least_loaded(restrict=tied)

    def _place_cache_affinity(
        self, hint: Optional[str], prefix_tokens: Optional[Sequence[int]]
    ) -> int:
        everywhere = range(len(self.shards))
        index = self._export_holder(everywhere, hint)
        if index is None and prefix_tokens:
            index = self._best_prefix_match(everywhere, prefix_tokens)
        return self._place_least_loaded() if index is None else index

    def _place_disaggregated(
        self,
        instance_id: str,
        hint: Optional[str],
        prefix_tokens: Optional[Sequence[int]],
    ) -> int:
        """Admission under prefill/decode disaggregation.

        Every new inferlet starts on a prefill-role shard; the choice within
        that role mirrors ``cache_affinity`` (export hints, then prefix-cache
        match scoring, then least_loaded) plus a prompt-affinity memory so
        repeated prompts keep hitting the shard that warmed up first.
        """
        prefill = range(self.prefill_shards)
        index = self._export_holder(prefill, hint)
        if index is not None:
            return index
        if not prefix_tokens:
            return self._place_least_loaded(restrict=prefill)
        hint_key = tuple(prefix_tokens)
        self._instance_hints[instance_id] = hint_key
        remembered = self._hint_shard.get(hint_key)
        if remembered is not None and self._placeable(remembered):
            return remembered
        index = self._best_prefix_match(prefill, prefix_tokens)
        if index is None:
            index = self._place_least_loaded(restrict=prefill)
        self._hint_shard[hint_key] = index
        return index


def aggregate_scheduler_stats(stats: Sequence[SchedulerStats]) -> SchedulerStats:
    """Merge per-shard dispatch statistics into one cluster-level record."""
    return sum_stats(SchedulerStats, stats)


@dataclass
class ClusterSchedulerStats:
    """Cluster view: the merged stats plus the per-device breakdown."""

    combined: SchedulerStats
    per_device: Dict[str, SchedulerStats]

    @classmethod
    def from_shards(cls, shards: Sequence[DeviceShard]) -> "ClusterSchedulerStats":
        return cls(
            combined=aggregate_scheduler_stats([shard.scheduler.stats for shard in shards]),
            per_device={shard.name: shard.scheduler.stats for shard in shards},
        )
