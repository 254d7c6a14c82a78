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
* ``cache_affinity`` — if the inferlet declares a placement hint (the name
  of a KV export it intends to import, see
  ``InferletProgram.placement_hint``) and a shard holds an export of
  exactly that name, place it there so the import is a local remap instead
  of a device-to-device copy.  Otherwise place by load: the fewest live
  inferlets (suspended ones aside), then the longest page-aligned match of
  the program's ``prefix_hint`` in the shard's prefix cache, then the least
  pending work (queued commands + device backlog), then the lowest index.
  A program with neither hint is placed least-loaded.  Load comes first
  because a co-resident costs a waiting request a forward at every
  collision, while a miss costs one prefill per prompt family per shard;
  the cache's own index is the only placement memory.
* ``disaggregated`` — prefill/decode disaggregation (this policy is the
  plane's one switch): the first ``prefill_shards``
  shards take every new inferlet (prompts are chewed there, optionally via
  chunked prefill), and once the first sampled token retires the KV
  transfer scheduler (:mod:`repro.core.transfer`) migrates the inferlet to
  the least-loaded decode shard.  Placement among prefill shards is
  ``cache_affinity``'s, restricted to the prefill role.

Where an inferlet lives is its placement record,
``instance.placements[model]``, and its address space on that shard (a
shard's occupancy is its count of spaces); the router keeps no map of its
own.

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
        return self.resources.has_space(owner) and all(
            queue.idle for queue in self.scheduler.queues_for_owner(owner)
        )


class Router:
    """Places inferlet instances onto the shards of one model service.

    It writes the placement record and reads load off the shards: an
    inferlet whose pages are staged in host memory (see
    :mod:`repro.core.swap`) occupies no device HBM and computes nothing,
    so it does not count toward its shard's occupancy.
    """

    def __init__(
        self,
        shards: Sequence[DeviceShard],
        policy: str = "round_robin",
        prefill_shards: int = 0,
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
        # Chaos plane (repro.core.health): shard-index predicate reporting
        # whether a shard may receive new placements, replaced by the
        # controller with the health service's.  Any shard the probe
        # rejects (down) is skipped, and an empty eligible set raises
        # ShardUnavailableError.
        self.health_probe: Callable[[int], bool] = lambda index: True
        # Disaggregation: shards [0, prefill_shards) take new inferlets
        # (prefill role), the rest receive them via migrate().  0 = no
        # role split (every policy but "disaggregated").
        if policy == "disaggregated":
            if prefill_shards < 1 or prefill_shards >= len(shards):
                raise ReproError(
                    "disaggregated placement needs 1 <= prefill_shards < num shards"
                )
        self.prefill_shards = prefill_shards if policy == "disaggregated" else 0
        self._rr_next = 0

    # -- placement -------------------------------------------------------------

    def place(self, instance: "InferletInstance") -> DeviceShard:
        """Assign an inferlet to a shard; idempotent per instance.  Only
        ``cache_affinity`` and ``disaggregated`` read the program's
        ``placement_hint`` / ``prefix_hint``."""
        placed = instance.placements.get(self.model)
        if placed is not None:
            return placed
        program = instance.program
        if self.policy == "round_robin":
            index = self._place_round_robin()
        else:
            # cache_affinity places over every shard, disaggregated over the
            # prefill role: an export holder first, then the load key.
            candidates = range(self.prefill_shards or len(self.shards))
            index = self._export_holder(candidates, program.placement_hint)
            if index is None:
                index = self._place_least_loaded(
                    restrict=candidates, prefix_tokens=self._prefix_tokens(program)
                )
        instance.placements[self.model] = self.shards[index]
        return self.shards[index]

    def _prefix_tokens(self, program) -> Optional[List[int]]:
        hint = program.prefix_hint
        if isinstance(hint, str):
            return self.shards[0].service.entry.tokenizer.encode(hint)
        return None if hint is None else list(hint)

    def release(self, instance: "InferletInstance") -> None:
        instance.placements.pop(self.model, None)

    # -- disaggregation roles ----------------------------------------------------

    def decode_indices(self) -> List[int]:
        return [s.index for s in self.shards if s.index >= self.prefill_shards]

    def choose_decode_shard(
        self, extra_occupancy: Optional[Dict[int, float]] = None
    ) -> DeviceShard:
        """The least-loaded decode-role shard (handoff destination).

        ``extra_occupancy`` adds per-index load the shards' spaces do not
        show yet — the transfer scheduler passes its in-flight streams, so
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

        State migration (the address space, the queues) is
        :meth:`repro.core.service.ModelService.move`'s job; the router only
        rewrites the placement record, so every later API call — command
        submission, capacity reclamation, swap fault-in — resolves against
        the destination.
        """
        if self.model not in instance.placements:
            raise SchedulingError(
                f"cannot migrate {instance.instance_id!r}: it was never placed"
            )
        if not 0 <= dst_index < len(self.shards):
            raise SchedulingError(f"no shard with index {dst_index}")
        instance.placements[self.model] = self.shards[dst_index]

    # -- policy implementations -------------------------------------------------

    def _place_round_robin(self) -> int:
        # Advance the cursor past unplaceable shards (at most one full lap)
        # so a crashed shard drops out of the rotation without disturbing
        # the order the survivors are visited in.
        for _ in range(len(self.shards)):
            index = self._rr_next % len(self.shards)
            self._rr_next += 1
            if self.health_probe(index):
                return index
        raise ShardUnavailableError("no healthy shard available for placement")

    def least_loaded_shard(self) -> DeviceShard:
        """The least-loaded placeable shard (``ShardUnavailableError`` if none)."""
        return self.shards[self._place_least_loaded()]

    def _place_least_loaded(
        self,
        restrict: Optional[Sequence[int]] = None,
        extra_occupancy: Optional[Dict[int, float]] = None,
        prefix_tokens: Optional[Sequence[int]] = None,
    ) -> int:
        """The placeable shard with the least occupancy (its resident spaces);
        among those, the longest cached page-aligned match of
        ``prefix_tokens``, then the least pending work, then the lowest
        index."""
        occupancy = {shard.index: shard.resources.num_resident for shard in self.shards}
        if extra_occupancy:
            for index, load in extra_occupancy.items():
                occupancy[index] = occupancy.get(index, 0.0) + load
        eligible = self.shards
        if restrict is not None:
            allowed = set(restrict)
            eligible = [shard for shard in self.shards if shard.index in allowed]
        eligible = [shard for shard in eligible if self.health_probe(shard.index)]
        if not eligible:
            raise ShardUnavailableError("no healthy shard available for placement")
        return min(
            eligible,
            key=lambda shard: (
                occupancy[shard.index],
                -self._cached_len(shard, prefix_tokens),
                shard.pending_work,
                shard.index,
            ),
        ).index

    @staticmethod
    def _cached_len(shard: DeviceShard, prefix_tokens: Optional[Sequence[int]]) -> int:
        if not prefix_tokens or shard.prefix_cache is None:
            return 0
        return shard.prefix_cache.match_len(prefix_tokens)

    def _export_holder(self, indices: Sequence[int], hint: Optional[str]) -> Optional[int]:
        # Exact export-name match only: fuzzy (prefix) matching would let one
        # generic export name capture every hinted inferlet and create a
        # hotspot the load fallback is meant to prevent.
        if hint:
            for index in indices:
                if self.shards[index].resources.has_export(hint) and self.health_probe(index):
                    return index
        return None


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
