"""Where an inferlet lives: one record, one quiescence test, one move.

``instance.placements[model]`` is the shard an inferlet lives on, written
only by ``Router.place`` / ``migrate`` / ``release``, and its address space
on that shard moves with it; whether it is suspended is read from that
space.  ``DeviceShard.quiescent`` is the one "nothing of this owner is in
flight" predicate and ``ModelService.move`` the one re-homing, shared by the
disaggregation handoff, the failover relaunch and the swap-out safety
check.  After every step, each live inferlet's record names the one shard
holding its space, ``ModelService.shard_for`` agrees, and each shard's
space count is its residents.

The oracle is the code they replaced, kept here as it stood at the parent
commit: the handoff and the relaunch each with their own copy of the
predicate and of the move space → re-home queues → ``router.migrate`` →
``note_migrated`` tail, the swap manager with its own queue scan and its own
registry of who is suspended, and every "where does it live" answered by a
query by id (``ModelService.shard_for``).  A hypothesis
state machine drives two clusters through the same operations — one on the
product code, one with the oracle copies patched in — and compares them
after every step; three hand-made mutants show the checks have teeth.
"""

from typing import Dict, List, Tuple

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core import InferletProgram, PieServer
from repro.core.inferlet import InferletInstance
from repro.core.router import Router
from repro.core.service import ModelService
from repro.errors import OutOfResourcesError, SchedulingError, ShardUnavailableError
from repro.sim import Simulator

MODEL = "llama-sim-1b"
PROGRAM = InferletProgram(name="tenant", main=lambda ctx: None)
STEP_SECONDS = 0.02  # > call overhead + a heartbeat: each step settles


# -- the oracle: the parent commit's copies, verbatim but for the two call
# -- signatures this PR changed (router.migrate takes the instance; the
# -- transfer scheduler reaches the swap manager and the capacity path
# -- through the service), and the link, page size and landing cost the KV
# -- mover now owns: ``service.mover.link`` / ``page_bytes``, and
# -- ``copy_batch_cost``, the same formula as the deleted ``kv_transfer_cost``;
# -- and the refused handoff's backoff timer, gone with the retry policy — it
# -- was a no-op here, where no policy was installed; and, since a command is
# -- numbered on its queue when issued, ``instance.in_air_commands`` restated
# -- against the queues below and the queue's in-flight count read from
# -- ``_inflight``; and, since where an inferlet lives is read from its
# -- record and its address space, ``router.shard_for`` / ``on_prefill_shard``
# -- restated against the record, and detach → adopt as one ``move_space``.
# -- Whether an inferlet is suspended keeps the parent's registry, kept here
# -- beside the product: ``OracleSwapRegistry``) --


def in_air_commands(instance) -> int:
    """The parent's ``InferletInstance.in_air_commands``, restated against
    the queues: commands numbered at issue that have not reached their
    queue yet (issued, less retired, pending and in flight)."""
    return sum(
        queue._issued
        - queue._retired_below
        - len(queue._retired_early)
        - queue.pending_count
        - queue._inflight
        for shard in instance.placements.values()
        for queue in shard.scheduler.queues_for_owner(instance.instance_id)
    )


class OracleSwapRegistry:
    """``SwapManager._swapped`` at the parent: suspension as a registry of
    its own, beside the space it describes.  A swap-out that moved pages
    sets the entry, a move re-points it (``note_migrated``), a fault-in and
    an exit (``forget``) drop it.  The oracle world's predicates, dispatch
    guard and fault-in read it, never ``ResourceManager.is_swapped``."""

    def __init__(self, service) -> None:
        self.swapped: Dict[str, tuple] = {}  # owner -> (instance, shard)
        swap = service.swap
        product_swap_out, product_forget = swap.swap_out, swap.forget

        def swap_out(instance, shard) -> int:
            moved = product_swap_out(instance, shard)
            if moved:
                self.swapped[instance.instance_id] = (instance, shard)
            return moved

        def forget(owner: str) -> None:
            product_forget(owner)
            self.swapped.pop(owner, None)

        swap.swap_out, swap.forget = swap_out, forget
        swap.fault_in = lambda instance, _shard: oracle_fault_in(swap, self, instance)
        swap._safe_to_swap = lambda instance, shard: oracle_safe_to_swap(self, instance, shard)
        for shard in service.shards:
            shard.scheduler.set_dispatch_guard(self.is_swapped)

    def is_swapped(self, owner: str) -> bool:
        return owner in self.swapped

    def note_migrated(self, owner: str, dst) -> None:
        entry = self.swapped.get(owner)
        if entry is not None:
            self.swapped[owner] = (entry[0], dst)


def oracle_fault_in(swap, registry, instance):
    """``SwapManager.fault_in`` at the parent: the shard is the registry's."""
    entry = registry.swapped.get(instance.instance_id)
    if entry is None:
        return None
    _, shard = entry
    owner = instance.instance_id
    n_pages = (
        shard.resources.kv_pages_swapped_by(owner) if shard.resources.has_space(owner) else 0
    )
    if n_pages == 0:
        registry.swapped.pop(owner, None)
        return None
    if shard.resources.kv_pages_free < n_pages:
        swap._ensure_capacity(shard, instance, n_pages)
    restored = shard.resources.swap_in_kv(owner)
    registry.swapped.pop(owner, None)
    swap.metrics.record_swap_in(restored, swap.mover.host_pool.transfer_bytes(restored))
    future = swap._charge("swap_in", shard, owner, restored)
    shard.scheduler.notify_resumed()
    return future


def oracle_handoff_quiescent(registry, instance, src) -> bool:
    """``KvTransferScheduler._quiescent`` at the parent."""
    owner = instance.instance_id
    if in_air_commands(instance) > 0:
        return False
    for queue in src.scheduler.queues_for_owner(owner):
        if queue.pending_count or queue._inflight:
            return False
    if registry.is_swapped(owner):
        return False
    if not src.resources.has_space(owner):
        return False
    return True


def oracle_safe_to_swap(registry, instance, shard) -> bool:
    """``SwapManager._safe_to_swap`` at the parent."""
    if instance.finished or registry.is_swapped(instance.instance_id):
        return False
    if not shard.resources.has_space(instance.instance_id):
        return False
    if in_air_commands(instance) > 0:
        return False
    return not any(
        queue.pending_count or queue._inflight
        for queue in shard.scheduler.queues_for_owner(instance.instance_id)
    )


def oracle_maybe_handoff(self, service, registry, instance) -> bool:
    """``KvTransferScheduler.maybe_handoff`` at the parent (trace and QoS
    hooks dropped: both planes are off here)."""
    owner = instance.instance_id
    placed = instance.placements.get(MODEL)
    if placed is None or placed.role != "prefill":
        return False
    if instance.finished:
        self.forget(owner)
        return False
    src = service.shard_for(owner)
    if not oracle_handoff_quiescent(registry, instance, src):
        self.metrics.disagg_handoff_failures += 1
        return False
    stream = self._streams.get(owner)
    staged = stream.staged if stream is not None else {}

    kv_map = src.resources.kv_mapping(owner)
    emb_map = src.resources.emb_mapping(owner)
    new_kv: Dict[int, int] = {}
    tail: List[Tuple[int, int]] = []
    for vid in sorted(kv_map):
        src_pid = kv_map[vid]
        entry = staged.get(src_pid)
        if entry is not None and entry.clean and not entry.consumed:
            entry.consumed = True
            new_kv[vid] = entry.dst_pid
        else:
            tail.append((vid, src_pid))

    if stream is not None and stream.dst_index is not None:
        dst = self.shards[stream.dst_index]
    else:
        inflight: Dict[int, float] = {}
        for other in self._streams.values():
            if other.dst_index is not None:
                inflight[other.dst_index] = inflight.get(other.dst_index, 0.0) + 1.0
        try:
            dst = self.router.choose_decode_shard(extra_occupancy=inflight)
        except SchedulingError:
            for entry in staged.values():
                entry.consumed = False
            self.metrics.disagg_handoff_failures += 1
            return False
    try:
        if tail or emb_map:
            self._ensure_capacity(dst, instance, len(tail), len(emb_map))
    except OutOfResourcesError:
        for entry in staged.values():
            entry.consumed = False
        self.metrics.disagg_handoff_failures += 1
        return False

    tail_pids = dst.memory.kv_pages.allocate(len(tail))
    for (vid, src_pid), dst_pid in zip(tail, tail_pids):
        dst.memory.kv_pages.page(dst_pid).copy_page_from(src.memory.kv_pages.page(src_pid))
        new_kv[vid] = dst_pid
    emb_items = sorted(emb_map.items())
    dst_slots = dst.memory.embeds.allocate(len(emb_items))
    new_emb: Dict[int, int] = {}
    for (vid, src_slot), dst_slot in zip(emb_items, dst_slots):
        dst.memory.embeds.clone_slot_from(dst_slot, src.memory.embeds, src_slot)
        new_emb[vid] = dst_slot
    if dst.prefix_cache is not None:
        dst.prefix_cache.forget_embeds(dst_slots)

    src.resources.move_space(owner, dst.resources, new_kv, new_emb)
    for entry in staged.values():
        dst.resources.unpin_kv(entry.dst_pid)

    for queue in list(src.scheduler.queues_for_owner(owner)):
        src.scheduler.detach_queue(queue.key)
        dst.scheduler.adopt_queue(queue)
    self.router.migrate(instance, dst.index)
    registry.note_migrated(owner, dst)

    now = self.sim.now
    ready = stream.link_ready if stream is not None else 0.0
    if tail:
        ready = max(
            ready,
            service.mover.link(src.index, dst.index).reserve(
                len(tail) * service.mover.page_bytes, now=now
            ),
        )
        self.metrics.disagg_bytes_streamed += len(tail) * service.mover.page_bytes
    stall = max(0.0, ready - now)
    landing = service.cost_model.copy_batch_cost(len(tail)) if tail else 0.0
    if stall + landing > 0.0:
        dst.device.submit(
            kind="kv_handoff", run=lambda: None, cost_seconds=stall + landing, size=len(tail)
        )
    self.metrics.disagg_handoffs += 1
    self.metrics.disagg_pages_tail += len(tail)
    self.metrics.disagg_handoff_stall_seconds += stall
    self._streams.pop(owner, None)
    self._drop_tracks(owner)
    return True


def oracle_try_relaunch(service, registry, dead, instance) -> bool:
    """``ShardHealthService._try_relaunch`` at the parent (trace dropped)."""
    owner = instance.instance_id
    if not service.swap.enabled or not registry.is_swapped(owner):
        return False
    if in_air_commands(instance) > 0:
        return False
    if not dead.resources.has_space(owner):
        return False
    if dead.resources.kv_mapping(owner):
        return False
    for queue in dead.scheduler.queues_for_owner(owner):
        if queue.pending_count or queue._inflight:
            return False
    try:
        dst = service.router.least_loaded_shard()
    except ShardUnavailableError:
        return False
    emb_vids = sorted(dead.resources.emb_mapping(owner))
    if dst.resources.memory.embeds.num_free < len(emb_vids):
        return False
    service.transfer.forget(owner)
    emb_map = dict(zip(emb_vids, dst.resources.memory.embeds.allocate(len(emb_vids))))
    dead.resources.move_space(owner, dst.resources, {}, emb_map)
    for queue in list(dead.scheduler.queues_for_owner(owner)):
        dead.scheduler.detach_queue(queue.key)
        dst.scheduler.adopt_queue(queue)
    service.router.migrate(instance, dst.index)
    registry.note_migrated(owner, dst)
    return True


# -- two clusters, one script ---------------------------------------------------


class World:
    """A disaggregated cluster driven at the controller's level: no program
    runs, the test plays the API bindings' part."""

    def __init__(self, devices: int, oracle: bool) -> None:
        self.sim = Simulator(seed=0)
        self.server = PieServer(
            self.sim,
            num_devices=devices,
            num_kv_pages=256,
            host_kv_pages=256,
            placement_policy="disaggregated",
            prefill_shards=1,
        )
        self.oracle = oracle
        self.controller = self.server.controller
        self.service = self.server.service()
        self.router = self.service.router
        self.instances: Dict[str, InferletInstance] = {}
        self.queues: Dict[str, list] = {}
        self.registry = None
        if oracle:
            service, transfer = self.service, self.service.transfer
            registry = self.registry = OracleSwapRegistry(service)
            transfer.maybe_handoff = lambda instance: oracle_maybe_handoff(
                transfer, service, registry, instance
            )
            self.controller.health._try_relaunch = lambda dead, instance: oracle_try_relaunch(
                dead.service, registry, dead, instance
            )

    def home(self, instance: InferletInstance):
        if self.oracle:
            return self.service.shard_for(instance.instance_id)
        return instance.placements[MODEL]

    def settle(self) -> None:
        self.sim.run(until=self.sim.now + STEP_SECONDS)

    def live(self) -> List[InferletInstance]:
        return [i for i in self.instances.values() if not i.finished]

    # -- operations -----------------------------------------------------------

    def launch(self, name: str, n_queues: int, kv: int, emb: int) -> None:
        instance = InferletInstance(PROGRAM, instance_id=name)
        self.instances[name] = instance
        self.controller.register_inferlet(instance)
        instance.metrics.status = "running"
        home = self.home(instance)
        self.queues[name] = [self.controller.create_queue(instance) for _ in range(n_queues)]
        self.controller.alloc_kv_pages(instance, home, kv)
        self.controller.alloc_embeds(instance, home, emb)

    def finish(self, name: str) -> None:
        instance = self.instances[name]
        instance.metrics.status = "finished"
        self.controller.unregister_inferlet(instance)

    def terminate(self, name: str) -> None:
        self.controller.terminate_inferlet(self.instances[name], reason="test")

    def abort_parked(self, name: str) -> None:
        """Terminated before the launch worker ever registered it."""
        instance = InferletInstance(PROGRAM, instance_id=name)
        self.instances[name] = instance
        self.controller.terminate_inferlet(instance, reason="client abort")

    def issue(self, name: str) -> None:
        """One harmless command (an empty embed): in the air, then queued,
        then retired.  A deallocation would not do: it holds at the queue's
        watermark at once and never travels."""
        instance = self.instances[name]
        self.controller.submit_command(
            instance,
            self.home(instance),
            self.queues[name][0],
            "embed_text",
            {"token_ids": [], "positions": [], "emb_slots": []},
        )

    def handoff(self, name: str) -> bool:
        return self.service.transfer.maybe_handoff(self.instances[name])

    def block(self, name: str) -> None:
        """The inferlet starts a tool call (proactive policy: swap out)."""
        instance = self.instances[name]
        self.service.swap.note_blocked(instance, self.home(instance))

    def resume(self, name: str) -> None:
        instance = self.instances[name]
        self.service.swap.note_unblocked(instance)
        self.service.swap.fault_in(instance, self.home(instance))

    def crash(self, index: int) -> None:
        self.controller.health.inject_shard_crash(index)

    # -- what is compared -------------------------------------------------------

    def suspended(self) -> Dict[str, int]:
        """Who is suspended, on which shard: the oracle's registry, or the
        product's reading of the spaces."""
        if self.registry is not None:
            return {o: shard.index for o, (_, shard) in self.registry.swapped.items()}
        return spaces_holding_host_pages(self)

    def snapshot(self) -> dict:
        swap, shards = self.service.swap, self.service.shards
        return {
            "placed": {
                name: i.placements[MODEL].index
                for name, i in self.instances.items()
                if i.placements
            },
            "status": {name: i.status for name, i in self.instances.items()},
            "spaces": [
                {
                    owner: (s.kv_map, s.emb_map, s.swapped_kv, s.next_kv_vid, s.next_emb_vid)
                    for owner, s in shard.resources._spaces.items()
                }
                for shard in shards
            ],
            "queues": [
                {key: (q.priority, q.pending_count) for key, q in shard.scheduler._queues.items()}
                for shard in shards
            ],
            "blocked": {o: depth for o, (_, depth) in swap._blocked.items()},
            "swapped": self.suspended(),
            "pools": [
                (shard.memory.kv_pages.num_free, shard.memory.embeds.num_free)
                for shard in shards
            ],
            "host_used": self.service.host_pool.num_used,
            "streams": self.service.transfer.active_streams,
            "health": dict(self.controller.health.states),
            "moves": (
                self.server.metrics.disagg_handoffs,
                self.server.metrics.disagg_handoff_failures,
                self.server.metrics.failover_relaunches,
                self.server.metrics.failover_terminations,
            ),
        }


class Pair:
    """The product world and the oracle world, always told the same thing."""

    def __init__(self, devices: int) -> None:
        self.real = World(devices, oracle=False)
        self.model = World(devices, oracle=True)
        self.count = 0

    def both(self, op: str, *args):
        results = [getattr(world, op)(*args) for world in (self.real, self.model)]
        assert results[0] == results[1], f"{op}{args}: {results[0]!r} != oracle {results[1]!r}"
        for world in (self.real, self.model):
            world.settle()
        self.check()
        return results[0]

    def fresh_name(self) -> str:
        self.count += 1
        return f"i{self.count}"

    def check(self) -> None:
        for world in (self.real, self.model):
            check_one_record(world)
        # No step frees a host page, so the parent's registry and the
        # spaces it describes agree in the oracle world too.
        assert self.model.suspended() == spaces_holding_host_pages(self.model)
        assert self.real.snapshot() == self.model.snapshot()


def spaces_holding_host_pages(world: World) -> Dict[str, int]:
    return {
        owner: shard.index
        for shard in world.service.shards
        for owner in shard.resources.owners()
        if shard.resources.is_swapped(owner)
    }


def check_one_record(world: World) -> None:
    """Each live inferlet's record names the one shard holding its space,
    ``ModelService.shard_for`` agrees, and each shard's space count is its
    residents; a finished one holds no record and no space."""
    shards = world.service.shards
    residents = {shard.index: 0 for shard in shards}
    for name, instance in world.instances.items():
        holders = [shard for shard in shards if shard.resources.has_space(name)]
        if instance.finished:
            assert not instance.placements, f"{name} left the system holding a record"
            assert not holders, f"{name} left the system holding a space"
            continue
        home = instance.placements[MODEL]
        assert holders == [home], f"{name}: record {home.index}, spaces {holders}"
        assert world.service.shard_for(name) is home
        assert home.service is world.service
        residents[home.index] += 1
    for shard in shards:
        assert len(shard.resources.owners()) == residents[shard.index]


# -- the state machine ------------------------------------------------------------

PICK = st.integers(0, 1 << 16)


class PlacementAgainstOracle(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.pair = None
        self.aborted = 0

    def pick(self, pick: int, names: List[str]) -> str:
        return names[pick % len(names)]

    def live(self) -> List[str]:
        return [i.instance_id for i in self.pair.real.live()]

    def on_prefill(self) -> List[str]:
        real = self.pair.real
        return [n for n in self.live() if real.instances[n].placements[MODEL].role == "prefill"]

    def swapped(self) -> List[str]:
        real = self.pair.real
        return [n for n in self.live() if is_swapped(real, n)]

    def blocked(self) -> List[str]:
        return [n for n in self.live() if self.pair.real.service.swap.is_blocked(n)]

    def rescuable(self) -> List[str]:
        """Swapped out on a decode shard: a crash there relaunches them."""
        real = self.pair.real
        return [n for n in self.swapped() if real.instances[n].placements[MODEL].index > 0]

    def crashable(self) -> List[int]:
        """Decode shards still up (the prefill shard stays: launches need it)."""
        states = self.pair.real.controller.health.states
        return [index for index in sorted(states) if index > 0 and states[index] != "down"]

    @precondition(lambda self: self.pair is None)
    @rule(devices=st.integers(2, 4))
    def build(self, devices):
        self.pair = Pair(devices)

    @precondition(lambda self: self.pair is not None and len(self.live()) < 6)
    @rule(n_queues=st.integers(1, 2), kv=st.integers(1, 3), emb=st.integers(0, 3))
    def launch(self, n_queues, kv, emb):
        self.pair.both("launch", self.pair.fresh_name(), n_queues, kv, emb)

    @precondition(lambda self: self.pair is not None and self.aborted < 2)
    @rule()
    def abort_while_parked(self):
        self.aborted += 1
        self.pair.both("abort_parked", self.pair.fresh_name())

    @precondition(lambda self: self.pair is not None and self.live())
    @rule(pick=PICK)
    def finish(self, pick):
        self.pair.both("finish", self.pick(pick, self.live()))

    @precondition(lambda self: self.pair is not None and self.live())
    @rule(pick=PICK)
    def terminate(self, pick):
        self.pair.both("terminate", self.pick(pick, self.live()))

    @precondition(lambda self: self.pair is not None and self.live())
    @rule(pick=PICK)
    def issue_a_command(self, pick):
        self.pair.both("issue", self.pick(pick, self.live()))

    @precondition(lambda self: self.pair is not None and self.on_prefill())
    @rule(pick=PICK)
    def handoff(self, pick):
        self.pair.both("handoff", self.pick(pick, self.on_prefill()))

    @precondition(lambda self: self.pair is not None and self.on_prefill())
    @rule(pick=PICK)
    def handoff_refused_while_a_command_is_in_the_air(self, pick):
        name = self.pick(pick, self.on_prefill())
        for world in (self.pair.real, self.pair.model):
            world.issue(name)
        assert self.pair.both("handoff", name) is False

    @precondition(lambda self: self.pair is not None and self.live())
    @rule(pick=PICK, busy=st.booleans())
    def block_on_a_tool_call(self, pick, busy):
        name = self.pick(pick, self.live())
        if busy:  # the swap-out must wait for the pipeline to drain
            for world in (self.pair.real, self.pair.model):
                world.issue(name)
        self.pair.both("block", name)

    @precondition(lambda self: self.pair is not None and self.blocked())
    @rule(pick=PICK)
    def resume(self, pick):
        self.pair.both("resume", self.pick(pick, self.blocked()))

    @precondition(lambda self: self.pair is not None and len(self.crashable()) > 1)
    @rule(pick=PICK)
    def crash_a_decode_shard(self, pick):
        shards = self.crashable()
        self.pair.both("crash", shards[pick % len(shards)])

    @precondition(lambda self: self.pair is not None and self.rescuable())
    @rule(pick=PICK)
    def crash_under_a_swapped_inferlet(self, pick):
        name = self.pick(pick, self.rescuable())
        self.pair.both("crash", self.pair.real.instances[name].placements[MODEL].index)

    @invariant()
    def nothing_leaks(self):
        if self.pair is None:
            return
        real = self.pair.real
        for shard in real.service.shards:
            owners = set(shard.resources.owners())
            placed = {i.instance_id for i in real.live() if i.placements[MODEL] is shard}
            assert owners == placed
            assert {q.owner for q in shard.scheduler._queues.values()} <= owners


PlacementAgainstOracle.TestCase.settings = settings(
    max_examples=120, stateful_step_count=40, deadline=None, derandomize=True
)
TestPlacementAgainstOracle = PlacementAgainstOracle.TestCase


# -- scripted: the paths the machine must reach, and the mutants --------------------


def is_swapped(world: World, name: str) -> bool:
    """Suspended: the space on the shard its record names holds host pages."""
    return world.instances[name].placements[MODEL].resources.is_swapped(name)


def relaunch_script(pair: Pair) -> None:
    """launch → handoff → swap out → crash → relaunch → resume → finish."""
    pair.both("launch", "a", 2, 3, 2)
    pair.both("launch", "b", 1, 1, 1)
    assert pair.both("handoff", "a") is True
    home = pair.real.instances["a"].placements[MODEL]
    assert home.role == "decode"
    pair.both("block", "a")
    assert is_swapped(pair.real, "a")
    pair.both("crash", home.index)
    assert pair.real.server.metrics.failover_relaunches == 1
    assert pair.real.instances["a"].placements[MODEL] is not home
    pair.both("resume", "a")
    assert not is_swapped(pair.real, "a")
    pair.both("issue", "a")
    pair.both("finish", "a")
    pair.both("terminate", "b")


@pytest.mark.parametrize("devices", [2, 3, 4])
def test_scripted_handoff_swap_crash_relaunch_matches_the_oracle(devices):
    relaunch_script(Pair(devices))


def test_a_resident_inferlet_on_a_crashed_shard_is_terminated_in_both_worlds():
    pair = Pair(3)
    pair.both("launch", "a", 1, 2, 1)
    assert pair.both("handoff", "a") is True
    pair.both("crash", pair.real.instances["a"].placements[MODEL].index)
    assert pair.real.instances["a"].terminated_cause == "shard_down"
    assert not pair.real.instances["a"].placements


def test_mutant_migrate_that_forgets_the_record_is_killed(monkeypatch):
    def migrate(self, instance, dst_index):
        pass  # the space moved, the record not rewritten

    monkeypatch.setattr(Router, "migrate", migrate)
    with pytest.raises(AssertionError):
        relaunch_script(Pair(3))


def test_mutant_move_that_skips_queue_rehoming_is_killed(monkeypatch):
    def move(self, instance, dst, kv_map, emb_map):
        owner = instance.instance_id
        src = instance.placements[self.entry.name]
        src.resources.move_space(owner, dst.resources, kv_map, emb_map)
        self.router.migrate(instance, dst.index)

    monkeypatch.setattr(ModelService, "move", move)
    with pytest.raises(AssertionError):
        relaunch_script(Pair(3))


def test_mutant_move_that_leaves_the_space_behind_is_killed(monkeypatch):
    def move(self, instance, dst, kv_map, emb_map):
        src = instance.placements[self.entry.name]
        for queue in src.scheduler.queues_for_owner(instance.instance_id):
            src.scheduler.detach_queue(queue.key)
            dst.scheduler.adopt_queue(queue)
        self.router.migrate(instance, dst.index)

    monkeypatch.setattr(ModelService, "move", move)
    with pytest.raises(AssertionError, match="record"):
        relaunch_script(Pair(3))
