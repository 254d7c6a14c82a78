"""Where an inferlet lives: one record, one quiescence test, one move.

``instance.placements[model]`` is the shard an inferlet lives on, written
only by ``Router.place`` / ``migrate`` / ``release``; ``DeviceShard.quiescent``
is the one "nothing of this owner is in flight" predicate and
``ModelService.move`` the one re-homing, shared by the disaggregation
handoff, the failover relaunch and the swap-out safety check.

The oracle is the code they replaced, kept here as it stood at the parent
commit: the handoff and the relaunch each with their own copy of the
predicate and of the detach → adopt → re-home queues → ``router.migrate`` →
``swap.note_migrated`` tail, the swap manager with its own queue scan, and
every "where does it live" answered by ``router.shard_for``.  A hypothesis
state machine drives two clusters through the same operations — one on the
product code, one with the oracle copies patched in — and compares them
after every step; two hand-made mutants show the comparison has teeth.
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
# -- was a no-op here, where no policy was installed) --


def oracle_handoff_quiescent(swap, instance, src) -> bool:
    """``KvTransferScheduler._quiescent`` at the parent."""
    owner = instance.instance_id
    if instance.in_air_commands > 0:
        return False
    for queue in src.scheduler.queues_for_owner(owner):
        if queue.pending_count or queue.inflight_count:
            return False
    if swap.is_swapped(owner):
        return False
    if not src.resources.has_space(owner):
        return False
    return True


def oracle_safe_to_swap(swap, instance, shard) -> bool:
    """``SwapManager._safe_to_swap`` at the parent."""
    if instance.finished or swap.is_swapped(instance.instance_id):
        return False
    if not shard.resources.has_space(instance.instance_id):
        return False
    if instance.in_air_commands > 0:
        return False
    return not any(
        queue.pending_count or queue.inflight_count
        for queue in shard.scheduler.queues_for_owner(instance.instance_id)
    )


def oracle_maybe_handoff(self, service, instance) -> bool:
    """``KvTransferScheduler.maybe_handoff`` at the parent (trace and QoS
    hooks dropped: both planes are off here)."""
    owner = instance.instance_id
    if not self.router.on_prefill_shard(owner):
        return False
    if instance.finished:
        self.forget(owner)
        return False
    src = self.router.shard_for(owner)
    if not oracle_handoff_quiescent(service.swap, instance, src):
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

    _, _, swapped_kv, next_kv_vid, next_emb_vid = src.resources.detach_space_for_migration(owner)
    dst.resources.adopt_migrated_space(
        owner, new_kv, new_emb, swapped_kv, next_kv_vid, next_emb_vid
    )
    for entry in staged.values():
        dst.resources.unpin_kv(entry.dst_pid)

    for queue in list(src.scheduler.queues_for_owner(owner)):
        src.scheduler.detach_queue(queue.key)
        dst.scheduler.adopt_queue(queue)
    self.router.migrate(instance, dst.index)
    service.swap.note_migrated(owner, dst)

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


def oracle_try_relaunch(service, dead, instance) -> bool:
    """``ShardHealthService._try_relaunch`` at the parent (trace dropped)."""
    owner = instance.instance_id
    swap = service.swap
    if not swap.enabled or not swap.is_swapped(owner):
        return False
    if instance.in_air_commands > 0:
        return False
    if not dead.resources.has_space(owner):
        return False
    if dead.resources.kv_mapping(owner):
        return False
    for queue in dead.scheduler.queues_for_owner(owner):
        if queue.pending_count or queue.inflight_count:
            return False
    try:
        dst = service.router.least_loaded_shard()
    except ShardUnavailableError:
        return False
    emb_vids = sorted(dead.resources.emb_mapping(owner))
    if dst.resources.memory.embeds.num_free < len(emb_vids):
        return False
    if service.transfer is not None:
        service.transfer.forget(owner)
    _, _, swapped_kv, next_kv_vid, next_emb_vid = dead.resources.detach_space_for_migration(
        owner
    )
    emb_map = dict(zip(emb_vids, dst.resources.memory.embeds.allocate(len(emb_vids))))
    dst.resources.adopt_migrated_space(owner, {}, emb_map, swapped_kv, next_kv_vid, next_emb_vid)
    for queue in list(dead.scheduler.queues_for_owner(owner)):
        dead.scheduler.detach_queue(queue.key)
        dst.scheduler.adopt_queue(queue)
    service.router.migrate(instance, dst.index)
    swap.note_migrated(owner, dst)
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
            faults=True,
        )
        self.oracle = oracle
        self.controller = self.server.controller
        self.service = self.server.service()
        self.router = self.service.router
        self.instances: Dict[str, InferletInstance] = {}
        self.queues: Dict[str, list] = {}
        if oracle:
            service, transfer = self.service, self.service.transfer
            transfer.maybe_handoff = lambda instance: oracle_maybe_handoff(
                transfer, service, instance
            )
            service.swap._safe_to_swap = lambda instance, shard: oracle_safe_to_swap(
                service.swap, instance, shard
            )
            self.controller.health._try_relaunch = lambda dead, instance: oracle_try_relaunch(
                dead.service, dead, instance
            )

    def home(self, instance: InferletInstance):
        if self.oracle:
            return self.router.shard_for(instance.instance_id)
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
        """One harmless command: in the air, then queued, then retired."""
        instance = self.instances[name]
        self.controller.dealloc(
            instance, self.home(instance), self.queues[name][0], "dealloc_emb", []
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
        self.service.swap.fault_in(instance)

    def crash(self, index: int) -> None:
        self.controller.health.inject_shard_crash(index)

    # -- what is compared -------------------------------------------------------

    def snapshot(self) -> dict:
        swap, shards = self.service.swap, self.service.shards
        return {
            "router": dict(self.router._placements),
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
            "blocked": {o: (e[1].index, e[2]) for o, e in swap._blocked.items()},
            "swapped": {o: e[1].index for o, e in swap._swapped.items()},
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
        real, router = self.real, self.real.router
        for name, instance in real.instances.items():
            if instance.finished:
                assert not instance.placements, f"{name} left the system holding a record"
                assert name not in router._placements
            else:
                assert instance.placements[MODEL] is router.shard_for(name)
                assert instance.placements[MODEL].service is real.service
        assert real.snapshot() == self.model.snapshot()


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
        return [n for n in self.live() if self.pair.real.service.swap.is_swapped(n)]

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
            owners = set(shard.resources._spaces)
            assert owners == set(real.router.instances_on(shard))
            assert {q.owner for q in shard.scheduler._queues.values()} <= owners


PlacementAgainstOracle.TestCase.settings = settings(
    max_examples=120, stateful_step_count=40, deadline=None, derandomize=True
)
TestPlacementAgainstOracle = PlacementAgainstOracle.TestCase


# -- scripted: the paths the machine must reach, and the mutants --------------------


def relaunch_script(pair: Pair) -> None:
    """launch → handoff → swap out → crash → relaunch → resume → finish."""
    pair.both("launch", "a", 2, 3, 2)
    pair.both("launch", "b", 1, 1, 1)
    assert pair.both("handoff", "a") is True
    home = pair.real.instances["a"].placements[MODEL]
    assert home.role == "decode"
    pair.both("block", "a")
    assert pair.real.service.swap.is_swapped("a")
    pair.both("crash", home.index)
    assert pair.real.server.metrics.failover_relaunches == 1
    assert pair.real.instances["a"].placements[MODEL] is not home
    pair.both("resume", "a")
    assert not pair.real.service.swap.is_swapped("a")
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
        self._placements[instance.instance_id] = dst_index  # record not rewritten

    monkeypatch.setattr(Router, "migrate", migrate)
    with pytest.raises(AssertionError):
        relaunch_script(Pair(3))


def test_mutant_move_that_skips_queue_rehoming_is_killed(monkeypatch):
    def move(self, instance, dst, kv_map, emb_map):
        owner = instance.instance_id
        src = instance.placements[self.entry.name]
        _, _, swapped_kv, next_kv_vid, next_emb_vid = src.resources.detach_space_for_migration(
            owner
        )
        dst.resources.adopt_migrated_space(
            owner, kv_map, emb_map, swapped_kv, next_kv_vid, next_emb_vid
        )
        self.router.migrate(instance, dst.index)
        self.swap.note_migrated(owner, dst)

    monkeypatch.setattr(ModelService, "move", move)
    with pytest.raises(AssertionError):
        relaunch_script(Pair(3))
