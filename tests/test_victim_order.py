"""Who gives up its device under memory pressure is picked by one key.

Three modules used to order victims three ways: ``SwapManager.reclaim_by_swap``
staged the blocked inferlet holding the most pages, ``Controller._youngest_victim``
terminated the youngest, and with QoS on both read ``QosService.victim_key``
(lower class, more slack to ``InferletMetrics.deadline``, more pages,
younger, id) instead.  Now ``Controller.victim_key`` is that key, read from
the core with every plane off, and both victim-picking rungs of
``Controller._ensure_capacity`` pick by it; the swap manager only says who
is eligible (``SwapManager.swap_candidates``).

The tests, in the repo's oracle pattern:

* the parent's three orders are kept **verbatim** below (the swap rung's
  pick up to the swap-out, the termination rung's pick, QoS's key);
* (a) a hypothesis property over three classes, SLO stamps, token times,
  pages and launch times: with QoS on, both rungs pick the parent's victim;
* (b) with QoS off, both rungs pick what the parent's QoS key picks — the
  one deliberate behaviour change, stated as a property;
* (c) a scripted two-agent ``on_demand`` reclamation: the parent swaps the
  bigger holder, the new order the one with more slack (fails at the
  parent);
* (d) three mutants are killed: no slack term, no class term, and no
  resident-first pool for the termination rung.
"""

import inspect
from dataclasses import dataclass
from typing import Optional, Sequence, Set, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import InferletProgram, PieServer, TenantSpec
from repro.core import swap as swap_module
from repro.core.controller import Controller
from repro.core.inferlet import InferletInstance
from repro.core import qos as qos_module
from repro.core.qos import QOS_CLASSES
from repro.sim import Simulator

# -- the parent's three orders, verbatim ----------------------------------------------


def parent_victim_key(self, instance, n_pages: int = 0) -> Tuple:
    """``QosService.victim_key`` at the parent (``self`` is anything holding
    ``sim`` and the tenant table), but for where it looks up the spec: an
    admitted instance's state held the table's spec of its tenant."""
    return (
        -self.tenants[instance.tenant].rank,
        -(instance.metrics.deadline - self.sim.now),
        -n_pages,
        -instance.created_at,
        instance.instance_id,
    )


def parent_reclaim_pick(self, qos, shard, exclude=()):
    """``SwapManager.reclaim_by_swap`` at the parent, up to its pick (the
    swap-out and its counters followed); ``self`` is the swap manager and
    ``qos`` what ``self.qos`` was.  None where the parent returned 0.
    Restated against the address spaces: the swap manager keeps no shard
    of its own, so "blocked on this shard" is "has a space on it"."""
    if not self.enabled:
        return None
    excluded: Set[str] = set(exclude)
    eligible = []
    for owner, (instance, _depth) in self._blocked.items():
        if owner in excluded or not shard.resources.has_space(owner):
            continue
        if not self._safe_to_swap(instance, shard):
            continue
        n_pages = shard.resources.swappable_kv_count(owner)
        if n_pages == 0 or n_pages > self.mover.host_pool.num_free:
            continue
        if not self.mover.beats_recompute(2.0 * self.mover.pcie_seconds(n_pages), n_pages):
            continue
        eligible.append((n_pages, instance))
    if not eligible:
        return None
    if qos is not None:
        _, victim = min(eligible, key=lambda entry: parent_victim_key(qos, entry[1], entry[0]))
    else:
        _, victim = max(eligible, key=lambda entry: entry[0])
    return victim


def parent_youngest_victim(self, qos, shard):
    """``Controller._youngest_victim`` at the parent (``self`` is the
    controller, ``qos`` what ``self.qos`` was), restated against the
    shard's address spaces: who lives there, and who is suspended."""
    # Space order is registration order, so ties resolve as they
    # would walking the registry.
    resources = shard.resources
    candidates = [self._instances[instance_id] for instance_id in resources.owners()]
    if not candidates:
        return None
    # Suspended inferlets occupy no device KV: terminating one frees
    # nearly nothing, so resident inferlets are killed first.
    resident = [inst for inst in candidates if not resources.is_swapped(inst.instance_id)]
    pool = resident or candidates
    if qos is not None:
        return min(pool, key=lambda inst: parent_victim_key(qos, inst))
    return max(pool, key=lambda inst: inst.created_at)


# -- a shard of stamped inferlets, driven at the controller's level -------------------


async def _noop(ctx):
    return None


PROGRAM = InferletProgram(name="member", main=_noop)
NOW = 3.0
SPECS = (
    TenantSpec(name="chat", priority_class="interactive"),
    TenantSpec(name="std", priority_class="standard"),
    TenantSpec(name="jobs", priority_class="batch"),
)


@dataclass(frozen=True)
class Member:
    name: str
    tenant: str
    launched_at: float
    tokens: Tuple[float, ...] = ()
    pages: int = 1
    state: str = "running"  # "running" | "blocked" (on a tool call) | "swapped"


REQUESTER = Member("req", "chat", NOW, pages=0)


class World:
    """One shard at ``NOW`` holding ``members`` (stamped the way ``launch()``
    stamps them) and the requester; ``qos`` is what the parent's key reads
    specs from: the controller.  ``qos_on`` configures the tenants at
    construction (the parent's QoS-on setup), else they register later."""

    def __init__(
        self,
        members: Sequence[Member],
        qos_on: bool,
        specs: Sequence[TenantSpec] = SPECS,
        num_kv_pages: int = 64,
    ) -> None:
        self.sim = Simulator(seed=0)
        overrides = dict(num_kv_pages=num_kv_pages, host_kv_pages=64, swap_policy="on_demand")
        if qos_on:
            self.server = PieServer(self.sim, tenants=tuple(specs), **overrides)
        else:
            self.server = PieServer(self.sim, **overrides)
            for spec in specs:
                self.server.controller.tenants.register(spec)
        self.controller = self.server.controller
        assert not hasattr(self.controller, "qos")
        self.qos = self.controller
        self.sim.schedule(NOW, lambda: None)
        self.sim.run()
        self.service = self.server.service()
        self.swap = self.service.swap
        self.shard = self.service.shards[0]
        self.instances = {}
        for member in (*members, REQUESTER):
            self._add(member)
        self.requester = self.instances[REQUESTER.name]

    def _add(self, member: Member) -> None:
        instance = InferletInstance(PROGRAM, instance_id=member.name, tenant=member.tenant)
        spec = self.controller.tenants[member.tenant]
        record = instance.metrics
        record.launched_at = member.launched_at
        # What the parent's launch() wrote beside ``launched_at``, which the
        # parent's orders read.
        instance.created_at = member.launched_at
        record.ttft_slo_s, record.tpot_slo_s = spec.ttft_slo_s, spec.tpot_slo_s
        for at in member.tokens:
            record.note_output(max(at, member.launched_at))
        self.controller.register_inferlet(instance)
        record.status = "running"
        if member.pages:
            self.shard.resources.alloc_kv_pages(member.name, member.pages)
        if member.state != "running":
            self.swap.note_blocked(instance, self.shard)
        if member.state == "swapped":
            assert self.swap.swap_out(instance, self.shard)
        self.instances[member.name] = instance

    def swapped(self) -> Set[str]:
        return {name for name in self.instances if self.shard.resources.is_swapped(name)}

    def swap_pick(self) -> Optional[str]:
        """Run the swap rung once; the name it staged out (None: nobody)."""
        before = self.swapped()
        moved = self.controller._reclaim_by_swap(self.shard, self.requester)
        staged = self.swapped() - before
        assert bool(moved) == bool(staged)
        return staged.pop() if staged else None

    def termination_pick(self) -> Optional[str]:
        victim = self.controller._termination_victim(self.shard)
        return victim.instance_id if victim is not None else None


def name_of(instance) -> Optional[str]:
    return instance.instance_id if instance is not None else None


# -- (a) / (b): the two rungs against the parent's QoS order --------------------------


times = st.sampled_from((0.0, 0.5, 2.9)) | st.integers(0, 3_000).map(lambda ms: ms / 1e3)
slos = st.none() | st.integers(1, 5_000).map(float)


@st.composite
def shards(draw):
    specs = tuple(
        TenantSpec(name=name, priority_class=cls, ttft_slo_ms=draw(slos), tpot_slo_ms=draw(slos))
        for name, cls in zip(("chat", "std", "jobs"), QOS_CLASSES)
    )
    members = [
        Member(
            name=f"m{index}",
            tenant=draw(st.sampled_from(("chat", "std", "jobs"))),
            launched_at=draw(times),
            tokens=tuple(sorted(draw(st.lists(times, max_size=3)))),
            pages=draw(st.integers(1, 4)),
            state=draw(st.sampled_from(("running", "blocked", "swapped"))),
        )
        for index in range(draw(st.integers(1, 6)))
    ]
    return specs, members


def assert_both_rungs_pick_the_parents_qos_victim(world: World) -> None:
    expected = name_of(parent_youngest_victim(world.controller, world.qos, world.shard))
    assert world.termination_pick() == expected
    expected = name_of(
        parent_reclaim_pick(world.swap, world.qos, world.shard, exclude=(REQUESTER.name,))
    )
    assert world.swap_pick() == expected


@settings(max_examples=120, deadline=None)
@given(shard=shards())
def test_qos_on_both_rungs_pick_the_parents_victim(shard):
    specs, members = shard
    assert_both_rungs_pick_the_parents_qos_victim(World(members, qos_on=True, specs=specs))


@settings(max_examples=120, deadline=None)
@given(shard=shards())
def test_qos_off_both_rungs_pick_what_the_parents_qos_key_picks(shard):
    """The deliberate change: without QoS the parent staged the biggest
    holder and terminated the youngest; now the same key decides."""
    specs, members = shard
    assert_both_rungs_pick_the_parents_qos_victim(World(members, qos_on=False, specs=specs))


# -- (c) the scripted reclamation the parent gets the other way -----------------------

#: Two agents of one tenant blocked on tool calls on an 8-page device: ``big``
#: holds four pages and produced its last token long ago (its TPOT deadline
#: passed), ``fresh`` holds two and just produced one.  A third inferlet
#: then asks for three pages with two free.
BIG = Member("big", "default", 0.0, tokens=(0.1,), pages=4, state="blocked")
FRESH = Member("fresh", "default", 0.0, tokens=(NOW,), pages=2, state="blocked")


def scripted_on_demand_reclamation() -> Tuple[World, Optional[str]]:
    world = World([BIG, FRESH], qos_on=False, specs=(), num_kv_pages=8)
    parent = parent_reclaim_pick(world.swap, None, world.shard, exclude=(REQUESTER.name,))
    world.controller.alloc_kv_pages(world.requester, world.shard, 3)
    return world, name_of(parent)


def test_on_demand_reclamation_swaps_the_agent_with_more_slack():
    world, parent = scripted_on_demand_reclamation()
    assert parent == "big"  # most pages first
    assert world.swapped() == {"fresh"}
    assert world.instances["fresh"].metrics.deadline - NOW > 0 > (
        world.instances["big"].metrics.deadline - NOW
    )
    # Counted at the rung by the core, with every plane off.
    metrics = world.server.metrics
    assert (metrics.reclamation_swaps, metrics.reclamation_terminations) == (1, 0)
    record = metrics.tenants["default"]
    assert (record.preempted_swaps, record.preempted_terminations) == (1, 0)


def test_termination_is_counted_for_the_victims_tenant_with_every_plane_off():
    """Nobody is blocked, so the termination rung runs: it kills the lowest
    class (the parent killed the youngest, the requester itself) and bills
    the victim's tenant."""
    early = Member("early", "jobs", 0.0, pages=3)  # TTFT deadline 10 s out
    late = Member("late", "chat", 2.0, pages=3)  # TTFT deadline 2.25 s: past
    world = World([early, late], qos_on=False, num_kv_pages=8)
    assert name_of(parent_youngest_victim(world.controller, None, world.shard)) == "req"
    world.controller.alloc_kv_pages(world.requester, world.shard, 4)
    assert world.instances["early"].status == "terminated"
    assert world.instances["late"].status == "running"
    # The record is started at the rung if no launch started it.
    records = world.server.metrics.tenants
    assert {name: record.preempted_terminations for name, record in records.items()} == {
        "jobs": 1
    }


# -- (d) mutants ----------------------------------------------------------------------


def key_without_slack(self, instance, n_pages=0):
    return (
        -self.tenants[instance.tenant].rank,
        -n_pages,
        -instance.metrics.launched_at,
        instance.instance_id,
    )


def key_without_class(self, instance, n_pages=0):
    deadline = instance.metrics.deadline
    return (
        -(deadline - self.sim.now),
        -n_pages,
        -instance.metrics.launched_at,
        instance.instance_id,
    )


def termination_without_resident_pool(self, shard):
    candidates = [self._instances[i] for i in shard.resources.owners()]
    return min(candidates, key=self.victim_key, default=None)


#: The batch job is overdue, the interactive turn has its whole TTFT budget
#: left: class goes first, so the batch job is the victim.
CLASS_CASE = [Member("job", "jobs", 0.0, tokens=(0.5,)), Member("turn", "chat", NOW)]
#: ``parked`` (swapped out, all the slack) frees nearly nothing; the resident
#: ``busy`` goes first.
RESIDENT_CASE = [
    Member("parked", "jobs", NOW, state="swapped"),
    Member("busy", "jobs", 0.0, tokens=(0.5,)),
]


def test_class_goes_before_slack():
    assert World(CLASS_CASE, qos_on=False).termination_pick() == "job"


def test_resident_inferlets_are_terminated_first():
    assert World(RESIDENT_CASE, qos_on=False).termination_pick() == "busy"


def test_an_unstamped_inferlet_has_all_the_slack_there_is():
    """``register_inferlet`` without ``launch()`` (the controller-level
    tests drive it so) leaves no deadline: such an inferlet goes first
    within its class instead of failing the comparison."""
    world = World([Member("stamped", "std", 0.0)], qos_on=False)
    bare = InferletInstance(PROGRAM, instance_id="bare", tenant="std")
    world.controller.register_inferlet(bare)
    assert bare.metrics.deadline is None
    assert world.termination_pick() == "bare"


@pytest.mark.parametrize(
    "name, attr, mutant, caught_by",
    [
        ("no slack term", "victim_key", key_without_slack, "scripted swap"),
        ("no class term", "victim_key", key_without_class, "class case"),
        ("no resident-first pool", "_termination_victim", termination_without_resident_pool, "resident case"),
    ],
)
def test_mutants_are_killed(monkeypatch, name, attr, mutant, caught_by):
    monkeypatch.setattr(Controller, attr, mutant)
    if caught_by == "scripted swap":
        world, _ = scripted_on_demand_reclamation()
        assert world.swapped() != {"fresh"}, name
    elif caught_by == "class case":
        assert World(CLASS_CASE, qos_on=False).termination_pick() != "job", name
    else:
        assert World(RESIDENT_CASE, qos_on=False).termination_pick() != "busy", name


# -- one order, in the core -----------------------------------------------------------


def test_the_victim_order_is_the_controllers_alone():
    assert not hasattr(qos_module, "QosService")
    assert "qos" not in inspect.getsource(swap_module)
    assert "qos" not in inspect.signature(swap_module.SwapManager).parameters
