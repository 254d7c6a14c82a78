"""Scheduler queue-index invariants (owner map, readiness set, pending total).

The batch scheduler used to answer ``queues_for_owner``, ``total_pending``
and ``_dispatchable_queues`` by scanning every command queue — O(all
queues) per dispatch, per exit check and per telemetry sample, which melts
at tens of thousands of mostly-idle queues.  The indexes replacing those
scans are incrementally maintained across every queue-lifecycle path
(create / remove / detach / adopt) and every pending-count mutation, so the
tests here hold them to two standards:

* **Oracle consistency** — under seeded random interleavings of queue
  lifecycle, submit, dispatch and suspend operations, each index answer is
  bit-identical (content *and* order) to the brute-force scan it replaced.
* **No full iteration** — with 10k idle queues installed, the submit /
  dispatch / notify_resumed / telemetry paths never iterate the queue
  table at all (enforced by poisoning the table's iteration methods).
"""

import numpy as np
import pytest

from repro.core.command_queue import Command, CommandQueue
from repro.core.config import ControlLayerConfig, SchedulerConfig
from repro.core.metrics import SystemMetrics
from repro.core.scheduler import BatchScheduler
from repro.gpu.config import GpuConfig
from repro.gpu.device import SimDevice
from repro.gpu.kernels import KernelCostModel
from repro.model import get_model_config
from repro.sim import Simulator


#: What a scheduler on stub handlers asks of a cost model — the
#: forward-hold bound and the per-token prefill term — answered by the 1B
#: model's own, so no copy of the formula can drift from it.
COST_MODEL = KernelCostModel(get_model_config("llama-sim-1b"))


class StubHandlers:
    cost_model = COST_MODEL

    def batch_cost_seconds(self, kind, commands):
        return 0.001 * len(commands)

    def execute_batch(self, kind, commands):
        return [1] * len(commands)


def _scheduler(sim, policy="adaptive", metrics=None):
    return BatchScheduler(
        sim,
        SimDevice(sim),
        StubHandlers(),
        SchedulerConfig(policy=policy),
        GpuConfig(max_batch_rows=16),
        ControlLayerConfig(),
        metrics=metrics,
    )


def _command(sim, owner):
    return Command(
        kind="forward",
        inferlet_id=owner,
        payload={"iemb": [1], "okv": [], "oemb": [], "mask": None, "okv_offset": None},
        future=sim.create_future(),
        issue_time=sim.now,
        input_tokens=1,
    )


def _submit(scheduler, key, command):
    """Number ``command`` on its queue, then deliver it: what the controller
    does at issue and after the call overhead."""
    scheduler.get_queue(key).issue(command)
    scheduler.submit(key, command)


def _assert_indexes_match_scan(scheduler):
    """Every index answer must equal the brute-force scan it replaced."""
    queues = scheduler._queues
    # Pending total == full scan.
    assert scheduler.total_pending == sum(q.pending_count for q in queues.values())
    # Readiness set membership == scan for pending queues.
    assert set(scheduler._ready) == {
        key for key, queue in queues.items() if queue.pending_count
    }
    # Dispatchable iteration order == the old full scan's insertion-order
    # walk, restricted to queues that could contribute work.
    guard = scheduler._dispatch_guard
    expected = [
        queue
        for queue in queues.values()
        if queue.pending_count and (guard is None or not guard(queue.owner))
    ]
    assert scheduler._dispatchable_queues() == expected
    # Owner index == per-owner filtered scan, in insertion order.
    owners = {queue.owner for queue in queues.values()}
    for owner in owners:
        assert scheduler.queues_for_owner(owner) == [
            queue for queue in queues.values() if queue.owner == owner
        ]
    for owner in scheduler._owner_queues:
        assert owner in owners  # no stale owner entries survive removal


class TestIndexConsistency:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_interleavings_match_brute_force(self, seed):
        """Seeded random create/remove/detach/adopt/submit/suspend/dispatch
        interleavings across two schedulers: after every operation, each
        index agrees with the scan-based oracle on both schedulers."""
        sim = Simulator(seed=seed)
        rng = np.random.default_rng(seed)
        left = _scheduler(sim)
        right = _scheduler(sim)
        suspended = set()
        for scheduler in (left, right):
            scheduler.set_dispatch_guard(lambda owner: owner in suspended)
        owners = [f"owner{i}" for i in range(6)]
        next_key = [0]

        def op_create(scheduler, other):
            key = f"q{next_key[0]}"
            next_key[0] += 1
            scheduler.create_queue(key, model="m", owner=str(rng.choice(owners)))

        def op_remove(scheduler, other):
            if scheduler._queues:
                key = list(scheduler._queues)[rng.integers(len(scheduler._queues))]
                scheduler.remove_queue(key)

        def op_handoff(scheduler, other):
            if scheduler._queues:
                key = list(scheduler._queues)[rng.integers(len(scheduler._queues))]
                other.adopt_queue(scheduler.detach_queue(key))

        def op_submit(scheduler, other):
            if scheduler._queues:
                key = list(scheduler._queues)[rng.integers(len(scheduler._queues))]
                queue = scheduler.get_queue(key)
                _submit(scheduler, key, _command(sim, queue.owner))

        def op_suspend(scheduler, other):
            owner = str(rng.choice(owners))
            if owner in suspended:
                suspended.discard(owner)
                scheduler.notify_resumed()
            else:
                suspended.add(owner)

        def op_run(scheduler, other):
            sim.run(until=sim.now + 0.05)

        operations = [op_create, op_remove, op_handoff, op_submit, op_suspend, op_run]
        weights = np.array([0.3, 0.1, 0.1, 0.3, 0.1, 0.1])
        for _ in range(400):
            op = operations[rng.choice(len(operations), p=weights)]
            first, second = (left, right) if rng.random() < 0.5 else (right, left)
            op(first, second)
            _assert_indexes_match_scan(left)
            _assert_indexes_match_scan(right)
        sim.run()
        _assert_indexes_match_scan(left)
        _assert_indexes_match_scan(right)

    def test_recreated_key_sorts_by_recreation_order(self):
        """Removing and re-creating a key moves it to the end of dispatch
        order, exactly as re-inserting into ``self._queues`` used to."""
        sim = Simulator()
        scheduler = _scheduler(sim)
        scheduler.create_queue("a", model="m", owner="x")
        scheduler.create_queue("b", model="m", owner="x")
        scheduler.remove_queue("a")
        scheduler.create_queue("a", model="m", owner="x")
        _submit(scheduler, "a", _command(sim, "x"))
        _submit(scheduler, "b", _command(sim, "x"))
        assert [q.key for q in scheduler._dispatchable_queues()] == ["b", "a"]

    def test_detached_queue_stops_feeding_old_scheduler(self):
        """A push after detach must not leak into the origin's counters."""
        sim = Simulator()
        left = _scheduler(sim)
        right = _scheduler(sim)
        left.create_queue("q", model="m", owner="x")
        queue = left.detach_queue("q")
        assert left.total_pending == 0
        command = _command(sim, "x")
        queue.issue(command)
        queue.push(command)
        assert left.total_pending == 0
        right.adopt_queue(queue)
        assert right.total_pending == 1
        assert [q.key for q in right._dispatchable_queues()] == ["q"]


class _NoIterDict(dict):
    """A queue table that forbids whole-table iteration.

    Point lookups (``[]``, ``.get``, ``in``) stay legal — the indexes exist
    precisely so that the hot paths never need anything else."""

    def _poisoned(self, *args, **kwargs):
        raise AssertionError("hot path iterated the full queue table")

    __iter__ = _poisoned
    keys = _poisoned
    values = _poisoned
    items = _poisoned


class TestNoFullIteration:
    def test_submit_dispatch_under_10k_idle_queues(self):
        """With 10k idle queues, submit -> dispatch -> completion plus
        notify_resumed and the telemetry read must never iterate the queue
        table; per-event work depends on live work only."""
        sim = Simulator()
        scheduler = _scheduler(sim)
        for i in range(10_000):
            scheduler.create_queue(f"idle{i}", model="m", owner=f"tenant{i % 100}")
        scheduler.create_queue("hot", model="m", owner="hot-owner")
        # Poison full-table iteration from here on.
        scheduler._queues = _NoIterDict(scheduler._queues)

        for _ in range(5):
            _submit(scheduler, "hot", _command(sim, "hot-owner"))
        assert scheduler.total_pending == 5  # telemetry path
        scheduler.notify_resumed()  # swap-resume poke
        assert scheduler.queues_for_owner("hot-owner")[0].key == "hot"
        sim.run()  # adaptive dispatch + batch completion
        assert scheduler.total_pending == 0
        assert scheduler.stats.commands_dispatched == 5

    def test_eager_policy_under_idle_queues(self):
        sim = Simulator()
        scheduler = _scheduler(sim, policy="eager")
        for i in range(1000):
            scheduler.create_queue(f"idle{i}", model="m", owner="idle")
        scheduler.create_queue("hot", model="m", owner="hot-owner")
        scheduler._queues = _NoIterDict(scheduler._queues)
        _submit(scheduler, "hot", _command(sim, "hot-owner"))
        sim.run()
        assert scheduler.stats.commands_dispatched == 1


class TestCommandsDropped:
    def test_remove_queue_counts_pending_drops(self):
        sim = Simulator()
        scheduler = _scheduler(sim)
        scheduler.create_queue("q", model="m", owner="x")
        for _ in range(3):
            _submit(scheduler, "q", _command(sim, "x"))
        # Remove before the scheduled adaptive dispatch ever runs.
        scheduler.remove_queue("q")
        assert scheduler.metrics.commands_dropped == 3
        # Dispatched work is not "dropped": an empty-queue removal adds 0.
        scheduler.create_queue("p", model="m", owner="x")
        _submit(scheduler, "p", _command(sim, "x"))
        sim.run()
        scheduler.remove_queue("p")
        assert scheduler.metrics.commands_dropped == 3

    def test_cluster_aggregation_sums_drops(self):
        # The shards of a cluster share one SystemMetrics: it is the sum.
        sim = Simulator()
        metrics = SystemMetrics()
        for drops in (2, 5):
            scheduler = _scheduler(sim, metrics=metrics)
            scheduler.create_queue("q", model="m", owner="x")
            for _ in range(drops):
                _submit(scheduler, "q", _command(sim, "x"))
            scheduler.remove_queue("q")
        assert metrics.commands_dropped == 7
