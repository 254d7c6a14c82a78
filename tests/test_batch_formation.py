"""Batch-formation unit tests: merge equivalence and the t_only timer fix.

Two regressions guarded here:

* ``_merge_runs`` (and ``CommandQueue.head_run``) replaced their O(n^2)
  pairwise ``conflicts_with`` scans with accumulated write-set
  intersections — the merge output must be *identical* to the reference
  (pairwise) implementation on seeded random queue populations;
* ``_arm_timeout_flush`` used to schedule a fresh sim event on **every**
  submit (a timer storm under load); it now keeps at most one armed timer,
  re-armed after each flush for the oldest still-pending command.
"""

import random

from repro.core import InferletProgram, PieServer
from repro.core.batching import _merge_runs
from repro.core.command_queue import Command, CommandQueue
from repro.core.config import PieConfig, SchedulerConfig
from repro.sim import Simulator
from repro.support import Context, SamplingParams

KINDS = ("forward", "sample", "copy_kv")


def _reference_merge(runs, max_batch_rows):
    """The pre-optimisation _merge_runs, kept verbatim as the oracle."""
    ordered_runs = sorted(
        runs, key=lambda run: (-run[0].priority, run[0].issue_time, run[0].command_id)
    )
    merged = []
    total_rows = 0
    for run in ordered_runs:
        for command in run:
            if total_rows + command.rows > max_batch_rows:
                return merged
            if any(command.conflicts_with(existing) for existing in merged):
                break
            merged.append(command)
            total_rows += command.rows
    return merged


def _random_population(rng, n_queues=12, max_run=8):
    """Random same-kind runs with overlapping write sets and priorities."""
    runs = []
    for q in range(n_queues):
        kind = rng.choice(KINDS)
        run = []
        priority = rng.randint(-2, 2)
        for i in range(rng.randint(1, max_run)):
            writes = frozenset(
                ("kv", rng.randint(0, 30)) for _ in range(rng.randint(0, 3))
            )
            run.append(
                Command(
                    kind=kind,
                    inferlet_id=f"inf{q}",
                    payload={},
                    future=None,
                    issue_time=rng.random(),
                    queue_key=q,
                    priority=priority,
                    rows=rng.randint(1, 3),
                    writes=writes,
                )
            )
        runs.append(run)
    return runs


def test_merge_runs_matches_reference_on_seeded_populations():
    rng = random.Random(1234)
    for trial in range(200):
        runs = _random_population(rng)
        max_rows = rng.randint(1, 24)
        fast = _merge_runs([list(r) for r in runs], max_rows)
        slow = _reference_merge([list(r) for r in runs], max_rows)
        assert fast == slow, f"trial {trial} diverged"


def test_head_run_set_based_conflicts_match_pairwise():
    rng = random.Random(99)
    for trial in range(100):
        queue = CommandQueue(key="q", model="m", owner="o")
        commands = []
        for i in range(rng.randint(1, 12)):
            writes = frozenset(
                ("kv", rng.randint(0, 8)) for _ in range(rng.randint(0, 2))
            )
            command = Command(
                kind=rng.choice(KINDS),
                inferlet_id="o",
                payload={},
                future=None,
                issue_time=float(i),
                writes=writes,
            )
            commands.append(command)
            queue.push(command)
        limit = rng.randint(1, 12)
        run = queue.head_run(limit)
        # Reference: longest same-kind prefix with pairwise write-write check.
        expected = []
        for command in commands:
            if len(expected) >= limit:
                break
            if expected and command.kind != expected[0].kind:
                break
            if any(command.conflicts_with(existing) for existing in expected):
                break
            expected.append(command)
        assert run == expected, f"trial {trial} diverged"


def _t_only_server(sim):
    config = PieConfig(scheduler=SchedulerConfig(policy="t_only"))
    return PieServer(sim, config=config)


def _make_agent(index):
    async def main(ctx):
        context = Context(ctx, sampling=SamplingParams())
        await context.fill(f"Agent {index} reporting in with a short prompt. ")
        await context.generate_until(max_tokens=6)
        context.free()
        return context.generated_ids

    return InferletProgram(name=f"tonly{index}", main=main)


def test_t_only_arms_one_timer_not_one_per_submit():
    """The timer-storm regression: flush events scheduled must scale with
    the number of flushes, not with the number of submitted commands."""
    sim = Simulator(seed=5)
    server = _t_only_server(sim)
    scheduler = server.service().scheduler

    # Count the actual sim events scheduled for the flush callback.
    scheduled = {"flush_events": 0}
    original_schedule = sim.schedule

    def counting_schedule(delay, callback, *args):
        if getattr(callback, "__name__", "") == "_timeout_flush":
            scheduled["flush_events"] += 1
        return original_schedule(delay, callback, *args)

    sim.schedule = counting_schedule

    programs = [_make_agent(i) for i in range(8)]
    for program in programs:
        server.register_program(program)

    async def run_all():
        tasks = [sim.create_task(server.run_inferlet(p.name)) for p in programs]
        return await sim.gather(tasks)

    results = sim.run_until_complete(run_all())
    assert all(r.status == "finished" for r in results)

    commands = scheduler.stats.commands_dispatched
    flushes = scheduled["flush_events"]
    assert flushes == scheduler.timeout_timers_armed
    assert commands > 50  # the workload is big enough to have stormed before
    # Old behaviour scheduled >= one event per submitted command; the
    # coalesced timer schedules at most one per flush cycle.
    assert flushes < commands / 2, (flushes, commands)
    # And the policy still drains everything within its timeout cadence.
    assert scheduler.total_pending == 0
