"""Batch-formation unit tests: merge equivalence and the t_only timer fix.

Two regressions guarded here:

* ``_merge_runs`` (and ``CommandQueue.ready_runs``) check hazards against
  accumulated read and write sets instead of pairwise scans — the output
  must be *identical* to the reference (pairwise) implementation on seeded
  random queue populations;
* ``_arm_timeout_flush`` used to schedule a fresh sim event on **every**
  submit (a timer storm under load); it now keeps at most one armed timer,
  re-armed after each flush for the oldest still-pending command.
"""

import random

from repro.core import InferletProgram, PieServer
from repro.core.batching import _merge_runs
from repro.core.command_queue import Command, CommandQueue
from repro.core.config import ControlLayerConfig, PieConfig, SchedulerConfig
from repro.gpu.config import GpuConfig
from repro.sim import Simulator
from repro.support import Context, SamplingParams

#: Three hazard-checked kinds and a fence.
KINDS = ("forward", "sample", "copy_kv", "mask_kv")


def _never_sliced():
    raise AssertionError("a formation unit test sliced a prompt")


#: The default token budget and slice bound, which the few-token commands of
#: the formation unit tests never reach, and a slice-future factory that
#: fails if one ever slices.
DEFAULT_BUDGET = (
    GpuConfig.max_batch_tokens,
    ControlLayerConfig.prefill_chunk_tokens,
    _never_sliced,
)


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
        fast = _merge_runs([list(r) for r in runs], max_rows, *DEFAULT_BUDGET)
        slow = _reference_merge([list(r) for r in runs], max_rows)
        assert fast == slow, f"trial {trial} diverged"


def _hazard(later, earlier):
    return bool(
        later.reads & earlier.writes
        or later.writes & earlier.writes
        or later.writes & earlier.reads
    )


def _reference_runs(commands, limit):
    """Vertical batching spelled out pairwise: a command joins its kind's run
    unless the run is full, it write-write conflicts with the run, or it has
    a hazard with an earlier command outside the run; a fence joins only when
    everything before it is in its run, and nothing passes it.  Runs come in
    the order of the first command that joins each."""
    runs = {}
    for index, command in enumerate(commands):
        run = runs.get(command.kind, [])
        fits = len(run) < limit and not any(command.conflicts_with(c) for c in run)
        if command.is_fence or any(c.is_fence for c in commands[:index]):
            if fits and len(run) == index:
                runs[command.kind] = run + [command]
                continue
            break
        outside = [c for c in commands[:index] if not any(c is r for r in run)]
        if fits and not any(_hazard(command, c) for c in outside):
            runs[command.kind] = run + [command]
    return list(runs.values())


def test_ready_runs_set_based_hazards_match_pairwise():
    rng = random.Random(99)

    def keys():
        return frozenset(
            (rng.choice(("kv", "emb")), rng.randint(0, 8)) for _ in range(rng.randint(0, 2))
        )

    for trial in range(300):
        queue = CommandQueue(key="q", model="m", owner="o")
        commands = []
        for i in range(rng.randint(1, 12)):
            command = Command(
                kind=rng.choice(KINDS),
                inferlet_id="o",
                payload={},
                future=None,
                issue_time=float(i),
                reads=keys(),
                writes=keys(),
                chunks_taken=int(rng.random() < 0.1),
            )
            commands.append(command)
            queue.push(command)
        limit = rng.randint(1, 12)
        assert queue.ready_runs(limit) == _reference_runs(commands, limit), f"trial {trial}"


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
