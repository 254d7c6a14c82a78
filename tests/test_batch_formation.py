"""Batch-formation unit tests: merge equivalence and the strawmen's one timer.

Three regressions guarded here:

* ``_merge_runs`` (and ``CommandQueue.ready_runs``) check hazards against
  accumulated read and write sets instead of pairwise scans — the output
  must be *identical* to the reference (pairwise) implementation on seeded
  random queue populations;
* ``t_only`` used to schedule a fresh sim event on **every** submit (a
  timer storm under load); ``k_only`` and ``t_only`` now keep at most one
  ripeness timer armed, re-armed by ``BatchScheduler._pump`` for the oldest
  still-pending command;
* ripeness counts from a command's issue, not from its delivery: a lone
  command dispatches exactly ``T_TIMEOUT_MS`` (``t_only``) or
  ``MAX_WAIT_MS`` (``k_only``) after its ``issue_time``, and a ``k_only``
  kind at once on its ``k_threshold``-th pending command.
"""

import random

import pytest

from repro.core import InferletProgram, PieServer
from repro.core.batching import _merge_runs
from repro.core.command_queue import Command, CommandQueue
from repro.core.config import ControlLayerConfig, PieConfig, SchedulerConfig
from repro.core.scheduler import MAX_WAIT_MS, T_TIMEOUT_MS, BatchScheduler
from repro.gpu.config import GpuConfig
from repro.gpu.device import SimDevice
from repro.sim import Simulator
from repro.support import Context, SamplingParams
from tests.test_scheduler_index import StubHandlers

#: Four kinds, every one hazard-checked; the fence is a residual's mark
#: (``chunks_taken``), drawn for one command in ten.
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
    """The pre-optimisation _merge_runs, kept verbatim as the oracle; each
    run comes with its queue's priority."""
    ordered_runs = sorted(
        runs, key=lambda entry: (-entry[0], entry[1][0].issue_time, entry[1][0].command_id)
    )
    merged = []
    total_rows = 0
    for _, run in ordered_runs:
        for command in run:
            if total_rows + command.rows > max_batch_rows:
                return merged
            if any(command.conflicts_with(existing) for existing in merged):
                break
            merged.append(command)
            total_rows += command.rows
    return merged


def _random_population(rng, n_queues=12, max_run=8):
    """Random same-kind runs with overlapping write sets, each with its
    queue's priority."""
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
                    rows=rng.randint(1, 3),
                    writes=writes,
                )
            )
        runs.append((priority, run))
    return runs


def test_merge_runs_matches_reference_on_seeded_populations():
    rng = random.Random(1234)
    for trial in range(200):
        runs = _random_population(rng)
        max_rows = rng.randint(1, 24)
        fast = _merge_runs([(p, list(r)) for p, r in runs], max_rows, *DEFAULT_BUDGET)
        slow = _reference_merge([(p, list(r)) for p, r in runs], max_rows)
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
            queue.issue(command)
            queue.push(command)
        limit = rng.randint(1, 12)
        assert queue.ready_runs(limit) == _reference_runs(commands, limit), f"trial {trial}"


def _make_agent(index):
    async def main(ctx):
        context = Context(ctx, sampling=SamplingParams())
        await context.fill(f"Agent {index} reporting in with a short prompt. ")
        await context.generate_until(max_tokens=6)
        context.free()
        return context.generated_ids

    return InferletProgram(name=f"tonly{index}", main=main)


@pytest.mark.parametrize("policy", ["k_only", "t_only"])
def test_strawmen_arm_one_timer_not_one_per_submit(policy):
    """The timer-storm regression: one ripeness timer is armed at a time,
    so its events scale with the flushes, not with the submitted commands."""
    sim = Simulator(seed=5)
    server = PieServer(sim, config=PieConfig(scheduler=SchedulerConfig(policy=policy)))
    scheduler = server.service().shards[0].scheduler

    # Count the sim events scheduled for the timer, and how many are
    # outstanding at once.
    timer = {"armed": 0, "outstanding": 0, "most": 0}
    original_schedule = sim.schedule

    def fired(*args):
        timer["outstanding"] -= 1
        scheduler._woken(*args)

    def counting_schedule(delay, callback, *args):
        if getattr(callback, "__name__", "") == "_woken" and args == ("ripe",):
            timer["armed"] += 1
            timer["outstanding"] += 1
            timer["most"] = max(timer["most"], timer["outstanding"])
            callback = fired
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
    assert commands > 50  # the workload is big enough to have stormed before
    assert timer["most"] == 1
    # A timer per submitted command would be >= commands events.
    assert timer["armed"] < commands / 2, (timer["armed"], commands)
    # And the policy still drains everything.
    assert scheduler.total_pending == 0


def _stub_scheduler(sim, policy, k_threshold=64):
    return BatchScheduler(
        sim,
        SimDevice(sim),
        StubHandlers(),
        SchedulerConfig(policy=policy, k_threshold=k_threshold),
        GpuConfig(max_batch_rows=16),
        ControlLayerConfig(),
    )


def _dispatch_times(sim, scheduler):
    """The virtual times at which ``scheduler`` hands a batch to its device."""
    times = []
    submit = scheduler.device.submit

    def record(**kwargs):
        times.append(sim.now)
        return submit(**kwargs)

    scheduler.device.submit = record
    return times


#: A command reaches its scheduler this long after its issue (the call
#: overhead, ``Controller.inference_call_overhead``).
DELIVERY_S = 0.0003


def _issue(sim, scheduler, key="q"):
    """Issue one sample on queue ``key`` now; it arrives after ``DELIVERY_S``."""
    queue = scheduler.get_queue(key)
    command = Command(
        kind="sample", inferlet_id="o", payload={}, future=sim.create_future(), issue_time=sim.now
    )
    queue.issue(command)
    sim.schedule(DELIVERY_S, scheduler.submit, key, command)


@pytest.mark.parametrize(("policy", "bound_ms"), [("t_only", T_TIMEOUT_MS), ("k_only", MAX_WAIT_MS)])
def test_a_lone_command_ripens_its_bound_after_its_issue(policy, bound_ms):
    sim = Simulator()
    scheduler = _stub_scheduler(sim, policy)
    scheduler.create_queue("q", model="m", owner="o")
    times = _dispatch_times(sim, scheduler)
    _issue(sim, scheduler)
    sim.run(until=bound_ms / 1e3 - 1e-6)
    assert times == []  # not before
    sim.run()
    assert times == [pytest.approx(bound_ms / 1e3, abs=1e-9)]
    assert scheduler.total_pending == 0


def test_k_only_dispatches_a_kind_at_its_k_th_pending_command():
    sim = Simulator()
    scheduler = _stub_scheduler(sim, "k_only", k_threshold=3)
    for key in ("a", "b", "c"):
        scheduler.create_queue(key, model="m", owner=key)
    times = _dispatch_times(sim, scheduler)
    for at, key in enumerate(("a", "b", "c")):
        sim.schedule(0.001 * at, _issue, sim, scheduler, key)
    sim.run()
    # Issued at 0, 1 and 2 ms: one batch of three when the third arrives.
    assert times == [pytest.approx(0.002 + DELIVERY_S, abs=1e-9)]
    assert scheduler.stats.batches_dispatched == 1
    assert scheduler.stats.commands_dispatched == 3
