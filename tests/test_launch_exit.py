"""An inferlet leaves once: ``InferletLifecycleManager._retire`` gives back
everything a launch took — its gate slot, its Wasm sandbox, its completion
future (``instance.done``) — whatever way the launch ends, and a
termination that lands before the program runs sticks.

The launch-path defects this pins down, each with a mutant:

* a launch whose placement failed kept its sandbox (only a program's exit
  released one): *release skipped in ``_retire``*;
* a launch terminated while it waited for the executor still built a
  sandbox: *the check before the build removed*;
* a client abort during the build was lost — the inferlet ran on and was
  counted both terminated and finished: *the check after the build
  removed*.

One defect stays open, as a strict xfail: a sandbox counts against the pool
only once it is built, so five launches at once under a 2-slot pool all get
one (ROADMAP item 9 says why the fix waits).

Plus the satellites of the same exit: a dead subscriber leaves the message
bus, a fleet whose launches are refused a sandbox runs to its end, and
terminating an inferlet that already left changes nothing.
"""

import pytest

from repro.bench.loadgen import run_open_loop
from repro.core import InferletProgram, PieServer
from repro.core.api import InferletContext
from repro.core.config import ControlLayerConfig, PieConfig, WasmRuntimeConfig
from repro.core.lifecycle import InferletLifecycleManager
from repro.core.wasm import WARM_INSTANTIATE_MS, WasmRuntime
from repro.errors import (
    InferletError,
    InferletTerminated,
    SandboxPoolExhaustedError,
    ShardUnavailableError,
)
from repro.gpu.config import GpuConfig
from repro.sim import Simulator
from repro.sim.latency import milliseconds


def sleeper(seconds):
    async def main(ctx):
        await ctx._sim.sleep(seconds)
        return "done"

    return InferletProgram(name="sleeper", main=main)


def make_server(config=None, program=None, seed=0):
    server = PieServer(Simulator(seed=seed), config=config)
    server.register_program(program or sleeper(0.5))
    return server


def step_dry(server, check=lambda: None, max_steps=200_000):
    for _ in range(max_steps):
        if not server.sim.step():
            return
        check()
    pytest.fail("the event queue did not drain")


# -- the three launch-path defects --------------------------------------------


def check_a_failed_placement_gives_back_its_sandbox():
    """Both shards of a 2-device cluster crash at 0; a launch at 50 ms is
    built a sandbox, then finds no healthy shard to be placed on."""
    config = PieConfig(
        gpu=GpuConfig(num_devices=2),
        control=ControlLayerConfig(
            fault_plan=(("shard_crash", 0.0, 0), ("shard_crash", 0.0, 1))
        ),
    )
    server = make_server(config)
    late = []
    server.sim.schedule(0.05, lambda: late.append(server.launch("sleeper")))
    step_dry(server)
    instance, ready = late[0]
    assert isinstance(ready.exception(), ShardUnavailableError)
    assert server.runtime.live_instances == 0
    assert instance.status == "failed" and instance.done.result() is instance


def check_a_launch_terminated_before_its_turn_builds_nothing():
    """Under a 1-slot pool, a launch aborted at 0 — before the executor
    handles it — builds no sandbox, and the launch behind it runs."""
    server = make_server(PieConfig(wasm=WasmRuntimeConfig(pool_size=1)))
    aborted, aborted_ready = server.launch("sleeper")
    server.lifecycle.abort(aborted)
    ran, _ = server.launch("sleeper")
    step_dry(server)
    assert (aborted.status, ran.status) == ("terminated", "finished")
    assert isinstance(aborted_ready.exception(), InferletTerminated)
    assert server.runtime.get_binary("sleeper").launches == 1
    assert server.runtime.live_instances == 0


def check_an_abort_during_instantiate_sticks():
    """Launched at 0, aborted at 5 ms — inside the 10 ms sandbox build."""
    assert 5.0 < WARM_INSTANTIATE_MS
    server = make_server()
    instance, ready = server.launch("sleeper")
    server.sim.schedule(milliseconds(5.0), lambda: server.lifecycle.abort(instance))
    step_dry(server)
    metrics = server.metrics
    assert instance.status == "terminated"
    assert (metrics.inferlets_terminated, metrics.inferlets_finished) == (1, 0)
    assert isinstance(ready.exception(), InferletTerminated)
    assert instance.task is None and instance.done.result() is instance
    assert server.runtime.live_instances == 0
    assert server.controller.concurrent_inferlets == 0


def test_a_failed_placement_gives_back_its_sandbox():
    check_a_failed_placement_gives_back_its_sandbox()


def test_a_launch_terminated_before_its_turn_builds_nothing():
    check_a_launch_terminated_before_its_turn_builds_nothing()


def test_an_abort_during_instantiate_sticks():
    check_an_abort_during_instantiate_sticks()


def test_every_exit_resolves_the_one_completion_future():
    """Finished, aborted while it waits for the executor, refused a
    sandbox: each launch's ``done`` resolves with the instance, and each
    exit is counted once."""
    server = make_server(PieConfig(wasm=WasmRuntimeConfig(pool_size=1)))
    ran, _ = server.launch("sleeper")
    aborted, _ = server.launch("sleeper")
    server.lifecycle.abort(aborted)
    late = []
    # By 20 ms the first launch holds the pool's only sandbox.
    server.sim.schedule(0.02, lambda: late.append(server.launch("sleeper")))
    step_dry(server)
    refused, ready = late[0]
    assert isinstance(ready.exception(), SandboxPoolExhaustedError)
    assert [i.status for i in (ran, aborted, refused)] == ["finished", "terminated", "failed"]
    assert all(i.done.result() is i for i in (ran, aborted, refused))
    metrics = server.metrics
    assert (metrics.inferlets_finished, metrics.inferlets_terminated) == (1, 1)
    assert metrics.inferlets_failed == 1


def test_a_termination_before_the_programs_first_step_exits_once():
    """Terminated after its task was made but before that task's first
    step: the coroutine is closed unrun, so ``_run_program``'s ``finally``
    never runs and the termination hook retires it instead."""
    server = make_server()
    instance, ready = server.launch("sleeper")
    while instance.task is None:
        server.sim.step()
    assert not instance.task.entered
    server.lifecycle.abort(instance)
    step_dry(server)
    assert instance.status == "terminated"
    assert instance.task.exception().cause == "client_abort"
    assert instance.done.result() is instance and ready.result() is instance
    assert server.runtime.live_instances == 0
    assert server.lifecycle.gates["default"].running == set()
    assert server.metrics.tenants["default"].terminated == 1


def test_a_client_abort_is_typed():
    """An abort says why: ``client_abort`` on the instance, whether it is
    aborted before its turn (and on the launch's ``InferletTerminated``) or
    while its program runs."""
    server = make_server()
    waiting, waiting_ready = server.launch("sleeper")
    server.lifecycle.abort(waiting)
    running, _ = server.launch("sleeper")
    server.sim.schedule(0.2, lambda: server.lifecycle.abort(running))
    step_dry(server)
    assert running.task is not None and running.status == "terminated"
    assert waiting_ready.exception().cause == "client_abort"
    assert (waiting.terminated_cause, running.terminated_cause) == ("client_abort",) * 2


def test_a_running_program_forced_out_sees_the_typed_termination():
    """The abort is thrown into the program as ``InferletTerminated`` with
    its cause, not as a bare cancellation."""
    seen = []

    async def main(ctx):
        try:
            await ctx.sleep(0.5)
        except BaseException as exc:
            seen.append((type(exc).__name__, getattr(exc, "cause", None)))
            raise
        return "done"

    server = make_server(program=InferletProgram(name="sleeper", main=main))
    instance, _ = server.launch("sleeper")
    server.sim.schedule(0.2, lambda: server.lifecycle.abort(instance))
    step_dry(server)
    assert seen == [("InferletTerminated", "client_abort")]
    assert instance.status == "terminated"


def test_terminating_an_inferlet_that_left_is_a_no_op():
    """A client abort and two forced terminations after the program
    finished change neither its status nor any exit count."""
    server = make_server()
    instance, _ = server.launch("sleeper")
    step_dry(server)
    assert instance.status == "finished"
    server.lifecycle.abort(instance)
    server.controller.terminate_inferlet(instance, "late", cause="shard_down")
    server.controller.terminate_inferlet(instance, "later")
    step_dry(server)
    assert instance.status == "finished" and instance.terminated_reason is None
    metrics = server.metrics
    assert (metrics.inferlets_finished, metrics.inferlets_terminated) == (1, 0)
    record = metrics.tenants["default"]
    assert (record.finished, record.terminated) == (1, 0)


# -- three mutants ------------------------------------------------------------------


def release_skipped(self, holder):
    """Mutant: ``_retire`` never gives the sandbox back; only a program's
    exit would (the old ``release_instance`` in ``_run_program``)."""


def launch_checking(before_build, after_build):
    """Mutant ``_launch_one`` that looks for a termination only where asked."""

    async def _launch_one(self, instance, ready, handled_at):
        handled = self.sim.create_future()
        self.sim.call_at(handled_at, handled.set_result, None)
        await handled
        if before_build and instance.finished:
            self._abort_launch(instance, ready)
            return
        try:
            await self.runtime.instantiate(instance.program.name, instance.instance_id)
            if after_build and instance.finished:
                self._abort_launch(instance, ready)
                return
            self.controller.register_inferlet(instance)
        except (InferletError, ShardUnavailableError) as exc:
            self._retire(instance, "failed")
            ready.set_exception(exc)
            return
        instance.metrics.status = "running"
        instance.metrics.started_at = self.sim.now
        ctx = InferletContext(instance, self.controller)
        instance.task = self.sim.create_task(self._run_program(instance, ctx))
        ready.set_result(instance)

    return _launch_one


@pytest.mark.parametrize(
    "holder, attr, mutant, check",
    [
        (WasmRuntime, "release", release_skipped, check_a_failed_placement_gives_back_its_sandbox),
        (
            InferletLifecycleManager,
            "_launch_one",
            launch_checking(before_build=False, after_build=True),
            check_a_launch_terminated_before_its_turn_builds_nothing,
        ),
        (
            InferletLifecycleManager,
            "_launch_one",
            launch_checking(before_build=True, after_build=False),
            check_an_abort_during_instantiate_sticks,
        ),
    ],
    ids=["release-skipped", "no-check-before-build", "no-check-after-build"],
)
def test_mutants_are_killed(monkeypatch, holder, attr, mutant, check):
    monkeypatch.setattr(holder, attr, mutant)
    with pytest.raises(AssertionError):
        check()


def test_the_mutant_with_both_checks_passes(monkeypatch):
    """The mutants differ from the real ``_launch_one`` in their checks only."""
    monkeypatch.setattr(
        InferletLifecycleManager, "_launch_one", launch_checking(True, True)
    )
    check_a_launch_terminated_before_its_turn_builds_nothing()
    check_an_abort_during_instantiate_sticks()


# -- the open defect ----------------------------------------------------------------


@pytest.mark.xfail(
    strict=True,
    reason="a sandbox counts against the pool only once built (ROADMAP item 9)",
)
def test_the_pool_caps_sandboxes_while_they_are_built():
    """Five 0.5 s sleepers at t=0 under a 2-slot pool: two run, three are
    refused a sandbox, and no event ever sees more than two held."""
    server = make_server(PieConfig(wasm=WasmRuntimeConfig(pool_size=2)))
    runtime = server.runtime
    launches = [server.launch("sleeper") for _ in range(5)]
    peak = [0]

    def held():
        peak[0] = max(peak[0], runtime.live_instances)

    step_dry(server, held)
    assert peak[0] == 2 and runtime.live_instances == 0
    statuses = [instance.status for instance, _ in launches]
    assert statuses == ["finished", "finished", "failed", "failed", "failed"]
    for _, ready in launches[2:]:
        assert isinstance(ready.exception(), InferletError)
        assert "Wasm instance pool exhausted" in str(ready.exception())
    assert server.metrics.inferlets_failed == 3


# -- satellites of the same exit -----------------------------------------------------


def test_a_dead_subscriber_stops_receiving():
    """A listener aborted at 50 ms is off the topic for a broadcast at 100 ms."""
    server = PieServer(Simulator(seed=0))

    async def listen(ctx):
        return await ctx.subscribe("news").next_message()

    async def speak(ctx):
        await ctx.sleep(0.1)
        return ctx.broadcast("news", "hello")

    server.register_program(InferletProgram(name="listen", main=listen))
    server.register_program(InferletProgram(name="speak", main=speak))
    listener, _ = server.launch("listen")
    speaker, _ = server.launch("speak")
    server.sim.schedule(0.05, lambda: server.lifecycle.abort(listener))
    server.sim.run()
    assert listener.status == "terminated" and speaker.status == "finished"
    assert speaker.result == 0
    assert all(
        listener.instance_id not in mailboxes
        for mailboxes in server.controller.bus._subscribers.values()
    )


def test_a_fleet_refused_sandboxes_runs_to_its_end():
    """An 8-slot pool under 60 open-loop arrivals at 600 req/s: launches
    refused a sandbox are counted failed, in the row and per class, and the
    denominators stay the offered requests."""
    row = run_open_loop(
        60, 600.0, seed=11, config=PieConfig(wasm=WasmRuntimeConfig(pool_size=8))
    )
    assert row["failed"] > 0 and row["shed"] == 0
    assert row["finished"] + row["failed"] == row["n_requests"] == 60
    assert row["failed"] == sum(tally["failed"] for tally in row["per_class"].values())
    assert row["slo_attainment"] == row["goodput_count"] / 60
