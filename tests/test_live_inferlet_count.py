"""The controller's live-inferlet count is its registry's size.

``Controller.concurrent_inferlets`` — the fleet-size term of every API call's
overhead (Figure 10) — is ``len`` of the registry, which is right only if no
finished instance stays registered.  Every seeded run below is driven one
``sim.step()`` at a time, and after each step the count must equal a fresh
scan for unfinished instances, whichever way the inferlets left.
"""

import sys

import pytest

from repro.core import InferletProgram, PieServer, TenantSpec
from repro.core.config import ControlLayerConfig, PieConfig, WasmRuntimeConfig
from repro.core.inferlet import InferletInstance
from repro.errors import InferletError, InferletTerminated, ShardUnavailableError
from repro.gpu.config import GpuConfig
from repro.sim import Simulator
from repro.sim.latency import ConstantLatency
from repro.support import Context, SamplingParams

TOOL_URL = "http://tools/slow"


def drain(server, max_steps=2_000_000):
    """Step the simulator dry, checking the count after every event."""
    controller = server.controller
    for _ in range(max_steps):
        if not server.sim.step():
            break
        registered = controller.instances()
        assert all(not inst.finished for inst in registered), [
            inst for inst in registered if inst.finished
        ]
        assert controller.concurrent_inferlets == len(registered)
    else:
        pytest.fail("the event queue did not drain")
    assert controller.concurrent_inferlets == 0


def sleeper(seconds, outcome=None):
    async def main(ctx):
        await ctx._sim.sleep(seconds)
        if outcome is not None:
            raise outcome
        return "done"

    return main


def make_agent(name, interactions=3):
    async def main(ctx):
        context = Context(ctx, sampling=SamplingParams())
        await context.fill("You are a research agent with a long preamble. " * 2)
        for step in range(interactions):
            await context.generate_until(max_tokens=4)
            observation = await ctx.http_get(TOOL_URL)
            await context.fill(f"o{step}:{observation} ")
        answer = await context.generate_until(max_tokens=3)
        context.free()
        return answer

    return InferletProgram(name=name, main=main)


def test_finish_exception_and_a_cancelled_task():
    server = PieServer(Simulator(seed=1))
    server.register_program(InferletProgram(name="ok", main=sleeper(0.03)))
    server.register_program(InferletProgram(name="boom", main=sleeper(0.02, ValueError("boom"))))
    server.register_program(InferletProgram(name="long", main=sleeper(5.0)))
    launched = [server.launch(name)[0] for name in ("ok", "boom", "long", "ok")]
    # Cancelled behind the controller's back: the task dies of a
    # CancelledError without ``terminate_inferlet`` ever being called.
    server.sim.schedule(0.05, lambda: launched[2].task.cancel())
    drain(server)
    assert [inst.status for inst in launched] == ["finished", "failed", "terminated", "finished"]
    assert not server.service().shards[0].resources.has_space(launched[2].instance_id)


def test_client_abort_while_parked_in_the_launch_queue():
    server = PieServer(Simulator(seed=2))
    server.register_program(InferletProgram(name="job", main=sleeper(0.02)))
    launches = [server.launch("job") for _ in range(6)]
    server.lifecycle.abort(launches[4][0], reason="client abort")
    drain(server)
    assert [inst.status for inst, _ in launches] == ["finished"] * 4 + ["terminated", "finished"]
    assert isinstance(launches[4][1].exception(), InferletTerminated)


def test_client_abort_while_parked_in_qos_admission():
    config = PieConfig(
        control=ControlLayerConfig(
            qos=True, monitoring=True, tenants=(TenantSpec(name="jobs", max_concurrent=1),)
        )
    )
    server = PieServer(Simulator(seed=3), config=config)
    server.register_program(InferletProgram(name="job", main=sleeper(0.05)))
    first, _ = server.launch("job", tenant="jobs")
    parked, ready = server.launch("job", tenant="jobs")
    behind, _ = server.launch("job", tenant="jobs")
    server.sim.schedule(0.001, lambda: server.lifecycle.abort(parked, reason="client abort"))
    drain(server)
    assert [inst.status for inst in (first, parked, behind)] == ["finished", "terminated", "finished"]
    assert isinstance(ready.exception(), InferletTerminated)
    assert server.metrics.tenants["jobs"].admitted == 2


def test_instantiate_failure():
    config = PieConfig(wasm=WasmRuntimeConfig(pool_size=1))
    server = PieServer(Simulator(seed=4), config=config)
    server.register_program(InferletProgram(name="job", main=sleeper(0.2)))
    first, _ = server.launch("job")
    late = []
    server.sim.schedule(0.05, lambda: late.append(server.launch("job")))
    drain(server)
    refused, ready = late[0]
    assert (first.status, refused.status) == ("finished", "failed")
    assert isinstance(ready.exception(), InferletError)
    assert server.metrics.inferlets_failed == 1


def test_placement_failure_and_shard_down_termination():
    config = PieConfig(
        gpu=GpuConfig(num_kv_pages=64, num_devices=2),
        control=ControlLayerConfig(
            faults=True, fault_plan=(("shard_crash", 0.1, 0), ("shard_crash", 0.1, 1))
        ),
    )
    server = PieServer(Simulator(seed=5), config=config)
    server.register_external(TOOL_URL, lambda payload: "rows", ConstantLatency(0.3))
    server.register_program(make_agent("agent"))
    early = [server.launch("agent")[0] for _ in range(3)]
    late = []
    server.sim.schedule(0.6, lambda: late.append(server.launch("agent")))
    drain(server)
    assert {inst.status for inst in early} == {"terminated"}
    assert {inst.terminated_cause for inst in early} == {"shard_down"}
    unplaced, ready = late[0]
    assert unplaced.status == "failed"
    assert isinstance(ready.exception(), ShardUnavailableError)


def test_fcfs_reclamation():
    config = PieConfig(gpu=GpuConfig(num_kv_pages=48))
    server = PieServer(Simulator(seed=1), config=config)
    server.register_external(TOOL_URL, lambda payload: "rows", ConstantLatency(0.3))
    launched = []
    for index in range(16):
        server.register_program(make_agent(f"a{index}", interactions=4))
        server.sim.schedule(
            index * 0.06, lambda name=f"a{index}": launched.append(server.launch(name)[0])
        )
    drain(server)
    assert server.metrics.reclamation_terminations > 0
    assert {inst.status for inst in launched} == {"finished", "terminated"}


def test_chaos_relaunch():
    config = PieConfig(
        gpu=GpuConfig(num_kv_pages=64, num_devices=2, host_kv_pages=64),
        control=ControlLayerConfig(
            swap_policy="proactive", faults=True, fault_plan=(("shard_crash", 0.45, 0),)
        ),
    )
    server = PieServer(Simulator(seed=3), config=config)
    server.register_external(TOOL_URL, lambda payload: "rows", ConstantLatency(0.5))

    async def main(ctx):
        context = Context(ctx, sampling=SamplingParams())
        await context.fill("A long analysis prompt. " * 12)
        await context.generate_until(max_tokens=3)
        observation = await ctx.http_get(TOOL_URL)
        await context.fill(f"obs:{observation} ")
        out = await context.generate_until(max_tokens=3)
        context.free()
        return out

    server.register_program(InferletProgram(name="mover", main=main))
    mover, _ = server.launch("mover")
    drain(server)
    assert mover.status == "finished"
    assert server.metrics.failover_relaunches == 1


def python_calls(fn):
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def test_charge_call_does_the_same_work_at_10_and_at_1000_live_inferlets():
    server = PieServer(Simulator(seed=0))
    program = InferletProgram(name="p", main=sleeper(1.0))
    controller = server.controller

    def calls_at(live):
        while controller.concurrent_inferlets < live:
            controller.register_inferlet(InferletInstance(program))
        instance = controller.instances()[0]
        return [
            python_calls(lambda: controller.charge_call(instance, api))
            for api in ("forward", "alloc_kvpage")
        ]

    few, many = calls_at(10), calls_at(1000)
    assert controller.concurrent_inferlets == 1000
    assert few == many
