"""``wait_for_completion`` on an inferlet that never got a task.

It used to poll every virtual millisecond for ``instance.task`` to appear,
forever: an instance retired before it ever ran (aborted while parked in the
launch queue or in QoS admission, or refused by the Wasm pool) kept the event
queue non-empty for good — ``sim.run()`` never returned and the waiter never
resolved.  ``PieClient.wait`` is the public way in.
"""

import pytest

from repro.core import InferletProgram, PieClient, PieServer, TenantSpec
from repro.core.config import PieConfig, WasmRuntimeConfig
from repro.errors import InferletError, InferletTerminated
from repro.sim import Simulator

#: Plenty for these scenarios; the polling loop burned one event per
#: virtual millisecond without end.
MAX_EVENTS = 20_000


async def nap(ctx):
    await ctx.sleep(0.05)
    return "rested"


def make_server(**overrides):
    sim = Simulator(seed=5)
    server = PieServer(sim, **overrides)
    server.register_program(InferletProgram(name="nap", main=nap))
    return sim, server


def assert_drained(sim, server):
    sim.run(max_events=MAX_EVENTS)
    assert sim.heap_size == 0
    assert server.controller.concurrent_inferlets == 0


@pytest.mark.parametrize("wait_first", [False, True])
def test_abort_in_the_launch_queue(wait_first):
    sim, server = make_server()
    instance, ready = server.launch("nap")
    if wait_first:
        done = server.lifecycle.wait_for_completion(instance)
        server.lifecycle.abort(instance)
    else:
        server.lifecycle.abort(instance)
        done = server.lifecycle.wait_for_completion(instance)
    assert_drained(sim, server)
    assert done.result() is instance
    assert instance.status == "terminated" and instance.task is None
    assert isinstance(ready.exception(), InferletTerminated)


@pytest.mark.parametrize("wait_first", [False, True])
def test_abort_in_qos_admission(wait_first):
    sim, server = make_server(tenants=[TenantSpec(name="acme", max_concurrent=1)])
    running, _ = server.launch("nap", tenant="acme")
    parked, ready = server.launch("nap", tenant="acme")
    assert server.metrics.qos_queued == 1
    if wait_first:
        done = server.lifecycle.wait_for_completion(parked)
        server.lifecycle.abort(parked)
    else:
        server.lifecycle.abort(parked)
        done = server.lifecycle.wait_for_completion(parked)
    ran = server.lifecycle.wait_for_completion(running)
    assert_drained(sim, server)
    assert done.result() is parked
    assert parked.status == "terminated" and parked.task is None
    assert isinstance(ready.exception(), InferletTerminated)
    # The inferlet that did run completes through its task, as ever.
    assert ran.result() is running and running.result == "rested"


def test_failed_instantiate():
    config = PieConfig(wasm=WasmRuntimeConfig(pool_size=1))
    sim, server = make_server(config=config)
    first, _ = server.launch("nap")
    ran = server.lifecycle.wait_for_completion(first)  # before it has a task
    sim.run(until=0.02)  # the first now holds the pool's only instance
    assert first.status == "running"
    refused, ready = server.launch("nap")
    waiting = server.lifecycle.wait_for_completion(refused)  # before it fails
    assert_drained(sim, server)
    assert isinstance(ready.exception(), InferletError)
    assert waiting.result() is refused
    assert refused.status == "failed" and refused.task is None
    assert ran.result() is first and first.status == "finished"
    # Asking again after the fact resolves at once.
    again = server.lifecycle.wait_for_completion(refused)
    assert again.done() and again.result() is refused


def test_client_wait_on_an_aborted_launch_returns():
    sim, server = make_server()
    client = PieClient(sim, server)
    instance, _ = server.launch("nap")
    server.lifecycle.abort(instance)
    result = sim.run_until_complete(client.wait(instance), max_events=MAX_EVENTS)
    assert result.status == "terminated"
    assert_drained(sim, server)
