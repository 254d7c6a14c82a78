"""Admission is the core's: one launch gate, with every plane off.

A tenant's ``TenantSpec`` limits — launch rate and burst, concurrency cap,
backlog bound — are applied by ``InferletLifecycleManager``'s launch gate
in every configuration, so they mean one thing whatever else is
registered.  There is no QoS plane left (dispatch is the core's too, see
``tests/test_dispatch_order.py``).  Here:

* the cap and the backlog bound with every plane off (both launches ran
  before the gate moved into the core, while the QoS plane was off);
* an AST scan: ``lifecycle.py`` names no ``qos``, ``qos.py`` decides no
  admission, and nothing but the tracer is a lifecycle observer;
* three mutants the gate's tests kill: a cap ignored unless classes are
  told apart (what the old ``qos`` knob meant), an abort-while-parked that
  consumes a slot, and a pump that skips the bucket refill.
"""

import ast
import pathlib

import pytest

from repro.core import InferletProgram, PieServer, TenantSpec
from repro.core.config import ControlLayerConfig, PieConfig
from repro.core.lifecycle import InferletLifecycleManager, TenantGate
from repro.errors import AdmissionRejectedError, InferletTerminated
from repro.sim import Simulator

CORE = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro" / "core"


def server_with(*specs, tracing=False):
    sim = Simulator(seed=0)
    config = PieConfig(control=ControlLayerConfig(tracing=tracing, tenants=specs))
    server = PieServer(sim, config=config)

    async def nap(ctx):
        await ctx._sim.sleep(0.05)
        return "rested"

    server.register_program(InferletProgram(name="nap", main=nap))
    return server


# -- the cap, the backlog and the rate with every plane off ------------------------


def check_the_cap_refuses_with_qos_off():
    server = server_with(TenantSpec("jobs", max_concurrent=1, max_queued=0))
    first, _ = server.launch("nap", tenant="jobs")
    refused = None
    try:
        server.launch("nap", tenant="jobs")
    except AdmissionRejectedError as exc:
        refused = exc
    server.sim.run()
    assert refused is not None, "the second launch was admitted"
    assert (refused.tenant, refused.reason) == ("jobs", "queue_full")
    assert first.status == "finished"
    record = server.metrics.tenants["jobs"]
    assert (record.offered, record.admitted, record.rejected, record.finished) == (2, 1, 1, 1)


def test_the_cap_refuses_the_second_launch_with_qos_off():
    """Fails at the parent: with QoS off nothing applied the cap, and both
    launches ran."""
    check_the_cap_refuses_with_qos_off()


def test_qos_on_and_off_gate_alike():
    """The same limits, the same decisions, whether or not a second class is
    registered (the setup the old ``qos`` knob was switched on for)."""
    outcomes = []
    for others in ((), (TenantSpec("chat", priority_class="interactive"),)):
        server = server_with(TenantSpec("jobs", max_concurrent=1, max_queued=1), *others)
        launched = []
        for _ in range(3):
            try:
                launched.append(server.launch("nap", tenant="jobs")[0])
            except AdmissionRejectedError as exc:
                launched.append(exc.reason)
        server.sim.run()
        outcomes.append([getattr(item, "status", item) for item in launched])
    assert outcomes[0] == outcomes[1] == ["finished", "finished", "queue_full"]


def test_an_unlimited_tenant_is_admitted_synchronously_and_arms_no_timer():
    """The default spec: what every ``perf/`` run launches under."""
    server = server_with()
    pending = server.sim.heap_size
    instances = [server.launch("nap")[0] for _ in range(5)]
    gate = server.lifecycle.gates["default"]
    assert gate.running == {instance.instance_id for instance in instances}
    assert not gate.parked and not gate.refill_timer_armed
    # One handling task per admitted launch, nothing of the gate's.
    assert server.sim.heap_size == pending + 5
    server.sim.run()
    assert gate.running == set()


# -- one admission site --------------------------------------------------------------


def names_in(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.arg):
            yield node.arg
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""


def test_lifecycle_names_no_qos_and_qos_decides_no_admission():
    lifecycle = ast.parse((CORE / "lifecycle.py").read_text(encoding="utf-8"))
    assert [name for name in names_in(lifecycle) if "qos" in name.lower()] == []
    qos = ast.parse((CORE / "qos.py").read_text(encoding="utf-8"))
    # The tenant records only: no service, no function of its own.
    classes = [node.name for node in qos.body if isinstance(node, ast.ClassDef)]
    assert classes == ["TenantSpec", "TenantTable"]
    assert not [node for node in qos.body if isinstance(node, ast.FunctionDef)]
    for gone in ("TokenBucket", "_TenantState", "_DEFAULT_SPEC"):
        assert gone not in {getattr(node, "name", None) for node in qos.body}, gone


def test_qos_is_no_observer():
    server = server_with(TenantSpec("jobs"), TenantSpec("chat", priority_class="interactive"))
    assert not hasattr(server.controller, "qos")
    assert server.controller.observers == ()
    traced = server_with(TenantSpec("jobs"), tracing=True)
    assert [type(o).__name__ for o in traced.controller.observers] == ["LifecycleTracer"]


# -- three mutants -------------------------------------------------------------------


def check_an_abort_while_parked_frees_its_place():
    """max_concurrent=1: one runs, two park, the first parked is aborted;
    when the runner finishes, the one behind is admitted at once and only
    two launches were ever admitted."""
    server = server_with(TenantSpec("jobs", max_concurrent=1))
    first, _ = server.launch("nap", tenant="jobs")
    parked, ready = server.launch("nap", tenant="jobs")
    behind, _ = server.launch("nap", tenant="jobs")
    server.sim.run(until=0.001)
    server.lifecycle.abort(parked, reason="client abort")
    assert isinstance(ready.exception(), InferletTerminated)
    still_parked = list(server.lifecycle.gates["jobs"].parked)
    server.sim.run()
    assert still_parked == [behind.instance_id]
    assert [i.status for i in (first, parked, behind)] == ["finished", "terminated", "finished"]
    record = server.metrics.tenants["jobs"]
    assert (record.admitted, record.queued, record.terminated) == (2, 2, 1)


def check_the_rate_paces_the_backlog():
    """10 launches/s, burst 1: three launches at t=0 are admitted at 0, 0.1
    and 0.2 — each refill wakes the backlog, one token each."""
    server = server_with(TenantSpec("jobs", rate_per_s=10.0, burst=1))
    admitted_at = []
    admit = server.lifecycle._admit

    def stamped(gate, instance, ready):
        admitted_at.append(round(server.sim.now, 9))
        admit(gate, instance, ready)

    server.lifecycle._admit = stamped
    instances = [server.launch("nap", tenant="jobs")[0] for _ in range(3)]
    server.sim.run()
    assert admitted_at == [0.0, 0.1, 0.2]
    assert all(instance.status == "finished" for instance in instances)


def test_an_abort_while_parked_frees_its_place():
    check_an_abort_while_parked_frees_its_place()


def test_the_rate_paces_the_backlog():
    check_the_rate_paces_the_backlog()


def gate_only_with_qos(self, spec, instance, ready):
    """Mutant: the limits apply only when classes are told apart (more than
    one registered), which is when the old ``qos`` knob was on."""
    if len({other.rank for other in self.controller.tenants.values()}) < 2:
        gate = self.gates.setdefault(spec.name, TenantGate(spec, self.sim.now))
        self._admit(gate, instance, ready)
        return
    ADMIT_OR_PARK(self, spec, instance, ready)


def cancel_keeps_the_corpse(self, instance):
    """Mutant: the aborted launch's ready future fails, but its entry stays
    in the backlog, so the pump later admits it into a slot."""
    gate = self.gates.get(instance.tenant)
    if gate is None or instance.instance_id not in gate.parked:
        return
    _, ready = gate.parked[instance.instance_id]
    self._abort_launch(instance, ready)


def pump_without_refill(self, gate):
    """Mutant: the pump admits what it can but never re-arms the refill
    timer, so a rate-limited backlog waits for the next exit."""
    now = self.sim.now
    while gate.parked and gate.has_slot and gate.bucket.try_take(now):
        self._admit(gate, *self._unpark(gate, next(iter(gate.parked))))


ADMIT_OR_PARK = InferletLifecycleManager._admit_or_park


@pytest.mark.parametrize(
    "attr, mutant, check",
    [
        ("_admit_or_park", gate_only_with_qos, check_the_cap_refuses_with_qos_off),
        ("_cancel_parked", cancel_keeps_the_corpse, check_an_abort_while_parked_frees_its_place),
        ("_pump", pump_without_refill, check_the_rate_paces_the_backlog),
    ],
    ids=["cap-ignored-with-qos-off", "abort-consumes-a-slot", "pump-skips-refill"],
)
def test_mutants_are_killed(monkeypatch, attr, mutant, check):
    monkeypatch.setattr(InferletLifecycleManager, attr, mutant)
    with pytest.raises(AssertionError):
        check()
