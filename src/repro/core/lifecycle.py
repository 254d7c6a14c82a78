"""The Inferlet Lifecycle Manager (application layer, §5.1).

The ILM owns inferlet creation, destruction and communication.  A launch
request first passes its tenant's admission gate, which applies the
tenant's ``TenantSpec`` limits — concurrency cap, backlog bound — with
every plane off.  Admitted launches pass a single launch executor, one
timestamp of when it is next free (the serialised part of Figure 9's
launch latency); each launched inferlet gets a sandboxed runtime instance,
a client channel, and a task on the simulator that runs the program to
completion.  Whatever way it ends, ``_retire`` gives back what
the launch took: its gate slot, its sandbox and its completion future.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import (
    AdmissionRejectedError,
    CancelledError,
    InferletError,
    InferletTerminated,
    ShardUnavailableError,
)
from repro.core.api import InferletContext
from repro.core.controller import Controller
from repro.core.inferlet import InferletInstance, InferletProgram
from repro.core.messaging import ClientChannel
from repro.core.wasm import LAUNCH_HANDLING_MS, WasmBinary, WasmRuntime
from repro.sim.futures import SimFuture
from repro.sim.latency import milliseconds
from repro.sim.simulator import Simulator


class TenantGate:
    """One tenant's admission state, made at its first launch: the admitted
    inferlets still in the system, and the launches parked until a slot is
    free (FIFO by instance id, each with its ready future)."""

    def __init__(self, spec) -> None:
        self.spec = spec  # the controller's TenantSpec of this tenant
        self.running: Set[str] = set()
        self.parked: "OrderedDict[str, Tuple[InferletInstance, SimFuture]]" = OrderedDict()

    @property
    def has_slot(self) -> bool:
        cap = self.spec.max_concurrent
        return cap <= 0 or len(self.running) < cap


class InferletLifecycleManager:
    """Creates, runs, monitors and destroys inferlet instances."""

    def __init__(
        self,
        sim: Simulator,
        controller: Controller,
        runtime: WasmRuntime,
    ) -> None:
        self.sim = sim
        self.controller = controller
        self.runtime = runtime
        self._programs: Dict[str, InferletProgram] = {}
        #: The launch executor: when its last admitted launch is handled.
        self._launch_free_at = 0.0
        #: The launch gate: one :class:`TenantGate` per tenant that launched.
        self.gates: Dict[str, TenantGate] = {}
        self._seed_counter = 0
        controller.terminate_hook = self._on_forced_termination

    # -- program registry ------------------------------------------------------

    def register_program(self, program: InferletProgram, precompiled: bool = True) -> None:
        """Install an inferlet program on the server.

        ``precompiled=True`` corresponds to the paper's warm start: the Wasm
        binary is already cached and JIT compiled on the server.
        """
        self._programs[program.name] = program
        binary = WasmBinary(
            name=program.name,
            program=program.main,
            size_bytes=program.binary_size,
            source_loc=program.source_loc,
        )
        if precompiled:
            self.runtime.register_cached(binary)

    async def upload_program(self, program: InferletProgram) -> float:
        """Cold-start path: upload + JIT compile the binary; returns time spent."""
        self._programs[program.name] = program
        binary = WasmBinary(
            name=program.name,
            program=program.main,
            size_bytes=program.binary_size,
            source_loc=program.source_loc,
        )
        return await self.runtime.upload(binary, force=True)

    def get_program(self, name: str) -> InferletProgram:
        try:
            return self._programs[name]
        except KeyError:
            raise InferletError(f"no inferlet program named {name!r}") from None

    def program_names(self) -> List[str]:
        return sorted(self._programs)

    # -- launching --------------------------------------------------------------------

    def launch(
        self,
        name: str,
        args: Optional[Sequence[str]] = None,
        seed: Optional[int] = None,
        tenant: Optional[str] = None,
    ) -> Tuple[InferletInstance, SimFuture]:
        """Request a launch; returns the instance and a future that resolves
        once the inferlet is running (acknowledging the launch).

        ``tenant`` bills the launch to a tenant.  The launch passes the
        tenant's gate first (:meth:`_admit_or_park`): it may be parked (the
        ready future resolves only once one of the tenant's running
        inferlets exits) or refused with a typed
        :class:`repro.errors.AdmissionRejectedError`.
        """
        program = self.get_program(name)
        if seed is None:
            self._seed_counter += 1
            seed = self._seed_counter
        instance = InferletInstance(program, args=args, seed=seed, tenant=tenant or "default")
        instance.metrics.launched_at = self.sim.now
        # The contract this inferlet is judged against, for its whole life.
        spec = self.controller.tenants[instance.tenant]
        instance.metrics.ttft_slo_s, instance.metrics.tpot_slo_s = spec.ttft_slo_s, spec.tpot_slo_s
        self.controller.metrics.tenant_record(spec).offered += 1
        instance.channel = ClientChannel(self.sim, instance.instance_id)
        instance.done = self.sim.create_future(name=f"done:{instance.instance_id}")
        ready = self.sim.create_future(name=f"launch:{instance.instance_id}")
        for observer in self.controller.observers:
            observer.note_launch_requested(instance)
        try:
            self._admit_or_park(spec, instance, ready)
        except AdmissionRejectedError:
            # Refused: the observers were told of the request, so they are
            # told — once, like any other exit — how it ended.
            self._retire(instance, "rejected")
            raise
        return instance, ready

    # -- the launch gate ---------------------------------------------------------------

    def _admit_or_park(self, spec, instance: InferletInstance, ready: SimFuture) -> None:
        """Apply the tenant's limits to one launch, with every plane off.

        Admitted (on to the launch executor) when a concurrency slot is free
        and nobody of the tenant is parked ahead; else parked while fewer
        than ``max_queued`` wait; else refused with ``reason="queue_full"``.
        A parked launch leaves the backlog only when a running inferlet of
        its tenant exits (:meth:`_retire` pumps) or when it is terminated
        (:meth:`_cancel_parked`): the gate arms no timer.
        """
        gate = self.gates.get(spec.name)
        if gate is None:
            gate = self.gates[spec.name] = TenantGate(spec)
        if gate.has_slot and not gate.parked:
            self._admit(gate, instance, ready)
            return
        if len(gate.parked) >= spec.max_queued:
            raise AdmissionRejectedError(
                f"tenant {spec.name!r} admission queue is full "
                f"({spec.max_queued} waiting); shed load or raise max_queued",
                tenant=spec.name,
                reason="queue_full",
            )
        gate.parked[instance.instance_id] = (instance, ready)
        self.controller.metrics.tenants[spec.name].queued += 1

    def _admit(self, gate: TenantGate, instance: InferletInstance, ready: SimFuture) -> None:
        """Take a tenant slot and book the launch executor: its handling
        ends ``LAUNCH_HANDLING_MS`` after the previous launch's, or after
        now if the executor is idle."""
        gate.running.add(instance.instance_id)
        self.controller.metrics.tenants[gate.spec.name].admitted += 1
        handled_at = max(self.sim.now, self._launch_free_at) + milliseconds(LAUNCH_HANDLING_MS)
        self._launch_free_at = handled_at
        self.sim.create_task(
            self._launch_one(instance, ready, handled_at), name=f"ilm:{instance.instance_id}"
        )

    def _pump(self, gate: TenantGate) -> None:
        """Admit parked launches, oldest first, while slots last."""
        while gate.parked and gate.has_slot:
            self._admit(gate, *gate.parked.popitem(last=False)[1])

    def _cancel_parked(self, instance: InferletInstance) -> None:
        """A launch terminated while parked leaves the backlog at once and
        fails its ready future, so it neither hangs an awaiter nor holds a
        ``max_queued`` place."""
        gate = self.gates.get(instance.tenant)
        if gate is None or instance.instance_id not in gate.parked:
            return
        self._abort_launch(*gate.parked.pop(instance.instance_id))

    # -- launching and retiring ------------------------------------------------------

    def _retire(self, instance: InferletInstance, status: str) -> None:
        """The one way out of the system, whatever the cause.

        Writes the terminal status — ``Controller.terminate_inferlet`` is the
        only other writer, and a termination it recorded sticks unless the
        program then failed on its own — and unregisters the instance before
        control returns to the event loop, so the controller's registry holds
        exactly the live inferlets.  The tenant's record counts the exit;
        then the launch gives back what it took — its gate slot (the next
        parked launch may go), its sandbox, its completion future — and the
        planes that account per inferlet are told, once.
        """
        controller = self.controller
        if status == "failed" or not instance.finished:
            instance.metrics.status = status
            if status == "finished":
                controller.metrics.inferlets_finished += 1
            elif status == "failed":
                controller.metrics.inferlets_failed += 1
        controller.metrics.tenants[instance.tenant].note_exit(instance.metrics)
        controller.unregister_inferlet(instance)
        gate = self.gates[instance.tenant]
        if instance.instance_id in gate.running:
            gate.running.remove(instance.instance_id)
            self._pump(gate)
        self.runtime.release(instance.instance_id)
        for observer in controller.observers:
            observer.note_finished(instance)
        if not instance.done.done():
            instance.done.set_result(instance)

    def _abort_launch(self, instance: InferletInstance, ready: SimFuture) -> None:
        """Retire an instance terminated before its program ran (parked at
        its tenant's gate, waiting for the executor, or while its sandbox
        was built) and fail its ready future."""
        self._retire(instance, "terminated")
        if not ready.done():
            ready.set_exception(
                InferletTerminated(
                    f"inferlet {instance.instance_id} was terminated before launch: "
                    f"{instance.terminated_reason}",
                    cause=instance.terminated_cause,
                )
            )

    async def _launch_one(
        self, instance: InferletInstance, ready: SimFuture, handled_at: float
    ) -> None:
        # Serialised per-launch handling at the ILM (queueing under bursts).
        handled = self.sim.create_future(name=f"handled:{instance.instance_id}")
        self.sim.call_at(handled_at, handled.set_result, None)
        await handled
        if instance.finished:
            # Terminated while it waited for the executor: it builds nothing.
            self._abort_launch(instance, ready)
            return
        try:
            await self.runtime.instantiate(instance.program.name, instance.instance_id)
            if instance.finished:
                # Terminated while its sandbox was built: the termination sticks.
                self._abort_launch(instance, ready)
                return
            self.controller.register_inferlet(instance)
        except (InferletError, ShardUnavailableError) as exc:
            # No runtime instance, or (chaos plane) no healthy shard to place
            # on.  Fail the launch typed; retiring rolls a partial
            # registration back so pools and placement maps stay conserved.
            self._retire(instance, "failed")
            ready.set_exception(exc)
            return
        instance.metrics.status = "running"
        instance.metrics.started_at = self.sim.now
        self.controller.metrics.launch_latency.observe(self.sim.now - instance.metrics.launched_at)
        for observer in self.controller.observers:
            observer.note_running(instance)
        ctx = InferletContext(
            instance,
            self.controller,
            wasm_overhead_seconds=self.runtime.per_call_overhead_seconds(),
        )
        instance.task = self.sim.create_task(
            self._run_program(instance, ctx), name=f"inferlet:{instance.instance_id}"
        )
        ready.set_result(instance)

    async def _run_program(self, instance: InferletInstance, ctx: InferletContext) -> Any:
        # A coroutine closed before it finished retires as terminated.
        status = "terminated"
        try:
            instance.result = await self._invoke(instance.program.main, ctx, instance.args)
            status = "finished"
            return instance.result
        except (CancelledError, InferletTerminated):
            raise
        except Exception:
            status = "failed"
            raise
        finally:
            instance.metrics.finished_at = self.sim.now
            self._retire(instance, status)

    async def _invoke(self, main, ctx: InferletContext, args: List[str]) -> Any:
        coro_or_value = main(ctx)
        if hasattr(coro_or_value, "__await__"):
            return await coro_or_value
        return coro_or_value

    # -- termination -----------------------------------------------------------------------

    def _on_forced_termination(self, instance: InferletInstance, reason: str) -> None:
        task = instance.task
        if task is None:
            # Never started: it may be parked at its gate (a launch past the
            # gate cleans itself up in _launch_one).
            self._cancel_parked(instance)
        elif not task.done():
            task.cancel()
            if not task.entered:
                # Cancelled before its first step: the program never enters
                # _run_program's try, so it leaves from here.
                self._retire(instance, "terminated")

    def abort(self, instance: InferletInstance, reason: str = "client abort") -> None:
        """Abort a running inferlet on behalf of its client."""
        self.controller.terminate_inferlet(instance, reason)
