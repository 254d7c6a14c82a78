"""The Inferlet Lifecycle Manager (application layer, §5.1).

The ILM owns inferlet creation, destruction and communication.  Launch
requests are serviced by a single launch executor (the serialised part of
Figure 9's launch latency); each launched inferlet gets a sandboxed
runtime instance, a client channel, and a task on the simulator that runs
the program to completion and releases its resources afterwards.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

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
        self._launch_queue: Deque[Tuple[InferletInstance, SimFuture]] = deque()
        self._launch_worker_busy = False
        self._seed_counter = 0
        # wait_for_completion futures of instances that have no task yet.
        self._taskless_waiters: Dict[str, List[SimFuture]] = {}
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
        priority: Optional[int] = None,
    ) -> Tuple[InferletInstance, SimFuture]:
        """Request a launch; returns the instance and a future that resolves
        once the inferlet is running (acknowledging the launch).

        ``tenant`` bills the launch to a QoS tenant and ``priority`` seeds
        every queue the inferlet creates.  With the QoS service enabled the
        launch passes admission control first: it may be queued (the ready
        future resolves only once a concurrency slot and rate-bucket token
        free up) or rejected with a typed
        :class:`repro.errors.AdmissionRejectedError`.
        """
        program = self.get_program(name)
        if seed is None:
            self._seed_counter += 1
            seed = self._seed_counter
        instance = InferletInstance(
            program,
            args=args,
            seed=seed,
            tenant=tenant or "default",
            priority=priority or 0,
        )
        instance.metrics.launched_at = self.sim.now
        # The contract this inferlet is judged against, for its whole life.
        spec = self.controller.tenants[instance.tenant]
        instance.metrics.ttft_slo_s, instance.metrics.tpot_slo_s = spec.ttft_slo_s, spec.tpot_slo_s
        self.controller.metrics.tenant_record(spec).offered += 1
        instance.channel = ClientChannel(self.sim, instance.instance_id)
        ready = self.sim.create_future(name=f"launch:{instance.instance_id}")
        for observer in self.controller.observers:
            observer.note_launch_requested(instance)
        qos = self.controller.qos
        if qos is not None:
            # "queued" parks the launch inside the QoS service until
            # admission, then re-enters here.
            try:
                decision = qos.request_admission(
                    instance,
                    proceed=lambda: self._enqueue_launch(instance, ready),
                    on_cancelled=lambda: self._abort_launch(instance, ready),
                )
            except AdmissionRejectedError:
                # Refused: the observers were told of the request, so they
                # are told — once, like any other exit — how it ended.
                self._retire(instance, "rejected")
                raise
            if decision == "queued":
                return instance, ready
        self._enqueue_launch(instance, ready)
        return instance, ready

    def _enqueue_launch(self, instance: InferletInstance, ready: SimFuture) -> None:
        self._launch_queue.append((instance, ready))
        self._pump_launch_queue()

    def _retire(self, instance: InferletInstance, status: str) -> None:
        """The one way out of the system, whatever the cause.

        Writes the terminal status — ``Controller.terminate_inferlet`` is the
        only other writer, and a termination it recorded sticks unless the
        program then failed on its own — and unregisters the instance before
        control returns to the event loop, so the controller's registry holds
        exactly the live inferlets.  The tenant's record counts the exit, then
        the planes that account per inferlet are told, once.
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
        for observer in controller.observers:
            observer.note_finished(instance)
        # Waiters still parked here belong to an instance that never ran.
        for done in self._taskless_waiters.pop(instance.instance_id, ()):
            done.set_result(instance)

    def _abort_launch(self, instance: InferletInstance, ready: SimFuture) -> None:
        """Retire an instance terminated while parked (in the launch queue or
        in QoS admission) and fail its ready future."""
        self._retire(instance, "terminated")
        if not ready.done():
            ready.set_exception(
                InferletTerminated(
                    f"inferlet {instance.instance_id} was terminated before launch: "
                    f"{instance.terminated_reason}",
                    cause=instance.terminated_cause,
                )
            )

    def _pump_launch_queue(self) -> None:
        if self._launch_worker_busy or not self._launch_queue:
            return
        self._launch_worker_busy = True
        instance, ready = self._launch_queue.popleft()
        self.sim.create_task(self._launch_one(instance, ready), name=f"ilm:{instance.instance_id}")

    async def _launch_one(self, instance: InferletInstance, ready: SimFuture) -> None:
        # Serialised per-launch handling at the ILM (queueing under bursts).
        await self.sim.sleep(milliseconds(LAUNCH_HANDLING_MS))
        self._launch_worker_busy = False
        self._pump_launch_queue()
        if instance.finished:
            # Aborted while parked in the launch queue: the termination must
            # stick — don't instantiate, and release any admission slot the
            # instance was holding.
            self._abort_launch(instance, ready)
            return
        try:
            await self.runtime.instantiate(instance.program.name)
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
        for done in self._taskless_waiters.pop(instance.instance_id, ()):
            self._resolve_with_task(instance, done)
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
            self.runtime.release_instance()
            self._retire(instance, status)

    async def _invoke(self, main, ctx: InferletContext, args: List[str]) -> Any:
        coro_or_value = main(ctx)
        if hasattr(coro_or_value, "__await__"):
            return await coro_or_value
        return coro_or_value

    # -- termination -----------------------------------------------------------------------

    def _on_forced_termination(self, instance: InferletInstance, reason: str) -> None:
        if instance.task is not None and not instance.task.done():
            instance.task.cancel()
        elif instance.task is None and self.controller.qos is not None:
            # Never started: it may be parked in the QoS admission queue —
            # remove it now so it neither hangs its awaiter nor occupies a
            # max_queued slot (the launch-queue case cleans itself up in
            # _launch_one).
            self.controller.qos.cancel_parked(instance)

    def abort(self, instance: InferletInstance, reason: str = "client abort") -> None:
        """Abort a running inferlet on behalf of its client."""
        self.controller.terminate_inferlet(instance, reason)

    # -- client communication -----------------------------------------------------------------

    def wait_for_completion(self, instance: InferletInstance) -> SimFuture:
        """Future resolving with the instance once it is over: when its task
        finishes (result or error), or — for an instance that never got a
        task (aborted while parked, failed to instantiate) — when it is
        retired.  Nothing polls: a launch still in progress parks the future
        until ``_launch_one`` creates the task or ``_retire`` gives up on it.
        """
        done = self.sim.create_future(name=f"wait:{instance.instance_id}")
        if instance.task is not None:
            self._resolve_with_task(instance, done)
        elif instance.finished:
            done.set_result(instance)
        else:
            self._taskless_waiters.setdefault(instance.instance_id, []).append(done)
        return done

    @staticmethod
    def _resolve_with_task(instance: InferletInstance, done: SimFuture) -> None:
        instance.task.add_done_callback(
            lambda fut: done.set_result(instance) if not done.done() else None
        )
