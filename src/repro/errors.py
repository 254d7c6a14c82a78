"""Exception hierarchy shared across the repro package.

Every subsystem raises exceptions derived from :class:`ReproError` so that
callers (tests, the benchmark harness, inferlets) can catch failures at the
granularity they care about without importing subsystem internals.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class SimulationError(ReproError):
    """Raised for misuse of the discrete-event simulation kernel."""


class CancelledError(SimulationError):
    """Raised inside a coroutine whose task has been cancelled."""


class OutOfResourcesError(ReproError):
    """Raised when a physical resource pool (KV pages, embeddings) is empty."""


class ResourceError(ReproError):
    """Raised for invalid resource usage (double free, unknown handle, ...)."""


class InferletError(ReproError):
    """Raised when an inferlet misbehaves or is terminated by the system."""


class InferletTerminated(InferletError):
    """Raised inside an inferlet that was forcibly terminated (e.g.
    resource reclamation, shard failure or an explicit abort).

    ``cause`` is a short machine-readable tag (``"reclaimed"``,
    ``"shard_down"``, ``"client_abort"``, ... — empty when unknown) so
    tests and clients can assert *why* an inferlet died without parsing
    the human-readable message."""

    def __init__(self, message: str, cause: str = "") -> None:
        super().__init__(message)
        self.cause = cause


class SandboxPoolExhaustedError(InferletError):
    """Raised when a launch finds every sandbox of the Wasm instance pool
    held (``WasmRuntimeConfig.pool_size``).  Typed so a harness can count
    such a launch as failed and run on."""


class AdmissionRejectedError(ReproError):
    """Raised when a tenant's launch gate refuses an inferlet launch.
    ``reason`` says why: ``"queue_full"`` — the tenant is
    over its rate/concurrency budget and ``max_queued`` launches already
    wait.  Typed so clients can distinguish shed load from real failures."""

    def __init__(self, message: str, tenant: str = "", reason: str = "") -> None:
        super().__init__(message)
        self.tenant = tenant
        self.reason = reason


class TraitNotSupportedError(ReproError):
    """Raised when an inferlet uses an API trait the model does not expose."""


class SchedulingError(ReproError):
    """Raised for invalid batch-scheduler configurations or states."""


class FaultInjectedError(ReproError):
    """Raised when the chaos plane (:mod:`repro.sim.faults`) injects a
    failure into an operation: a tool call hitting an injected timeout or
    error window, or a command landing on a crashed device shard.
    ``kind`` names the injected fault type (``"tool_error"``,
    ``"tool_timeout"``, ``"shard_crash"``, ...)."""

    def __init__(self, message: str, kind: str = "") -> None:
        super().__init__(message)
        self.kind = kind


class ShardUnavailableError(SchedulingError):
    """Raised by the cluster router when placement (or a disaggregation
    handoff) finds no healthy shard to land on: every candidate is marked
    ``down``/``draining`` by the shard health service.  Subclasses
    :class:`SchedulingError` so existing placement-failure handling still
    applies."""


class RetriesExhaustedError(ReproError):
    """Raised when a :class:`repro.core.retry.RetryPolicy` gives up on an
    operation: the attempt cap was hit or the per-class retry budget ran
    out while the underlying fault persisted.  ``attempts`` counts the
    tries that were made (including the first)."""

    def __init__(self, message: str, attempts: int = 0) -> None:
        super().__init__(message)
        self.attempts = attempts


class GrammarError(ReproError):
    """Raised for malformed grammars or constraint violations."""


class BaselineError(ReproError):
    """Raised by the baseline (monolithic) serving systems."""


class ClientError(ReproError):
    """Raised by simulated clients when a request fails."""
