"""Inferlet programs and instances.

An :class:`InferletProgram` is what a developer ships: an async ``main``
function (standing in for a compiled Wasm module) plus metadata mirroring
Table 2 (source lines of code, binary size, which requirements R1-R3 it
exercises).  An :class:`InferletInstance` is one launched execution of a
program: it owns the client channel, the metrics record, the per-inferlet
RNG and the accumulated (not yet charged) API-call overhead.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import InferletTerminated, SchedulingError
from repro.core.metrics import InferletMetrics
from repro.core.messaging import ClientChannel

_instance_ids = itertools.count(1)


class _Placements(dict):
    """Model name -> the ``DeviceShard`` the inferlet lives on; reading a
    model it is not (or no longer) placed on is a typed error."""

    def __missing__(self, model: str):
        raise SchedulingError(f"inferlet is not placed on a cluster of model {model!r}")


@dataclass
class InferletProgram:
    """A user-provided program that orchestrates LLM generation."""

    name: str
    main: Callable[..., Any]
    description: str = ""
    binary_size: int = 131_072
    source_loc: int = 0
    requirements: Tuple[str, ...] = ()
    traits_needed: Tuple[str, ...] = ("Forward", "InputText", "Tokenize", "OutputText")
    # Cluster placement hint: the name of a KV export this program intends
    # to import, so the ``cache_affinity`` router policy can co-locate it
    # with the pages (see repro.core.router).
    placement_hint: Optional[str] = None
    # Prompt-prefix hint for the automatic prefix cache: the text (or
    # token sequence) this program's prompt starts with.  Under the
    # ``cache_affinity`` policy the router places the inferlet on the
    # shard whose prefix-cache index holds the longest page-aligned match.
    prefix_hint: Optional[object] = None  # str | Sequence[int]

    def __post_init__(self) -> None:
        if not callable(self.main):
            raise TypeError("InferletProgram.main must be an async callable")


class InferletInstance:
    """One running (or finished) execution of an inferlet program."""

    def __init__(
        self,
        program: InferletProgram,
        args: Optional[Sequence[str]] = None,
        instance_id: Optional[str] = None,
        seed: int = 0,
        tenant: str = "default",
        priority: int = 0,
    ) -> None:
        self.program = program
        self.args: List[str] = list(args or [])
        # Multi-tenant QoS: the tenant this launch is billed to, and the
        # initial priority every queue the inferlet creates starts with
        # (so programs need not call set_queue_priority per queue).
        self.tenant = tenant
        self.default_priority = priority
        self.instance_id = instance_id or f"{program.name}-{next(_instance_ids)}"
        self.metrics = InferletMetrics(inferlet_id=self.instance_id)
        self.channel: Optional[ClientChannel] = None
        self.task = None  # set by the lifecycle manager
        self.rng = np.random.default_rng(seed)
        self.pending_overhead = 0.0
        self.result: Any = None
        self.created_at: float = 0.0
        # Commands issued but not yet delivered to a shard scheduler (the
        # per-call overhead window).  The swap manager refuses to stage an
        # inferlet's pages while this is non-zero: such commands carry
        # already-resolved physical page ids.
        self.in_air_commands: int = 0
        # Where the inferlet lives, per served model: the shard (which
        # names its service) every API call reads in one step.  Written
        # only by Router.place / migrate / release.
        self.placements: Dict[str, Any] = _Placements()
        self._terminated_reason: Optional[str] = None
        # Structured termination cause ("" for ordinary terminations;
        # e.g. "shard_down" when the chaos plane's failover killed us).
        self._terminated_cause: str = ""

    # -- status ---------------------------------------------------------------

    @property
    def status(self) -> str:
        return self.metrics.status

    @property
    def finished(self) -> bool:
        return self.metrics.status in ("finished", "failed", "terminated", "rejected")

    @property
    def terminated_reason(self) -> Optional[str]:
        return self._terminated_reason

    @property
    def terminated_cause(self) -> str:
        return self._terminated_cause

    # -- termination -------------------------------------------------------------

    def mark_terminated(self, reason: str, cause: str = "") -> None:
        """Record a forced termination.  For ``Controller.terminate_inferlet``,
        which unregisters the instance in the same step: a terminal status
        is only ever written together with an unregistration (the other
        writer is the lifecycle manager's ``_retire``)."""
        self._terminated_reason = reason
        self._terminated_cause = cause
        self.metrics.status = "terminated"

    def check_alive(self) -> None:
        """Raise if the instance was terminated (called from API bindings)."""
        if self.metrics.status == "terminated":
            raise InferletTerminated(
                f"inferlet {self.instance_id} was terminated: {self._terminated_reason}",
                cause=self._terminated_cause,
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<InferletInstance {self.instance_id} status={self.status}>"


class LifecycleObserver:
    """What an optional plane may be told about an inferlet's life.

    Each fact is published once, at one site, to ``Controller.observers``;
    a plane subclasses this and overrides the notifications it accounts
    for.  Every notification is read-only with respect to serving state.
    """

    def note_launch_requested(self, instance: InferletInstance) -> None:
        """``launch`` accepted the request (before any admission control)."""

    def note_running(self, instance: InferletInstance) -> None:
        """Instantiated, placed and about to run its program."""

    def note_reclaimed(self, victim: InferletInstance, requester: InferletInstance, shard) -> None:
        """``victim`` is about to be terminated to fit ``requester`` on ``shard``."""

    def note_finished(self, instance: InferletInstance) -> None:
        """Left the system for good — refused at admission included;
        ``instance.status`` is terminal."""
