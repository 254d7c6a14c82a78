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
    ) -> None:
        self.program = program
        self.args: List[str] = list(args or [])
        # Multi-tenant serving: the tenant this launch is billed to.
        self.tenant = tenant
        self.instance_id = instance_id or f"{program.name}-{next(_instance_ids)}"
        self.metrics = InferletMetrics(inferlet_id=self.instance_id)
        self.channel: Optional[ClientChannel] = None
        self.task = None  # set by the lifecycle manager
        # Resolved with the instance when it leaves the system, by the
        # lifecycle manager's ``_retire`` (which creates it at launch).
        self.done = None
        self.rng = np.random.default_rng(seed)
        self.pending_overhead = 0.0
        self.result: Any = None
        # Where the inferlet lives, per served model: the shard (which
        # names its service) every API call reads in one step.  Written
        # only by Router.place / migrate / release.
        self.placements: Dict[str, Any] = _Placements()
        self._terminated_reason: Optional[str] = None
        # Structured termination cause ("" for ordinary terminations;
        # e.g. "shard_down" when the chaos plane's failover killed us).
        self._terminated_cause: str = ""
        # Its phase timeline, kept from launch to exit (repro.core.timeline).
        self.timeline = None

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
    """What a plane that watches serving may be told.

    Each fact is published once, at one site, to the observers of
    ``Controller.observers`` — a subsystem built with the controller holds
    the same tuple as its ``observers``: the always-built phase-timeline
    keeper (``repro.core.timeline``) first, then the flight recorder's
    tracer when tracing is on.  An observer subclasses this and overrides
    the notifications it accounts for.  A note carries the site's own
    objects and nothing else; every notification is read-only with respect
    to serving state.
    """

    # -- an inferlet's life ---------------------------------------------------

    def note_launch_requested(self, instance: InferletInstance) -> None:
        """``launch`` accepted the request (before any admission control)."""

    def note_running(self, instance: InferletInstance) -> None:
        """Instantiated, placed and about to run its program."""

    def note_reclaimed(self, victim: InferletInstance, requester: InferletInstance, shard) -> None:
        """``victim`` is about to be terminated to fit ``requester`` on ``shard``."""

    def note_finished(self, instance: InferletInstance) -> None:
        """Left the system for good — refused at admission included;
        ``instance.status`` is terminal."""

    # -- a shard's commands -----------------------------------------------------

    def note_dispatched(self, shard_index: int, commands) -> None:
        """``commands`` were popped into a batch dispatched on the shard now."""

    def note_batch_done(self, shard_index: int, batch, dispatched: float, failed: bool) -> None:
        """The device finished ``batch``, dispatched at ``dispatched``."""

    def note_dropped(self, shard_index: int, command) -> None:
        """``command`` left without running: in its delivery window, at
        queue teardown, or as a residual whose slice failed."""

    # -- KV pages on the move ---------------------------------------------------

    def note_link_reserved(self, link, start: float, size: int) -> None:
        """``size`` bytes hold ``link`` from ``start`` to its ``busy_until``."""

    def note_swapped(self, kind: str, shard, owner: str, pages: int) -> None:
        """``pages`` of ``owner`` crossed PCIe (``swap_out`` / ``swap_in``)."""

    def note_swap_stall(self, instance: InferletInstance, started: float) -> None:
        """The resume path waited for a fault-in since ``started``."""

    def note_kv_streamed(
        self, owner: str, src_index: int, dst_index: int, pages: int, size: int, arrival: float
    ) -> None:
        """``pages`` of ``owner`` staged to the decode shard, landing at ``arrival``."""

    def note_handoff(self, owner: str, src, dst, stall: float, landing: float, tail_pages: int) -> None:
        """``owner`` moved from prefill shard ``src`` to decode shard ``dst``;
        the decode side waits ``stall + landing`` for its KV."""

    def note_replanned(self, owner: str, dead_index: int, requeued_pages: int) -> None:
        """``owner``'s stream lost its decode shard; clean pages re-queued."""

    # -- the chaos plane --------------------------------------------------------

    def note_shard_down(self, index: int) -> None:
        """The heartbeat found shard ``index`` down."""

    def note_relaunched(self, instance: InferletInstance, dead, dst, embeds: int) -> None:
        """``instance`` was re-materialized from the ``dead`` shard on ``dst``."""
