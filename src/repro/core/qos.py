"""Tenant classes: what each tenant was promised (beyond the paper).

Pie's programmable inferlets turn every request into a long-lived program,
which makes head-of-line blocking and memory pressure a *fairness* problem,
not just a throughput one: one tenant's fleet of batch agents can crowd the
device while another tenant's interactive chat turns rot in the queue.  The
serving survey (Miao et al.) names SLO-aware scheduling/preemption as the
core production gap.  There is no QoS plane: a tenant's contract is one
:class:`TenantSpec` in the controller's :class:`TenantTable`, and the core
reads it with every plane off —

* the launch gate (``InferletLifecycleManager._admit_or_park``) applies the
  tenant's rate, concurrency cap and backlog bound;
* ``launch()`` stamps the class's SLO targets on the inferlet's record;
* each command queue carries its owner's class rank
  (``Controller.create_queue``), so batch merging places a better class
  first and dispatch serves the best class present, oldest command first,
  with an aging bound (``repro.core.batching.select_batch``);
* the reclamation victim order is ``Controller.victim_key``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.errors import ReproError

#: The three priority classes, best-served first.  Rank orders dispatch
#: (lower rank goes first) and preemption (higher rank is preempted first).
QOS_CLASSES = ("interactive", "standard", "batch")
CLASS_RANK = {"interactive": 0, "standard": 1, "batch": 2}

#: Priority class assumed for unregistered tenants / untagged traffic.
DEFAULT_CLASS = "standard"

#: Per-class SLO target defaults (overridable per tenant): time-to-first-
#: token and time-per-output-token, in milliseconds.
CLASS_TTFT_SLO_MS = {"interactive": 250.0, "standard": 1000.0, "batch": 10_000.0}
CLASS_TPOT_SLO_MS = {"interactive": 50.0, "standard": 150.0, "batch": 1000.0}


@dataclass(frozen=True)
class TenantSpec:
    """Declared serving contract of one tenant.

    ``rate_per_s``/``burst`` form a token-bucket launch rate (0 rate =
    unlimited); ``max_concurrent`` caps simultaneously admitted inferlets
    (0 = unlimited); ``max_queued`` bounds the admission backlog — launches
    beyond it are refused with a typed error (backpressure).  The launch
    gate applies all four.  SLO targets default per class
    (:data:`CLASS_TTFT_SLO_MS` / :data:`CLASS_TPOT_SLO_MS`).
    """

    name: str
    priority_class: str = "standard"
    rate_per_s: float = 0.0
    burst: int = 1
    max_concurrent: int = 0
    max_queued: int = 64
    ttft_slo_ms: Optional[float] = None
    tpot_slo_ms: Optional[float] = None
    # Availability objective the live SLO engine (repro.core.slo) burns
    # error budget against; None falls back to slo.DEFAULT_SLO_TARGET.
    slo_target: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ReproError("tenant name must be non-empty")
        if self.priority_class not in QOS_CLASSES:
            raise ReproError(
                f"unknown priority class {self.priority_class!r}; have {QOS_CLASSES}"
            )
        if self.rate_per_s < 0:
            raise ReproError("rate_per_s must be non-negative (0 = unlimited)")
        if self.burst < 1:
            raise ReproError("burst must be at least 1")
        if self.max_concurrent < 0 or self.max_queued < 0:
            raise ReproError("max_concurrent/max_queued must be non-negative")
        if self.slo_target is not None and not 0.0 < self.slo_target < 1.0:
            raise ReproError("slo_target must be in (0, 1)")

    @property
    def rank(self) -> int:
        return CLASS_RANK[self.priority_class]

    @property
    def ttft_slo_s(self) -> float:
        ms = self.ttft_slo_ms
        if ms is None:
            ms = CLASS_TTFT_SLO_MS[self.priority_class]
        return ms / 1e3

    @property
    def tpot_slo_s(self) -> float:
        ms = self.tpot_slo_ms
        if ms is None:
            ms = CLASS_TPOT_SLO_MS[self.priority_class]
        return ms / 1e3


class TenantTable(dict):
    """The one ``tenant name -> TenantSpec`` table, owned by the controller:
    seeded from ``ControlLayerConfig.tenants``, extended by :meth:`register`,
    read as ``tenants[name]`` by the launch gate and its SLO stamp, queue
    creation, the victim order, the SLO engine and the load harness, none
    of which keeps its own.
    A name's spec is never replaced, so a reference read here stays the
    tenant's contract for the whole run."""

    def __init__(self, specs: Iterable[TenantSpec] = ()) -> None:
        super().__init__()
        for spec in specs:
            self.register(spec)

    def register(self, spec: TenantSpec) -> None:
        if spec.name in self:
            raise ReproError(f"tenant {spec.name!r} already registered")
        self[spec.name] = spec

    def __missing__(self, name: str) -> TenantSpec:
        """A name nobody registered gets — here, once — an unlimited spec of
        :data:`DEFAULT_CLASS`: untagged traffic is served and judged too."""
        spec = self[name] = TenantSpec(name=name, priority_class=DEFAULT_CLASS)
        return spec
