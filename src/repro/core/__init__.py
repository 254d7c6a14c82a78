"""The Pie serving system (the paper's contribution).

Three layers, as in the paper (§5):

* **Application layer** — the inferlet runtime (a simulated WebAssembly
  sandbox), the Inferlet Lifecycle Manager with its per-tenant launch
  gate, and the per-inferlet API bindings (:mod:`repro.core.api`).
* **Control layer** — the controller (:mod:`repro.core.controller`):
  resource virtualisation, non-GPU API handling, the cluster router
  (:mod:`repro.core.router`) that places inferlets onto devices, the
  per-device batch scheduler (:mod:`repro.core.scheduler`,
  :mod:`repro.core.batching`), the tiered-KV swap manager
  (:mod:`repro.core.swap`) that suspends blocked inferlets to host
  memory, the tenant classes (:mod:`repro.core.qos`) the core admits,
  dispatches and preempts by, and the event dispatcher.
* **Inference layer** — the API handlers (:mod:`repro.core.handlers`)
  executing batched calls on the simulated device(s); with
  ``GpuConfig.num_devices > 1`` each device shard runs its own handler set
  and scheduler.

:class:`repro.core.server.PieServer` wires the layers together;
:class:`repro.core.server.PieClient` is the remote client used by the
experiments.
"""

from repro.core.config import PieConfig, SWAP_POLICIES
from repro.core.handles import Embed, KvPage, Queue
from repro.core.command_queue import Command, CommandQueue
from repro.core.traits import TRAITS, trait_of_api, api_layer
from repro.core.inferlet import InferletProgram, InferletInstance
from repro.core.router import (
    PLACEMENT_POLICIES,
    ClusterSchedulerStats,
    DeviceShard,
    Router,
)
from repro.core.swap import SwapManager
from repro.core.prefix_cache import PrefixCacheService
from repro.core.qos import QOS_CLASSES, TenantSpec, TenantTable
from repro.core.registry import LogHistogram, MetricRegistry
from repro.core.slo import AlertEvent, BurnWindow, SloEngine
from repro.core.monitor import MonitorService
from repro.core.health import SHARD_STATES, ShardHealthService
from repro.core.server import PieServer, PieClient, LaunchResult

__all__ = [
    "PieConfig",
    "Embed",
    "KvPage",
    "Queue",
    "Command",
    "CommandQueue",
    "TRAITS",
    "trait_of_api",
    "api_layer",
    "InferletProgram",
    "InferletInstance",
    "PLACEMENT_POLICIES",
    "SWAP_POLICIES",
    "ClusterSchedulerStats",
    "DeviceShard",
    "Router",
    "SwapManager",
    "PrefixCacheService",
    "QOS_CLASSES",
    "TenantSpec",
    "TenantTable",
    "LogHistogram",
    "MetricRegistry",
    "AlertEvent",
    "BurnWindow",
    "SloEngine",
    "MonitorService",
    "SHARD_STATES",
    "ShardHealthService",
    "PieServer",
    "PieClient",
    "LaunchResult",
]
