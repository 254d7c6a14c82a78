"""The configuration ledger: why each settable scalar is settable.

One rule decides what may be a config field: *something outside ``tests/``
sets a second value for it* — an experiment arm, a ``perf/`` workload, an
example — *or it is a seed, a capacity or a path of the deployment*.  What
fails the rule is a module constant beside the code that reads it (README,
"Model constants"), which a test that needs another value patches:
``monkeypatch.setattr(repro.core.monitor, "SCRAPE_INTERVAL_MS", ...)``.

The ledger below names the evidence per field, and the tests make it
binding: a new knob cannot land without a row, a row that is not a seed, a
capacity or a path fails unless something outside ``tests/`` names the
field, the counts the north star tracks cannot grow unnoticed, and the
documentation cannot name a field that does not exist.
"""

import ast
import dataclasses
import pathlib
import re

from repro.core.config import (
    SHORTHAND_IMPLICATIONS,
    ControlLayerConfig,
    SchedulerConfig,
    WasmRuntimeConfig,
)
from repro.core.qos import TenantSpec
from repro.gpu.config import GpuConfig

CLASSES = (ControlLayerConfig, GpuConfig, SchedulerConfig, WasmRuntimeConfig)

#: ``Class.field`` -> who sets a second value for it (file names are under
#: ``src/repro/bench/experiments/`` unless they say otherwise).
LEDGER = {
    "ControlLayerConfig.swap_policy": "tiered_memory arms (on_demand vs proactive)",
    "ControlLayerConfig.placement_policy": (
        "cluster_scaling / prefix_cache / disaggregation arms; perf/ shared_prefix_fork"
    ),
    "ControlLayerConfig.prefix_cache": "prefix_cache arms; perf/ shared_prefix_fork",
    "ControlLayerConfig.chunked_prefill": "chunked_prefill arms; disaggregation setup",
    "ControlLayerConfig.prefill_chunk_tokens": (
        "examples/trace_flight_recorder.py sets 32; chunked_prefill / disaggregation run the "
        "default 256"
    ),
    "ControlLayerConfig.prefill_shards": "disaggregation arm (2 of its 8 devices)",
    "ControlLayerConfig.tracing": "tracing arms; perf/ traced run; the example",
    "ControlLayerConfig.trace_path": "path; the tracing experiment exports through it",
    "ControlLayerConfig.trace_sample_ms": (
        "perf/ traced run passes 0.0; examples/trace_flight_recorder.py passes 2.0"
    ),
    "ControlLayerConfig.tenants": "qos experiment; examples/multi_tenant.py",
    "ControlLayerConfig.monitoring": "slo_monitor arms",
    "ControlLayerConfig.faults": "chaos arms",
    "ControlLayerConfig.fault_seed": "seed",
    "ControlLayerConfig.fault_plan": "chaos arms (the shard-kill schedule)",
    "GpuConfig.num_kv_pages": "capacity; tiered_memory / qos / chaos size it",
    "GpuConfig.num_embed_slots": "capacity",
    "GpuConfig.max_batch_rows": "capacity; the qos experiment sets it",
    "GpuConfig.max_batch_tokens": "capacity; chunked_prefill / disaggregation budgets",
    "GpuConfig.num_devices": "capacity; cluster_scaling sweep; perf/ workloads",
    "GpuConfig.host_kv_pages": "capacity; tiered_memory arms (0 = no host tier)",
    "SchedulerConfig.policy": "table5_batching arms (eager / k_only / t_only); fig10",
    "SchedulerConfig.k_threshold": "table5_batching k_only arm",
    "WasmRuntimeConfig.pool_size": "capacity; perf/test_perf.py sets 8",
}

#: ``TenantSpec.field`` -> who sets it outside ``tests/``: a tenant's
#: contract is what a workload sets.  Rows follow the same rule as
#: :data:`LEDGER`, but the class is not a config class, so its fields are
#: outside :data:`CLASSES` and its scalar bound.
TENANT_LEDGER = {
    "TenantSpec.name": "qos experiment (its two tenants); bench/loadgen.py classes",
    "TenantSpec.priority_class": "qos experiment (interactive vs batch tenant)",
    "TenantSpec.max_concurrent": "qos experiment (the miners' cap)",
    "TenantSpec.max_queued": "qos experiment (the miners' backlog bound)",
    "TenantSpec.ttft_slo_ms": "bench/loadgen.py classes",
    "TenantSpec.tpot_slo_ms": "bench/loadgen.py classes",
}

ROOT = pathlib.Path(__file__).resolve().parents[1]
#: Where a second value comes from: experiment arms and the load harness,
#: ``perf/`` workloads, the examples.
CALLERS = ("src/repro/bench", "perf", "examples")
#: A row whose reason starts with one of these needs no second value.
EXEMPT = ("seed", "capacity", "path")


def settable_scalars():
    return [
        f"{cls.__name__}.{field.name}" for cls in CLASSES for field in dataclasses.fields(cls)
    ]


def test_every_field_has_a_ledger_row_and_every_row_a_field():
    assert sorted(LEDGER) == sorted(settable_scalars())
    assert all(reason.strip() for reason in LEDGER.values())


def named_outside_tests() -> set:
    """Every name :data:`CALLERS` give a value — a keyword argument or a
    string dict key (an arm's overrides) — plus what a shorthand among them
    switches on."""
    names = set()
    for directory in CALLERS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.keyword) and node.arg:
                    names.add(node.arg)
                elif isinstance(node, ast.Dict):
                    names.update(
                        key.value
                        for key in node.keys
                        if isinstance(key, ast.Constant) and isinstance(key.value, str)
                    )
    for key, implied in SHORTHAND_IMPLICATIONS:
        if key in names:
            names.update(implied)
    return names


def test_no_row_is_set_by_tests_alone():
    named = named_outside_tests()
    tests_only = [
        row
        for row, reason in {**LEDGER, **TENANT_LEDGER}.items()
        if not reason.startswith(EXEMPT) and row.split(".")[1] not in named
    ]
    assert tests_only == []


def test_every_tenant_field_has_a_ledger_row_and_every_row_a_field():
    fields = [f"TenantSpec.{field.name}" for field in dataclasses.fields(TenantSpec)]
    assert sorted(TENANT_LEDGER) == sorted(fields)
    assert all(reason.strip() for reason in TENANT_LEDGER.values())
    assert len(fields) == 6


def test_the_counters_the_north_star_tracks():
    # 30 / 43 / 11 before the audit; 16 / 25 / 5 before brownout went;
    # 15 / 24 / 4 before the qos knob went.
    assert len(dataclasses.fields(ControlLayerConfig)) == 14
    assert len(settable_scalars()) <= 23
    assert len(SHORTHAND_IMPLICATIONS) <= 3
    fields = set(settable_scalars())
    for key, implied in SHORTHAND_IMPLICATIONS:
        assert f"ControlLayerConfig.{key}" in fields
        assert all(f"ControlLayerConfig.{name}" in fields for name in implied)


def test_the_documentation_names_only_fields_that_exist():
    names = "|".join(cls.__name__ for cls in (*CLASSES, TenantSpec))
    spelled = re.compile(rf"\b({names})\.([A-Za-z_][A-Za-z0-9_]*)")
    fields = set(settable_scalars()) | set(TENANT_LEDGER)
    for document in ("README.md", "docs/ARCHITECTURE.md"):
        text = (ROOT / document).read_text()
        stale = sorted(
            {match.group(0) for match in spelled.finditer(text)} - fields
        )
        assert not stale, f"{document} names config fields that do not exist: {stale}"
