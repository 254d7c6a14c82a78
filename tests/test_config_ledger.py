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

The same rule reaches every constructor: a defaulted ``__init__`` parameter
under ``src/repro`` that no caller outside ``tests/`` passes needs a
:data:`CONSTRUCTOR_LEDGER` row saying it is a seed, a capacity, a path or
``API`` (a signature inferlet or client code calls); anything else is the
module constant it defaulted to, read when the object is built.

Code keeps it too: a function under ``core/`` or ``sim/`` that nothing a
user runs enters (``python -m tests.reach``, CI's ``reachability`` job)
needs a :data:`REACH_LEDGER` row saying why it stays, or it goes.
"""

import ast
import dataclasses
import pathlib
import re
from collections import defaultdict

from repro.core.config import ControlLayerConfig, SchedulerConfig, WasmRuntimeConfig
from repro.core.qos import TenantSpec
from repro.gpu.config import GpuConfig
from repro.sim.faults import FAULT_KINDS

CLASSES = (ControlLayerConfig, GpuConfig, SchedulerConfig, WasmRuntimeConfig)

#: ``Class.field`` -> who sets a second value for it (file names are under
#: ``src/repro/bench/experiments/`` unless they say otherwise).
LEDGER = {
    "ControlLayerConfig.swap_policy": "tiered_memory arms (on_demand vs proactive)",
    "ControlLayerConfig.placement_policy": (
        "cluster_scaling / prefix_cache / disaggregation arms; perf/ shared_prefix_fork"
    ),
    "ControlLayerConfig.prefix_cache": "prefix_cache arms; perf/ shared_prefix_fork",
    "ControlLayerConfig.prefill_chunk_tokens": (
        "chunked_prefill's monolithic arm sets it past every prompt; "
        "examples/trace_flight_recorder.py sets 32"
    ),
    "ControlLayerConfig.prefill_shards": "disaggregation arm (2 of its 8 devices)",
    "ControlLayerConfig.tracing": "tracing arms; perf/ traced run; the example",
    "ControlLayerConfig.trace_sample_ms": (
        "perf/ traced run passes 0.0; examples/trace_flight_recorder.py passes 2.0"
    ),
    "ControlLayerConfig.tenants": "qos experiment; examples/multi_tenant.py",
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

#: ``Class.parameter`` -> why a defaulted ``__init__`` parameter no caller
#: outside ``tests/`` passes stays a parameter.  A reason starts with one of
#: :data:`CONSTRUCTOR_EXEMPT`.
CONSTRUCTOR_LEDGER = {
    "Context.queue": "API: an inferlet shares one queue between contexts",
    "LoraAdapter.seed": "seed",
    "TinyTransformer.seed": "seed",
}

#: ``package/module.py::Qual.name`` -> why a function under ``core/`` or
#: ``sim/`` that no user run enters (``python -m tests.reach``) stays.  A
#: reason starts with one of :data:`REACH_REASONS`: a path taken on an error
#: or a fault, a reference tests compare against, the ROADMAP item whose
#: workload brings its caller, a call client or inferlet code makes that no
#: user run makes, or a read-only view of state that tests read.
REACH_LEDGER = {
    # -- error and safety paths
    "core/command_queue.py::CommandQueue.drop": "error path: a forward whose slice failed",
    "core/health.py::ShardHealthService._undetected": (
        "error path: a run stuck on a crashed shard's inferlets reaches the beat that finds it"
    ),
    "core/inferlet.py::_Placements.__missing__": (
        "error path: an inferlet not placed on a model's cluster asks for it"
    ),
    "core/inferlet.py::InferletInstance.terminated_reason": (
        "error path: the message of a launch aborted before its program ran"
    ),
    "core/resources.py::ResourceManager.resolve_kv": "error path: a page handle not mapped",
    "core/resources.py::ResourceManager.resolve_emb": "error path: a slot handle not mapped",
    # -- references tests compare against
    "core/command_queue.py::Command.conflicts_with": (
        "reference: the write-write rule the hazard tests hold batching to"
    ),
    "core/prefix_cache.py::PrefixCacheService.drop_all": (
        "reference: releases every cache entry, so pool conservation is checked exactly"
    ),
    # -- the ROADMAP item whose workload brings the caller
    "core/controller.py::Controller._cross_device_import": (
        "ROADMAP item 3: an import of a written prefix on another device "
        "(only tests import across devices)"
    ),
    "core/resources.py::ResourceManager.export_info": (
        "ROADMAP item 3: read by the cross-device import"
    ),
    "core/lifecycle.py::InferletLifecycleManager._cancel_parked": (
        "ROADMAP item 2: a launch terminated while parked at its tenant's gate"
    ),
    "core/lifecycle.py::InferletLifecycleManager._abort_launch": (
        "ROADMAP item 2: a launch terminated before its program ran"
    ),
    "core/lifecycle.py::InferletLifecycleManager.abort": (
        "ROADMAP item 2: a client aborts a running inferlet"
    ),
    "core/mover.py::KvMover.to_host": (
        "ROADMAP item 9(b): agent_overcommit demotes cached pages to the host tier"
    ),
    "core/mover.py::KvMover.from_host": (
        "ROADMAP item 9(b): agent_overcommit restores demoted cached pages"
    ),
    "core/prefix_cache.py::PrefixCacheService.reclaim_one": (
        "ROADMAP item 9(b): agent_overcommit reclaims cached pages under KV pressure"
    ),
    "core/prefix_cache.py::PrefixCacheService._reclaim_candidates": (
        "ROADMAP item 9(b): agent_overcommit's reclamation picks the coldest fringe"
    ),
    "core/prefix_cache.py::PrefixCacheService._drop_subtree": (
        "ROADMAP item 9(b): agent_overcommit's reclamation drops a node with no host room"
    ),
    "core/prefix_cache.py::PrefixCacheService._detach": (
        "ROADMAP item 9(b): agent_overcommit's reclamation unlinks a node"
    ),
    "core/prefix_cache.py::PrefixCacheService.invalidate_pid": (
        "ROADMAP item 9(b): a cached page unshared by copy-on-write"
    ),
    "core/prefix_cache.py::PrefixCacheService.is_cache_shared": (
        "ROADMAP item 9(b): copy-on-write asks whether the cache shares a page"
    ),
    "core/resources.py::ResourceManager.materialize_private_kv": (
        "ROADMAP item 9(b): copy-on-write unsharing under agent_overcommit's prefix cache"
    ),
    "core/trace.py::LifecycleTracer.note_reclaimed": (
        "ROADMAP item 9(b): a reclamation termination in a traced agent_overcommit run"
    ),
    "core/trace.py::LifecycleTracer.note_swapped": (
        "ROADMAP item 9(b): a swap in a traced agent_overcommit run"
    ),
    "core/trace.py::LifecycleTracer.note_shard_down": (
        "ROADMAP item 9(b): the one-shard-kill workload, traced"
    ),
    "core/trace.py::LifecycleTracer.note_replanned": (
        "ROADMAP item 9(b): a KV stream re-planned in the traced one-shard-kill workload"
    ),
    # -- calls client or inferlet code makes
    "core/api.py::Subscription.next_message": (
        "API: an inferlet reads a topic it subscribed to (the swarm inferlets)"
    ),
    "core/messaging.py::MessageBus.next_message": "API: behind a subscription's next_message",
    "core/messaging.py::_Mailbox.get": "API: behind receive and a subscription's next_message",
    "core/messaging.py::ClientChannel.receive_from_client": "API: behind receive",
    "core/messaging.py::ClientChannel.send_to_inferlet": "API: behind PieClient.send",
    "core/messaging.py::ClientChannel.receive_from_inferlet": "API: behind PieClient.receive",
    "core/controller.py::Controller.release_export": "API: behind release_kvpage_export",
    "core/resources.py::ResourceManager.release_export": "API: behind release_kvpage_export",
    "core/handlers.py::ApiHandlers._run_embed_image": "API: the handler behind embed_img",
    "core/scheduler.py::BatchScheduler.set_priority": "API: behind set_queue_priority",
    "core/handles.py::Queue.__hash__": "API: inferlet code keys a dict or a set by a queue",
    "core/server.py::PieServer.launch": "API: a launch that does not wait for the exit",
    "core/server.py::PieClient.launch": "API: a remote client's launch",
    "core/server.py::PieClient.wait": "API: a remote client waits for an exit",
    "sim/latency.py::LatencyModel.sample": "API: what a latency model implements",
    "sim/futures.py::SimFuture.cancelled": (
        "API: code holding a future asks whether it was cancelled"
    ),
    # -- read-only views of state that tests read
    "core/health.py::ShardHealthService.state": "inspection: one shard's health",
    "core/messaging.py::ExternalServices.total_calls": "inspection: tool calls served",
    "core/metrics.py::InferletMetrics.total_calls": "inspection: API calls an inferlet made",
    "core/metrics.py::InferletMetrics.latency": "inspection: an inferlet's run time",
    "core/prefix_cache.py::PrefixCacheService.cached_pages": "inspection: pages the index owns",
    "core/registry.py::LogHistogram.copy": "inspection: a histogram merged without changing it",
    "core/server.py::PieServer.num_devices": "inspection: devices the server was built with",
    "core/swap.py::SwapManager.is_blocked": "inspection: an inferlet parked on a swap-in",
    "core/transfer.py::KvTransferScheduler.active_streams": "inspection: open KV streams",
    "core/transfer.py::KvTransferScheduler.staged_pages": "inspection: an owner's staged pages",
    "core/wasm.py::WasmRuntime.live_instances": "inspection: sandboxes alive",
}
#: What a :data:`REACH_LEDGER` reason starts with.
REACH_REASONS = ("error path", "reference", "ROADMAP item", "API", "inspection")

ROOT = pathlib.Path(__file__).resolve().parents[1]
#: Where a second value comes from: experiment arms and the load harness,
#: ``perf/`` workloads, the examples.
CALLERS = ("src/repro/bench", "perf", "examples")
#: A row whose reason starts with one of these needs no second value.
EXEMPT = ("seed", "capacity", "path")
#: Who may pass a constructor parameter: the program itself, ``perf/``, the
#: examples — anything but ``tests/``.
CONSTRUCTOR_CALLERS = ("src/repro", "perf", "examples")
CONSTRUCTOR_EXEMPT = (*EXEMPT, "API")


def settable_scalars():
    return [
        f"{cls.__name__}.{field.name}" for cls in CLASSES for field in dataclasses.fields(cls)
    ]


def test_every_field_has_a_ledger_row_and_every_row_a_field():
    assert sorted(LEDGER) == sorted(settable_scalars())
    assert all(reason.strip() for reason in LEDGER.values())


def named_outside_tests() -> set:
    """Every name :data:`CALLERS` give a value — a keyword argument or a
    string dict key (an arm's overrides)."""
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
    # 15 / 24 / 4 before the qos knob went; 14 / 23 / 3 before fault_seed
    # went with the retry policy it seeded; 13 / 22 fields and scalars, 5
    # boolean planes, before chunked prefill became how every batch forms;
    # 12 / 21 / 4 and two shorthand rows before the monitor and the chaos
    # plane were built with every controller; 10 / 19 and one shorthand row
    # (``trace_path`` implied ``tracing``) before the trace export path
    # became the caller's argument, and the implication table went with it.
    assert len(dataclasses.fields(ControlLayerConfig)) == 9
    assert len(settable_scalars()) <= 18
    planes = [f.name for f in dataclasses.fields(ControlLayerConfig) if isinstance(f.default, bool)]
    assert planes == ["prefix_cache", "tracing"]


def test_every_fault_kind_is_injected_outside_tests():
    """The fault grammar keeps the same rule: a kind stays only if a string
    literal under :data:`CALLERS` names it — an experiment's plan, a
    ``perf/`` workload, an example."""
    named = defaultdict(set)
    for directory in CALLERS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    named[node.value].add(path.relative_to(ROOT).as_posix())
    # Not vacuous: the scan sees the chaos experiment's kill.
    assert "src/repro/bench/experiments/chaos.py" in named["shard_crash"]
    assert [kind for kind in FAULT_KINDS if kind not in named] == []


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


# -- the plane scan ---------------------------------------------------------------

#: Objects every controller builds: the core never asks whether they exist.
ALWAYS_BUILT = ("monitor", "health", "faults", "transfer", "health_probe")


def none_tests(names, root=ROOT):
    """``file:line`` of every ``is None`` / ``is not None`` under
    ``src/repro/core/`` whose operand's last name, leading underscores
    dropped (``self._trace``), is one of ``names``."""
    found = []
    for path in sorted((root / "src/repro/core").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Is, ast.IsNot)):
                    continue
                for operand, other in ((left, right), (right, left)):
                    if (
                        isinstance(other, ast.Constant)
                        and other.value is None
                        and (_name(operand) or "").lstrip("_") in names
                    ):
                        found.append(f"{path.relative_to(root).as_posix()}:{node.lineno}")
    return found


def test_the_core_never_asks_whether_an_always_built_plane_exists():
    assert none_tests(ALWAYS_BUILT) == []
    # The flight recorder is told through the observers, never tested for.
    assert none_tests(("trace",)) == []
    # Not vacuous: the scan finds the prefix cache's tests of today.
    assert len(none_tests(("prefix_cache",))) > 0


# -- the constructor scan ---------------------------------------------------------


def _parse(root, directory):
    for path in sorted((root / directory).rglob("*.py")):
        yield ast.parse(path.read_text(encoding="utf-8"))


def _name(node):
    """The last part of a dotted name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def _classes(root):
    """Class name under ``src/repro`` -> (its base names, its own ``__init__``)."""
    classes = {}
    for tree in _parse(root, "src/repro"):
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                init = next(
                    (
                        item
                        for item in node.body
                        if isinstance(item, ast.FunctionDef) and item.name == "__init__"
                    ),
                    None,
                )
                classes[node.name] = ([_name(base) for base in node.bases], init)
    return classes


def _owner(classes, name):
    """The class whose ``__init__`` a call of class ``name`` runs."""
    while name in classes:
        bases, init = classes[name]
        if init is not None:
            return name
        name = next((base for base in bases if base in classes), None)
    return None


def _passed(root, classes):
    """Owner class -> the keywords and positional indexes its callers
    outside ``tests/`` pass (``"*"`` / ``"**"`` for an unpacking).  A call
    is by class name, ``cls(...)`` in the class, ``super().__init__(...)``
    in a subclass or ``Base.__init__(self, ...)``."""
    passed = defaultdict(set)

    def note(name, call, skip=0):
        owner = _owner(classes, name)
        if owner is not None:
            args = passed[owner]
            args.update(range(len(call.args) - skip))
            args.update(keyword.arg or "**" for keyword in call.keywords)
            if any(isinstance(arg, ast.Starred) for arg in call.args):
                args.add("*")

    for directory in CONSTRUCTOR_CALLERS:
        for tree in _parse(root, directory):
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    bases = [_name(base) for base in node.bases]
                    for call in ast.walk(node):
                        if not isinstance(call, ast.Call):
                            continue
                        func = call.func
                        if isinstance(func, ast.Name) and func.id == "cls":
                            note(node.name, call)
                        elif (
                            _name(func) == "__init__"
                            and isinstance(func.value, ast.Call)
                            and _name(func.value.func) == "super"
                        ):
                            note(next((base for base in bases if base in classes), None), call)
                elif isinstance(node, ast.Call):
                    func = node.func
                    if _name(func) in classes:
                        note(_name(func), node)
                    elif _name(func) == "__init__" and _name(func.value) in classes:
                        note(_name(func.value), node, skip=1)
    return passed


def unpassed_defaults(root=ROOT):
    """``Class.parameter`` for every defaulted ``__init__`` parameter under
    ``src/repro`` that no call outside ``tests/`` passes."""
    classes = _classes(root)
    passed = _passed(root, classes)
    found = []
    for name, (_, init) in sorted(classes.items()):
        if init is None:
            continue
        args, positional = passed.get(name, set()), init.args.posonlyargs + init.args.args
        first_default = len(positional) - len(init.args.defaults)
        defaulted = [(arg.arg, index - 1) for index, arg in enumerate(positional)][first_default:]
        defaulted += [
            (arg.arg, None)
            for arg, default in zip(init.args.kwonlyargs, init.args.kw_defaults)
            if default is not None
        ]
        for parameter, index in defaulted:
            if {parameter, "**"} & args or (index is not None and {index, "*"} & args):
                continue
            found.append(f"{name}.{parameter}")
    return found


def constructor_rule_breaks(root, ledger):
    """A parameter only a test passes without an exempt row, and a row the
    scan does not find."""
    found = unpassed_defaults(root)
    refused = [row for row in found if not ledger.get(row, "").startswith(CONSTRUCTOR_EXEMPT)]
    return refused + sorted(set(ledger) - set(found))


def test_no_constructor_parameter_is_passed_by_tests_alone():
    assert constructor_rule_breaks(ROOT, CONSTRUCTOR_LEDGER) == []
    # 40 before the rule: 38 knobs, and the two `_Family` defaults its one
    # caller (a `cls(...)` the scan cannot name) always overrode.
    assert len(CONSTRUCTOR_LEDGER) == 3


def test_the_constructor_scan_is_not_vacuous(tmp_path):
    (tmp_path / "src/repro").mkdir(parents=True)
    (tmp_path / "src/repro/knobs.py").write_text(
        "class Knob:\n"
        "    def __init__(self, size, period=1.0):\n"
        "        self.period = period\n"
        "\n"
        "class Seeded:\n"
        "    def __init__(self, seed=0):\n"
        "        self.seed = seed\n"
        "\n"
        "class Child(Seeded):\n"
        "    def __init__(self):\n"
        "        super().__init__(seed=1)\n"
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests/test_knobs.py").write_text(
        "from repro.knobs import Knob\n\nKnob(4, period=2.0)\n"
    )
    # Only a test passes ``period``; ``super().__init__`` passes ``seed``.
    assert constructor_rule_breaks(tmp_path, {}) == ["Knob.period"]
    assert constructor_rule_breaks(tmp_path, {"Knob.period": "capacity"}) == []
    assert constructor_rule_breaks(tmp_path, {"Knob.period": "a test varies it"}) == [
        "Knob.period"
    ]
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples/knobs.py").write_text("from repro.knobs import Knob\n\nKnob(4, 2.0)\n")
    assert constructor_rule_breaks(tmp_path, {}) == []
    # A row whose parameter an outside caller passes is stale.
    assert constructor_rule_breaks(tmp_path, {"Knob.period": "capacity"}) == ["Knob.period"]


# -- the reach ledger ---------------------------------------------------------------


def defined_functions(root=ROOT):
    """``package/module.py::Qual.name`` -> (path under ``src/repro``, first
    line of its code object, lines) of every function and method under
    ``src/repro``; a function nested in another is part of it."""
    found = {}
    src = root / "src/repro"
    for path in sorted(src.rglob("*.py")):
        relative = path.relative_to(src).as_posix()

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    lines = child.end_lineno - first + 1
                    found[f"{relative}::{prefix}{child.name}"] = (relative, first, lines)
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def test_every_reach_row_names_a_core_or_sim_function():
    """The rows ``python -m tests.reach`` checks against its runs name
    functions that exist, each with a reason; the runs themselves take
    minutes and are CI's ``reachability`` job."""
    functions = defined_functions()
    assert [row for row in REACH_LEDGER if row not in functions] == []
    assert [row for row in REACH_LEDGER if row.split("/", 1)[0] not in ("core", "sim")] == []
    assert all(reason.startswith(REACH_REASONS) for reason in REACH_LEDGER.values())
    # 60 when the audit became a gate: 93 unreached, 33 of them exempt;
    # 55 once the metric families, the upload skip and ModelService's
    # shard-0 accessors went with their rows and the deallocation gate
    # left SimFuture.cancelled to its API callers; 54 once a forced
    # termination threw its typed cause into the program, which reaches
    # InferletInstance.terminated_cause; 53 once suspension was read from
    # the address space and SwapManager.num_swapped went with its row.
    assert len(REACH_LEDGER) == 53
