"""The ``perf/`` benchmark reaches into the program by name; tier-1 does
not collect ``perf/``, so a rename would only surface as a broken benchmark.
These checks hold the names it uses: the methods ``perf/spans.py`` wraps and
what ``perf/metrics.py`` / ``perf/workloads.py`` read off a live server."""

import importlib.util
import pathlib

from repro.core import InferletProgram, PieServer
from repro.sim import Simulator

PERF = pathlib.Path(__file__).resolve().parent.parent / "perf"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perf_spans_under_test", PERF / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_still_resolves():
    spans = _load_spans()
    targets = spans.targets(spans.SpanRecorder())
    found = {(holder.__name__.rsplit(".", 1)[-1], name) for holder, name, *_ in targets}
    for holder, name, *_ in targets:
        assert callable(vars(holder).get(name)), f"{holder.__name__}.{name} is gone"
    # The hooks the per-layer metrics are named after.
    expected = {
        ("Simulator", "step"),
        ("Task", "_step"),
        ("InferletLifecycleManager", "launch"),
        ("Router", "place"),
        ("Router", "release"),
        ("BatchScheduler", "submit"),
        ("BatchScheduler", "create_queue"),
        ("BatchScheduler", "remove_queue"),
        ("scheduler", "form_candidate_batches"),
        ("ResourceManager", "alloc_kv_pages"),
        ("PrefixCacheService", "begin_forward"),
        ("PrefixCacheService", "match_len"),
        ("PrefixCacheService", "record_embeds"),
        ("ApiHandlers", "execute_batch"),
        ("ApiHandlers", "batch_cost_seconds"),
        ("TinyTransformer", "forward"),
        ("TinyTransformer", "embed_tokens"),
        ("TinyTransformer", "logits"),
        ("SimDevice", "submit"),
        ("Controller", "submit_command"),
    }
    assert expected <= found, sorted(expected - found)
    # Installing and removing the wrappers leaves the classes as they were.
    before = [vars(holder)[name] for holder, name, *_ in targets]
    with spans.installed(spans.SpanRecorder()):
        pass
    assert before == [vars(holder)[name] for holder, name, *_ in targets]


def test_what_the_benchmark_reads_off_a_server_still_exists():
    sim = Simulator(seed=0)
    server = PieServer(sim, num_devices=2, prefix_cache=True, tracing=True)
    seen = {}

    async def probe(ctx):
        # perf/workloads.py: is the request's prefix cached where it landed?
        cache = server.service().shard_for(ctx.instance_id).prefix_cache
        seen["matched"] = cache.match_len([1, 2, 3])

    server.register_program(InferletProgram(name="probe", main=probe))
    sim.run_until_complete(server.run_inferlet("probe"))
    assert seen == {"matched": 0}

    system = server.metrics
    for name in (
        "placements_by_device",
        "prefix_cache_hits",
        "prefix_cache_misses",
        "prefix_cache_saved_tokens",
        "commands_dropped",
        "inferlets_terminated",
        "forward_input_tokens",
    ):
        assert hasattr(system, name), f"SystemMetrics.{name} is gone"
    assert set(system.aggregate_calls_per_output_token()) >= {"control", "inference"}
    stats = server.cluster_stats().combined
    for name in (
        "batches_by_kind",
        "decode_rows_dispatched",
        "prefill_rows_dispatched",
        "batches_dispatched",
    ):
        assert hasattr(stats, name), f"SchedulerStats.{name} is gone"
    for shard in server.service().shards:
        assert shard.device.stats.busy_seconds >= 0.0
        assert shard.device.stats.batches_executed >= 0
    assert sim.processed_events > 0 and sim.heap_size >= sim.cancelled_in_heap >= 0
    server.service().entry.transformer  # perf/worker.py touches the lazy weights
    assert isinstance(server.trace.events(), list) and server.trace.dropped >= 0
