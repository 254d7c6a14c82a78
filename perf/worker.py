"""One workload, one process: set-up, the timed section, the checks.

Run by ``perf/run.py`` as a subprocess so that set-up (interpreter start
and imports included), CPU time and peak memory belong to one workload.
Prints one JSON object as the last line of its standard output.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: Events between two samples of the host-speed reference: about 0.1 s of
#: host time, well inside a noisy neighbour's bursts, for 5 % more run time
#: (at 2000 events the counted time of one commit spread twice as wide).
SLICE_EVENTS = 1000
SETUP_REFERENCE_SAMPLES = 5


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--requests", type=int, help="fewer than the workload's size (smoke)")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--trace-out")
    parser.add_argument("--setup-only", action="store_true")
    options = parser.parse_args(argv)

    # Before numpy is imported: an unpinned BLAS burns both cores on
    # matrices this small and makes CPU time meaningless.
    for name in THREAD_PINS:
        os.environ[name] = "1"
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[:0] = [root, os.path.join(root, "src")]

    import resource
    import time
    from contextlib import ExitStack

    import numpy

    from perf import metrics, reference, spans, workloads
    from perf.spec import LAYERS

    workload = workloads.WORKLOADS[options.workload]
    requests = workload.build(options.seed, options.requests or workload.size)
    workloads.run_warmup(workload, requests)

    with ExitStack() as stack:
        recorder = None
        if options.traced:
            recorder = stack.enter_context(spans.installed(spans.SpanRecorder()))
        sim, server = workloads.make_server(
            workload, options.seed, flight_recorder=options.traced
        )
        if recorder is not None:
            recorder.virtual_now = lambda: sim.now
        run_all, outcomes = workloads.drive(sim, server, workload, requests)
        server.service().entry.transformer  # lazy weights are set-up, not service
        reference.sample()  # its own first-call paths are set-up too
        gc.collect()
        setup_raw_s = time.process_time()
        speeds = [reference.sample() for _ in range(SETUP_REFERENCE_SAMPLES)]
        setup_s = setup_raw_s * reference.NOMINAL_S * len(speeds) / sum(speeds)
        if options.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        if recorder is not None:
            recorder.clear()
        wall = time.perf_counter()
        # Step by hand, so that the reference kernel can run between slices
        # of the event stream with the workload's CPU clock stopped; each
        # slice counts at the mean speed of the two samples around it.
        task = sim.create_task(run_all())
        makespan, events, cpu_raw_s, host_cpu_s = None, 0, 0.0, 0.0
        before, mark = speeds[-1], time.process_time()
        running = True
        while running:
            running = sim.step()
            if makespan is None and task.done():
                makespan = sim.now
            events += 1
            if events % SLICE_EVENTS == 0 or not running:
                cpu = time.process_time() - mark
                after = reference.sample()
                cpu_raw_s += cpu
                host_cpu_s += cpu * reference.NOMINAL_S * 2.0 / (before + after)
                before, mark = after, time.process_time()
        wall = time.perf_counter() - wall
        task.result()  # raises what run_all raised, or that it never finished
        slowdown = cpu_raw_s / host_cpu_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    mismatches = workloads.check_oracle(workload, requests, outcomes, options.seed)
    result = metrics.end_to_end(workload, requests, outcomes, makespan)
    layers = metrics.layer_counters(sim, server, outcomes, makespan)
    layers["harness.wall_s"] = wall
    layers["harness.host_slowdown"] = slowdown
    if recorder is not None:
        layers.update(metrics.stall_shares(server.trace.events()))
        for layer in LAYERS:
            layers[f"{layer}.host_self_s"] = recorder.self_s.get(layer, 0.0) / slowdown
        layers["resources.alloc_calls"] = (
            recorder.calls["ResourceManager.alloc_kv_pages"]
            + recorder.calls["ResourceManager.alloc_embeds"]
        )
        layers["model.forward_calls"] = recorder.calls["TinyTransformer.forward"]
        layers["resources.kv_pages_peak"] = recorder.kv_pages_peak
        layers["harness.spans_dropped"] = recorder.dropped + server.trace.dropped
        if options.trace_out:
            recorder.write(options.trace_out)

    counts = result["counts"]
    checks = {
        "oracle_matches": mismatches == 0,
        "queue_drained": sim.heap_size == sim.cancelled_in_heap,
        "gen_lag_zero": layers["harness.gen_lag_ms_max"] == 0.0,
        "all_accounted": counts["succeeded"] + counts["failed"] + counts["refused"]
        == counts["sent"],
    }
    print(
        json.dumps(
            {
                "workload": workload.name,
                "seed": options.seed,
                "traced": options.traced,
                "host": {
                    "setup_s": setup_s,
                    "host_cpu_s": host_cpu_s,
                    "peak_rss_mb": peak_rss_mb,
                },
                "virtual": result["metrics"],
                "counts": counts,
                "layers": layers,
                "checks": checks,
                "correct": all(checks.values()),
                "errors": sorted({o.error for o in outcomes if o.error})[:5],
                "env": {
                    "python": sys.version.split()[0],
                    "numpy": numpy.__version__,
                    "nproc": os.cpu_count(),
                    **{name: os.environ[name] for name in THREAD_PINS},
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
