"""Benchmark for the open-loop load sweep (beyond the paper).

Seeded Poisson arrivals over a 3-class workload mix drive the 4-device
deployment across offered rates spanning keeping-up, the knee and deep
overload, plus a diurnal-trace replay.  The headline gates: the goodput
curve has a real knee (goodput rises, peaks, then sheds under overload),
and the control plane scales — events processed per simulated request stays
flat (±20%) as the fleet grows from 1k to 10k requests, which is what the
scheduler's owner/readiness/pending indexes and the simulator's lazy-cancel
heap hygiene buy.

The headline numbers are written to ``BENCH_load_sweep.json`` at the repo
root; CI's perf gate fails any commit that regresses events-per-request by
more than 10% against the committed baseline.
"""

from repro.bench.experiments import load_sweep as experiment


def test_load_sweep(run_experiment, write_artifact):
    result = run_experiment(experiment)
    head = result.raw["headline"]
    rows = result.raw["sweep"]

    # The sweep spans the whole regime: the lowest rate keeps up at full
    # SLO attainment, the highest is deep overload shedding goodput.
    assert rows[0]["slo_attainment"] >= 0.99, rows[0]
    assert rows[-1]["slo_attainment"] <= 0.6, rows[-1]

    # The goodput curve has a real knee: an interior maximum strictly
    # above the lowest offered rate and strictly above the overload tail.
    assert head["knee_offered_rate"] > rows[0]["offered_rate"]
    assert head["max_goodput_rate"] > rows[0]["goodput_rate"]
    assert head["max_goodput_rate"] > rows[-1]["goodput_rate"] * 1.5, head

    # Goodput never exceeds what was offered (sanity of the accounting).
    for row in rows:
        assert row["goodput_rate"] <= row["offered_rate"] * 1.05, row

    # The diurnal replay at the knee's peak rate holds high attainment:
    # troughs drain what the peaks queue.
    assert head["trace_slo_attainment"] >= 0.9, head

    # Control-plane scaling: events per request flat (±20%) from 1k to 10k
    # requests — the acceptance criterion for the index/heap work.  Any
    # reintroduced O(all-queues) scan or timer leak bends this upward.
    assert 0.8 <= head["events_per_request_ratio"] <= 1.2, head

    # Lazy-cancel hygiene: the heap ends near-empty instead of carrying a
    # tombstone per resolved timeout across the whole run.
    assert head["heap_size_end_10k"] < 100, head

    write_artifact("BENCH_load_sweep.json", head)
