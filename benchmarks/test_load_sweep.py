"""Benchmark for the open-loop load sweep (beyond the paper).

Seeded Poisson arrivals over a 3-class workload mix drive the 4-device
deployment across offered rates spanning keeping-up, the knee and deep
overload, plus a diurnal-trace replay.  The headline gates: the goodput
curve has a real knee (goodput rises to a peak), no congestion collapse past
it (at 1.33x the knee goodput stays within 10 % of the peak, at 2x above
440 req/s), and the control plane scales — events processed per simulated request stays
flat (±20%) as the fleet grows from 1k to 10k requests, which is what the
scheduler's owner/readiness/pending indexes buy.

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
    # SLO attainment.
    assert rows[0]["slo_attainment"] >= 0.99, rows[0]

    # The goodput curve has a real knee: a maximum strictly above the
    # lowest offered rate.
    assert head["knee_offered_rate"] > rows[0]["offered_rate"]
    assert head["max_goodput_rate"] > rows[0]["goodput_rate"]

    # No congestion collapse past it: a decode step rides the forward that
    # forms after its sample however many inferlets are live, so 1.33x the
    # knee keeps 90 % of the peak and 2x stays above 440 req/s (442.5 and
    # 314.0 when decode steps missed their forwards).
    assert head["goodput_rate_1_33x"] >= 0.9 * head["max_goodput_rate"], head
    assert head["goodput_rate_2x"] >= 440.0, head

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

    # The event heap holds only live events: it ends near-empty, with no
    # timer left behind by the run's work.
    assert head["heap_size_end_10k"] < 100, head

    # No stream exits with a command queued: a chosen token is written only
    # when something reads it, so the last one never reaches the device.
    assert head["commands_dropped_10k"] == 0, head

    write_artifact("BENCH_load_sweep.json", head)
