"""Benchmark for the chaos plane (robustness, beyond the paper).

Runs the knee-rate shard-kill experiment (one of eight shards fail-stops
mid-sweep) plus the swap-then-relaunch rescue probe, asserting the
robustness contracts — an armed-but-idle chaos plane is bit-identical to
faults-off, killing 1/8 of the capacity retains >= 80% of baseline
goodput, and a fully swapped victim is relaunched with identical output
tokens — and records the headline numbers in ``BENCH_chaos.json`` for the
CI perf gate (``goodput_lost`` and the survivors' interactive p99 TTFT,
both lower-is-better).
"""

from repro.bench.experiments import chaos as experiment


def test_chaos_shard_kill(run_experiment, write_artifact):
    result = run_experiment(experiment)
    rows = {r["config"]: r for r in result.rows}
    assert set(rows) == {"baseline", "faults_inert", "shard_kill"}
    raw = result.raw

    # Contract 1: armed but idle is inert.  The empty-plan arm matches the
    # faults-off baseline bit for bit.
    assert raw["inert_identical_tokens"]
    assert raw["inert_identical_elapsed"]
    assert rows["faults_inert"]["goodput_count"] == rows["baseline"]["goodput_count"]

    # Contract 2: graceful degradation.  Killing one of eight shards at
    # the knee rate keeps >= 80% of baseline goodput, the health service
    # marks exactly that shard down, and every victim is accounted for
    # (terminated with cause or relaunched) — nothing hangs.
    assert raw["goodput_retained"] >= 0.80, raw["goodput_retained"]
    kill = raw["kill_chaos"]
    assert kill["shard_crashes"] == 1
    assert kill["shard_states"][experiment.CRASH_SHARD] == "down"
    down = [s for s in kill["shard_states"].values() if s == "down"]
    assert len(down) == 1
    assert kill["failover_terminations"] + kill["failover_relaunches"] >= 1

    # Contract 3: the rescue path.  A tool-blocked, fully swapped agent's
    # shard crashes; failover re-materializes it on the survivor and it
    # finishes with exactly the tokens of the crash-free run.
    rescue = raw["rescue"]
    assert rescue["clean_status"] == "finished"
    assert rescue["crashed_status"] == "finished"
    assert rescue["identical_tokens"]
    assert rescue["relaunches"] == 1
    assert rescue["terminations"] == 0
    assert rescue["swap_outs"] >= 1

    head = {
        "goodput_retained": raw["goodput_retained"],
        "goodput_lost": 1.0 - raw["goodput_retained"],
        "baseline_goodput": rows["baseline"]["goodput_count"],
        "kill_goodput": rows["shard_kill"]["goodput_count"],
        "failover_terminations": kill["failover_terminations"],
        "failover_relaunches": kill["failover_relaunches"],
        "survivor_interactive_ttft_p99_ms": raw["survivor_ttft_p99_ms"][
            "interactive"
        ],
        "baseline_interactive_ttft_p99_ms": raw["baseline_ttft_p99_ms"][
            "interactive"
        ],
        "rescue_relaunches": rescue["relaunches"],
        "rescue_identical_tokens": rescue["identical_tokens"],
        "inert_identical_tokens": raw["inert_identical_tokens"],
        "inert_identical_elapsed": raw["inert_identical_elapsed"],
    }
    write_artifact("BENCH_chaos.json", head)
