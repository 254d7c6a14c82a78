"""Benchmark for multi-tenant serving by tenant class (beyond the paper).

A batch tenant's fork-join mining agents share one overcommitted device
with an interactive tenant's chat turns.  Served as one undifferentiated
FCFS pool the chat turns queue behind the miner backlog and lose the
reclamation lottery; with the two tenants registered (the ``qos_on`` arm),
the core's class-then-age dispatch order, class-first batch merging and
victim order (lowest class first) must deliver >= 2x better interactive
p99 TTFT at <= 10% total token-throughput cost, with zero
interactive-class reclamation terminations.  That the ``qos_off`` arm, with
no tenant registered, runs the same every time is a case of
``test_same_seed_same_run.py``.
"""

from repro.bench.experiments import qos as qos_experiment


def test_qos(run_experiment):
    result = run_experiment(qos_experiment)
    rows = {r["config"]: r for r in result.rows}
    assert set(rows) == {"qos_off", "qos_on"}
    off, on = rows["qos_off"], rows["qos_on"]

    # The pressure scenario is real: without QoS, interactive requests are
    # among the reclamation victims (no tenant is registered, so both are
    # the default class, and a chat turn still waiting for its first token
    # has the most slack to its deadline).
    assert off["interactive_terminated"] > 0

    # Headline: interactive p99 TTFT at least 2x better under QoS...
    assert off["interactive_ttft_p99_ms"] >= 2.0 * on["interactive_ttft_p99_ms"]
    # ...at no more than 10% total finished-token throughput cost.
    assert on["token_throughput_per_s"] >= 0.9 * off["token_throughput_per_s"]

    # Preemption ordering: pressure lands exclusively on the batch class.
    assert on["interactive_terminated"] == 0
    assert on["preempt_terms"] == on["batch_terminated"]
    # Interactive SLO attainment does not regress (and typically improves).
    assert on["interactive_slo"] >= off["interactive_slo"]


def test_qos_tenant_accounting():
    """Per-tenant SystemMetrics counters add up for the qos=on run."""
    row = qos_experiment.run_fleet(**qos_experiment.arms()["qos_on"])
    tenants = row["tenant_metrics"]
    assert set(tenants) == {
        qos_experiment.INTERACTIVE_TENANT,
        qos_experiment.BATCH_TENANT,
    }
    chat = tenants[qos_experiment.INTERACTIVE_TENANT]
    miner = tenants[qos_experiment.BATCH_TENANT]
    assert chat.priority_class == "interactive"
    assert miner.priority_class == "batch"
    # Every interactive request was admitted, produced a first token within
    # the run, and none were preempted.
    assert chat.admitted == chat.ttft.total
    assert chat.preempted_terminations == 0
    assert chat.preempted_swaps == 0
    # All reclamation preemptions were billed to the batch tenant (the
    # core counts them at the rung; qos_preemption_terminations, the twin
    # of reclamation_terminations, is gone).
    assert miner.preempted_terminations == row["reclamation_terminations"]
