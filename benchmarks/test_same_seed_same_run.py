"""Same seed, same run; a plane that is off leaves no trace.

The structural half of every plane's "off == the system before it"
guarantee (``tests/test_determinism.py`` holds the seeded end-to-end
half): two identically seeded runs of the plane's workload return equal
rows — every key, a superset of the lists the per-plane copies of this
test carried — every counter of a plane that is off reads zero, and, for
the one case that runs with its plane on, the machinery engaged.  Reduced
fleets keep the checks cheap.
"""

from dataclasses import replace

import pytest

from repro.bench.compare import compare_arms
from repro.bench.experiments import chunked_prefill, disaggregation, prefix_cache, qos

# case -> (workload, its keyword arguments, counters that must read zero or
# empty, counters that must have engaged)
CASES = {
    # The chunked_prefill=off default takes the exact pre-chunking path.
    "chunked_prefill_off": (
        chunked_prefill.run_fleet,
        dict(
            fleet=replace(
                chunked_prefill.FLEET, n_summarizers=2, n_chats=6, chat_tokens=16, prompt_tokens=1024
            ),
            **chunked_prefill.ARMS["chunked_off"],
        ),
        (
            "prefill_chunks_dispatched",
            "decode_rows_co_batched",
            "chunk_stall_saved_seconds",
        ),
        (),
    ),
    # Disaggregation *on*: the streaming/handoff timing arithmetic is deterministic.
    "disaggregated": (
        disaggregation.run_fleet,
        dict(
            fleet=replace(
                disaggregation.FLEET, n_summarizers=3, n_chats=6, chat_tokens=12, prompt_tokens=1024
            ),
            **disaggregation.ARMS["disaggregated"],
        ),
        (),
        ("handoffs",),
    ),
    # The qos=off run makes no admission decisions.  Preemption is not
    # listed: the victim order and its counts are the core's (the
    # qos_preemption_* twins of reclamation_* are gone), kept with every
    # plane off like the tenant records.
    "qos_off": (
        qos.run_fleet,
        qos.arms()["qos_off"],
        ("qos_admitted", "qos_queued", "qos_rejected"),
        (),
    ),
    # prefix_cache=off reproduces the stock system run for run.
    "prefix_cache_off": (
        prefix_cache.run_fleet,
        dict(n_agents=4, stagger_s=0.1, **prefix_cache.ARMS["cache_off"]),
        ("hits", "saved_tokens"),
        (),
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_same_seed_same_run(case):
    workload, kwargs, zero, engaged = CASES[case]
    runs = compare_arms(workload, {"first": kwargs, "second": kwargs})
    first = runs.raw["first"]
    for key in first:
        assert runs.identical("first", "second", key), key
    for key in zero:
        assert not first[key], key
    for key in engaged:
        assert first[key] > 0, key
