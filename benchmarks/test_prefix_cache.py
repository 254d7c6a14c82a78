"""Benchmark for the automatic prefix cache (beyond the paper).

A staggered fleet of agents shares one long system prompt.  With the
control layer's prefix cache on, every agent after the first reuses the
prompt's committed KV pages, so >= 25 % of the baseline's forward tokens
are never computed — while generation stays bit-identical, because cached
pages hold exactly the KV the importer would have produced.  With the
cache off, the serving path is the exact pre-cache system (zero cache
activity here; the bit-identical re-run is a case of
``test_same_seed_same_run.py``).
"""

from repro.bench.experiments import prefix_cache


def test_prefix_cache(run_experiment):
    result = run_experiment(prefix_cache)
    rows = {r["config"]: r for r in result.rows}
    assert set(rows) == {"cache_off", "cache_on", "cache_cluster"}

    off, on, cluster = rows["cache_off"], rows["cache_on"], rows["cache_cluster"]

    # The off row is the pre-cache system: no cache activity whatsoever.
    assert off["hits"] == off["misses"] == 0
    assert off["saved_tokens"] == off["inserted_pages"] == 0

    # Transparency: the cache changes cost, never behaviour.
    assert on["finished"] == off["finished"]
    assert on["output_tokens"] == off["output_tokens"]

    # Headline: at least 25% of the baseline's forward tokens are reused
    # rather than recomputed, with an exact compute account.
    assert on["saved_tokens"] >= 0.25 * off["forward_tokens"]
    assert on["forward_tokens"] + on["saved_tokens"] == off["forward_tokens"]
    assert on["hits"] > 0
    assert on["elapsed_s"] <= off["elapsed_s"]

    # The cluster row still reuses the prompt: cache_affinity placement
    # (prompt-prefix hints) keeps the fleet on the shard holding the pages.
    assert cluster["finished"] == off["finished"]
    assert cluster["hits"] > 0
    assert cluster["saved_tokens"] >= 0.25 * off["forward_tokens"]
