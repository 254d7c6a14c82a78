"""One experiment module per paper table/figure.

* ``fig6_agents``          — agentic workflows: latency & throughput.
* ``fig7_optimizations``   — stacked application-specific optimizations.
* ``fig8_techniques``      — inference techniques across serving systems.
* ``fig9_launch``          — inferlet launch latency (cold vs warm).
* ``fig10_api_overhead``   — per-call overhead by handling layer.
* ``fig11_api_calls``      — API calls per output token per task.
* ``table2_loc``           — inferlet inventory and lines of code.
* ``table3_opportunity``   — opportunity cost of the programming model.
* ``table4_model_size``    — TPOT overhead vs model size.
* ``table5_batching``      — batching strategy throughput.

Beyond the paper:

* ``cluster_scaling``      — agent throughput from 1 to 8 simulated devices.
* ``tiered_memory``        — host-memory KV swapping vs termination
  for I/O-heavy agents under device-memory pressure.
* ``prefix_cache``         — automatic token-addressed KV reuse for a
  fleet sharing one system prompt (off vs on vs cache-affinity cluster).
* ``qos``                  — multi-tenant QoS: SLO-aware admission,
  slack dispatch and class-aware preemption vs undifferentiated FCFS
  for a batch + interactive mixed-tenant workload.
* ``chunked_prefill``      — token-budget batching: sliced prefills
  co-batched with decode rows vs monolithic prompts on one device.
* ``disaggregation``       — prefill/decode shard roles with overlapped
  KV-page streaming and live handoff vs the strongest co-located
  (least_loaded + chunked prefill) cluster.
* ``tracing``              — flight-recorder overhead (wall-clock on vs
  off), non-perturbation, and per-inferlet stall attribution from the
  exported trace.
* ``load_sweep``           — open-loop goodput vs offered load (seeded
  Poisson + diurnal trace over a 3-class mix), knee location, and the
  1k->10k events-per-request control-plane scaling probe.
"""
