"""Experiment harness: one module per paper table/figure.

Every experiment module exposes ``run(quick=True) -> ExperimentResult``.
``quick`` mode shrinks concurrency and token counts so the full suite runs
in minutes inside pytest-benchmark; ``quick=False`` uses sizes closer to the
paper's setup.  Results carry printable rows (README "Reproduce the paper
figures" says how to print them) plus, under ``raw``, what the rows were
derived from; the beyond-the-paper headlines land in the ``BENCH_*.json``
files at the repo root.

The skeleton every fleet experiment shares lives beside this file:
:func:`repro.bench.runners.launch_fleet` (a fleet of programs with launch
times, launched in list order), :mod:`repro.bench.mixed_fleet` (the
summarizers-over-chats workload three experiments run) and
:func:`repro.bench.compare.compare_arms` (one workload under named arms).
"""

from repro.bench.reporting import ExperimentResult

__all__ = ["ExperimentResult"]
