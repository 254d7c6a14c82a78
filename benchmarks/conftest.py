"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one paper table/figure.  The experiments run on
a virtual-time simulator, so pytest-benchmark's measured wall-clock time is
the cost of running the simulation, while the *reproduced* quantities
(latencies, throughputs) come from the returned ExperimentResult and are
printed for inspection; the beyond-the-paper headlines are also written to
the ``BENCH_*.json`` files at the repo root.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# Allow running the benchmarks without installing the package.
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import pytest


@pytest.fixture()
def run_experiment(benchmark):
    """Run an experiment module once under pytest-benchmark and print it."""

    def runner(module, **kwargs):
        result = benchmark.pedantic(
            lambda: module.run(quick=True, **kwargs), iterations=1, rounds=1
        )
        print()
        print(result.format_table())
        return result

    return runner


@pytest.fixture()
def write_artifact():
    """``write_artifact(name, head)``: write a headline dict to ``<repo root>/name``.

    One canonical form — sorted keys, two-space indent, trailing newline —
    so a re-run that changed nothing rewrites a tracked file byte for byte.
    """

    def write(name: str, head) -> Path:
        path = ROOT / name
        path.write_text(json.dumps(head, indent=2, sort_keys=True) + "\n")
        return path

    return write
