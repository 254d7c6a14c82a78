"""Perf gate: compare fresh ``BENCH_*.json`` artifacts against baselines.

CI runs the benchmark smokes, which rewrite their ``BENCH_*.json``
artifacts, and then calls this tool with the committed baselines stashed
beforehand.  The gate fails (exit 1) when any watched metric regresses by
more than the allowed fraction; improvements and new metrics pass.

Several baseline/fresh *pairs* can be gated in one invocation (the
positional arguments alternate baseline, fresh, baseline, fresh, ...);
every pair is always evaluated and ALL regressions are reported, so one
failing artifact cannot mask another.

Watched metrics are *lower-is-better* counters (``--metric``, repeatable;
default: ``events_per_request_10k``, the control-plane scaling headline —
simulator events processed per simulated request at the 10k-request probe)
and *higher-is-better* ones (``--higher-is-better``, repeatable; e.g.
``max_goodput_rate``, the load sweep's knee), which fail when they *fall*
by more than the allowed fraction.  A lower-is-better metric whose
baseline is 0 (a counter meant to stay there, e.g. ``commands_dropped_10k``)
fails on any growth.  A watched metric present in the
baseline but missing from the fresh artifact also fails: silently dropping
the number a gate regresses on is itself a regression.

Usage::

    python -m repro.tools.perf_gate baseline.json fresh.json
    python -m repro.tools.perf_gate \
        /tmp/sweep_base.json BENCH_load_sweep.json \
        /tmp/chaos_base.json BENCH_chaos.json \
        --metric events_per_request_10k --metric goodput_lost \
        --higher-is-better max_goodput_rate --tolerance 0.10
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Sequence

__all__ = ["DEFAULT_METRICS", "compare", "main"]

#: Lower-is-better metrics gated by default.
DEFAULT_METRICS = ("events_per_request_10k",)


def compare(
    baseline: Dict,
    fresh: Dict,
    metrics: Sequence[str] = DEFAULT_METRICS,
    tolerance: float = 0.10,
    higher_is_better: Sequence[str] = (),
) -> List[str]:
    """Return a list of human-readable gate failures (empty = pass).

    ``metrics`` regress by growing, ``higher_is_better`` by falling."""
    failures = []
    for metric in (*metrics, *higher_is_better):
        if metric not in baseline:
            # No baseline yet (first commit of a new artifact): nothing to
            # regress against, the fresh value becomes the next baseline.
            continue
        if metric not in fresh:
            failures.append(f"{metric}: present in baseline but missing from fresh run")
            continue
        base = float(baseline[metric])
        new = float(fresh[metric])
        falls = metric in higher_is_better
        if base <= 0:
            # No fraction of a zero baseline: a lower-is-better counter at 0
            # (e.g. commands dropped) must stay there.
            if not falls and new > base:
                failures.append(f"{metric}: {base:.3f} -> {new:.3f} (must not grow from {base:g})")
            continue
        sign = "-" if falls else "+"
        worse_by = (base - new if falls else new - base) / base
        if worse_by > tolerance:
            failures.append(
                f"{metric}: {base:.3f} -> {new:.3f} "
                f"({sign}{worse_by * 100.0:.1f}%, allowed {sign}{tolerance * 100.0:.0f}%)"
            )
    return failures


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "artifacts",
        type=Path,
        nargs="+",
        metavar="baseline fresh",
        help="alternating baseline/fresh artifact pairs",
    )
    parser.add_argument(
        "--metric",
        action="append",
        dest="metrics",
        help=f"lower-is-better metric to gate (default: {', '.join(DEFAULT_METRICS)})",
    )
    parser.add_argument(
        "--higher-is-better",
        action="append",
        default=[],
        metavar="METRIC",
        help="higher-is-better metric to gate: fails when it falls (repeatable)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.10,
        help="allowed fractional growth (or fall) before failing (default 0.10)",
    )
    args = parser.parse_args(argv)

    if len(args.artifacts) % 2 != 0:
        parser.error(
            f"artifacts must come in baseline/fresh pairs, got "
            f"{len(args.artifacts)} paths"
        )
    pairs = list(zip(args.artifacts[0::2], args.artifacts[1::2]))
    metrics = args.metrics or list(DEFAULT_METRICS)
    multi = len(pairs) > 1

    all_failures: List[str] = []
    for baseline_path, fresh_path in pairs:
        prefix = f"{fresh_path.name}: " if multi else ""
        if not baseline_path.exists():
            print(
                f"perf-gate: {prefix}no baseline at {baseline_path}, "
                f"accepting fresh run"
            )
            continue
        baseline = json.loads(baseline_path.read_text())
        fresh = json.loads(fresh_path.read_text())
        failures = compare(
            baseline,
            fresh,
            metrics=metrics,
            tolerance=args.tolerance,
            higher_is_better=args.higher_is_better,
        )
        for metric in (*metrics, *args.higher_is_better):
            if metric in baseline and metric in fresh:
                print(
                    f"perf-gate: {prefix}{metric}: "
                    f"{baseline[metric]} -> {fresh[metric]}"
                )
        all_failures.extend(prefix + failure for failure in failures)
    if all_failures:
        for failure in all_failures:
            print(f"perf-gate: FAIL {failure}")
        return 1
    print("perf-gate: pass")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
