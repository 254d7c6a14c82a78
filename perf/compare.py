"""Compare two sets of benchmark results, one row per (metric, workload).

    python3 perf/compare.py BASE.json [BASE.json ...] -- NEW.json [NEW.json ...]

Each file is a ``results.json`` written by ``perf/run.py --out DIR``; the
i-th base file is paired with the i-th new file, which must have run the
same seed (run the two commits alternately).  Names and directions come
from ``BENCHMARK.json``; the bounds are the same-seed ones of
``perf/spec.py``: 1 % for virtual metrics, 10 % for ``host_cpu_s`` and
``peak_rss_mb``, 15 % for ``setup_s``, and no rise at all of
``failed_share``.  (The bounds in ``BENCHMARK.json`` are wider: they gate
runs on *different* seeds.)

Verdicts for end-to-end metrics:

``identical``     every pair agrees exactly (expected of virtual metrics
                  when only host-side code changed)
``worse``         the new median is worse than the base median by more than
                  the metric's bound -- a regression, exit status 1
``better``        needs at least ten pairs: the new side wins nine tenths of
                  them (ties count for neither) and the medians differ by more
                  than the distance between the base's quartiles
``unresolved``    the base's own spread is wider than the bound, so "no
                  change" cannot be told from a change
``within bound``  otherwise

Per-layer metrics have no bound: virtual ones are checked for exact
equality (``identical`` / ``changed``), host ones show the change of median.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Sequence, Tuple

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perf.spec import (  # noqa: E402 - needs the repo root on the path
    clock_of,
    end_to_end,
    load_spec,
    same_seed_bound,
)

MIN_PAIRS_FOR_GAIN = 10


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return quartiles[2] - quartiles[0]


def judge(base: Sequence[float], new: Sequence[float], better: str, bound: float) -> Tuple[str, float]:
    """Verdict and change of median as a share of the base's (positive =
    worse); the change is absolute where the base's median is 0."""
    pairs = list(zip(base, new))
    base_median, new_median = statistics.median(base), statistics.median(new)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (new_median - base_median) / (abs(base_median) or 1.0)
    if pairs and all(b == n for b, n in pairs) and len(base) == len(new):
        return "identical", 0.0
    if worse_by > bound:
        return "worse", worse_by
    wins = sum(1 for b, n in pairs if sign * (n - b) < 0)
    if (
        len(pairs) >= MIN_PAIRS_FOR_GAIN
        and wins >= 0.9 * len(pairs)
        and abs(new_median - base_median) > spread(base)
    ):
        return "better", worse_by
    if base_median and spread(base) / abs(base_median) > bound:
        return "unresolved", worse_by
    return "within bound", worse_by


def values_of(files: Sequence[dict], workload: str, metric: str) -> List[float]:
    found = []
    for document in files:
        runs = document["workloads"][workload]
        untraced = runs["untraced"]
        flat = {**untraced["host"], **untraced["virtual"]}
        layers = runs.get("traced", untraced)["layers"]
        if metric in flat:
            found.append(flat[metric])
        elif metric in layers:
            found.append(layers[metric])
    return found


def compare(spec: dict, base: Sequence[dict], new: Sequence[dict]) -> Tuple[List[tuple], bool]:
    """Rows ``(workload, metric, clock, base median, new median, change,
    verdict)`` and whether any end-to-end metric regressed."""
    rows, regressed = [], False
    gated = end_to_end(spec)
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in gated + spec["per_layer"]:
            name = metric["name"]
            old, fresh = values_of(base, workload, name), values_of(new, workload, name)
            if not old or not fresh:
                continue
            if metric in gated:
                verdict, change = judge(old, fresh, metric["better"], same_seed_bound(name))
                regressed = regressed or verdict == "worse"
            else:
                verdict, change = judge(old, fresh, metric["better"], float("inf"))
                if clock_of(name) == "virtual":
                    verdict = "identical" if verdict == "identical" else "changed"
                elif verdict != "identical":
                    verdict = "-"
            rows.append(
                (workload, name, clock_of(name), statistics.median(old),
                 statistics.median(fresh), change, verdict)
            )  # fmt: skip
    return rows, regressed


def load(paths: Sequence[str]) -> List[dict]:
    documents = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    return documents


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--" not in argv or argv[0] == "--" or argv[-1] == "--":
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    base, new = load(argv[:split]), load(argv[split + 1 :])
    if [d["seed"] for d in base] != [d["seed"] for d in new]:
        print("compare: the i-th base and new file must have run the same seed", file=sys.stderr)
        return 2
    rows, regressed = compare(load_spec(), base, new)
    print(f"{'workload':<20}{'metric':<34}{'clock':<9}{'base':>14}{'new':>14}{'worse by':>10}  verdict")
    for workload, metric, clock, old, fresh, change, verdict in rows:
        print(f"{workload:<20}{metric:<34}{clock:<9}{old:>14.5f}{fresh:>14.5f}{change:>+10.2%}  {verdict}")
    print("REGRESSION" if regressed else "no regression")
    return 1 if regressed else 0


if __name__ == "__main__":
    raise SystemExit(main())
