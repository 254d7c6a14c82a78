"""The benchmark's one command.

``python3 perf/run.py --seed 11`` runs the four workloads one after the
other, each in its own subprocess, prints every metric by name with its
unit and clock, checks outputs against the solo oracle and exits non-zero
on a correctness failure.  ``--trace 1`` adds the layer-attributed run.

``python3 perf/run.py --workload W --seed N --seconds S --trace 0|1`` is
the form ``BENCHMARK.json`` names: one workload, one JSON object as the
last line of standard output.  Sizes are fixed, so a run is one repetition
of the workload; its timed section is longer than ``run_seconds`` on all
four, and ``--seconds`` changes nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perf.spec import clock_of, end_to_end, load_spec  # noqa: E402 - needs ROOT on the path

#: Set-ups per run, the median reported: the workload's own and two
#: subprocesses that stop where the timed section would start.
SETUP_SAMPLES = 3


def worker(workload: str, seed: int, requests: Optional[int], *extra: str) -> dict:
    """Run ``perf/worker.py`` to completion and parse its last line."""
    command = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        *([] if requests is None else ["--requests", str(requests)]),
        *extra,
    ]  # fmt: skip
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(
    workload: str, seed: int, requests: Optional[int] = None, setup_samples: int = SETUP_SAMPLES
) -> dict:
    """The untraced run.  ``requests`` shrinks the workload for the smoke
    tests; every measurement runs the size fixed in ``perf/workloads.py``."""
    result = worker(workload, seed, requests)
    setups = [result["host"]["setup_s"]]
    while len(setups) < setup_samples:
        setups.append(worker(workload, seed, requests, "--setup-only")["setup_s"])
    result["host"]["setup_s"] = statistics.median(setups)
    result["setup_samples"] = len(setups)
    return result


def trace(
    workload: str, seed: int, base: dict, trace_out: Optional[str], requests: Optional[int] = None
) -> dict:
    """The layer-attributed run, set against the untraced ``base``."""
    extra = ["--traced"] + (["--trace-out", trace_out] if trace_out else [])
    traced = worker(workload, seed, requests, *extra)
    same = traced["virtual"] == base["virtual"] and traced["counts"] == base["counts"]
    layers = dict(traced["layers"])
    events = layers["sim.events_per_request"] * base["counts"]["sent"]
    layers["sim.events_per_host_s"] = events / base["host"]["host_cpu_s"]
    layers["harness.trace_overhead_ratio"] = (
        traced["host"]["host_cpu_s"] / base["host"]["host_cpu_s"]
    )
    layers["harness.wall_s"] = base["layers"]["harness.wall_s"]
    return {
        **traced,
        "layers": layers,
        "correct": traced["correct"] and same,
        "checks": {**traced["checks"], "virtual_same_as_untraced": same},
    }


def contract_line(spec: dict, result: dict, traced: bool) -> str:
    """The JSON object the driver reads from the last line of stdout."""
    values = result["layers"] if traced else {**result["host"], **result["virtual"]}
    listed = spec["per_layer"] if traced else spec["end_to_end"]
    counts = result["counts"]
    return json.dumps(
        {
            "correct": bool(result["correct"]),
            "attempted": counts["sent"],
            "failed": counts["failed"] + counts["refused"],
            "metrics": {
                m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in listed
            },
        }
    )


# -- printing ---------------------------------------------------------------


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True,
        )  # fmt: skip
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return done.stdout.strip()


def print_header(seed: int, env: Dict[str, object]) -> None:
    pins = " ".join(f"{k}={v}" for k, v in env.items() if k.endswith("_THREADS"))
    print(
        f"# perf: seed={seed} commit={git_commit()} nproc={env['nproc']} "
        f"python={env['python']} numpy={env['numpy']} {pins}"
    )


def print_result(spec: dict, result: dict, layers_only: bool = False) -> None:
    counts = result["counts"]
    name = result["workload"]
    if layers_only:
        print(f"\n== {name}: layers (traced run)")
    else:
        print(
            f"\n== {name}: sent {counts['sent']}  succeeded {counts['succeeded']}  "
            f"failed {counts['failed']}  refused {counts['refused']}  "
            f"met limits {counts['good']}  ({result['setup_samples']} set-up samples)"
        )
        notes = {
            "ttft_tail_ms": "p{request_tail} of {request_samples}, {request_tail_beyond} beyond",
            "latency_tail_ms": "p{request_tail} of {request_samples}, {request_tail_beyond} beyond",
            "itl_tail_ms": "p{itl_tail} of {itl_samples}, {itl_tail_beyond} beyond",
        }
        merged = {**result["host"], **result["virtual"]}
        for metric in end_to_end(spec):
            key = metric["name"]
            print(
                f"{key:<34}{merged[key]:>16.6f} {metric['unit']:<6} {clock_of(key):<8}"
                f"{notes.get(key, '').format(**counts)}"
            )
    for metric in spec["per_layer"]:
        key = metric["name"]
        if key in result["layers"]:
            print(f"{key:<34}{result['layers'][key]:>16.6f} {metric['unit']:<6} {clock_of(key)}")
    failed = [check for check, ok in result["checks"].items() if not ok]
    print(f"checks: {'ok' if not failed else 'FAILED ' + ', '.join(failed)}")
    if result["errors"]:
        print(f"errors seen: {result['errors']}")


# -- entry point ------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--workload", help="run one workload and end with the driver's JSON line")
    parser.add_argument("--seconds", type=float, help="the driver passes it; sizes are fixed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: with layers")
    parser.add_argument("--trace-out", help="write the traced runs' span records here (JSONL)")
    parser.add_argument("--out", help="directory for results.json (default: a fresh temp dir)")
    options = parser.parse_args(argv)

    spec = load_spec()
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perf: src/repro is missing: nothing to measure", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]

    if options.workload:
        if options.workload not in names:
            parser.error(f"unknown workload {options.workload!r}; have {names}")
        if options.trace:
            base = measure(options.workload, options.seed, setup_samples=1)
            result = trace(options.workload, options.seed, base, options.trace_out)
        else:
            result = measure(options.workload, options.seed)
        print_header(options.seed, result["env"])
        print_result(spec, result, layers_only=bool(options.trace))
        print(contract_line(spec, result, bool(options.trace)))
        return 0

    results, ok = {}, True
    for index, name in enumerate(names):
        result = measure(name, options.seed)
        if index == 0:
            print_header(options.seed, result["env"])
        print_result(spec, result)
        ok = ok and result["correct"]
        results[name] = {"untraced": result}
        if options.trace:
            out = f"{options.trace_out}.{name}" if options.trace_out else None
            traced = trace(name, options.seed, result, out)
            print_result(spec, traced, layers_only=True)
            ok = ok and traced["correct"]
            results[name]["traced"] = traced
    out_dir = options.out or tempfile.mkdtemp(prefix="perf-")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "results.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"seed": options.seed, "commit": git_commit(), "workloads": results}, handle, indent=1)
    print(f"\nresults written to {path}")
    print("correct" if ok else "INCORRECT: see the failed checks above")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
