"""Untraced host-time profile: a ``SIGPROF`` sampler over ``src/repro``.

``perf/spans.py`` times every call of each layer's entry points, and that
costs most where spans are densest (``harness.trace_overhead_ratio``
1.18–1.41).  This is its untraced counterpart: the kernel's profiling timer
interrupts the process every ``interval_s`` of CPU time, and the sample goes to
the innermost frame of this package on the stack — numpy, being C or living
outside the package, is charged to the repo function that called it.  The
program runs unmodified; the handler runs between two bytecodes.

    with HostProfile() as profile:
        sim.run()
    print(profile.report())

``python -m repro.tools.host_profile --workload agent_fleet --seed 11``
profiles one ``perf/`` workload, by function (self and cumulative share of
the samples) and by layer.  A sample's layer is that of the nearest frame in
a file one layer owns (``LAYER_OF``); shared files (``gpu/memory.py``,
``model/sampling.py``, ...) count for whoever called them, which is how the
spans of ``perf/`` divide the time too.

One function often does two jobs the profile should tell apart — a decode
row's attention and a prompt's.  ``--split QUALNAME=EXPR`` (or
``HostProfile(split={QUALNAME: EXPR})``) evaluates ``EXPR`` over the locals
of a charged ``QUALNAME`` frame and appends the value to its label:

    --split "TinyTransformer._attention=('decode' if q.shape[0] == 1 else 'multi-token', layer_index)"
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from collections import Counter
from pathlib import Path
from typing import List, Mapping, Optional

PACKAGE = str(Path(__file__).resolve().parents[1]) + os.sep

#: File (or directory) under ``src/repro`` -> the layer of ``perf/spec.py``
#: that owns it; the first matching prefix wins.
LAYER_OF = (
    ("sim/", "sim"),
    ("core/lifecycle.py", "lifecycle"),
    ("core/api.py", "inferlet"),
    ("support/", "inferlet"),
    ("inferlets/", "inferlet"),
    ("core/controller.py", "controller"),
    ("core/router.py", "router"),
    ("core/scheduler.py", "scheduler"),
    ("core/batching.py", "scheduler"),
    ("core/command_queue.py", "scheduler"),
    ("core/resources.py", "resources"),
    ("core/prefix_cache.py", "prefix_cache"),
    ("core/handlers.py", "handlers"),
    ("model/transformer.py", "model"),
    ("gpu/device.py", "device"),
)
OUTSIDE = ("(outside src/repro)", "")


class HostProfile:
    """Samples the main thread every ``interval_s`` of process CPU time.

    ``split`` maps a function's qualified name to an expression over its
    locals: a sample charged to that function is labelled ``name [value]`` —
    ``name [?]`` if the expression raises there.
    """

    def __init__(
        self, interval_s: float = 0.0005, split: Optional[Mapping[str, str]] = None
    ) -> None:
        self.interval_s = interval_s
        self.split = {
            name: compile(expression, f"<split {name}>", "eval")
            for name, expression in (split or {}).items()
        }
        self.samples = 0
        #: (file under src/repro, function) -> samples with it innermost / on the stack
        self.self_samples: Counter = Counter()
        self.cumulative: Counter = Counter()
        self.layers: Counter = Counter()

    def __enter__(self) -> "HostProfile":
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    def _sample(self, _signum, frame) -> None:
        self.samples += 1
        innermost, layer, seen = None, None, set()
        while frame is not None:
            code = frame.f_code
            if code.co_filename.startswith(PACKAGE):
                key = (code.co_filename[len(PACKAGE) :], code.co_qualname)
                if innermost is None:
                    innermost = key = self._labelled(key, frame)
                layer = layer or next((la for pre, la in LAYER_OF if key[0].startswith(pre)), None)
                seen.add(key)
            frame = frame.f_back
        self.self_samples[innermost or OUTSIDE] += 1
        self.cumulative.update(seen)
        self.layers[layer or "other"] += 1

    def _labelled(self, key, frame):
        expression = self.split.get(key[1])
        if expression is None:
            return key
        try:
            value = eval(expression, frame.f_globals, frame.f_locals)  # noqa: S307
        except Exception:  # noqa: BLE001 - a sample without a label, not a dead run
            value = "?"
        return (key[0], f"{key[1]} [{value}]")

    def share(self, function: str, cumulative: bool = True) -> float:
        """Share of the samples with ``function`` (its qualified name, or one
        ``name [value]`` label of a split function) on the stack — or, with
        ``cumulative=False``, innermost."""
        counts = self.cumulative if cumulative else self.self_samples
        hits = sum(
            n
            for (_, name), n in counts.items()
            if name == function or name.startswith(function + " [")
        )
        return hits / max(1, self.samples)

    def report(self, top: int = 25) -> str:
        total = max(1, self.samples)
        asked = f"{self.interval_s * 1e3:g} ms of CPU time asked for, the kernel's tick permitting"
        lines = [f"{self.samples} samples (one per {asked})", ""]
        lines.append(f"{'layer':<14}{'self %':>8}")
        lines += [f"{la:<14}{100 * n / total:>8.1f}" for la, n in self.layers.most_common()]
        lines += ["", f"{'self %':>8}{'cum %':>8}  function"]
        for key, count in self.self_samples.most_common(top):
            cumulative = 100 * self.cumulative[key] / total
            lines.append(f"{100 * count / total:>8.1f}{cumulative:>8.1f}  {key[1]}  {key[0]}")
        lines += ["", f"{'cum %':>8}  function (by cumulative share)"]
        for key, count in self.cumulative.most_common(top):
            lines.append(f"{100 * count / total:>8.1f}  {key[1]}  {key[0]}")
        return "\n".join(lines)


def profile_workload(
    name: str,
    seed: int,
    requests: Optional[int] = None,
    split: Optional[Mapping[str, str]] = None,
) -> HostProfile:
    """One ``perf/`` workload, set up as ``perf/worker.py`` sets it up, with
    the timed section under the sampler."""
    from perf import workloads

    workload = workloads.WORKLOADS[name]
    generated = workload.build(seed, requests or workload.size)
    workloads.run_warmup(workload, generated)
    sim, server = workloads.make_server(workload, seed)
    run_all, outcomes = workloads.drive(sim, server, workload, generated)
    with HostProfile(split=split) as profile:
        sim.run_until_complete(run_all())
        sim.run()
    failed = [outcome for outcome in outcomes if outcome.state != "succeeded"]
    if failed:
        raise RuntimeError(f"{len(failed)} of {len(outcomes)} requests did not succeed")
    return profile


def _split_argument(text: str):
    name, _, expression = text.partition("=")
    if not (name and expression):
        raise argparse.ArgumentTypeError(f"expected QUALNAME=EXPR, not {text!r}")
    return name, expression


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--requests", type=int, help="fewer than the workload's size (smoke)")
    parser.add_argument("--top", type=int, default=25, help="functions listed per table")
    parser.add_argument(
        "--split",
        action="append",
        default=[],
        type=_split_argument,
        metavar="QUALNAME=EXPR",
        help="label samples charged to QUALNAME with EXPR, evaluated over its locals",
    )
    options = parser.parse_args(argv)
    # As perf/worker.py, and before numpy loads: the timer counts the CPU
    # time of every thread, and an unpinned BLAS spins a second one.
    for pin in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[pin] = "1"
    sys.path.insert(0, str(Path(PACKAGE).parents[1]))  # the repo root, for ``perf``
    profile = profile_workload(options.workload, options.seed, options.requests, dict(options.split))
    print(f"{options.workload} seed {options.seed}: " + profile.report(options.top))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
