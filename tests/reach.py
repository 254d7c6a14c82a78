"""Which functions under ``src/repro`` does something a user runs enter?

    PYTHONPATH=src:. python -m tests.reach

A user run is each experiment's quick run (every
``repro.bench.experiments`` module's ``run(quick=True)``, called directly),
the scripts under ``examples/`` and the four ``perf/`` workloads, untraced
and traced, through the benchmark's own worker at :data:`PERF_REQUESTS`
requests each.  A profile hook records every function entered.

A function under ``core/`` or ``sim/`` that no run enters needs a
``REACH_LEDGER`` row in ``tests/test_config_ledger.py`` saying why it stays,
unless the rule exempts it (:func:`exempt`).  A row for a function a run
enters is stale.  Either fails the run (exit status 1).  It prints, as
Markdown, the unreached functions per package, the rows per reason and the
lines of ``src/repro``.  It writes no file outside a temporary directory.

Not collected by pytest: it takes minutes.  CI's ``reachability`` job runs it.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import os
import pathlib
import pkgutil
import runpy
import sys
import tempfile
from collections import Counter
from typing import Callable, Dict, Iterator, List, Set, Tuple

# Nothing of ``repro`` is imported before the hook is on: a call made while
# a module is imported is made by the run that imports it.
ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
#: Packages the ledger binds; every other package (and top-level module)
#: under ``src/repro`` is reported only.
GATED = ("core", "sim")
#: Requests per ``perf/`` workload: together, untraced and traced, the four
#: enter the same functions as at full size (checked on seed 11 when this
#: number was chosen).
PERF_REQUESTS = 60
PERF_SEED = 11


def user_runs() -> Iterator[Tuple[str, Callable[[], object]]]:
    """``(label, run)`` for everything a user runs."""
    from repro.bench import experiments

    for info in pkgutil.iter_modules(experiments.__path__):
        module = importlib.import_module(f"{experiments.__name__}.{info.name}")
        yield f"experiment {info.name}", lambda module=module: module.run(quick=True)
    for script in sorted((ROOT / "examples").glob("*.py")):
        yield f"example {script.stem}", lambda script=script: _example(script)
    from perf import worker
    from perf.workloads import WORKLOADS

    for name in WORKLOADS:
        for traced in ((), ("--traced",)):
            argv = ["--workload", name, "--seed", str(PERF_SEED)]
            argv += ["--requests", str(PERF_REQUESTS), *traced]
            yield f"perf {name} {' '.join(traced)}", lambda argv=argv: worker.main(argv)


def _example(script) -> None:
    # The examples write their exports to the working directory.
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            runpy.run_path(str(script), run_name="__main__")
        finally:
            os.chdir(here)


def entered(runs) -> Set[Tuple[str, int]]:
    """``(file, first line)`` of every code object a run enters."""
    codes: Dict[int, object] = {}

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            codes[id(code)] = code  # held, so no id is reused

    sys.setprofile(hook)
    try:
        for label, run in runs:
            print(f"running {label}", file=sys.stderr, flush=True)
            with contextlib.redirect_stdout(io.StringIO()):
                run()
    finally:
        sys.setprofile(None)
    return {(code.co_filename, code.co_firstlineno) for code in codes.values()}


def exempt(name: str) -> bool:
    """Unreached without a row: a Pie API call (a name in ``traits.TRAITS``),
    a no-op of the ``LifecycleObserver`` base, a ``__repr__``."""
    from repro.core.traits import ALL_APIS

    method = name.rsplit("::", 1)[1].rsplit(".", 1)[-1]
    return (
        method in ALL_APIS
        or method == "__repr__"
        or name.startswith("core/inferlet.py::LifecycleObserver.")
    )


def package(name: str) -> str:
    """``core`` for ``core/api.py::...``; a top-level module is its own."""
    return name.split("::", 1)[0].split("/", 1)[0]


def summary(functions, missed: List[str], ledger: Dict[str, str]) -> Tuple[str, bool]:
    """The Markdown report, and whether the ledger holds: no gated function
    missed without a row, no row for a function a run entered."""
    gated = [name for name in missed if package(name) in GATED]
    unledgered = [name for name in gated if name not in ledger and not exempt(name)]
    stale = [name for name in ledger if name not in missed]
    defined = Counter(package(name) for name in functions)
    out = ["### Reachability of src/repro from user runs", ""]
    out += ["| package | functions | unreached | unreached lines |", "|---|---|---|---|"]
    for each in sorted(defined):
        names = [name for name in missed if package(name) == each]
        lines = sum(functions[name][2] for name in names)
        out.append(f"| {each} | {defined[each]} | {len(names)} | {lines} |")
    exempted = sum(exempt(name) for name in gated)
    out += ["", f"Exempt by rule (API call, observer no-op, `__repr__`): {exempted}", ""]
    out += ["| REACH_LEDGER reason | rows |", "|---|---|"]
    reasons = Counter(reason.split(":", 1)[0] for reason in ledger.values())
    out += [f"| {reason} | {count} |" for reason, count in sorted(reasons.items())]
    total = sum(len(path.read_text(encoding="utf-8").splitlines()) for path in SRC.rglob("*.py"))
    out += ["", f"Lines of src/repro: {total}", ""]
    out.append(f"Unreached `core/` / `sim/` functions without a row: {len(unledgered)}")
    out += [f"- `{name}`" for name in unledgered]
    out.append(f"Stale rows (the function is reached or gone): {len(stale)}")
    out += [f"- `{name}`" for name in stale]
    return "\n".join(out), not unledgered and not stale


def main() -> int:
    reached = entered(user_runs())
    from tests.test_config_ledger import REACH_LEDGER, defined_functions

    functions = defined_functions()
    missed = [
        name
        for name, (path, first, _) in functions.items()
        if (str(SRC / path), first) not in reached
    ]
    report, holds = summary(functions, missed, REACH_LEDGER)
    print(report)
    return 0 if holds else 1


if __name__ == "__main__":
    sys.exit(main())
