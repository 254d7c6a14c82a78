"""Arm-by-arm comparison: one workload, run once under each named arm.

An *arm* is a label and the keyword overrides that distinguish it —
usually server configuration shorthands (``{"chunked_on":
{"chunked_prefill": True}}``).  Arms are data, so a new arm on an existing
workload (or a loop over seeds around the whole comparison) is an entry in
a dict, not another copy of the run/tabulate/compare skeleton.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping

from repro.bench.runners import ratio


@dataclass(frozen=True)
class Comparison:
    """What the workload read under each arm, in the order the arms ran."""

    #: ``{label: the workload's row}`` — what ``ExperimentResult.raw`` holds.
    raw: Dict[str, Dict[str, Any]]

    def rows(self, columns: Callable[[Dict[str, Any]], Dict[str, Any]]) -> List[Dict[str, Any]]:
        """One table row per arm: its label under ``config``, then ``columns(row)``."""
        return [{"config": label, **columns(row)} for label, row in self.raw.items()]

    def identical(self, first: str, second: str, *keys: str) -> bool:
        """Whether two arms read exactly the same value under every key
        (generated tokens, virtual elapsed time): the non-perturbation and
        same-seed-same-run checks."""
        return all(self.raw[first][key] == self.raw[second][key] for key in keys)

    def ratio(self, key: str, over: str, under: str) -> float:
        """One arm's reading relative to another's (a speedup, a share retained)."""
        return ratio(self.raw[over][key], self.raw[under][key])


def compare_arms(
    workload: Callable[..., Dict[str, Any]], arms: Mapping[str, Mapping[str, Any]]
) -> Comparison:
    """Run ``workload(**overrides)`` once per arm, in the order given."""
    return Comparison({label: workload(**overrides) for label, overrides in arms.items()})
