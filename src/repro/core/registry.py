"""Typed metric registry: counters, gauges and log-bucketed histograms.

``SystemMetrics`` and friends are plain dataclass counters, and they stay
the store: the live monitoring plane (:mod:`repro.core.monitor`) keeps no
registry, and publishes the dataclass counters through a throw-away one
when an export is asked for.  This module supplies the pieces:

* :class:`LogHistogram` — a deterministic log-bucketed histogram: bucket
  boundaries are a pure function of ``(lo, hi, growth)``, so the same
  samples produce identical bucket counts on every run and merging two
  histograms is plain addition of sparse count dicts.  The default growth
  of ``2 ** (1/8)`` (~9% bucket width) keeps reported percentiles within
  one bucket of the exact nearest-rank :func:`repro.core.metrics.percentile`.
  ``sum``/``total`` are exact, so means lose nothing to bucketing.
* :class:`CounterFamily` / :class:`GaugeFamily` / :class:`HistogramFamily`
  — named metric families whose children are addressed by label values
  (``family.labels(tenant="acme").inc()``), Prometheus-style.
* :class:`MetricRegistry` — the collection: get-or-create families,
  Prometheus text exposition and a JSON document.

Everything here is plain-Python bookkeeping on the caller's thread: no
timers, no simulator access, no RNG — observing a value can never perturb
the simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.errors import ReproError

__all__ = [
    "LogHistogram",
    "latency_histogram",
    "size_histogram",
    "CounterFamily",
    "GaugeFamily",
    "HistogramFamily",
    "MetricRegistry",
]

#: Default latency histogram range: 100 microseconds to 1000 seconds of
#: virtual time, ~9% wide buckets (187 of them, held sparsely).
DEFAULT_LATENCY_LO = 1e-4
DEFAULT_LATENCY_HI = 1e3
DEFAULT_GROWTH = 2.0 ** 0.125


@dataclass
class LogHistogram:
    """A bounded, mergeable, deterministically-bucketed histogram.

    Bucket ``0`` is the underflow bucket (``value <= lo``); buckets ``1..n``
    cover ``(lo * growth**(i-1), lo * growth**i]``; bucket ``n + 1`` is the
    overflow bucket (``value > hi``).  Counts are held sparsely, so an
    instance costs O(distinct buckets), not O(range).

    All fields are plain comparable builtins on purpose: the determinism
    suite compares whole metric trees via ``dataclasses.asdict``, and two
    histograms fed the same samples must compare equal.
    """

    lo: float = DEFAULT_LATENCY_LO
    hi: float = DEFAULT_LATENCY_HI
    growth: float = DEFAULT_GROWTH
    counts: Dict[int, int] = field(default_factory=dict)
    total: int = 0
    sum: float = 0.0

    def __post_init__(self) -> None:
        if self.lo <= 0:
            raise ReproError("histogram lo bound must be positive")
        if self.hi <= self.lo:
            raise ReproError("histogram hi bound must exceed lo")
        if self.growth <= 1.0:
            raise ReproError("histogram bucket growth must exceed 1.0")

    @property
    def n_buckets(self) -> int:
        """Number of finite buckets between ``lo`` and ``hi``."""
        span = math.log(self.hi / self.lo) / math.log(self.growth)
        return max(1, int(math.ceil(span - 1e-9)))

    def bucket_index(self, value: float) -> int:
        if value <= self.lo:
            return 0
        if value > self.hi:
            return self.n_buckets + 1
        index = 1 + int(math.log(value / self.lo) / math.log(self.growth))
        return min(index, self.n_buckets)

    def upper_bound(self, index: int) -> float:
        """Inclusive upper edge of a bucket (``inf`` for the overflow)."""
        if index <= 0:
            return self.lo
        if index > self.n_buckets:
            return math.inf
        return self.lo * self.growth ** index

    def observe(self, value: float, count: int = 1) -> None:
        if count <= 0:
            return
        value = float(value)
        index = self.bucket_index(value)
        self.counts[index] = self.counts.get(index, 0) + count
        self.total += count
        self.sum += value * count

    @property
    def mean(self) -> float:
        """Exact mean (``sum``/``total`` are kept outside the buckets)."""
        return self.sum / self.total if self.total else 0.0

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile, resolved to the bucket's upper edge.

        Within one bucket (a factor of ``growth``) of the exact
        nearest-rank value; the overflow bucket reports ``hi``.
        """
        if not self.total:
            return 0.0
        rank = max(1, math.ceil(p / 100.0 * self.total))
        rank = min(rank, self.total)
        seen = 0
        for index in sorted(self.counts):
            seen += self.counts[index]
            if seen >= rank:
                if index > self.n_buckets:
                    return self.hi
                return self.upper_bound(index)
        return self.hi

    def compatible_with(self, other: "LogHistogram") -> bool:
        return (
            self.lo == other.lo
            and self.hi == other.hi
            and self.growth == other.growth
        )

    def merge(self, other: "LogHistogram") -> "LogHistogram":
        """Add another histogram's counts into this one (associative)."""
        if not self.compatible_with(other):
            raise ReproError(
                "cannot merge histograms with different bucket layouts: "
                f"({self.lo}, {self.hi}, {self.growth}) vs "
                f"({other.lo}, {other.hi}, {other.growth})"
            )
        for index, count in other.counts.items():
            self.counts[index] = self.counts.get(index, 0) + count
        self.total += other.total
        self.sum += other.sum
        return self

    def copy(self) -> "LogHistogram":
        return LogHistogram(
            lo=self.lo,
            hi=self.hi,
            growth=self.growth,
            counts=dict(self.counts),
            total=self.total,
            sum=self.sum,
        )

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """Non-empty ``(upper_edge, cumulative_count)`` pairs, ascending."""
        pairs: List[Tuple[float, int]] = []
        seen = 0
        for index in sorted(self.counts):
            seen += self.counts[index]
            pairs.append((self.upper_bound(index), seen))
        return pairs

    def to_dict(self) -> dict:
        buckets: Dict[str, int] = {}
        seen = 0
        for index in sorted(self.counts):
            seen += self.counts[index]
            key = "+Inf" if index > self.n_buckets else f"{self.upper_bound(index):.9g}"
            buckets[key] = seen
        return {"buckets": buckets, "count": self.total, "sum": self.sum}


def latency_histogram() -> LogHistogram:
    """The standard latency histogram (100 us .. 1000 s, ~9% buckets)."""
    return LogHistogram()


def size_histogram(hi: float = 8192.0) -> LogHistogram:
    """A histogram for small integer sizes (batch rows, pages, tokens)."""
    return LogHistogram(lo=1.0, hi=hi)


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(labelnames: Sequence[str], labelvalues: Sequence[str]) -> str:
    if not labelnames:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in zip(labelnames, labelvalues)
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class _Child:
    """One labelled instance of a family."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def set(self, value: float) -> None:
        self.value = float(value)


class _Family:
    """Base: a named metric with a fixed label schema and typed children."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: Sequence[str]) -> None:
        if not name or not name.replace("_", "a").replace(":", "a").isalnum():
            raise ReproError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._children: Dict[Tuple[str, ...], object] = {}

    def _make_child(self):
        return _Child()

    def labels(self, **labelvalues):
        if set(labelvalues) != set(self.labelnames):
            raise ReproError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}"
            )
        key = tuple(str(labelvalues[name]) for name in self.labelnames)
        child = self._children.get(key)
        if child is None:
            child = self._make_child()
            self._children[key] = child
        return child

    def samples(self) -> Iterator[Tuple[Tuple[str, ...], object]]:
        """``(labelvalues, child)`` pairs in insertion order."""
        return iter(self._children.items())

    def schema_matches(self, kind: str, labelnames: Sequence[str]) -> bool:
        return self.kind == kind and self.labelnames == tuple(labelnames)


class CounterFamily(_Family):
    """Monotone counters (``inc`` only, by convention: the child type is
    shared with gauges)."""

    kind = "counter"


class GaugeFamily(_Family):
    """Point-in-time values (occupancy, queue depth, alert state)."""

    kind = "gauge"


class HistogramFamily(_Family):
    """Labelled latency distributions (:func:`latency_histogram` children)."""

    kind = "histogram"

    def _make_child(self) -> LogHistogram:
        return latency_histogram()


class MetricRegistry:
    """A collection of metric families, exportable in two formats.

    ``counter``/``gauge``/``histogram`` are get-or-create: asking twice for
    the same name with the same schema returns the same family; asking with
    a different schema raises (one name, one meaning).
    """

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}

    # -- family construction ------------------------------------------------

    def _get_or_create(self, cls, name: str, help: str, labelnames):
        family = self._families.get(name)
        if family is not None:
            if not family.schema_matches(cls.kind, labelnames):
                raise ReproError(
                    f"metric {name!r} already registered as {family.kind} "
                    f"with labels {family.labelnames}"
                )
            return family
        family = cls(name, help=help, labelnames=labelnames)
        self._families[name] = family
        return family

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> CounterFamily:
        return self._get_or_create(CounterFamily, name, help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> GaugeFamily:
        return self._get_or_create(GaugeFamily, name, help, labelnames)

    def histogram(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> HistogramFamily:
        return self._get_or_create(HistogramFamily, name, help, labelnames)

    def families(self) -> List[_Family]:
        return [self._families[name] for name in sorted(self._families)]

    # -- exporters ----------------------------------------------------------

    def to_prometheus(self) -> str:
        """Prometheus text exposition (v0.0.4).

        Histograms emit cumulative ``_bucket{le=...}`` rows for non-empty
        buckets plus the mandatory ``+Inf`` row, then ``_sum`` and
        ``_count``; empty buckets are elided to keep the page proportional
        to observed spread, not to the bucket layout.
        """
        lines: List[str] = []
        for family in self.families():
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            if family.kind == "histogram":
                for labelvalues, hist in family.samples():
                    base = dict(zip(family.labelnames, labelvalues))
                    cumulative = 0
                    for upper, cum in hist.cumulative_buckets():
                        cumulative = cum
                        labels = _format_labels(
                            tuple(family.labelnames) + ("le",),
                            tuple(labelvalues) + (_format_value(upper),),
                        )
                        lines.append(f"{family.name}_bucket{labels} {cum}")
                    inf_labels = _format_labels(
                        tuple(family.labelnames) + ("le",),
                        tuple(labelvalues) + ("+Inf",),
                    )
                    lines.append(f"{family.name}_bucket{inf_labels} {hist.total}")
                    plain = _format_labels(family.labelnames, labelvalues)
                    lines.append(f"{family.name}_sum{plain} {repr(hist.sum)}")
                    lines.append(f"{family.name}_count{plain} {hist.total}")
            else:
                for labelvalues, child in family.samples():
                    labels = _format_labels(family.labelnames, labelvalues)
                    lines.append(
                        f"{family.name}{labels} {_format_value(child.value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def to_dict(self) -> dict:
        """JSON-ready document mirroring the exposition content."""
        document: Dict[str, dict] = {}
        for family in self.families():
            samples = []
            for labelvalues, child in family.samples():
                labels = dict(zip(family.labelnames, labelvalues))
                if family.kind == "histogram":
                    samples.append({"labels": labels, **child.to_dict()})
                else:
                    samples.append({"labels": labels, "value": child.value})
            document[family.name] = {
                "type": family.kind,
                "help": family.help,
                "samples": samples,
            }
        return document
