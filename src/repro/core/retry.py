"""Deterministic retry with exponential backoff (the chaos plane's cure).

One :class:`RetryPolicy` per controller, built only when the chaos plane
is on (``ControlLayerConfig.faults``).  Backoff delays are
``base * multiplier^attempt`` capped at ``max_backoff``, with
multiplicative jitter drawn from the policy's **own** seeded
``np.random.default_rng`` stream — retries consume nothing from the
simulator's generator, so a chaos run replays bit-identically.

Two guards bound the damage a persistent fault can do:

* an **attempt cap** (``max_attempts`` total tries per operation), and
* a **per-class budget** (total retries granted per class per run —
  ``"tool"`` for faulted tool calls, ``"handoff"`` for refused
  disaggregation handoffs); once a class's budget is spent, operations
  in it fail fast instead of backing off.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from repro.errors import FaultInjectedError, RetriesExhaustedError
from repro.sim.faults import FaultInjector

__all__ = ["RetryPolicy", "faulty_request"]


#: What a :class:`RetryPolicy` built without an argument falls back to,
#: looked up when the policy is built: the attempt cap, the backoff's base
#: / growth / cap (seconds), the jitter band and the per-class budget.
MAX_ATTEMPTS = 3
BASE_S = 0.010
MULTIPLIER = 2.0
MAX_BACKOFF_S = 1.0
JITTER = 0.1
BUDGET = 1_000


class RetryPolicy:
    """Deterministic exponential backoff with seeded jitter and budgets."""

    def __init__(
        self,
        max_attempts: Optional[int] = None,
        base_s: Optional[float] = None,
        multiplier: Optional[float] = None,
        max_backoff_s: Optional[float] = None,
        jitter: Optional[float] = None,
        budget: Optional[int] = None,
        seed: int = 0,
    ) -> None:
        self.max_attempts = MAX_ATTEMPTS if max_attempts is None else max_attempts
        self.base_s = BASE_S if base_s is None else base_s
        self.multiplier = MULTIPLIER if multiplier is None else multiplier
        self.max_backoff_s = MAX_BACKOFF_S if max_backoff_s is None else max_backoff_s
        self.jitter = JITTER if jitter is None else jitter
        self.budget = BUDGET if budget is None else budget
        # Private stream: backoff jitter must not perturb the workload rng.
        self.rng = np.random.default_rng(seed)
        self._spent: Dict[str, int] = {}
        # Run totals, readable by tests and the bench harness.
        self.retries_granted = 0
        self.retries_denied = 0

    def spent(self, klass: str) -> int:
        """Retries already granted to ``klass`` this run."""
        return self._spent.get(klass, 0)

    def backoff(self, attempt: int, klass: str = "default") -> Optional[float]:
        """Delay (seconds) before retry number ``attempt + 1``, or None.

        ``attempt`` counts retries already made for this operation (0 on
        the first failure).  Returns ``None`` — give up — once the
        operation's attempt cap is reached or the class budget is spent;
        otherwise charges the budget and returns the jittered delay.
        """
        if attempt + 1 >= self.max_attempts or self.spent(klass) >= self.budget:
            self.retries_denied += 1
            return None
        self._spent[klass] = self.spent(klass) + 1
        self.retries_granted += 1
        delay = min(self.base_s * (self.multiplier ** attempt), self.max_backoff_s)
        if self.jitter > 0.0:
            delay *= 1.0 + self.jitter * float(self.rng.uniform(-1.0, 1.0))
        return delay

    def charge(
        self, attempt: int, op: str, metrics, trace, now: float, inferlet=None, **span_args
    ) -> Optional[float]:
        """:meth:`backoff` for an ``op`` (``"tool"`` | ``"handoff"``), with
        the answer accounted: ``retries_exhausted`` on a refusal; on a
        grant ``<op>_retries``, ``retry_backoff_seconds`` and — traced —
        the ``retry_backoff`` span covering the wait."""
        delay = self.backoff(attempt, op)
        if delay is None:
            metrics.retries_exhausted += 1
            return None
        if op == "tool":
            metrics.tool_retries += 1
        else:
            metrics.handoff_retries += 1
        metrics.retry_backoff_seconds += delay
        if trace is not None:
            trace.complete(
                "retry_backoff",
                "fault",
                now,
                end=now + delay,
                inferlet=inferlet,
                args={"op": op, **span_args, "attempt": attempt + 1, "delay": delay},
            )
        return delay


async def faulty_request(controller, url: str, payload: Any, instance=None) -> Any:
    """Tool call under the chaos plane: fault windows, backoff, retry.

    Each attempt consults the injector's open tool-fault windows; a hit
    burns the timeout wait (``tool_timeout`` flavour), then the retry
    policy decides between a jittered backoff and giving up with
    :class:`RetriesExhaustedError` chained onto the injected fault.
    """
    sim, metrics, trace = controller.sim, controller.metrics, controller.trace
    owner = None if instance is None else instance.instance_id
    attempts = 0
    while True:
        kind = controller.faults.tool_fault(url, sim.now)
        if kind is None:
            return await controller.external.request(url, payload)
        metrics.tool_faults += 1
        if trace is not None:
            trace.instant(
                f"fault_{kind}_hit",
                "fault",
                args={"url": url, "attempt": attempts + 1},
            )
        if kind == "tool_timeout":
            await sim.sleep(FaultInjector.TOOL_TIMEOUT_S)
        delay = controller.retry.charge(
            attempts, "tool", metrics, trace, sim.now, inferlet=owner, url=url
        )
        if delay is None:
            raise RetriesExhaustedError(
                f"tool call to {url} failed after {attempts + 1} attempts "
                f"(injected {kind})",
                attempts=attempts + 1,
            ) from FaultInjectedError(
                f"tool call to {url} failed (injected {kind})", kind=kind
            )
        attempts += 1
        await sim.sleep(delay)
