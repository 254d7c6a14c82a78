"""Simulated network links between clients, servers, and external tools.

The paper measures end-to-end latency from a remote client on a campus
network; for agentic workloads, the critical difference between Pie and the
baselines is whether each external interaction pays a client<->server round
trip.  :class:`NetworkLink` models a bidirectional link with a one-way
latency model, and keeps simple counters so that experiments can report how
many round trips each architecture paid.
"""

from __future__ import annotations

from typing import Any, Awaitable, Callable, Optional

from repro.sim.latency import ConstantLatency, LatencyModel
from repro.sim.simulator import Simulator


class NetworkLink:
    """A point-to-point link with symmetric one-way latency.

    ``request`` models a full round trip: the payload travels to the remote
    handler, the handler (an async callable) runs, and the response travels
    back.  Counters record traffic for experiment reporting.
    """

    def __init__(
        self,
        sim: Simulator,
        latency: Optional[LatencyModel] = None,
        name: str = "link",
        bytes_per_second: Optional[float] = None,
    ) -> None:
        self.sim = sim
        self.latency = latency if latency is not None else ConstantLatency(0.0)
        self.name = name
        # Optional bandwidth term: payloads additionally occupy the wire
        # for size/bandwidth seconds.  None models a latency-only link
        # (the pre-existing behaviour; message size then costs nothing).
        self.bytes_per_second = bytes_per_second
        self.messages_sent = 0
        self.round_trips = 0
        self.bytes_sent = 0
        # Total wire-occupancy time accumulated by reserve(); the telemetry
        # sampler turns deltas of this into a link busy fraction.
        self.busy_seconds = 0.0
        # Serialized-channel clock for reserve(): the virtual time until
        # which the wire is occupied by already reserved transfers.
        self._busy_until = 0.0

    @property
    def busy_until(self) -> float:
        """When the wire drains: the end of the last reserved slot."""
        return self._busy_until

    def one_way_delay(self) -> float:
        return self.latency.sample(self.sim.rng)

    def transfer_seconds(self, size_bytes: int) -> float:
        """Wire occupancy of one payload (bandwidth term only)."""
        if self.bytes_per_second is None or size_bytes <= 0:
            return 0.0
        return size_bytes / self.bytes_per_second

    async def send(self, payload: Any = None, size_bytes: int = 0) -> Any:
        """Deliver a payload after one one-way delay; returns the payload."""
        self.messages_sent += 1
        self.bytes_sent += size_bytes
        await self.sim.sleep(self.one_way_delay() + self.transfer_seconds(size_bytes))
        return payload

    def reserve(self, size_bytes: int, now: Optional[float] = None) -> float:
        """Reserve serialized wire time; returns the arrival timestamp.

        Models a FIFO channel without spawning tasks: each reservation
        starts when the previous one has drained (or now, if the wire is
        idle) and occupies the wire for its bandwidth time; the payload
        lands one propagation delay after its slot ends.  Deterministic
        arithmetic — the KV page mover (:mod:`repro.core.mover`) uses it
        to overlap transfers with the tail of a prefill while keeping
        run-to-run bit-identical timing.
        """
        if now is None:
            now = self.sim.now
        start = max(now, self._busy_until)
        self._busy_until = start + self.transfer_seconds(size_bytes)
        self.busy_seconds += self._busy_until - start
        self.messages_sent += 1
        self.bytes_sent += size_bytes
        return self._busy_until + self.one_way_delay()

    async def request(
        self,
        handler: Callable[[Any], Awaitable[Any]],
        payload: Any = None,
        size_bytes: int = 0,
    ) -> Any:
        """Round trip: send payload, run the remote handler, return its reply."""
        self.round_trips += 1
        await self.send(payload, size_bytes=size_bytes)
        result = await handler(payload)
        await self.send(result)
        return result

    def reset_counters(self) -> None:
        self.messages_sent = 0
        self.round_trips = 0
        self.bytes_sent = 0
        self.busy_seconds = 0.0
