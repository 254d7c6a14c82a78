"""Messaging: client channels, inter-inferlet pub/sub, and external I/O.

Three facilities back the control-layer communication APIs:

* :class:`ClientChannel` — the bidirectional mailbox between a launched
  inferlet and the client that launched it (``send`` / ``receive``).
* :class:`MessageBus` — topic-based broadcast/subscribe between inferlets
  (used by the Swarm agent workload).
* :class:`ExternalServices` — the simulated "internet": named endpoints with
  latency models and handler functions, reachable from inferlets via
  ``http_get`` / ``http_post`` *without* a client round trip (this is the
  R3 integration the paper's agentic workloads exploit).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import ClientError, ReproError
from repro.sim.futures import SimFuture
from repro.sim.latency import ConstantLatency, LatencyModel
from repro.sim.simulator import Simulator

#: Latency of an endpoint registered without its own, read when
#: :class:`ExternalServices` is built.
DEFAULT_LATENCY_MS = 50.0


class _Mailbox:
    """A FIFO of messages with future-based receives."""

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim
        self._messages: Deque[Any] = deque()
        self._waiters: Deque[SimFuture] = deque()

    def put(self, message: Any) -> None:
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.done():
                waiter.set_result(message)
                return
        self._messages.append(message)

    def get(self) -> SimFuture:
        future = self._sim.create_future(name="mailbox.get")
        if self._messages:
            future.set_result(self._messages.popleft())
        else:
            self._waiters.append(future)
        return future

    def try_get(self) -> Tuple[bool, Any]:
        if self._messages:
            return True, self._messages.popleft()
        return False, None


class ClientChannel:
    """Mailboxes between one inferlet and its launching client."""

    def __init__(self, sim: Simulator, inferlet_id: str) -> None:
        self.inferlet_id = inferlet_id
        self.to_client = _Mailbox(sim)
        self.to_inferlet = _Mailbox(sim)

    # Inferlet side.
    def send_to_client(self, message: Any) -> None:
        self.to_client.put(message)

    def receive_from_client(self) -> SimFuture:
        return self.to_inferlet.get()

    # Client side.
    def send_to_inferlet(self, message: Any) -> None:
        self.to_inferlet.put(message)

    def receive_from_inferlet(self) -> SimFuture:
        return self.to_client.get()

    def drain_client_messages(self) -> List[Any]:
        messages = []
        while True:
            ok, message = self.to_client.try_get()
            if not ok:
                return messages
            messages.append(message)


class MessageBus:
    """Topic-based broadcast/subscribe between inferlets."""

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim
        self._subscribers: Dict[str, Dict[str, _Mailbox]] = {}

    def subscribe(self, topic: str, subscriber_id: str) -> None:
        self._subscribers.setdefault(topic, {}).setdefault(subscriber_id, _Mailbox(self._sim))

    def unsubscribe(self, topic: str, subscriber_id: str) -> None:
        self._subscribers.get(topic, {}).pop(subscriber_id, None)

    def forget(self, subscriber_id: str) -> None:
        """Drop every mailbox of a subscriber that left the system."""
        for mailboxes in self._subscribers.values():
            mailboxes.pop(subscriber_id, None)

    def broadcast(self, topic: str, message: Any, sender_id: str) -> int:
        """Deliver to every subscriber except the sender; returns the count."""
        delivered = 0
        for subscriber_id, mailbox in self._subscribers.get(topic, {}).items():
            if subscriber_id == sender_id:
                continue
            mailbox.put({"topic": topic, "from": sender_id, "data": message})
            delivered += 1
        return delivered

    def next_message(self, topic: str, subscriber_id: str) -> SimFuture:
        try:
            mailbox = self._subscribers[topic][subscriber_id]
        except KeyError:
            raise ReproError(
                f"{subscriber_id!r} is not subscribed to topic {topic!r}"
            ) from None
        return mailbox.get()


@dataclass
class ExternalEndpoint:
    """A simulated external service reachable over HTTP."""

    url: str
    handler: Callable[[Any], Any]
    latency: LatencyModel
    calls: int = 0


class ExternalServices:
    """Registry of simulated external tools / web APIs."""

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim
        self._endpoints: Dict[str, ExternalEndpoint] = {}
        self._default_latency = ConstantLatency(DEFAULT_LATENCY_MS / 1e3)

    def register(
        self,
        url: str,
        handler: Callable[[Any], Any],
        latency: Optional[LatencyModel] = None,
    ) -> ExternalEndpoint:
        if url in self._endpoints:
            raise ReproError(f"endpoint {url!r} already registered")
        endpoint = ExternalEndpoint(
            url=url, handler=handler, latency=latency or self._default_latency
        )
        self._endpoints[url] = endpoint
        return endpoint

    def endpoint(self, url: str) -> ExternalEndpoint:
        try:
            return self._endpoints[url]
        except KeyError:
            raise ClientError(f"no such external endpoint: {url!r}") from None

    async def request(self, url: str, payload: Any = None) -> Any:
        """Perform one call: pay the endpoint latency, run its handler."""
        endpoint = self.endpoint(url)
        endpoint.calls += 1
        await self._sim.sleep(endpoint.latency.sample(self._sim.rng))
        return endpoint.handler(payload)

    def total_calls(self) -> int:
        return sum(endpoint.calls for endpoint in self._endpoints.values())
