"""Opaque resource handles exposed to inferlets.

Handles are *virtual*: each inferlet sees its own resource address space,
and the control layer maintains the virtual-to-physical mapping
(:mod:`repro.core.resources`).  Handles are deliberately tiny value objects
— inferlets pass them around, slice lists of them, and hand them back to
API calls, exactly as the paper's examples do.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class KvPage:
    """A virtual handle to one KV-cache page (a contiguous chunk of tokens)."""

    vid: int
    owner: str
    page_size: int
    model: str = ""

    def __repr__(self) -> str:
        return f"KvPage(vid={self.vid}, owner={self.owner!r}, model={self.model!r})"


@dataclass(frozen=True)
class Embed:
    """A virtual handle to one embedding slot (a single token embedding)."""

    vid: int
    owner: str
    model: str = ""

    def __repr__(self) -> str:
        return f"Embed(vid={self.vid}, owner={self.owner!r}, model={self.model!r})"


@dataclass
class Queue:
    """A command queue handle.

    Commands on a queue take effect in issue order: two that touch the same
    page or slot run in that order, and independent ones may share a batch.
    The batch scheduler merges same-kind commands of one queue (vertical
    batching) and commands from different queues (horizontal batching).
    """

    qid: int
    owner: str
    model: str
    priority: int = 0

    def __hash__(self) -> int:
        return hash((self.owner, self.qid))

    def __repr__(self) -> str:
        return f"Queue(qid={self.qid}, model={self.model!r}, priority={self.priority})"
