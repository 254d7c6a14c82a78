"""Request/response types for the baseline serving systems."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set

from repro.errors import BaselineError

_request_ids = itertools.count(1)


@dataclass(frozen=True)
class SamplingConfig:
    """Sampling parameters attached to a generation request."""

    max_tokens: int = 32
    temperature: float = 0.0
    top_k: Optional[int] = None
    top_p: Optional[float] = None
    stop_strings: Sequence[str] = ()
    seed: int = 0
    # Constrained generation: a callable (generated_bytes -> allowed byte set),
    # used by the LMQL-like baseline and the engine's constrained mode.
    allowed_bytes_fn: Optional[object] = None

    def __post_init__(self) -> None:
        if self.max_tokens <= 0:
            raise BaselineError("max_tokens must be positive")
        if self.temperature < 0:
            raise BaselineError("temperature must be non-negative")


@dataclass
class GenerationRequest:
    """A prompt submitted to a baseline engine."""

    prompt: str
    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    request_id: int = field(default_factory=lambda: next(_request_ids))
    arrival_time: float = 0.0


@dataclass
class RequestOutput:
    """The engine's reply."""

    request_id: int
    prompt: str
    text: str
    token_ids: List[int]
    prompt_tokens: int
    cached_prompt_tokens: int
    finish_reason: str
    latency: float
    steps: int


@dataclass
class EngineStats:
    """Aggregate engine statistics for experiments."""

    requests_completed: int = 0
    total_output_tokens: int = 0
    total_prompt_tokens: int = 0
    total_cached_prompt_tokens: int = 0
    decode_steps: int = 0
    prefill_tokens_computed: int = 0
    batch_sizes: List[int] = field(default_factory=list)

    @property
    def mean_batch_size(self) -> float:
        if not self.batch_sizes:
            return 0.0
        return sum(self.batch_sizes) / len(self.batch_sizes)
