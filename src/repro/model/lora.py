"""LoRA adapters for ``forward_with_adapter``.

The paper's forward API accepts optional LoRA adapters so fine-tuned models
can be served without materialising new weights.  The adapter holds low-rank
factors per layer applied to the query projection (enough to make adapter
use observable in tests without replicating a full fine-tuning stack).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.errors import ReproError
from repro.model.config import ModelConfig

#: The factors' inner dimension and the delta's scale, read when a
#: :class:`LoraAdapter` is built.
LORA_RANK = 4
LORA_ALPHA = 1.0


class LoraAdapter:
    """A named low-rank adapter over the query projections."""

    def __init__(self, name: str, config: ModelConfig, seed: int = 0) -> None:
        rank = LORA_RANK
        if rank <= 0:
            raise ReproError("LoRA rank must be positive")
        self.name = name
        self.rank = rank
        self.alpha = LORA_ALPHA
        rng = np.random.default_rng(seed)
        d = config.d_model
        self._down: List[np.ndarray] = []
        self._up: List[np.ndarray] = []
        for _ in range(config.n_layers):
            self._down.append(rng.normal(0.0, 0.02, size=(d, rank)).astype(np.float32))
            self._up.append(rng.normal(0.0, 0.02, size=(rank, d)).astype(np.float32))

    def apply_to_query(self, wq: np.ndarray, layer_index: int) -> np.ndarray:
        """Return the adapted query projection ``Wq + alpha * A @ B``."""
        if not 0 <= layer_index < len(self._down):
            raise ReproError(f"LoRA adapter has no layer {layer_index}")
        delta = self._down[layer_index] @ self._up[layer_index]
        return wq + self.alpha * delta

    @property
    def parameter_count(self) -> int:
        return sum(a.size + b.size for a, b in zip(self._down, self._up))


class LoraRegistry:
    """Registry of adapters available to ``forward_with_adapter`` calls."""

    def __init__(self) -> None:
        self._adapters: Dict[str, LoraAdapter] = {}

    def register(self, adapter: LoraAdapter) -> None:
        if adapter.name in self._adapters:
            raise ReproError(f"adapter {adapter.name!r} already registered")
        self._adapters[adapter.name] = adapter

    def get(self, name: str) -> LoraAdapter:
        try:
            return self._adapters[name]
        except KeyError:
            raise ReproError(f"unknown LoRA adapter {name!r}") from None

    def names(self) -> List[str]:
        return sorted(self._adapters)

    def __contains__(self, name: str) -> bool:
        return name in self._adapters
