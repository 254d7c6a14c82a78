"""Model registry: named models available to a serving system instance.

Both Pie (``available_models`` API) and the baselines resolve models through
a registry so experiments can host several model sizes behind one server.
Transformers are built lazily and cached — building the numpy weights is
cheap but not free, and many tests only need the registry metadata.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.errors import ReproError
from repro.model.config import ModelConfig, get_model_config
from repro.model.lora import LoraAdapter, LoraRegistry
from repro.model.tokenizer import ByteTokenizer
from repro.model.transformer import TinyTransformer


class ModelEntry:
    """A servable model: config + lazily constructed weights + tokenizer."""

    def __init__(self, config: ModelConfig) -> None:
        self.config = config
        self.tokenizer = ByteTokenizer(config.vocab_size)
        self.adapters = LoraRegistry()
        self._transformer: Optional[TinyTransformer] = None

    @property
    def name(self) -> str:
        return self.config.name

    @property
    def transformer(self) -> TinyTransformer:
        if self._transformer is None:
            self._transformer = TinyTransformer(self.config)
        return self._transformer

    def traits(self) -> List[str]:
        return list(self.config.traits)

    def supports_trait(self, trait: str) -> bool:
        return trait in self.config.traits

    def register_adapter(self, adapter: LoraAdapter) -> None:
        self.adapters.register(adapter)


class ModelRegistry:
    """Mapping of model name -> :class:`ModelEntry`."""

    def __init__(self, model_names: Optional[Iterable[str]] = None) -> None:
        self._entries: Dict[str, ModelEntry] = {}
        for name in model_names or []:
            self.add(name)

    def add(self, name: str, config: Optional[ModelConfig] = None) -> ModelEntry:
        if name in self._entries:
            raise ReproError(f"model {name!r} already registered")
        entry = ModelEntry(config or get_model_config(name))
        self._entries[name] = entry
        return entry

    def get(self, name: str) -> ModelEntry:
        try:
            return self._entries[name]
        except KeyError:
            raise ReproError(
                f"model {name!r} not hosted; available: {self.names()}"
            ) from None

    def names(self) -> List[str]:
        return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)
