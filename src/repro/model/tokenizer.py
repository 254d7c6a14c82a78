"""Byte-level tokenizer.

A deterministic tokenizer with a fixed 259-entry vocabulary: the 256 byte
values plus BOS/EOS/PAD specials.  Byte-level tokenization keeps the
substrate simple while still exercising everything the serving system cares
about (variable-length prompts, detokenization, grammar-constrained masks
over the vocabulary, stop sequences).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from repro.errors import ReproError


class ByteTokenizer:
    """Tokenizer mapping text to byte values with BOS/EOS/PAD specials."""

    BOS_TOKEN = 256
    EOS_TOKEN = 257
    PAD_TOKEN = 258

    def __init__(self, vocab_size: int = 259) -> None:
        if vocab_size < 259:
            raise ReproError("ByteTokenizer requires a vocabulary of at least 259")
        self.vocab_size = vocab_size

    # -- encoding ----------------------------------------------------------

    def encode(self, text: str, add_bos: bool = False, add_eos: bool = False) -> List[int]:
        """Encode text into token ids (UTF-8 bytes)."""
        tokens: List[int] = []
        if add_bos:
            tokens.append(self.BOS_TOKEN)
        tokens.extend(text.encode("utf-8"))
        if add_eos:
            tokens.append(self.EOS_TOKEN)
        return tokens

    def decode(self, token_ids: Sequence[int]) -> str:
        """Decode token ids back into text, skipping special tokens."""
        data = bytes(t for t in self._validate(token_ids) if t < 256)
        return data.decode("utf-8", errors="replace")

    def _validate(self, token_ids: Iterable[int]) -> List[int]:
        tokens = list(token_ids)
        for token in tokens:
            if not 0 <= token < self.vocab_size:
                raise ReproError(f"token id {token} outside vocabulary of {self.vocab_size}")
        return tokens

    # -- vocabulary --------------------------------------------------------

    def get_vocab(self) -> List[bytes]:
        """Return the vocabulary as a list of byte strings, index = token id."""
        vocab = [bytes([i]) for i in range(256)]
        vocab.extend([b"<bos>", b"<eos>", b"<pad>"])
        vocab.extend(b"<extra_%d>" % i for i in range(self.vocab_size - 259))
        return vocab

    def __len__(self) -> int:
        return self.vocab_size
