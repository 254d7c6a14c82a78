"""Incremental JSON recogniser producing per-step byte masks.

The machine accepts a useful JSON subset — objects with string keys, arrays,
strings without escapes, non-negative integers, ``true``/``false``/``null``
— and exposes two operations:

* :meth:`JsonMachine.allowed_next_bytes` — the set of bytes that may come
  next (the token mask for a byte-level tokenizer);
* :meth:`JsonMachine.advance` — consume one byte (must be allowed).

The implementation is an explicit pushdown automaton: a state name plus a
stack of open containers, which keeps each step O(1) and easy to verify.
"""

from __future__ import annotations

from typing import List, Set

from repro.errors import GrammarError

_DIGITS = set(b"0123456789")
_STRING_CHARS = {
    byte
    for byte in range(0x20, 0x7F)
    if byte not in (ord('"'), ord("\\"))
}


class JsonMachine:
    """Byte-level incremental recogniser for a JSON subset."""

    def __init__(self) -> None:
        self._stack: List[str] = []  # "object" | "array"
        self._state = "value"
        self._literal_rest: bytes = b""
        self._consumed = bytearray()

    # -- introspection -----------------------------------------------------

    @property
    def text(self) -> str:
        return self._consumed.decode("utf-8", errors="replace")

    def is_complete(self) -> bool:
        """True once a full top-level JSON value has been consumed.

        A bare top-level number is complete at any point (nothing terminates
        it other than end of input).
        """
        if self._state == "done" and not self._stack:
            return True
        return self._state == "number" and not self._stack

    # -- the automaton ------------------------------------------------------

    def allowed_next_bytes(self) -> Set[int]:
        state = self._state
        if state == "value":
            allowed = {ord('"'), ord("{"), ord("["), ord("t"), ord("f"), ord("n")} | _DIGITS
            if self._may_close_empty_array():
                allowed.add(ord("]"))
            return allowed
        if state == "string":
            return _STRING_CHARS | {ord('"')}
        if state == "key":
            return _STRING_CHARS | {ord('"')}
        if state == "key_start":
            return {ord('"')} | ({ord("}")} if self._may_close_empty_object() else set())
        if state == "colon":
            return {ord(":")}
        if state == "number":
            allowed = set(_DIGITS)
            allowed |= self._container_close_or_separator()
            return allowed
        if state == "literal":
            return {self._literal_rest[0]}
        if state == "after_value":
            return self._container_close_or_separator()
        if state == "done":
            return set()
        raise GrammarError(f"unknown JSON machine state {state!r}")

    def _may_close_empty_object(self) -> bool:
        return bool(self._consumed) and chr(self._consumed[-1]) == "{"

    def _may_close_empty_array(self) -> bool:
        return (
            bool(self._stack)
            and self._stack[-1] == "array"
            and bool(self._consumed)
            and chr(self._consumed[-1]) == "["
        )

    def _container_close_or_separator(self) -> Set[int]:
        if not self._stack:
            return set()
        if self._stack[-1] == "object":
            return {ord(","), ord("}")}
        return {ord(","), ord("]")}

    def advance(self, byte: int) -> None:
        """Consume one byte; raises :class:`GrammarError` if it is not allowed."""
        if isinstance(byte, (bytes, bytearray)):
            if len(byte) != 1:
                raise GrammarError("advance expects a single byte")
            byte = byte[0]
        if byte not in self.allowed_next_bytes():
            raise GrammarError(
                f"byte {chr(byte)!r} not allowed in state {self._state!r} after {self.text!r}"
            )
        self._consumed.append(byte)
        self._transition(byte)

    def advance_text(self, text: str) -> None:
        for byte in text.encode("utf-8"):
            self.advance(byte)

    def _transition(self, byte: int) -> None:
        char = chr(byte)
        state = self._state
        if state == "value":
            if char == '"':
                self._state = "string"
            elif char == "{":
                self._stack.append("object")
                self._state = "key_start"
            elif char == "[":
                self._stack.append("array")
                self._state = "value"
            elif char == "]" and self._stack and self._stack[-1] == "array":
                self._stack.pop()
                self._finish_value(already_closed=True)
            elif char in "tfn":
                literal = {"t": b"true", "f": b"false", "n": b"null"}[char]
                self._literal_rest = literal[1:]
                self._state = "literal" if self._literal_rest else "after_value"
            elif byte in _DIGITS:
                self._state = "number"
            return
        if state == "string":
            if char == '"':
                self._finish_value()
            return
        if state == "key_start":
            if char == '"':
                self._state = "key"
            elif char == "}":
                self._stack.pop()
                self._finish_value(already_closed=True)
            return
        if state == "key":
            if char == '"':
                self._state = "colon"
            return
        if state == "colon":
            self._state = "value"
            return
        if state == "number":
            if byte in _DIGITS:
                return
            self._handle_close_or_separator(char)
            return
        if state == "literal":
            if byte != self._literal_rest[0]:
                raise GrammarError("literal mismatch")
            self._literal_rest = self._literal_rest[1:]
            if not self._literal_rest:
                self._finish_value()
            return
        if state == "after_value":
            self._handle_close_or_separator(char)
            return
        raise GrammarError(f"cannot advance from state {state!r}")

    def _handle_close_or_separator(self, char: str) -> None:
        if not self._stack:
            raise GrammarError("separator outside any container")
        container = self._stack[-1]
        if char == ",":
            self._state = "key_start" if container == "object" else "value"
        elif char == "}" and container == "object":
            self._stack.pop()
            self._finish_value(already_closed=True)
        elif char == "]" and container == "array":
            self._stack.pop()
            self._finish_value(already_closed=True)
        else:
            raise GrammarError(f"unexpected {char!r} while closing {container}")

    def _finish_value(self, already_closed: bool = False) -> None:
        if self._stack:
            self._state = "after_value"
        else:
            self._state = "done"
