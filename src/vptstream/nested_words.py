"""Structured alphabets and nested-word scanning.

A structured alphabet partitions symbols into calls, returns and internals.
Words over it are *nested words*: calls open a nesting level, returns close
one.  The scanner tracks the current height (pending calls), the maximum
height seen, and whether some prefix closed more levels than were open.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, NamedTuple


class UnknownSymbol(ValueError):
    """A symbol outside all three partitions of the alphabet."""


class SymbolKind(enum.Enum):
    CALL = "call"
    RETURN = "return"
    INTERNAL = "internal"
    UNKNOWN = "unknown"


def _check_token(token: str) -> None:
    if not token or any(ch.isspace() for ch in token):
        raise ValueError(f"symbol tokens must be non-empty and whitespace-free: {token!r}")


@dataclass(frozen=True)
class StructuredAlphabet:
    """Pairwise-disjoint call / return / internal symbol sets."""

    calls: frozenset[str]
    returns: frozenset[str]
    internals: frozenset[str]

    def __init__(self, calls: Iterable[str] = (), returns: Iterable[str] = (),
                 internals: Iterable[str] = ()):
        object.__setattr__(self, "calls", frozenset(calls))
        object.__setattr__(self, "returns", frozenset(returns))
        object.__setattr__(self, "internals", frozenset(internals))
        for token in self.calls | self.returns | self.internals:
            _check_token(token)
        if (self.calls & self.returns) or (self.calls & self.internals) \
                or (self.returns & self.internals):
            overlap = (self.calls & self.returns) | (self.calls & self.internals) \
                | (self.returns & self.internals)
            raise ValueError(f"call/return/internal sets must be disjoint; shared: {sorted(overlap)}")

    @property
    def symbols(self) -> frozenset[str]:
        return self.calls | self.returns | self.internals

    def __contains__(self, symbol: str) -> bool:
        return symbol in self.calls or symbol in self.returns or symbol in self.internals


def classify(symbol: str, alphabet: StructuredAlphabet) -> SymbolKind:
    """Partition class of ``symbol``; UNKNOWN if it is not in the alphabet."""
    if symbol in alphabet.calls:
        return SymbolKind.CALL
    if symbol in alphabet.returns:
        return SymbolKind.RETURN
    if symbol in alphabet.internals:
        return SymbolKind.INTERNAL
    return SymbolKind.UNKNOWN


class ScanState(NamedTuple):
    """Progress of a nested-word scan.

    ``hc`` is the number of pending calls after the consumed prefix, ``h``
    the maximum ``hc`` over all prefixes, and ``valid`` is False once some
    prefix consumed a return at height 0.  ``valid`` is monotone.  A tuple,
    because the evaluator steps one per symbol.
    """

    position: int = 0
    hc: int = 0
    h: int = 0
    valid: bool = True

    def step(self, kind: SymbolKind) -> "ScanState":
        position = self.position + 1
        if kind is SymbolKind.CALL:
            hc = self.hc + 1
            return ScanState(position, hc, max(self.h, hc), self.valid)
        if kind is SymbolKind.RETURN:
            if self.hc == 0:
                return ScanState(position, 0, self.h, False)
            return ScanState(position, self.hc - 1, self.h, self.valid)
        if kind is SymbolKind.INTERNAL:
            return ScanState(position, self.hc, self.h, self.valid)
        raise UnknownSymbol("cannot scan an unknown symbol")


def scan(word: Iterable[str], alphabet: StructuredAlphabet,
         start: ScanState | None = None) -> ScanState:
    """Scan ``word`` (continuing from ``start`` if given).

    Raises UnknownSymbol on the first symbol outside the alphabet.  Invalid
    prefixes (a return at height 0) do not raise; they make the resulting
    state ``valid=False`` so a streaming caller can reject gracefully.
    """
    state = start if start is not None else ScanState()
    for symbol in word:
        kind = classify(symbol, alphabet)
        if kind is SymbolKind.UNKNOWN:
            raise UnknownSymbol(f"symbol {symbol!r} is not in the alphabet")
        state = state.step(kind)
    return state


def is_well_nested(word: Iterable[str], alphabet: StructuredAlphabet) -> bool:
    """True iff every return matches an open call and none stay pending."""
    state = scan(word, alphabet)
    return state.valid and state.hc == 0
