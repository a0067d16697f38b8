"""Replayable market-event schema and its text file format.

One event per line: ``A <side> <price> <delta>`` (adjust),
``B <side>`` (best-price query), ``N <side> <price>`` (next-best
query), ``T <side> <depth>`` (iterate best levels). Side is ``B``
(bids) or ``A`` (asks); numbers are decimal; ``#`` starts a comment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..errors import MalformedEvent

ADJUST = "A"
BEST = "B"
NEXT_BEST = "N"
ITER = "T"

BID = "B"
ASK = "A"

#: ops that never modify the book
READ_ONLY_OPS = frozenset({BEST, NEXT_BEST, ITER})

DEFAULT_ITER_DEPTH = 25


@dataclass(frozen=True)
class MarketEvent:
    op: str
    side: str
    price: int = 0
    delta: int = 0
    depth: int = DEFAULT_ITER_DEPTH

    def __post_init__(self):
        if self.op not in (ADJUST, BEST, NEXT_BEST, ITER):
            raise MalformedEvent(f"unknown op {self.op!r}")
        if self.side not in (BID, ASK):
            raise MalformedEvent(f"unknown side {self.side!r}")
        if self.op == ADJUST and self.delta == 0:
            raise MalformedEvent("adjust with zero delta")
        if self.op == ITER and self.depth < 1:
            raise MalformedEvent("iteration depth must be positive")

    def to_line(self) -> str:
        if self.op == ADJUST:
            return f"A {self.side} {self.price} {self.delta}"
        if self.op == BEST:
            return f"B {self.side}"
        if self.op == NEXT_BEST:
            return f"N {self.side} {self.price}"
        return f"T {self.side} {self.depth}"


def parse_event(line: str) -> MarketEvent:
    parts = line.split()
    try:
        op = parts[0]
        if op == ADJUST:
            return MarketEvent(ADJUST, parts[1], int(parts[2]), int(parts[3]))
        if op == BEST:
            return MarketEvent(BEST, parts[1])
        if op == NEXT_BEST:
            return MarketEvent(NEXT_BEST, parts[1], int(parts[2]))
        if op == ITER:
            return MarketEvent(ITER, parts[1], depth=int(parts[2]))
        raise MalformedEvent(f"unknown op {op!r}")
    except (IndexError, ValueError) as e:
        raise MalformedEvent(f"bad event line {line!r}: {e}") from e


def read_events(path: str) -> list[MarketEvent]:
    events = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                events.append(parse_event(line))
            except MalformedEvent as e:
                raise MalformedEvent(f"{path}:{lineno}: {e}") from e
    return events


def write_events(events: Iterable[MarketEvent], path: str, header: str = ""):
    with open(path, "w") as f:
        if header:
            f.write(f"# {header}\n")
        for ev in events:
            f.write(ev.to_line() + "\n")

