"""Workload amplification: isolate the cost of iterating the best levels.

Each iteration event is replaced by ``factor`` identical copies, and
every other read-only event is dropped, so the measurement is dominated
by iteration. Iteration is the one amplified op: it is what
``bench replay --amplify-iter`` and the replay-iter family measure, and
a repeated adjust would degenerate into a lookup and stop representing
the original operation. Adjusts pass through once each, in order.
"""

from __future__ import annotations

from typing import Iterable

from ..errors import InvalidArgument
from .events import ITER, READ_ONLY_OPS, MarketEvent


def amplify(events: Iterable[MarketEvent], factor: int) -> list[MarketEvent]:
    if factor < 1:
        raise InvalidArgument(f"amplification factor must be at least 1, got {factor}")
    out: list[MarketEvent] = []
    for ev in events:
        if ev.op == ITER:
            out.extend([ev] * factor)
        elif ev.op not in READ_ONLY_OPS:
            out.append(ev)
    return out
