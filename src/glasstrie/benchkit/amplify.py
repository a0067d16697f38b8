"""Workload amplification: isolate one read-only operation's cost.

Each occurrence of the target op is replaced by ``factor`` identical
copies, and every *other* read-only op is dropped so the measurement is
dominated by the target. Modifying ops cannot be amplified: a repeated
adjust degenerates into a lookup and stops representing the original
operation.
"""

from __future__ import annotations

from typing import Iterable

from ..errors import AmplifyModifying, InvalidArgument
from .events import ITER, READ_ONLY_OPS, MarketEvent


def amplify(
    events: Iterable[MarketEvent],
    factor: int,
    target_op: str = ITER,
) -> list[MarketEvent]:
    if factor < 1:
        raise InvalidArgument(f"amplification factor must be at least 1, got {factor}")
    if target_op not in READ_ONLY_OPS:
        raise AmplifyModifying(
            f"op {target_op!r} modifies the book and cannot be amplified"
        )
    out: list[MarketEvent] = []
    for ev in events:
        if ev.op == target_op:
            out.extend([ev] * factor)
        elif ev.op in READ_ONLY_OPS:
            continue
        else:
            out.append(ev)
    return out
