"""Deterministic synthetic workloads.

Two generators: unique price sequences whose successive differences are
small and nonzero (the shape real feeds have), used to measure single
operations in isolation; and full two-sided market event streams with
price movement concentrated near the touch, used as a stand-in for a
recorded feed.
"""

from __future__ import annotations

import random

from ..errors import InvalidArgument
from ..oracle import STEP_P, geometric_step, walk_step
from .events import ADJUST, ASK, BEST, BID, ITER, MarketEvent

#: a market stream's touch sits this many ticks either side of its mid
SPREAD = 4
#: live levels per side above which a market stream stops adding levels
LEVELS_TARGET = 150
#: share of a market stream's events that are queries, half best and
#: half iteration
QUERY_RATE = 0.08


def local_price_sequence(
    seed: int,
    count: int,
    key_bits: int = 50,
    step_p: float = STEP_P,
) -> list[int]:
    """``count`` distinct prices from a small-step random walk that
    starts mid-range.

    Revisited prices are skipped by extending the walk, so successive
    outputs are close but never equal and never repeat an old price. A
    ``count`` below 1 raises InvalidArgument.
    """
    if count < 1:
        raise InvalidArgument(f"price count must be at least 1, got {count}")
    rng = random.Random(seed)
    hi = (1 << key_bits) - 1
    price = hi // 2
    seen = {price}
    out = [price]
    while len(out) < count:
        price = walk_step(rng, price, hi, step_p)
        if price not in seen:
            seen.add(price)
            out.append(price)
    return out


def absent_neighbors(prices: list[int], key_bits: int = 50) -> list[int]:
    """For each price, a nearby key guaranteed absent from the set.

    Keeps the lookup stream as sequentially local as the insert stream
    while every query misses.
    """
    present = set(prices)
    hi = (1 << key_bits) - 1
    out = []
    for p in prices:
        offset = 1
        while True:
            for q in (p + offset, p - offset):
                if 0 <= q <= hi and q not in present:
                    out.append(q)
                    break
            else:
                offset += 1
                continue
            break
    return out


def market_events(seed: int, count: int, key_bits: int = 50) -> list[MarketEvent]:
    """Two-sided event stream shaped like recorded feed data.

    A mid price random-walks from mid-range; adjusts land geometrically
    close to the touch of a random side (edge locality), removals
    balance additions around ``LEVELS_TARGET`` live levels per side, and
    best/iterate queries (iterations at the default depth) are sprinkled
    in at ``QUERY_RATE``.
    """
    rng = random.Random(seed)
    hi = (1 << key_bits) - 1
    mid = hi // 2
    books = {BID: {}, ASK: {}}
    out: list[MarketEvent] = []
    while len(out) < count:
        mid = min(max(mid + geometric_step(rng), SPREAD + 1), hi - SPREAD - 1)
        side = BID if rng.random() < 0.5 else ASK
        book = books[side]
        r = rng.random()
        if r < QUERY_RATE / 2:
            out.append(MarketEvent(BEST, side))
            continue
        if r < QUERY_RATE:
            out.append(MarketEvent(ITER, side))
            continue
        # price near the touch, on the passive side of the mid
        offset = abs(geometric_step(rng)) - 1
        price = mid - SPREAD - offset if side == BID else mid + SPREAD + offset
        price = min(max(price, 0), hi)
        have = book.get(price, 0)
        crowded = len(book) >= LEVELS_TARGET
        if have and (crowded or rng.random() < 0.45):
            delta = -have if rng.random() < 0.5 else -rng.randint(1, have)
        elif have:
            delta = rng.randint(1, 40)
        elif crowded:
            continue
        else:
            delta = rng.randint(1, 40)
        new_amount = have + delta
        if new_amount:
            book[price] = new_amount
        else:
            del book[price]
        out.append(MarketEvent(ADJUST, side, price, delta))
    return out
