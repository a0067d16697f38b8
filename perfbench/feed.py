"""Seeded input generators for the benchmark workloads.

Both generators are pure functions of their seed: the same seed yields
the same event sequence, and each event costs O(1) expected work to
produce, so a stream of n events takes time linear in n. The structures
under test never see the generator, only the events it yields.

An event is ``(slot, args)``: ``slot`` indexes a workload's table of
bound methods (its ``methods``) and ``args`` are the call's arguments.
For the book feed, ``slot = 4 * side + op`` over the methods of
:data:`BOOK_OPS` on the bid (side 0) and ask (side 1) books:

* ``adjust(price, delta)``: the generator keeps its own copy of the
  book, so a delta is never zero and never drives a level below zero;
* ``best()``;
* ``iterate_best(depth)``;
* ``next_best_after(price)`` at a level among the ten best.

For the map feed, ``slot`` indexes :data:`MAP_OPS` directly.
"""

from __future__ import annotations

import random
from collections import deque

BOOK_OPS = ("adjust", "best", "iterate_best", "next_best_after")
ADJUST, BEST, ITERATE, NEXT_BEST = range(4)
BID = 0
ASK = 1

MAP_OPS = ("find", "insert", "erase", "next", "prev", "first_items")
FIND, INSERT, ERASE, NEXT, PREV, FIRST_ITEMS = range(6)

#: deepest rank a next-best query starts from, and deepest iteration;
#: both stay well inside the order book's default best window of 25
QUERY_RANKS = 10


def book_slot(side: int, op: int) -> int:
    return 4 * side + op


def _below(rng: random.Random, n: int) -> int:
    """Uniform int in [0, n); cheaper than ``randrange`` on the hot path."""
    return int(rng.random() * n)


class _Levels:
    """Price -> amount for one side, with O(1) uniform choice of a level."""

    def __init__(self):
        self.amount: dict[int, int] = {}
        self._order: list[int] = []
        self._pos: dict[int, int] = {}

    def __len__(self):
        return len(self._order)

    def set(self, price: int, amount: int):
        if price not in self.amount:
            self._pos[price] = len(self._order)
            self._order.append(price)
        self.amount[price] = amount

    def delete(self, price: int):
        del self.amount[price]
        i = self._pos.pop(price)
        last = self._order.pop()
        if last != price:
            self._order[i] = last
            self._pos[last] = i

    def choice(self, rng: random.Random) -> int:
        return self._order[_below(rng, len(self._order))]


class BookFeed:
    """Two-sided feed around a trending mid price.

    The mid moves on a small share of decisions, in a direction that
    persists for legs of about 1/P_FLIP moves, so the book trails levels
    behind it on the passive side. Every level the mid crosses is deleted
    at once, as a trade would take it out; most adjusts land a few ticks
    from the mid, and a side past ``DEPTH_TARGET`` levels sheds a random
    far level now and then, which holds each side at a few hundred levels.
    The shares below are per generated decision; trades come on top of
    them, as extra adjusts. Prices are ``key_bits``-bit keys.
    """

    P_BEST = 0.045
    P_ITERATE = 0.04
    P_NEXT = 0.015
    P_MOVE = 0.05
    P_FLIP = 0.02
    P_FAR_CANCEL = 0.12
    P_SHRINK = 0.45
    #: levels per side past which far levels are shed
    DEPTH_TARGET = 300

    def __init__(self, seed: int, key_bits: int):
        self.rng = random.Random(seed)
        self.hi = (1 << key_bits) - 1
        self.mid = 1 << (key_bits - 1)
        self.trend = 1
        self.sides = (_Levels(), _Levels())
        self._pending: deque[tuple] = deque()

    def _offset(self) -> int:
        """Geometric tick distance with mean about 2.6 (0 is the touch)."""
        rand = self.rng.random
        mag = 0
        while rand() >= 0.2752:
            mag += 1
        return mag

    def _move_mid(self):
        if self.rng.random() < self.P_FLIP:
            self.trend = -self.trend
        old = self.mid
        new = min(max(old + self.trend * (1 + self._offset()), 2), self.hi - 2)
        self.mid = new
        # levels the new mid crosses (or touches) are traded away
        if new > old:
            side, lo, hi = ASK, old + 1, new
        else:
            side, lo, hi = BID, new, old - 1
        levels = self.sides[side]
        slot = book_slot(side, ADJUST)
        for price in range(lo, hi + 1):
            amount = levels.amount.get(price)
            if amount is not None:
                levels.delete(price)
                self._pending.append((slot, (price, -amount)))

    def _adjust(self, side: int) -> tuple:
        rng = self.rng
        levels = self.sides[side]
        slot = book_slot(side, ADJUST)
        if len(levels) > self.DEPTH_TARGET and rng.random() < self.P_FAR_CANCEL:
            price = levels.choice(rng)
            amount = levels.amount[price]
            levels.delete(price)
            return (slot, (price, -amount))
        off = self._offset()
        price = self.mid - 1 - off if side == BID else self.mid + 1 + off
        have = levels.amount.get(price, 0)
        if have and rng.random() < self.P_SHRINK:
            delta = -have if rng.random() < 0.6 else -1 - _below(rng, have)
        else:
            delta = 1 + _below(rng, 100)
        if have + delta:
            levels.set(price, have + delta)
        else:
            levels.delete(price)
        return (slot, (price, delta))

    def _ranked_level(self, side: int, rank: int) -> int | None:
        """The level at 0-based ``rank`` from the touch, by scanning ticks
        outward from the mid; None when the scan finds too few levels."""
        amount = self.sides[side].amount
        step = -1 if side == BID else 1
        price = self.mid
        seen = -1
        for _ in range(256):
            price += step
            if price in amount:
                seen += 1
                if seen == rank:
                    return price
        return None

    def next_event(self) -> tuple:
        if self._pending:
            return self._pending.popleft()
        rng = self.rng
        r = rng.random()
        side = BID if rng.random() < 0.5 else ASK
        if r < self.P_BEST:
            return (book_slot(side, BEST), ())
        r -= self.P_BEST
        if r < self.P_ITERATE:
            return (book_slot(side, ITERATE), (1 + _below(rng, QUERY_RANKS),))
        r -= self.P_ITERATE
        if r < self.P_NEXT:
            price = self._ranked_level(side, _below(rng, QUERY_RANKS))
            if price is None:
                return (book_slot(side, BEST), ())
            return (book_slot(side, NEXT_BEST), (price,))
        if rng.random() < self.P_MOVE:
            self._move_mid()
            self._pending.append(self._adjust(side))
            return self._pending.popleft()
        return self._adjust(side)

    def take(self, count: int) -> list[tuple]:
        nxt = self.next_event
        return [nxt() for _ in range(count)]


class MapFeed:
    """Uniform ``key_bits``-bit keys at a constant live size.

    :meth:`fill_keys` gives the keys that build the map up to ``size``;
    afterwards every erase of a present key is followed by the insert
    of a fresh one, so the size never drifts. Uniform keys share almost
    no leading chunks, so the cached path gives descents no head start.
    """

    #: cumulative shares of find-present, find-absent, next, prev,
    #: erase-then-insert; the rest is first_items
    MIX = (0.30, 0.50, 0.625, 0.75, 0.99)

    def __init__(self, seed: int, key_bits: int, size: int):
        self.rng = random.Random(seed)
        self.key_bits = key_bits
        self.size = size
        self.live = _Levels()
        self._pending: list[tuple] = []

    @staticmethod
    def value_of(key: int) -> int:
        return (key & 0xFFFF) + 1

    def _key(self) -> int:
        return self.rng.getrandbits(self.key_bits)

    def _fresh(self) -> int:
        while True:
            key = self._key()
            if key not in self.live.amount:
                return key

    def fill_keys(self) -> list[int]:
        keys = []
        while len(self.live) < self.size:
            key = self._fresh()
            self.live.set(key, 1)
            keys.append(key)
        return keys

    def next_event(self) -> tuple:
        if self._pending:
            return self._pending.pop()
        rng = self.rng
        live = self.live
        r = rng.random()
        f_hit, f_miss, nxt, prv, churn = self.MIX
        if r < f_hit:
            return (FIND, (live.choice(rng),))
        if r < f_miss:
            return (FIND, (self._fresh(),))
        if r < nxt:
            return (NEXT, (self._key(),))
        if r < prv:
            return (PREV, (self._key(),))
        if r < churn:
            old = live.choice(rng)
            live.delete(old)
            new = self._fresh()
            live.set(new, 1)
            self._pending.append((INSERT, (new, self.value_of(new))))
            return (ERASE, (old,))
        return (FIRST_ITEMS, (1 + _below(rng, QUERY_RANKS), rng.random() < 0.5))

    def take(self, count: int) -> list[tuple]:
        nxt = self.next_event
        return [nxt() for _ in range(count)]
