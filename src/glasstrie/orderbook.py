"""One side of a limit order book over a bounded glass.

Every level's amount lives in one dict, ``amounts``, next to the trie.
The glass holds only the best prices, each mapped to ``True``: it is the
ordered set the best/next queries walk. A price is in the glass exactly
when it is strictly better than a threshold price; the levels that are
not (the overflow) are simply the rest of ``amounts``, with no second
container. An update that keeps its level is one dict store and never
touches the trie; only a level that is born or dies does.

A new level that finds the glass full is *preempted*: the threshold
becomes its price and every glass level not strictly better than it
leaves the glass with one trie cut (``Glass.split_off``), its amount
staying where it was. When a best/next query runs off the end of the
glass while levels are spilled, a restructure ranks every price with
one sort, finds the spilled ones with one bisection at the threshold,
puts the best that fit back into the glass in one bulk build
(``Glass.insert_sorted``) and makes the best one left the threshold.
Queries never range past the configured best-price window, so a
restructure always finds room; a full glass at that point means the
caller broke the window contract and gets an error.

A price outside ``[0, 2**key_bits)`` is refused by ``insert``, the one
door every new level passes, with the book unchanged. Without that check,
whether such a price was accepted would depend on how full the glass
is: below ``max_size`` the glass refuses it, while a full glass would
preempt it, make it the threshold, and every later restructure would
fail to move it back.

The glass's pool is capped at the node bound for ``max_size`` and grows
with the live levels (see ``nodepool``), so a side sized for the worst
case holds memory only for the levels it has.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from .errors import ConfigError, IntegrityError, InvalidArgument, NegativeAmount, PriceTooFar
from .glass import Glass, create

MIN_SIDE = "min"
MAX_SIDE = "max"


class OrderBook:
    """Aggregated price levels for one book side.

    side MIN_SIDE: best price is the lowest (asks);
    side MAX_SIDE: best price is the highest (bids).
    Amounts are positive ints; a level whose amount reaches zero is
    deleted. Single-threaded.
    """

    def __init__(
        self,
        side: str,
        max_size: int = 9000,
        best_window: int = 25,
        key_bits: int = 50,
        chunk_bits: int = 5,
        width: int = 16,
    ):
        if side not in (MIN_SIDE, MAX_SIDE):
            raise ConfigError(f"side must be {MIN_SIDE!r} or {MAX_SIDE!r}")
        if not 1 <= best_window < max_size:
            raise ConfigError(
                f"best window {best_window} must be positive and below max size {max_size}"
            )
        self.side = side
        self.max_size = max_size
        self.best_window = best_window
        self._price_limit = 1 << key_bits
        #: the best prices, each mapped to True
        self.glass: Glass = create(
            key_bits=key_bits,
            chunk_bits=chunk_bits,
            width=width,
            max_size=max_size,
        )
        #: every level's amount, in the glass or spilled
        self.amounts: dict[int, int] = {}
        #: None plays "worse than any real price"; set exactly while some
        #: level is spilled
        self.threshold: int | None = None

    # -- side-dependent primitives --------------------------------------

    def better(self, a: int, b: int) -> bool:
        return a < b if self.side == MIN_SIDE else a > b

    def _glass_best(self) -> int | None:
        return self.glass.min() if self.side == MIN_SIDE else self.glass.max()

    def _glass_next_worse(self, price: int) -> int | None:
        if self.side == MIN_SIDE:
            return self.glass.next(price)
        return self.glass.prev(price)

    # -- book operations -------------------------------------------------

    def adjust(self, price: int, delta: int):
        """Add ``delta`` to the level at ``price`` (creating or deleting
        the level as needed).

        An update that keeps its level is one read and one store in
        ``amounts``, with no routing and no trie call. Only a new level
        goes through :meth:`insert`, where preemption lives, and only a
        dying one through :meth:`erase`. A price outside
        ``[0, 2**key_bits)`` is never held, so it reaches :meth:`insert`,
        which refuses it (a negative delta raises NegativeAmount first);
        the level updates that make up most of a feed pay no range check.
        """
        if delta == 0:
            raise InvalidArgument(f"zero delta for level {price}")
        amounts = self.amounts
        held = amounts.get(price, 0)
        amount = held + delta
        if amount < 0:
            raise NegativeAmount(f"level {price} would go to {amount} (corrupt feed)")
        if not held:
            self.insert(price, amount)
        elif amount:
            amounts[price] = amount
        else:
            self.erase(price)

    def insert(self, price: int, amount: int):
        """Place a level not currently in the book; a price outside
        ``[0, 2**key_bits)`` or an amount that is not positive raises
        InvalidArgument, with the book unchanged."""
        if not 0 <= price < self._price_limit:
            raise InvalidArgument(f"price {price} is outside [0, {self._price_limit})")
        if amount <= 0:
            raise InvalidArgument(f"level {price} given amount {amount}, not a positive one")
        t = self.threshold
        if t is None or (price < t if self.side == MIN_SIDE else price > t):
            glass = self.glass
            if glass.size < self.max_size:
                glass.insert(price, True)
            else:
                # preemption: the glass is full, so the new level spills
                # and the threshold drops to its price. Every glass level
                # no longer strictly better than the new threshold must
                # leave the glass too, or the glass would hold a spilled
                # price. One trie cut at the price removes them all: every
                # level at or above it on a min side, at or below it on a
                # max side. Their amounts stay in ``amounts``.
                self.threshold = price
                glass.split_off(price, self.side == MIN_SIDE)
        self.amounts[price] = amount

    def erase(self, price: int):
        if self.amounts.pop(price, None) is None:
            return
        t = self.threshold
        if t is None or (price < t if self.side == MIN_SIDE else price > t):
            self.glass.erase(price)
        elif len(self.amounts) == self.glass.size:
            # the last spilled level is gone: keep "threshold set iff a
            # level is spilled" true, so a later miss cannot trip a
            # pointless restructure
            self.threshold = None

    def find(self, price: int) -> int | None:
        return self.amounts.get(price)

    def best(self) -> int | None:
        """Best price of the whole book, or None when it is empty."""
        if self.glass.size == 0 and self.threshold is not None:
            self.restructure()
        return self._glass_best()

    def next_best_after(self, price: int) -> int | None:
        """Next worse price after ``price``; only supported within the
        configured best-price window."""
        result = self._glass_next_worse(price)
        if result is None and self.threshold is not None:
            self.restructure()
            result = self._glass_next_worse(price)
        return result

    def restructure(self):
        """Move the best spilled levels into the glass and advance the
        threshold to the best price left spilled (or clear it).

        With nothing spilled it returns at once. Otherwise one sort of
        every price in ``amounts`` ranks them, and a bisection at the
        threshold splits the glass's prices, all strictly better, from
        the spilled ones (``bisect_left`` on a min side, whose spilled
        prices lie at and above it, ``bisect_right`` on a max side). The
        levels that fit go into the glass in one ``Glass.insert_sorted``
        call, which builds the ranked run one pre-leaf at a time, and the
        rank just past them is the new threshold. Amounts do not move.
        """
        t = self.threshold
        if t is None:
            return
        available = self.max_size - self.glass.size
        if available == 0:
            raise PriceTooFar(
                "next-best query beyond the reachable window: glass already full"
            )
        ranked = sorted(self.amounts)
        if self.side == MIN_SIDE:
            start = bisect_left(ranked, t)
            stop = start + available
            self.glass.insert_sorted(ranked[start:stop], True)
            self.threshold = ranked[stop] if stop < len(ranked) else None
        else:
            stop = bisect_right(ranked, t)
            start = stop - available
            run = ranked[start if start > 0 else 0:stop]
            run.reverse()
            self.glass.insert_sorted(run, True)
            self.threshold = ranked[start - 1] if start > 0 else None

    def iterate_best(self, depth: int) -> list[tuple[int, int]]:
        """Best ``depth`` levels, best first, as (price, amount) pairs.

        Walks the glass's prices in one ``first_items`` call and reads
        each amount from ``amounts``; a glass that runs dry mid-window,
        or is empty while levels are spilled, is refilled by a
        restructure and walked again.
        """
        if depth > self.best_window:
            raise ConfigError(
                f"iteration depth {depth} exceeds best window {self.best_window}"
            )
        descending = self.side == MAX_SIDE
        items = self.glass.first_items(depth, descending)
        if len(items) < depth and self.threshold is not None:
            # the glass ran dry mid-window: pull levels back and rewalk
            self.restructure()
            items = self.glass.first_items(depth, descending)
        amounts = self.amounts
        return [(price, amounts[price]) for price, _ in items]

    # -- introspection ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.amounts)

    @property
    def overflow(self) -> dict[int, int]:
        """The spilled levels as a new {price: amount} dict: every level
        not strictly better than the threshold. O(levels); for tests and
        demos."""
        t = self.threshold
        if t is None:
            return {}
        better = self.better
        return {p: a for p, a in self.amounts.items() if not better(p, t)}

    def levels(self) -> list[tuple[int, int]]:
        """Every level, best first (test helper; walks everything)."""
        descending = self.side == MAX_SIDE
        prices = self.glass.keys()
        if descending:
            prices.reverse()
        prices += sorted(self.overflow, reverse=descending)
        amounts = self.amounts
        return [(price, amounts[price]) for price in prices]

    def check_invariants(self):
        """Check the glass/amounts partition and raise IntegrityError on
        the first break; test harness use, O(levels). Plain ``if``s, so
        the checks also run under ``python -O``."""
        glass = self.glass
        amounts = self.amounts
        t = self.threshold
        if glass.size > self.max_size:
            raise IntegrityError(f"glass holds {glass.size} levels, over {self.max_size}")
        items = glass.first_items(glass.size)
        for price, value in items:
            if value is not True:
                raise IntegrityError(f"glass maps price {price} to {value!r}, not True")
            if price not in amounts:
                raise IntegrityError(f"glass price {price} has no amount")
            if t is not None and not self.better(price, t):
                raise IntegrityError(f"glass price {price} not better than threshold {t}")
        for price, amount in amounts.items():
            if type(amount) is not int or amount <= 0:
                raise IntegrityError(f"level {price} holds {amount!r}, not a positive int")
        spilled = set(amounts).difference(price for price, _ in items)
        if (t is None) != (not spilled):
            raise IntegrityError(f"threshold {t} with {len(spilled)} spilled levels")
        for price in spilled:
            if self.better(price, t):
                raise IntegrityError(f"spilled price {price} better than threshold {t}")
